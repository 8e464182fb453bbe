"""Run the vlandau CLI of two checkouts on five fixed cases and compare
what the runs leave, byte for byte.

    python tools/same_outputs.py PARENT_ROOT CHANGE_ROOT

Each case runs ``python -m vlandau.cli`` of each checkout, with that
checkout's ``src`` as PYTHONPATH and OPENBLAS_NUM_THREADS=1, in a
fresh directory of its own that holds only the case's config; both runs
see the same relative paths.  The cases:

* ``solve`` on ``configs/reference.cfg`` at ``--z 0.3``;
* ``solve`` on the ``solve-nx128`` benchmark config at ``--z -0.41``;
* ``uq`` on ``configs/reference.cfg``;
* ``uq`` on the ``uq-coarse`` benchmark config, k = 1 slope 2.2e-6;
* ``check`` on ``configs/reference.cfg``.

The two benchmark configs come from ``perfbench/workloads.config_text``
next to this script, imported without writing bytecode there;
``configs/reference.cfg`` is each checkout's own.
The exit code, stdout, stderr and every file the run writes are
compared.  One line per case, ``same`` or what differs; the exit code is
1 on any difference.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def _reference(root: str) -> str:
    with open(os.path.join(root, "configs", "reference.cfg")) as fh:
        return fh.read()


def _workload(name: str, slope: float | None = None):
    """The config of a benchmark workload, the reference slope unless
    slope is given; perfbench/workloads.py is imported on the first call,
    without writing bytecode next to it."""
    def config(root: str) -> str:
        sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
        sys.dont_write_bytecode, write = True, sys.dont_write_bytecode
        try:
            import workloads
        finally:
            sys.path.pop(0)
            sys.dont_write_bytecode = write
        c1 = (workloads.C1_MEAN,
              workloads.REF_SLOPE if slope is None else slope)
        return workloads.config_text(workloads.WORKLOADS[name], c1)
    return config


# (label, CLI arguments after the command's --config and --out, config)
CASES = [
    ("solve reference.cfg --z 0.3", ["solve", "--z", "0.3"], _reference),
    ("solve solve-nx128 --z -0.41", ["solve", "--z", "-0.41"],
     _workload("solve-nx128")),
    ("uq reference.cfg", ["uq"], _reference),
    ("uq uq-coarse slope 2.2e-6", ["uq"], _workload("uq-coarse", 2.2e-6)),
    ("check reference.cfg", ["check"], _reference),
]


def run(root: str, args: list[str], config, cwd: str) -> dict:
    """{name: bytes} of one CLI run in cwd: its exit code, stdout, stderr
    and every file under cwd afterwards, by relative path."""
    with open(os.path.join(cwd, "case.cfg"), "w") as fh:
        fh.write(config(root))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    cmd = [sys.executable, "-m", "vlandau.cli", args[0], "--config",
           "case.cfg", "--out", "out", *args[1:]]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True)
    seen = {"exit code": str(proc.returncode).encode(),
            "stdout": proc.stdout, "stderr": proc.stderr}
    for top, _, files in os.walk(cwd):
        for name in files:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                seen[os.path.relpath(path, cwd)] = fh.read()
    return seen


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = argv
    differs = False
    for label, args, config in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            seen = []
            for root, sub in ((parent, "parent"), (change, "change")):
                cwd = os.path.join(tmp, sub)
                os.mkdir(cwd)
                seen.append(run(root, args, config, cwd))
        a, b = seen
        bad = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        differs |= bool(bad)
        print(f"{label}: " + (f"differs in {', '.join(bad)}" if bad
                              else "same"), flush=True)
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
