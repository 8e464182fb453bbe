"""Run the vlandau CLI of two checkouts on six fixed cases and compare
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
* ``check`` on ``configs/reference.cfg``;
* ``uq`` on the ``uq-coarse`` grids with K = 3 from t0 = 12, 9 nodes and
  a k = 1 amplitude trigonometric in z (TRIG_K3): the only case that
  runs the tangent's m = 3 terms and a profile not linear in z.

The two benchmark configs come from ``perfbench/workloads.config_text``
next to this script, imported without writing bytecode there;
``configs/reference.cfg`` is each checkout's own.
The exit code, stdout, stderr and every file the run writes are
compared.  One line per case, ``same`` or what differs, followed by the
peak RSS of the two runs, ``(peak RSS a → b MB)`` with ``ru_maxrss``
from ``os.wait4`` read in Linux's KiB: the largest peak of the CLI process
and its workers.  The exit code is 1 on any difference.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# Linux carries the peak resident set of the process that starts a child
# over into the child's, so each run is started from a bare interpreter,
# far smaller than any run, which reads the run's peak from wait4
LAUNCH = """
import os, subprocess, sys
with open(sys.argv[1], "wb") as out, open(sys.argv[2], "wb") as err:
    proc = subprocess.Popen(sys.argv[3:], stdout=out, stderr=err)
    _, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


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


# the uq-coarse grids, K = 3 (which needs t0 >= 12) and the k = 1
# amplitude 1e-5 + 3e-6 (cos 3z + sin 3z)
TRIG_K3 = """params {
  a 1
  a1 0.002
  a2 0.002
  K 3
  t0 12
}
profile {
  shape sech
  rate 1.5707963267948966
  scale 1
  mode {
    k 0
    poly 8e-05
  }
  mode {
    k 1
    trig 1e-05 0 0 0 0 3e-06 3e-06
  }
}
grids {
  nx 32
  nv 65
  v_max 6
  nt 88
  t_end 43
  n_z 9
}
output {
  dir out
}
"""

# (label, CLI arguments after the command's --config and --out, config)
CASES = [
    ("solve reference.cfg --z 0.3", ["solve", "--z", "0.3"], _reference),
    ("solve solve-nx128 --z -0.41", ["solve", "--z", "-0.41"],
     _workload("solve-nx128")),
    ("uq reference.cfg", ["uq"], _reference),
    ("uq uq-coarse slope 2.2e-6", ["uq"], _workload("uq-coarse", 2.2e-6)),
    ("check reference.cfg", ["check"], _reference),
    ("uq uq-coarse K 3 trig", ["uq"], lambda root: TRIG_K3),
]


def run(root: str, args: list[str], config, cwd: str) -> tuple[dict, float]:
    """({name: bytes}, peak RSS in MB) of one CLI run in cwd: its exit
    code, stdout, stderr and every file under cwd afterwards, by relative
    path; stdout and stderr pass through cwd + ".stdout" and ".stderr"."""
    with open(os.path.join(cwd, "case.cfg"), "w") as fh:
        fh.write(config(root))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    logs = [cwd + ".stdout", cwd + ".stderr"]
    cmd = [sys.executable, "-c", LAUNCH, *logs, sys.executable, "-m",
           "vlandau.cli", args[0], "--config", "case.cfg", "--out", "out",
           *args[1:]]
    code, maxrss = subprocess.run(cmd, cwd=cwd, env=env, check=True,
                                  capture_output=True).stdout.split()
    seen = {"exit code": code}
    for name, path in zip(("stdout", "stderr"), logs):
        with open(path, "rb") as fh:
            seen[name] = fh.read()
    for top, _, files in os.walk(cwd):
        for name in files:
            path = os.path.join(top, name)
            with open(path, "rb") as fh:
                seen[os.path.relpath(path, cwd)] = fh.read()
    return seen, int(maxrss) / 1024.0


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
        (a, peak_a), (b, peak_b) = seen
        bad = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        differs |= bool(bad)
        verdict = f"differs in {', '.join(bad)}" if bad else "same"
        print(f"{label}: {verdict} (peak RSS {peak_a:.1f} → {peak_b:.1f} MB)",
              flush=True)
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
