"""Benchmark of the vlandau CLI: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark writes a seeded config for the
workload, then starts the CLI as a fresh process again and again until the
next round would end after S seconds (at least one round).  Every run's
outputs are checked (see workloads.validate).  Each round first measures
set-up three times: a fresh interpreter that imports vlandau and loads the
config, timed until it reports ready.

--trace 0 reports the end-to-end metrics: medians over the runs of wall
time, CPU time (user + sys of the process) and peak RSS, the median set-up
time, and the share of started processes that passed.  --trace 1 alternates
untraced runs with runs under perfbench/tracer.py and reports per-layer
metrics (medians over the traced runs), the tracing overhead and the wall
time the top-level spans leave unaccounted.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The environment, every sample and the
failures go to .perfbench/<workload>-<seed>-<trace>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "tracer.py")
SETUP_PER_ROUND = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Imports the package and loads the config, like every CLI run, and prints
# the environment the runs see.  Run once before timing: it also compiles
# the package's bytecode, which users do not pay on every run.
ENV_PROBE = r"""
import ctypes, json, os, platform, sys
import numpy
import vlandau
vlandau.load_config(sys.argv[1])
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
lib = ctypes.CDLL(numpy._core._multiarray_umath.__file__)   # and its BLAS
for sym in ("scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_", "openblas_get_num_threads"):
    if hasattr(lib, sym):
        threads = getattr(lib, sym)()
        break
try:
    import numba
    numba_version = numba.__version__
except ImportError:
    numba_version = None
print(json.dumps({
    "python": platform.python_version(), "numpy": numpy.__version__,
    "blas": {k: blas.get(k) for k in ("name", "version",
                                      "openblas configuration")},
    "blas_threads": threads,
    "thread_env": {k: os.environ.get(k) for k in %r},
    "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
    "numba": numba_version, "machine": platform.machine(),
}))
""" % (THREAD_VARS,)

SETUP_PROBE = ("import sys, vlandau; vlandau.load_config(sys.argv[1]); "
               "print('ready', flush=True)")


def child_env(root: str) -> dict:
    """Environment of every child: the package on the path and at most
    nproc threads for the BLAS and OpenMP pools."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            asked = int(env.get(var, nproc))
        except ValueError:
            asked = nproc
        env[var] = str(min(max(asked, 1), nproc))
    return env


def run_child(argv: list[str], env: dict, log: str) -> dict:
    """Run one process to completion; wall time from start to exit, and the
    process's own CPU time and peak RSS from wait4."""
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "returncode": proc.returncode}


def time_setup(argv: list[str], env: dict, log: str) -> dict:
    """Time one set-up run from process start until it reports ready, that
    is, after its imports and load_config; interpreter exit is not set-up."""
    with open(log, "w") as err:
        start = time.perf_counter()
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=err) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            proc.wait()
    ok = proc.returncode == 0 and line == b"ready\n"
    return {"wall_s": ready, "returncode": proc.returncode if ok else
            (proc.returncode or 1)}


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

KERNELS = ("eval_rows", "corr_fourier", "suffix_trapz_moment",
           "suffix_trapz", "suffix_weighted", "cic_density",
           "cic_density_pert")


def layer_metrics(spans: list[dict]) -> dict:
    """Aggregate one traced run's spans into the per-layer metrics."""
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        s["child"] = 0.0
    for s in spans:
        if s["parent"] is not None:
            spans[s["parent"]]["child"] += s["dur"]

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key="dur"):
        return float(sum(s.get(key, 0.0) for s in of(name)))

    def under(span, name):
        while span["parent"] is not None:
            span = spans[span["parent"]]
            if span["name"] == name:
                return True
        return False

    m = {}
    for k in KERNELS:
        name = "kernels." + k
        m[name + ".calls"] = len(of(name))
        m[name + ".busy_s"] = total(name)
        m[name + ".mb_computed"] = total(name, "mb")
        if k in ("eval_rows", "corr_fourier"):
            m[name + ".gflop_computed"] = total(name, "gflop")
    for name in ("scattering.solve_characteristics",
                 "scattering.picard_solve"):
        m[name + ".calls"] = len(of(name))
        m[name + ".busy_s"] = total(name)
        m[name + ".self_s"] = total(name) - total(name, "child")
    m["scattering.wr_sweeps"] = int(total("scattering.solve_characteristics",
                                          "sweeps"))
    m["scattering.field_map.calls"] = len(of("scattering.field_map"))
    m["scattering.field_map.busy_s"] = total("scattering.field_map")
    m["scattering.solve_variational.busy_s"] = total(
        "scattering.solve_variational")
    m["scattering.var_sweeps"] = int(total("scattering.solve_variational",
                                           "sweeps"))
    m["scattering.deposit.busy_s"] = (
        total("scattering.deposit_density")
        + total("scattering.deposit_density_pert"))
    m["scattering.picard_iterations"] = int(total("scattering.picard_solve",
                                                  "iterations"))
    for name in ("profiles.require_hypotheses", "fields.weighted_norm"):
        m[name + ".calls"] = len(of(name))
        m[name + ".busy_s"] = total(name)
    for name in ("fields.write_field_csv", "uq.write_gpc_csv"):
        m[name + ".busy_s"] = total(name)
        m[name + ".mb"] = total(name, "mb")
    m["uq.run_collocation.busy_s"] = total("uq.run_collocation")
    m["uq.nodes_solved"] = int(total("uq.run_collocation", "nodes"))
    m["uq.check_corollary.busy_s"] = total("uq.check_corollary")
    m["uq.corollary_resolves"] = sum(
        1 for s in of("scattering.solve_characteristics")
        if under(s, "uq.check_corollary"))
    for name in ("uq.check_theorem_bounds", "uq.gpc_coefficients",
                 "config.load_config"):
        m[name + ".busy_s"] = total(name)
    m["top_level_s"] = float(sum(s["dur"] for s in spans
                                 if s["parent"] is None
                                 and s["name"] != "config.load_config"))
    return m


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.startswith("mb"):
        return "MB"
    if last.startswith("gflop"):
        return "GFLOP"
    return "count"


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vlandau", "cli.py")):
        print("error: run from the repository root; src/vlandau is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    w = workloads.WORKLOADS[args.workload]
    inp = workloads.make_inputs(w, args.seed)
    ref = reference.ReferenceField(w.name)
    work = os.path.join(root, ".perfbench",
                        f"{w.name}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = os.path.join(work, "run.cfg")
    with open(config, "w") as fh:
        fh.write(inp.config)
    env = child_env(root)
    py = sys.executable

    probe = run_child([py, "-c", ENV_PROBE, config], env,
                      os.path.join(work, "env.log"))
    if probe["returncode"] != 0:
        print("error: the environment probe failed; see "
              + os.path.join(work, "env.log"), file=sys.stderr)
        return 2
    with open(os.path.join(work, "env.log")) as fh:
        environment = json.loads(fh.read().strip().splitlines()[-1])
    print("environment: " + json.dumps(environment, sort_keys=True))

    kinds = ["plain", "traced"] if args.trace else ["plain"]
    samples = {kind: [] for kind in kinds}
    setup: list[dict] = []
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    while True:
        # set-up samples in every round, so that they span the whole run
        for _ in range(SETUP_PER_ROUND):
            sample = time_setup([py, "-c", SETUP_PROBE, config], env,
                                os.path.join(work, "setup.log"))
            attempted += 1
            if sample["returncode"] != 0:
                failures.append(f"set-up run exited with "
                                f"{sample['returncode']}")
            setup.append(sample)
        for kind in kinds:
            out = os.path.join(work, "out")
            shutil.rmtree(out, ignore_errors=True)
            cli = inp.cli_args(config, out)
            spans = os.path.join(work, f"spans-{attempted}.json")
            if kind == "plain":
                argv = [py, "-m", "vlandau.cli"] + cli
            else:
                argv = [py, TRACER, "--spans", spans, "--run-id",
                        f"{w.name}-{args.seed}-{attempted}", "--"] + cli
            sample = run_child(argv, env,
                               os.path.join(work, f"cli-{attempted}.log"))
            attempted += 1
            sample["failures"] = workloads.validate(
                inp, config, out, sample["returncode"], ref)
            if kind == "traced" and not sample["failures"]:
                with open(spans) as fh:
                    sample["layers"] = layer_metrics(json.load(fh))
            failures += sample["failures"]
            samples[kind].append(sample)
            print(f"{kind} run: wall {sample['wall_s']:.3f} s, "
                  f"cpu {sample['cpu_s']:.3f} s, peak rss "
                  f"{sample['peak_rss_mb']:.1f} MB, "
                  + ("ok" if not sample["failures"]
                     else "FAILED: " + "; ".join(sample["failures"])))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(samples["plain"])
        if elapsed + per_round > args.seconds:
            break

    failed = sum(1 for kind in kinds for s in samples[kind] if s["failures"])
    failed += sum(1 for s in setup if s["returncode"] != 0)
    setup_s = median([s["wall_s"] for s in setup])
    plain = samples["plain"]
    if not args.trace:
        metrics = {
            "wall_s": (median([s["wall_s"] for s in plain]), "s"),
            "cpu_s": (median([s["cpu_s"] for s in plain]), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (median([s["peak_rss_mb"] for s in plain]), "MB"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        traced = [s for s in samples["traced"] if "layers" in s]
        metrics = {name: (median([s["layers"][name] for s in traced]),
                          unit_of(name))
                   for name in layer_metrics([]) if name != "top_level_s"}
        traced_wall = median([s["wall_s"] for s in traced])
        metrics["trace.overhead_s"] = (
            traced_wall - median([s["wall_s"] for s in plain]), "s")
        metrics["trace.unaccounted_s"] = (
            median([s["wall_s"] - setup_s - s["layers"]["top_level_s"]
                    for s in traced]), "s")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"workload": w.name, "seed": args.seed, "trace": args.trace,
                   "z": inp.z, "slope": inp.slope,
                   "environment": environment, "setup": setup,
                   "samples": samples, "failures": failures,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
