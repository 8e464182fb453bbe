"""Run the vlandau CLI with spans around the public functions of each layer.

    python3 perfbench/tracer.py --spans FILE --run-id ID -- <cli arguments>

Each span records name, start, end, parent span and run id, plus counts
read from the call (kernel bytes and flops computed from array shapes,
sweeps, iterations, nodes, bytes written).  Spans stay in memory and are
written to FILE as JSON when the command returns.  The package's modules
import these functions by name, so every wrapper is rebound in each
``vlandau`` module that holds the original, not only where it is defined.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.update(annotate(*args, result=result, **kwargs))
            return result
        return traced


# -- counts per call ---------------------------------------------------------
# Kernel work is computed from the argument shapes, not measured: bytes are
# the float64 arrays each kernel must read and write once, and flops count one
# complex multiply-accumulate (8 flops) per time row, particle and mode.

MB = 1e6
GFLOP = 1e9


def _rows(cre, cim, x, v, times, dx_dev, result):
    nt, npart = dx_dev.shape
    nk = cre.shape[1]
    return {"mb": 8 * (2 * nt * npart + 2 * npart + 2 * nt * nk + nt) / MB,
            "gflop": 8 * nt * npart * (nk - 1) / GFLOP}


def _corr(wf, x, v, times, dx_dev, nk, result):
    nt, npart = dx_dev.shape
    return {"mb": 8 * (nt * npart + 3 * npart + nt + 2 * nt * nk) / MB,
            "gflop": 8 * nt * npart * (int(nk) - 1) / GFLOP}


def _suffix(outputs):
    def count(g, *args, result, **kwargs):
        return {"mb": 8 * (1 + outputs) * g.size / MB}
    return count


def _cic(wf, pos, nx, dx, result):
    return {"mb": 8 * (pos.size + wf.size + pos.shape[0] * nx) / MB}


def _cic_pert(wf, x, v, times, dx_dev, nx, dx, result):
    return {"mb": 8 * (dx_dev.size + 3 * wf.size + len(times)
                       + len(times) * nx) / MB}


def _sweeps(*args, result, **kwargs):
    return {"sweeps": result.inner_iterations}


def _iterations(*args, result, **kwargs):
    return {"iterations": result.iterations}


def _nodes(*args, result, **kwargs):
    return {"nodes": result.n_nodes}


def _written(sidecar: bool):
    def count(table, path, *args, result, **kwargs):
        path = str(path)
        size = os.path.getsize(path)
        if sidecar:
            size += os.path.getsize(path[:-4] + ".json")
        return {"mb": size / MB}
    return count


# (module, function, span name, counts)
TRACED = [
    ("config", "load_config", "config.load_config", None),
    ("profiles", "require_hypotheses", "profiles.require_hypotheses", None),
    ("fields", "weighted_norm", "fields.weighted_norm", None),
    ("fields", "write_field_csv", "fields.write_field_csv", _written(True)),
    ("kernels", "eval_rows", "kernels.eval_rows", _rows),
    ("kernels", "corr_fourier", "kernels.corr_fourier", _corr),
    ("kernels", "suffix_trapz_moment", "kernels.suffix_trapz_moment",
     _suffix(2)),
    ("kernels", "suffix_trapz", "kernels.suffix_trapz", _suffix(1)),
    ("kernels", "suffix_weighted", "kernels.suffix_weighted", _suffix(1)),
    ("kernels", "cic_density", "kernels.cic_density", _cic),
    ("kernels", "cic_density_pert", "kernels.cic_density_pert", _cic_pert),
    ("scattering", "solve_characteristics",
     "scattering.solve_characteristics", _sweeps),
    ("scattering", "_map_from_traj", "scattering.field_map", None),
    ("scattering", "solve_variational", "scattering.solve_variational",
     _sweeps),
    ("scattering", "deposit_density", "scattering.deposit_density", None),
    ("scattering", "deposit_density_pert", "scattering.deposit_density_pert",
     None),
    ("scattering", "picard_solve", "scattering.picard_solve", _iterations),
    ("uq", "run_collocation", "uq.run_collocation", _nodes),
    ("uq", "check_corollary", "uq.check_corollary", None),
    ("uq", "check_theorem_bounds", "uq.check_theorem_bounds", None),
    ("uq", "gpc_coefficients", "uq.gpc_coefficients", None),
    ("uq", "write_gpc_csv", "uq.write_gpc_csv", _written(False)),
]

# importing namespaces that must see the wrapper (they bind these by name)
IMPORTED = {
    "uq": ("picard_solve", "solve_characteristics"),
    "cli": ("picard_solve", "run_collocation", "check_corollary",
            "check_theorem_bounds", "gpc_coefficients", "write_gpc_csv",
            "write_field_csv"),
    "scattering": ("weighted_norm", "require_hypotheses"),
}


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function and rebind it in each vlandau module."""
    import vlandau
    import vlandau.cli  # noqa: F401  (bind its imports before rebinding)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "vlandau" or n.startswith("vlandau.")]
    for mod_name, fn_name, span_name, annotate in TRACED:
        home = getattr(vlandau, mod_name)
        original = getattr(home, fn_name)
        wrapper = tracer.wrap(span_name, original, annotate)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    for mod_name, names in IMPORTED.items():
        mod = getattr(vlandau, mod_name)
        for name in names:
            if not hasattr(getattr(mod, name), "__wrapped__"):
                raise RuntimeError(f"vlandau.{mod_name}.{name} was not "
                                   "rebound to its span wrapper")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="JSON file for the spans")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("cli", nargs=argparse.REMAINDER,
                    help="arguments for the vlandau CLI, after --")
    args = ap.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = Tracer(args.run_id)
    install(tracer)
    import vlandau.cli
    try:
        return vlandau.cli.main(cli_args)
    finally:
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
