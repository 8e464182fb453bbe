"""Reference field tables for the benchmark's output checks.

The field of every workload depends on the seed only through the k = 1
profile amplitude c1 (the k = 0 amplitude and the grids are fixed).  For
each workload the tables hold the converged field at Chebyshev nodes in c1
covering every seeded run, stored as the leading KEEP Fourier modes of
each time row; making the tables fails if any higher mode exceeds 1e-13
of the largest.  A run's expected field is the polynomial interpolant
through the nodes, whose error at an off-node amplitude is printed when the
tables are made.

The checked-in tables were made from the unchanged solver.  Remake them
only for a change that is meant to alter the field:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

FIELD_TOL = 1e-9          # weighted relative distance from the reference
KEEP = 8                  # Fourier modes stored per time row
C1_RANGE = (4e-06, 1.6e-05)
N_NODES = 6

HERE = os.path.dirname(os.path.abspath(__file__))


def table_path(name: str) -> str:
    return os.path.join(HERE, "reference", name + ".npz")


def chebyshev_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    k = np.arange(n)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * (k + 0.5) / n)


class ReferenceField:
    """Interpolates the stored mode tables to any c1 in C1_RANGE."""

    def __init__(self, name: str):
        with np.load(table_path(name)) as data:
            self.c1_nodes = data["c1_nodes"]
            self.modes = data["modes"]            # (nodes, nt, KEEP) complex
            self.times = data["times"]
            self.nx = int(data["nx"])

    def field(self, c1: float) -> np.ndarray:
        nodes = self.c1_nodes
        lo, hi = C1_RANGE
        if not lo <= c1 <= hi:
            raise ValueError(f"c1 = {c1:g} lies outside the reference range")
        weights = np.array([np.prod([(c1 - nodes[m]) / (nodes[j] - nodes[m])
                                     for m in range(len(nodes)) if m != j])
                            for j in range(len(nodes))])
        modes = np.tensordot(weights, self.modes, axes=1)
        full = np.zeros((len(self.times), self.nx // 2 + 1), dtype=complex)
        full[:, :KEEP] = modes
        return np.fft.irfft(full, n=self.nx, axis=1)


def _solve(w, c1: float) -> tuple[np.ndarray, np.ndarray]:
    from vlandau.config import parse_config
    from vlandau.scattering import picard_solve
    from workloads import config_text

    cfg = parse_config(config_text(w, (c1,)))
    result = picard_solve(cfg.profile_spec(), cfg.damping_params(), 0.0,
                          cfg.time_grid(), cfg.phase_grid(),
                          tol=cfg.picard_tol, max_iter=cfg.max_iter,
                          inner_tol=cfg.inner_tol, max_inner=cfg.max_inner,
                          method=cfg.method, keep_tables=False)
    if not result.passed:
        raise SystemExit(f"{w.name}: reference solve at c1 = {c1:g} failed "
                         "its checks")
    return result.field.values, result.field.tgrid.times


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from workloads import C1_MEAN, REF_SLOPE, WORKLOADS

    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    nodes = chebyshev_nodes(*C1_RANGE, N_NODES)
    for w in WORKLOADS.values():
        start = time.perf_counter()
        modes, times = [], None
        for c1 in nodes:
            values, times = _solve(w, c1)
            spectrum = np.fft.rfft(values, axis=1)
            rest = np.abs(spectrum[:, KEEP:]).max() / np.abs(spectrum).max()
            if rest > 1e-13:
                raise SystemExit(f"{w.name}: modes beyond {KEEP} carry "
                                 f"{rest:.2e} of the field")
            modes.append(spectrum[:, :KEEP])
        np.savez(table_path(w.name), c1_nodes=nodes, modes=np.array(modes),
                 times=times, nx=w.nx)
        # interpolation error at an off-node amplitude
        c1 = C1_MEAN + REF_SLOPE * 0.37
        values, _ = _solve(w, c1)
        weight = np.exp(times)[:, None]
        err = np.abs((ReferenceField(w.name).field(c1) - values) * weight
                     ).max() / np.abs(values * weight).max()
        print(f"{w.name}: {len(nodes)} nodes in "
              f"{time.perf_counter() - start:.1f} s; interpolation error "
              f"at c1 = {c1:.4g}: {err:.2e} (tolerance {FIELD_TOL:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
