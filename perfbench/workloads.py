"""Workloads of the vlandau benchmark.

Each workload is one generated run configuration and the CLI command that
runs it.  The seed picks the only free input: z for the two ``solve``
workloads and the slope of the k = 1 profile amplitude for ``uq-coarse``.
Every other value equals the built-in default (``configs/reference.cfg``).

``validate`` checks the outputs of one CLI run: exit code, every manifest
and report verdict, the config hash, the ``field.csv`` round trip and the
distance of the field (or its gPC table) from the stored reference tables.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

import reference

# profile amplitudes: c0 = C0 and c1(z) = C1_MEAN + slope * z
C0 = 8e-05
C1_MEAN = 1e-05
REF_SLOPE = 3e-06                 # slope of configs/reference.cfg
UQ_SLOPES = (1e-06, 3.5e-06)      # seeded slope range of uq-coarse

# Over this slope range `vlandau check` reports decay margins 0.080-0.133
# (pass <= 1) and a regularity margin of 0.16, `vlandau uq` passes every
# verdict, and every uq run makes the same 112 waveform-relaxation sweeps
# (slopes above 4e-6 need fewer), so the per-layer counts do not depend on
# the seed.


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # "solve" or "uq"
    nx: int
    nv: int
    nt: int
    n_z: int


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("solve-ref", "solve", nx=64, nv=129, nt=176, n_z=9),
    Workload("solve-nx128", "solve", nx=128, nv=65, nt=176, n_z=9),
    Workload("uq-coarse", "uq", nx=32, nv=65, nt=88, n_z=5),
)}


def _g(x: float) -> str:
    return "%.17g" % x


def config_text(w: Workload, c1_coeffs: tuple[float, ...]) -> str:
    """The run configuration in the program's canonical form, so that its
    sha256 is the ``config_sha256`` every manifest must report."""
    lines = [
        "params {", "  a 1", "  a1 0.002", "  a2 0.002", "  K 2", "  t0 8",
        "}",
        "profile {", "  shape sech", "  rate " + _g(math.pi / 2.0),
        "  scale 1",
        "  mode {", "    k 0", "    poly " + _g(C0), "  }",
        "  mode {", "    k 1", "    poly " + " ".join(map(_g, c1_coeffs)),
        "  }",
        "}",
        "grids {", f"  nx {w.nx}", f"  nv {w.nv}", "  v_max 6",
        f"  nt {w.nt}", "  t_end 43", f"  n_z {w.n_z}", "}",
        "solver {", "  picard_tol " + _g(1e-10), "  max_iter 30",
        "  inner_tol " + _g(1e-12), "  max_inner 50", "  method split", "}",
        "output {", "  dir out", "}",
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Inputs:
    """Seeded inputs of one benchmark run."""

    workload: Workload
    z: float | None               # solve workloads
    slope: float                  # k = 1 amplitude slope in z

    @property
    def config(self) -> str:
        return config_text(self.workload, (C1_MEAN, self.slope))

    def cli_args(self, config_path: str, out_dir: str) -> list[str]:
        args = [self.workload.command, "--config", config_path,
                "--out", out_dir]
        if self.z is not None:
            args += ["--z", _g(self.z)]
        return args


def make_inputs(w: Workload, seed: int) -> Inputs:
    rng = random.Random(seed)
    if w.command == "solve":
        return Inputs(w, z=rng.uniform(-1.0, 1.0), slope=REF_SLOPE)
    return Inputs(w, z=None, slope=rng.uniform(*UQ_SLOPES))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _weighted_rel_err(values: np.ndarray, ref: np.ndarray,
                      times: np.ndarray) -> float:
    """sup_t e^{a t} max_x |values - ref| relative to the same norm of ref
    (a = 1, the damping rate of every workload); the last axis is x and
    the one before it t."""
    w = np.exp(times)[:, None]
    return float(np.abs((values - ref) * w).max() / np.abs(ref * w).max())


def _check_solve(inp: Inputs, sha: str, out: str, ref) -> list[str]:
    from vlandau.fields import read_field_csv, write_field_csv

    fails = []
    man = _load_json(os.path.join(out, "solve_manifest.json"))
    if man.get("passed") is not True or man.get("converged") is not True:
        fails.append("solve manifest verdict is not passed")
    bad = sorted(k for k, c in man.get("checks", {}).items()
                 if c.get("passed") is not True)
    if bad or not man.get("checks"):
        fails.append(f"failed checks: {bad}")
    if man.get("config_sha256") != sha:
        fails.append("manifest config_sha256 does not match the config")

    path = os.path.join(out, "field.csv")
    table, side = read_field_csv(path)
    if side.get("config_sha256") != sha:
        fails.append("field.json config_sha256 does not match the config")
    copy = os.path.join(out, "roundtrip.csv")
    write_field_csv(table, copy)
    with open(path, "rb") as a, open(copy, "rb") as b:
        if a.read() != b.read():
            fails.append("field.csv does not round-trip through "
                         "read_field_csv")
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    if raw.shape != (inp.workload.nt, inp.workload.nx + 1) or \
            not np.array_equal(raw[:, 1:], table.values):
        fails.append("field.csv values differ from their parsed table")
        return fails
    expect = ref.field(C1_MEAN + inp.slope * inp.z)
    err = _weighted_rel_err(table.values, expect, ref.times)
    if not err <= reference.FIELD_TOL:
        fails.append(f"field differs from the reference by {err:.3e} "
                     f"(tolerance {reference.FIELD_TOL:g})")
    return fails


def _read_gpc(path: str, w: Workload) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["m", "x", "t", "coefficient"]:
        raise ValueError("gpc.csv has an unexpected header")
    data = np.array(rows[1:], dtype=float)
    n_modes = int(data[:, 0].max()) + 1
    shape = (n_modes, w.nt, w.nx)
    return data[:, 3].reshape(shape), data[:, 2].reshape(shape)[0, :, 0]


def _check_uq(inp: Inputs, sha: str, out: str, ref) -> list[str]:
    fails = []
    w = inp.workload
    ens = _load_json(os.path.join(out, "ensemble_manifest.json"))
    if ens.get("config_sha256") != sha:
        fails.append("ensemble config_sha256 does not match the config")
    nodes = ens.get("per_node", [])
    if len(nodes) != w.n_z or not all(n.get("passed") is True
                                      for n in nodes):
        fails.append("an ensemble node verdict is not passed")
    for name in ("theorem_report.json", "corollary_report.json"):
        if _load_json(os.path.join(out, name)).get("passed") is not True:
            fails.append(f"{name} verdict is not passed")

    z, wts = np.polynomial.legendre.leggauss(w.n_z)
    if not np.allclose(ens.get("nodes", []), z, rtol=0.0, atol=1e-14):
        fails.append("ensemble nodes are not the Gauss-Legendre nodes")
        return fails
    coeffs, times = _read_gpc(os.path.join(out, "gpc.csv"), w)
    fields = np.stack([ref.field(C1_MEAN + inp.slope * zj) for zj in z])
    basis = np.polynomial.legendre.legvander(z, w.n_z - 1) \
        * np.sqrt(2.0 * np.arange(w.n_z) + 1.0)          # phi_m(z_j)
    expect = 0.5 * np.tensordot((basis * wts[:, None]).T, fields, axes=1)
    if coeffs.shape != expect.shape or \
            not np.allclose(times, ref.times, rtol=1e-15, atol=0.0):
        fails.append("gpc.csv does not cover the expected grid")
        return fails
    err = _weighted_rel_err(coeffs, expect, ref.times)
    if not err <= reference.FIELD_TOL:
        fails.append(f"gPC table differs from the reference by {err:.3e} "
                     f"(tolerance {reference.FIELD_TOL:g})")
    return fails


def validate(inp: Inputs, config_path: str, out: str, returncode: int,
             ref) -> list[str]:
    """Reasons the run failed; an empty list means every check passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    with open(config_path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).hexdigest()
    check = _check_solve if inp.workload.command == "solve" else _check_uq
    try:
        return check(inp, sha, out, ref)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]
