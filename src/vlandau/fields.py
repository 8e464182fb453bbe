"""Grids, field tables, weighted norms, and the field-table file format.

A field table holds E(x_i, t_n) on a uniform periodic grid in x and a
uniform grid in t = [t0, t_end].  Decay is measured in exponentially
weighted supremum norms

    |F|_{a}      = sup_{t >= t0}  e^{a t}          max_x |F(x, t)|
    |F|_{a, k}   = sup_{t >= t0}  t^{-k} e^{a t}   max_x |F(x, t)|

evaluated over the stored time samples.  A norm whose supremum sits on the
final sample is flagged `horizon_dominated`: the true supremum over the
half-line may exceed the grid value, so downstream inequality checks must
treat such values as lower bounds.

The force kernel on the circle of length 2 pi is

    B(x) = 1/2 - x / (2 pi)   for x in [0, 2 pi), extended periodically,

which is mean-free and has Fourier coefficients 1 / (2 pi i k), k != 0.
The field induced by a density rho is E(x) = int_0^{2pi} B(x - y) rho(y) dy,
i.e. Ehat(k) = rhohat(k) / (i k) with Ehat(0) = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_steps+1 samples on [t0, t_end]."""

    t0: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not (self.t_end > self.t0 > 0):
            raise ValueError("need 0 < t0 < t_end")
        if self.n_steps < 1:
            raise ValueError("need at least one time step")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t0) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def __len__(self) -> int:
        return self.n_steps + 1


@dataclass(frozen=True)
class XGrid:
    """Uniform periodic grid x_i = 2 pi i / n on the torus [0, 2 pi)."""

    n: int

    def __post_init__(self):
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise ValueError("x grid size must be a power of two >= 4")

    @property
    def dx(self) -> float:
        return TWO_PI / self.n

    @property
    def points(self) -> np.ndarray:
        return self.dx * np.arange(self.n)


@dataclass(frozen=True)
class PhaseGrid:
    """Tensor grid over position times a truncated velocity interval.

    Velocity samples include both endpoints; integration uses trapezoid
    weights in v and exact uniform weights in x (periodic trapezoid).
    """

    xgrid: XGrid
    nv: int
    v_max: float

    def __post_init__(self):
        if self.nv < 3 or self.nv % 2 == 0:
            raise ValueError("velocity grid size must be an odd integer >= 3")
        if not self.v_max > 0:
            raise ValueError("v_max must be positive")

    @property
    def dv(self) -> float:
        return 2.0 * self.v_max / (self.nv - 1)

    @property
    def v(self) -> np.ndarray:
        return np.linspace(-self.v_max, self.v_max, self.nv)

    @property
    def v_weights(self) -> np.ndarray:
        w = np.full(self.nv, self.dv)
        w[0] = w[-1] = 0.5 * self.dv
        return w

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights (nx, nv) for int int . dx dv."""
        return np.full(self.xgrid.n, self.xgrid.dx)[:, None] * self.v_weights[None, :]


# ---------------------------------------------------------------------------
# field tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldTable:
    """Sampled field E(x_i, t_n); values has shape (len(tgrid), xgrid.n)."""

    tgrid: TimeGrid
    xgrid: XGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.tgrid), self.xgrid.n):
            raise ValueError(
                f"values shape {vals.shape} does not match grids "
                f"({len(self.tgrid)}, {self.xgrid.n})")
        object.__setattr__(self, "values", vals)

    def coefficients(self) -> np.ndarray:
        """Complex mode amplitudes c(t_n, k) with E(x) = c_0
        + sum_{0<k<n/2} 2 Re(c_k e^{i k x}) + Re(c_{n/2}) cos(n/2 x)."""
        return np.fft.rfft(self.values, axis=1) / self.xgrid.n

    def sup_x(self) -> np.ndarray:
        """max_i |E(x_i, t_n)| for each time sample."""
        return np.abs(self.values).max(axis=1)

    def with_values(self, values) -> "FieldTable":
        return FieldTable(self.tgrid, self.xgrid, np.asarray(values, dtype=float))


def zero_field(tgrid: TimeGrid, xgrid: XGrid) -> FieldTable:
    return FieldTable(tgrid, xgrid, np.zeros((len(tgrid), xgrid.n)))


def spectral_dx(table: FieldTable) -> FieldTable:
    """d/dx by mode multiplication; the Nyquist mode is annihilated."""
    return table.with_values(_dx_rows(table.values))


def _dx_rows(values: np.ndarray) -> np.ndarray:
    """spectral_dx of grid rows (..., nx), each row on its own."""
    nx = values.shape[-1]
    c = np.fft.rfft(values, axis=-1)
    c = c * (1j * np.arange(nx // 2 + 1, dtype=float))
    c[..., -1] = 0.0
    return np.fft.irfft(c, n=nx, axis=-1)


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormReport:
    """Weighted supremum over stored samples.

    horizon_dominated is True when the supremum is achieved at the final
    time sample, meaning the reported value is only a lower bound for the
    supremum over the half-line.
    """

    value: float
    horizon_dominated: bool


def weighted_sup(times, sup_spatial, a: float, moment: int = 0) -> NormReport:
    """Weighted sup over all samples of a pre-reduced series
    sup_spatial(t_n) >= 0; the first time is t0.

    a = 0 gives the plain polynomially weighted norm sup t^{-moment} |F|.
    """
    if a < 0:
        raise ValueError("decay rate a must be nonnegative")
    if moment < 0 or int(moment) != moment:
        raise ValueError("moment must be a nonnegative integer")
    tt = np.asarray(times, dtype=float)
    weighted = np.exp(a * tt) * np.asarray(sup_spatial, dtype=float)
    if moment:
        weighted = weighted / tt ** moment
    idx = int(np.argmax(weighted))
    return NormReport(value=float(weighted[idx]),
                      horizon_dominated=(idx == len(tt) - 1))


def weighted_norm(table: FieldTable, a: float, moment: int = 0) -> NormReport:
    """sup_{t_n >= t0} t^{-moment} e^{a t} max_x |E|."""
    return weighted_sup(table.tgrid.times, table.sup_x(), a, moment)


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "%.17g" % x


def write_field_csv(table: FieldTable, path, metadata: dict | None = None) -> None:
    """Write the table as CSV (first column t, one column per grid point)
    plus a JSON sidecar <path minus .csv>.json holding grid metadata.

    Numbers use 17 significant digits, so reading the CSV back reproduces
    the doubles bit for bit and identical tables serialize identically.
    """
    path = str(path)
    xs = table.xgrid.points
    lines = ["t," + ",".join(_fmt(x) for x in xs)]
    for t, row in zip(table.tgrid.times, table.values):
        lines.append(_fmt(t) + "," + ",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    side = {
        "format": "field-table-v1",
        "t0": table.tgrid.t0,
        "t_end": table.tgrid.t_end,
        "n_steps": table.tgrid.n_steps,
        "nx": table.xgrid.n,
        "length": TWO_PI,
    }
    if metadata:
        side.update(metadata)
    with open(_sidecar_path(path), "w") as fh:
        json.dump(side, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sidecar_path(path: str) -> str:
    return (path[:-4] if path.endswith(".csv") else path) + ".json"


def _finite_floats(toks, path: str) -> list[float]:
    """The tokens as finite floats; a ValueError names the file."""
    vals = []
    for tok in toks:
        try:
            vals.append(float(tok))
        except ValueError:
            raise ValueError(f"{path}: non-numeric entry {tok!r}") from None
        if not math.isfinite(vals[-1]):
            raise ValueError(f"{path}: non-finite entry {tok!r}")
    return vals


def read_field_csv(path) -> tuple[FieldTable, dict]:
    """Read a table written by write_field_csv; returns (table, sidecar)."""
    path = str(path)
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("t,"):
        raise ValueError(f"{path}: not a field table (missing 't' header)")
    xs = np.array(_finite_floats(lines[0].split(",")[1:], path))
    times = []
    rows = []
    for ln in lines[1:]:
        toks = ln.split(",")
        if len(toks) != len(xs) + 1:
            raise ValueError(f"{path}: row with {len(toks)} fields, "
                             f"expected {len(xs) + 1}")
        vals = _finite_floats(toks, path)
        times.append(vals[0])
        rows.append(vals[1:])
    times = np.array(times)
    if len(times) < 2:
        raise ValueError(f"{path}: need at least two time samples")
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{path}: time samples are not uniform")
    n = len(xs)
    if n < 4 or n & (n - 1) or np.abs(
            xs - (TWO_PI / n) * np.arange(n)).max() > 1e-9 * TWO_PI / n:
        raise ValueError(f"{path}: position header is not the grid "
                         "2 pi i/n with n a power of two >= 4")
    try:
        with open(_sidecar_path(path)) as fh:
            side = json.load(fh)
    except FileNotFoundError:
        side = {}
    try:
        tgrid = TimeGrid(t0=float(times[0]), t_end=float(times[-1]),
                         n_steps=len(times) - 1)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return FieldTable(tgrid, XGrid(n), np.array(rows)), side
