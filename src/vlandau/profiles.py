"""Asymptotic phase-space profiles and their hypothesis checks.

A profile is a finite Fourier sum in position times a fixed velocity shape,

    f*(x, v, z) = scale * f1(x, z) * S(v),
    f1(x, z)    = c_0(z) + sum_{k>=1} 2 c_k(z) cos(k x),

with real mode amplitudes c_k(z) that depend polynomially or
trigonometrically on a scalar parameter z in [-1, 1].  Two velocity
shapes are supported:

    gaussian  S(v) = exp(-v^2)           transform  sqrt(pi) exp(-w^2/4)
    sech      S(v) = sech(b v), b > 0    transform  (pi/b) sech(pi w / (2 b))

where the transform is T(w) = int S(v) e^{-i w v} dv (real and even here).
The full transform, with the convention

    fhat(kx, kv) = (1/2pi) int_0^{2pi} int_R f* e^{i (kx x + kv v)} dv dx,

is then fhat(kx, kv) = c_{|kx|}(z) * T(kv) * scale.

Two quantitative hypotheses are checked against profile data:

    smoothness(a, a1):  |fhat(kx, kv)| <= a1 e^{-a |kv|} / (1 + kx^2)
    decay(a2):          |f*| <= a2 / (1 + v^4), likewise for grad f*

Reported margins are worst-case ratios; <= 1 means the hypothesis holds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .params import BoundCheck


class HypothesisError(ValueError):
    """Raised when a solve is attempted with a profile failing its checks."""


# ---------------------------------------------------------------------------
# parameter-dependent amplitudes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Amplitude:
    """Scalar amplitude c(z), either polynomial or trigonometric in z.

    kind == "poly":  c(z) = coeffs[0] + coeffs[1] z + coeffs[2] z^2 + ...
    kind == "trig":  c(z) = coeffs[0] + sum_j coeffs[2j-1] cos(j z)
                                       + coeffs[2j]   sin(j z)
    Both families are closed under d/dz, so parameter derivatives of the
    profile stay inside the same representation.
    """

    kind: str
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("poly", "trig"):
            raise ValueError(f"unknown amplitude kind {self.kind!r}")
        if len(self.coeffs) == 0:
            raise ValueError("amplitude needs at least one coefficient")

    def __call__(self, z: float) -> float:
        if self.kind == "poly":
            acc = 0.0
            for c in reversed(self.coeffs):
                acc = acc * z + c
            return acc
        if not math.isfinite(z):     # NaN, as 0.0 * z makes it for poly
            return math.nan
        acc = self.coeffs[0]
        for idx in range(1, len(self.coeffs)):
            j = (idx + 1) // 2
            acc += self.coeffs[idx] * (math.cos(j * z) if idx % 2 == 1
                                       else math.sin(j * z))
        return acc

    def derivative(self) -> "Amplitude":
        if self.kind == "poly":
            if len(self.coeffs) == 1:
                return Amplitude("poly", (0.0,))
            return Amplitude("poly", tuple(
                i * c for i, c in enumerate(self.coeffs) if i > 0))
        # d/dz [a cos(jz) + b sin(jz)] = (j b) cos(jz) + (-j a) sin(jz)
        out = [0.0]
        for idx in range(1, len(self.coeffs), 2):
            j = (idx + 1) // 2
            a = self.coeffs[idx]
            b = self.coeffs[idx + 1] if idx + 1 < len(self.coeffs) else 0.0
            out.extend([j * b, -j * a])
        return Amplitude("trig", tuple(out))

    @property
    def is_constant(self) -> bool:
        return all(c == 0.0 for c in self.coeffs[1:])


@dataclass(frozen=True)
class Mode:
    k: int
    amplitude: Amplitude

    def __post_init__(self):
        if self.k < 0 or int(self.k) != self.k:
            raise ValueError("mode number k must be a nonnegative integer")


@dataclass(frozen=True)
class ProfileSpec:
    """Profile family f*(x,v,z); see module docstring for the closed form."""

    modes: tuple[Mode, ...]
    shape: str                 # "gaussian" | "sech"
    rate: float = 1.0          # sech slope b; ignored for gaussian
    scale: float = 1.0

    def __post_init__(self):
        if self.shape not in ("gaussian", "sech"):
            raise ValueError(f"unknown velocity shape {self.shape!r}")
        if self.shape == "sech" and not self.rate > 0:
            raise ValueError("sech shape needs a positive rate b")
        seen = set()
        for m in self.modes:
            if m.k in seen:
                raise ValueError(f"duplicate mode k={m.k}")
            seen.add(m.k)

    # -- velocity shape -----------------------------------------------------

    def shape_value(self, v):
        v = np.asarray(v, dtype=float)
        if self.shape == "gaussian":
            return np.exp(-v * v)
        return 1.0 / np.cosh(self.rate * v)

    def shape_dv(self, v):
        v = np.asarray(v, dtype=float)
        if self.shape == "gaussian":
            return -2.0 * v * np.exp(-v * v)
        b = self.rate
        return -b * np.tanh(b * v) / np.cosh(b * v)

    def shape_transform(self, w):
        """T(w) = int S(v) e^{-i w v} dv; real, even, positive."""
        w = np.asarray(w, dtype=float)
        if self.shape == "gaussian":
            return math.sqrt(math.pi) * np.exp(-w * w / 4.0)
        b = self.rate
        return (math.pi / b) / np.cosh(math.pi * w / (2.0 * b))

    @property
    def transform_decay_rate(self) -> float:
        """Exponential decay rate of T: w^2-type for gaussian is infinite in
        the exponential class, sech transforms decay like e^{-pi w/(2b)}."""
        if self.shape == "gaussian":
            return math.inf
        return math.pi / (2.0 * self.rate)

    # -- position factor ----------------------------------------------------

    def amplitude_of(self, k: int):
        for m in self.modes:
            if m.k == abs(int(k)):
                return m.amplitude
        return None

    def f1_value(self, x, z: float):
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for m in self.modes:
            c = m.amplitude(z)
            if m.k == 0:
                acc = acc + c
            else:
                acc = acc + 2.0 * c * np.cos(m.k * x)
        return acc

    def f1_dx(self, x, z: float):
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for m in self.modes:
            if m.k != 0:
                acc = acc - 2.0 * m.k * m.amplitude(z) * np.sin(m.k * x)
        return acc

    # -- parameter structure -------------------------------------------------

    def z_derivative(self) -> "ProfileSpec":
        return replace(self, modes=tuple(
            Mode(m.k, m.amplitude.derivative()) for m in self.modes))

    @property
    def is_z_independent(self) -> bool:
        return all(m.amplitude.is_constant for m in self.modes)

    @property
    def max_mode(self) -> int:
        return max((m.k for m in self.modes), default=0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_profile(spec: ProfileSpec, x, v, z: float = 0.0):
    """f*(x, v, z); x and v broadcast."""
    return spec.scale * spec.f1_value(x, z) * spec.shape_value(v)


def profile_fourier(spec: ProfileSpec, kx: int, kv, z: float = 0.0):
    """fhat(kx, kv) = c_{|kx|}(z) T(kv) scale; zero for non-retained kx."""
    amp = spec.amplitude_of(kx)
    if amp is None:
        return np.zeros_like(np.asarray(kv, dtype=float))
    return amp(z) * spec.scale * spec.shape_transform(kv)


def shifted_difference(spec: ProfileSpec, x, v, dx, dv, z: float = 0.0):
    """f*(x+dx, v+dv, z) - f*(x, v, z), accurate for tiny displacements.

    Direct subtraction loses all relative accuracy once the displacement
    drops toward machine scale; late-time transport residuals live there.
    The difference is assembled from exact small-increment identities:

        cos(k(x+dx)) - cos(kx)        = -2 sin(k dx/2) sin(k(x + dx/2))
        e^{-(v+dv)^2} - e^{-v^2}      = e^{-v^2} expm1(-dv (2v + dv))
        sech(u+e) - sech(u)           = -[2 sinh^2(e/2) cosh u + sinh e sinh u]
                                         / (cosh u cosh(u+e))
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    dx = np.asarray(dx, dtype=float)
    dv = np.asarray(dv, dtype=float)

    if spec.shape == "gaussian":
        s_new = np.exp(-(v + dv) ** 2)
        ds = np.exp(-v * v) * np.expm1(-dv * (2.0 * v + dv))
    else:
        b = spec.rate
        u = b * v
        e = b * dv
        cosh_u = np.cosh(u)
        cosh_new = np.cosh(u + e)
        s_new = 1.0 / cosh_new
        ds = -(2.0 * np.sinh(e / 2.0) ** 2 * cosh_u + np.sinh(e) * np.sinh(u)) \
            / (cosh_u * cosh_new)

    df1 = np.zeros(np.broadcast(x, dx).shape, dtype=float)
    for m in spec.modes:
        if m.k == 0:
            continue
        c = m.amplitude(z)
        df1 = df1 - 4.0 * c * np.sin(m.k * dx / 2.0) * np.sin(m.k * (x + dx / 2.0))

    f1 = spec.f1_value(x, z)
    return spec.scale * (f1 * ds + df1 * s_new)


def neutral_density(spec: ProfileSpec, z: float = 0.0) -> float:
    """Background density (1/2pi) int int f* dv dx = c_0(z) T(0) scale."""
    amp = spec.amplitude_of(0)
    if amp is None:
        return 0.0
    return amp(z) * spec.scale * float(spec.shape_transform(0.0))


def sup_gradient(spec: ProfileSpec, z: float = 0.0) -> float:
    """Grid supremum of |grad_{x,v} f*| (Euclidean) at parameter z, on the
    decay-check grid (see grid_sups)."""
    return grid_sups(spec, z)[2]


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

def _sech_weighted_sup_factor(r: float) -> float:
    """sup_{w>=0} sech(c w) e^{a w} for r = a/c <= 1.

    Equals sqrt(1 - r^2) exp(r artanh r) for r < 1, continuously reaching 2
    at r = 1 (where the supremum is only approached as w -> inf).
    """
    if r < 0 or r > 1:
        raise ValueError("r must lie in [0, 1]")
    if r == 1.0:
        return 2.0
    # (1 - r)(1 + r), unlike 1 - r^2, keeps full precision as r -> 1
    return math.sqrt((1.0 - r) * (1.0 + r)) * math.exp(r * math.atanh(r))


def _weighted_transform_sup(spec: ProfileSpec, a: float) -> float:
    """sup_w T(w) e^{a |w|}; inf when the transform decays slower than e^{-a w}."""
    if spec.shape == "gaussian":
        return math.sqrt(math.pi) * math.exp(a * a)
    c = spec.transform_decay_rate
    if c < a:
        return math.inf
    return (math.pi / spec.rate) * _sech_weighted_sup_factor(a / c)


@dataclass(frozen=True)
class SmoothnessReport:
    """Worst ratio of |fhat(kx, kv)| to a1 e^{-a|kv|}/(1 + kx^2).

    `envelope_ratio` uses the exact analytic supremum over kv.
    `structural_ok` is False when the transform decays strictly slower
    than e^{-a|kv|}, in which case no amplitude rescaling can satisfy the
    hypothesis.
    """

    a: float
    a1: float
    margin: float            # envelope_ratio, inf without structure; <= 1 passes
    envelope_ratio: float
    structural_ok: bool
    per_mode: dict
    z_samples: tuple[float, ...]

    @property
    def check(self) -> BoundCheck:
        """margin <= 1; the margin is inf when structural_ok is False."""
        return BoundCheck("smoothness", self.margin, 1.0)

    def as_dict(self) -> dict:
        """The detail behind `check`, which callers write with their
        other checks."""
        return {
            "a": self.a, "a1": self.a1,
            "envelope_ratio": self.envelope_ratio,
            "structural_ok": self.structural_ok,
            "per_mode": {str(k): v for k, v in self.per_mode.items()},
            "z_samples": list(self.z_samples),
        }


def check_smoothness(spec: ProfileSpec, a: float, a1: float,
                     z_samples=(0.0,)) -> SmoothnessReport:
    """Check |fhat| <= a1 e^{-a|kv|}/(1+kx^2) over retained modes.

    The analytic envelope is the exact sup over kv.  Zero-amplitude
    profiles pass with margin 0.
    """
    if a <= 0 or a1 <= 0:
        raise ValueError("a and a1 must be positive")
    z_samples = tuple(float(z) for z in z_samples)
    wsup = _weighted_transform_sup(spec, a)
    structural_ok = math.isfinite(wsup)

    per_mode: dict[int, float] = {}
    for m in spec.modes:
        # np.max, unlike max(), keeps the NaN of an amplitude at z = nan
        amp_worst = float(np.max([abs(m.amplitude(z)) for z in z_samples]))
        base = amp_worst * abs(spec.scale) * (1.0 + m.k * m.k) / a1
        per_mode[m.k] = base * wsup if structural_ok else math.inf
    env_worst = float(np.max(list(per_mode.values()), initial=0.0))
    margin = env_worst if structural_ok else math.inf
    return SmoothnessReport(a=a, a1=a1, margin=margin,
                            envelope_ratio=env_worst,
                            structural_ok=structural_ok, per_mode=per_mode,
                            z_samples=z_samples)


def _decay_v_window(spec: ProfileSpec) -> float:
    # (1+v^4) S(v) peaks near 4/b for shallow sech slopes; cover it.
    if spec.shape == "sech":
        return max(8.0, 6.0 / spec.rate)
    return 8.0


@dataclass(frozen=True)
class DecayReport:
    """Worst ratio of (1+v^4)|f*| (order 0) or (1+v^4)|grad f*| (order 1)
    to the decay amplitude a2, over an (x, v) grid and parameter samples."""

    a2: float
    derivative_order: int
    margin: float
    argmax_v: float
    z_samples: tuple[float, ...]

    @property
    def check(self) -> BoundCheck:
        """decay0 or decay1: margin <= 1."""
        return BoundCheck(f"decay{self.derivative_order}", self.margin, 1.0)

    def as_dict(self) -> dict:
        """The detail behind `check`."""
        return {
            "a2": self.a2, "derivative_order": self.derivative_order,
            "argmax_v": self.argmax_v, "z_samples": list(self.z_samples),
        }


def check_decay(spec: ProfileSpec, a2: float, z_samples=(0.0,),
                derivative_order: int = 0) -> DecayReport:
    """Check the (1+v^4)-weighted bound for f* (order 0) or grad f* (order 1)."""
    if a2 <= 0:
        raise ValueError("a2 must be positive")
    if derivative_order not in (0, 1):
        raise ValueError("derivative_order must be 0 or 1")
    z_samples = tuple(float(z) for z in z_samples)
    worst = 0.0
    argmax_v = 0.0
    for z in z_samples:
        value, at_v = grid_sups(spec, z)[derivative_order]
        # a NaN sup is kept so that the margin fails
        if value > worst or math.isnan(value):
            worst, argmax_v = value, at_v
    return DecayReport(a2=a2, derivative_order=derivative_order,
                       margin=worst / a2, argmax_v=argmax_v,
                       z_samples=z_samples)


# The decay and gradient sups are taken on one (x, v) grid of _GRID_NX
# positions and _GRID_NV velocities on [-v_half, v_half].
_GRID_NX = 256
_GRID_NV = 4001
_BLOCK_BYTES = 1 << 17     # per float64 temporary: a block stays in L2
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _first_max(weighted: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(maximum, its v) at the first maximum in row-major order; np.argmax
    takes the first NaN as the maximum."""
    i, j = np.unravel_index(np.argmax(weighted), weighted.shape)
    return float(weighted[i, j]), float(v[j])


def _decay0_sup(spec: ProfileSpec, z: float, x, v, wv):
    """Order-0 sup and argmax_v in O(nx + nv).

    On the grid, (1+v^4)|f*| is fl(fl(|A_i| S_j) w_j) with A_i = scale f1(x_i)
    and S_j > 0.  Rounding is monotone, so no row beats the row of the
    largest |A_i|.  Products of normal numbers also carry a relative error
    of at most eps/2, so a row whose |A_i| lies 3 eps below the largest
    stays strictly below it in every column.  The rows within 3 eps are
    evaluated, the first of each |A_i| value (equal |A_i|, equal rows), in
    grid order, so the maximum and its argmax are those of the full grid.
    Non-finite or subnormal data take every row.
    """
    amp = np.abs(spec.scale * spec.f1_value(x, z))
    s = spec.shape_value(v)
    top = float(amp.max())
    rows = np.arange(len(x))
    if top == 0.0 or (math.isfinite(top) and top * s.min() >= 4.0 * _TINY):
        near = np.flatnonzero(amp >= top * (1.0 - 3.0 * _EPS))
        rows = np.sort(near[np.unique(amp[near], return_index=True)[1]])
    return _first_max(amp[rows, None] * s * wv, v)


def _gradient_sups(spec: ProfileSpec, z: float, x, v, wv):
    """Order-1 sup with its argmax_v, and the unweighted sup of |grad f*|,
    from one pass over the grid in row blocks that stay in cache."""
    s, ds = spec.shape_value(v), spec.shape_dv(v)
    a_dx = spec.scale * spec.f1_dx(x, z)
    a_f = spec.scale * spec.f1_value(x, z)
    step = max(1, _BLOCK_BYTES // (8 * len(v)))
    best = None
    sups = []
    for lo in range(0, len(x), step):
        gx = a_dx[lo:lo + step, None] * s
        gv = a_f[lo:lo + step, None] * ds
        val = np.sqrt(gx * gx + gv * gv)
        sups.append(val.max())
        cand = _first_max(val * wv, v)
        # the first maximum wins; a NaN, once found, stays
        if best is None or (not math.isnan(best[0]) and (
                math.isnan(cand[0]) or cand[0] > best[0])):
            best = cand
    return best, float(np.max(sups))


@functools.lru_cache(maxsize=64)
def grid_sups(spec: ProfileSpec, z: float):
    """((sup0, argmax_v0), (sup1, argmax_v1), sup_grad) at parameter z.

    sup0 and sup1 are the grid maxima of (1+v^4)|f*| and (1+v^4)|grad f*|
    with the v of their first maximum in (x, v) row-major order, and
    sup_grad the maximum of |grad f*|; each is bitwise what evaluating
    the whole grid gives, and a NaN anywhere makes the sup NaN.  Recent
    (spec, z) pairs are cached, so a node's hypothesis gate and its
    corollary ratio share one pass.
    """
    v_half = _decay_v_window(spec)
    x = np.linspace(0.0, 2.0 * math.pi, _GRID_NX, endpoint=False)
    v = np.linspace(-v_half, v_half, _GRID_NV)
    wv = 1.0 + v ** 4
    return (_decay0_sup(spec, z, x, v, wv),) + _gradient_sups(spec, z, x, v,
                                                              wv)


@dataclass(frozen=True)
class ProfileCheckReport:
    """Combined hypothesis report with achieved constants per z-derivative.

    derivative_constants[j] = (c1, c2) such that the j-th parameter
    derivative of the profile satisfies smoothness(a, c1) and decay(c2)
    with equality at the worst point.
    """

    smoothness: SmoothnessReport
    decay0: DecayReport
    decay1: DecayReport
    derivative_constants: tuple[tuple[float, float], ...]

    @property
    def checks(self) -> dict:
        """smoothness, decay0 and decay1 as BoundChecks: margin <= 1."""
        return {rep.check.name: rep.check
                for rep in (self.smoothness, self.decay0, self.decay1)}

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def as_dict(self) -> dict:
        return {
            "smoothness": self.smoothness.as_dict(),
            "decay0": self.decay0.as_dict(),
            "decay1": self.decay1.as_dict(),
            "derivative_constants": [list(c) for c in self.derivative_constants],
        }


def check_profile(spec: ProfileSpec, a: float, a1: float, a2: float, K: int,
                  z_samples=(0.0,)) -> ProfileCheckReport:
    """Run all hypothesis checks plus achieved constants for orders <= K."""
    smooth = check_smoothness(spec, a, a1, z_samples)
    dec0 = check_decay(spec, a2, z_samples, derivative_order=0)
    dec1 = check_decay(spec, a2, z_samples, derivative_order=1)

    constants = []
    deriv = spec
    for _ in range(K + 1):
        s = check_smoothness(deriv, a, 1.0, z_samples)       # c1 = margin vs 1
        d0 = check_decay(deriv, 1.0, z_samples, 0)
        d1 = check_decay(deriv, 1.0, z_samples, 1)
        constants.append((s.margin, max(d0.margin, d1.margin)))
        deriv = deriv.z_derivative()
    return ProfileCheckReport(smoothness=smooth, decay0=dec0, decay1=dec1,
                              derivative_constants=tuple(constants))


def require_hypotheses(spec: ProfileSpec, a: float, a1: float, a2: float,
                       z_samples=(0.0,)) -> None:
    """Gate helper: raise HypothesisError when a hypothesis check fails."""
    smooth = check_smoothness(spec, a, a1, z_samples)
    if not smooth.check.passed:
        if not smooth.structural_ok:
            raise HypothesisError(
                "profile transform decays slower than e^{-a|kv|} "
                f"(rate {spec.transform_decay_rate:.6g} < a = {a:.6g}); "
                "no amplitude satisfies the smoothness hypothesis")
        raise HypothesisError(
            f"smoothness hypothesis fails with ratio {smooth.margin:.6g} > 1")
    for order in (0, 1):
        dec = check_decay(spec, a2, z_samples, derivative_order=order)
        if not dec.check.passed:
            raise HypothesisError(
                f"decay hypothesis (order {order}) fails with ratio "
                f"{dec.margin:.6g} > 1 near v = {dec.argmax_v:.3g}")
