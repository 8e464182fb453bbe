"""Small construction utilities and test oracles shared across test
modules.  The oracles are closed forms or literal evaluations that the
library itself does not need: the force kernel, field tabulation, the
tail-integral and product lemmas, one field-map application, the field
map by direct kernel summation, the profile gradient and the
interpolant's z-derivative."""

import math
from dataclasses import dataclass, field

import numpy as np

from vlandau import fields
from vlandau.params import tail_integral, tail_integral_moment
from vlandau.profiles import Amplitude, Mode, ProfileSpec
from vlandau.scattering import _map_from_traj, _profile_weights, \
    solve_characteristics
from vlandau.uq import fd_weights


def small_grids(nx=16, nv=33, t0=8.0, t_end=20.0, steps=60, v_max=6.0):
    """Coarse grids for fast unit tests (same topology as the defaults)."""
    xg = fields.XGrid(nx)
    return (fields.TimeGrid(t0, t_end, steps),
            fields.PhaseGrid(xg, nv, v_max))


def make_spec(modes, shape="sech", rate=np.pi / 2, scale=1.0):
    """Profile from {k: coeffs} with polynomial amplitudes."""
    ms = tuple(Mode(k, Amplitude("poly", tuple(np.atleast_1d(c))))
               for k, c in sorted(modes.items()))
    return ProfileSpec(modes=ms, shape=shape, rate=rate, scale=scale)


def constant_field(tgrid, xgrid, fn_t):
    """x-independent field E(x, t) = fn_t(t)."""
    return tabulate_field(
        tgrid, xgrid, lambda x, t: np.full_like(x, fn_t(t)))


def tabulate_field(tgrid, xgrid, fn):
    """Build a field table from fn(x, t) with broadcasting arrays."""
    x = xgrid.points
    vals = np.empty((len(tgrid), xgrid.n))
    for n, t in enumerate(tgrid.times):
        vals[n] = np.asarray(fn(x, t), dtype=float)
    return fields.FieldTable(tgrid, xgrid, vals)


def kernel_B(x):
    """Periodic mean-free kernel, 1/2 - x/(2 pi) on the fundamental cell."""
    x = np.asarray(x, dtype=float)
    return 0.5 - np.mod(x, 2.0 * np.pi) / (2.0 * np.pi)


def apply_field_map(E, spec, z, phase, a=1.0, traj=None):
    """One application of the scattering field map to E, solving the
    characteristics with decay rate a unless traj is given (the map reads
    only the positions, which do not depend on a)."""
    if traj is None:
        traj = solve_characteristics(E, phase, a=a)
    return _map_from_traj(traj, spec, z, E.xgrid)


def direct_field_map(E, spec, z, phase, a=1.0):
    """The field map by literal kernel summation,
    E(y_i, t_n) = sum_p w_p f*_p B(y_i - X_p(t_n)) minus its mean over i,
    along the characteristics of E with decay rate a."""
    traj = solve_characteristics(E, phase, a=a)
    _, _, wf = _profile_weights(phase, spec, z)
    pos = traj.X().reshape(len(traj.tgrid), -1)
    ys = E.xgrid.points
    vals = np.array([kernel_B(ys[:, None] - row[None, :]) @ wf
                     for row in pos])
    vals -= vals.mean(axis=1, keepdims=True)
    return fields.FieldTable(traj.tgrid, E.xgrid, vals)


def eval_profile_grad(spec, x, v, z=0.0):
    """(d/dx f*, d/dv f*); x and v broadcast."""
    s = spec.shape_value(v)
    return (spec.scale * spec.f1_dx(x, z) * s,
            spec.scale * spec.f1_value(x, z) * spec.shape_dv(v))


def collocation_derivative(nodes, values, k, at=0.0):
    """d^k/dz^k at a point of the interpolant through (nodes, values);
    values has the node axis first, which the result drops."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if k >= nodes.shape[0]:
        raise ValueError("derivative order must be below the node count")
    return np.tensordot(fd_weights(nodes, at, k)[k], values, axes=(0, 0))


# ---------------------------------------------------------------------------
# lemma checkers: the tail-integral bounds and the weighted product estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailBoundReport:
    """Worst observed ratio of each tail integral to its standard bound.

    For t >= t0 and k <= 2K, under (A1)-(A2):

        int_t^inf (s-t) s^k e^{-a s} ds <= (4/a^2) t^k e^{-a t}
        int_t^inf       s^k e^{-a s} ds <= (2/a)   t^k e^{-a t}

    ratios <= 1 certify the bounds on the sampled window.
    """

    moment_ratios: dict = field(default_factory=dict)   # k -> worst ratio
    plain_ratios: dict = field(default_factory=dict)
    t_window: tuple = (0.0, 0.0)

    @property
    def passed(self):
        vals = list(self.moment_ratios.values()) + list(self.plain_ratios.values())
        return all(r <= 1.0 for r in vals)

    @property
    def worst(self):
        vals = list(self.moment_ratios.values()) + list(self.plain_ratios.values())
        return max(vals) if vals else 0.0


def verify_tail_bounds(params, t_max, samples=101):
    """Check the 4/a^2 and 2/a tail bounds for k <= 2K on [t0, t_max]."""
    if t_max <= params.t0:
        raise ValueError("t_max must exceed t0")
    a, t0 = params.a, params.t0
    moment_ratios, plain_ratios = {}, {}
    ts = [t0 + (t_max - t0) * i / (samples - 1) for i in range(samples)]
    for k in range(2 * params.K + 1):
        worst_m = worst_p = 0.0
        for t in ts:
            scale = t ** k * math.exp(-a * t)
            worst_m = max(worst_m, tail_integral_moment(a, t, k)
                          / (4.0 / a ** 2 * scale))
            worst_p = max(worst_p, tail_integral(a, t, k) / (2.0 / a * scale))
        moment_ratios[k] = worst_m
        plain_ratios[k] = worst_p
    return TailBoundReport(moment_ratios=moment_ratios,
                           plain_ratios=plain_ratios, t_window=(t0, t_max))


@dataclass(frozen=True)
class ProductBoundReport:
    """Weighted-norm product inequality |prod f_i|_{a,t0,k} <= C prod |f_i|.

    C = t*^(sum k_i - k) e^{-(n-1) a t*} with t* = t0 when
    t0 >= t1 = (sum k_i - k)/((n-1) a), else t* = t1 (where the envelope
    t^(sum k_i - k) e^{-(n-1) a t} peaks).
    """

    constant: float
    case: str                    # "t0" or "t1"
    lhs: float
    rhs: float
    factor_norms: tuple

    @property
    def passed(self):
        return self.lhs <= self.rhs


def check_nonlinear_norm_product(times, factors, k, a, t0):
    """Verify the weighted product estimate on sampled factors.

    factors is a sequence of (samples, k_i) with samples on the given
    times; k is the target moment.  Requires n >= 2 factors and
    k <= sum k_i.
    """
    factors = list(factors)
    n = len(factors)
    if n < 2:
        raise ValueError("need at least two factors")
    m = sum(int(ki) for _, ki in factors) - int(k)
    if m < 0:
        raise ValueError("target moment exceeds the sum of factor moments")
    t1 = m / ((n - 1) * a)
    case, tstar = ("t0", t0) if t0 >= t1 else ("t1", t1)
    constant = tstar ** m * math.exp(-(n - 1) * a * tstar)

    norms = []
    prod = None
    for samples, ki in factors:
        samples = np.asarray(samples, dtype=float)
        norms.append(fields.weighted_sup(times, np.abs(samples), a,
                                         moment=ki, t_start=t0).value)
        prod = samples if prod is None else prod * samples
    lhs = fields.weighted_sup(times, np.abs(prod), a, moment=int(k),
                              t_start=t0).value
    return ProductBoundReport(constant=constant, case=case, lhs=lhs,
                              rhs=constant * math.prod(norms),
                              factor_norms=tuple(norms))


# ---------------------------------------------------------------------------
# full-grid oracles of the profile sups (the arithmetic of the original
# check_decay and sup_gradient, one whole 256 x 4001 (x, v) grid per call)
# ---------------------------------------------------------------------------

def _full_grid(spec):
    v_half = max(8.0, 6.0 / spec.rate) if spec.shape == "sech" else 8.0
    x = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    v = np.linspace(-v_half, v_half, 4001)
    return x, v


def full_grid_decay(spec, z, derivative_order):
    """(max of the (1+v^4)-weighted |f*| or |grad f*| on the grid, its v);
    the first maximum in row-major order, a NaN counting as maximal."""
    from vlandau.profiles import eval_profile
    x, v = _full_grid(spec)
    if derivative_order == 0:
        val = np.abs(eval_profile(spec, x[:, None], v[None, :], z))
    else:
        gx, gv = eval_profile_grad(spec, x[:, None], v[None, :], z)
        val = np.sqrt(gx * gx + gv * gv)
    weighted = val * (1.0 + v ** 4)[None, :]
    idx = np.unravel_index(np.argmax(weighted), weighted.shape)
    return float(weighted[idx]), float(v[idx[1]])


def full_grid_sup_gradient(spec, z):
    """Grid maximum of |grad f*| (Euclidean)."""
    x, v = _full_grid(spec)
    gx, gv = eval_profile_grad(spec, x[:, None], v[None, :], z)
    return float(np.sqrt(gx * gx + gv * gv).max())


def resolved_corollary_survey(ens, spec, inner_tol=1e-12, max_inner=50):
    """The corollary survey as first written, independent of the node
    solves' own trajectories: each node's characteristics are solved again
    from its converged field, its residual f* - f* o (X - Vt, V) is formed
    from those, and the order k <= min(K, n_nodes - 2) derivative tables
    at z = 0 are accumulated with finite-difference weights over all
    nodes.  Returns (node_norms, node_ratios, derivative_norms)."""
    from vlandau import fields, profiles, scattering, uq
    params, phase = ens.params, ens.phase
    a = params.a
    times = ens.tgrid.times
    x = np.repeat(phase.xgrid.points, phase.nv)[None, :]
    v = np.tile(phase.v, phase.xgrid.n)[None, :]
    k_max = min(params.K, ens.n_nodes - 2)
    dw = uq.fd_weights(np.asarray(ens.nodes), 0.0, k_max)
    accum = np.zeros((k_max + 1, len(times), x.size))

    def norm_of(table):
        return fields.weighted_sup(times, np.abs(table).max(axis=1), a,
                                   moment=1, t_start=params.t0).value

    norms, ratios = [], []
    for j, (z, result) in enumerate(zip(ens.nodes, ens.results)):
        traj = scattering.solve_characteristics(
            result.field, phase, tol=inner_tol, max_inner=max_inner, a=a)
        dX = traj.dX.reshape(len(times), -1)
        dV = traj.dV.reshape(len(times), -1)
        delta = -profiles.shifted_difference(
            spec, x, v, dX - times[:, None] * dV, dV, z)
        norms.append(norm_of(delta))
        bound = 3.0 * full_grid_sup_gradient(spec, z) \
            * fields.weighted_norm(result.field, a).value / a
        ratios.append(norms[-1] / bound)
        accum += dw[:, j, None, None] * delta[None]
    return norms, ratios, [norm_of(table) for table in accum]
