"""Small construction utilities shared across test modules."""

import numpy as np

from vlandau import fields
from vlandau.profiles import Amplitude, Mode, ProfileSpec


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
    return fields.tabulate_field(
        tgrid, xgrid, lambda x, t: np.full_like(x, fn_t(t)))


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
    from vlandau.profiles import eval_profile, eval_profile_grad
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
    from vlandau.profiles import eval_profile_grad
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
