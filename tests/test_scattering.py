"""Characteristics, variational system, field map, and fixed-point tests.

Closed-form oracles: free transport (identically zero deviations), an
x-independent exponentially decaying field (trajectories in quadrature),
and the single-mode analytic image of the zero field.
"""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import helpers as H
from helpers import constant_field, make_spec, small_grids
from vlandau import fields as F
from vlandau import kernels as K
from vlandau import params as P
from vlandau import scattering as S
from vlandau import uq as U
from vlandau.profiles import HypothesisError, grid_sups


# ---------------------------------------------------------------------------
# free transport
# ---------------------------------------------------------------------------

def test_free_transport_is_exact(ref_tgrid, ref_phase):
    E = F.zero_field(ref_tgrid, ref_phase.xgrid)
    traj = S.solve_characteristics(E, ref_phase, a=1.0)
    assert np.abs(traj.dX).max() == 0.0
    assert np.abs(traj.dV).max() == 0.0
    assert traj.inner_iterations == 1
    # absolute coordinates reproduce x + v t and v
    x = np.repeat(ref_phase.xgrid.points, ref_phase.nv).reshape(
        ref_phase.xgrid.n, ref_phase.nv)
    v = np.tile(ref_phase.v, ref_phase.xgrid.n).reshape(
        ref_phase.xgrid.n, ref_phase.nv)
    t = ref_tgrid.times[:, None, None]
    assert np.abs(H.trajectory_X(traj) - (x[None] + v[None] * t)).max() \
        <= 1e-12
    assert np.abs((v[None] + traj.dV) - v[None]).max() <= 1e-12


def test_free_transport_variational_identity(ref_tgrid, ref_phase):
    E = F.zero_field(ref_tgrid, ref_phase.xgrid)
    traj = S.solve_characteristics(E, ref_phase, a=1.0)
    sups = S.solve_variational(E, traj)
    for sup in (sups.xi, sups.eta, sups.chi, sups.omega):
        assert sup.max() <= 1e-12
    assert sups.jacobian <= 1e-12
    var = H.variational_tables(E, traj)
    for arr in (var.xi, var.eta, var.chi, var.omega):
        assert np.abs(arr).max() <= 1e-12
    t = ref_tgrid.times[:, None, None]
    assert np.abs(var.dX_dx() - 1.0).max() <= 1e-12
    assert np.abs(var.dX_dv() - t).max() <= 1e-12
    assert np.abs(var.chi).max() <= 1e-12
    assert np.abs((1.0 + var.omega) - 1.0).max() <= 1e-12
    assert np.abs(var.jacobian_minus_one()).max() <= 1e-12


def test_zero_field_trajectory_report_is_zero(ref_tgrid, ref_phase,
                                              ref_params):
    E = F.zero_field(ref_tgrid, ref_phase.xgrid)
    traj = S.solve_characteristics(E, ref_phase, a=1.0)
    checks = H.check_trajectory_bounds(
        traj, F.weighted_norm(E, ref_params.a).value, ref_params)
    assert checks["traj_velocity"].value == 0.0
    assert checks["traj_position"].value == 0.0
    assert all(c.passed for c in checks.values())


# ---------------------------------------------------------------------------
# x-independent decaying field: trajectories in closed form
# ---------------------------------------------------------------------------

def test_constant_in_x_field_closed_form():
    a, eps = 1.0, 1e-4
    tg, phase = small_grids(t_end=20.0, steps=120)   # dt = 0.1
    E = constant_field(tg, phase.xgrid, lambda t: eps * math.exp(-a * t))
    traj = S.solve_characteristics(E, phase, a=a)
    ts = tg.times
    T = tg.t_end

    # velocity: product rule integrates e^{-a s} exactly
    dv_exact = -eps * (np.exp(-a * ts) - math.exp(-a * T)) / a
    got_v = traj.dV[:, 0, 0]
    assert np.allclose(got_v, dv_exact, rtol=5e-13, atol=1e-22)
    # no dependence on the phase-space label
    assert np.ptp(traj.dV, axis=(1, 2)).max() == 0.0

    # position: trapezoid-moment rule; composite error <= (dt^2/12) int|h''|
    dx_exact = eps * ((np.exp(-a * ts) - math.exp(-a * T)) / a ** 2
                      - (T - ts) * math.exp(-a * T) / a)
    got_x = traj.dX[:, 0, 0]
    tol = 0.5 * tg.dt ** 2 * eps * np.exp(-a * ts)
    assert np.all(np.abs(got_x - dx_exact) <= tol)


def test_constant_in_x_field_bound_ratios():
    # |E|_{a,t0} = eps; the velocity inequality saturates up to the
    # neglected horizon tail e^{-a (T - t0)}
    a, eps = 1.0, 1e-4
    tg, phase = small_grids(t_end=28.0, steps=200)
    E = constant_field(tg, phase.xgrid, lambda t: eps * math.exp(-a * t))
    traj = S.solve_characteristics(E, phase, a=a)
    params = P.derive_constants(a, 0.002, 0.002, 2, t0=tg.t0)
    checks = H.check_trajectory_bounds(
        traj, F.weighted_norm(E, params.a).value, params)
    assert F.weighted_norm(E, a).value == pytest.approx(eps, rel=1e-12)
    ratio_v = checks["traj_velocity"].value
    assert ratio_v <= 1.0
    assert ratio_v == pytest.approx(1.0 - math.exp(-(tg.t_end - tg.t0)),
                                    rel=1e-9)
    # position ratio approaches (1 + 1/(a t0))/2 at the window start
    ratio_x = checks["traj_position"].value
    assert ratio_x <= 1.0
    assert ratio_x == pytest.approx(0.5 * (1 + 1 / (a * tg.t0)), rel=2e-3)


def test_field_too_large_precondition():
    tg, phase = small_grids()
    E = constant_field(tg, phase.xgrid, lambda t: 1.0)
    with pytest.raises(S.ConvergenceError, match="field too large"):
        S.solve_characteristics(E, phase, a=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_field_fails_by_name(value):
    tg, phase = small_grids()
    E = constant_field(tg, phase.xgrid, lambda t: 1e-4 * math.exp(-t))
    values = E.values.copy()
    values[len(tg) // 2, 3] = value
    with pytest.raises(S.ConvergenceError, match="field is not finite"):
        S.solve_characteristics(E.with_values(values), phase, a=1.0)


# ---------------------------------------------------------------------------
# the one-pass characteristics against a sweep and a 30-digit march
# ---------------------------------------------------------------------------

def _strong_fields(tg, xg):
    """Prescribed fields E_0, E_1, E_2 with displacements near 0.1."""
    return [H.tabulate_field(tg, xg, lambda x, t, c=c, k=k, p=p:
                             c * np.exp(tg.t0 - t) * np.sin(k * x + p))
            for c, k, p in ((0.2, 1, 0.0), (0.1, 2, 0.5), (0.05, 1, 1.0))]


def _strong_case(t0=8.0):
    """Small grids and E_0 + E_1 + E_2, whose trajectories reach rows
    beyond the Taylor radius, which the kernels reduce onto the grid."""
    tg, phase = small_grids(t0=t0)
    E = _strong_fields(tg, phase.xgrid)
    return phase, E[0].with_values(sum(e.values for e in E))


@pytest.fixture(scope="module")
def strong_traj():
    phase, E = _strong_case()
    return E, S.solve_characteristics(E, phase, a=1.0)


def test_strong_field_rows_are_range_reduced(strong_traj):
    _, traj = strong_traj
    kmax = traj.phase.xgrid.n // 2
    radius = kmax * np.abs(traj.dX).max(axis=(1, 2))
    assert (radius > math.pi / 2).sum() >= 2


@pytest.mark.parametrize("case", ["reference", "strong"])
def test_characteristics_are_a_fixed_point_of_one_sweep(case, ref_solve,
                                                        ref_traj,
                                                        strong_traj):
    # one sweep of the relaxation the pass replaces (E along dX, then the
    # moment rule) returns dX within 4 ulp of its largest entry
    if case == "reference":
        E, traj = ref_solve.field, ref_traj
    else:
        E, traj = strong_traj
    assert traj.inner_iterations == 1
    nt = len(traj.tgrid)
    x = np.repeat(traj.phase.xgrid.points, traj.phase.nv)
    v = np.tile(traj.phase.v, traj.phase.xgrid.n)
    c = E.coefficients()
    dX = traj.dX.reshape(nt, -1)
    g = K.eval_rows(np.ascontiguousarray(c.real),
                    np.ascontiguousarray(c.imag), x, v, traj.tgrid.times, dX)
    swept = K.suffix_trapz_moment(g, traj.tgrid.dt)[1]
    assert np.abs(swept - dX).max() <= 4 * np.spacing(np.abs(dX).max())


@pytest.mark.parametrize("case", ["reference", "strong"])
def test_characteristics_velocity_is_the_weighted_suffix_rule(case, ref_solve,
                                                              ref_traj,
                                                              strong_traj):
    # the march accumulates dV from two rows of E along the trajectories;
    # kernels.suffix_weighted on the whole table of E along dX, in the
    # same order, is the oracle, bitwise
    if case == "reference":
        E, traj = ref_solve.field, ref_traj
    else:
        E, traj = strong_traj
    nt = len(traj.tgrid)
    x, v, _ = S._flat_labels(traj.phase)
    c = E.coefficients()
    g = K.eval_rows(np.ascontiguousarray(c.real),
                    np.ascontiguousarray(c.imag), x, v, traj.tgrid.times,
                    traj.dX.reshape(nt, -1))
    alpha, beta = K.exp_cell_weights(1.0, traj.tgrid.dt)
    want = -K.suffix_weighted(g, alpha, beta)
    assert traj.dV.reshape(nt, -1).tobytes() == want.tobytes()


def _mp_march(E, phase, a, particles):
    """dX and dV of the given flat particle indices at 30 digits: E by its
    Fourier sum, the trapezoid moment recurrence for dX and the
    exponential cell weights for dV, marched from t_end backward."""
    import mpmath
    mp = mpmath.mp
    mp.dps = 30
    tg = E.tgrid
    nt, dt = len(tg), mp.mpf(tg.dt)
    alpha, beta = (mp.mpf(w) for w in K.exp_cell_weights(a, tg.dt))
    c = E.coefficients()
    half = c.shape[1] - 1
    modes = [[mp.mpc(c[n, k].real, c[n, k].imag) for k in range(half)]
             for n in range(nt)]
    x = np.repeat(phase.xgrid.points, phase.nv)
    v = np.tile(phase.v, phase.xgrid.n)

    def field(n, theta):
        out = modes[n][0].real + c[n, half].real * mp.cos(half * theta)
        for k in range(1, half):
            out += 2 * mp.re(modes[n][k] * mp.expj(k * theta))
        return out

    dX = np.empty((nt, len(particles)))
    dV = np.empty((nt, len(particles)))
    for col, p in enumerate(particles):
        xp, vp = mp.mpf(x[p]), mp.mpf(v[p])
        mom, acc, vel = mp.mpf(0), mp.mpf(0), mp.mpf(0)
        h_next = field(nt - 1, xp + vp * mp.mpf(tg.times[-1]))
        dX[-1, col] = dV[-1, col] = 0.0
        for n in range(nt - 2, -1, -1):
            mom = mom + dt * acc + dt * dt / 2 * h_next
            h = field(n, xp + vp * mp.mpf(tg.times[n]) + mom)
            acc = acc + dt / 2 * (h + h_next)
            vel = vel - alpha * h - beta * h_next
            dX[n, col], dV[n, col] = float(mom), float(vel)
            h_next = h
    return dX, dV


@pytest.mark.parametrize("case", ["reference", "strong"])
def test_characteristics_match_a_30_digit_march(case, ref_solve, ref_traj,
                                                strong_traj):
    if case == "reference":
        E, traj = ref_solve.field, ref_traj
    else:
        E, traj = strong_traj
    nt = len(traj.tgrid)
    npart = traj.dX[0].size
    particles = np.random.default_rng(7).choice(npart, 5, replace=False)
    dX, dV = _mp_march(E, traj.phase, 1.0, particles)
    for got, want in ((traj.dX, dX), (traj.dV, dV)):
        got = got.reshape(nt, -1)[:, particles]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# ---------------------------------------------------------------------------
# variational derivatives against label finite differences
# ---------------------------------------------------------------------------

def test_variational_matches_label_finite_differences(ref_solve, ref_traj):
    traj = ref_traj
    var = H.variational_tables(ref_solve.field, traj)
    phase = traj.phase
    dx_lbl = phase.xgrid.dx
    dv_lbl = phase.dv

    # periodic central difference of dX over the x label
    fd_xi = (np.roll(traj.dX, -1, axis=1)
             - np.roll(traj.dX, 1, axis=1)) / (2 * dx_lbl)
    tol_x = dx_lbl ** 2 * np.abs(traj.dX).max() + 1e-14
    assert np.abs(fd_xi - var.xi).max() <= tol_x

    # v-label differences see curvature amplified by powers of t (the
    # evaluation point slides like x + v t), so compare against the
    # second-order truncation model (h^2/6) f''' with f''' measured from
    # the data itself
    def check_v_derivative(table, deviation):
        fd = (table[:, :, 2:] - table[:, :, :-2]) / (2 * dv_lbl)
        err = np.abs(fd - deviation[:, :, 1:-1]).max()
        d3 = np.abs(table[:, :, 4:] - 2 * table[:, :, 3:-1]
                    + 2 * table[:, :, 1:-3]
                    - table[:, :, :-4]).max() / (2 * dv_lbl ** 3)
        assert err <= 1.5 * (dv_lbl ** 2 / 6) * d3 + 1e-13

    check_v_derivative(traj.dX, var.eta)

    # same for the velocity deviations
    fd_chi = (np.roll(traj.dV, -1, axis=1)
              - np.roll(traj.dV, 1, axis=1)) / (2 * dx_lbl)
    assert np.abs(fd_chi - var.chi).max() <= dx_lbl ** 2 \
        * np.abs(traj.dV).max() + 1e-14
    check_v_derivative(traj.dV, var.omega)


def test_variational_is_a_fixed_point_of_one_sweep(ref_solve, ref_traj):
    # the one-pass solve is the exact solution of the discrete system: one
    # more sweep of the moment rule returns xi and eta bitwise, and the
    # plain suffix rule of the same integrands returns -chi and -omega
    # (integrands g y + f with the forcings f = g c the solve passes)
    traj = ref_traj
    var = H.variational_tables(ref_solve.field, traj)
    nt = len(traj.tgrid)
    x = np.repeat(traj.phase.xgrid.points, traj.phase.nv)
    v = np.tile(traj.phase.v, traj.phase.xgrid.n)
    cdx = F.spectral_dx(ref_solve.field).coefficients()
    g_ex = K.eval_rows(np.ascontiguousarray(cdx.real),
                       np.ascontiguousarray(cdx.imag), x, v,
                       traj.tgrid.times, traj.dX.reshape(nt, -1))
    tcol = traj.tgrid.times[:, None]
    dt = traj.tgrid.dt
    for c, y, vel in ((1.0, var.xi, var.chi), (tcol, var.eta, var.omega)):
        y, vel = y.reshape(nt, -1), vel.reshape(nt, -1)
        integrand = g_ex * y + g_ex * c
        assert np.array_equal(K.suffix_trapz_moment(integrand, dt)[1], y)
        assert np.array_equal(K.suffix_trapz(integrand, dt), -vel)


def test_jacobian_identity(ref_solve, ref_traj):
    var = H.variational_tables(ref_solve.field, ref_traj)
    t = var.tgrid.times[:, None, None]
    direct = (var.dX_dx() * (1.0 + var.omega) - var.dX_dv() * var.chi) - 1.0
    stable = var.jacobian_minus_one()
    # the assembled form agrees with the naive determinant up to the
    # cancellation noise of the O(t) products, which dwarfs the signal
    assert np.abs(direct - stable).max() <= 1e-13 * float(t.max())
    assert np.abs(stable).max() <= 1e-20


# ---------------------------------------------------------------------------
# the streamed certifying stage
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_streamed_stages_match_whole_tables_at_block_boundaries(blocks):
    # nt below one row block, two whole blocks, and one row past them:
    # the streamed variational sups, both trajectory ratios and the sup
    # of the deposit equal their whole-table oracles bitwise
    spec, params, _, tg, phase = H.block_case(blocks)
    r = S.picard_solve(spec, params, 0.3, tg, phase)
    E, traj = r.field, H.characteristics(r)

    got = S.solve_variational(E, traj)
    want = H.variational_sups(H.variational_tables(E, traj))
    for name in ("xi", "eta", "chi", "omega"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.dX_dx, got.dX_dv_moment1, got.jacobian) \
        == (want.dX_dx, want.dX_dv_moment1, want.jacobian)
    assert got.jacobian > 0.0

    assert (r.checks["traj_velocity"].value,
            r.checks["traj_position"].value) \
        == H.trajectory_ratios(traj, E, params.a)
    rho = H.deposit_table(traj, spec, 0.3, phase.xgrid)
    assert r.checks["density_sup"].value == float(np.abs(rho).max())


def _solve_both_ways(spec, params, z, tg, phase, plain=None):
    """picard_solve plain (plain, if given) and with a uq node's consumer
    riding its march (uq._solve_node): the same field, checks and
    certificates bitwise; returns the plain solve."""
    if plain is None:
        plain = S.picard_solve(spec, params, z, tg, phase)
    rode = U._solve_node(spec, params, z, tg, phase, {})[0]
    assert plain.field.values.tobytes() == rode.field.values.tobytes()
    assert json.dumps(plain.manifest()) == json.dumps(rode.manifest())
    return plain


@pytest.mark.parametrize("case", ["coarse", "reference", "blocks-1",
                                  "blocks-2", "blocks-3", "strong"])
def test_streamed_solve_is_the_whole_table_solve(case, request, monkeypatch):
    # a consumer riding the march changes no value of the solve, and the
    # streamed checks and certificates are those formed from the stored
    # tables by one whole-table kernel call per quantity.  The strong
    # field's rows are reduced onto the grid by the kernels.
    plain, traj = None, None
    if case == "coarse":
        spec = make_spec(LINEAR_Z)
        params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
        tg, phase = small_grids(nx=32, nv=65, t0=8.0, t_end=43.0, steps=87)
        z = 0.0
    elif case == "reference":
        spec, params, tg, phase = (request.getfixturevalue(name) for name in
                                   ("ref_spec", "ref_params", "ref_tgrid",
                                    "ref_phase"))
        z, plain = 0.0, request.getfixturevalue("ref_solve")
        traj = request.getfixturevalue("ref_traj")
    elif case == "strong":
        strong, traj = request.getfixturevalue("strong_traj")
        tg, phase = strong.tgrid, traj.phase
        spec, z = make_spec(LINEAR_Z), 0.0
        params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=tg.t0)
        monkeypatch.setattr(S, "_field_pass", lambda spec, z, tg, phase: (
            strong, S.field_map_zero(spec, z, tg, phase.xgrid)))
    else:
        spec, params, z, tg, phase = H.block_case(int(case[-1]))
    r = _solve_both_ways(spec, params, z, tg, phase, plain)
    if traj is None:
        traj = H.characteristics(r)
    if case == "strong":
        radius = (phase.xgrid.n // 2) * np.abs(traj.dX).max(axis=(1, 2))
        assert (radius > math.pi / 2).sum() >= 2
    checks, certificates = H.whole_table_checks(spec, r, traj)
    assert {n: c.as_dict() for n, c in r.checks.items()} \
        == {n: c.as_dict() for n, c in checks.items()}
    assert list(r.checks) == list(checks)
    assert r.certificates == certificates
    assert list(r.certificates) == list(certificates)


def test_streamed_picard_solve_forms_no_trajectory_table(ref_spec, ref_params,
                                                         ref_tgrid,
                                                         ref_phase):
    # without its tables the certifying march keeps row blocks only: the
    # traced growth of a solve on the reference grids, with the caches
    # warm, stays below one (nt, P) table
    table = 8 * len(ref_tgrid) * ref_phase.xgrid.n * ref_phase.nv
    args = (ref_spec, ref_params, 0.0, ref_tgrid, ref_phase)
    S.picard_solve(*args, keep_tables=False)        # grid_sups
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        S.picard_solve(*args, keep_tables=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < table, (peak - start) / table


def test_cold_picard_solve_keeps_no_phase_table(ref_spec, ref_params,
                                                ref_tgrid, ref_phase):
    # the marches form the phase rows e^{ik v_j t_n} by row blocks, not
    # the (nt, nk, nv) table: with grid_sups warm, a reference solve grows
    # by less than one (nt, P) float table (0.41; 1.42 when it built the
    # whole phase table)
    table = 8 * len(ref_tgrid) * ref_phase.xgrid.n * ref_phase.nv
    grid_sups(ref_spec, 0.0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        S.picard_solve(ref_spec, ref_params, 0.0, ref_tgrid, ref_phase)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < table, (peak - start) / table


def test_picard_solve_memory_budget():
    # once the characteristics are solved, no (nt, P) table is alive: the
    # march keeps row blocks of dX, dV and the phase rows, so the traced
    # peak of a solve on the uq-coarse grids, with the caches warm, stays
    # within 3 such tables (2.40)
    spec = make_spec(LINEAR_Z)
    params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
    tg, phase = small_grids(nx=32, nv=65, t0=8.0, t_end=43.0, steps=87)
    table = 8 * len(tg) * phase.xgrid.n * phase.nv
    S.picard_solve(spec, params, 0.0, tg, phase)    # grid_sups
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        S.picard_solve(spec, params, 0.0, tg, phase)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 3 * table, (peak - start) / table


# ---------------------------------------------------------------------------
# field map
# ---------------------------------------------------------------------------

def test_field_map_zero_single_mode_closed_form():
    b = np.pi / 2
    c1, scale = 3e-5, 1.2
    spec = make_spec({0: 8e-5, 1: c1}, shape="sech", rate=b, scale=scale)
    tg, phase = small_grids()
    out = S.field_map_zero(spec, 0.0, tg, phase.xgrid)
    xs = phase.xgrid.points
    ts = tg.times
    amp = 2 * c1 * scale * (np.pi / b) / np.cosh(np.pi * ts / (2 * b))
    expect = amp[:, None] * np.sin(xs)[None, :]
    assert np.allclose(out.values, expect, rtol=1e-14, atol=1e-20)


def test_field_map_zero_mode_zero_only_vanishes():
    spec = make_spec({0: 1e-4})
    tg, phase = small_grids()
    assert np.all(S.field_map_zero(spec, 0.0, tg, phase.xgrid).values == 0.0)


def test_split_map_at_zero_field_equals_series(ref_spec, ref_tgrid,
                                               ref_phase):
    E = F.zero_field(ref_tgrid, ref_phase.xgrid)
    out = H.apply_field_map(E, ref_spec, 0.0, ref_phase, a=1.0)
    series = S.field_map_zero(ref_spec, 0.0, ref_tgrid, ref_phase.xgrid)
    # free flight leaves no displacement, so the spectral correction is 0
    assert np.array_equal(out.values, series.values)


def test_homogeneous_profile_map_vanishes():
    spec = make_spec({0: 1e-4})
    tg, phase = small_grids()
    E = F.zero_field(tg, phase.xgrid)
    split = H.apply_field_map(E, spec, 0.0, phase, a=1.0)
    assert np.abs(split.values).max() == 0.0
    direct = H.direct_field_map(E, spec, 0.0, phase, a=1.0)
    # uniformly loaded cells: kernel summation cancels to roundoff
    assert np.abs(direct.values).max() <= 1e-15


def test_apply_field_map_accepts_precomputed_trajectories(ref_spec):
    tg, phase = small_grids()
    E = F.zero_field(tg, phase.xgrid)
    traj = S.solve_characteristics(E, phase, a=1.0)
    out1 = H.apply_field_map(E, ref_spec, 0.0, phase, traj=traj)
    out2 = H.apply_field_map(E, ref_spec, 0.0, phase)
    assert np.array_equal(out1.values, out2.values)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_density_mass_and_mean_drift():
    spec = make_spec({0: 8e-5, 1: 1e-5})
    tg, phase = small_grids(nx=32, nv=129)
    E = F.zero_field(tg, phase.xgrid)
    traj = S.solve_characteristics(E, phase, a=1.0)
    rho = S.deposit_density(traj, spec, 0.0, phase.xgrid)
    # cloud-in-cell conserves the deposited mass row by row
    from vlandau.profiles import neutral_density
    rho0 = neutral_density(spec, 0.0)
    mean = rho.values.mean(axis=1)
    # the mean differs from c0 T(0) only by the velocity-window truncation
    b = np.pi / 2
    truncation = 8e-5 * (4.0 / b) * math.atan(math.exp(-b * phase.v_max))
    drift = abs(float(mean[0]) - rho0)
    assert drift == pytest.approx(truncation, rel=0.02)
    assert np.ptp(mean) <= 1e-18                     # time-independent


def test_density_pert_free_flow_matches_transforms():
    # with E = 0 the perturbation is the analytic free-streaming sum
    spec = make_spec({0: 8e-5, 1: 1e-5, 2: 4e-6})
    tg, phase = small_grids(nx=32)
    E = F.zero_field(tg, phase.xgrid)
    traj = S.solve_characteristics(E, phase, a=1.0)
    pert = S.deposit_density_pert(traj, spec, 0.0, phase.xgrid)
    xs = phase.xgrid.points
    ts = tg.times
    expect = np.zeros_like(pert.values)
    for k, c in ((1, 1e-5), (2, 4e-6)):
        trans = np.asarray(spec.shape_transform(k * ts))
        expect += 2 * c * trans[:, None] * np.cos(k * xs)[None, :]
    assert np.array_equal(pert.values, expect)


# ---------------------------------------------------------------------------
# fixed point on a coarse grid
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_solve():
    spec = make_spec({0: 8e-5, 1: 1e-5})
    params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
    tg, phase = small_grids(nx=32, nv=65, t_end=28.0, steps=100)
    return S.picard_solve(spec, params, 0.0, tg, phase)


def test_small_solve_converges(small_solve):
    r = small_solve
    assert r.converged
    assert r.residual_norm <= 1e-14 * F.weighted_norm(r.field, 1.0).value
    assert 0.0 < r.checks["contraction_ratio"].value <= 0.25
    assert r.manifest()["method"] == "split"


def test_small_solve_checks_and_certificates(small_solve):
    r = small_solve
    names = {"field_weighted", "field_dx_sup", "field_dx_weighted",
             "density_sup", "density_pert_weighted", "traj_velocity",
             "traj_position", "dXdx_weighted", "dXdv_weighted",
             "dVdx_weighted", "dVdv_weighted", "dXdx_sup",
             "dXdv_sup_moment1", "jacobian_deviation",
             "field_density_consistency", "fixed_point_residual",
             "contraction_ratio"}
    assert set(r.checks) == names
    for c in r.checks.values():
        assert c.passed, f"{c.name}: {c.value} > {c.bound}"
    certs = r.certificates
    assert set(certs) == {"time_tail_position", "time_tail_velocity",
                          "velocity_truncation_density",
                          "mean_density_drift", "kernel_truncation"}
    assert certs["time_tail_position"] > 0
    assert certs["mean_density_drift"] < 1e-7


def test_characteristics_tail_certificates(small_solve):
    # the integral tails beyond t_end that the characteristics neglect,
    # |E|_{a,t0} e^{-a T}/a^2 for X and |E|_{a,t0} e^{-a T}/a for V
    r = small_solve
    a, T = r.params.a, r.field.tgrid.t_end
    ne = F.weighted_norm(r.field, a).value
    certs = r.certificates
    assert certs["time_tail_position"] == ne * P.tail_integral_moment(a, T, 0)
    assert certs["time_tail_velocity"] == ne * P.tail_integral(a, T, 0)
    assert certs["time_tail_position"] == pytest.approx(
        ne * math.exp(-a * T) / a ** 2, rel=1e-12)
    assert certs["time_tail_velocity"] == pytest.approx(
        ne * math.exp(-a * T) / a, rel=1e-12)


def test_small_solve_residual_norm_is_the_residual_check(small_solve):
    r = small_solve
    assert r.residual_norm == r.checks["fixed_point_residual"].value
    assert r.manifest()["residual_norm"] == r.residual_norm


def test_small_solve_kernel_truncation_certificate(small_solve):
    # the largest Taylor remainder the FFT kernels leave on the final
    # trajectory: positive (displacements are nonzero) and below 2^-53
    r = small_solve
    cert = r.certificates["kernel_truncation"]
    assert 0.0 < cert < 2.0 ** -53
    traj = H.characteristics(r)
    dX = traj.dX.reshape(len(traj.tgrid), -1)
    nk = traj.phase.xgrid.n // 2 + 1
    assert cert == H.truncation_remainder(dX, nk)


@pytest.mark.parametrize("z", [0.0, 0.3])
def test_kernel_truncation_is_the_larger_remainder_the_kernels_returned(
        z, ref_spec, ref_params, ref_tgrid, ref_phase, ref_solve, ref_traj):
    # the certificate is the whole-table remainder of the characteristics
    # on the reference grids; at z = 0 the evaluations of E and g along
    # the march's rows (eval_block, lowest 0) set it, at z = 0.3 the map's
    # correction modes (corr_evaluator, lowest 1), so each kernel's
    # returned remainder reaches the certificate
    if z == 0.0:
        r, traj = ref_solve, ref_traj
    else:
        r = S.picard_solve(ref_spec, ref_params, z, ref_tgrid, ref_phase)
        traj = H.characteristics(r)
    dX = traj.dX.reshape(len(traj.tgrid), -1)
    nk = traj.phase.xgrid.n // 2 + 1
    rows, modes = (H.truncation_remainder(dX, nk, (lowest,))
                   for lowest in (0, 1))
    cert = r.certificates["kernel_truncation"]
    assert cert == H.truncation_remainder(dX, nk) == max(rows, modes)
    if z == 0.0:
        assert cert == rows > modes
        assert cert == pytest.approx(1.073e-16, rel=1e-3)
    else:
        assert cert == modes > rows
        assert cert == pytest.approx(1.083e-16, rel=1e-3)


def test_picard_solve_reduces_each_row_once_per_kernel_call(
        monkeypatch, ref_spec, ref_params, ref_tgrid, ref_phase):
    # kernels._taylor_rows runs once in each kernel call and nowhere else:
    # two per row in the field pass, one per row in the march, and one
    # correction call per row block of the march; the remainder is read
    # off those calls, not derived again
    calls = []
    real = K._taylor_rows

    def counted(*args):
        calls.append(args[0].shape[0])
        return real(*args)

    monkeypatch.setattr(K, "_taylor_rows", counted)
    S.picard_solve(ref_spec, ref_params, 0.0, ref_tgrid, ref_phase)
    nt, npart = len(ref_tgrid), ref_phase.xgrid.n * ref_phase.nv
    blocks = K._row_blocks(nt, npart)
    assert len(calls) == 3 * nt + len(blocks) == 587
    assert sum(calls) == 4 * nt


def test_small_solve_contraction_ratio_check(small_solve):
    # the map's Lipschitz quotient between 0 and E: |E - map 0|_a / |E|_a
    r = small_solve
    a, a2 = r.params.a, r.params.a2
    c = r.checks["contraction_ratio"]
    E = r.field
    free = S.field_map_zero(make_spec({0: 8e-5, 1: 1e-5}), 0.0, E.tgrid,
                            E.xgrid)
    assert c.value == F.weighted_norm(
        E.with_values(E.values - free.values), a).value \
        / F.weighted_norm(E, a).value
    assert c.bound == 88 * a2 / (a ** 2 - 80 * a2)
    assert c.bound == r.params.contraction_bound
    assert c.passed
    assert r.manifest()["checks"]["contraction_ratio"] == c.as_dict()


def test_small_solve_manifest_structure(small_solve):
    m = small_solve.manifest()
    assert m["passed"] is True
    assert m["grids"]["nx"] == 32 and m["grids"]["nv"] == 65
    assert m["converged"] is True
    assert not {"iterations", "iterate_norms", "contraction_ratios"} & set(m)
    assert m["checks"]["traj_velocity"]["bound"] == 1.0


def test_picard_tolerance_only_gates_the_residual_check():
    # the pass is exact: tol and max_iter change no value of the solve,
    # and tol is only the bound of the fixed_point_residual check
    spec = make_spec({0: 8e-5, 1: 1e-5})
    params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
    tg, phase = small_grids()
    r = S.picard_solve(spec, params, 0.0, tg, phase, keep_tables=False)
    for tol, max_iter in ((1e-30, 1), (0.0, 0)):
        tight = S.picard_solve(spec, params, 0.0, tg, phase, tol=tol,
                               max_iter=max_iter, keep_tables=False)
        assert np.array_equal(tight.field.values, r.field.values)
        c = tight.checks["fixed_point_residual"]
        assert (c.value, c.bound) == (r.residual_norm, tol)
        assert c.passed == (r.residual_norm <= tol)


def test_picard_solve_rejects_unknown_method():
    # the split map is the only field-map method
    spec = make_spec({0: 8e-5, 1: 1e-5})
    params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
    tg, phase = small_grids()
    for method in ("direct", "fft"):
        with pytest.raises(ValueError, match="unknown field-map method"):
            S.picard_solve(spec, params, 0.0, tg, phase, method=method)


@pytest.mark.parametrize("t0", [9.0, 7.0])
def test_picard_solve_rejects_a_grid_not_starting_at_params_t0(t0):
    # every norm |.|_{a,t0} runs over the stored times, so the grid's
    # first time is the one t0
    spec = make_spec({0: 8e-5, 1: 1e-5})
    params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
    tg, phase = small_grids(t0=t0)
    with pytest.raises(ValueError, match=re.escape(
            f"starts at t0 = {t0!r}, not at params.t0 = 8.0")):
        S.picard_solve(spec, params, 0.0, tg, phase)


def test_a_field_far_too_large_fails_by_name(monkeypatch):
    # the pass meets displacements that the kernels' range reduction
    # cannot represent; those rows, and the rows below them, come out NaN,
    # and the certifying characteristics name the field
    real = S.field_map_zero

    def scaled(*args):
        table = real(*args)
        return table.with_values(1e300 * table.values)

    monkeypatch.setattr(S, "field_map_zero", scaled)
    spec = make_spec({0: 8e-5, 1: 1e-5})
    params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
    tg, phase = small_grids(nx=8)
    with pytest.raises(S.ConvergenceError, match="field is not finite"):
        S.picard_solve(spec, params, 0.0, tg, phase)


def test_picard_gates():
    tg, phase = small_grids()
    good_spec = make_spec({0: 8e-5, 1: 1e-5})
    bad_params = P.derive_constants(1.0, 0.002, 0.01, 2, t0=8.0)
    with pytest.raises(P.AdmissibilityError):
        S.picard_solve(good_spec, bad_params, 0.0, tg, phase)
    params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
    with pytest.raises(HypothesisError, match="mean density"):
        S.picard_solve(make_spec({1: 1e-5}), params, 0.0, tg, phase)
    with pytest.raises(HypothesisError, match="not resolved"):
        S.picard_solve(make_spec({0: 8e-5, 8: 1e-6}), params, 0.0, tg, phase)
    with pytest.raises(HypothesisError):
        S.picard_solve(make_spec({0: 1.0}), params, 0.0, tg, phase)


def test_homogeneous_profile_fixed_point_in_one_iteration():
    # a pure k=0 profile maps every field history to 0, so the pass ends
    # at E = 0 and the contraction quotient is undefined
    spec = make_spec({0: 8e-5})
    params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
    tg, phase = small_grids()
    r = S.picard_solve(spec, params, 0.0, tg, phase)
    assert r.converged and r.residual_norm == 0.0
    assert np.all(r.field.values == 0.0)
    assert "contraction_ratio" not in r.checks


def test_the_only_characteristics_solve_is_the_certifying_one(monkeypatch):
    # the pass solves the characteristics as it goes; the one certifying
    # march of the characteristics is along its field, and that field's
    # row at t_end, where no displacement is left, is the free-flight field
    calls = []
    real = S._march

    def counted(E, *args, **kwargs):
        calls.append(E)
        return real(E, *args, **kwargs)

    monkeypatch.setattr(S, "_march", counted)
    spec = make_spec({0: 8e-5, 1: 1e-5})
    params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
    tg, phase = small_grids()
    r = S.picard_solve(spec, params, 0.0, tg, phase)
    assert len(calls) == 1 and calls[0] is r.field
    free = S.field_map_zero(spec, 0.0, tg, phase.xgrid)
    assert np.array_equal(r.field.values[-1], free.values[-1])
    assert not np.array_equal(r.field.values[0], free.values[0])


def test_picard_solve_makes_two_marches(monkeypatch):
    # the field pass, and the certifying characteristics, which solve the
    # label derivatives in the same march: two kernels.suffix_pass calls
    shapes = []
    real = K.suffix_pass

    def counted(integrand, shape, dt):
        shapes.append(shape)
        return real(integrand, shape, dt)

    monkeypatch.setattr(K, "suffix_pass", counted)
    spec = make_spec({0: 8e-5, 1: 1e-5})
    params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
    tg, phase = small_grids()
    S.picard_solve(spec, params, 0.0, tg, phase)
    npart = phase.xgrid.n * phase.nv
    assert shapes == [(len(tg), npart), (len(tg), 3, npart)]


@pytest.mark.parametrize("order", [2, 3])
def test_solve_tangent_makes_two_range_reductions_per_row(monkeypatch,
                                                          order):
    # one density call on the stacked weights and one evaluation call on
    # the stacked mode rows per time row: two kernels._taylor_rows calls
    spec, result = _tangent_solve(LINEAR_Z, K=order)
    calls = []
    real = K._taylor_rows

    def counted(*args):
        calls.append(args[0].shape)
        return real(*args)

    traj = H.characteristics(result)
    monkeypatch.setattr(K, "_taylor_rows", counted)
    H.solve_tangent(spec, result, traj)
    assert len(calls) == 2 * len(result.field.tgrid)
    assert set(calls) == {(1, result.phase.xgrid.n * result.phase.nv)}


# ---------------------------------------------------------------------------
# the field pass against its oracles
# ---------------------------------------------------------------------------

LINEAR_Z = {0: 8e-5, 1: (1e-5, 3e-6)}


@pytest.fixture(scope="module")
def coarse_case():
    """(spec, solve, tangent solve) at z = 0 on the grids of the
    uq-coarse benchmark, 32 x 65 x 88."""
    spec = make_spec(LINEAR_Z)
    params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
    tg, phase = small_grids(nx=32, nv=65, t0=8.0, t_end=43.0, steps=87)
    result = S.picard_solve(spec, params, 0.0, tg, phase)
    return spec, result, H.solve_tangent(spec, result)


def _wnorm(table, values=None):
    return F.weighted_norm(table if values is None
                           else table.with_values(values), 1.0).value


@pytest.mark.parametrize("case", ["reference", "coarse"])
def test_field_pass_is_a_fixed_point_of_one_more_map(case, request):
    if case == "reference":
        spec, r = request.getfixturevalue("ref_spec"), \
            request.getfixturevalue("ref_solve")
    else:
        spec, r, _ = request.getfixturevalue("coarse_case")
    E = r.field
    again = H.apply_field_map(E, spec, 0.0, r.phase, a=r.params.a)
    assert _wnorm(E, again.values - E.values) <= 1e-14 * _wnorm(E)


def test_field_pass_matches_the_picard_iteration(coarse_case):
    # four maps after the image of 0 contract the iteration's error by
    # about (7e-5)^4, far below rounding
    spec, r, _ = coarse_case
    E = r.field
    old = H.picard_iterate(spec, 0.0, E.tgrid, r.phase, maps=4)
    assert _wnorm(E, old.values - E.values) <= 1e-14 * _wnorm(E)


def test_field_pass_matches_an_mpmath_march():
    # a strong profile on 8 x 5 x 12 grids, outside the hypotheses: the
    # correction is 68 % of the field and the three earliest rows are
    # reduced onto the grid; the march in mpmath at 30 digits, with its
    # direct Fourier sums, is the oracle
    spec = make_spec({0: 0.3, 1: 0.3, 2: 0.2})
    tg, phase = small_grids(nx=8, nv=5, t0=0.5, t_end=6.0, steps=11,
                            v_max=3.0)
    E, free = S._field_pass(spec, 0.0, tg, phase)
    want = H.mp_field_march(spec, 0.0, tg, phase)
    assert np.abs(E.values - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(E.values - free.values).max() >= 0.5 * np.abs(want).max()
    # the field is too large for solve_characteristics' precondition, so
    # its displacements come from the pass's recurrence directly
    x, v, _ = S._flat_labels(phase)
    nk = phase.xgrid.n // 2 + 1
    c = E.coefficients()
    phases = K.phase_rows(phase.v, tg.times, nk)
    g = np.empty((len(tg), x.shape[0]))

    def along(n, dX_n):
        K.eval_block(g[n:n + 1], c[n:n + 1], dX_n[None, :], phases[n:n + 1])
        return g[n]

    dX = H.suffix_tables(along, g.shape, tg.dt)[1]
    radius = (phase.xgrid.n // 2) * np.abs(dX).max(axis=1)
    assert (radius > math.pi / 2).sum() == 3


# ---------------------------------------------------------------------------
# z-derivatives of the fixed point: the tangent solve
# ---------------------------------------------------------------------------


def _tangent_solve(modes, K=2, z=0.0):
    """(spec, result): a solve on 32 x 65 x 88 grids (those of the
    uq-coarse benchmark, from t0 = 4K if that is later than 8, as A2
    asks)."""
    spec = make_spec(modes)
    t0 = max(8.0, 4.0 * K)
    params = P.derive_constants(1.0, 0.002, 0.002, K, t0=t0)
    tg, phase = small_grids(nx=32, nv=65, t0=t0, t_end=43.0, steps=87)
    return spec, S.picard_solve(spec, params, z, tg, phase)


def _tangent_case(modes, K=2, z=0.0):
    """_tangent_solve's solve and its tangent solve."""
    spec, result = _tangent_solve(modes, K, z)
    return (spec, result.params, result.field.tgrid, result.phase,
            H.solve_tangent(spec, result))


@pytest.fixture(scope="module")
def linear_tangent():
    return _tangent_case(LINEAR_Z)


@pytest.fixture(scope="module")
def strong_tangent(strong_traj):
    """The tangent solve of LINEAR_Z along the strong field's trajectories,
    whose rows are reduced onto the grid (spec, result, tangent)."""
    E, traj = strong_traj
    spec = make_spec(LINEAR_Z)
    params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
    tg, phase = small_grids()
    result = dataclasses.replace(
        S.picard_solve(spec, params, 0.0, tg, phase), field=E)
    return spec, result, H.solve_tangent(spec, result, traj)


@pytest.fixture(scope="module")
def strong_tangent_k3():
    """strong_tangent at K = 3, from t0 = 12 as A2 asks.  Order j scales
    as the j-th power of the z-slope, so a steeper profile alone leaves
    the size of the m = 3 terms against the others as it is; the strong
    field's displacements make E_0^(3)(X0) X_1^3 / 3! in R_3 and the
    k^3 X_1^3 / 3! term of the density sum show (spec, result, tangent)."""
    phase, E = _strong_case(t0=12.0)
    spec = make_spec(LINEAR_Z)
    params = P.derive_constants(1.0, 0.002, 0.002, 3, t0=12.0)
    result = dataclasses.replace(
        S.picard_solve(spec, params, 0.0, E.tgrid, phase), field=E)
    return spec, result, H.solve_tangent(spec, result)


@pytest.mark.parametrize("case", ["coarse_case", "strong_tangent"])
def test_tangent_pass_is_a_fixed_point_of_one_more_map(case, request):
    spec, result, taylor = request.getfixturevalue(case)
    tables = [e.values for e in taylor.fields]
    E0 = result.field
    traj = H.characteristics(result)
    for j in range(1, len(tables) + 1):
        again = H.tangent_map(spec, result, traj, tables[:j])
        assert _wnorm(E0, again - tables[j - 1]) \
            <= 1e-14 * _wnorm(E0, tables[j - 1]), j


def test_tangent_pass_matches_the_tangent_iteration(coarse_case):
    spec, result, taylor = coarse_case
    old = H.tangent_iterate(spec, result, H.characteristics(result), maps=4)
    E0 = result.field
    for k, (ek, want) in enumerate(zip(taylor.fields, old), 1):
        assert _wnorm(E0, ek.values - want) <= 1e-14 * _wnorm(E0, want), k


@pytest.mark.parametrize("case", [
    "coarse_case", "strong_tangent", "strong_tangent_k3",
    ({0: 8e-5, 1: (1e-5, 2e-6, 1e-6, 5e-7)}, 3, 0.0),
    ({0: 8e-5, 1: (1e-5, 3e-6), 2: (2e-6, 1e-6, 4e-7)}, 3, 0.37),
], ids=["coarse", "strong", "strong-K3", "cubic-K3", "k2-mode-K3-z0.37"])
def test_tangent_pass_equals_the_per_order_passes_bitwise(case, request):
    # one pass over every order against one pass per order on whole
    # tables: the fields, values and bounds are the same doubles
    if isinstance(case, str):
        spec, result, taylor = request.getfixturevalue(case)
    else:
        spec, result = _tangent_solve(*case)
        taylor = H.solve_tangent(spec, result)
    vals, checks = H.tangent_by_orders(spec, result, H.characteristics(result))
    assert len(taylor.fields) == len(vals) == result.params.K
    for got, want in zip(taylor.fields, vals):
        assert np.array_equal(got.values, want)
    assert {n: (c.value, c.bound) for n, c in taylor.checks.items()} \
        == {n: (c.value, c.bound) for n, c in checks.items()}


def test_solve_tangent_memory_budget(coarse_case):
    # the pass keeps rows of the K orders, not tables: the traced peak of
    # the tangent solve on the uq-coarse grids with K = 2, with the caches
    # warm, stays within 1.5 (nt, P) tables
    spec, result, _ = coarse_case
    assert result.params.K == 2
    phase = result.phase
    table = 8 * len(result.field.tgrid) * phase.xgrid.n * phase.nv
    traj = H.characteristics(result)
    H.solve_tangent(spec, result, traj)             # the caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        H.solve_tangent(spec, result, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 1.5 * table, (peak - start) / table


def _node_fields(spec, params, tg, phase, nodes):
    return np.stack([S.picard_solve(spec, params, float(z), tg,
                                    phase).field.values for z in nodes])


def test_tangent_first_order_matches_central_differences(linear_tangent):
    spec, params, tg, phase, taylor = linear_tangent
    e1 = taylor.fields[0]
    assert _wnorm(e1) == pytest.approx(2.4e-5, rel=1e-12)
    for h in (0.05, 0.025):
        plus, minus = _node_fields(spec, params, tg, phase, (h, -h))
        err = _wnorm(e1, (plus - minus) / (2.0 * h) - e1.values)
        assert err <= 1e-11 * _wnorm(e1), h


def test_tangent_second_order_matches_the_interpolant(linear_tangent):
    spec, params, tg, phase, taylor = linear_tangent
    nodes, _ = U.gauss_legendre_nodes(5)
    stack = _node_fields(spec, params, tg, phase, nodes)
    for k, ek in enumerate(taylor.fields, 1):
        exact = math.factorial(k) * ek.values
        fd = H.collocation_derivative(nodes, stack, k)
        assert _wnorm(ek, fd - exact) <= 1e-7 * _wnorm(ek, exact), k


def test_tangent_certificates(linear_tangent):
    # each order's norm against its forcing's over 1 - L; here the
    # unknown's own term is small, so the forcing is most of E_k
    _, params, _, _, taylor = linear_tangent
    assert set(taylor.checks) == {"z_deriv_1_tangent", "z_deriv_2_tangent"}
    lip = 88 * params.a2 / (params.a ** 2 - 80 * params.a2)
    for k, ek in enumerate(taylor.fields, 1):
        c = taylor.checks[f"z_deriv_{k}_tangent"]
        assert c.value == math.factorial(k) * _wnorm(ek)
        assert c.passed
        assert (1.0 - lip) * c.bound == pytest.approx(c.value, rel=1e-6)


def test_tangent_of_a_z_independent_profile_vanishes():
    _, _, _, _, taylor = _tangent_case({0: 8e-5, 1: 1e-5})
    assert len(taylor.fields) == 2
    for ek in taylor.fields:
        assert np.all(ek.values == 0.0)
    for c in taylor.checks.values():
        assert (c.value, c.bound, c.passed) == (0.0, 0.0, True)


def test_tangent_orders_follow_K(linear_tangent):
    # K = 1 stops after the first order, which is the K = 2 one bitwise;
    # K = 3 of a cubic amplitude matches the interpolant through 7 nodes
    _, _, _, _, taylor2 = linear_tangent
    _, _, _, _, taylor1 = _tangent_case(LINEAR_Z, K=1)
    assert set(taylor1.checks) == {"z_deriv_1_tangent"}
    assert np.array_equal(taylor1.fields[0].values, taylor2.fields[0].values)

    cubic = {0: 8e-5, 1: (1e-5, 2e-6, 1e-6, 5e-7)}
    spec, params, tg, phase, taylor3 = _tangent_case(cubic, K=3)
    assert len(taylor3.fields) == 3
    assert all(c.passed for c in taylor3.checks.values())
    nodes, _ = U.gauss_legendre_nodes(7)
    stack = _node_fields(spec, params, tg, phase, nodes)
    for k, ek in enumerate(taylor3.fields, 1):
        exact = math.factorial(k) * ek.values
        fd = H.collocation_derivative(nodes, stack, k)
        assert _wnorm(ek, fd - exact) <= 1e-9 * _wnorm(ek, exact), k


def test_trajectory_coefficients_match_central_differences():
    # strong prescribed fields E(z) = E_0 + z E_1 + z^2 E_2, with
    # displacements near 0.1, so that every term of the forcings R_2 and
    # R_3 shows (E_0''(X0) X_1^2 / 2 and E_0'''(X0) X_1^3 / 3! among
    # them): the Taylor coefficients X_1, X_2, X_3 of the characteristics
    # against central differences in z of full solves
    tg, phase = small_grids()
    xg = phase.xgrid
    E = _strong_fields(tg, xg)
    x = np.repeat(xg.points, phase.nv)
    v = np.tile(phase.v, xg.n)
    nt = len(tg)

    def dX(z):
        Ez = E[0].with_values(E[0].values + z * E[1].values
                              + z * z * E[2].values)
        return S.solve_characteristics(Ez, phase, a=1.0).dX.reshape(nt, -1)

    dX0 = dX(0.0)
    g = H.along(F.spectral_dx(E[0]), x, v, dX0)
    X = []
    for j in (1, 2, 3):
        R = H.trajectory_forcing(E[:j], X, x, v, dX0)
        if j < len(E):              # E_3 = 0
            R += H.along(E[j], x, v, dX0)
        X.append(H.suffix_volterra(g, R, tg.dt)[1])
    h = 1e-3
    plus, minus = dX(h), dX(-h)
    fd = ((plus - minus) / (2 * h), (plus + minus - 2 * dX0) / (2 * h * h))
    for k in (0, 1):     # central-difference error h^2 X_3, X_4 ~ 1e-8
        assert np.abs(fd[k] - X[k]).max() <= 1e-6 * np.abs(X[k]).max(), k
    # the five-point third difference, error 5 h^2 X_5, about 1e-6 of X_3
    # here; the E_0''' term alone moves X_3 by 7e-4 of it
    h = 2e-3
    fd3 = (dX(2 * h) - 2 * dX(h) + 2 * dX(-h) - dX(-2 * h)) / (12 * h ** 3)
    assert np.abs(fd3 - X[2]).max() <= 1e-5 * np.abs(X[2]).max()


# ---------------------------------------------------------------------------
# weighted product estimate
# ---------------------------------------------------------------------------

def _times():
    return np.linspace(1.0, 10.0, 91)     # includes t = 2.0 exactly


def test_product_bound_two_exponentials_saturates():
    a, t0 = 1.0, 8.0
    ts = np.linspace(t0, 20.0, 121)
    f = np.exp(-a * ts)
    rep = H.check_nonlinear_norm_product(ts, [(f, 0), (f, 0)], k=0, a=a,
                                         t0=t0)
    assert rep.case == "t0"
    assert rep.constant == pytest.approx(math.exp(-a * t0), rel=1e-14)
    assert rep.factor_norms == pytest.approx((1.0, 1.0), rel=1e-12)
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)   # equality case
    assert rep.passed


def test_product_bound_mixed_moments():
    a, t0 = 1.0, 8.0
    ts = np.linspace(t0, 20.0, 121)
    f1 = ts * np.exp(-a * ts)
    f2 = np.exp(-a * ts)
    rep = H.check_nonlinear_norm_product(ts, [(f1, 1), (f2, 0)], k=1, a=a,
                                         t0=t0)
    assert rep.case == "t0" and rep.passed
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)


def test_product_bound_interior_peak_case():
    # sum k_i - k = 2 with (n-1) a = 1 peaks at t1 = 2 > t0 = 1
    a, t0 = 1.0, 1.0
    ts = _times()
    f = ts * np.exp(-a * ts)
    rep = H.check_nonlinear_norm_product(ts, [(f, 1), (f, 1)], k=0, a=a,
                                         t0=t0)
    assert rep.case == "t1"
    assert rep.constant == pytest.approx(4.0 * math.exp(-2.0), rel=1e-14)
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)
    assert rep.passed


def test_product_bound_validation():
    ts = _times()
    f = np.exp(-ts)
    with pytest.raises(ValueError, match="two factors"):
        H.check_nonlinear_norm_product(ts, [(f, 0)], k=0, a=1.0, t0=1.0)
    with pytest.raises(ValueError, match="exceeds"):
        H.check_nonlinear_norm_product(ts, [(f, 0), (f, 0)], k=1, a=1.0,
                                       t0=1.0)
