"""Quadrature, differentiation stencils, spectral projection, and the
ensemble machinery, checked against polynomial and closed-form oracles."""

import faulthandler
import math
import multiprocessing
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg

import helpers as H
from helpers import make_spec, resolved_corollary_survey, small_grids
from vlandau import fields as F
from vlandau import params as P
from vlandau import scattering as S
from vlandau import uq as U
from vlandau.params import BoundCheck
from vlandau.profiles import Amplitude, Mode, shifted_difference


# ---------------------------------------------------------------------------
# quadrature and stencils
# ---------------------------------------------------------------------------

def test_gauss_legendre_nodes_basic():
    for n in (1, 2, 5, 9, 13):
        z, w = U.gauss_legendre_nodes(n)
        assert z.shape == w.shape == (n,)
        assert np.all(np.diff(z) > 0)
        assert np.allclose(z, -z[::-1], atol=1e-15)      # symmetric
        assert w.sum() == pytest.approx(2.0, rel=1e-14)
        # degree exactness: integrates z^k over [-1, 1] for k <= 2n-1
        for k in range(2 * n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert np.dot(w, z ** k) == pytest.approx(exact, abs=1e-14)
    with pytest.raises(ValueError):
        U.gauss_legendre_nodes(0)


def test_fd_weights_classical_stencils():
    w = U.fd_weights(np.array([-1.0, 0.0, 1.0]), 0.0, 2)
    assert np.allclose(w[0], [0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(w[1], [-0.5, 0.0, 0.5], atol=1e-15)
    assert np.allclose(w[2], [1.0, -2.0, 1.0], atol=1e-14)
    w5 = U.fd_weights(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), 0.0, 1)
    assert np.allclose(w5[1], np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
                       atol=1e-14)


def test_fd_weights_scaling_and_polynomial_exactness():
    rng = np.random.default_rng(7)
    nodes = np.sort(rng.uniform(-1.0, 1.0, 6))
    x0 = 0.13
    w = U.fd_weights(nodes, x0, 3)
    # exact for every polynomial of degree < n
    for deg in range(6):
        c = rng.standard_normal(deg + 1)
        p = np.polynomial.Polynomial(c)
        for k in range(4):
            assert np.dot(w[k], p(nodes)) == pytest.approx(
                p.deriv(k)(x0) if k else p(x0), abs=1e-10)
    # h-scaling: first-derivative weights scale like 1/h
    h = 0.01
    wh = U.fd_weights(nodes * h, x0 * h, 1)
    assert np.allclose(wh[1], w[1] / h, rtol=1e-9)


def test_collocation_derivative_polynomial_exactness():
    nodes, _ = U.gauss_legendre_nodes(7)
    vals = 2.0 - nodes + 3.0 * nodes ** 3          # p(z), p'(0) = -1
    assert H.collocation_derivative(nodes, vals, 0) == pytest.approx(2.0)
    assert H.collocation_derivative(nodes, vals, 1) == pytest.approx(
        -1.0, abs=1e-12)
    assert H.collocation_derivative(nodes, vals, 2) == pytest.approx(
        0.0, abs=1e-11)
    assert H.collocation_derivative(nodes, vals, 3) == pytest.approx(
        18.0, rel=1e-11)
    assert H.collocation_derivative(nodes, vals, 1, at=0.5) == pytest.approx(
        -1.0 + 9.0 * 0.25, rel=1e-11)
    # array-valued samples broadcast over trailing axes
    stack = np.stack([vals, 2 * vals], axis=1)
    out = H.collocation_derivative(nodes, stack, 1)
    assert out.shape == (2,)
    assert out[1] == pytest.approx(2 * out[0], rel=1e-13)


# ---------------------------------------------------------------------------
# spectral projection on node-major stacks
# ---------------------------------------------------------------------------

def test_project_stack_recovers_legendre_coefficients():
    n = 6
    nodes, weights = U.gauss_legendre_nodes(n)
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 3))
    # f(z) = (1 + 0.5 z - 0.25 z^2) g with known Legendre expansion
    poly_c = np.array([1.0, 0.5, -0.25])
    leg_c = npleg.poly2leg(poly_c)                  # ordinary Legendre
    vals = npleg.legval(nodes, leg_c)
    stack = vals[:, None, None] * g[None]
    coeffs = U.project_stack(nodes, weights, stack)
    assert coeffs.shape == (n, 4, 3)
    # orthonormal convention: coefficient m = leg_c[m] / sqrt(2m+1)... with
    # the basis sqrt(2m+1) P_m the projection of P_m is 1/sqrt(2m+1)
    for m in range(n):
        c_m = leg_c[m] / math.sqrt(2 * m + 1) if m < len(leg_c) else 0.0
        assert np.allclose(coeffs[m], c_m * g, atol=1e-14)
    # Parseval: sum of squared coefficients = (1/2) int f^2 over the cell
    zz = np.linspace(-1, 1, 20001)
    f2 = npleg.legval(zz, leg_c) ** 2
    assert np.sum(coeffs[:, 0, 0] ** 2) == pytest.approx(
        0.5 * np.trapezoid(f2, zz) * g[0, 0] ** 2, rel=1e-7)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def _small_setup(modes=None):
    spec = make_spec(modes or {0: 8e-5, 1: 1e-5})
    params = P.derive_constants(1.0, 0.002, 0.002, 2, t0=8.0)
    tg, phase = small_grids(nx=32, nv=65, t_end=24.0, steps=80)
    return spec, params, tg, phase


@pytest.fixture(scope="module")
def zind_small():
    spec, params, tg, phase = _small_setup()
    return U.run_collocation(spec, params, tg, phase, n_z=5)


def _max_abs(table):
    return float(np.abs(table).max())


def _survey_norms(nodes, K, tables, norm=_max_abs):
    """_z_survey with norm applied to its derivative tables as well."""
    node_norms, sums, floors = U._z_survey(nodes, K, tables, norm)
    return node_norms, tuple(map(norm, sums)), floors


def test_z_derivative_polynomial_exactness(zind_small):
    n = 7
    nodes, _ = U.gauss_legendre_nodes(n)
    g = np.random.default_rng(5).standard_normal(
        zind_small.results[0].field.values.shape)
    p = np.polynomial.Polynomial([0.3, -1.2, 0.0, 2.0])   # cubic
    _, norms, _ = _survey_norms(nodes, 3, (p(z) * g for z in nodes))
    for k in range(4):
        want = abs(p.deriv(k)(0.0) if k else p(0.0)) * _max_abs(g)
        assert np.isclose(norms[k], want, atol=1e-11)


def test_z_derivative_of_smooth_function(zind_small):
    nodes, _ = U.gauss_legendre_nodes(11)
    ones = np.ones(zind_small.results[0].field.values.shape)
    _, norms, _ = _survey_norms(nodes, 2, (np.exp(0.4 * z) * ones
                                           for z in nodes))
    assert norms[1] == pytest.approx(0.4, rel=1e-9)
    assert norms[2] == pytest.approx(0.16, rel=1e-7)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 13), data=st.data())
def test_z_derivative_matches_polynomial_derivatives(zind_small, n, data):
    # the interpolant through n Gauss nodes reproduces a polynomial of
    # degree < n, so each derivative at 0 is the polynomial's own; the
    # survey stops at order n - 2 whatever K asks for
    coeff = st.floats(-10.0, 10.0, allow_subnormal=False)
    coeffs = data.draw(st.lists(coeff, min_size=1, max_size=n),
                       label="coefficients")
    K = data.draw(st.integers(0, n + 2), label="K")
    p = np.polynomial.Polynomial(coeffs)
    nodes, _ = U.gauss_legendre_nodes(n)
    e0 = zind_small.results[0].field.values
    g = e0 / np.abs(e0).max()
    node_norms, norms, floors = _survey_norms(
        nodes, K, (p(z) * g for z in nodes))
    k_max = min(K, n - 2)
    assert len(norms) == k_max + 1 and set(floors) == set(range(1, k_max + 1))
    assert node_norms == tuple(np.abs(p(nodes)))
    scale = np.abs(p(nodes)).max()
    for k in range(k_max + 1):
        w = U.fd_weights(nodes, 0.0, k)[k]
        err = abs(norms[k] - abs(p.deriv(k)(0.0)))
        assert err <= 1e-12 * np.abs(w).sum() * scale, (n, k)
        if k:
            assert floors[k] == scale * U.roundoff_floor(w)


@pytest.mark.parametrize("name", ["ens9"])
def test_theorem_norms_match_the_interpolant_oracle(request, name, ref_spec):
    # the tangent's norms against the oracle's weight row applied to the
    # whole field stack at once, and the streamed survey's resolution
    # values against the oracle's distance from the tangent, within the
    # survey's floor; at k = 0 the norm is the node z = 0's own, which the
    # oracle's row picks with weight 1 + 2^-52 on nine nodes.  For k >= 1
    # the oracle takes the free-flight part of each node field
    # (field_map_zero, linear in the amplitudes, here of degree 1 in z) in
    # closed form, field_map_zero of the k-th z-derivative of the profile,
    # which the row reproduces up to rounding: the row amplifies that
    # rounding to 1.5e-18, 2.4e-7 of the k = 2 norm
    ens = request.getfixturevalue(name)
    rep = U.check_theorem_bounds(ens)
    table, a = ens.results[0].field, ens.params.a
    stack = ens.field_stack()
    spec, tg, xg = ref_spec, table.tgrid, table.xgrid
    free = np.stack([S.field_map_zero(spec, z, tg, xg).values
                     for z in ens.nodes])
    assert len(rep.norms) == 3
    for k, norm in enumerate(rep.norms):
        if k == 0:
            oracle = H.collocation_derivative(ens.nodes, stack, k)
            want = F.weighted_norm(table.with_values(oracle), a).value
            zero = ens.results[ens.nodes.index(0.0)].field
            assert norm == F.weighted_norm(zero, a).value
            assert abs(norm - want) <= 2 * np.finfo(float).eps * norm
            continue
        spec = spec.z_derivative()
        oracle = H.collocation_derivative(ens.nodes, stack - free, k) \
            + S.field_map_zero(spec, 0.0, tg, xg).values
        want = F.weighted_norm(table.with_values(oracle), a).value
        assert abs(norm - want) <= 1e-7 * norm, k
        exact = math.factorial(k) * ens.taylor.fields[k - 1].values
        dist = F.weighted_norm(table.with_values(oracle - exact), a).value
        value = rep.checks[f"z_deriv_{k}_resolution"].value
        assert abs(value - dist) <= rep.floors[k], k


def test_z_independent_ensemble_fields_identical(zind_small):
    ens = zind_small
    assert ens.n_nodes == 5
    stack = ens.field_stack()
    for j in range(1, 5):
        assert np.array_equal(stack[j], stack[0])


def test_z_independent_gpc_modes_vanish(zind_small):
    table = U.gpc_coefficients(zind_small)
    mags = table.mode_magnitudes()
    assert mags[0] > 0
    assert max(mags[1:]) <= 1e-12 * mags[0]


def test_z_independent_derivatives_vanish(zind_small):
    nodes, stack = np.asarray(zind_small.nodes), zind_small.field_stack()
    scale = np.abs(stack[0]).max()
    for k in (1, 2, 3):
        d = H.collocation_derivative(nodes, stack, k)
        assert np.abs(d).max() <= 1e-12 * max(scale, 1e-30)
    near = np.sort(np.argsort(np.abs(nodes))[:5])
    fd = H.collocation_derivative(nodes[near], stack[near], 1)
    assert np.abs(fd).max() <= 1e-10 * max(scale, 1e-30)


def test_z_dependent_ensemble_linear_mode():
    # c1(z) = 1e-5 + 3e-6 z: fields vary over z and the interpolant's
    # first derivative must agree with the nearest-node estimate
    spec, params, tg, phase = _small_setup({0: 8e-5, 1: (1e-5, 3e-6)})
    ens = U.run_collocation(spec, params, tg, phase, n_z=7)
    nodes, stack = np.asarray(ens.nodes), ens.field_stack()
    assert np.abs(stack[-1] - stack[0]).max() > 0
    d_full = H.collocation_derivative(nodes, stack, 1)
    near = np.sort(np.argsort(np.abs(nodes))[:5])
    d_fd = H.collocation_derivative(nodes[near], stack[near], 1)
    scale = np.abs(d_full).max()
    assert scale > 0
    assert np.abs(d_full - d_fd).max() <= 1e-6 * scale


def test_z_derivative_order_limits(zind_small):
    # k = 0 is the plain value; it must match the reconstruction at z = 0
    nodes = zind_small.nodes
    fields = [r.field.values for r in zind_small.results]
    _, norms, floors = _survey_norms(nodes, 4, iter(fields))
    recon = H.gpc_reconstruct(U.gpc_coefficients(zind_small), 0.0)
    assert np.isclose(norms[0], _max_abs(recon), atol=1e-18)
    # order 4 needs 6 nodes: five stop at order n_z - 2 = 3
    assert len(norms) == 4 and set(floors) == {1, 2, 3}
    # a single node reaches no order at all (n_z - 2 = -1)
    assert _survey_norms(nodes[:1], 2, iter(fields[:1]))[1:] == ((), {})


def test_collocation_error_carries_node_context(monkeypatch):
    # a field that is not finite fails the first node's solve
    real = S.field_map_zero

    def spoiled(*args):
        table = real(*args)
        values = table.values.copy()
        values[-1, 1] = math.nan
        return table.with_values(values)

    monkeypatch.setattr(S, "field_map_zero", spoiled)
    spec, params, tg, phase = _small_setup()
    with pytest.raises(U.CollocationError) as exc:
        U.run_collocation(spec, params, tg, phase, n_z=3)
    err = exc.value
    assert err.node_index == 0
    nodes, _ = U.gauss_legendre_nodes(3)
    assert err.z == pytest.approx(nodes[0])
    assert isinstance(err.cause, S.ConvergenceError)
    assert "node 0" in str(err)


def test_collocation_rejects_a_grid_not_starting_at_params_t0():
    spec, params, _, phase = _small_setup()
    tg = F.TimeGrid(9.0, 24.0, 80)
    with pytest.raises(U.CollocationError) as exc:
        U.run_collocation(spec, params, tg, phase, n_z=3)
    err = exc.value
    assert err.node_index == 0
    assert type(err.cause) is ValueError
    assert "not at params.t0 = 8.0" in str(err.cause)


def test_ensemble_validation(zind_small):
    ens = zind_small
    with pytest.raises(ValueError, match="align"):
        U.ZEnsemble(ens.nodes[:-1], ens.weights, ens.results, ens.corollary,
                    ens.taylor)
    with pytest.raises(ValueError, match="strictly increasing"):
        U.ZEnsemble(ens.nodes[::-1], ens.weights, ens.results,
                    ens.corollary, ens.taylor)
    # zind_small solved on nx 32, nv 65, v_max 6: a node solved on any
    # other grid, with every other setting equal, is not its node
    spec, params, tg, _ = _small_setup()
    for nx, nv, v_max in ((16, 65, 6.0), (32, 33, 6.0), (32, 65, 3.0)):
        phase = small_grids(nx=nx, nv=nv, t_end=24.0, steps=80,
                            v_max=v_max)[1]
        mixed = list(ens.results)
        mixed[2] = S.picard_solve(spec, params, 0.0, tg, phase)
        with pytest.raises(ValueError, match="differing grids"):
            U.ZEnsemble(ens.nodes, ens.weights, mixed, ens.corollary,
                        ens.taylor)


def test_gpc_table_reconstruct_and_decay(zind_small):
    table = U.gpc_coefficients(zind_small)
    # reconstruction at the collocation nodes reproduces the solves
    stack = zind_small.field_stack()
    recon = H.gpc_reconstruct(table, zind_small.nodes[3])
    assert np.allclose(recon, stack[3], atol=1e-15)
    # synthetic geometric decay in a hand-built table
    nodes, weights = U.gauss_legendre_nodes(6)
    mags = 0.5 ** np.arange(6)
    coeffs = mags[:, None, None] * np.ones((6, 2, 2))
    synth = U.GpcTable(nodes, coeffs, zind_small.tgrid,
                       np.array([0.0, 1.0]))
    assert synth.mode_magnitudes() == pytest.approx(mags, rel=1e-12)
    assert synth.decay_rate() == pytest.approx(math.log10(0.5), rel=1e-6)


# ---------------------------------------------------------------------------
# theorem / corollary report plumbing on small ensembles
# ---------------------------------------------------------------------------

def test_theorem_report_z_independent(zind_small):
    # the tangent of a z-independent profile is exactly 0, so are its
    # certificates, and the interpolant's derivatives sit within their
    # roundoff floors
    rep = U.check_theorem_bounds(zind_small)
    assert len(rep.norms) == 3 and rep.norms[0] > 0
    assert rep.norms[1:] == (0.0, 0.0)
    assert set(rep.checks) == {"z_deriv_1_tangent", "z_deriv_2_tangent",
                               "z_deriv_1_resolution",
                               "z_deriv_2_resolution"}
    for k in (1, 2):
        tangent = rep.checks[f"z_deriv_{k}_tangent"]
        assert (tangent.value, tangent.bound) == (0.0, 0.0)
        assert rep.checks[f"z_deriv_{k}_resolution"].bound == rep.floors[k]
    assert rep.passed
    d = rep.as_dict()
    assert d["passed"] is True and len(d["norms"]) == 3


def test_theorem_report_records_floors(zind_small):
    # the report carries the floor each resolution check was judged
    # against; node values that agree have interpolant derivatives within it
    rep = U.check_theorem_bounds(zind_small)
    assert set(rep.floors) == {1, 2}
    for k in (1, 2):
        res = rep.checks[f"z_deriv_{k}_resolution"]
        assert 0.0 < res.value <= rep.floors[k]
    assert rep.floors[2] > rep.floors[1]
    d = rep.as_dict()
    assert d["floors"] == {"1": rep.floors[1], "2": rep.floors[2]}


def test_theorem_report_needs_the_node_zero():
    spec, params, tg, phase = _small_setup(ZDEP_MODES)
    ens = U.run_collocation(spec, params, tg, phase, n_z=2)
    assert ens.taylor is None
    with pytest.raises(ValueError, match="z = 0 as a node"):
        U.check_theorem_bounds(ens)


def test_collocation_at_order_zero_reports_the_field_alone():
    # K = 0 asks for no z-derivative: the tangent solve has no order to
    # solve, and the theorem report holds the norm of the field only
    spec, _, tg, phase = _small_setup()
    params = P.derive_constants(1.0, 0.002, 0.002, 0, t0=8.0)
    ens = U.run_collocation(spec, params, tg, phase, n_z=3)
    assert ens.taylor.fields == () and ens.taylor.checks == {}
    rep = U.check_theorem_bounds(ens)
    assert len(rep.norms) == 1
    assert rep.norms[0] == pytest.approx(8e-5, rel=1e-9)
    assert rep.checks == {} and rep.passed


def test_theorem_report_fails_an_underresolved_interpolant():
    # c1 = 1e-5 + 6e-7 sin 5z: c1'(0) = 3e-6 as for the linear profile, so
    # the tangent is 2.4e-5, but five nodes cannot resolve sin 5z and the
    # interpolant's first derivative falls far off it
    spec, params, tg, phase = _small_setup({0: 8e-5})
    sin5z = Amplitude("trig", (1e-5,) + (0.0,) * 9 + (6e-7,))
    spec = replace(spec, modes=spec.modes + (Mode(1, sin5z),))
    rep = U.check_theorem_bounds(U.run_collocation(spec, params, tg, phase,
                                                   n_z=5))
    assert rep.norms[1] == pytest.approx(2.4e-5, rel=1e-9)
    assert rep.checks["z_deriv_1_tangent"].passed
    assert not rep.checks["z_deriv_1_resolution"].passed
    assert not rep.passed


def test_roundoff_floor_bounds_node_identical_stacks(zind_small):
    # node values that agree have exactly zero z-derivatives, so the
    # survey's derivatives, the oracle's and the nearest-node differences
    # are pure roundoff and must stay within their floors, at every node
    # count and order the reports can use
    rng = np.random.default_rng(3)
    shape = zind_small.results[0].field.values.shape
    for n in range(3, 14):
        nodes, _ = U.gauss_legendre_nodes(n)
        ks = range(1, n - 1)
        near = {k: np.sort(np.argsort(np.abs(nodes))[:max(5, k + 1)])
                for k in ks}
        full_floor = {k: U.roundoff_floor(U.fd_weights(nodes, 0.0, k)[k])
                      for k in ks}
        fd_floor = {k: U.roundoff_floor(U.fd_weights(nodes[near[k]], 0.0,
                                                     k)[k])
                    for k in ks}
        for _ in range(4):
            base = rng.standard_normal(shape) * 10.0 ** rng.uniform(-30, 30)
            stack = np.repeat(base[None], n, axis=0)
            scale = np.abs(base).max()
            _, norms, floors = _survey_norms(nodes, n, iter(stack))
            for k in ks:
                full = H.collocation_derivative(nodes, stack, k)
                fd = H.collocation_derivative(nodes[near[k]],
                                              stack[near[k]], k)
                assert floors[k] == full_floor[k] * scale, (n, k)
                assert norms[k] <= floors[k], (n, k)
                assert np.abs(full).max() <= full_floor[k] * scale, (n, k)
                assert np.abs(fd).max() <= fd_floor[k] * scale, (n, k)
        for k in ks[:2]:
            # far below the smallest resolved derivative of a run
            # (|d2_z E| / |E| = 2.7e-7 on a slope-1e-6 profile)
            assert max(full_floor[k], fd_floor[k]) <= 1e-11, (n, k)


def test_corollary_report_z_independent(zind_small):
    # every node residual agrees, so the k >= 1 residual derivatives are
    # roundoff within the floor of their difference weights
    rep = U.check_corollary(zind_small)
    assert len(rep.derivative_norms) == 3 and rep.derivative_norms[0] > 0
    rows = U.fd_weights(zind_small.nodes, 0.0, 2)
    for k in (1, 2):
        floor = max(rep.node_norms) * U.roundoff_floor(rows[k])
        assert rep.derivative_norms[k] <= floor
    assert rep.passed
    d = rep.as_dict()
    assert d["passed"] is True and set(d["checks"]) == {"residual_k0"}


def test_corollary_report_zero_field():
    # homogeneous profile: every node solves to the zero field, all
    # corollary ratios collapse to zero
    spec, params, tg, phase = _small_setup({0: 8e-5})
    ens = U.run_collocation(spec, params, tg, phase, n_z=5)
    rep = U.check_corollary(ens)
    assert rep.node_norms == pytest.approx([0.0] * 5, abs=1e-30)
    assert rep.k0_ratio == 0.0
    assert np.all(np.asarray(rep.derivative_norms) <= 1e-30)
    assert rep.passed


def test_corollary_report_small_z_dependent():
    spec, params, tg, phase = _small_setup({0: 8e-5, 1: (1e-5, 3e-6)})
    ens = U.run_collocation(spec, params, tg, phase, n_z=7)
    rep = U.check_corollary(ens)
    assert len(rep.node_norms) == 7
    assert all(r <= 1.0 for r in rep.node_ratios)
    assert rep.k0_ratio <= 1.0
    assert len(rep.derivative_norms) == 3
    assert all(np.isfinite(rep.derivative_norms))
    assert rep.passed


ZDEP_MODES = {0: 8e-5, 1: (1e-5, 3e-6)}


@pytest.fixture(scope="module")
def zdep_small():
    spec, params, tg, phase = _small_setup(ZDEP_MODES)
    return U.run_collocation(spec, params, tg, phase, n_z=7)


def test_corollary_from_node_solves_matches_resolving_oracle(zdep_small):
    # the survey formed from each node's own trajectories agrees with one
    # that solves every node's characteristics again from its field
    spec = _small_setup(ZDEP_MODES)[0]
    rep = U.check_corollary(zdep_small)
    norms, ratios, deriv = resolved_corollary_survey(zdep_small, spec)
    assert rep.node_norms == pytest.approx(norms, rel=1e-12, abs=0.0)
    assert rep.node_ratios == pytest.approx(ratios, rel=1e-12, abs=0.0)
    assert rep.derivative_norms == pytest.approx(deriv, rel=1e-12, abs=0.0)
    assert len(deriv) == 3 and min(deriv) > 0.0


@pytest.mark.parametrize("case", ["blocks-1", "blocks-2", "blocks-3",
                                  "reference"])
def test_node_residual_and_tangent_ride_one_march(case, request,
                                                  monkeypatch):
    # nt below one row block, two whole blocks, one row past them, and
    # the reference grids (3 rows a block): a node at z = 0 marches its
    # characteristics once, and its residual and Taylor coefficients are
    # bitwise those formed from the stored tables of that march, the
    # residual by the identities on the whole table and the tangent one
    # order at a time
    if case == "reference":
        spec, params, tg, phase = (request.getfixturevalue(name) for name in
                                   ("ref_spec", "ref_params", "ref_tgrid",
                                    "ref_phase"))
    else:
        spec, params, _, tg, phase = H.block_case(int(case[-1]))
    marches, real = [], S._march

    def counted(E, *args, **kwargs):
        marches.append(E)
        return real(E, *args, **kwargs)

    monkeypatch.setattr(S, "_march", counted)
    result, delta, _, taylor = U._solve_node(spec, params, 0.0, tg, phase, {})
    assert marches == [result.field]
    traj = H.characteristics(result)
    nt = len(tg)
    x, v, _ = S._flat_labels(phase)
    dv = traj.dV.reshape(nt, -1)
    dx = traj.dX.reshape(nt, -1) - tg.times[:, None] * dv
    want = -shifted_difference(spec, x[None, :], v[None, :], dx, dv, 0.0)
    assert delta.tobytes() == want.tobytes()
    vals, checks = H.tangent_by_orders(spec, result, traj)
    assert len(taylor.fields) == len(vals) == params.K
    for got, want in zip(taylor.fields, vals):
        assert got.values.tobytes() == want.tobytes()
    assert {n: (c.value, c.bound) for n, c in taylor.checks.items()} \
        == {n: (c.value, c.bound) for n, c in checks.items()}


@pytest.mark.parametrize("z", [0.0, 0.5])
def test_reference_node_stores_no_trajectory_table(z, ref_spec, ref_params,
                                                   ref_tgrid, ref_phase):
    # the residual and, at z = 0, the tangent ride the certifying march: a
    # warm reference node grows by its residual table and row blocks,
    # below two (nt, P) tables (three when it kept dX and dV whole)
    table = 8 * len(ref_tgrid) * ref_phase.xgrid.n * ref_phase.nv
    args = (ref_spec, ref_params, z, ref_tgrid, ref_phase, {})
    U._solve_node(*args)                        # grid_sups
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        U._solve_node(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * table, (peak - start) / table


@pytest.mark.parametrize("nx, nv, nt", [(64, 129, 176), (128, 65, 176),
                                        (32, 65, 88)])
def test_each_march_forms_each_phase_row_once(nx, nv, nt, ref_spec,
                                              ref_params, rows_formed):
    # each march forms the phase rows of one row block at a time and hands
    # them to every reader of the block: on the grids of the three
    # benchmark workloads a solve forms 2 nt rows, one per row for the
    # field pass and one for the certifying march, and so does a node at
    # z = 0, whose residual and tangent ride that march
    tg, phase = small_grids(nx=nx, nv=nv, t0=8.0, t_end=43.0, steps=nt - 1)
    S.picard_solve(ref_spec, ref_params, 0.0, tg, phase)
    assert sum(rows_formed) == 2 * nt
    rows_formed.clear()
    U._solve_node(ref_spec, ref_params, 0.0, tg, phase, {})
    assert sum(rows_formed) == 2 * nt


def test_check_corollary_solves_nothing(zdep_small, monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for mod in (S, U):
        monkeypatch.setattr(mod, "solve_characteristics", counted(
            "solve_characteristics", S.solve_characteristics))
        monkeypatch.setattr(mod, "picard_solve",
                            counted("picard_solve", S.picard_solve))
    rep = U.check_corollary(zdep_small)
    assert calls == []
    assert rep.passed and len(rep.derivative_norms) == 3


def test_reports_stop_at_order_K_1():
    # K = 1 caps every derivative order at 1, though 5 nodes reach
    # n_z - 2 = 3
    spec, _, tg, phase = _small_setup(ZDEP_MODES)
    params = P.derive_constants(1.0, 0.002, 0.002, 1, t0=8.0)
    ens = U.run_collocation(spec, params, tg, phase, n_z=5)
    thm = U.check_theorem_bounds(ens)
    cor = U.check_corollary(ens)
    assert len(thm.norms) == 2 and len(ens.taylor.fields) == 1
    assert set(thm.checks) == {"z_deriv_1_tangent", "z_deriv_1_resolution"}
    assert set(thm.floors) == {1}
    assert len(cor.derivative_norms) == 2
    assert thm.passed and cor.passed


def test_check_corollary_needs_the_ensembles_survey(zdep_small):
    with pytest.raises(ValueError, match="corollary report must align"):
        U.ZEnsemble(zdep_small.nodes[:-1], zdep_small.weights[:-1],
                    zdep_small.results[:-1], zdep_small.corollary,
                    zdep_small.taylor)


@pytest.mark.parametrize("n_z, n_derivs", [(1, 0), (2, 1)])
def test_run_collocation_few_nodes(n_z, n_derivs):
    # k_max = min(K, n_z - 2): one node leaves no derivative accumulator
    spec, params, tg, phase = _small_setup(ZDEP_MODES)
    ens = U.run_collocation(spec, params, tg, phase, n_z=n_z)
    survey = ens.corollary
    assert ens.n_nodes == len(survey.node_norms) == n_z
    assert len(survey.derivative_norms) == n_derivs
    rep = U.check_corollary(ens)
    assert rep.passed


def test_every_node_is_solved_and_the_tangent_runs_once(monkeypatch):
    # a z-independent profile too is solved at every node, and the
    # tangent solve runs at the node z = 0 only, on its own solve; on one
    # usable CPU every node is solved in this process, in node order
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls, tangents = [], []
    real_solve, real_tangent = U.picard_solve, U._tangent_pass

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real_solve(*args, **kwargs)

    def counted_tangent(spec, E0, params, phase, z):
        tangents.append(z)
        return real_tangent(spec, E0, params, phase, z)

    monkeypatch.setattr(U, "picard_solve", counted)
    monkeypatch.setattr(U, "_tangent_pass", counted_tangent)
    spec, params, tg, phase = _small_setup()
    ens = U.run_collocation(spec, params, tg, phase, n_z=5, tol=1e-11,
                            inner_tol=1e-13)
    assert calls == list(ens.nodes)
    assert tangents == [0.0]
    assert [r.z for r in ens.results] == list(ens.nodes)
    survey = ens.corollary
    assert len(set(survey.node_norms)) == len(set(survey.node_ratios)) == 1


def test_every_node_is_solved_once_on_two_cpus(monkeypatch, tmp_path):
    # the two-CPU sibling: the calls are recorded across processes, one
    # appended line per call, and each node is still solved exactly once,
    # the tangent once at z = 0, with the results in node order
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    log = tmp_path / "calls"
    real_solve, real_tangent = U.picard_solve, U._tangent_pass

    def record(kind, z):
        with open(log, "a") as fh:
            fh.write(f"{kind} {os.getpid()} {z!r}\n")

    def counted(*args, **kwargs):
        record("solve", args[2])
        return real_solve(*args, **kwargs)

    def counted_tangent(spec, E0, params, phase, z):
        record("tangent", z)
        return real_tangent(spec, E0, params, phase, z)

    monkeypatch.setattr(U, "picard_solve", counted)
    monkeypatch.setattr(U, "_tangent_pass", counted_tangent)
    spec, params, tg, phase = _small_setup()
    ens = U.run_collocation(spec, params, tg, phase, n_z=5, tol=1e-11,
                            inner_tol=1e-13)
    calls = [line.split() for line in log.read_text().splitlines()]
    solved = sorted(float(z) for kind, _, z in calls if kind == "solve")
    assert solved == list(ens.nodes)
    assert [float(z) for kind, _, z in calls if kind == "tangent"] == [0.0]
    assert len({pid for _, pid, _ in calls}) == 2
    assert [r.z for r in ens.results] == list(ens.nodes)
    assert multiprocessing.active_children() == []


def test_every_node_is_claimed_once_by_more_workers_than_cpus(monkeypatch,
                                                              tmp_path):
    # six claimants on two CPUs race for 60 quick nodes through the shared
    # counter: a lost update would solve a node twice or skip one; a hang
    # ends the test run with tracebacks after 60 s
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)))
    log = tmp_path / "claims"

    def solve(j):
        with open(log, "a") as fh:
            fh.write(f"{j}\n")
        return j

    faulthandler.dump_traceback_later(60, exit=True)
    try:
        outcomes = list(U._in_node_order(
            multiprocessing.get_context("fork"), solve, 60))
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert outcomes == list(range(60))
    assert sorted(map(int, log.read_text().split())) == list(range(60))
    assert multiprocessing.active_children() == []


def _spoil_in_workers(monkeypatch, spoil):
    """Two usable CPUs, and spoil(*args) in place of picard_solve in every
    process but this one; returns the nodes' z that this process solved."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, real, solved = os.getpid(), U.picard_solve, []

    def solve(*args, **kwargs):
        if os.getpid() != parent:
            spoil(*args)
        solved.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(U, "picard_solve", solve)
    return solved


def test_a_failing_node_in_a_worker_is_named(monkeypatch):
    # the first failing node in node order is the worker's first node: the
    # nodes before it are this process's; its exception keeps its type
    def spoil(*args):
        raise ValueError("spoiled in a worker")

    solved = _spoil_in_workers(monkeypatch, spoil)
    spec, params, tg, phase = _small_setup()
    nodes = list(U.gauss_legendre_nodes(5)[0])
    with pytest.raises(U.CollocationError) as exc:
        U.run_collocation(spec, params, tg, phase, n_z=5)
    err = exc.value
    first = min(j for j, z in enumerate(nodes) if z not in solved)
    assert err.node_index == first and err.z == nodes[first]
    assert type(err.cause) is ValueError
    assert "spoiled in a worker" in str(err)
    assert multiprocessing.active_children() == []


class _TwoArgumentError(Exception):
    """Pickles, but its constructor's two arguments do not come back from
    its one-argument args, so it does not unpickle."""

    def __init__(self, node, detail):
        super().__init__(f"node {node}: {detail}")


def test_a_worker_failure_that_does_not_unpickle_is_named(monkeypatch):
    # the worker sends a RuntimeError naming the exception's class in its
    # place, so the parent's receive does not fail on it
    def spoil(*args):
        raise _TwoArgumentError(args[2], "spoiled in a worker")

    solved = _spoil_in_workers(monkeypatch, spoil)
    spec, params, tg, phase = _small_setup()
    nodes = list(U.gauss_legendre_nodes(5)[0])
    with pytest.raises(U.CollocationError) as exc:
        U.run_collocation(spec, params, tg, phase, n_z=5)
    err = exc.value
    first = min(j for j, z in enumerate(nodes) if z not in solved)
    assert err.node_index == first and err.z == nodes[first]
    assert type(err.cause) is RuntimeError
    assert "_TwoArgumentError" in str(err.cause)
    assert "spoiled in a worker" in str(err.cause)
    assert multiprocessing.active_children() == []


def test_an_earlier_failing_node_is_named_before_a_later_one(monkeypatch):
    # node 0, this process's first, fails too: it is named, whatever the
    # worker's node did
    def spoil(*args):
        raise ValueError("spoiled in a worker")

    _spoil_in_workers(monkeypatch, spoil)
    real = U.picard_solve
    nodes = list(U.gauss_legendre_nodes(5)[0])

    def solve(*args, **kwargs):
        if args[2] == nodes[0]:
            raise S.ConvergenceError("spoiled node 0")
        return real(*args, **kwargs)

    monkeypatch.setattr(U, "picard_solve", solve)
    spec, params, tg, phase = _small_setup()
    with pytest.raises(U.CollocationError) as exc:
        U.run_collocation(spec, params, tg, phase, n_z=5)
    assert exc.value.node_index == 0
    assert isinstance(exc.value.cause, S.ConvergenceError)
    assert multiprocessing.active_children() == []


def test_node_manifest_records_velocity_grid(zdep_small):
    # the nodes keep no tables, yet their manifests name the velocity grid
    for result in zdep_small.results:
        assert not hasattr(result, "traj") and not hasattr(result, "var")
        grids = result.manifest()["grids"]
        assert (grids["nv"], grids["v_max"]) == (zdep_small.phase.nv,
                                                 zdep_small.phase.v_max)


def test_report_verdicts_are_their_checks():
    ok = BoundCheck("z_deriv_1_tangent", 1.0, 2.0)
    bad = BoundCheck("z_deriv_1_resolution", 0.06, 0.05)
    thm = U.TheoremReport(norms=(1.0, 0.5), floors={1: 0.0},
                          checks={c.name: c for c in (ok, bad)})
    assert not thm.passed
    d = thm.as_dict()
    assert d["checks"]["z_deriv_1_resolution"] == bad.as_dict()
    assert d["passed"] is False and d["floors"] == {"1": 0.0}

    cor = U.CorollaryReport(node_norms=(1.0, 2.0), node_ratios=(0.5, 1.5),
                            derivative_norms=(1.0,))
    assert set(cor.checks) == {"residual_k0"}
    k0 = cor.checks["residual_k0"]
    assert (k0.value, k0.bound, k0.passed) == (1.5, 1.0, False)
    assert not cor.passed and cor.as_dict()["checks"]["residual_k0"]["passed"] \
        is False

    # a non-finite norm fails the verdict even when every check passes
    thm = U.TheoremReport(norms=(math.inf,), floors={}, checks={})
    assert thm.checks == {} and not thm.passed


def test_corollary_verdict_keeps_a_nan_at_any_node():
    # a NaN ratio is the worst ratio wherever it sits, and a NaN node norm
    # fails the verdict even when residual_k0 passes
    for ratios in ((math.nan, 0.5, 0.6), (0.5, math.nan, 0.6),
                   (0.5, 0.6, math.nan)):
        cor = U.CorollaryReport(node_norms=(1.0, 1.0, 1.0),
                                node_ratios=ratios, derivative_norms=(1.0,))
        assert math.isnan(cor.k0_ratio) and not cor.passed, ratios
        assert cor.as_dict()["passed"] is False
    cor = U.CorollaryReport(node_norms=(1.0, math.nan, 1.0),
                            node_ratios=(0.5, 0.5, 0.5),
                            derivative_norms=(1.0,))
    assert cor.checks["residual_k0"].passed and not cor.passed
