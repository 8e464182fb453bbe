"""Quadrature, differentiation stencils, spectral projection, and the
ensemble machinery, checked against polynomial and closed-form oracles."""

import math

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

import helpers as H
from helpers import make_spec, resolved_corollary_survey, small_grids
from vlandau import params as P
from vlandau import scattering as S
from vlandau import uq as U


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


def test_spectral_derivative_stack_polynomial_exactness():
    n = 7
    nodes, weights = U.gauss_legendre_nodes(n)
    g = np.array([[2.0, -1.0], [0.5, 4.0]])
    p = np.polynomial.Polynomial([0.3, -1.2, 0.0, 2.0])   # cubic
    stack = p(nodes)[:, None, None] * g[None]
    for k in range(4):
        want = (p.deriv(k)(0.0) if k else p(0.0)) * g
        got = U.spectral_derivative_stack(nodes, weights, stack, k)
        assert np.allclose(got, want, atol=1e-11)
    with pytest.raises(ValueError, match="nonnegative"):
        U.spectral_derivative_stack(nodes, weights, stack, -1)


def test_spectral_and_fd_derivatives_agree_on_smooth_function():
    nodes, weights = U.gauss_legendre_nodes(11)
    vals = np.exp(0.4 * nodes)
    stack = vals[:, None, None]
    d1 = float(U.spectral_derivative_stack(nodes, weights, stack, 1)[0, 0])
    assert d1 == pytest.approx(0.4, rel=1e-9)
    d2 = float(U.spectral_derivative_stack(nodes, weights, stack, 2)[0, 0])
    assert d2 == pytest.approx(0.16, rel=1e-7)


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
    scale = np.abs(zind_small.field_stack()[0]).max()
    for k in (1, 2, 3):
        d = U.z_derivative(zind_small, k)
        assert np.abs(d.values).max() <= 1e-12 * max(scale, 1e-30)
    fd = U.z_derivative_fd(zind_small, 1)
    assert np.abs(fd.values).max() <= 1e-10 * max(scale, 1e-30)


def test_z_dependent_ensemble_linear_mode():
    # c1(z) = 1e-5 + 3e-6 z: fields vary over z and the first two
    # derivative estimators must agree
    spec, params, tg, phase = _small_setup({0: 8e-5, 1: (1e-5, 3e-6)})
    ens = U.run_collocation(spec, params, tg, phase, n_z=7)
    stack = ens.field_stack()
    assert np.abs(stack[-1] - stack[0]).max() > 0
    d_spec = U.z_derivative(ens, 1).values
    d_fd = U.z_derivative_fd(ens, 1).values
    scale = np.abs(d_spec).max()
    assert scale > 0
    assert np.abs(d_spec - d_fd).max() <= 1e-6 * scale


def test_z_derivative_order_limits(zind_small):
    # k = 0 is the plain value; it must match the reconstruction at z = 0
    d0 = U.z_derivative(zind_small, 0)
    recon = U.gpc_coefficients(zind_small).reconstruct(0.0)
    assert np.allclose(d0.values, recon, atol=1e-18)
    with pytest.raises(ValueError, match="nonnegative"):
        U.z_derivative(zind_small, -1)
    with pytest.raises(ValueError, match="need at least k\\+2 nodes"):
        U.z_derivative(zind_small, 4)
    with pytest.raises(ValueError, match="1 <= k"):
        U.z_derivative_fd(zind_small, 0)


def test_collocation_error_carries_node_context():
    spec, params, tg, phase = _small_setup()
    with pytest.raises(U.CollocationError) as exc:
        U.run_collocation(spec, params, tg, phase, n_z=3, tol=1e-30,
                          max_iter=1)
    err = exc.value
    assert err.node_index == 0
    nodes, _ = U.gauss_legendre_nodes(3)
    assert err.z == pytest.approx(nodes[0])
    assert isinstance(err.cause, S.ConvergenceError)
    assert "node 0" in str(err)


def test_ensemble_validation(zind_small):
    ens = zind_small
    with pytest.raises(ValueError, match="align"):
        U.ZEnsemble(ens.nodes[:-1], ens.weights, ens.results, ens.phase)
    with pytest.raises(ValueError, match="strictly increasing"):
        U.ZEnsemble(ens.nodes[::-1], ens.weights, ens.results, ens.phase)
    mixed = list(ens.results)
    spec, params, tg, phase = _small_setup()
    other = S.picard_solve(spec, params, 0.0, tg,
                           small_grids(nx=16, nv=65, t_end=24.0, steps=80)[1])
    mixed[2] = other
    with pytest.raises(ValueError, match="differing grids"):
        U.ZEnsemble(ens.nodes, ens.weights, mixed, ens.phase)


def test_gpc_table_reconstruct_and_decay(zind_small):
    table = U.gpc_coefficients(zind_small)
    # reconstruction at the collocation nodes reproduces the solves
    stack = zind_small.field_stack()
    recon = table.reconstruct(zind_small.nodes[3])
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
    spec, params, tg, phase = _small_setup()
    refined = U.run_collocation(spec, params, tg, phase, n_z=7)
    rep = U.check_theorem_bounds(zind_small, refined=refined)
    assert len(rep.norms) == 3 and rep.norms[0] > 0
    assert rep.norms[1] <= 1e-12 * rep.norms[0]
    assert rep.norms[2] <= 1e-12 * rep.norms[0]
    assert set(rep.agreement) == {1, 2}
    # both derivative norms sit at projection roundoff, so refinement
    # drift and estimator disagreement are measured against the roundoff
    # floor and must come out negligible
    assert max(rep.drift.values()) <= rep.stability_tol
    # estimator disagreement at roundoff stays within the floor scale
    # instead of exploding into a meaningless O(1) ratio
    assert max(rep.agreement.values()) <= 1.0
    assert rep.passed
    d = rep.as_dict()
    assert d["passed"] is True and len(d["norms"]) == 3


def test_theorem_report_records_floors(zind_small):
    # the report carries the floor each k >= 1 norm was judged against,
    # so a zero drift or a small agreement explains itself
    rep = U.check_theorem_bounds(zind_small)
    assert set(rep.floors) == {"base", "fd"}
    for k in (1, 2):
        assert 0.0 < rep.norms[k] <= rep.floors["base"][k]
        assert rep.floors["fd"][k] > 0.0
    assert rep.floors["base"][2] > rep.floors["base"][1]
    d = rep.as_dict()
    assert d["floors"]["base"] == {"1": rep.floors["base"][1],
                                   "2": rep.floors["base"][2]}
    assert set(d["floors"]["fd"]) == {"1", "2"}


def test_roundoff_floor_bounds_node_identical_stacks():
    # node values that agree have exactly zero z-derivatives, so both
    # estimates of them are pure roundoff and must stay within their
    # floors, at every node count and order the reports can use
    rng = np.random.default_rng(3)
    for n in range(3, 14):
        nodes, weights = U.gauss_legendre_nodes(n)
        for k in range(1, n - 1):
            spec_floor = U.spectral_floor(nodes, weights, k)
            idx, w = U.fd_stencil(nodes, k)
            fd_floor = U.roundoff_floor(w)
            for _ in range(4):
                base = rng.standard_normal((6, 9)) * 10.0 ** rng.uniform(-30, 30)
                stack = np.repeat(base[None], n, axis=0)
                scale = np.abs(base).max()
                spec = U.spectral_derivative_stack(nodes, weights, stack, k)
                fd = H.collocation_derivative(nodes[idx], stack[idx], k)
                assert np.abs(spec).max() <= spec_floor * scale, (n, k)
                assert np.abs(fd).max() <= fd_floor * scale, (n, k)
            if k <= 2:
                # far below the smallest resolved derivative of a run
                # (|d2_z E| / |E| = 2.7e-7 on a slope-1e-6 profile)
                assert max(spec_floor, fd_floor) <= 1e-11, (n, k)
    with pytest.raises(ValueError, match="order >= 1"):
        U.spectral_floor(nodes, weights, 0)


def test_corollary_report_z_independent_refined(zind_small):
    # every node residual agrees, so the k >= 1 residual derivatives of
    # both ensembles are roundoff within their floors and do not drift
    spec, params, tg, phase = _small_setup()
    refined = U.run_collocation(spec, params, tg, phase, n_z=7)
    rep = U.check_corollary(zind_small, refined=refined)
    assert len(rep.derivative_norms) == 3 and rep.derivative_norms[0] > 0
    for k in (1, 2):
        assert rep.derivative_norms[k] <= rep.floors["base"][k]
        assert rep.drift[k] == 0.0
    assert rep.drift[0] <= 1e-12
    assert rep.passed
    d = rep.as_dict()
    assert d["passed"] is True
    assert set(d["floors"]) == {"base", "refined"}
    assert set(d["floors"]["refined"]) == {"1", "2"}


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
    rep = U.check_corollary(zdep_small, refined=zdep_small)
    assert calls == []
    assert rep.passed and set(rep.drift) == {0, 1, 2}


def test_reports_stop_at_order_K_1():
    # K = 1 caps every derivative order at 1, though 4 nodes reach n_z - 2 = 2
    spec, _, tg, phase = _small_setup(ZDEP_MODES)
    params = P.derive_constants(1.0, 0.002, 0.002, 1, t0=8.0)
    ens = U.run_collocation(spec, params, tg, phase, n_z=4)
    refined = U.run_collocation(spec, params, tg, phase, n_z=5)
    thm = U.check_theorem_bounds(ens, refined=refined)
    cor = U.check_corollary(ens, refined=refined)
    assert len(thm.norms) == 2 and set(thm.agreement) == {1}
    assert len(cor.derivative_norms) == len(cor.comparison_bounds) == 2
    assert set(thm.drift) == set(cor.drift) == {0, 1}
    assert set(cor.floors["base"]) == set(cor.floors["refined"]) == {1}
    assert thm.passed and cor.passed


def test_check_corollary_needs_the_ensembles_survey(zdep_small):
    bare = U.ZEnsemble(zdep_small.nodes, zdep_small.weights,
                       zdep_small.results, zdep_small.phase)
    with pytest.raises(ValueError, match="no residual survey"):
        U.check_corollary(bare)
    with pytest.raises(ValueError, match="residual survey must align"):
        U.ZEnsemble(zdep_small.nodes[:-1], zdep_small.weights[:-1],
                    zdep_small.results[:-1], zdep_small.phase,
                    zdep_small.residuals)


@pytest.mark.parametrize("n_z, n_derivs", [(1, 0), (2, 1)])
def test_run_collocation_few_nodes(n_z, n_derivs):
    # k_max = min(K, n_z - 2): one node leaves no derivative accumulator
    spec, params, tg, phase = _small_setup(ZDEP_MODES)
    ens = U.run_collocation(spec, params, tg, phase, n_z=n_z)
    survey = ens.residuals
    assert ens.n_nodes == len(survey.node_norms) == n_z
    assert len(survey.derivative_norms) == n_derivs
    assert survey.floors == {}
    rep = U.check_corollary(ens)
    assert rep.passed and len(rep.comparison_bounds) == n_derivs


def test_z_independent_profile_is_solved_once(monkeypatch):
    calls = []
    real = U.picard_solve

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(U, "picard_solve", counted)
    spec, params, tg, phase = _small_setup()
    ens = U.run_collocation(spec, params, tg, phase, n_z=5)
    assert len(calls) == 1
    assert [r.z for r in ens.results] == list(ens.nodes)
    assert all(r.field is ens.results[0].field for r in ens.results)
    survey = ens.residuals
    assert len(set(survey.node_norms)) == len(set(survey.node_ratios)) == 1


def test_node_manifest_records_velocity_grid(zdep_small):
    # the nodes keep no tables, yet their manifests name the velocity grid
    for result in zdep_small.results:
        assert result.traj is None and result.var is None
        grids = result.manifest()["grids"]
        assert (grids["nv"], grids["v_max"]) == (zdep_small.phase.nv,
                                                 zdep_small.phase.v_max)


def test_report_verdicts_are_their_checks():
    thm = U.TheoremReport(norms=(1.0, 0.5), agreement={},
                          drift={0: 0.0, 1: 0.06})
    assert set(thm.checks) == {"z_deriv_0_drift", "z_deriv_1_drift"}
    failing = thm.checks["z_deriv_1_drift"]
    assert failing.bound == thm.stability_tol and not failing.passed
    assert not thm.passed
    d = thm.as_dict()
    assert d["checks"]["z_deriv_1_drift"] == failing.as_dict()
    assert d["passed"] is False

    cor = U.CorollaryReport(node_norms=(1.0, 2.0), node_ratios=(0.5, 1.5),
                            derivative_norms=(1.0,), comparison_bounds=(1.0,),
                            drift={0: 0.01})
    assert set(cor.checks) == {"residual_k0", "residual_deriv_0_drift"}
    k0 = cor.checks["residual_k0"]
    assert (k0.value, k0.bound, k0.passed) == (1.5, 1.0, False)
    assert cor.checks["residual_deriv_0_drift"].passed
    assert not cor.passed and cor.as_dict()["checks"]["residual_k0"]["passed"] \
        is False

    # a non-finite norm fails the verdict even when every check passes
    thm = U.TheoremReport(norms=(math.inf,), agreement={}, drift={})
    assert thm.checks == {} and not thm.passed
