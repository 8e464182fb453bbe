"""Acceptance suite: fifteen end-to-end guarantees on the reference run.

Each test is one criterion; run with -v to get one pass/fail line per
criterion.  Reference setup: a = 1, a1 = a2 = 0.002, K = 2, t0 = 8,
sech(pi/2 v) shape, modes c0 = 8e-5 and c1(z) = 1e-5 (1 + 0.3 z), grids
nx = 64, nv = 129, v_max = 6, 176 time nodes on [8, 43].
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import helpers as H
from vlandau import cli
from vlandau import fields as F
from vlandau import params as P
from vlandau import scattering as S
from vlandau import uq as U

A, A1, A2, K, T0 = 1.0, 0.002, 0.002, 2, 8.0
C_E = 240 * A1 * A2 / A + 4 * A1                     # 0.00896


# ---------------------------------------------------------------------------
# 1. admissibility gate
# ---------------------------------------------------------------------------

def test_criterion_01_admissibility_gate(ref_params):
    report = P.check_assumptions(ref_params)
    assert report.passed, f"reference gate failed: {report.failures}"
    assert list(report.checks) == ["A1", "A2", "A3", "A4", "A5"]
    for cond in report.checks.values():
        assert cond.passed and cond.bound - cond.value >= 0.0

    bad = P.derive_constants(A, A1, 0.01, K, t0=T0)
    bad_report = P.check_assumptions(bad)
    assert not bad_report.passed
    a4 = bad_report.checks["A4"]
    assert not a4.passed
    assert a4.value == pytest.approx(8 * math.e, rel=1e-14)  # 21.746...
    assert a4.bound == pytest.approx(5.0, rel=1e-14)         # 1/(20 a2)
    assert "A4" in bad_report.failures


# ---------------------------------------------------------------------------
# 2. exponential tail integrals
# ---------------------------------------------------------------------------

def test_criterion_02_tail_integrals(ref_params):
    for a in (1.0, 2.0):
        for t in (0.0, 2.0, 8.0):
            upper = t + 80.0 / a
            for k in range(5):
                closed = P.tail_integral(a, t, k)
                oracle, err = quad(lambda s: s ** k * math.exp(-a * s),
                                   t, upper, epsabs=1e-300, epsrel=1e-13)
                assert closed == pytest.approx(oracle, rel=1e-10)
                closed_m = P.tail_integral_moment(a, t, k)
                oracle_m, _ = quad(
                    lambda s: (s - t) * s ** k * math.exp(-a * s),
                    t, upper, epsabs=1e-300, epsrel=1e-13)
                assert closed_m == pytest.approx(oracle_m, rel=1e-10)

    bounds = H.verify_tail_bounds(ref_params, t_max=43.0)
    assert bounds.passed
    assert set(bounds.plain_ratios) == set(range(2 * K + 1))
    for k in range(2 * K + 1):
        assert bounds.plain_ratios[k] <= 1.0
        assert bounds.moment_ratios[k] <= 1.0


# ---------------------------------------------------------------------------
# 3. free transport
# ---------------------------------------------------------------------------

def test_criterion_03_free_transport(ref_tgrid, ref_phase):
    E0 = F.zero_field(ref_tgrid, ref_phase.xgrid)
    traj = S.solve_characteristics(E0, ref_phase, a=A)
    assert np.abs(traj.dX).max() <= 1e-12            # X - (x + v t)
    assert np.abs(traj.dV).max() <= 1e-12            # V - v
    var = S.solve_variational(E0, traj)
    t = ref_tgrid.times[:, None, None]
    assert np.abs(var.dX_dx() - 1.0).max() <= 1e-12
    assert np.abs(var.dX_dv() - t).max() <= 1e-12
    assert np.abs(var.dV_dx()).max() <= 1e-12
    assert np.abs(var.dV_dv() - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# 4. image of the zero field
# ---------------------------------------------------------------------------

def test_criterion_04_zero_field_image(ref_spec, ref_tgrid, ref_phase):
    E0 = F.zero_field(ref_tgrid, ref_phase.xgrid)
    series = S.field_map_zero(ref_spec, 0.0, ref_tgrid, ref_phase.xgrid)
    direct = H.direct_field_map(E0, ref_spec, 0.0, ref_phase, a=A)
    err = np.abs(direct.values - series.values).max()
    assert err <= 1e-6, f"direct map deviates from the analytic image: {err}"

    envelope = 4 * A1 * np.exp(-A * ref_tgrid.times)[:, None]
    assert np.all(np.abs(series.values) <= envelope)
    split = H.apply_field_map(E0, ref_spec, 0.0, ref_phase, a=A)
    assert np.all(np.abs(split.values) <= envelope)


# ---------------------------------------------------------------------------
# 5. contractive fixed-point iteration
# ---------------------------------------------------------------------------

def test_criterion_05_picard_contraction(ref_solve):
    r = ref_solve
    limit = 88 * A2 / (A ** 2 - 80 * A2) * 1.10      # 0.23047619...
    assert limit == pytest.approx(0.23047619047619, rel=1e-10)
    assert r.converged and r.iterations <= 30
    assert r.residual_norm < 1e-10
    assert r.contraction_ratios, "no contraction ratios recorded"
    worst = max(r.contraction_ratios)
    assert worst <= limit, f"contraction ratio {worst} exceeds {limit}"


# ---------------------------------------------------------------------------
# 6. field bounds
# ---------------------------------------------------------------------------

def test_criterion_06_field_bounds(ref_solve):
    checks = ref_solve.checks
    c = checks["field_weighted"]
    assert c.bound == pytest.approx(8 * A1, rel=1e-14)        # 0.016
    assert c.value <= c.bound
    c = checks["field_dx_sup"]
    assert c.bound == pytest.approx(20 * A2, rel=1e-14)       # 0.04
    assert c.value <= c.bound
    c = checks["field_dx_weighted"]
    assert c.bound == pytest.approx(C_E, rel=1e-14)           # 0.00896
    assert c.value <= c.bound


# ---------------------------------------------------------------------------
# 7. density bounds
# ---------------------------------------------------------------------------

def test_criterion_07_density_bounds(ref_solve):
    checks = ref_solve.checks
    c = checks["density_sup"]
    assert c.bound == pytest.approx(10 * A2, rel=1e-14)       # 0.02
    assert c.value <= c.bound
    c = checks["density_pert_weighted"]
    assert c.bound == pytest.approx(C_E, rel=1e-14)
    assert c.value <= c.bound


# ---------------------------------------------------------------------------
# 8. trajectory displacement bounds
# ---------------------------------------------------------------------------

def test_criterion_08_trajectory_bounds(ref_solve):
    ratio_v = ref_solve.checks["traj_velocity"].value
    ratio_x = ref_solve.checks["traj_position"].value
    assert ratio_v <= 1.0 + 1e-6, f"velocity ratio {ratio_v}"
    assert ratio_x <= 1.0 + 1e-6, f"position ratio {ratio_x}"


# ---------------------------------------------------------------------------
# 9. volume preservation
# ---------------------------------------------------------------------------

def test_criterion_09_jacobian(ref_solve):
    c = ref_solve.checks["jacobian_deviation"]
    assert c.bound == 1e-6
    assert c.value <= 1e-6, f"|J - 1| = {c.value}"


# ---------------------------------------------------------------------------
# 10. variational derivative bounds
# ---------------------------------------------------------------------------

def test_criterion_10_variational_bounds(ref_solve):
    checks = ref_solve.checks
    expected = {
        "dXdx_weighted": 8 * C_E / A ** 2,
        "dXdv_weighted": 8 * C_E / A ** 2,
        "dVdx_weighted": 4 * C_E / A,
        "dVdv_weighted": 10 * C_E / A,
    }
    for name, bound in expected.items():
        c = checks[name]
        assert c.bound == pytest.approx(bound, rel=1e-14)
        ratio = c.value / c.bound
        assert ratio <= 1.0, f"{name}: ratio {ratio}"


# ---------------------------------------------------------------------------
# 11. field / density consistency
# ---------------------------------------------------------------------------

def test_criterion_11_field_density_consistency(ref_solve):
    c = ref_solve.checks["field_density_consistency"]
    assert c.value <= 5e-5, f"div-field mismatch {c.value}"


# ---------------------------------------------------------------------------
# 12. z-independent profiles stay z-independent
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def zind_ens(ref_params):
    # every check below is grid-independent, so the coarse 32 x 65 x 80
    # grids of test_uq.py's zind_small serve
    from helpers import make_spec, small_grids
    spec = make_spec({0: 8e-5, 1: 1e-5})            # no z dependence
    tg, phase = small_grids(nx=32, nv=65, t_end=24.0, steps=80)
    return U.run_collocation(spec, ref_params, tg, phase, n_z=5)


def test_criterion_12_z_independence(zind_ens):
    table = U.gpc_coefficients(zind_ens)
    mags = table.mode_magnitudes()
    scale = mags[0]
    assert scale > 0
    assert max(mags[1:]) <= 1e-12 * scale, f"gPC modes {mags}"

    nodes, stack = np.asarray(zind_ens.nodes), zind_ens.field_stack()
    d1 = H.collocation_derivative(nodes, stack, 1)
    assert np.abs(d1).max() <= 1e-12 * scale

    # manufactured linear dependence: the interpolant and the differences
    # on the five nodes nearest 0 recover the slope to machine precision
    base = stack[0]
    lin = (1.0 + 0.3 * nodes)[:, None, None] * base[None]
    slope = H.collocation_derivative(nodes, lin, 1)
    assert np.abs(slope - 0.3 * base).max() <= 1e-12 * np.abs(base).max()
    near = np.sort(np.argsort(np.abs(nodes))[:5])
    fd_slope = H.collocation_derivative(nodes[near], lin[near], 1)
    assert np.abs(fd_slope - 0.3 * base).max() <= 1e-12 * np.abs(base).max()


# ---------------------------------------------------------------------------
# 13. z-derivative norms: the tangent, its certificate and the interpolant
# ---------------------------------------------------------------------------

def test_criterion_13_z_derivative_bounds(ens9):
    rep = U.check_theorem_bounds(ens9)
    assert all(math.isfinite(n) for n in rep.norms)
    assert rep.passed, [c for c in rep.checks.values() if not c.passed]
    # c1(z) = 1e-5 (1 + 0.3 z): the first derivative is the field of the
    # slope, |d_z E|_{a,t0} = 8 c1'(0) = 2.4e-5 (the limit 8 c_1 of
    # e^t |E_1|, see the ROADMAP), within its contraction certificate
    assert rep.norms[1] == pytest.approx(2.4e-5, rel=1e-9)
    # the interpolant through the nine node fields and the differences on
    # the five nodes nearest 0 both agree with the tangent, in the
    # relative weighted norm
    nodes, stack = np.asarray(ens9.nodes), ens9.field_stack()
    near = np.sort(np.argsort(np.abs(nodes))[:5])
    table, a = ens9.results[0].field, ens9.params.a
    for k in (1, 2):
        exact = math.factorial(k) * ens9.taylor.fields[k - 1].values
        norm = F.weighted_norm(table.with_values(exact), a).value
        assert norm == rep.norms[k] and norm > rep.floors[k]
        for rows in (slice(None), near):
            fd = H.collocation_derivative(nodes[rows], stack[rows], k)
            err = F.weighted_norm(table.with_values(fd - exact), a).value
            assert err <= 1e-4 * norm, f"k={k}: relative distance {err / norm}"
        cert = rep.checks[f"z_deriv_{k}_tangent"]
        assert cert.value == rep.norms[k] and cert.passed


# ---------------------------------------------------------------------------
# 14. transported-profile residual bounds
# ---------------------------------------------------------------------------

def test_criterion_14_residual_bounds(ens9):
    rep = U.check_corollary(ens9)
    assert rep.k0_ratio <= 1.0, f"k=0 residual ratio {rep.k0_ratio}"
    assert all(r <= 1.0 for r in rep.node_ratios)
    assert len(rep.derivative_norms) == K + 1
    assert all(math.isfinite(n) for n in rep.derivative_norms)
    assert rep.passed


# ---------------------------------------------------------------------------
# 15. deterministic artifacts
# ---------------------------------------------------------------------------

def test_criterion_15_bitwise_determinism(tmp_path):
    cfg = "configs/reference.cfg"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["solve", "--config", cfg, "--out", str(out_b)]) == 0
    bytes_a = (out_a / "field.csv").read_bytes()
    bytes_b = (out_b / "field.csv").read_bytes()
    assert bytes_a == bytes_b, "field.csv differs between identical runs"
    man_a = json.loads((out_a / "solve_manifest.json").read_text())
    man_b = json.loads((out_b / "solve_manifest.json").read_text())
    assert man_a == man_b
