"""Parameter gate and tail-integral tests.

Closed-form tail integrals are checked against adaptive quadrature;
gate conditions against hand-evaluated inequalities.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

import helpers as H
from vlandau import params as P


def quad_tail(a, t, k):
    val, _ = integrate.quad(lambda s: s ** k * math.exp(-a * s), t, np.inf,
                            epsabs=1e-16, epsrel=1e-13, limit=300)
    return val


def quad_tail_moment(a, t, k):
    val, _ = integrate.quad(lambda s: (s - t) * s ** k * math.exp(-a * s),
                            t, np.inf, epsabs=1e-16, epsrel=1e-13, limit=300)
    return val


# ---------------------------------------------------------------------------
# tail integrals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("t", [0.0, 2.0, 8.0])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_tail_integral_matches_quadrature(a, t, k):
    assert P.tail_integral(a, t, k) == pytest.approx(quad_tail(a, t, k),
                                                     rel=1e-10)


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("t", [0.0, 2.0, 8.0])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_tail_moment_matches_quadrature(a, t, k):
    assert P.tail_integral_moment(a, t, k) == pytest.approx(
        quad_tail_moment(a, t, k), rel=1e-10)


def test_tail_integral_closed_values():
    # by parts: int_t s^2 e^{-s} = e^{-t}(t^2 + 2t + 2)
    assert P.tail_integral(1.0, 2.0, 2) == pytest.approx(
        10.0 * math.exp(-2.0), rel=1e-14)
    assert P.tail_integral(1.0, 8.0, 0) == pytest.approx(
        math.exp(-8.0), rel=1e-14)
    # int_0 s^3 e^{-2s} = 3! / 2^4
    assert P.tail_integral(2.0, 0.0, 3) == pytest.approx(0.375, rel=1e-14)


def test_tail_moment_closed_values():
    # int_t (s-t) e^{-a s} ds = e^{-a t} / a^2
    for a, t in [(1.0, 3.0), (2.0, 5.0), (0.5, 8.0)]:
        assert P.tail_integral_moment(a, t, 0) == pytest.approx(
            math.exp(-a * t) / a ** 2, rel=1e-14)


def test_tail_moment_avoids_subtraction_loss():
    # the naive difference tail_integral(k+1) - t tail_integral(k) loses
    # digits for a t >> 1 (2.2e-15 relative at k = 1, 2 here); the
    # all-positive expansion stays within a few ulps of the exact moment
    a, t = 1.0, 40.0
    exact = math.exp(-a * t) / a ** 2                     # k = 0
    assert P.tail_integral_moment(a, t, 0) == pytest.approx(
        exact, rel=1e-13, abs=0)
    for k in (1, 2):
        with mpmath.workdps(40):
            oracle = mpmath.quad(
                lambda s: (s - t) * s ** k * mpmath.exp(-a * s),
                [t, t + 10, t + 100, mpmath.inf])
        assert P.tail_integral_moment(a, t, k) == pytest.approx(
            float(oracle), rel=1e-15, abs=0)


def test_tail_integral_input_validation():
    with pytest.raises(ValueError):
        P.tail_integral(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        P.tail_integral(1.0, -1.0, 0)
    with pytest.raises(ValueError):
        P.tail_integral(1.0, 1.0, -1)
    with pytest.raises(ValueError):
        P.tail_integral_moment(-1.0, 1.0, 0)


# ---------------------------------------------------------------------------
# tail bounds over the verification window
# ---------------------------------------------------------------------------

def test_tail_bounds_reference_window(ref_params):
    rep = H.verify_tail_bounds(ref_params, t_max=43.0)
    assert rep.passed
    assert rep.t_window == (8.0, 43.0)
    assert set(rep.plain_ratios) == {0, 1, 2, 3, 4}   # k <= 2K
    # k = 0 ratios are exactly t-independent: (1/a)/(2/a) and (1/a^2)/(4/a^2)
    assert rep.plain_ratios[0] == pytest.approx(0.5, rel=1e-12)
    assert rep.moment_ratios[0] == pytest.approx(0.25, rel=1e-12)
    assert rep.worst <= 1.0


def test_tail_bounds_reject_bad_window(ref_params):
    with pytest.raises(ValueError):
        H.verify_tail_bounds(ref_params, t_max=ref_params.t0)


# ---------------------------------------------------------------------------
# derived constants and start time
# ---------------------------------------------------------------------------

def test_derived_constants_reference(ref_params):
    p = ref_params
    assert (p.a, p.a1, p.a2, p.K) == (1.0, 0.002, 0.002, 2)
    assert p.C_E == pytest.approx(240 * 0.002 * 0.002 / 1.0 + 4 * 0.002,
                                  rel=1e-15)
    assert p.C_E == pytest.approx(0.00896, rel=1e-15)
    assert p.t0 == 8.0


@pytest.mark.parametrize("a,a1,K", [(1.0, 0.002, 2), (0.5, 200.0, 1),
                                    (2.0, 0.002, 1), (1.0, 0.5, 0)])
def test_minimal_start_time_formula(a, a1, K):
    expect = max(2.0, 4.0 * K, math.log(8.0 * a1) / a)
    assert P.minimal_start_time(a, a1, K) == pytest.approx(expect, rel=1e-15)


def test_minimal_start_time_log_branch():
    # log(8 * 200) / 0.5 = 2 log(1600) dominates max(2, 4)
    got = P.minimal_start_time(0.5, 200.0, 1)
    assert got == pytest.approx(2.0 * math.log(1600.0), rel=1e-15)
    assert got > 4.0


def test_derive_constants_defaults_t0():
    p = P.derive_constants(1.0, 0.002, 0.002, 2)
    assert p.t0 == 8.0                      # max(2, 4K, log(0.016)) = 4K
    with pytest.raises(ValueError):
        P.derive_constants(-1.0, 0.002, 0.002, 2)
    with pytest.raises(ValueError):
        P.derive_constants(1.0, 0.002, 0.002, -1)


@pytest.mark.parametrize("t0", [None, 8.0])
def test_derive_constants_rejects_bad_inputs(t0):
    for a, a1, a2 in ((0.0, 0.002, 0.002), (1.0, -0.002, 0.002),
                      (1.0, 0.002, 0.0)):
        with pytest.raises(ValueError, match="must be positive"):
            P.derive_constants(a, a1, a2, 2, t0=t0)
    for K in (-1, 1.5):
        with pytest.raises(ValueError, match="nonnegative integer"):
            P.derive_constants(1.0, 0.002, 0.002, K, t0=t0)


def test_derived_values_are_read_from_the_independent_ones():
    # C_E and the contraction bound are derived, not stored: a direct
    # construction cannot set them apart from a, a1, a2
    p = P.DampingParams(a=1.5, a1=0.003, a2=0.004, K=1, t0=8.0)
    assert p.C_E == 240.0 * 0.003 * 0.004 / 1.5 + 4.0 * 0.003
    assert p.contraction_bound == 88.0 * 0.004 / (1.5 ** 2 - 80.0 * 0.004)
    assert p.as_dict()["C_E"] == p.C_E
    with pytest.raises(TypeError):
        P.DampingParams(a=1.0, a1=0.002, a2=0.002, K=2, t0=8.0, C_E=1.0)


# ---------------------------------------------------------------------------
# admissibility gate
# ---------------------------------------------------------------------------

def test_gate_reference_passes(ref_params):
    rep = P.check_assumptions(ref_params)
    assert rep.passed and rep.failures == ()
    by = rep.checks
    assert set(by) == {"A1", "A2", "A3", "A4", "A5"}
    # A1: max(1, 15 sqrt(a2)) <= a, boundary-tight at the reference point
    assert by["A1"].value == pytest.approx(max(1.0, 15 * math.sqrt(0.002)),
                                           rel=1e-15)
    assert by["A1"].bound - by["A1"].value == pytest.approx(0.0, abs=1e-15)
    # A2: t0 at its admissible minimum
    assert by["A2"].bound - by["A2"].value == pytest.approx(0.0, abs=1e-15)
    # A3: (50 C_E / a)(3/a)^3 e^{-3}
    assert by["A3"].value == pytest.approx(
        50 * 0.00896 * 27 * math.exp(-3.0), rel=1e-12)
    # A4: 8 e <= 1/(20 a2)
    assert by["A4"].value == pytest.approx(8 * math.e, rel=1e-15)
    assert by["A4"].bound == pytest.approx(25.0, rel=1e-12)
    # A5: 8 C_E <= a^2
    assert by["A5"].value == pytest.approx(0.07168, rel=1e-12)
    assert by["A5"].bound - by["A5"].value == pytest.approx(1.0 - 0.07168,
                                                            rel=1e-10)


def test_gate_large_a2_fails_a4():
    p = P.derive_constants(1.0, 0.002, 0.01, 2, t0=8.0)
    rep = P.check_assumptions(p)
    assert not rep.passed
    assert "A4" in rep.failures
    c = rep.checks["A4"]
    assert c.value == pytest.approx(8 * math.e, rel=1e-12)     # ~21.746
    assert c.bound == pytest.approx(5.0, rel=1e-12)
    assert c.value > c.bound
    # the same a2 also breaches the decay-rate floor
    assert rep.checks["A1"].value == pytest.approx(1.5, rel=1e-12)


def test_gate_boundary_a1_equality():
    # a = 15 sqrt(a2) exactly: A1 margin 0 yet passing
    p = P.derive_constants(1.5, 0.002, 0.01, 2, t0=8.0)
    rep = P.check_assumptions(p)
    c = rep.checks["A1"]
    assert c.passed and c.bound - c.value == pytest.approx(0.0, abs=1e-12)


def test_require_admissible_raises():
    p = P.derive_constants(1.0, 0.002, 0.01, 2, t0=8.0)
    with pytest.raises(P.AdmissibilityError) as exc:
        P.require_admissible(p)
    assert "A4" in str(exc.value)


def test_gate_a3_peak_flag():
    # t0 = 8 > 3/a = 3: the cubic-exponential peak precedes the window
    rep = P.check_assumptions(P.derive_constants(1.0, 0.002, 0.002, 2))
    assert not rep.a3_peak_before_t0
    assert rep.a3_implied_lhs == pytest.approx(
        50 * 0.00896 * 512 * math.exp(-8.0), rel=1e-12)
    assert rep.a3_implied_lhs < rep.checks["A3"].value
