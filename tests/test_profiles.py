"""Profile evaluation, transforms, and hypothesis-check tests.

The Fourier convention is pinned by an independent quadrature oracle;
stable small-increment differences are validated at machine-scale shifts
against the analytic gradient.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import helpers as H
from helpers import full_grid_decay, full_grid_sup_gradient, make_spec
from vlandau import profiles as PR
from vlandau.profiles import Amplitude, HypothesisError, Mode, ProfileSpec
from vlandau.profiles import check_decay, grid_sups, require_hypotheses, \
    sup_gradient


# ---------------------------------------------------------------------------
# amplitudes
# ---------------------------------------------------------------------------

def test_poly_amplitude_matches_horner():
    amp = Amplitude("poly", (0.5, -1.0, 2.0))
    for z in (-1.0, -0.3, 0.0, 0.7, 1.0):
        assert amp(z) == pytest.approx(0.5 - z + 2 * z * z, rel=1e-15)


def test_trig_amplitude_layout():
    # coeffs: (const, cos1, sin1, cos2, sin2)
    amp = Amplitude("trig", (0.1, 0.2, -0.3, 0.05, 0.07))
    for z in (-0.9, 0.0, 0.4):
        expect = (0.1 + 0.2 * math.cos(z) - 0.3 * math.sin(z)
                  + 0.05 * math.cos(2 * z) + 0.07 * math.sin(2 * z))
        assert amp(z) == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize("amp", [
    Amplitude("poly", (0.5, -1.0, 2.0, 0.25)),
    Amplitude("trig", (0.1, 0.2, -0.3, 0.05, 0.07)),
])
def test_amplitude_derivative_matches_finite_difference(amp):
    d = amp.derivative()
    h = 1e-6
    for z in (-0.8, -0.1, 0.0, 0.5, 0.9):
        fd = (amp(z + h) - amp(z - h)) / (2 * h)
        assert d(z) == pytest.approx(fd, rel=1e-8, abs=1e-9)


def test_amplitude_derivative_closed_forms():
    assert Amplitude("poly", (3.0,)).derivative().coeffs == (0.0,)
    assert Amplitude("poly", (1.0, 2.0, 3.0)).derivative().coeffs == (2.0, 6.0)
    # d/dz [a cos z + b sin z] = b cos z - a sin z
    d = Amplitude("trig", (0.0, 2.0, 5.0)).derivative()
    assert d.coeffs == (0.0, 5.0, -2.0)


def test_amplitude_is_constant():
    assert Amplitude("poly", (1.0,)).is_constant
    assert Amplitude("poly", (1.0, 0.0)).is_constant
    assert not Amplitude("poly", (1.0, 0.1)).is_constant


def test_amplitude_validation():
    with pytest.raises(ValueError):
        Amplitude("fourier", (1.0,))
    with pytest.raises(ValueError):
        Amplitude("poly", ())


# ---------------------------------------------------------------------------
# evaluation and transforms
# ---------------------------------------------------------------------------

def quad_transform(spec, w):
    """T(w) = int S(v) cos(w v) dv by adaptive quadrature."""
    val, _ = integrate.quad(
        lambda v: float(spec.shape_value(v)) * math.cos(w * v),
        -60.0, 60.0, epsabs=1e-14, epsrel=1e-12, limit=400)
    return val


@pytest.mark.parametrize("shape,rate", [("gaussian", 1.0), ("sech", np.pi / 2),
                                        ("sech", 1.0)])
@pytest.mark.parametrize("w", [0.0, 0.7, 2.0, 5.0])
def test_shape_transform_matches_quadrature(shape, rate, w):
    spec = make_spec({0: 1.0}, shape=shape, rate=rate)
    assert float(spec.shape_transform(w)) == pytest.approx(
        quad_transform(spec, w), rel=1e-10, abs=1e-12)


def test_transform_closed_values():
    gauss = make_spec({0: 1.0}, shape="gaussian")
    assert float(gauss.shape_transform(0.0)) == pytest.approx(
        math.sqrt(math.pi), rel=1e-15)
    sech = make_spec({0: 1.0}, shape="sech", rate=np.pi / 2)
    assert float(sech.shape_transform(0.0)) == pytest.approx(2.0, rel=1e-15)


def test_sech_far_tails_are_zero_without_a_warning():
    # cosh overflows past |argument| 710: 1 / inf = 0 with no overflow
    # warning, which this suite raises as an error
    sech = make_spec({0: 8e-5}, shape="sech", rate=math.pi / 2)
    assert float(sech.shape_transform(1000.0)) == 0.0
    assert float(sech.shape_value(1000.0)) == 0.0
    assert float(sech.shape_dv(1000.0)) == 0.0


def test_profile_fourier_matches_2d_quadrature():
    spec = make_spec({0: 0.3, 1: 0.2, 2: -0.1}, shape="sech",
                     rate=np.pi / 2, scale=1.7)
    xs = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    for kx in (0, 1, 2):
        for kv in (0.0, 1.3, 4.0):
            # separable: (1/2pi) int f1 cos(kx x) dx  *  int S cos(kv v) dv
            fx = np.mean(spec.f1_value(xs, 0.0) * np.cos(kx * xs))
            got = float(PR.profile_fourier(spec, kx, kv, 0.0))
            assert got == pytest.approx(
                spec.scale * fx * quad_transform(spec, kv) * 2 * np.pi
                / (2 * np.pi), rel=1e-9, abs=1e-13)


def test_profile_fourier_unretained_mode_is_zero():
    spec = make_spec({0: 0.3, 1: 0.2})
    assert np.all(PR.profile_fourier(spec, 3, np.array([0.0, 1.0])) == 0.0)


def test_eval_profile_structure():
    spec = make_spec({0: 0.3, 2: 0.1}, shape="gaussian", scale=2.0)
    x, v = 1.1, -0.4
    expect = 2.0 * (0.3 + 2 * 0.1 * math.cos(2 * x)) * math.exp(-v * v)
    assert float(PR.eval_profile(spec, x, v)) == pytest.approx(expect,
                                                               rel=1e-15)


@pytest.mark.parametrize("shape,rate", [("gaussian", 1.0), ("sech", np.pi / 2)])
def test_profile_grad_matches_finite_difference(shape, rate):
    spec = make_spec({0: 0.3, 1: 0.2, 3: -0.05}, shape=shape, rate=rate,
                     scale=1.3)
    h = 1e-6
    rng = np.random.default_rng(7)
    for _ in range(6):
        x, v, z = rng.uniform(0, 2 * np.pi), rng.uniform(-3, 3), 0.2
        gx, gv = H.eval_profile_grad(spec, x, v, z)
        fdx = (PR.eval_profile(spec, x + h, v, z)
               - PR.eval_profile(spec, x - h, v, z)) / (2 * h)
        fdv = (PR.eval_profile(spec, x, v + h, z)
               - PR.eval_profile(spec, x, v - h, z)) / (2 * h)
        assert float(gx) == pytest.approx(float(fdx), rel=2e-8, abs=1e-10)
        assert float(gv) == pytest.approx(float(fdv), rel=2e-8, abs=1e-10)


def test_z_derivative_spec_linear():
    spec = make_spec({0: (2.0,), 1: (0.5, 0.25)})
    dspec = spec.z_derivative()
    assert dspec.amplitude_of(1).coeffs == (0.25,)
    assert dspec.amplitude_of(0).coeffs == (0.0,)
    d2 = dspec.z_derivative()
    assert d2.is_z_independent
    assert all(c == 0.0 for m in d2.modes for c in m.amplitude.coeffs)


def test_is_z_independent():
    assert make_spec({0: 1.0, 1: 0.5}).is_z_independent
    assert not make_spec({1: (0.5, 0.1)}).is_z_independent


# ---------------------------------------------------------------------------
# stable shifted difference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape,rate", [("gaussian", 1.0), ("sech", np.pi / 2)])
def test_shifted_difference_moderate_shifts(shape, rate):
    spec = make_spec({0: 0.3, 1: 0.2, 2: -0.1}, shape=shape, rate=rate,
                     scale=1.3)
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 2 * np.pi, 50)
    v = rng.uniform(-4, 4, 50)
    dx, dv = 0.3, -0.2
    got = PR.shifted_difference(spec, x, v, dx, dv, 0.1)
    direct = (PR.eval_profile(spec, x + dx, v + dv, 0.1)
              - PR.eval_profile(spec, x, v, 0.1))
    assert np.allclose(got, direct, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("shape,rate", [("gaussian", 1.0), ("sech", np.pi / 2)])
def test_shifted_difference_machine_scale_shifts(shape, rate):
    # at |shift| ~ 1e-12 the direct subtraction retains no correct digits;
    # the increment form must match the first-order gradient prediction
    spec = make_spec({0: 0.3, 1: 0.2}, shape=shape, rate=rate)
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 2 * np.pi, 40)
    v = rng.uniform(-3, 3, 40)
    dx, dv = 1.3e-12, -0.7e-12
    got = PR.shifted_difference(spec, x, v, dx, dv)
    gx, gv = H.eval_profile_grad(spec, x, v)
    linear = gx * dx + gv * dv
    assert np.allclose(got, linear, rtol=1e-9, atol=1e-25)


def test_shifted_difference_zero_shift():
    spec = make_spec({0: 0.3, 1: 0.2})
    assert np.all(PR.shifted_difference(spec, 1.0, 0.5, 0.0, 0.0) == 0.0)


# ---------------------------------------------------------------------------
# neutral density and gradient supremum
# ---------------------------------------------------------------------------

def test_neutral_density_values(ref_spec):
    # c0 * T(0) * scale = 8e-5 * (pi / (pi/2)) = 1.6e-4
    assert PR.neutral_density(ref_spec) == pytest.approx(1.6e-4, rel=1e-12)
    gauss = make_spec({0: 1.0}, shape="gaussian", scale=2.0)
    assert PR.neutral_density(gauss) == pytest.approx(2 * math.sqrt(math.pi),
                                                      rel=1e-14)
    assert PR.neutral_density(make_spec({1: 0.5})) == 0.0


def test_sup_gradient_single_mode_gaussian():
    # f* = c e^{-v^2}: |grad| = 2|v| c e^{-v^2}, peak sqrt(2/e) c at v = 1/sqrt2
    c = 0.37
    got = PR.sup_gradient(make_spec({0: c}, shape="gaussian"))
    assert got == pytest.approx(c * math.sqrt(2.0 / math.e), rel=1e-5)


def test_sup_gradient_scales_linearly():
    spec1 = make_spec({0: 0.3, 1: 0.2})
    spec2 = make_spec({0: 0.6, 1: 0.4})
    assert PR.sup_gradient(spec2) == pytest.approx(2 * PR.sup_gradient(spec1),
                                                   rel=1e-13)


# ---------------------------------------------------------------------------
# smoothness hypothesis
# ---------------------------------------------------------------------------

def test_weighted_transform_sup_sech_factor():
    # sup_w sech(c w) e^{a w} for r = a/c < 1: sqrt(1-r^2) e^{r artanh r}
    spec = make_spec({0: 1.0}, shape="sech", rate=1.0)   # decay rate pi/2
    for r in (0.25, 0.5, 0.9):
        w = np.linspace(0.0, 80.0, 400001)
        numeric = float((np.exp(r * w) / np.cosh(w)).max())
        analytic = math.sqrt(1 - r * r) * math.exp(r * math.atanh(r))
        assert analytic == pytest.approx(numeric, rel=1e-6)
        # the reported envelope margin is (pi/b) * factor / a1 for one k=0
        # mode of unit amplitude
        a = r * spec.transform_decay_rate
        rep = PR.check_smoothness(spec, a=a, a1=1.0)
        assert rep.envelope_ratio == pytest.approx(math.pi * analytic,
                                                   rel=1e-12)


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-8, 1e-9, 1e-12])
def test_sech_envelope_keeps_precision_near_the_decay_rate(gap):
    # sup_w sech(c w) e^{a w} = (1 + r)^{(1 + r)/2} (1 - r)^{(1 - r)/2} for
    # r = a/c < 1, in 40-digit mpmath; forming 1 - r^2 in floating point
    # would lose up to 3e-10 of it as r -> 1
    import mpmath
    spec = make_spec({0: 1.0}, shape="sech", rate=0.7)
    c = spec.transform_decay_rate
    a = (1.0 - gap) * c
    with mpmath.workdps(40):
        r = mpmath.mpf(a / c)
        exact = (mpmath.pi / mpmath.mpf(0.7)) * (1 + r) ** ((1 + r) / 2) \
            * (1 - r) ** ((1 - r) / 2)
    env = PR.check_smoothness(spec, a=a, a1=1.0).envelope_ratio
    assert env == pytest.approx(float(exact), rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(["sech", "gaussian"]), rate=st.floats(0.2, 3.0),
       frac=st.floats(0.01, 1.0))
def test_smoothness_envelope_is_the_sup_over_sampled_kv(shape, rate, frac):
    # T(kv) e^{a kv} sampled on 2001 points of [0, 10] never exceeds the
    # analytic envelope, and where the peak is interior a zoom into the
    # grid maximum's two cells reaches it; one k = 0 mode of unit amplitude
    # makes the envelope ratio the envelope itself
    spec = make_spec({0: 1.0}, shape=shape, rate=rate)
    if shape == "sech":
        c = spec.transform_decay_rate
        a = frac * c
        peak = math.atanh(frac) / c if frac < 1.0 else math.inf
    else:
        a = 5.0 * frac
        peak = 2.0 * a
    rep = PR.check_smoothness(spec, a=a, a1=1.0)
    env = rep.envelope_ratio
    assert rep.structural_ok and rep.margin == env

    def weighted(kv):
        return spec.shape_transform(kv) * np.exp(a * kv)

    # slack for the rounding of the exponents at the peak, up to 2 a^2 = 50
    # (gaussian) and atanh(a / c) (sech)
    kv = np.linspace(0.0, 10.0, 2001)
    sampled = weighted(kv)
    assert sampled.max() <= env * (1.0 + 1e-13)
    if 0.0 < peak < 10.0:
        i = int(np.argmax(sampled))
        zoom = weighted(np.linspace(kv[max(i - 1, 0)],
                                    kv[min(i + 1, kv.size - 1)], 2001))
        assert env * (1.0 - 1e-6) <= zoom.max() <= env * (1.0 + 1e-13)


def test_smoothness_gaussian_boundary():
    # envelope sup_w sqrt(pi) e^{-w^2/4} e^{a w} = sqrt(pi) e^{a^2};
    # choosing c0 = a1 e^{-a^2}/sqrt(pi) makes the margin exactly 1
    a, a1 = 1.0, 0.01
    c0 = a1 * math.exp(-a * a) / math.sqrt(math.pi)
    rep = PR.check_smoothness(make_spec({0: c0}, shape="gaussian"), a, a1)
    assert rep.margin == pytest.approx(1.0, rel=1e-12)
    assert rep.structural_ok
    # strictly inside the boundary the check passes
    inside = PR.check_smoothness(make_spec({0: c0 * (1 - 1e-9)},
                                           shape="gaussian"), a, a1)
    assert inside.check.passed


def test_smoothness_reference_margin(ref_spec):
    # sech with b = pi/2 has transform decay rate exactly a = 1, where the
    # weighted envelope is (pi/b) * 2 = 4; the k=0 mode dominates:
    # margin = 4 c0 / a1 = 4 * 8e-5 / 0.002 = 0.16
    rep = PR.check_smoothness(ref_spec, a=1.0, a1=0.002)
    assert rep.structural_ok
    assert rep.margin == pytest.approx(0.16, rel=1e-9)
    assert rep.per_mode[0] == pytest.approx(0.16, rel=1e-9)
    assert rep.check.passed


def test_smoothness_uses_the_magnitude_of_scale(ref_spec, ref_params):
    # scale -1 with negated amplitudes is the same f*, so the same margin
    def negated(spec, factor):
        return ProfileSpec(
            modes=tuple(Mode(m.k, Amplitude(m.amplitude.kind, tuple(
                -factor * c for c in m.amplitude.coeffs)))
                for m in spec.modes),
            shape=spec.shape, rate=spec.rate, scale=-spec.scale)

    p = ref_params
    flipped = PR.check_smoothness(negated(ref_spec, 1.0), p.a, p.a1)
    assert flipped.margin == PR.check_smoothness(ref_spec, p.a, p.a1).margin
    # amplitudes x100 give margin 16 while the mean density stays positive
    large = negated(ref_spec, 100.0)
    assert not PR.check_profile(large, p.a, p.a1, p.a2, p.K).checks[
        "smoothness"].passed
    with pytest.raises(HypothesisError, match="smoothness"):
        PR.require_hypotheses(large, p.a, p.a1, p.a2)


def test_smoothness_structural_failure():
    # sech rate b = 2 decays like e^{-pi w/4}, slower than e^{-w}
    spec = make_spec({0: 1e-5}, shape="sech", rate=2.0)
    rep = PR.check_smoothness(spec, a=1.0, a1=0.002)
    assert not rep.structural_ok and not rep.check.passed
    assert math.isinf(rep.margin)
    with pytest.raises(HypothesisError, match="decays slower"):
        PR.require_hypotheses(spec, 1.0, 0.002, 0.002)


def test_smoothness_mode_weighting():
    # margin carries the (1 + k^2) factor per mode
    rep = PR.check_smoothness(make_spec({2: 1e-4}), a=1.0, a1=0.002)
    assert rep.per_mode[2] == pytest.approx(
        1e-4 * 5 * 4 / 0.002, rel=1e-9)


# ---------------------------------------------------------------------------
# decay hypothesis
# ---------------------------------------------------------------------------

def test_decay_gaussian_peak_at_zero():
    # sup_v (1 + v^4) e^{-v^2} = 1 at v = 0 (the weighted shape decreases
    # away from the origin; +-1 are stationary but not maximal)
    a2 = 0.01
    rep, _ = PR.check_decay(make_spec({0: a2}, shape="gaussian"), a2)
    assert rep.margin == pytest.approx(1.0, rel=1e-10)
    assert rep.argmax_v == pytest.approx(0.0, abs=1e-12)
    assert rep.check.passed


def test_decay_sech_reference_oracle(ref_spec):
    # sup_x f1 = c0 + 2 c1 at x = 0; the weighted sech peak is computed on
    # an independent fine grid
    v = np.linspace(0.0, 8.0, 2000001)
    gmax = float(((1 + v ** 4) / np.cosh(np.pi * v / 2)).max())
    oracle = (8e-5 + 2 * 1e-5) * gmax / 0.002
    rep, _ = PR.check_decay(ref_spec, 0.002)
    assert rep.margin == pytest.approx(oracle, rel=1e-6)
    assert 2.3 < abs(rep.argmax_v) < 2.8
    assert rep.check.passed


def test_decay_gradient_order(ref_spec):
    # one call reports both orders, the gradient's second
    reps = PR.check_decay(ref_spec, 0.002)
    assert [(rep.derivative_order, rep.check.name) for rep in reps] == \
        [(0, "decay0"), (1, "decay1")]
    rep = reps[1]
    assert rep.check.passed and rep.margin > 0.0
    assert rep.margin == grid_sups(ref_spec, 0.0)[1][0] / 0.002


def test_decay_failure_raises():
    spec = make_spec({0: 1.0})     # amplitude 1 vs a2 = 0.002
    rep, _ = PR.check_decay(spec, 0.002)
    assert not rep.check.passed
    with pytest.raises(HypothesisError, match="decay"):
        PR.require_hypotheses(spec, 1.0, 1e6, 0.002)


SUP_Z = (-1.0, -0.3, 0.0, 0.7, 1.0)


@pytest.mark.parametrize("shape", ["gaussian", "sech"])
@pytest.mark.parametrize("modes", [
    {0: (8e-5, 1e-6, 2e-6), 1: (1e-5, 3e-6), 3: (-2e-6, 0.0, 1e-6)},
    {0: 8e-5},                          # equal rows; its derivatives vanish
], ids=["three_modes", "homogeneous"])
def test_grid_sups_equal_the_full_grid_bitwise(shape, modes):
    # the grid goes in row blocks; margins, argmax_v and sup_gradient must
    # still be what the whole 256 x 4001 grid gives, bit for bit, for the
    # profile and its first two z-derivatives
    grid_sups.cache_clear()
    spec = make_spec(modes, shape=shape)
    a2 = 0.002

    def oracle_decay(spec, z_samples, order):
        # the scan over z of the original check_decay
        worst, at_v = 0.0, 0.0
        for z in z_samples:
            want, want_v = full_grid_decay(spec, z, order)
            if want > worst or math.isnan(want):
                worst, at_v = want, want_v
        return worst / a2, at_v

    for _ in range(3):
        for z_samples in [(z,) for z in SUP_Z] + [SUP_Z]:
            for order, rep in enumerate(check_decay(spec, a2, z_samples)):
                assert (rep.margin, rep.argmax_v) == \
                    oracle_decay(spec, z_samples, order)
        for z in SUP_Z:
            assert sup_gradient(spec, z) == full_grid_sup_gradient(spec, z)
        spec = spec.z_derivative()


def test_grid_sups_nan_in_a_later_row_block_wins(monkeypatch):
    # rows past x = 3 are NaN: the finite maximum of the earlier row
    # blocks must not hide them, in both decay orders, as on the whole grid
    real = ProfileSpec.f1_value

    def spoiled(self, x, z):
        return np.where(np.asarray(x) > 3.0, math.nan, real(self, x, z))

    monkeypatch.setattr(ProfileSpec, "f1_value", spoiled)
    grid_sups.cache_clear()
    spec = make_spec({0: 8e-5, 1: 1e-5})
    got = grid_sups(spec, 0.0)
    grid_sups.cache_clear()
    for order in (0, 1):
        want = full_grid_decay(spec, 0.0, order)
        assert math.isnan(got[order][0]) and math.isnan(want[0])
        assert got[order][1] == want[1]


def test_grid_sups_first_nan_over_the_row_blocks_wins(monkeypatch):
    # the rows go in blocks of 4: row 5 (block 1) is NaN from v index 3000
    # on the grid, row 9 (block 2) from index 1000; the sup of |grad f*|
    # takes the first NaN in row-major order, row 5's, not the block's
    # with the earlier v
    real_s, real_ds = ProfileSpec.shape_value, ProfileSpec.shape_dv

    def f1(inf_row, zero_row):
        def rows(self, x, z):
            out = np.full(np.shape(x), 1e-3)
            out[inf_row], out[zero_row] = math.inf, 0.0
            return out
        return rows

    def zero_at(real, j):
        def shape(self, v):
            out = real(self, v).copy()
            out[j] = 0.0                # inf * 0 is NaN there
            return out
        return shape

    monkeypatch.setattr(ProfileSpec, "f1_dx", f1(5, 9))
    monkeypatch.setattr(ProfileSpec, "f1_value", f1(9, 5))
    monkeypatch.setattr(ProfileSpec, "shape_value", zero_at(real_s, 3000))
    monkeypatch.setattr(ProfileSpec, "shape_dv", zero_at(real_ds, 1000))
    grid_sups.cache_clear()
    spec = make_spec({0: 8e-5, 1: 1e-5})
    with np.errstate(invalid="ignore"):
        value, at_v = grid_sups(spec, 0.0)[1]
    grid_sups.cache_clear()
    v_half = PR._decay_v_window(spec)
    v = np.linspace(-v_half, v_half, PR._GRID_NV)
    assert PR._BLOCK_BYTES // (8 * len(v)) == 4
    assert math.isnan(value) and at_v == v[3000]


def test_grid_sups_cache_serves_the_corollary(ref_spec, ref_params):
    # a node's hypothesis gate and its corollary sup_gradient share a pass;
    # the gate reads both decay orders from one lookup
    grid_sups.cache_clear()
    p = ref_params
    require_hypotheses(ref_spec, p.a, p.a1, p.a2, z_samples=(0.25,))
    sup_gradient(ref_spec, 0.25)
    info = grid_sups.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

def test_check_profile_reference(ref_spec, ref_params):
    rep = PR.check_profile(ref_spec, ref_params.a, ref_params.a1,
                           ref_params.a2, ref_params.K)
    assert rep.passed
    assert len(rep.derivative_constants) == ref_params.K + 1
    # linear-in-z amplitudes: second z-derivative of the profile vanishes
    c1_2, c2_2 = rep.derivative_constants[2]
    assert c1_2 == 0.0 and c2_2 == 0.0
    # first derivative keeps only the slope-bearing k=1 mode
    c1_1, c2_1 = rep.derivative_constants[1]
    assert c1_1 == pytest.approx(3e-6 * 2 * 4, rel=1e-9)
    assert c2_1 > 0.0


@pytest.mark.parametrize("z_samples", [(math.nan,), (0.0, math.nan),
                                       (math.inf,)])
def test_non_finite_z_fails_hypotheses(ref_spec, ref_params, z_samples):
    # Horner's 0.0 * z makes every amplitude NaN; each margin must carry
    # the NaN so that its check fails instead of reading 0
    p = ref_params
    rep = PR.check_profile(ref_spec, p.a, p.a1, p.a2, p.K,
                           z_samples=z_samples)
    assert set(rep.checks) == {"smoothness", "decay0", "decay1"}
    for c in rep.checks.values():
        assert math.isnan(c.value) and not c.passed
    assert not rep.passed
    with pytest.raises(HypothesisError):
        PR.require_hypotheses(ref_spec, p.a, p.a1, p.a2, z_samples=z_samples)


@pytest.mark.parametrize("kind, coeffs", [("poly", (8e-5,)),
                                          ("trig", (8e-5, 1e-6, 2e-6))])
@pytest.mark.parametrize("z", [math.inf, -math.inf])
def test_infinite_z_amplitude_is_nan_for_both_kinds(ref_params, kind, coeffs,
                                                    z):
    # a trigonometric amplitude gives NaN at z = +-inf, as a polynomial one
    # does, instead of raising math.cos's ValueError; the hypotheses then
    # fail with HypothesisError
    assert math.isnan(Amplitude(kind, coeffs)(z))
    spec = ProfileSpec(modes=(Mode(0, Amplitude(kind, coeffs)),),
                       shape="sech", rate=math.pi / 2)
    p = ref_params
    with pytest.raises(HypothesisError):
        PR.require_hypotheses(spec, p.a, p.a1, p.a2, z_samples=(z,))


# amplitudes from 3e-7 to 3e-3 fall on both sides of the reference bounds
# (smoothness fails from about 3e-5 to 5e-4 by mode, decay from about 1e-3),
# sech rates above pi/2 fail the smoothness hypothesis structurally at
# a = 1, and a third of the z sample sets end in a nan or an infinity
_coeff = st.floats(-6.5, -2.5).flatmap(
    lambda e: st.sampled_from([10.0 ** e, -10.0 ** e]))
_amplitude = st.builds(Amplitude, st.sampled_from(["poly", "trig"]),
                       st.lists(_coeff, min_size=1, max_size=3).map(tuple))
_profile = st.builds(
    lambda ks, amps, shape, rate: ProfileSpec(
        modes=tuple(Mode(k, amp) for k, amp in zip(ks, amps)), shape=shape,
        rate=rate),
    st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True),
    st.lists(_amplitude, min_size=3, max_size=3),
    st.sampled_from(["gaussian", "sech"]), st.floats(0.5, 2.0))
_z_samples = st.builds(
    lambda finite, extra: tuple(finite + extra),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
    st.sampled_from([[]] * 6 + [[math.nan], [math.inf], [-math.inf]]))


@settings(max_examples=40, deadline=None)
@given(spec=_profile, z_samples=_z_samples)
def test_require_hypotheses_raises_exactly_when_a_check_fails(ref_params,
                                                              spec, z_samples):
    p = ref_params
    rep = PR.check_profile(spec, p.a, p.a1, p.a2, 1, z_samples=z_samples)
    failed = [name for name, c in rep.checks.items() if not c.passed]
    try:
        PR.require_hypotheses(spec, p.a, p.a1, p.a2, z_samples=z_samples)
    except HypothesisError:
        assert failed
    else:
        assert not failed


def test_profile_spec_validation():
    with pytest.raises(ValueError):
        ProfileSpec(modes=(Mode(0, Amplitude("poly", (1.0,))),
                           Mode(0, Amplitude("poly", (2.0,)))), shape="sech",
                    rate=1.0)
    with pytest.raises(ValueError):
        make_spec({0: 1.0}, shape="lorentz")
    with pytest.raises(ValueError):
        make_spec({0: 1.0}, shape="sech", rate=0.0)
    with pytest.raises(ValueError):
        Mode(-1, Amplitude("poly", (1.0,)))
