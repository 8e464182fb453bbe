"""Hot-kernel tests: explicit-sum oracles and quadrature identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers as H
from vlandau import kernels as K


def _case(nt=24, npart=40, seed=0):
    rng = np.random.default_rng(seed)
    times = 8.0 + 0.25 * np.arange(nt)
    x = rng.uniform(0, 2 * np.pi, npart)
    v = rng.uniform(-6, 6, npart)
    dX = 1e-3 * rng.standard_normal((nt, npart))
    wf = rng.uniform(0.1, 1.0, npart)
    nk = 9
    cre = rng.standard_normal((nt, nk)) * 1e-4
    cim = rng.standard_normal((nt, nk)) * 1e-4
    cim[:, 0] = 0.0
    return times, x, v, dX, wf, cre, cim


def _grid_case(nx, nv, row_scales, seed):
    """Solver-style labels x = repeat(xs, nv), v = tile(vs, nx) on the
    uniform 2 pi-periodic grid, with row n of dX scaled by row_scales[n]."""
    rng = np.random.default_rng(seed)
    nt = len(row_scales)
    times = 8.0 + 0.25 * np.arange(nt)
    xs = (2 * np.pi / nx) * np.arange(nx)
    vs = np.linspace(-6.0, 6.0, nv)
    x, v = np.repeat(xs, nv), np.tile(vs, nx)
    dX = np.asarray(row_scales)[:, None] * rng.standard_normal((nt, nx * nv))
    wf = rng.uniform(0.1, 1.0, nx * nv)
    nk = nx // 2 + 1
    cre = rng.standard_normal((nt, nk)) * 1e-4
    cim = rng.standard_normal((nt, nk)) * 1e-4
    return times, x, v, dX, wf, cre, cim


def _eval_rows_sum(cre, cim, x, v, times, dX):
    # layout: constant + 2 Re(c_k e^{ik theta}) + cosine-only Nyquist row
    theta = x[None, :] + v[None, :] * times[:, None] + dX
    c = cre + 1j * cim
    half = cre.shape[1] - 1
    out = np.full(theta.shape, cre[:, 0:1])
    for k in range(1, half):
        out = out + 2 * np.real(c[:, k:k + 1] * np.exp(1j * k * theta))
    return out + cre[:, -1:] * np.cos(half * theta)


def _corr_sum(wf, x, v, times, dX, nk):
    k = np.arange(nk)[:, None]
    out = np.empty((len(times), nk), dtype=complex)
    for n in range(len(times)):
        free = x + v * times[n]
        out[n] = (np.exp(-1j * k * free) * np.expm1(-1j * k * dX[n])) @ wf
    return out / (2 * np.pi)


@pytest.mark.parametrize("nx, nv, nt", [(64, 129, 176), (128, 65, 176),
                                        (32, 65, 88)])
def test_phase_table_is_cos_plus_i_sin(nx, nv, nt):
    # the phase rows equal cos(k v t) + i sin(k v t) bitwise on the grids
    # of the three benchmark workloads: one row at a time from the top
    # down, by the row blocks of a march, and all rows in one call
    times = 8.0 + (35.0 / (nt - 1)) * np.arange(nt)
    vs = np.linspace(-6.0, 6.0, nv)
    nk = nx // 2 + 1
    phi = times[:, None] * vs[None, :]
    want_re = np.stack([np.cos(k * phi) for k in range(nk)], axis=1)
    want_im = np.stack([np.sin(k * phi) for k in range(nk)], axis=1)

    def check(got, n0, n1):
        assert got.shape == (n1 - n0, nk, nv)
        assert got.real.tobytes() == want_re[n0:n1].tobytes(), (n0, n1)
        assert got.imag.tobytes() == want_im[n0:n1].tobytes(), (n0, n1)

    for n in range(nt - 1, -1, -1):
        check(K.phase_rows(vs, times[n:n + 1], nk), n, n + 1)
    blocks = K._row_blocks(nt, nx * nv)
    assert len(blocks) > 2
    for n0, n1 in blocks:
        check(K.phase_rows(vs, times[n0:n1], nk), n0, n1)
    check(K.phase_rows(vs, times, nk), 0, nt)


# ---------------------------------------------------------------------------
# mode-row evaluation
# ---------------------------------------------------------------------------

def test_eval_rows_matches_explicit_sum():
    times, x, v, dX, _, cre, cim = _grid_case(16, 5, [1e-3] * 24, 0)
    got = K.eval_rows(cre, cim, x, v, times, dX)
    expect = _eval_rows_sum(cre, cim, x, v, times, dX)
    assert np.allclose(got, expect, rtol=1e-12, atol=1e-16)


def test_eval_rows_reconstructs_rfft_table():
    # round trip: rfft coefficients of a sampled field evaluated at the
    # grid angles reproduce the table
    rng = np.random.default_rng(1)
    nx = 16
    vals = rng.standard_normal((5, nx))
    c = np.fft.rfft(vals, axis=1) / nx
    x = (2 * np.pi / nx) * np.arange(nx)
    got = K.eval_rows(np.ascontiguousarray(c.real),
                      np.ascontiguousarray(c.imag), x, np.zeros(nx),
                      np.zeros(5), np.zeros((5, nx)))
    assert np.allclose(got, vals, atol=1e-13)


# ---------------------------------------------------------------------------
# suffix quadrature rules
# ---------------------------------------------------------------------------

def test_suffix_trapz_matches_numpy_trapezoid():
    _, _, _, _, _, cre, _ = _case()
    g = cre[:, :5].copy()
    dt = 0.25
    got = K.suffix_trapz(g, dt)
    for n in range(g.shape[0]):
        expect = np.trapezoid(g[n:], dx=dt, axis=0)
        assert np.allclose(got[n], expect, rtol=1e-13, atol=1e-18)
    assert np.all(got[-1] == 0.0)


def test_suffix_trapz_moment_identity():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((30, 7))
    dt = 0.2
    plain, mom = K.suffix_trapz_moment(g, dt)
    assert np.allclose(plain, K.suffix_trapz(g, dt), rtol=1e-13, atol=1e-18)
    ts = dt * np.arange(30)
    for n in range(30):
        expect = np.trapezoid((ts[n:] - ts[n])[:, None] * g[n:], dx=dt,
                              axis=0)
        assert np.allclose(mom[n], expect, rtol=1e-12, atol=1e-14)


def test_exp_cell_weights_exact_for_weighted_linear():
    # the product rule integrates e^{-a s}(c0 + c1 s) exactly on each cell
    a, dt = 1.3, 0.2
    alpha, beta = K.exp_cell_weights(a, dt)
    c0, c1 = 0.7, -0.4
    s0 = 2.0

    def h(s):                      # integrand with the weight factored out
        return math.exp(-a * (s - s0)) * (c0 + c1 * s)

    exact = (math.exp(a * s0) / a ** 2) * (
        (a * (c0 + c1 * s0) + c1) * math.exp(-a * s0)
        - (a * (c0 + c1 * (s0 + dt)) + c1) * math.exp(-a * (s0 + dt)))
    assert alpha * h(s0) + beta * h(s0 + dt) == pytest.approx(exact,
                                                              rel=1e-13)


def test_exp_cell_weights_degenerate_to_trapezoid():
    alpha, beta = K.exp_cell_weights(0.0, 0.3)
    assert alpha == beta == pytest.approx(0.15, rel=1e-15)


@pytest.mark.parametrize("x", [0.5e-6, 0.99e-6, 1.01e-6, 2e-6, 1e-3])
def test_exp_cell_weights_small_argument_oracle(x):
    # both branches around the series switch must agree with the
    # cancellation-free expm1 forms alpha = (x + expm1(-x)) / (a^2 dt),
    # beta = (expm1(x) - x) / (a^2 dt)
    dt = 0.2
    a = x / dt
    alpha, beta = K.exp_cell_weights(a, dt)
    assert alpha == pytest.approx((x + math.expm1(-x)) / (a * a * dt),
                                  rel=1e-8)
    assert beta == pytest.approx((math.expm1(x) - x) / (a * a * dt),
                                 rel=1e-8)
    # alpha + beta = (2 cosh x - 2)/(a^2 dt) = dt (1 + x^2/12 + ...)
    assert alpha + beta == pytest.approx(dt * (1 + x * x / 12), rel=1e-9)


def test_suffix_weighted_integrates_decaying_exponential():
    # suffix integral of e^{-a s}(c0 + c1 s) is reproduced to roundoff,
    # where plain trapezoid would be off by ~(a dt)^2/12 relative
    a, dt, nt = 1.0, 0.2, 101
    ts = 8.0 + dt * np.arange(nt)
    c0, c1 = 0.3, 0.05
    g = np.exp(-a * ts) * (c0 + c1 * ts)
    alpha, beta = K.exp_cell_weights(a, dt)
    got = K.suffix_weighted(g[:, None], alpha, beta)[:, 0]

    def antider(t):   # -int e^{-a t}(c0 + c1 t)
        return math.exp(-a * t) * (a * (c0 + c1 * t) + c1) / a ** 2

    exact = np.array([antider(t) - antider(ts[-1]) for t in ts])
    assert np.allclose(got, exact, rtol=1e-12, atol=1e-18)
    # trapezoid on a pure exponential shows the (a dt)^2/12 convexity
    # overshoot that motivated the product rule
    ge = np.exp(-a * ts)
    exact_e = (ge - ge[-1]) / a
    trap = K.suffix_trapz(ge[:, None], dt)[:, 0]
    rel = (trap[0] - exact_e[0]) / exact_e[0]
    assert rel == pytest.approx((a * dt) ** 2 / 12.0, rel=0.01)
    prod = K.suffix_weighted(ge[:, None], alpha, beta)[:, 0]
    assert np.allclose(prod, exact_e, rtol=1e-12, atol=1e-18)


def test_suffix_weighted_trapezoid_weights_match_suffix_trapz():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((40, 6))
    dt = 0.25
    got = K.suffix_weighted(g, 0.5 * dt, 0.5 * dt)
    assert np.allclose(got, K.suffix_trapz(g, dt), rtol=1e-13, atol=1e-16)


def _dense_volterra(g, f, dt):
    """(A, I) of y = I[g y + f] by one dense linear solve per column.

    W[n, m] = (t_m - t_n) w_m is the composite-trapezoid moment matrix
    (w_m = dt, dt/2 at the last node; m = n carries weight 0) and V the
    plain suffix-trapezoid matrix, so I = W (g I + f) and A = V (g I + f).
    """
    nt = g.shape[0]
    w = np.full(nt, dt)
    w[-1] = 0.5 * dt
    steps = np.arange(nt)
    upper = np.triu(np.ones((nt, nt)), k=1)
    W = upper * ((steps[None, :] - steps[:, None]) * dt) * w[None, :]
    V = upper * w[None, :]
    V[np.arange(nt - 1), np.arange(nt - 1)] = 0.5 * dt
    f = np.broadcast_to(f, g.shape)
    mom = np.empty(g.shape)
    for p in range(g.shape[1]):
        mom[:, p] = np.linalg.solve(np.eye(nt) - W * g[None, :, p],
                                    W @ f[:, p])
    return V @ (g * mom + f), mom


@settings(max_examples=25, deadline=None)
@given(nt=st.integers(2, 60), length=st.floats(0.5, 30.0),
       t0=st.floats(0.0, 10.0), size=st.floats(1e-6, 10.0),
       sign=st.sampled_from([-1.0, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_suffix_volterra_matches_dense_solve(nt, length, t0, size, sign,
                                             seed):
    # |g| (t_end - t0)^2 up to 10, entries of either sign; the forcings of
    # the variational solve, f = g and f = g t, and one unrelated to g
    strength = sign * size
    rng = np.random.default_rng(seed)
    dt = length / (nt - 1)
    times = t0 + dt * np.arange(nt)
    g = (strength / length ** 2) * rng.uniform(-1.0, 1.0, (nt, 3))
    g[:, 0] = strength / length ** 2            # one column of fixed sign
    for f in (g, g * times[:, None], rng.standard_normal((nt, 3))):
        acc, mom = H.suffix_volterra(g, f, dt)
        want_acc, want_mom = _dense_volterra(g, f, dt)
        for got, want in ((mom, want_mom), (acc, want_acc)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("gamma", [0.8, -0.8])
def test_suffix_volterra_is_second_order_on_closed_form(gamma):
    # constant g = gamma, c = 1: y'' = gamma (1 + y) with y = y' = 0 at
    # t_end, so 1 + y = cosh(sqrt(gamma) (T - t)) and
    # A = sqrt(gamma) sinh(sqrt(gamma) (T - t)) (cos/sin forms for gamma < 0)
    t0, t_end = 2.0, 7.0
    root = math.sqrt(abs(gamma))

    def errors(nt):
        times = np.linspace(t0, t_end, nt)
        u = root * (t_end - times)
        if gamma > 0:
            y, a = np.cosh(u) - 1.0, root * np.sinh(u)
        else:
            y, a = np.cos(u) - 1.0, -root * np.sin(u)
        acc, mom = H.suffix_volterra(np.full((nt, 1), gamma), gamma,
                                     times[1] - times[0])
        return np.abs(mom[:, 0] - y).max(), np.abs(acc[:, 0] - a).max()

    coarse, fine = errors(101), errors(201)
    for e_coarse, e_fine in zip(coarse, fine):
        assert e_coarse / e_fine == pytest.approx(4.0, rel=0.1)


def test_suffix_pass_solves_an_integrand_of_its_own_moment():
    # h_n = f_n + sin(5 I_n) reads the moment of its own row: the one pass
    # is bitwise a fixed point of the moment rule, and each row is asked
    # for once, from the last
    rng = np.random.default_rng(3)
    nt, dt = 40, 0.3
    f = rng.standard_normal((nt, 4))
    asked = []

    def integrand(n, y):
        asked.append(n)
        return f[n] + np.sin(5.0 * y)

    acc, mom = H.suffix_tables(integrand, f.shape, dt)
    assert asked == list(range(nt - 1, -1, -1))
    plain, moment = K.suffix_trapz_moment(f + np.sin(5.0 * mom), dt)
    assert np.array_equal(moment, mom) and np.array_equal(plain, acc)


# ---------------------------------------------------------------------------
# density-correction modes
# ---------------------------------------------------------------------------

def test_corr_fourier_matches_complex_sum():
    times, x, v, dX, wf, _, _ = _grid_case(10, 3, [1e-3] * 12, 4)
    nk = 6
    modes = K.corr_fourier(wf, x, v, times, dX, nk)
    re, im = modes.real, modes.imag
    two_pi = 2 * np.pi
    for n in range(len(times)):
        free = x + v * times[n]
        for k in range(nk):
            z = (wf * np.exp(-1j * k * free)
                 * (np.exp(-1j * k * dX[n]) - 1.0)).sum() / two_pi
            assert re[n, k] == pytest.approx(z.real, abs=1e-15)
            assert im[n, k] == pytest.approx(z.imag, abs=1e-15)
    assert np.all(re[:, 0] == 0.0) and np.all(im[:, 0] == 0.0)


def test_corr_fourier_per_row_weights_match_complex_sum():
    # weights of shape (nt, P), one row per time, on rows both inside the
    # Taylor radius and reduced onto the grid (the order-0 term of moved
    # weights); one row of the table equals the (P,) weights bitwise
    times, x, v, dX, _, _, _ = _grid_case(8, 5, [1e-3, 0.5, 2.0, 1e-12], 9)
    w = np.random.default_rng(10).uniform(-1.0, 1.0, dX.shape)
    nk = 5
    modes = K.corr_fourier(w, x, v, times, dX, nk)
    re, im = modes.real, modes.imag
    expect = np.array([_corr_sum(w[n], x, v, times[n:n + 1], dX[n:n + 1],
                                 nk)[0] for n in range(len(times))])
    atol = 50 * np.finfo(float).eps * np.abs(w).sum(axis=1).max()
    assert np.abs(re + 1j * im - expect).max() <= atol
    for n in range(len(times)):
        row = K.corr_fourier(w[n], x, v, times, dX, nk)
        assert np.array_equal(row.real[n], re[n])
        assert np.array_equal(row.imag[n], im[n])


def test_corr_fourier_matches_complex_sum_at_production_size(rows_formed):
    # reference grids (P = 64 x 129 particles, nt = 176, nx = 64): well
    # above numpy's pairwise-summation block, so the kernel's BLAS
    # reduction and the oracle's sum agree to summation roundoff, on the
    # scale eps * sum|wf|
    nx, nv, nt = 64, 129, 176
    times, x, v, dX, wf, _, _ = _grid_case(nx, nv, [1e-3] * nt, 21)
    nk = nx // 2 + 1
    modes = K.corr_fourier(wf, x, v, times, dX, nk)
    re, im = modes.real, modes.imag
    assert rows_formed == [nt]
    expect = _corr_sum(wf, x, v, times, dX, nk)
    atol = 50 * np.finfo(float).eps * np.abs(wf).sum()
    assert np.abs(re - expect.real).max() <= atol
    assert np.abs(im - expect.imag).max() <= atol


def test_corr_fourier_tiny_displacement_linearizes():
    # for |k dX| ~ 1e-14 the correction must follow -i k dX, not collapse
    # into subtraction noise, also when the displacements differ in size
    # and sign from particle to particle
    times, x, v, dX, wf, _, _ = _grid_case(6, 5, [1e-14] * 6, 6)
    modes = K.corr_fourier(wf, x, v, times, dX, 4)
    re, im = modes.real, modes.imag
    two_pi = 2 * np.pi
    for n in range(6):
        for k in (1, 2, 3):
            z = (wf * np.exp(-1j * k * (x + v * times[n]))
                 * (-1j * k * dX[n])).sum() / two_pi
            assert re[n, k] == pytest.approx(z.real, rel=1e-6, abs=1e-30)
            assert im[n, k] == pytest.approx(z.imag, rel=1e-6, abs=1e-30)


# ---------------------------------------------------------------------------
# cloud-in-cell deposition
# ---------------------------------------------------------------------------

def test_cic_density_conserves_charge():
    rng = np.random.default_rng(9)
    wf = rng.uniform(0.1, 1.0, 200)
    pos = rng.uniform(-10, 30, (5, 200))
    nx, dx = 32, 2 * np.pi / 32
    rho = K.cic_density(wf, pos, nx, dx)
    assert np.allclose(rho.sum(axis=1) * dx, wf.sum(), rtol=1e-13)


def test_cic_density_hat_weights():
    nx, dx = 16, 2 * np.pi / 16
    # particle exactly on node 3: all mass in one cell
    rho = K.cic_density(np.array([2.0]), np.array([[3 * dx]]), nx, dx)
    assert rho[0, 3] == pytest.approx(2.0 / dx, rel=1e-13)
    assert np.count_nonzero(rho) == 1
    # particle mid-cell: split evenly between nodes 3 and 4
    rho = K.cic_density(np.array([2.0]), np.array([[3.5 * dx]]), nx, dx)
    assert rho[0, 3] == pytest.approx(1.0 / dx, rel=1e-13)
    assert rho[0, 4] == pytest.approx(1.0 / dx, rel=1e-13)
    # periodic wrap at the right edge
    rho = K.cic_density(np.array([1.0]), np.array([[(nx - 0.5) * dx]]), nx, dx)
    assert rho[0, nx - 1] == pytest.approx(0.5 / dx, rel=1e-13)
    assert rho[0, 0] == pytest.approx(0.5 / dx, rel=1e-13)


def test_cic_density_pert_matches_table_difference():
    # at displacements large enough for the naive difference to be accurate
    # the two formulations agree to roundoff
    times, x, v, _, wf, _, _ = _case(nt=6, npart=50, seed=10)
    rng = np.random.default_rng(11)
    dX = 0.3 * rng.standard_normal((6, 50))
    nx, dx = 32, 2 * np.pi / 32
    got = K.cic_density_pert(wf, x, v, times, dX, nx, dx)
    free = x[None, :] + v[None, :] * times[:, None]
    expect = (K.cic_density(wf, free + dX, nx, dx)
              - K.cic_density(wf, free, nx, dx))
    assert np.allclose(got, expect, rtol=1e-11, atol=1e-13)


def test_cic_density_pert_same_cell_transfer():
    # one particle nudged within its cell: the perturbation is the exact
    # linear transfer wf * delta / dx^2 between the two supporting nodes
    nx, dx = 16, 2 * np.pi / 16
    x = np.array([3.25 * dx])
    v = np.array([0.0])
    times = np.array([8.0])
    delta = 1e-13 * dx
    out = K.cic_density_pert(np.array([1.0]), x, v, times,
                             np.array([[delta]]), nx, dx)
    exact = delta / dx ** 2
    # abs=0: pytest.approx's default abs=1e-12 would accept any value here
    assert out[0, 4] == pytest.approx(exact, rel=1e-12, abs=0)
    assert out[0, 3] == pytest.approx(-exact, rel=1e-12, abs=0)
    # a full-table subtraction loses most of the transfer to cancellation
    one = np.array([1.0])
    naive = (K.cic_density(one, (x + delta)[None, :], nx, dx)
             - K.cic_density(one, x[None, :], nx, dx))
    assert abs(naive[0, 4] - exact) > 1e-6 * exact


# ---------------------------------------------------------------------------
# tensor-grid FFT path and its range reduction
# ---------------------------------------------------------------------------

def test_taylor_order_is_smallest_certified_order():
    assert K.taylor_order(0.0) == (0, 0.0)
    assert K.taylor_order(0.0, lowest=1) == (0, 0.0)
    for r in (1e-30, 1e-14, 9.3e-7, 1e-3, 0.3, 1.0, 1.5, math.pi / 2):
        for lowest in (0, 1):
            order, rem = K.taylor_order(r, lowest)
            assert order >= lowest
            assert rem == r ** (order + 1 - lowest) / math.factorial(order + 1)
            assert rem < 2.0 ** -53
            if order > lowest:      # one order fewer would not certify
                assert (r ** (order - lowest) / math.factorial(order)
                        >= 2.0 ** -53)
    # the reference run's radius needs second order for e^{ikd} and third
    # for e^{-ikd} - 1
    assert K.taylor_order(9.3e-7)[0] == 2
    assert K.taylor_order(9.3e-7, lowest=1)[0] == 3
    for bad in (1.6, -1e-3, math.nan):
        with pytest.raises(ValueError):
            K.taylor_order(bad)


def _remainders(times, v, dX, nk):
    """(eval_block's, a corr_evaluator's) returned remainder on the rows
    of dX at the times, for zero mode rows and unit weights on the tensor
    grid of the labels v with nk modes."""
    nv = dX.shape[1] // (2 * (nk - 1))
    phases = K.phase_rows(v[:nv], times, nk)
    out = np.empty(dX.shape)
    modes = np.empty((len(dX), nk), dtype=complex)
    return (K.eval_block(out, np.zeros((len(dX), nk), dtype=complex), dX,
                         phases),
            K.corr_evaluator()(modes, np.ones(dX.shape[1]), dX, phases))


def _assert_row_remainders(times, v, dX, nk):
    """Each row's remainder, the larger of the two the row kernels return
    on it, is below 2^-53 on a row the kernels need not reduce, and below
    2^-53 + 8 k_max ulp(max|dX_n|) on a reduced row, whose remainder adds
    the rounding of the reduction."""
    kmax = nk - 1
    for n, row in enumerate(dX):
        big = float(np.abs(row).max())
        extra = 8 * kmax * math.ulp(big) if kmax * big > math.pi / 2 else 0.0
        assert max(_remainders(times[n:n + 1], v, row[None], nk)) \
            < 2.0 ** -53 + extra


def _assert_matches_mpmath(times, x, v, dX, wf, cre, cim):
    """Both kernels against 30-digit sums: eval_rows within 1e-13 of the
    row's coefficient scale, corr_fourier within 1e-13 of
    (1/2pi) sum_p wf_p |e^{-ik dX_p} - 1|, so that rows without
    displacement must be exact; corr_fourier's k = 0 column is exactly 0."""
    import mpmath
    mp = mpmath.mp
    mp.dps = 30
    nk = cre.shape[1]
    half = nk - 1
    rows = K.eval_rows(cre, cim, x, v, times, dX)
    modes = K.corr_fourier(wf, x, v, times, dX, nk)
    re, im = modes.real, modes.imag
    assert np.all(re[:, 0] == 0.0) and np.all(im[:, 0] == 0.0)
    for n in range(len(times)):
        scale = abs(cre[n, 0]) + abs(cre[n, half]) + 2 * sum(
            math.hypot(cre[n, k], cim[n, k]) for k in range(1, half))
        for p in range(x.shape[0]):
            theta = mp.mpf(x[p]) + mp.mpf(v[p]) * mp.mpf(times[n]) \
                + mp.mpf(dX[n, p])
            exact = mp.mpf(cre[n, 0]) + mp.mpf(cre[n, half]) * mp.cos(
                half * theta)
            for k in range(1, half):
                exact += 2 * mp.re(mp.mpc(cre[n, k], cim[n, k])
                                   * mp.expj(k * theta))
            assert abs(rows[n, p] - float(exact)) <= 1e-13 * scale
        for k in range(1, nk):
            exact = mp.mpc(0)
            size = mp.mpf(0)
            for p in range(x.shape[0]):
                free = mp.mpf(x[p]) + mp.mpf(v[p]) * mp.mpf(times[n])
                diff = mp.expj(-k * mp.mpf(dX[n, p])) - 1
                exact += mp.mpf(wf[p]) * mp.expj(-k * free) * diff
                size += mp.mpf(wf[p]) * abs(diff)
            exact /= 2 * mp.pi
            size /= 2 * mp.pi
            assert abs(re[n, k] - float(mp.re(exact))) <= 1e-13 * float(size)
            assert abs(im[n, k] - float(mp.im(exact))) <= 1e-13 * float(size)


def test_fft_path_matches_mpmath_sums(rows_formed):
    # 30-digit oracle for both kernels on a small tensor grid (grid step
    # pi/4); the rows cover no displacement, two Taylor orders, a larger
    # radius, rows reduced by up to about three grid steps and a row of
    # whole grid steps
    nx, nv = 8, 5
    times, x, v, dX, wf, cre, cim = _grid_case(
        nx, nv, [0.0, 1e-9, 1e-5, 2e-2, 0.4, 1.0, 0.0], 31)
    step = 2 * np.pi / nx
    dX[-1] = step * np.random.default_rng(32).integers(-3, 4, nx * nv)
    assert np.abs(dX[5]).max() > 2 * step
    _assert_matches_mpmath(times, x, v, dX, wf, cre, cim)
    assert rows_formed == [len(times)] * 2
    assert 0.0 < max(_remainders(times, v, dX, nx // 2 + 1))
    _assert_row_remainders(times, v, dX, nx // 2 + 1)


@st.composite
def _grid_rows(draw):
    """(nx, nv, row scales, seed): each row scale is 0 or log-uniform from
    1e-14 to three grid steps."""
    nx = draw(st.sampled_from([4, 8, 16]))
    nv = draw(st.sampled_from([1, 3, 5]))
    top = math.log10(3 * 2 * np.pi / nx)
    scale = st.floats(-14.0, top).map(lambda e: 10.0 ** e)
    scales = draw(st.lists(st.just(0.0) | scale, min_size=1, max_size=3))
    return nx, nv, scales, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=25, deadline=None)
@given(_grid_rows())
def test_kernels_match_mpmath_sums_on_random_grids(case):
    # each row displaces its particles uniformly by up to its scale, of
    # either sign
    nx, nv, scales, seed = case
    times, x, v, _, wf, cre, cim = _grid_case(nx, nv, scales, seed)
    u = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                            (len(scales), nx * nv))
    dX = np.asarray(scales)[:, None] * u
    _assert_matches_mpmath(times, x, v, dX, wf, cre, cim)
    _assert_row_remainders(times, v, dX, nx // 2 + 1)


def test_fft_path_corr_fourier_matches_complex_sum_at_production_size(
        rows_formed):
    # reference grids (nx = 64, nv = 129, nt = 176) with displacements
    # decaying from 1e-3 to 2e-8 along the rows, so many Taylor orders
    # and row blocks occur; same tolerance as the uniform-scale test
    nx, nv, nt = 64, 129, 176
    times = 8.0 + 0.25 * np.arange(nt)
    scales = 1e-3 * np.exp(-(times - 8.0) / 4.0)
    times, x, v, dX, wf, _, _ = _grid_case(nx, nv, scales, 22)
    nk = nx // 2 + 1
    modes = K.corr_fourier(wf, x, v, times, dX, nk)
    re, im = modes.real, modes.imag
    assert rows_formed == [nt]
    expect = _corr_sum(wf, x, v, times, dX, nk)
    atol = 50 * np.finfo(float).eps * np.abs(wf).sum()
    assert np.abs(re - expect.real).max() <= atol
    assert np.abs(im - expect.imag).max() <= atol


def test_fft_path_corr_fourier_tiny_displacement_linearizes(rows_formed):
    # on the tensor grid too, |k dX| ~ 1e-14 must give -i k dX
    nx, nv = 8, 5
    times, x, v, _, wf, _, _ = _grid_case(nx, nv, [0.0] * 6, 6)
    dX = np.full((6, nx * nv), 1e-14)
    modes = K.corr_fourier(wf, x, v, times, dX, 4 + 1)
    re, im = modes.real, modes.imag
    assert rows_formed == [6]
    two_pi = 2 * np.pi
    for n in range(6):
        for k in (1, 2, 3, 4):
            z = (wf * np.exp(-1j * k * (x + v * times[n]))
                 * (-1j * k * 1e-14)).sum() / two_pi
            assert re[n, k] == pytest.approx(z.real, rel=1e-6, abs=1e-30)
            assert im[n, k] == pytest.approx(z.imag, rel=1e-6, abs=1e-30)


def test_rows_beyond_taylor_radius_are_reduced_onto_the_grid(rows_formed):
    # rows 0 and 2 have k_max |dX_n| > pi/2 and are reduced onto the grid,
    # rows 1 and 3 are not; every row must match the explicit sums, and the
    # reduced rows' remainders stay certified
    nx, nv = 16, 9
    times, x, v, dX, wf, cre, cim = _grid_case(nx, nv,
                                               [0.5, 1e-4, 2.0, 1e-8], 12)
    nk = nx // 2 + 1
    r = (nk - 1) * np.abs(dX).max(axis=1)
    assert r[0] > np.pi / 2 and r[2] > 2 * np.pi and r[1] < 1 and r[3] < 1
    rows = K.eval_rows(cre, cim, x, v, times, dX)
    assert np.allclose(rows, _eval_rows_sum(cre, cim, x, v, times, dX),
                       rtol=1e-12, atol=1e-16)
    modes = K.corr_fourier(wf, x, v, times, dX, nk)
    re, im = modes.real, modes.imag
    expect = _corr_sum(wf, x, v, times, dX, nk)
    atol = 50 * np.finfo(float).eps * np.abs(wf).sum()
    assert np.abs(re - expect.real).max() <= atol
    assert np.abs(im - expect.imag).max() <= atol
    assert rows_formed == [len(times)] * 2
    assert 0.0 < max(_remainders(times, v, dX, nk))
    _assert_row_remainders(times, v, dX, nk)


def test_range_reduction_rounding_is_certified():
    # rows of |dX| about 1e2, 1e6 and 1e10 at nx 8: s = dX - q h carries
    # the rounding of q h and of h, which the remainder of each row must
    # bound against 40-digit sums, for eval_rows relative to the row's
    # coefficient scale and for corr_fourier relative to
    # (1/2pi) sum_p |wf_p|; the Taylor series alone leaves below 1e-16
    import mpmath
    mp = mpmath.mp
    mp.dps = 40
    nx, nv = 8, 3
    times, x, v, _, wf, cre, cim = _grid_case(nx, nv, [0.0] * 3, 3)
    cre, cim = cre * 1e4, cim * 1e4
    nk = nx // 2 + 1
    half = nk - 1
    u = np.random.default_rng(3).uniform(0.5, 1.0, (3, nx * nv))
    dX = np.array([1e2, 1e6, 1e10])[:, None] * u
    rows = K.eval_rows(cre, cim, x, v, times, dX)
    modes = K.corr_fourier(wf, x, v, times, dX, nk)
    re, im = modes.real, modes.imag
    for n in range(len(times)):
        cert = max(_remainders(times[n:n + 1], v, dX[n:n + 1], nk))
        assert cert < 1e3 * dX[n].max() * 2.0 ** -52, n
        scale = abs(cre[n, 0]) + abs(cre[n, half]) + 2 * sum(
            math.hypot(cre[n, k], cim[n, k]) for k in range(1, half))
        err = 0.0
        for p in range(x.shape[0]):
            theta = mp.mpf(x[p]) + mp.mpf(v[p]) * mp.mpf(times[n]) \
                + mp.mpf(dX[n, p])
            exact = mp.mpf(cre[n, 0]) + mp.mpf(cre[n, half]) * mp.cos(
                half * theta)
            for k in range(1, half):
                exact += 2 * mp.re(mp.mpc(cre[n, k], cim[n, k])
                                   * mp.expj(k * theta))
            err = max(err, abs(rows[n, p] - float(exact)))
        assert err <= cert * scale, (n, err / scale, cert)
        size = float(np.abs(wf).sum()) / (2 * math.pi)
        for k in range(1, nk):
            exact = mp.mpc(0)
            for p in range(x.shape[0]):
                free = mp.mpf(x[p]) + mp.mpf(v[p]) * mp.mpf(times[n])
                exact += mp.mpf(wf[p]) * mp.expj(-k * free) * (
                    mp.expj(-k * mp.mpf(dX[n, p])) - 1)
            err = float(abs(mp.mpc(re[n, k], im[n, k]) - exact / (2 * mp.pi)))
            assert err <= cert * size, (n, k, err / size, cert)
    # a row that needs no reduction adds nothing to its Taylor remainder
    small = 1e-3 * u[:1]
    assert _remainders(times[:1], v, small, nk) == tuple(
        K.taylor_order(float(half * np.abs(small).max()), lowest)[1]
        for lowest in (0, 1))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_rows_come_out_nan(value):
    # a row with a non-finite displacement is NaN in eval_rows and in
    # corr_fourier's columns k >= 1, its k = 0 column stays exactly 0, the
    # other rows are unchanged, nothing warns, and the remainder is inf
    nx, nv = 8, 3
    times, x, v, dX, wf, cre, cim = _grid_case(nx, nv, [1e-3, 1e-3, 0.5], 16)
    nk = nx // 2 + 1
    clean_rows = K.eval_rows(cre, cim, x, v, times, dX)
    modes = K.corr_fourier(wf, x, v, times, dX, nk)
    clean_re, clean_im = modes.real, modes.imag
    dX[1, 4] = value
    rows = K.eval_rows(cre, cim, x, v, times, dX)
    modes = K.corr_fourier(wf, x, v, times, dX, nk)
    re, im = modes.real, modes.imag
    assert np.isnan(rows[1]).all()
    assert np.isnan(re[1, 1:]).all() and np.isnan(im[1, 1:]).all()
    assert re[1, 0] == 0.0 and im[1, 0] == 0.0
    kept = [0, 2]
    assert np.array_equal(rows[kept], clean_rows[kept])
    assert np.array_equal(re[kept], clean_re[kept])
    assert np.array_equal(im[kept], clean_im[kept])
    assert _remainders(times, v, dX, nk) == (math.inf, math.inf)


@pytest.mark.parametrize("scale", [1e15, 1e17, 1e270])
def test_rows_too_large_to_reduce_come_out_nan(scale):
    # a finite row so large that dX - rint(dX/h) h keeps no digit at the
    # scale of h is treated like a row that is not finite
    nx, nv = 8, 3
    times, x, v, dX, wf, cre, cim = _grid_case(nx, nv, [1e-3, 1e-3, 0.5], 16)
    nk = nx // 2 + 1
    clean_rows = K.eval_rows(cre, cim, x, v, times, dX)
    modes = K.corr_fourier(wf, x, v, times, dX, nk)
    clean_re, clean_im = modes.real, modes.imag
    dX[1] = scale * np.linspace(1.0, 2.0, dX.shape[1])
    h = np.pi / (nk - 1)
    reduced = dX[1] - np.rint(dX[1] / h) * h
    assert (nk - 1) * np.abs(reduced).max() > np.pi / 2
    rows = K.eval_rows(cre, cim, x, v, times, dX)
    modes = K.corr_fourier(wf, x, v, times, dX, nk)
    re, im = modes.real, modes.imag
    assert np.isnan(rows[1]).all()
    assert np.isnan(re[1, 1:]).all() and np.isnan(im[1, 1:]).all()
    assert re[1, 0] == 0.0 and im[1, 0] == 0.0
    kept = [0, 2]
    assert np.array_equal(rows[kept], clean_rows[kept])
    assert np.array_equal(re[kept], clean_re[kept])
    assert np.array_equal(im[kept], clean_im[kept])
    assert _remainders(times, v, dX, nk) == (math.inf, math.inf)


def test_row_evaluator_is_eval_rows_one_row_at_a_time(rows_formed):
    # eval_block gives the same values bitwise on reduced, unreduced, zero
    # and non-finite rows, from the phase rows formed in one call, and
    # returns the whole-table remainder of its rows (lowest 0): inf with
    # the non-finite row, 0.0 on the zero row; stacked mode rows
    # (nt, L, nk) give each of their L rows bitwise as its own call does,
    # by rows and on all rows at once
    nx, nv = 16, 9
    times, x, v, dX, wf, cre, cim = _grid_case(
        nx, nv, [0.5, 1e-4, 2.0, 0.0, 1e-3], 12)
    dX[4, 3] = math.nan
    nk = nx // 2 + 1
    assert (nk - 1) * np.abs(dX[0]).max() > math.pi / 2      # reduced
    rows = K.eval_rows(cre, cim, x, v, times, dX)
    phases = K.phase_rows(v[:nv], times, nk)
    c = cre + 1j * cim
    by_rows = K.eval_block
    out = np.empty(rows.shape)
    left = [by_rows(out[n:n + 1], c[n:n + 1], dX[n:n + 1], phases[n:n + 1])
            for n in range(len(times))]
    assert np.isnan(out[4]).all()
    assert np.array_equal(out, rows, equal_nan=True)
    assert left == [H.truncation_remainder(dX[n:n + 1], nk, (0,))
                    for n in range(len(times))]
    assert left[3] == 0.0 and left[4] == math.inf
    assert 0.0 < left[0] < math.inf and 0.0 < left[2] < math.inf
    zero = np.zeros((2, x.shape[0]))
    assert by_rows(out[3:5], c[3:5], zero, phases[3:5]) == 0.0

    other = np.random.default_rng(12).standard_normal((2,) + cre.shape)
    stack = np.stack([c, 1e-4 * (other[0] + 1j * other[1]),
                      c * 1j * np.arange(c.shape[1])], axis=1)
    stacked = np.empty((len(times), 3, x.shape[0]))
    for n in range(len(times)):
        by_rows(stacked[n:n + 1], stack[n:n + 1], dX[n:n + 1],
                phases[n:n + 1])
    at_once = np.empty(stacked.shape)
    assert by_rows(at_once[:4], stack[:4], dX[:4], phases[:4]) \
        == H.truncation_remainder(dX[:4], nk, (0,)) == max(left[:4])
    assert by_rows(at_once, stack, dX, phases) == math.inf
    assert rows_formed == [len(times)] * 2
    for line in range(3):
        for n in range(len(times)):
            by_rows(out[n:n + 1], stack[n:n + 1, line], dX[n:n + 1],
                    phases[n:n + 1])
        assert np.isnan(stacked[4, line]).all()
        assert np.array_equal(stacked[:, line], out, equal_nan=True), line
        assert np.array_equal(at_once[:, line], out, equal_nan=True), line
    assert np.array_equal(stacked[:, 0], rows, equal_nan=True)


@pytest.mark.parametrize("per_row", [False, True])
def test_corr_evaluator_is_corr_fourier_one_row_at_a_time(rows_formed,
                                                           per_row):
    # the same complex modes bitwise on reduced, unreduced, zero and
    # non-finite rows, for one weight row or a weight row per time row,
    # from the phase rows formed in one call, and the whole-table
    # remainder of the rows (lowest 1): inf with the non-finite row, 0.0
    # on the zero row; stacked weight lines,
    # (1, L, P) or (rows, L, P), give each of their L lines bitwise as its
    # own call does, by rows and on all rows at once (where the two
    # reduced rows share a block), from the same phase rows
    nx, nv = 16, 9
    times, x, v, dX, wf, _, _ = _grid_case(
        nx, nv, [0.5, 1e-4, 2.0, 2.0, 0.0, 1e-3], 17)
    dX[5, 3] = math.nan
    if per_row:
        wf = wf * np.linspace(0.5, 1.5, len(times))[:, None]
    nk = nx // 2 + 1
    modes = K.corr_fourier(wf, x, v, times, dX, nk)
    re, im = modes.real, modes.imag
    phases = K.phase_rows(v[:nv], times, nk)
    by_rows = K.corr_evaluator()
    out = np.empty((len(times), nk), dtype=complex)
    left = []
    for n in range(len(times)):
        w = wf[n:n + 1] if per_row else wf
        left.append(by_rows(out[n:n + 1], w, dX[n:n + 1], phases[n:n + 1]))
    assert np.isnan(out[5, 1:].real).all() and np.isnan(out[5, 1:].imag).all()
    assert np.array_equal(out.real, re, equal_nan=True)
    assert np.array_equal(out.imag, im, equal_nan=True)
    assert left == [H.truncation_remainder(dX[n:n + 1], nk, (1,))
                    for n in range(len(times))]
    assert left[4] == 0.0 and left[5] == math.inf
    assert 0.0 < left[0] < math.inf and 0.0 < left[2] < math.inf
    w = wf[4:6] if per_row else wf
    assert by_rows(out[4:6], w, np.zeros((2, x.shape[0])), phases[4:6]) \
        == 0.0

    other = np.random.default_rng(18).uniform(-1.0, 1.0, (2,) + wf.shape)
    stack = np.stack([wf, other[0], 1e-4 * other[1]], axis=-2)
    stack = stack.reshape(-1, 3, wf.shape[-1])      # (1 or nt, 3, P)
    stacked = np.empty((len(times), 3, nk), dtype=complex)
    for n in range(len(times)):
        w = stack[n:n + 1] if per_row else stack
        by_rows(stacked[n:n + 1], w, dX[n:n + 1], phases[n:n + 1])
    at_once = np.empty(stacked.shape, dtype=complex)
    w = stack[:5] if per_row else stack
    assert by_rows(at_once[:5], w, dX[:5], phases[:5]) \
        == H.truncation_remainder(dX[:5], nk, (1,)) == max(left[:5])
    assert by_rows(at_once, stack, dX, phases) == math.inf
    assert rows_formed == [len(times)] * 2
    for line in range(3):
        for n in range(len(times)):
            w = stack[n:n + 1, line] if per_row else stack[0, line]
            by_rows(out[n:n + 1], w, dX[n:n + 1], phases[n:n + 1])
        for got in (stacked[:, line], at_once[:, line]):
            assert np.isnan(got[5, 1:].real).all(), line
            assert np.array_equal(got.real, out.real, equal_nan=True), line
            assert np.array_equal(got.imag, out.imag, equal_nan=True), line
    assert np.array_equal(stacked[:, 0].real, re, equal_nan=True)
    assert np.array_equal(stacked[:, 0].imag, im, equal_nan=True)


@pytest.mark.parametrize("labels", ["permuted", "nonuniform"])
def test_non_grid_labels_are_rejected(labels):
    nx, nv = 16, 9
    times, x, v, dX, wf, cre, cim = _grid_case(nx, nv, [1e-3] * 5, 14)
    if labels == "permuted":
        perm = np.random.default_rng(15).permutation(x.shape[0])
        x, v = x[perm], v[perm]
    else:
        xs = (2 * np.pi / nx) * np.arange(nx)
        xs[5] += 1e-3
        x = np.repeat(xs, nv)
    nk = nx // 2 + 1
    with pytest.raises(ValueError, match="tensor grid"):
        K.eval_rows(cre, cim, x, v, times, dX)
    with pytest.raises(ValueError, match="tensor grid"):
        K.corr_fourier(wf, x, v, times, dX, nk)
