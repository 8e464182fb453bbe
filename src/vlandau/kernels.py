"""Hot numerical kernels, vectorized with numpy over particles.

Each kernel loops over time rows (or mode indices) and applies whole-array
numpy operations across the particles.

``eval_rows`` and ``corr_fourier`` take a tensor-grid FFT path when the
labels are the solver's phase nodes, ``x = repeat(xs, nv)`` and
``v = tile(vs, nx)`` with ``xs = (2 pi / nx) arange(nx)`` and nx equal to
twice the top mode.  There ``e^{ik(x_i + v_j t_n + d)}`` factors into
``e^{2 pi i k i / nx}``, a real FFT of length nx over i; the grid-only
table ``e^{i k v_j t_n}`` (``phase_table``, which keeps the last table it
built, so sweeps, Picard iterations, the variational solve and the z
nodes of one grid share it); and ``e^{i k d}``, summed as its Taylor
series in the small displacement d.  Each time row n gets the smallest
order M whose remainder ``r^{M+1}/(M+1)!``, with
``r = k_max max_p |d_{n,p}|``, is below 2^-53 relative (``taylor_order``;
for ``corr_fourier`` relative to the leading term of ``e^{-ikd} - 1``).
Rows are processed in blocks so that no complex temporary outgrows about
1 MiB.  Other labels, and every row with r > 1 (or not finite), take the
mode-by-mode recurrences below.  ``truncation_remainder`` reports the
largest remainder the FFT path leaves, the solver's ``kernel_truncation``
certificate.

numpy's FFT is single-threaded, so the FFT path runs on one thread.  The
threaded operations left are the BLAS products that reduce over
particles in the ``corr_fourier`` recurrence and in ``direct_bmap``;
``OPENBLAS_NUM_THREADS`` sets their thread count.

Numerical conventions shared by several kernels:

* Mode rows follow the real-FFT layout scaled by 1/nx: a row ``c`` of
  length nx//2 + 1 represents
  ``F(theta) = c[0] + sum_{0<k<nx/2} 2 (Re c[k] cos k theta - Im c[k] sin k theta)
  + Re c[nx/2] cos((nx/2) theta)``.
* Off the FFT path, phase factors ``e^{-i k theta}`` are built by
  rotation recurrences, and the small factor ``e^{-i k d} - 1`` by the
  product recurrence ``r_{k+1} = r_k + r_k r_1 + r_1`` with ``r_1``
  evaluated as ``(-2 sin^2(d/2), -sin d)``.  This keeps the error of the small factor
  proportional to its size, which matters because downstream norms weight
  late times by ``e^{a t}``.
* Suffix integrals over [t_n, t_end] use composite-trapezoid recurrences
  that only ever add same-sign increments:
  ``A_n = A_{n+1} + dt (g_n + g_{n+1}) / 2`` and, for the first moment
  ``I_n = int (s - t_n) g ds``, ``I_n = I_{n+1} + dt A_{n+1} + dt^2 g_{n+1} / 2``
  (an exact identity for the composite rule, not an extra approximation).
* ``suffix_weighted`` generalizes the plain suffix rule to arbitrary
  two-point cell weights ``A_n = A_{n+1} + alpha g_n + beta g_{n+1}``.
  With ``alpha = (a dt - 1 + e^{-a dt})/(a^2 dt)`` and
  ``beta = (e^{a dt} - 1 - a dt)/(a^2 dt)`` the rule integrates
  ``e^{-a s} x (piecewise linear)`` exactly, which removes the convex
  quadrature overshoot of the trapezoid on exponentially decaying
  integrands (the trapezoid overestimates those by ``(a dt)^2/12``
  relative, far above the tolerance of the trajectory bound checks).
"""

from __future__ import annotations

import functools
import math

import numpy as np


# ---------------------------------------------------------------------------
# tensor-grid FFT path: label detection, phase table, Taylor orders
# ---------------------------------------------------------------------------

_TAYLOR_TOL = 2.0 ** -53
_BLOCK_BYTES = 1 << 20        # size of the largest complex temporary per block


def taylor_order(r, lowest=0):
    """Smallest Taylor order of e^{i theta}, |theta| <= r <= 1, and remainder.

    Returns (M, rem).  The polynomial sum_{lowest <= m <= M} (i theta)^m / m!
    approximates e^{i theta} (lowest 0) or e^{i theta} - 1 (lowest 1) with
    error at most r^{M+1}/(M+1)!; rem = r^{M+1-lowest}/(M+1)! is that bound
    relative to r^lowest, the size of the leading retained term.  M is the
    smallest order with rem < 2^-53.  r = 0 gives (0, 0.0): the factor is
    exactly 1 and the difference exactly 0.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"Taylor radius must lie in [0, 1], got {r!r}")
    if r == 0.0:
        return 0, 0.0
    order = lowest
    while True:
        rem = r ** (order + 1 - lowest) / math.factorial(order + 1)
        if rem < _TAYLOR_TOL:
            return order, rem
        order += 1


def _grid_velocities(x, v, nk):
    """Velocity nodes vs when the labels are the tensor grid
    x = repeat(xs, nv), v = tile(vs, nx) with xs = (2 pi / nx) arange(nx)
    and nx = 2 (nk - 1), as the solver builds them; None otherwise."""
    nx = 2 * (int(nk) - 1)
    if nx < 2 or x.ndim != 1 or v.shape != x.shape or not x.shape[0] \
            or x.shape[0] % nx:
        return None
    nv = x.shape[0] // nx
    vs = v[:nv]
    xs = (2.0 * math.pi / nx) * np.arange(nx)
    if np.array_equal(x, np.repeat(xs, nv)) and \
            np.array_equal(v, np.tile(vs, nx)):
        return vs
    return None


@functools.lru_cache(maxsize=1)
def _cached_phase_table(vs_bytes, times_bytes, nk):
    vs = np.frombuffer(vs_bytes)
    phi = np.frombuffer(times_bytes)[:, None] * vs[None, :]
    table = np.empty((phi.shape[0], nk, vs.shape[0]), dtype=complex)
    for k in range(nk):
        arg = k * phi
        table[:, k, :] = np.cos(arg) + 1j * np.sin(arg)
    table.flags.writeable = False
    return table


def phase_table(vs, times, nk):
    """T[n, k, j] = e^{i k v_j t_n}, the grid-only factor of the tensor-grid
    phases; the last table built is kept for the next call."""
    as_bytes = [np.ascontiguousarray(a, dtype=float).tobytes()
                for a in (vs, times)]
    return _cached_phase_table(*as_bytes, int(nk))


def _taylor_rows(dx_dev, kmax, lowest):
    """Per-row Taylor orders (-1 where r = kmax max|dX_n| is not <= 1, so
    the recurrence runs) and relative remainders (0 on those rows)."""
    r = kmax * np.maximum(dx_dev.max(axis=1), -dx_dev.min(axis=1))
    orders = np.full(r.shape, -1)
    rems = np.zeros(r.shape)
    for n, rn in enumerate(r):
        if rn <= 1.0:
            orders[n], rems[n] = taylor_order(float(rn), lowest)
    return orders, rems


def _row_blocks(orders, block):
    """(n0, n1, M): runs of consecutive rows with one Taylor order M, at most
    `block` rows each."""
    nt = len(orders)
    n0 = 0
    while n0 < nt:
        n1 = n0 + 1
        while n1 < nt and n1 - n0 < block and orders[n1] == orders[n0]:
            n1 += 1
        yield n0, n1, int(orders[n0])
        n0 = n1


def truncation_remainder(x, v, dx_dev, nk):
    """Largest relative Taylor remainder that eval_rows and corr_fourier
    leave on these inputs with nk modes; 0 on rows (or labels) where the
    recurrence runs instead."""
    if _grid_velocities(x, v, nk) is None:
        return 0.0
    return max(float(_taylor_rows(dx_dev, nk - 1, lowest)[1].max(initial=0.0))
               for lowest in (0, 1))


# ---------------------------------------------------------------------------
# mode-row evaluation along trajectories
# ---------------------------------------------------------------------------

def eval_rows(cre, cim, x, v, times, dx_dev):
    """Evaluate per-time mode rows at particle angles x + v t + dx_dev.

    cre/cim: (nt, nk) mode rows (see module docstring for the layout);
    x, v: flat particle labels (P,); dx_dev: (nt, P) position deviations.
    Returns (nt, P).
    """
    out = np.empty(dx_dev.shape)
    nt, nk = cre.shape
    half = nk - 1
    rows = range(nt)
    vs = _grid_velocities(x, v, nk)
    if vs is not None:
        rows = _eval_rows_fft(out, cre, cim, vs, times, dx_dev)
    for n in rows:
        theta = x + v * times[n] + dx_dev[n]
        ure = np.cos(theta)
        uim = np.sin(theta)
        acc = np.full(theta.shape, cre[n, 0])
        pre, pim = ure.copy(), uim.copy()
        for k in range(1, half):
            acc += 2.0 * (cre[n, k] * pre - cim[n, k] * pim)
            pre, pim = pre * ure - pim * uim, pre * uim + pim * ure
        acc += cre[n, half] * pre
        out[n] = acc
    return out


def _eval_rows_fft(out, cre, cim, vs, times, dx_dev):
    """Tensor-grid rows of eval_rows; returns the rows left to recurrence.

    With theta = x_i + v_j t_n + d, each Taylor order m of e^{i k d} gives
    F_m[n, i, j] = Re sum_k (i k)^m c_k e^{i k v_j t_n} e^{2 pi i k i / nx},
    one inverse real FFT over k; the row is sum_m d^m / m! F_m (Horner).
    """
    nt, nk = cre.shape
    nx, nv = 2 * (nk - 1), vs.shape[0]
    c = cre + 1j * cim
    c[:, nk - 1] = cre[:, nk - 1]            # cosine-only Nyquist row
    ik = 1j * np.arange(nk)
    table = phase_table(vs, times, nk)
    orders, _ = _taylor_rows(dx_dev, nk - 1, 0)
    block = max(1, _BLOCK_BYTES // (16 * nk * nv))
    for n0, n1, order in _row_blocks(orders, block):
        if order < 0:
            continue
        acc = out[n0:n1].reshape(n1 - n0, nx, nv)
        d = dx_dev[n0:n1].reshape(n1 - n0, nx, nv)
        tab = table[n0:n1]
        for m in range(order, -1, -1):
            coef = c[n0:n1] * ik ** m
            f = np.fft.irfft(coef[:, :, None] * tab, n=nx, axis=1,
                             norm="forward")
            if m == order:
                acc[...] = f
            else:
                acc *= d
                if m:
                    acc *= 1.0 / (m + 1)
                acc += f
    return np.flatnonzero(orders < 0)


# ---------------------------------------------------------------------------
# suffix trapezoid integrals
# ---------------------------------------------------------------------------

def suffix_trapz(g, dt):
    """A[n] = trapezoid of g over [t_n, t_end]; g is (nt, P)."""
    g = np.ascontiguousarray(g)
    dt = float(dt)
    acc = np.zeros_like(g)
    for n in range(g.shape[0] - 2, -1, -1):
        acc[n] = acc[n + 1] + (0.5 * dt) * (g[n] + g[n + 1])
    return acc


def suffix_trapz_moment(g, dt):
    """(A, I) with A as in suffix_trapz and I[n] = int (s - t_n) g(s) ds.

    I is the exact first moment of the same composite-trapezoid rule, so
    A and I stay consistent to rounding.
    """
    g = np.ascontiguousarray(g)
    dt = float(dt)
    acc = np.zeros_like(g)
    mom = np.zeros_like(g)
    for n in range(g.shape[0] - 2, -1, -1):
        mom[n] = mom[n + 1] + dt * acc[n + 1] + (0.5 * dt * dt) * g[n + 1]
        acc[n] = acc[n + 1] + (0.5 * dt) * (g[n] + g[n + 1])
    return acc, mom


def exp_cell_weights(a: float, dt: float) -> tuple[float, float]:
    """Two-point cell weights that integrate e^{-a s} (c0 + c1 s) exactly.

    Writing the integrand as e^{-a s} h(s) and interpolating h linearly
    between nodes gives, per cell [s, s + dt],
    int = alpha g(s) + beta g(s + dt) with constant alpha, beta on a
    uniform grid.  a = 0 degenerates to the trapezoid weights dt/2.
    """
    if a < 0 or dt <= 0:
        raise ValueError("need a >= 0 and dt > 0")
    x = a * dt
    # the closed forms are ratios of O(x^2) differences; expm1 keeps them
    # accurate down to the series switch, below which the expansion takes
    # over (relative error <= x^4/720 at the switch)
    if x < 1e-3:
        alpha = dt * (0.5 - x / 6.0 + x * x / 24.0 - x ** 3 / 120.0)
        beta = dt * (0.5 + x / 6.0 + x * x / 24.0 + x ** 3 / 120.0)
    else:
        alpha = (x + math.expm1(-x)) / (a * a * dt)
        beta = (math.expm1(x) - x) / (a * a * dt)
    return alpha, beta


def suffix_weighted(g, alpha, beta):
    """A[n] = sum over cells of alpha g_left + beta g_right on [t_n, t_end]."""
    g = np.ascontiguousarray(g)
    alpha, beta = float(alpha), float(beta)
    acc = np.zeros_like(g)
    for n in range(g.shape[0] - 2, -1, -1):
        acc[n] = acc[n + 1] + alpha * g[n] + beta * g[n + 1]
    return acc


# ---------------------------------------------------------------------------
# spectral density corrections
# ---------------------------------------------------------------------------

def corr_fourier(wf, x, v, times, dx_dev, nk):
    """Density-correction modes against the free flow.

    Returns (re, im), each (nt, nk), holding

        (1/2pi) sum_p wf_p e^{-i k (x_p + v_p t_n)} (e^{-i k dX_p(t_n)} - 1)

    i.e. the transported-density Fourier modes minus their free-streaming
    part, with the cancellation done analytically per particle.
    """
    nk = int(nk)
    nt = times.shape[0]
    out_re = np.zeros((nt, nk))
    out_im = np.zeros((nt, nk))
    inv2pi = 1.0 / (2.0 * math.pi)
    rows = range(nt)
    vs = _grid_velocities(x, v, nk)
    if vs is not None:
        rows = _corr_fourier_fft(out_re, out_im, wf, vs, times, dx_dev)
    for n in rows:
        psi = x + v * times[n]
        ure, uim = np.cos(psi), np.sin(psi)
        d = dx_dev[n]
        halfs = np.sin(0.5 * d)
        r1re = -2.0 * halfs * halfs
        r1im = -np.sin(d)
        pre = ure.copy()
        pim = -uim.copy()                     # e^{-i psi}
        rre = r1re.copy()
        rim = r1im.copy()                     # e^{-i d} - 1
        for k in range(1, nk):
            # (e^{-i k psi}) (e^{-i k d} - 1), accumulated against weights
            fre = pre * rre - pim * rim
            fim = pre * rim + pim * rre
            out_re[n, k] = inv2pi * float(np.dot(wf, fre))
            out_im[n, k] = inv2pi * float(np.dot(wf, fim))
            if k + 1 < nk:
                pre, pim = (pre * ure + pim * uim,
                            -pre * uim + pim * ure)
                rre, rim = (rre + rre * r1re - rim * r1im + r1re,
                            rim + rre * r1im + rim * r1re + r1im)
    return out_re, out_im


def _corr_fourier_fft(out_re, out_im, wf, vs, times, dx_dev):
    """Tensor-grid rows of corr_fourier; returns the rows left to recurrence.

    Each Taylor order m >= 1 of e^{-i k d} - 1 contributes
    ((-i k)^m / m!) sum_j e^{-i k v_j t_n} G_m[n, k, j], where G_m is the
    real FFT over i of wf d^m.
    """
    nt, nk = out_re.shape
    nx, nv = 2 * (nk - 1), vs.shape[0]
    mik = -1j * np.arange(nk)
    wgrid = wf.reshape(nx, nv) / (2.0 * math.pi)
    table = phase_table(vs, times, nk)
    orders, _ = _taylor_rows(dx_dev, nk - 1, 1)
    block = max(1, _BLOCK_BYTES // (16 * nk * nv))
    for n0, n1, order in _row_blocks(orders, block):
        if order < 1:
            continue
        d = dx_dev[n0:n1].reshape(n1 - n0, nx, nv)
        conj = table[n0:n1].conj()
        wdm = wgrid * d
        acc = np.zeros((n1 - n0, nk), dtype=complex)
        for m in range(1, order + 1):
            if m > 1:
                wdm *= d
            g = np.fft.rfft(wdm, axis=1)
            acc += (mik ** m / math.factorial(m)) * np.einsum(
                "nkj,nkj->nk", conj, g)
        out_re[n0:n1] = acc.real
        out_im[n0:n1] = acc.imag
    return np.flatnonzero(orders < 0)


# ---------------------------------------------------------------------------
# direct kernel summation and charge deposition
# ---------------------------------------------------------------------------

def direct_bmap(wf, pos, xs):
    """Field by direct kernel summation: E(x_i,t_n) = sum_p wf_p B(x_i - X_p).

    pos is (nt, P) absolute particle positions; xs the evaluation grid.
    """
    pos = np.ascontiguousarray(pos)
    nt = pos.shape[0]
    out = np.empty((nt, xs.shape[0]))
    two_pi = 2.0 * math.pi
    for n in range(nt):
        diff = xs[:, None] - pos[n][None, :]
        bvals = 0.5 - np.mod(diff, two_pi) / two_pi
        out[n] = bvals @ wf
    return out


def cic_density(wf, pos, nx, dx):
    """Cloud-in-cell density on the x grid from weighted particles."""
    pos = np.ascontiguousarray(pos)
    nx, dx = int(nx), float(dx)
    nt = pos.shape[0]
    out = np.zeros((nt, nx))
    for n in range(nt):
        s = pos[n] / dx
        j = np.floor(s).astype(np.int64)
        frac = s - j
        j0 = np.mod(j, nx)
        j1 = np.mod(j + 1, nx)
        np.add.at(out[n], j0, wf * (1.0 - frac) / dx)
        np.add.at(out[n], j1, wf * frac / dx)
    return out


def cic_density_pert(wf, x, v, times, dx_dev, nx, dx):
    """CIC density of displaced particles minus CIC density of the free flow.

    Computed per particle as a net deposition difference so the result
    scales with the displacement instead of carrying the O(1) background;
    the no-crossing branch transfers exactly wf * dX/dx between the two
    touched cells.
    """
    dx_dev = np.ascontiguousarray(dx_dev)
    nx, dx = int(nx), float(dx)
    nt = times.shape[0]
    out = np.zeros((nt, nx))
    for n in range(nt):
        base = x + v * times[n]
        s0 = base / dx
        j0 = np.floor(s0).astype(np.int64)
        f0 = s0 - j0
        d = dx_dev[n] / dx
        s1 = s0 + d
        j1 = np.floor(s1).astype(np.int64)
        f1 = s1 - j1
        shift = j1 - j0
        g = d - shift                    # f1 - f0 without cancellation
        row = out[n]
        same = shift == 0
        if same.any():
            w = wf[same] * g[same] / dx
            jj = j0[same]
            np.add.at(row, np.mod(jj, nx), -w)
            np.add.at(row, np.mod(jj + 1, nx), w)
        cross = ~same
        if cross.any():
            wcr = wf[cross] / dx
            np.add.at(row, np.mod(j0[cross], nx), -wcr * (1.0 - f0[cross]))
            np.add.at(row, np.mod(j0[cross] + 1, nx), -wcr * f0[cross])
            np.add.at(row, np.mod(j1[cross], nx), wcr * (1.0 - f1[cross]))
            np.add.at(row, np.mod(j1[cross] + 1, nx), wcr * f1[cross])
    return out
