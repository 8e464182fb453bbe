"""Hot numerical kernels, vectorized with numpy over particles.

``eval_rows`` and ``corr_fourier`` take the solver's phase nodes as
labels, ``x = repeat(xs, nv)`` and ``v = tile(vs, nx)`` with
``xs = (2 pi / nx) arange(nx)`` and nx equal to twice the top mode; other
labels raise ValueError.  On this tensor grid ``e^{ik(x_i + v_j t_n + d)}``
factors into ``e^{2 pi i k i / nx}``, a real FFT of length nx over i; the
grid-only rows ``e^{i k v_j t_n}`` (``phase_rows``); and ``e^{i k d}``,
summed as its Taylor series in the displacement d.  ``eval_block`` and
``corr_evaluator``, the same algorithms by rows, which the passes call
(both also take a stack, of mode rows or of weight lines, along one
displacement), take no labels: the grid comes with the phase rows that
the caller forms and hands them with the rows they evaluate, shaped
(rows, nk, nv), with nx = 2 (nk - 1), so that a march forms each row
once, one block at a time, and the kernels keep nothing between calls.
Time row n has the Taylor radius ``r = k_max max_p |d_{n,p}|``.  A row
with r > pi/2 is first reduced onto the grid: ``d = q h + s`` with grid
step ``h = 2 pi / nx``, integer ``q = rint(d / h)`` and ``|s| <= h/2``,
so that ``k_max |s| <= pi/2``; the factor ``e^{i k q h}`` moves the
particle's FFT index from i to i + q, and the series runs in s.  Each row
gets the smallest order M whose remainder ``r^{M+1}/(M+1)!`` is below
2^-53 relative (``taylor_order``; for ``corr_fourier`` relative to the
leading term of ``e^{-ikd} - 1``, whose series starts at order 1 so that
its error stays proportional to the displacement, which matters because
downstream norms weight late times by ``e^{a t}``).  Rows are processed
in blocks so that no complex temporary outgrows about 1 MiB.  A row that
is not finite, or too large for the reduction to keep |s| <= h/2 (|d|
near 1e15 or beyond at nx 8), comes out NaN.  The remainder goes back
with the rows: each ``eval_block`` or ``corr_evaluator`` call returns the
largest remainder it left, with the rounding of ``s`` on reduced rows
(inf on a bad row), from which the solver forms its ``kernel_truncation``
certificate.
numpy's FFT is single-threaded, so these kernels run on one thread.

Numerical conventions shared by several kernels:

* Mode rows are complex, in the real-FFT layout scaled by 1/nx (that of
  ``FieldTable.coefficients``): a row ``c`` of length nx//2 + 1 represents
  ``F(theta) = c[0] + sum_{0<k<nx/2} 2 (Re c[k] cos k theta - Im c[k] sin k theta)
  + Re c[nx/2] cos((nx/2) theta)``.
* Suffix integrals over [t_n, t_end] use composite-trapezoid recurrences
  that only ever add same-sign increments:
  ``A_n = A_{n+1} + dt (g_n + g_{n+1}) / 2`` and, for the first moment
  ``I_n = int (s - t_n) g ds``, ``I_n = I_{n+1} + dt A_{n+1} + dt^2 g_{n+1} / 2``
  (an exact identity for the composite rule, not an extra approximation).
  ``suffix_pass`` is the one implementation: its integrand row ``g_n`` may
  depend on ``I_n``, which the step computes before it needs it, so one
  backward pass solves the (strictly triangular) Volterra equations of the
  characteristics with their variational system (``g_n I_n + f_n``) in
  one march, the field fixed point, and its tangent, every order in one
  pass, exactly.  It hands out each finished row and keeps only two, so
  no caller holds a table it does not read.
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

import math

import numpy as np


# ---------------------------------------------------------------------------
# tensor-grid FFT path: label check, phase rows, Taylor orders
# ---------------------------------------------------------------------------

_TAYLOR_TOL = 2.0 ** -53
_MAX_RADIUS = 0.5 * math.pi   # Taylor radius above which a row is reduced
_BLOCK_BYTES = 1 << 20        # size of the largest complex temporary per block


def taylor_order(r, lowest=0):
    """Smallest Taylor order of e^{i theta}, |theta| <= r, and remainder.

    Returns (M, rem).  The polynomial sum_{lowest <= m <= M} (i theta)^m / m!
    approximates e^{i theta} (lowest 0) or e^{i theta} - 1 (lowest 1) with
    error at most r^{M+1}/(M+1)!; rem = r^{M+1-lowest}/(M+1)! is that bound
    relative to r^lowest, the size of the leading retained term.  M is the
    smallest order with rem < 2^-53.  r = 0 gives (0, 0.0): the factor is
    exactly 1 and the difference exactly 0.  r <= pi/2, up to the
    rounding of a reduced displacement dX - q h.
    """
    if not 0.0 <= r <= _MAX_RADIUS * (1.0 + 1e-9):
        raise ValueError(f"Taylor radius must lie in [0, pi/2], got {r!r}")
    if r == 0.0:
        return 0, 0.0
    order = lowest
    while True:
        rem = r ** (order + 1 - lowest) / math.factorial(order + 1)
        if rem < _TAYLOR_TOL:
            return order, rem
        order += 1


def _grid_velocities(x, v, nk):
    """Velocity nodes vs of the tensor-grid labels x = repeat(xs, nv),
    v = tile(vs, nx) with xs = (2 pi / nx) arange(nx) and nx = 2 (nk - 1),
    as the solver builds them; ValueError for any other labels."""
    nx = 2 * (int(nk) - 1)
    if nx >= 2 and x.ndim == 1 and v.shape == x.shape and x.shape[0] \
            and not x.shape[0] % nx:
        vs = v[:x.shape[0] // nx]
        xs = (2.0 * math.pi / nx) * np.arange(nx)
        if np.array_equal(x, np.repeat(xs, vs.shape[0])) and \
                np.array_equal(v, np.tile(vs, nx)):
            return vs
    raise ValueError(f"kernel labels must be the tensor grid of {nx} "
                     "positions times the velocity nodes")


def _row_blocks(nt: int, npart: int):
    """(n0, n1) blocks of the rows of (nt, npart) float tables, the last
    rows first: as many rows as fit in _BLOCK_BYTES for four such tables.
    The backward marches (scattering._march and _field_pass) form and
    hand out these blocks one at a time."""
    size = max(1, _BLOCK_BYTES // (4 * 8 * npart))
    return [(max(0, n1 - size), n1) for n1 in range(nt, 0, -size)]


def phase_rows(vs, times, nk):
    """T[n, k, j] = e^{i k v_j t_n} on the rows of times, (rows, nk, nv),
    the grid-only factor of the tensor-grid phases: cos and sin of
    k (t_n v_j), the same doubles row by row or whole."""
    arg = np.arange(nk)[:, None] * (times[:, None, None] * vs)
    rows = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=rows.real)
    np.sin(arg, out=rows.imag)
    rows.flags.writeable = False
    return rows


def _taylor_rows(dx_dev, kmax, lowest):
    """(d, q, orders, rems, bad) for the rows of dx_dev.

    Rows with radius r = kmax max|dX_n| > pi/2 are reduced onto the grid,
    dX = q h + s with h = pi / kmax and q = rint(dX / h); d holds s on
    them, 0 on the bad rows and dX elsewhere; q holds the shifts mod
    nx = 2 kmax, None when no row is reduced.  A row is bad when it is not
    finite, or so large that its reduced radius still exceeds pi/2 (dX
    keeps no digit at the scale of h).  orders and rems are each row's
    taylor_order of its radius in d, rem inf on bad rows.  A reduced row's
    rem adds the rounding of s, which moves each phase k s by at most
    k_max (|q| err(h) + ulp(max|dX_n|)): err(h) <= ulp(pi)/(2 k_max) +
    ulp(h)/2 is the error of h as a double, and the ulp term covers the
    rounding of q h (the subtraction is exact, Sterbenz).  Relative to
    the kernels' scale this is absolute per unit coefficient or weight;
    other rows add exactly 0.
    """
    r = kmax * np.maximum(dx_dev.max(axis=1), -dx_dev.min(axis=1))
    bad = ~np.isfinite(r)
    r[bad] = 0.0
    far = r > _MAX_RADIUS
    d, q = dx_dev, None
    slip = np.zeros(r.shape)
    if bad.any() or far.any():
        d = np.where(bad[:, None], 0.0, dx_dev)
    if far.any():
        h = math.pi / kmax
        shift = np.rint(d[far] / h)
        d[far] -= shift * h
        err_h = math.ulp(math.pi) / (2 * kmax) + math.ulp(h) / 2
        slip[far] = kmax * (np.abs(shift).max(axis=1) * err_h
                            + np.spacing(np.abs(dx_dev[far]).max(axis=1)))
        r[far] = kmax * np.abs(d[far]).max(axis=1)
        lost = r > _MAX_RADIUS * (1.0 + 1e-9)
        bad |= lost
        r[lost], d[lost] = 0.0, 0.0
        q = np.zeros(d.shape, dtype=np.intp)
        # only i + q mod nx is used
        q[far & ~lost] = np.mod(shift[~lost[far]], 2 * kmax)
    orders = np.empty(r.shape, dtype=int)
    rems = np.empty(r.shape)
    for n, rn in enumerate(r):
        orders[n], rems[n] = taylor_order(float(rn), lowest)
    rems += slip
    rems[bad] = math.inf
    return d, q, orders, rems, bad


def _order_runs(orders, block):
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


def _shifted_index(q, nx, nv):
    """(i + q) mod nx for a block of shifts q, shaped (rows, nx, nv)."""
    return (np.arange(nx)[:, None] + q.reshape(-1, nx, nv)) % nx


# ---------------------------------------------------------------------------
# mode-row evaluation along trajectories
# ---------------------------------------------------------------------------

# unused in the package, but perfbench/tracer.py lists it in TRACED by name
def eval_rows(cre, cim, x, v, times, dx_dev):
    """Evaluate per-time mode rows at particle angles x + v t + dx_dev.

    cre/cim: the real and imaginary parts of the (nt, nk) complex mode rows
    (see module docstring for the layout); x, v: the tensor-grid labels
    (P,); dx_dev: (nt, P) position deviations.  Returns (nt, P).
    """
    # perfbench/tracer.py binds cre and cim by position and reads
    # cre.shape, so this one entry point keeps the pair; it joins it once
    nk = cre.shape[-1]
    out = np.empty(dx_dev.shape)
    eval_block(out, cre + 1j * cim, dx_dev, phase_rows(
        _grid_velocities(x, v, nk), times, nk))
    return out


def eval_block(out, c, dx, phases):
    """eval_rows by rows: writes into out the rows of
    eval_rows(c.real, c.imag, x, v, times, dx) for the complex mode rows
    c (rows, nk), the displacements dx (rows, P) and the phase rows
    phases = phase_rows(vs, times, nk) of the same rows, which give nk
    and nv (module docstring); the characteristics pass asks for one row
    as soon as its displacement is known.  Returns the largest relative
    Taylor remainder of the rows (_taylor_rows, lowest 0), inf if a row
    is bad.

    c may also stack L mode rows per time, (rows, L, nk); out is then
    (rows, L, P), each of the L rows bitwise its own call's, all along
    the one displacement: one range reduction and one inverse FFT per
    Taylor order serve them all.

    With theta = x_i + v_j t_n + q h + s, Taylor order m of e^{i k s} gives
    F_m[n, i, j] = Re sum_k (i k)^m c_k e^{i k v_j t_n} e^{2 pi i k i / nx},
    one inverse real FFT over k, read at index i + q; the row is
    sum_m s^m / m! F_m (Horner).
    """
    nk, nv = phases.shape[1:]
    nx = 2 * (nk - 1)
    ik = 1j * np.arange(nk)
    lines = c.shape[1] if c.ndim == 3 else 1
    block = max(1, _BLOCK_BYTES // (16 * lines * nk * nv))
    cn = c.reshape(len(dx), lines, nk).copy()
    cn[..., nk - 1] = cn[..., nk - 1].real    # cosine-only Nyquist row
    dx_red, q, orders, rems, bad = _taylor_rows(dx, nk - 1, 0)
    for r0, r1, order in _order_runs(orders, block):
        acc = out[r0:r1].reshape(r1 - r0, lines, nx, nv)
        d = dx_red[r0:r1].reshape(r1 - r0, 1, nx, nv)
        tab = phases[r0:r1, None]
        at = None if q is None else _shifted_index(q[r0:r1], nx, nv)[:, None]
        for m in range(order, -1, -1):
            coef = cn[r0:r1] * ik ** m
            f = np.fft.irfft(coef[..., None] * tab, n=nx, axis=2,
                             norm="forward")
            if at is not None:
                f = np.take_along_axis(f, at, axis=2)
            if m == order:
                acc[...] = f
            else:
                acc *= d
                if m:
                    acc *= 1.0 / (m + 1)
                acc += f
    out[bad] = np.nan
    return float(rems.max(initial=0.0))


# ---------------------------------------------------------------------------
# suffix trapezoid integrals
# ---------------------------------------------------------------------------

def suffix_pass(integrand, shape, dt):
    """Each row n, from nt - 1 down to 0, as (n, A_n, I_n): the
    composite-trapezoid suffix integral A_n = int_{t_n}^{t_end} h ds and
    first moment I_n = int (s - t_n) h(s) ds, each of shape shape[1:], of
    an integrand whose row h_n = integrand(n, I_n) may read the moment of
    its own row.

    The moment weight (s - t_n) vanishes at s = t_n, so I_n needs only
    the rows > n: the system is strictly triangular, and this one
    backward pass solves it exactly (bitwise a fixed point of
    suffix_trapz_moment).  integrand is called once per row, just before
    that row is handed out; only the rows n and n + 1 are kept, so a
    caller stores what it needs of each row.
    """
    dt = float(dt)
    acc = np.zeros(shape[1:])
    mom = np.zeros(shape[1:])
    h_next = integrand(shape[0] - 1, mom)
    yield shape[0] - 1, acc, mom
    for n in range(shape[0] - 2, -1, -1):
        mom = mom + dt * acc + (0.5 * dt * dt) * h_next
        h = integrand(n, mom)
        acc = acc + (0.5 * dt) * (h + h_next)
        h_next = h
        yield n, acc, mom


# unused in the package, but perfbench/tracer.py lists it in TRACED by name
def suffix_trapz(g, dt):
    """A[n] = trapezoid of g over [t_n, t_end]; g is (nt, P)."""
    return suffix_trapz_moment(g, dt)[0]


# unused in the package, but perfbench/tracer.py lists it in TRACED by name
def suffix_trapz_moment(g, dt):
    """(A, I) with A as in suffix_trapz and I[n] = int (s - t_n) g(s) ds.

    I is the exact first moment of the same composite-trapezoid rule, so
    A and I stay consistent to rounding.
    """
    g = np.asarray(g, dtype=float)
    acc, mom = np.empty(g.shape), np.empty(g.shape)
    for n, acc_n, mom_n in suffix_pass(lambda n, _: g[n], g.shape, dt):
        acc[n], mom[n] = acc_n, mom_n
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


# unused in the package, but perfbench/tracer.py lists it in TRACED by name
def suffix_weighted(g, alpha, beta):
    """A[n] = sum over cells of alpha g_left + beta g_right on [t_n, t_end]."""
    acc = np.zeros_like(g)
    for n in range(g.shape[0] - 2, -1, -1):
        acc[n] = acc[n + 1] + alpha * g[n] + beta * g[n + 1]
    return acc


# ---------------------------------------------------------------------------
# spectral density corrections
# ---------------------------------------------------------------------------

def corr_fourier(wf, x, v, times, dx_dev, nk):
    """Density-correction modes against the free flow: the complex (nt, nk)
    table of

        (1/2pi) sum_p wf_p e^{-i k (x_p + v_p t_n)} (e^{-i k dX_p(t_n)} - 1)

    for weights wf of shape (P,), or (nt, P) with wf_p read from row n:
    the transported-density Fourier modes minus their free-streaming part,
    with the cancellation done analytically per particle.
    """
    nk = int(nk)
    out = np.empty((times.shape[0], nk), dtype=complex)
    corr_evaluator()(out, wf, dx_dev, phase_rows(
        _grid_velocities(x, v, nk), times, nk))
    return out


def corr_evaluator():
    """corr_fourier by rows: a function rows(out, wf, dx, phases) that
    writes into out the rows of corr_fourier(wf, x, v, times, dx, nk) for
    the weights wf ((P,), or one row each), the displacements dx
    (rows, P) and the phase rows phases = phase_rows(vs, times, nk) of
    the same rows, which give nk and nv (module docstring), and returns
    the largest relative Taylor remainder of the rows (_taylor_rows,
    lowest 1), inf if a row is bad; the field pass asks for one row as
    soon as its displacement is known.  Stacked weights wf (rows or 1, L,
    P) give out (rows, L, nk), each line bitwise its own call's, from one
    reduction.

    With dX = q h + s on the tensor-grid labels, each Taylor order m >= 1
    of e^{-i k s} contributes
    ((-i k)^m / m!) sum_j e^{-i k v_j t_n} G_m[n, k, j], where G_m is the
    real FFT over i of the weights wf s^m moved from index i to i + q.
    Rows with shifts add order 0: the FFT of the moved weights minus the
    unmoved ones, whose k = 0 term is set to its exact value 0.
    """
    # w d^m lives in one buffer from block to block and call to call: a
    # fresh one of a few hundred kB on every row makes the allocator give
    # the top of the heap back and fault it in again on the next row
    wd = np.empty(0)

    def rows(out, wf, dx, phases):
        nonlocal wd
        nk, nv = phases.shape[1:]
        nx = 2 * (nk - 1)
        mik = -1j * np.arange(nk)
        lines = wf.shape[1] if wf.ndim == 3 else 1
        block = max(1, _BLOCK_BYTES // (16 * lines * nk * nv))
        wgrid = wf.reshape(-1, lines, nx, nv) / (2.0 * math.pi)
        dx_red, q, orders, rems, bad = _taylor_rows(dx, nk - 1, 1)
        for r0, r1, order in _order_runs(orders, block):
            acc = out[r0:r1].reshape(r1 - r0, lines, nk)
            acc[...] = 0.0
            if order < 1 and q is None:
                continue
            d = dx_red[r0:r1].reshape(r1 - r0, 1, nx, nv)
            w = wgrid if wgrid.shape[0] == 1 else wgrid[r0:r1]
            conj = phases[r0:r1].conj()
            move = None
            if q is not None:
                # destination of each particle in the block's flat
                # (rows, lines, nx, nv)
                dest = (np.arange((r1 - r0) * lines)[:, None, None] * nx
                        + _shifted_index(q[r0:r1], nx, nv).repeat(lines, 0)
                        ) * nv + np.arange(nv)
                wrow = np.broadcast_to(w, (r1 - r0,) + w.shape[1:])

                def move(vals):
                    return np.bincount(dest.ravel(), weights=vals.ravel(),
                                       minlength=dest.size).reshape(wrow.shape)

                g = np.fft.rfft(move(wrow) - wrow, axis=2)
                g[:, :, 0] = 0.0      # moving the weights keeps their total
                acc += np.einsum("nkj,nlkj->nlk", conj, g)
            size = (r1 - r0) * lines * nx * nv
            if wd.size < size:
                wd = np.empty(size)
            wdm = np.multiply(w, d, out=wd[:size].reshape(r1 - r0, lines,
                                                          nx, nv))
            for m in range(1, order + 1):
                if m > 1:
                    wdm *= d
                g = np.fft.rfft(wdm if move is None else move(wdm), axis=2)
                acc += (mik ** m / math.factorial(m)) * np.einsum(
                    "nkj,nlkj->nlk", conj, g)
        out[bad, ..., 1:] = complex(math.nan, math.nan)
        return float(rems.max(initial=0.0))
    return rows


# ---------------------------------------------------------------------------
# charge deposition
# ---------------------------------------------------------------------------

def cic_density(wf, pos, nx, dx):
    """Cloud-in-cell density on the x grid from weighted particles."""
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
