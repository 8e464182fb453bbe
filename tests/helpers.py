"""Small construction utilities (the zero field table among them) and
test oracles shared across test modules.  The oracles are closed forms or
literal evaluations that the library itself does not need: the force
kernel, field tabulation, the tail-integral and product lemmas, one
field-map application, the field map by direct kernel summation, the
iterations that the field and tangent passes replace, the recursion for
the tangent's powers of delta, a march of the field pass in mpmath, the
variational solve, trajectory ratios, their bound checks, the kernels'
Taylor remainder and deposit on whole tables, a solve's checks and
certificates formed from whole tables, the tangent pass of a solve
outside a uq node, the profile gradient, the interpolant's z-derivative
and the gPC expansion's value."""

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np
from numpy.polynomial import legendre as npleg

from vlandau import fields
from vlandau import kernels
from vlandau import params as P
from vlandau import scattering as S
from vlandau.params import tail_integral, tail_integral_moment
from vlandau.profiles import Amplitude, Mode, ProfileSpec, \
    neutral_density
from vlandau.scattering import _map_from_traj, _profile_weights, \
    solve_characteristics
from vlandau.uq import fd_weights


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


def zero_field(tgrid, xgrid):
    """The field table E = 0."""
    return fields.FieldTable(tgrid, xgrid, np.zeros((len(tgrid), xgrid.n)))


def constant_field(tgrid, xgrid, fn_t):
    """x-independent field E(x, t) = fn_t(t)."""
    return tabulate_field(
        tgrid, xgrid, lambda x, t: np.full_like(x, fn_t(t)))


def tabulate_field(tgrid, xgrid, fn):
    """Build a field table from fn(x, t) with broadcasting arrays."""
    x = xgrid.points
    vals = np.empty((len(tgrid), xgrid.n))
    for n, t in enumerate(tgrid.times):
        vals[n] = np.asarray(fn(x, t), dtype=float)
    return fields.FieldTable(tgrid, xgrid, vals)


def kernel_B(x):
    """Periodic mean-free kernel, 1/2 - x/(2 pi) on the fundamental cell."""
    x = np.asarray(x, dtype=float)
    return 0.5 - np.mod(x, 2.0 * np.pi) / (2.0 * np.pi)


def apply_field_map(E, spec, z, phase, a=1.0, traj=None):
    """One application of the scattering field map to E, solving the
    characteristics with decay rate a unless traj is given (the map reads
    only the positions, which do not depend on a)."""
    if traj is None:
        traj = solve_characteristics(E, phase, a=a)
    return _map_from_traj(traj, spec, z, E.xgrid)


def trajectory_X(traj):
    """The absolute positions X = x + v t + dX of a TrajectoryTable,
    shaped like traj.dX."""
    x, v, _ = S._flat_labels(traj.phase)
    t = traj.tgrid.times[:, None]
    flat = x[None, :] + v[None, :] * t + traj.dX.reshape(len(traj.tgrid), -1)
    return flat.reshape(traj.dX.shape)


def direct_field_map(E, spec, z, phase, a=1.0):
    """The field map by literal kernel summation,
    E(y_i, t_n) = sum_p w_p f*_p B(y_i - X_p(t_n)) minus its mean over i,
    along the characteristics of E with decay rate a."""
    traj = solve_characteristics(E, phase, a=a)
    _, _, wf = _profile_weights(phase, spec, z)
    pos = trajectory_X(traj).reshape(len(traj.tgrid), -1)
    ys = E.xgrid.points
    vals = np.array([kernel_B(ys[:, None] - row[None, :]) @ wf
                     for row in pos])
    vals -= vals.mean(axis=1, keepdims=True)
    return fields.FieldTable(traj.tgrid, E.xgrid, vals)


# ---------------------------------------------------------------------------
# whole tables that the streamed certifying march replaces
# ---------------------------------------------------------------------------

def along(E, x, v, dX):
    """E at the positions x + v t + dX of the flattened labels, (nt, P),
    from whole tables (kernels.eval_rows)."""
    c = E.coefficients()
    return kernels.eval_rows(c.real, c.imag, x, v, E.tgrid.times, dX)


def suffix_tables(integrand, shape, dt):
    """(A, I), each of shape `shape`: the rows that
    kernels.suffix_pass(integrand, shape, dt) hands out, as tables."""
    acc, mom = np.empty(shape), np.empty(shape)
    for n, acc_n, mom_n in kernels.suffix_pass(integrand, shape, dt):
        acc[n], mom[n] = acc_n, mom_n
    return acc, mom


def suffix_volterra(g, f, dt):
    """(A, I) solving I = suffix_trapz_moment(g I + f)[1], with A the
    plain suffix integral of the same integrand; f broadcasts to g."""
    g = np.asarray(g, dtype=float)
    f = np.broadcast_to(f, g.shape)
    return suffix_tables(lambda n, y: g[n] * y + f[n], g.shape, dt)


@dataclass(frozen=True)
class VariationalTables:
    """First derivatives of the flow w.r.t. the asymptotic labels,
    in deviation form: xi = dX/dx - 1, eta = dX/dv - t, chi = dV/dx,
    omega = dV/dv - 1; all shaped (nt, nx, nv)."""

    tgrid: fields.TimeGrid
    xi: np.ndarray
    eta: np.ndarray
    chi: np.ndarray
    omega: np.ndarray

    def dX_dx(self):
        return 1.0 + self.xi

    def dX_dv(self):
        return self.tgrid.times[:, None, None] + self.eta

    def jacobian_minus_one(self):
        return S._jacobian_minus_one(self.tgrid.times[:, None, None],
                                     self.xi, self.eta, self.chi, self.omega)


def variational_tables(E, traj):
    """The variational system solved on whole tables, as
    scattering.solve_variational did before it streamed: g = dE/dx along
    X, then two suffix_volterra solves, xi and -chi for the forcing g,
    eta and -omega for g t."""
    tg = traj.tgrid
    x, v, _ = S._flat_labels(traj.phase)
    nt = len(tg)
    g_ex = along(fields.spectral_dx(E), x, v, traj.dX.reshape(nt, -1))
    chi, xi = suffix_volterra(g_ex, g_ex, tg.dt)
    omega, eta = suffix_volterra(g_ex, g_ex * tg.times[:, None], tg.dt)
    np.negative(chi, out=chi)
    np.negative(omega, out=omega)
    shape = traj.dX.shape
    return VariationalTables(tg, xi.reshape(shape), eta.reshape(shape),
                             chi.reshape(shape), omega.reshape(shape))


def variational_sups(tables):
    """scattering.VariationalSups from whole tables."""
    t = tables.tgrid.times

    def row_sup(arr):
        return np.abs(arr).reshape(len(t), -1).max(axis=1)

    return S.VariationalSups(
        tables.tgrid, row_sup(tables.xi), row_sup(tables.eta),
        row_sup(tables.chi), row_sup(tables.omega),
        float(np.abs(tables.dX_dx()).max()),
        float((np.abs(tables.dX_dv()) / t[:, None, None]).max()),
        float(np.abs(tables.jacobian_minus_one()).max()))


def trajectory_ratios(traj, E, a):
    """(traj_velocity, traj_position) values on whole tables."""
    norm_e = fields.weighted_norm(E, a).value
    t = traj.tgrid.times[:, None, None]
    decay = np.exp(-a * traj.tgrid.times)[:, None, None]
    ratio_v = float((np.abs(traj.dV) / ((norm_e / a) * decay)).max())
    lhs_x = np.abs(traj.dV * t - traj.dX)
    ratio_x = float((lhs_x / (norm_e * (2.0 / a) * t * decay)).max())
    return ratio_v, ratio_x


def check_trajectory_bounds(traj, norm_e, params):
    """Worst node ratios of the two displacement inequalities

    |v - V| <= (|E|_{a,t0}/a) e^{-a t},
    |x - (X - V t)| <= |E|_{a,t0} (2/a) t e^{-a t},

    for the trajectories traj, stored whole, of a field E of
    norm_e = |E|_{a,t0}, as {traj_velocity, traj_position} BoundChecks
    against 1, by the ratios picard_solve takes of each row block.  For
    E == 0 both sides vanish and the ratios are 0."""
    nt = len(traj.tgrid)
    return S._ratio_checks([S._trajectory_ratios(
        traj.dX.reshape(nt, -1), traj.dV.reshape(nt, -1), traj.tgrid.times,
        norm_e, params.a)])


def truncation_remainder(dX, nk, lowests=(0, 1)):
    """The largest relative Taylor remainder that the row kernels leave on
    the whole table dX (rows, P) with nk modes, by its rows'
    kernels._taylor_rows, with the rounding of the range reduction on
    reduced rows and inf on a bad row: lowest 0 is kernels.eval_block's
    series of e^{ikd}, lowest 1 kernels.corr_evaluator's of e^{-ikd} - 1,
    and both together the kernel_truncation certificate of a solve whose
    characteristics are dX."""
    return max(float(kernels._taylor_rows(dX, nk - 1, lowest)[3].max(
        initial=0.0)) for lowest in lowests)


def deposit_table(traj, spec, z, xgrid):
    """The cloud-in-cell density of deposit_density from one whole table
    of positions."""
    _, _, wf = _profile_weights(traj.phase, spec, z)
    pos = trajectory_X(traj).reshape(len(traj.tgrid), -1)
    return kernels.cic_density(wf, pos, xgrid.n, xgrid.dx)


def characteristics(result):
    """The characteristics of a solve's field, stored whole
    (solve_characteristics): its certifying march's blocks, bitwise."""
    return solve_characteristics(result.field, result.phase, result.params.a)


def whole_table_checks(spec, result, traj):
    """(checks, certificates) of a solve along its characteristics traj,
    formed as picard_solve formed them before it streamed the certifying
    march: one kernel call on all rows per stage (corr_fourier, the two
    deposits), the ratios on whole tables and the remainder of the whole
    table (truncation_remainder)."""
    E, params, z = result.field, result.params, result.z
    tg, xg, a = E.tgrid, E.xgrid, params.a
    x, v, wf = _profile_weights(result.phase, spec, z)
    nt, nk = len(tg), xg.n // 2 + 1
    dX = traj.dX.reshape(nt, -1)
    free = S.field_map_zero(spec, z, tg, xg)
    E_map = free.values + S._field_of_modes(
        kernels.corr_fourier(wf, x, v, tg.times, dX, nk), xg.n)
    residual = fields.weighted_norm(E.with_values(E_map - E.values), a).value
    rho = E.with_values(deposit_table(traj, spec, z, xg))
    free_pert = np.zeros((nt, xg.n))
    for m in spec.modes:
        if m.k:
            amp = 2.0 * m.amplitude(z) * spec.scale
            trans = np.asarray(spec.shape_transform(m.k * tg.times))
            free_pert += amp * trans[:, None] * np.cos(m.k * xg.points)[None, :]
    pert = kernels.cic_density_pert(wf, x, v, tg.times, dX, xg.n, xg.dx)
    ratio_v, ratio_x = trajectory_ratios(traj, E, a)
    traj_checks = {"traj_velocity": S.BoundCheck("traj_velocity", ratio_v, 1.0),
                   "traj_position": S.BoundCheck("traj_position", ratio_x, 1.0)}
    checks = S._fixed_point_checks(
        E, free, params, fields.weighted_norm(E, a), traj_checks, traj.var,
        rho, E.with_values(pert + free_pert), residual,
        result.checks["fixed_point_residual"].bound)
    norm_e, t_end = checks["field_weighted"].value, tg.t_end
    certificates = {
        "time_tail_position": norm_e * tail_integral_moment(a, t_end, 0),
        "time_tail_velocity": norm_e * tail_integral(a, t_end, 0),
        "velocity_truncation_density":
            2.0 * params.a2 / (3.0 * result.phase.v_max ** 3),
        "mean_density_drift":
            abs(float(rho.values.mean()) - neutral_density(spec, z)),
        "kernel_truncation": truncation_remainder(dX, nk),
    }
    return checks, certificates


def solve_tangent(spec, result, traj=None):
    """The TaylorCoefficients of scattering._tangent_pass at result.z, as
    a uq node forms them, fed by one march along result.field (_march):
    the solve's own blocks, so bitwise the node's tangent.  Given traj,
    the characteristics stored whole, the pass is fed the row blocks
    (_row_blocks) of that table and their phase rows instead, which are
    the same doubles."""
    E, params, phase = result.field, result.params, result.phase
    take, finish = S._tangent_pass(spec, E, params, phase, result.z)
    if traj is None:
        S._march(E, phase, params.a, take)
    else:
        nt, times, nk = len(E.tgrid), E.tgrid.times, E.xgrid.n // 2 + 1
        dX, dV = traj.dX.reshape(nt, -1), traj.dV.reshape(nt, -1)
        for n0, n1 in kernels._row_blocks(*dX.shape):
            take(n0, n1, dX[n0:n1], dV[n0:n1],
                 kernels.phase_rows(phase.v, times[n0:n1], nk))
    return finish()


def block_case(blocks):
    """(spec, params, z, tgrid, phase) whose nt is below one row block
    (blocks 1), two whole blocks (2), or one row past them (3), on
    16 x 129 phase grids."""
    phase = fields.PhaseGrid(fields.XGrid(16), 129, 6.0)
    npart = phase.xgrid.n * phase.nv
    n0, n1 = kernels._row_blocks(10 ** 6, npart)[0]
    nt = {1: (n1 - n0) // 2, 2: 2 * (n1 - n0), 3: 2 * (n1 - n0) + 1}[blocks]
    assert len(kernels._row_blocks(nt, npart)) == blocks
    tg = fields.TimeGrid(8.0, 20.0, nt - 1)
    params = P.DampingParams(1.0, 0.002, 0.002, 2, t0=tg.t0)
    return make_spec({0: 8e-5, 1: (1e-5, 3e-6)}), params, 0.3, tg, phase


# ---------------------------------------------------------------------------
# the iterations that the backward passes replace, and an mpmath march
# ---------------------------------------------------------------------------

def picard_iterate(spec, z, tgrid, phase, maps, a=1.0):
    """The Picard iteration from E = 0 that the field pass replaces: the
    image of 0, field_map_zero, then `maps` more map applications, each
    along the characteristics of the previous iterate."""
    E = S.field_map_zero(spec, z, tgrid, phase.xgrid)
    for _ in range(maps):
        E = apply_field_map(E, spec, z, phase, a=a)
    return E


def power(X, m, l):
    """[delta^m]_l, the z^l coefficient of delta^m for delta = sum_i X[i-1]
    z^i, 1 <= m <= l <= len(X) + m - 1, by the recursion on m that
    scattering._powers tabulates."""
    if m == 1:
        return X[l - 1]
    return sum(X[i - 1] * power(X, m - 1, l - i)
               for i in range(1, l - m + 2))


def trajectory_forcing(E, X, x, v, dX0):
    """R_j = sum_{i<j} sum_{m=1..j-i} E_i^(m)(X0) [delta^m]_{j-i} / m!
    without (i, m) = (0, 1), j = len(X) + 1, on whole tables, from the
    Taylor fields E_0..E_{j-1} and trajectories X_1..X_{j-1};
    E_i^(m) = d^m_x E_i (spectral)."""
    j, R = len(X) + 1, np.zeros(dX0.shape)
    for i, Ei in enumerate(E):
        for m in range(1, j - i + 1):
            Ei = fields.spectral_dx(Ei)
            if (i, m) != (0, 1):
                term = along(Ei, x, v, dX0)
                term *= power(X, m, j - i)
                R += term * (1.0 / math.factorial(m))
    return R


def tangent_map(spec, result, traj, tables):
    """One step of the iteration that the tangent pass replaces: the
    order-j map, j = len(tables), applied to tables[-1], with tables[:-1]
    the accepted E_1..E_{j-1} (value arrays), along the trajectories traj
    of result.  Each X_i comes from E_i as that iteration formed it,
    suffix_volterra(E_0'(X0), E_i(X0) + R_i), and the whole density sum
    sum_m ((-ik)^m / m!) S[sum_i wf_i [delta^m]_{j-i}] is formed at once."""
    E0, phase, z = result.field, result.phase, result.z
    x, v, _ = S._flat_labels(phase)
    times, nx = E0.tgrid.times, E0.xgrid.n
    nk = nx // 2 + 1
    mik = -1j * np.arange(nk)
    dX0 = traj.dX.reshape(len(times), -1)
    table = kernels.phase_rows(phase.v, times, nk)

    def density(W):
        return kernels.corr_fourier(W, x, v, times, dX0, nk) \
            + S._free_modes(W, table)

    g = along(fields.spectral_dx(E0), x, v, dX0)
    E = [E0] + [E0.with_values(t) for t in tables]
    X = []
    for i in range(1, len(E)):
        R = trajectory_forcing(E[:i], X, x, v, dX0)
        X.append(suffix_volterra(
            g, along(E[i], x, v, dX0) + R, E0.tgrid.dt)[1])
    j = len(tables)
    specs, wf = [spec], [_profile_weights(phase, spec, z)[2]]
    for i in range(1, j + 1):
        specs.append(specs[-1].z_derivative())
        wf.append(_profile_weights(phase, specs[i], z)[2]
                  / math.factorial(i))
    c = kernels.corr_fourier(wf[j], x, v, times, dX0, nk)
    for m in range(1, j + 1):
        c += (mik ** m / math.factorial(m)) * density(sum(
            wf[i] * power(X, m, j - i) for i in range(j - m + 1)))
    return S.field_map_zero(specs[j], z, E0.tgrid, E0.xgrid).values \
        / math.factorial(j) + S._field_of_modes(c, nx)


def tangent_by_orders(spec, result, traj):
    """The tangent pass of result along its trajectories traj as it was
    before it formed every order in one pass: one kernels.suffix_pass per
    order on whole (nt, P) tables,
    E_0'(X0) and each order's forcing R_j and trajectory X_j kept whole,
    and a separate march for the trajectory of the forcing F_j.  Returns
    (the value arrays of E_1..E_K, the checks z_deriv_{j}_tangent)."""
    E0, params, phase, z = result.field, result.params, result.phase, \
        result.z
    x, v, _ = S._flat_labels(phase)
    times, nx = E0.tgrid.times, E0.xgrid.n
    nk = nx // 2 + 1
    mik = -1j * np.arange(nk)
    dX0 = traj.dX.reshape(len(times), -1)
    lip = params.contraction_bound
    table = kernels.phase_rows(phase.v, times, nk)
    corr_rows = kernels.corr_evaluator()

    def density(W):
        return kernels.corr_fourier(W, x, v, times, dX0, nk) \
            + S._free_modes(W, table)

    def norm(values):
        return fields.weighted_norm(E0.with_values(values), params.a).value

    E, X, specs, checks = [E0], [], [spec], {}
    wf = [_profile_weights(phase, spec, z)[2]]
    g = along(fields.spectral_dx(E0), x, v, dX0)
    modes = np.empty((1, nk), dtype=complex)
    for j in range(1, params.K + 1):
        specs.append(specs[-1].z_derivative())
        wf.append(_profile_weights(phase, specs[j], z)[2]
                  / math.factorial(j))
        c = kernels.corr_fourier(wf[j], x, v, times, dX0, nk)
        for m in range(1, j + 1):
            terms = range(m == 1, j - m + 1)
            if terms:
                c += (mik ** m / math.factorial(m)) * density(sum(
                    wf[i] * power(X, m, j - i) for i in terms))
        const = S.field_map_zero(specs[j], z, E0.tgrid, E0.xgrid).values \
            / math.factorial(j) + S._field_of_modes(c, nx)
        if j == 1:
            R, forcing = None, norm(const)
        else:
            R = trajectory_forcing(E, X, x, v, dX0)
            Xf = suffix_volterra(g, R, E0.tgrid.dt)[1]
            forcing = norm(const + S._field_of_modes(
                mik * density(wf[0] * Xf), nx))
        vals = const.copy()

        def integrand(n, Xn):
            W = wf[0][None, :] * Xn
            corr_rows(modes, W, dX0[n:n + 1], table[n:n + 1])
            modes[...] += S._free_modes(W, table[n:n + 1])
            vals[n] += S._field_of_modes(mik * modes[0], nx)
            out = np.empty((1, len(x)))
            kernels.eval_block(out, np.fft.rfft(vals[n])[None] / nx,
                               dX0[n:n + 1], table[n:n + 1])
            out = out[0]
            out += g[n] * Xn
            if R is not None:
                out += R[n]
            return out

        X.append(suffix_tables(integrand, g.shape, E0.tgrid.dt)[1])
        E.append(E0.with_values(vals))
        name, fac = f"z_deriv_{j}_tangent", math.factorial(j)
        checks[name] = P.BoundCheck(name, fac * norm(vals),
                                    fac * forcing / (1.0 - lip))
    return [e.values for e in E[1:]], checks


def tangent_iterate(spec, result, traj, maps):
    """The tangent iteration that the tangent pass replaces: each order's
    map iterated `maps` times from 0, order by order, along the
    trajectories traj of result; returns the value arrays of E_1..E_K."""
    tables = []
    for j in range(1, result.params.K + 1):
        Ej = np.zeros_like(result.field.values)
        for _ in range(maps):
            Ej = tangent_map(spec, result, traj, tables + [Ej])
        tables.append(Ej)
    return tables


def mp_field_march(spec, z, tgrid, phase, dps=30):
    """The discrete fixed point of the field pass by an independent march
    in mpmath at dps digits, for tiny grids: the same composite-trapezoid
    recurrence from t_end backward (dX_n from the rows > n), and at each
    row the density modes as a direct sum over the particles,
    rho_k = (1/2pi) sum_p wf_p e^{-ik(x_p + v_p t_n)} (e^{-ik dX_p} - 1),
    the row of the field as free + sum_{0<k<nx/2} 2 Re(rho_k/(ik) e^{ikx})
    on the grid, and its value along x_p + v_p t_n + dX_p as the direct
    Fourier sum of the row's trigonometric interpolant (the cosine-only
    Nyquist term included).  The labels, weights and field_map_zero come
    from the library.  Returns the field as floats, (nt, nx)."""
    with mpmath.workdps(dps):
        x, v, wf = ([mpmath.mpf(float(e)) for e in arr]
                    for arr in _profile_weights(phase, spec, z))
        free = S.field_map_zero(spec, z, tgrid, phase.xgrid).values
        nt, nx = free.shape
        half = nx // 2
        grid = [2 * mpmath.pi * i / nx for i in range(nx)]
        times = [mpmath.mpf(float(t)) for t in tgrid.times]
        dt = mpmath.mpf(tgrid.dt)
        out = np.empty((nt, nx))

        def row(n, dX):
            rho = [sum(w * mpmath.expj(-k * (xp + vp * times[n]))
                       * (mpmath.expj(-k * d) - 1)
                       for w, xp, vp, d in zip(wf, x, v, dX)) / (2 * mpmath.pi)
                   for k in range(half)]
            vals = [mpmath.mpf(float(free[n, i])) + sum(
                2 * mpmath.re(rho[k] / (1j * k) * mpmath.expj(k * xi))
                for k in range(1, half)) for i, xi in enumerate(grid)]
            out[n] = [float(e) for e in vals]
            c = [sum(e * mpmath.expj(-k * xi) for e, xi in zip(vals, grid))
                 / nx for k in range(half + 1)]
            h = []
            for xp, vp, d in zip(x, v, dX):
                y = xp + vp * times[n] + d
                h.append(mpmath.re(c[0]) + sum(
                    2 * mpmath.re(c[k] * mpmath.expj(k * y))
                    for k in range(1, half))
                    + mpmath.re(c[half]) * mpmath.cos(half * y))
            return h

        acc = [mpmath.mpf(0)] * len(x)
        mom = list(acc)
        h_next = row(nt - 1, mom)
        for n in range(nt - 2, -1, -1):
            mom = [m + dt * s + dt * dt / 2 * hn
                   for m, s, hn in zip(mom, acc, h_next)]
            h = row(n, mom)
            acc = [s + dt / 2 * (a + b) for s, a, b in zip(acc, h, h_next)]
            h_next = h
        return out


def eval_profile_grad(spec, x, v, z=0.0):
    """(d/dx f*, d/dv f*); x and v broadcast."""
    s = spec.shape_value(v)
    return (spec.scale * spec.f1_dx(x, z) * s,
            spec.scale * spec.f1_value(x, z) * spec.shape_dv(v))


def collocation_derivative(nodes, values, k, at=0.0):
    """d^k/dz^k at a point of the interpolant through (nodes, values);
    values has the node axis first, which the result drops."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if k >= nodes.shape[0]:
        raise ValueError("derivative order must be below the node count")
    return np.tensordot(fd_weights(nodes, at, k)[k], values, axes=(0, 0))


def gpc_reconstruct(table, z):
    """sum_m c_m sqrt(2m+1) P_m(z), the gPC expansion of a GpcTable at z,
    by numpy's Legendre series."""
    scale = np.sqrt(2.0 * np.arange(table.n_modes) + 1.0)
    return npleg.legval(z, table.coefficients * scale[:, None, None])


# ---------------------------------------------------------------------------
# lemma checkers: the tail-integral bounds and the weighted product estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailBoundReport:
    """Worst observed ratio of each tail integral to its standard bound.

    For t >= t0 and k <= 2K, under (A1)-(A2):

        int_t^inf (s-t) s^k e^{-a s} ds <= (4/a^2) t^k e^{-a t}
        int_t^inf       s^k e^{-a s} ds <= (2/a)   t^k e^{-a t}

    ratios <= 1 certify the bounds on the sampled window.
    """

    moment_ratios: dict = field(default_factory=dict)   # k -> worst ratio
    plain_ratios: dict = field(default_factory=dict)
    t_window: tuple = (0.0, 0.0)

    @property
    def passed(self):
        vals = list(self.moment_ratios.values()) + list(self.plain_ratios.values())
        return all(r <= 1.0 for r in vals)

    @property
    def worst(self):
        vals = list(self.moment_ratios.values()) + list(self.plain_ratios.values())
        return max(vals) if vals else 0.0


def verify_tail_bounds(params, t_max, samples=101):
    """Check the 4/a^2 and 2/a tail bounds for k <= 2K on [t0, t_max]."""
    if t_max <= params.t0:
        raise ValueError("t_max must exceed t0")
    a, t0 = params.a, params.t0
    moment_ratios, plain_ratios = {}, {}
    ts = [t0 + (t_max - t0) * i / (samples - 1) for i in range(samples)]
    for k in range(2 * params.K + 1):
        worst_m = worst_p = 0.0
        for t in ts:
            scale = t ** k * math.exp(-a * t)
            worst_m = max(worst_m, tail_integral_moment(a, t, k)
                          / (4.0 / a ** 2 * scale))
            worst_p = max(worst_p, tail_integral(a, t, k) / (2.0 / a * scale))
        moment_ratios[k] = worst_m
        plain_ratios[k] = worst_p
    return TailBoundReport(moment_ratios=moment_ratios,
                           plain_ratios=plain_ratios, t_window=(t0, t_max))


@dataclass(frozen=True)
class ProductBoundReport:
    """Weighted-norm product inequality |prod f_i|_{a,t0,k} <= C prod |f_i|.

    C = t*^(sum k_i - k) e^{-(n-1) a t*} with t* = t0 when
    t0 >= t1 = (sum k_i - k)/((n-1) a), else t* = t1 (where the envelope
    t^(sum k_i - k) e^{-(n-1) a t} peaks).
    """

    constant: float
    case: str                    # "t0" or "t1"
    lhs: float
    rhs: float
    factor_norms: tuple

    @property
    def passed(self):
        return self.lhs <= self.rhs


def check_nonlinear_norm_product(times, factors, k, a, t0):
    """Verify the weighted product estimate on sampled factors.

    factors is a sequence of (samples, k_i) with samples on the given
    times, which start at t0; k is the target moment.  Requires n >= 2
    factors and k <= sum k_i.
    """
    factors = list(factors)
    n = len(factors)
    if n < 2:
        raise ValueError("need at least two factors")
    m = sum(int(ki) for _, ki in factors) - int(k)
    if m < 0:
        raise ValueError("target moment exceeds the sum of factor moments")
    t1 = m / ((n - 1) * a)
    case, tstar = ("t0", t0) if t0 >= t1 else ("t1", t1)
    constant = tstar ** m * math.exp(-(n - 1) * a * tstar)

    norms = []
    prod = None
    for samples, ki in factors:
        samples = np.asarray(samples, dtype=float)
        norms.append(fields.weighted_sup(times, np.abs(samples), a,
                                         moment=ki).value)
        prod = samples if prod is None else prod * samples
    lhs = fields.weighted_sup(times, np.abs(prod), a, moment=int(k)).value
    return ProductBoundReport(constant=constant, case=case, lhs=lhs,
                              rhs=constant * math.prod(norms),
                              factor_norms=tuple(norms))


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
    from vlandau.profiles import eval_profile
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
    x, v = _full_grid(spec)
    gx, gv = eval_profile_grad(spec, x[:, None], v[None, :], z)
    return float(np.sqrt(gx * gx + gv * gv).max())


def resolved_corollary_survey(ens, spec):
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
                                   moment=1).value

    norms, ratios = [], []
    for j, (z, result) in enumerate(zip(ens.nodes, ens.results)):
        traj = scattering.solve_characteristics(result.field, phase, a=a)
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
