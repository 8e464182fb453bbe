"""Backward characteristics, the density/field map, and its fixed point.

Trajectories are labeled by their asymptotic data: (x, v) are the
free-flight coordinates as t -> infinity, and the backward integral
equations

    X(x,v,t) = x + v t + int_t^inf (s - t) E(X(x,v,s), s) ds
    V(x,v,t) = v       - int_t^inf         E(X(x,v,s), s) ds

are solved per phase node by waveform relaxation over the whole stored
time window at once.  The induced field map takes a field E to

    (map E)(y, t) = int int B(y - X(x,v,t)) f*(x,v) dx dv,

whose fixed point is the damped solution; the Picard driver iterates it
from E = 0 and monitors the contraction ratios.

Everything time-dependent is stored in deviation form (X - x - vt,
V - v, dX/dx - 1, dX/dv - t, dV/dv - 1, ...), never in absolute form:
the deviations decay like e^{-a t} and downstream norms weight them by
e^{a t}, so representing them as differences of O(1) or O(t) quantities
would drown the late-time signal in representation noise.

For the same reason the field map is evaluated split (FIELD_MAP_METHOD,
the only method): the free-streaming part of the transported density is
summed analytically from the profile transforms, and only the correction

    (1/2pi) sum_p w_p f*_p e^{-ik(x_p + v_p t)} (e^{-ik dX_p(t)} - 1)

is evaluated by quadrature, keeping the quadrature noise proportional
to the (decaying) displacement.  The literal kernel summation
sum_p w_p f*_p B(y - X_p) agrees with it to quadrature accuracy in the
plain sup norm but carries a flat noise floor that exponentially
weighted norms amplify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import (FieldTable, PhaseGrid, TimeGrid, XGrid, spectral_dx,
                     weighted_norm, weighted_sup, zero_field)
from .params import BoundCheck, DampingParams, require_admissible, \
    tail_integral, tail_integral_moment
from .profiles import HypothesisError, ProfileSpec, eval_profile, \
    neutral_density, profile_fourier, require_hypotheses

FIELD_MAP_METHOD = "split"     # recorded in the manifests and the config


class ConvergenceError(RuntimeError):
    """An iteration failed to reach its tolerance; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _flat_labels(phase: PhaseGrid):
    x = np.repeat(phase.xgrid.points, phase.nv)
    v = np.tile(phase.v, phase.xgrid.n)
    w = phase.weights.ravel()
    return x, v, w


def _profile_weights(phase: PhaseGrid, spec: ProfileSpec, z: float):
    """Quadrature weight times profile value per flattened phase node."""
    x, v, w = _flat_labels(phase)
    return x, v, w * eval_profile(spec, x, v, z)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryTable:
    """Backward characteristics in deviation form on PhaseGrid x TimeGrid.

    dX = X - (x + v t) and dV = V - v, shaped (nt, nx, nv).  With E == 0
    both are identically zero, i.e. free transport is represented exactly.
    """

    phase: PhaseGrid
    tgrid: TimeGrid
    dX: np.ndarray
    dV: np.ndarray
    inner_iterations: int
    residual: float
    tail_bound_x: float
    tail_bound_v: float

    def X(self) -> np.ndarray:
        x, v, _ = _flat_labels(self.phase)
        t = self.tgrid.times[:, None]
        flat = x[None, :] + v[None, :] * t + self.dX.reshape(len(self.tgrid), -1)
        return flat.reshape(self.dX.shape)

    def V(self) -> np.ndarray:
        _, v, _ = _flat_labels(self.phase)
        return v.reshape(1, self.phase.xgrid.n, self.phase.nv) + self.dV


def solve_characteristics(E: FieldTable, phase: PhaseGrid, a: float,
                          tol: float = 1e-12, max_inner: int = 50,
                          initial: np.ndarray | None = None) -> TrajectoryTable:
    """Waveform relaxation for the backward trajectory integral equations.

    Starting from the free flight (or the supplied initial deviation),
    each sweep re-evaluates E along the current trajectories and
    recomputes the position suffix integrals by the composite-trapezoid
    moment rule; sweeps stop when the sup-norm update of X falls below
    tol.  The velocity deviation is then accumulated once with the
    exponential-weight product rule (exact for e^{-a s} x linear), since
    the plain trapezoid overshoots decaying convex envelopes by
    (a dt)^2/12 relative - far more than the headroom of the pointwise
    velocity bound |V - v| <= (|E|_{a,t0}/a) e^{-a t}.  The integral
    tail beyond the stored horizon is neglected and certified via the
    closed-form tail integrals; the precondition |E|_{a,t0} e^{-a t0} <= a
    is enforced.
    """
    tg = E.tgrid
    x, v, _ = _flat_labels(phase)
    nt, npart = len(tg), x.shape[0]

    norm_e = weighted_norm(E, a).value
    if norm_e * math.exp(-a * tg.t0) > a:
        raise ConvergenceError(
            f"field too large for the trajectory map: |E| e^(-a t0) = "
            f"{norm_e * math.exp(-a * tg.t0):.3e} > a = {a:.3e}",
            residual=math.inf)

    c = E.coefficients()
    cre = np.ascontiguousarray(c.real)
    cim = np.ascontiguousarray(c.imag)
    times = tg.times

    dX = np.zeros((nt, npart)) if initial is None \
        else np.ascontiguousarray(initial.reshape(nt, npart)).copy()
    g = np.zeros((nt, npart))
    residual = math.inf
    sweeps = 0
    for sweeps in range(1, max_inner + 1):
        g = kernels.eval_rows(cre, cim, x, v, times, dX)
        _, mom = kernels.suffix_trapz_moment(g, tg.dt)
        residual = float(np.abs(mom - dX).max())
        dX = mom
        if residual < tol:
            break
    else:
        raise ConvergenceError(
            f"characteristics did not converge in {max_inner} sweeps "
            f"(last update {residual:.3e} > tol {tol:.3e})", residual)

    alpha, beta = kernels.exp_cell_weights(a, tg.dt)
    dV = -kernels.suffix_weighted(g, alpha, beta)

    shape = (nt, phase.xgrid.n, phase.nv)
    return TrajectoryTable(
        phase=phase, tgrid=tg, dX=dX.reshape(shape), dV=dV.reshape(shape),
        inner_iterations=sweeps, residual=residual,
        tail_bound_x=norm_e * tail_integral_moment(a, tg.t_end, 0),
        tail_bound_v=norm_e * tail_integral(a, tg.t_end, 0))


def check_trajectory_bounds(traj: TrajectoryTable, E: FieldTable,
                            params: DampingParams) -> dict:
    """Worst node ratios of the two displacement inequalities

    |v - V| <= (|E|_{a,t0}/a) e^{-a t},
    |x - (X - V t)| <= |E|_{a,t0} (2/a) t e^{-a t},

    as {traj_velocity, traj_position} BoundChecks against 1.  For E == 0
    both sides vanish and the ratios are defined as 0.
    """
    a = params.a
    norm_e = weighted_norm(E, a).value
    ratio_v = ratio_x = 0.0
    if norm_e != 0.0:
        t = traj.tgrid.times[:, None, None]
        decay = np.exp(-a * traj.tgrid.times)[:, None, None]
        ratio_v = float((np.abs(traj.dV) / ((norm_e / a) * decay)).max())
        # x - (X - V t) = dV * t - dX when X, V are expanded around free flight
        lhs_x = np.abs(traj.dV * t - traj.dX)
        ratio_x = float((lhs_x / (norm_e * (2.0 / a) * t * decay)).max())
    return {"traj_velocity": BoundCheck("traj_velocity", ratio_v, 1.0),
            "traj_position": BoundCheck("traj_position", ratio_x, 1.0)}


# ---------------------------------------------------------------------------
# variational system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationalTable:
    """First derivatives of the flow w.r.t. the asymptotic labels,
    in deviation form: xi = dX/dx - 1, eta = dX/dv - t, chi = dV/dx,
    omega = dV/dv - 1; all shaped (nt, nx, nv)."""

    phase: PhaseGrid
    tgrid: TimeGrid
    xi: np.ndarray
    eta: np.ndarray
    chi: np.ndarray
    omega: np.ndarray
    inner_iterations: int
    residual: float

    def dX_dx(self) -> np.ndarray:
        return 1.0 + self.xi

    def dX_dv(self) -> np.ndarray:
        return self.tgrid.times[:, None, None] + self.eta

    def dV_dx(self) -> np.ndarray:
        return self.chi

    def dV_dv(self) -> np.ndarray:
        return 1.0 + self.omega

    def jacobian_minus_one(self) -> np.ndarray:
        """det d(X,V)/d(x,v) - 1, assembled without forming the O(t) terms:
        (1+xi)(1+omega) - (t+eta) chi - 1 = xi + omega + xi omega - (t+eta) chi."""
        t = self.tgrid.times[:, None, None]
        return (self.xi + self.omega + self.xi * self.omega
                - (t + self.eta) * self.chi)


def solve_variational(E: FieldTable, traj: TrajectoryTable, tol: float = 1e-12,
                      max_inner: int = 50) -> VariationalTable:
    """Waveform relaxation for the linearized flow along frozen trajectories.

    dX/dx and dX/dv each satisfy a linear suffix integral equation driven
    by dE/dx evaluated along X; dV/dx and dV/dv follow by one direct
    quadrature from the converged position derivatives.
    """
    tg = traj.tgrid
    phase = traj.phase
    x, v, _ = _flat_labels(phase)
    nt, npart = len(tg), x.shape[0]
    times = tg.times

    cdx = spectral_dx(E).coefficients()
    cre = np.ascontiguousarray(cdx.real)
    cim = np.ascontiguousarray(cdx.imag)
    dX = traj.dX.reshape(nt, npart)
    g_ex = kernels.eval_rows(cre, cim, x, v, times, dX)

    xi = np.zeros((nt, npart))
    eta = np.zeros((nt, npart))
    tcol = times[:, None]
    residual = math.inf
    sweeps = 0
    for sweeps in range(1, max_inner + 1):
        _, xi_new = kernels.suffix_trapz_moment(g_ex * (1.0 + xi), tg.dt)
        _, eta_new = kernels.suffix_trapz_moment(g_ex * (tcol + eta), tg.dt)
        residual = max(float(np.abs(xi_new - xi).max()),
                       float(np.abs(eta_new - eta).max()))
        xi, eta = xi_new, eta_new
        if residual < tol:
            break
    else:
        raise ConvergenceError(
            f"variational system did not converge in {max_inner} sweeps "
            f"(last update {residual:.3e} > tol {tol:.3e})", residual)

    chi = -kernels.suffix_trapz(g_ex * (1.0 + xi), tg.dt)
    omega = -kernels.suffix_trapz(g_ex * (tcol + eta), tg.dt)

    shape = (nt, phase.xgrid.n, phase.nv)
    return VariationalTable(phase=phase, tgrid=tg, xi=xi.reshape(shape),
                            eta=eta.reshape(shape), chi=chi.reshape(shape),
                            omega=omega.reshape(shape),
                            inner_iterations=sweeps, residual=residual)


def check_variational_bounds(var: VariationalTable,
                             params: DampingParams) -> dict:
    """The four weighted-norm estimates for the linearized flow plus the
    two plain-sup bounds, as {name: BoundCheck}."""
    a, ce, t0 = params.a, params.C_E, params.t0
    times = var.tgrid.times

    def wsup(name, arr, moment, bound):
        sup = np.abs(arr).reshape(len(times), -1).max(axis=1)
        rep = weighted_sup(times, sup, a, moment=moment, t_start=t0)
        return BoundCheck(name, rep.value, bound, rep.horizon_dominated)

    sup1_dxdv = float((np.abs(var.dX_dv()) / times[:, None, None]).max())
    checks = [
        wsup("dXdx_weighted", var.xi, 1, 8.0 * ce / a ** 2),
        wsup("dXdv_weighted", var.eta, 2, 8.0 * ce / a ** 2),
        wsup("dVdx_weighted", var.chi, 1, 4.0 * ce / a),
        wsup("dVdv_weighted", var.omega, 2, 10.0 * ce / a),
        BoundCheck("dXdx_sup", float(np.abs(var.dX_dx()).max()), 2.0),
        BoundCheck("dXdv_sup_moment1", sup1_dxdv, 2.0),
    ]
    return {c.name: c for c in checks}


# ---------------------------------------------------------------------------
# density and field map
# ---------------------------------------------------------------------------

def deposit_density(traj: TrajectoryTable, spec: ProfileSpec, z: float,
                    xgrid: XGrid) -> FieldTable:
    """Cloud-in-cell density of the transported profile on xgrid.

    Particles sit at X(x,v,t) with weight w_xv f*(x,v,z); linear hats of
    one cell width replace the delta function.  Homogeneous free
    transport reproduces the mean density by construction.
    """
    x, v, wf = _profile_weights(traj.phase, spec, z)
    nt = len(traj.tgrid)
    t = traj.tgrid.times[:, None]
    pos = x[None, :] + v[None, :] * t + traj.dX.reshape(nt, -1)
    rho = kernels.cic_density(wf, pos, xgrid.n, xgrid.dx)
    return FieldTable(traj.tgrid, xgrid, rho)


def deposit_density_pert(traj: TrajectoryTable, spec: ProfileSpec, z: float,
                         xgrid: XGrid) -> FieldTable:
    """Mean-free density perturbation rho - rho_mean, late-time accurate.

    Two decaying pieces are assembled separately: the free-streaming
    perturbation summed exactly from the profile transforms, and the
    transport correction deposited as a per-particle cloud-in-cell
    *difference* against the free flight.  Subtracting two full CIC
    tables instead would leave a flat noise floor far above the signal
    once e^{-a t} has run its course.
    """
    x, v, wf = _profile_weights(traj.phase, spec, z)
    nt = len(traj.tgrid)
    times = traj.tgrid.times
    corr = kernels.cic_density_pert(wf, x, v, times,
                                    traj.dX.reshape(nt, -1),
                                    xgrid.n, xgrid.dx)
    free = np.zeros((nt, xgrid.n))
    xs = xgrid.points
    for m in spec.modes:
        if m.k == 0:
            continue
        amp = 2.0 * m.amplitude(z) * spec.scale
        trans = np.asarray(spec.shape_transform(m.k * times))
        free += amp * trans[:, None] * np.cos(m.k * xs)[None, :]
    return FieldTable(traj.tgrid, xgrid, corr + free)


def field_map_zero(spec: ProfileSpec, z: float, tgrid: TimeGrid,
                   xgrid: XGrid) -> FieldTable:
    """The map applied to E == 0, summed in closed form:
    sum_{k != 0} fhat(k, k t) e^{i k x} / (i k)
    = sum_{k >= 1} (2 scale c_k(z) T(k t) / k) sin(k x)."""
    times = tgrid.times
    xs = xgrid.points
    vals = np.zeros((len(tgrid), xgrid.n))
    for m in spec.modes:
        if m.k == 0:
            continue
        coef = np.asarray(profile_fourier(spec, m.k, m.k * times, z),
                          dtype=float)
        vals += (2.0 / m.k) * coef[:, None] * np.sin(m.k * xs)[None, :]
    return FieldTable(tgrid, xgrid, vals)


def _map_from_traj(traj: TrajectoryTable, spec: ProfileSpec, z: float,
                   xgrid: XGrid) -> FieldTable:
    """Evaluate the field map given already-solved trajectories."""
    x, v, wf = _profile_weights(traj.phase, spec, z)
    times = traj.tgrid.times
    dX = traj.dX.reshape(len(times), -1)
    nk = xgrid.n // 2 + 1
    corr_re, corr_im = kernels.corr_fourier(wf, x, v, times, dX, nk)
    vals = field_map_zero(spec, z, traj.tgrid, xgrid).values.copy()
    xs = xgrid.points
    for k in range(1, nk - 1):       # Nyquist row dropped (negligible, odd)
        ck, sk = np.cos(k * xs), np.sin(k * xs)
        vals += (2.0 / k) * (np.outer(corr_im[:, k], ck)
                             + np.outer(corr_re[:, k], sk))
    return FieldTable(traj.tgrid, xgrid, vals)


# ---------------------------------------------------------------------------
# fixed-point driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveResult:
    """Converged fixed point with its audit trail."""

    field: FieldTable
    params: DampingParams
    z: float
    converged: bool
    iterations: int
    iterate_norms: tuple[float, ...]
    contraction_ratios: tuple[float, ...]
    residual_norm: float
    checks: dict
    certificates: dict
    phase: PhaseGrid
    traj: TrajectoryTable | None = None
    var: VariationalTable | None = None

    @property
    def passed(self) -> bool:
        return self.converged and all(c.passed for c in self.checks.values())

    def manifest(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "z": self.z,
            "converged": self.converged,
            "iterations": self.iterations,
            "iterate_norms": list(self.iterate_norms),
            "contraction_ratios": list(self.contraction_ratios),
            "residual_norm": self.residual_norm,
            "method": FIELD_MAP_METHOD,
            "grids": {
                "t0": self.field.tgrid.t0, "t_end": self.field.tgrid.t_end,
                "nt": len(self.field.tgrid), "nx": self.field.xgrid.n,
                "nv": self.phase.nv, "v_max": self.phase.v_max,
            },
            "checks": {k: c.as_dict() for k, c in self.checks.items()},
            "certificates": self.certificates,
            "passed": self.passed,
        }


def _fixed_point_checks(E: FieldTable, params: DampingParams,
                        traj: TrajectoryTable, var: VariationalTable,
                        rho: FieldTable, rho_pert: FieldTable,
                        residual_norm: float, tol: float,
                        contraction_ratios):
    a, a1, a2, ce = params.a, params.a1, params.a2, params.C_E
    checks: dict[str, BoundCheck] = {}

    ne = weighted_norm(E, a)
    checks["field_weighted"] = BoundCheck("field_weighted", ne.value, 8 * a1,
                                          ne.horizon_dominated)
    ex = spectral_dx(E)
    checks["field_dx_sup"] = BoundCheck(
        "field_dx_sup", float(np.abs(ex.values).max()), 20 * a2)
    nex = weighted_norm(ex, a, moment=1)
    checks["field_dx_weighted"] = BoundCheck("field_dx_weighted", nex.value,
                                             ce, nex.horizon_dominated)

    checks["density_sup"] = BoundCheck(
        "density_sup", float(np.abs(rho.values).max()), 10 * a2)
    npert = weighted_norm(rho_pert, a, moment=1)
    checks["density_pert_weighted"] = BoundCheck(
        "density_pert_weighted", npert.value, ce, npert.horizon_dominated)

    checks.update(check_trajectory_bounds(traj, E, params))
    checks.update(check_variational_bounds(var, params))

    jac = float(np.abs(var.jacobian_minus_one()).max())
    checks["jacobian_deviation"] = BoundCheck("jacobian_deviation", jac, 1e-6)

    consistency = float(np.abs(ex.values - rho_pert.values).max())
    checks["field_density_consistency"] = BoundCheck(
        "field_density_consistency", consistency, 5e-5)

    checks["fixed_point_residual"] = BoundCheck(
        "fixed_point_residual", residual_norm, tol)

    # the contraction estimate bounds each ratio of successive Picard
    # increments by 88 a2 / (a^2 - 80 a2), whose denominator (A1) keeps > 0
    if contraction_ratios:
        checks["contraction_ratio"] = BoundCheck(
            "contraction_ratio", max(contraction_ratios),
            88.0 * a2 / (a ** 2 - 80.0 * a2))
    return checks


def solver_preconditions(spec: ProfileSpec, nx: int,
                         z_samples=(0.0,)) -> dict:
    """The two conditions the solver needs beyond the hypotheses, as
    {neutrality, mode_resolution} BoundChecks:

    neutrality       the number of z samples whose mean density
                     (neutral_density) is not positive, against 0;
    mode_resolution  the largest retained mode k against nx/2 - 1, the
                     highest mode below the Nyquist mode of nx positions.
    """
    bad = sum(not neutral_density(spec, z) > 0.0 for z in z_samples)
    return {"neutrality": BoundCheck("neutrality", float(bad), 0.0),
            "mode_resolution": BoundCheck("mode_resolution",
                                          float(spec.max_mode),
                                          float(nx // 2 - 1))}


def picard_solve(spec: ProfileSpec, params: DampingParams, z: float,
                 tgrid: TimeGrid, phase: PhaseGrid, tol: float = 1e-10,
                 max_iter: int = 30, inner_tol: float = 1e-12,
                 max_inner: int = 50, method: str = FIELD_MAP_METHOD,
                 keep_tables: bool = True) -> SolveResult:
    """Iterate the field map from E = 0 to its fixed point.

    Gates on the parameter conditions and the profile hypotheses first.
    Stops when the weighted increment |E_{n+1} - E_n|_{a,t0} drops below
    tol; contraction ratios are recorded from the second increment
    onward, and three consecutive ratios above 1 abort with a
    grid-resolution diagnosis.  After convergence one extra map
    application certifies the fixed-point residual, and the returned
    result carries the full set of inequality checks evaluated at the
    converged field.  method accepts only FIELD_MAP_METHOD; it remains for
    callers that pass the config's method (perfbench/reference.py).
    """
    if method != FIELD_MAP_METHOD:
        raise ValueError(f"unknown field-map method {method!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    require_admissible(params)
    require_hypotheses(spec, params.a, params.a1, params.a2, z_samples=(z,))
    pre = solver_preconditions(spec, phase.xgrid.n, z_samples=(z,))
    if not pre["neutrality"].passed:
        raise HypothesisError(
            "profile has nonpositive mean density; the neutrality "
            "condition needs a positive k=0 amplitude")
    if not pre["mode_resolution"].passed:
        raise HypothesisError(
            f"profile mode k={spec.max_mode} is not resolved by the "
            f"{phase.xgrid.n}-point position grid")
    a = params.a
    xgrid = phase.xgrid

    E = zero_field(tgrid, xgrid)
    d_hist: list[float] = []
    ratios: list[float] = []
    traj = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        traj = solve_characteristics(
            E, phase, a, tol=inner_tol, max_inner=max_inner,
            initial=None if traj is None else traj.dX)
        E_next = _map_from_traj(traj, spec, z, xgrid)
        d = weighted_norm(E_next.with_values(E_next.values - E.values), a).value
        d_hist.append(d)
        if len(d_hist) >= 2 and d_hist[-2] > 0.0:
            ratios.append(d_hist[-1] / d_hist[-2])
            if len(ratios) >= 3 and all(r > 1.0 for r in ratios[-3:]):
                raise ConvergenceError(
                    "contraction ratios persistently exceed 1 "
                    f"(last three: {ratios[-3:]}); the grid resolution is "
                    "inadequate for the requested tolerance", residual=d)
        E = E_next
        if d < tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"fixed-point iteration did not reach {tol:.3e} in "
            f"{max_iter} iterations (last increment {d_hist[-1]:.3e})",
            residual=d_hist[-1])

    # certify the residual of the accepted iterate with one more map
    traj = solve_characteristics(E, phase, a, tol=inner_tol,
                                 max_inner=max_inner, initial=traj.dX)
    E_map = _map_from_traj(traj, spec, z, xgrid)
    residual_norm = weighted_norm(
        E_map.with_values(E_map.values - E.values), a).value

    var = solve_variational(E, traj, tol=inner_tol, max_inner=max_inner)
    rho = deposit_density(traj, spec, z, xgrid)
    rho_pert = deposit_density_pert(traj, spec, z, xgrid)

    checks = _fixed_point_checks(
        E, params, traj, var, rho, rho_pert, residual_norm, tol, ratios)

    rho0 = neutral_density(spec, z)
    x, v, _ = _flat_labels(phase)
    certificates = {
        "time_tail_position": traj.tail_bound_x,
        "time_tail_velocity": traj.tail_bound_v,
        "velocity_truncation_density": 2.0 * params.a2 / (3.0 * phase.v_max ** 3),
        "mean_density_drift": abs(float(rho.values.mean()) - rho0),
        "inner_residual": traj.residual,
        "variational_residual": var.residual,
        "kernel_truncation": kernels.truncation_remainder(
            x, v, traj.dX.reshape(len(tgrid), -1), xgrid.n // 2 + 1),
    }

    return SolveResult(
        field=E, params=params, z=z, converged=converged,
        iterations=iterations, iterate_norms=tuple(d_hist),
        contraction_ratios=tuple(ratios), residual_norm=residual_norm,
        checks=checks, certificates=certificates, phase=phase,
        traj=traj if keep_tables else None,
        var=var if keep_tables else None)
