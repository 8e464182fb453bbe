"""Backward characteristics, the density/field map, and its fixed point.

Trajectories are labeled by their asymptotic data: (x, v) are the
free-flight coordinates as t -> infinity, and the backward integral
equations

    X(x,v,t) = x + v t + int_t^inf (s - t) E(X(x,v,s), s) ds
    V(x,v,t) = v       - int_t^inf         E(X(x,v,s), s) ds

are solved on the composite-trapezoid rule in one exact backward pass
over the stored time window (the discrete system is strictly
triangular).  The induced field map takes a field E to

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

solve_tangent differentiates the fixed point in the profile parameter z:
each Taylor coefficient of E(z) solves one linear fixed point along the
certified trajectories, with a contraction certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

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


def _along(E: FieldTable, x, v, dX) -> np.ndarray:
    """E at the positions x + v t + dX of the flattened labels, (nt, P)."""
    c = E.coefficients()
    return kernels.eval_rows(np.ascontiguousarray(c.real),
                             np.ascontiguousarray(c.imag), x, v,
                             E.tgrid.times, dX)


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
    tail_bound_x: float
    tail_bound_v: float
    # one backward pass; perfbench/tracer.py reads it as the sweep count
    inner_iterations: ClassVar[int] = 1

    def X(self) -> np.ndarray:
        x, v, _ = _flat_labels(self.phase)
        t = self.tgrid.times[:, None]
        flat = x[None, :] + v[None, :] * t + self.dX.reshape(len(self.tgrid), -1)
        return flat.reshape(self.dX.shape)

    def V(self) -> np.ndarray:
        _, v, _ = _flat_labels(self.phase)
        return v.reshape(1, self.phase.xgrid.n, self.phase.nv) + self.dV


def solve_characteristics(E: FieldTable, phase: PhaseGrid,
                          a: float) -> TrajectoryTable:
    """The backward trajectory integral equations in one backward pass.

    On the composite-trapezoid moment rule the position deviation dX_n
    needs the field only on the rows > n, so kernels.suffix_pass solves
    the discrete system exactly from t_end backward: each row's dX_n comes
    from the recurrence, and E is then evaluated along that row alone
    (kernels.row_evaluator).  The velocity deviation is then accumulated
    once with the exponential-weight product rule (exact for e^{-a s} x
    linear), since the plain trapezoid overshoots decaying convex
    envelopes by (a dt)^2/12 relative - far more than the headroom of the
    pointwise velocity bound |V - v| <= (|E|_{a,t0}/a) e^{-a t}.  The
    integral tail beyond the stored horizon is neglected and certified via
    the closed-form tail integrals.  A field that is not finite, or
    violates the precondition |E|_{a,t0} e^{-a t0} <= a, raises
    ConvergenceError.
    """
    tg = E.tgrid
    x, v, _ = _flat_labels(phase)
    nt, npart = len(tg), x.shape[0]

    norm_e = weighted_norm(E, a).value
    if not math.isfinite(norm_e):
        raise ConvergenceError(
            f"field is not finite: |E|_(a,t0) = {norm_e}", residual=math.inf)
    if norm_e * math.exp(-a * tg.t0) > a:
        raise ConvergenceError(
            f"field too large for the trajectory map: |E| e^(-a t0) = "
            f"{norm_e * math.exp(-a * tg.t0):.3e} > a = {a:.3e}",
            residual=math.inf)

    c = E.coefficients()
    rows = kernels.row_evaluator(np.ascontiguousarray(c.real),
                                 np.ascontiguousarray(c.imag), x, v, tg.times)
    g = np.empty((nt, npart))

    def field_along(n, dX_n):
        rows(g[n:n + 1], n, dX_n[None, :])
        return g[n]

    dX = kernels.suffix_pass(field_along, (nt, npart), tg.dt)[1]
    alpha, beta = kernels.exp_cell_weights(a, tg.dt)
    dV = kernels.suffix_weighted(g, alpha, beta)
    del g
    np.negative(dV, out=dV)

    shape = (nt, phase.xgrid.n, phase.nv)
    return TrajectoryTable(
        phase=phase, tgrid=tg, dX=dX.reshape(shape), dV=dV.reshape(shape),
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
    # one backward pass; perfbench/tracer.py reads it as the sweep count
    inner_iterations: ClassVar[int] = 1

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


def solve_variational(E: FieldTable, traj: TrajectoryTable) -> VariationalTable:
    """The linearized flow along frozen trajectories, in one backward pass.

    With g = dE/dx evaluated along X, the position derivatives solve the
    linear suffix equations y = int_t^inf (s - t) (g(s) y(s) + f(s)) ds,
    xi for f = g and eta for f = g s; the velocity derivatives chi and
    omega are minus the plain suffix integrals of the same integrands.  On
    the composite-trapezoid rule the system is strictly triangular, and
    kernels.suffix_volterra solves it exactly from t_end backward.
    """
    tg = traj.tgrid
    phase = traj.phase
    x, v, _ = _flat_labels(phase)
    nt, npart = len(tg), x.shape[0]
    g_ex = _along(spectral_dx(E), x, v, traj.dX.reshape(nt, npart))

    chi, xi = kernels.suffix_volterra(g_ex, g_ex, tg.dt)
    omega, eta = kernels.suffix_volterra(g_ex, g_ex * tg.times[:, None],
                                         tg.dt)
    np.negative(chi, out=chi)
    np.negative(omega, out=omega)

    shape = (nt, phase.xgrid.n, phase.nv)
    return VariationalTable(phase=phase, tgrid=tg, xi=xi.reshape(shape),
                            eta=eta.reshape(shape), chi=chi.reshape(shape),
                            omega=omega.reshape(shape))


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
    _add_modes(vals, corr_re, corr_im, xgrid.points)
    return FieldTable(traj.tgrid, xgrid, vals)


def _add_modes(vals, re, im, xs) -> None:
    """vals += the field of the density modes re + i im, (nt, nk):
    sum_{0 < k < nk - 1} (2/k) (im_k cos kx + re_k sin kx)."""
    for k in range(1, re.shape[1] - 1):   # Nyquist row dropped (negligible)
        ck, sk = np.cos(k * xs), np.sin(k * xs)
        vals += (2.0 / k) * (np.outer(im[:, k], ck) + np.outer(re[:, k], sk))


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
    The first iterate, the image of E = 0, is field_map_zero.  Stops when
    the weighted increment |E_{n+1} - E_n|_{a,t0} drops below
    tol; contraction ratios are recorded from the second increment
    onward, and three consecutive ratios above 1 abort with a
    grid-resolution diagnosis.  After convergence one extra map
    application certifies the fixed-point residual, and the returned
    result carries the full set of inequality checks evaluated at the
    converged field.  method accepts only FIELD_MAP_METHOD; it remains for
    callers that pass the config's method (perfbench/reference.py), and so
    do inner_tol and max_inner: the characteristics are solved exactly in
    one pass, which meets any tolerance and sweep cap.
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
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if iterations == 1:     # the image of E = 0 is the free-flight field
            E_next = field_map_zero(spec, z, tgrid, xgrid)
        else:
            traj = solve_characteristics(E, phase, a)
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
    traj = solve_characteristics(E, phase, a)
    E_map = _map_from_traj(traj, spec, z, xgrid)
    residual_norm = weighted_norm(
        E_map.with_values(E_map.values - E.values), a).value

    var = solve_variational(E, traj)
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


# ---------------------------------------------------------------------------
# z-derivatives of the fixed point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorCoefficients:
    """E_k = d^k_z E / k! at one z for k = 1..K, with the certificate
    z_deriv_{k}_tangent of each order (see solve_tangent)."""

    fields: tuple[FieldTable, ...]
    checks: dict


def _free_modes(W, phase: PhaseGrid, times) -> np.ndarray:
    """(1/2pi) sum_p W_{n,p} e^{-ik (x_p + v_p t_n)}, complex (nt, nk), for
    per-row weights W (nt, P): a real FFT over the positions against the
    velocity phases of kernels.phase_table."""
    nx, nv = phase.xgrid.n, phase.nv
    table = kernels.phase_table(phase.v, times, nx // 2 + 1)
    g = np.fft.rfft(W.reshape(-1, nx, nv), axis=1)
    np.conjugate(g, out=g)
    return np.einsum("nkj,nkj->nk", table, g).conj() / (2.0 * math.pi)


def _power(X, m: int, l: int):
    """[delta^m]_l, the z^l coefficient of delta^m for delta = sum_i X[i-1]
    z^i, 1 <= m <= l <= len(X) + m - 1."""
    if m == 1:
        return X[l - 1]
    return sum(X[i - 1] * _power(X, m - 1, l - i)
               for i in range(1, l - m + 2))


def _trajectory_forcing(E, X, x, v, dX0):
    """R_j = sum_{i<j} sum_{m=1..j-i} E_i^(m)(X0) [delta^m]_{j-i} / m!
    without (i, m) = (0, 1), j = len(X) + 1, from the Taylor fields E_0..
    E_{j-1} and trajectories X_1..X_{j-1}; E_i^(m) = d^m_x E_i (spectral).
    """
    j, R = len(X) + 1, 0.0
    for i, Ei in enumerate(E):
        for m in range(1, j - i + 1):
            Ei = spectral_dx(Ei)
            if (i, m) != (0, 1):
                term = _along(Ei, x, v, dX0)
                term *= _power(X, m, j - i)
                term *= 1.0 / math.factorial(m)
                if isinstance(R, float):
                    R = term
                else:
                    R += term
    return R


def solve_tangent(spec: ProfileSpec, result: SolveResult, tol: float = 1e-10,
                  max_iter: int = 30) -> TaylorCoefficients:
    """Taylor coefficients E_j = d^j_z E / j!, j = 1..K, of the fixed point
    at result.z, along the trajectories X0 that certified it (kept tables).

    With delta = sum_l X_l z^l, wf_i = w d^i_z f* / i!, [delta^m]_l the
    z^l coefficient of delta^m, M the trapezoid suffix moment and
    S[W]_k = (1/2pi) sum_p W_p e^{-ik X0_p}, order j solves
      X_j = M[E_0'(X0) X_j + E_j(X0) + R_j]  (_trajectory_forcing),
      E_j = field_map_zero(d^j_z f*) / j! + field(corr_fourier(wf_j)
            + sum_{m=1..j} ((-ik)^m / m!) S[sum_i wf_i [delta^m]_{j-i}]),
    where only the wf_0 X_j term reads the unknown.  E_j is iterated from
    0 until the weighted increment is at most tol |E_j|_a / |E_0|_a (tol
    if E_0 = 0), else ConvergenceError after max_iter iterations.  The
    first iterate is the forcing F_j; with the contraction bound
    L = 88 a2 / (a^2 - 80 a2) it gives the check z_deriv_{j}_tangent,
    j! |E_j|_{a,t0} <= j! |F_j|_{a,t0} / (1 - L).
    """
    if result.traj is None:
        raise ValueError("the tangent solve needs the solve's trajectories")
    E0, params, phase, z = result.field, result.params, result.phase, result.z
    x, v, _ = _flat_labels(phase)
    times, xs, nk = E0.tgrid.times, E0.xgrid.points, E0.xgrid.n // 2 + 1
    mik = -1j * np.arange(nk)
    dX0 = result.traj.dX.reshape(len(times), -1)
    lip = 88.0 * params.a2 / (params.a ** 2 - 80.0 * params.a2)

    def corr(W):
        re, im = kernels.corr_fourier(W, x, v, times, dX0, nk)
        return re + 1j * im

    def S(W):
        return corr(W) + _free_modes(W, phase, times)

    def norm(values):
        return weighted_norm(E0.with_values(values), params.a).value

    norm0 = norm(E0.values)
    E, X, specs, checks = [E0], [], [spec], {}
    wf = [_profile_weights(phase, spec, z)[2]]
    g = _along(spectral_dx(E0), x, v, dX0)
    for j in range(1, params.K + 1):
        specs.append(specs[-1].z_derivative())
        wf.append(_profile_weights(phase, specs[j], z)[2] / math.factorial(j))
        c = corr(wf[j])
        for m in range(1, j + 1):
            terms = range(m == 1, j - m + 1)    # m = 1 leaves out wf_0 X_j
            if terms:
                c += (mik ** m / math.factorial(m)) * S(sum(
                    wf[i] * _power(X, m, j - i) for i in terms))
        const = field_map_zero(specs[j], z, E0.tgrid, E0.xgrid).values \
            / math.factorial(j)
        _add_modes(const, c.real, c.imag, xs)
        R = _trajectory_forcing(E, X, x, v, dX0)
        if j == params.K:
            X.clear()       # only the forcings of higher orders read X

        def trajectories(Ej):
            f = _along(E0.with_values(Ej), x, v, dX0)
            f += R
            return kernels.suffix_volterra(g, f, E0.tgrid.dt)[1]

        Ej, forcing = np.zeros_like(E0.values), None
        for _ in range(max_iter):
            c = mik * S(wf[0] * trajectories(Ej))
            new = const.copy()
            _add_modes(new, c.real, c.imag, xs)
            step, Ej = norm(new - Ej), new
            size = norm(Ej)
            forcing = size if forcing is None else forcing
            if step <= tol * (size / norm0 if norm0 > 0.0 else 1.0):
                break
        else:
            raise ConvergenceError(
                f"order-{j} tangent did not converge in {max_iter} "
                f"iterations (last increment {step:.3e})", residual=step)
        if j < params.K:      # the next orders read X_j of the accepted E_j
            X.append(trajectories(Ej))
        E.append(E0.with_values(Ej))
        name, fac = f"z_deriv_{j}_tangent", math.factorial(j)
        checks[name] = BoundCheck(name, fac * size,
                                  fac * forcing / (1.0 - lip))
    return TaylorCoefficients(fields=tuple(E[1:]), checks=checks)
