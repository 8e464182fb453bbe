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

whose fixed point is the damped solution.  Row n of the map reads dX_n
alone, and dX_n only the field's rows > n, so picard_solve solves the
fixed point in one exact backward pass and certifies it with one more map.

Everything time-dependent is held in deviation form (X - x - vt,
V - v, dX/dx - 1, dX/dv - t, dV/dv - 1, ...), never in absolute form:
the deviations decay like e^{-a t} and downstream norms weight them by
e^{a t}, so representing them as differences of O(1) or O(t) quantities
would drown the late-time signal in representation noise.  No table of
(nt, nx, nv) is formed in a solve: the march of the characteristics
(_march) solves dX, dV and their label derivatives one row block
(_row_blocks) at a time, forming the block's phase rows
e^{ik v_j t_n} (kernels.phase_rows) before it marches the block, and
hands each finished block with those rows to one callback,
take(n0, n1, dX, dV, phases), which picard_solve uses to reduce it to
rows of the field grid or to maxima (the field map, the two deposits,
the trajectory ratios) and hands on to its caller's.  The field pass
forms its phase rows by the same blocks, so each march forms each row
once.  Only solve_characteristics stores dX and dV whole, for the
callers that read them whole; the public whole-table functions call the
same kernels on all rows of such a table.  The kernels work row by row,
so every value is the same double either way.

For the same reason the field map is evaluated split (FIELD_MAP_METHOD,
the only method): the free-streaming part of the transported density is
summed analytically from the profile transforms, and only the correction

    (1/2pi) sum_p w_p f*_p e^{-ik(x_p + v_p t)} (e^{-ik dX_p(t)} - 1)

is evaluated by quadrature, keeping the quadrature noise proportional
to the (decaying) displacement.  The literal kernel summation
sum_p w_p f*_p B(y - X_p) agrees with it to quadrature accuracy in the
plain sup norm but carries a flat noise floor that exponentially
weighted norms amplify.

_tangent_pass differentiates the fixed point in the profile parameter
z: each Taylor coefficient of E(z) solves one linear fixed point along
the certified trajectories, with a contraction certificate, in one pass
over every order that rides the blocks of the certifying march.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import kernels
from .fields import (FieldTable, PhaseGrid, TimeGrid, XGrid, _dx_rows,
                     spectral_dx, weighted_norm, weighted_sup)
from .kernels import _row_blocks
from .params import BoundCheck, DampingParams, require_admissible, \
    tail_integral, tail_integral_moment
from .profiles import HypothesisError, ProfileSpec, eval_profile, \
    neutral_density, profile_fourier, require_hypotheses

FIELD_MAP_METHOD = "split"     # recorded in the manifests and the config


class ConvergenceError(RuntimeError):
    """The field is not finite, or too large for the trajectory map."""


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
# trajectories and their label derivatives
# ---------------------------------------------------------------------------

def _jacobian_minus_one(t, xi, eta, chi, omega):
    """det d(X,V)/d(x,v) - 1 of the variational deviations, assembled
    without forming the O(t) terms: (1+xi)(1+omega) - (t+eta) chi - 1
    = xi + omega + xi omega - (t+eta) chi."""
    return xi + omega + xi * omega - (t + eta) * chi


@dataclass(frozen=True)
class VariationalSups:
    """What the checks read of the first derivatives of the flow w.r.t.
    the asymptotic labels, in deviation form xi = dX/dx - 1,
    eta = dX/dv - t, chi = dV/dx and omega = dV/dv - 1: the per-row sups
    (nt,) of |xi|, |eta|, |chi| and |omega|, and over all rows and labels
    the maxima of |dX/dx|, |dX/dv| / t and |det d(X,V)/d(x,v) - 1|."""

    tgrid: TimeGrid
    xi: np.ndarray
    eta: np.ndarray
    chi: np.ndarray
    omega: np.ndarray
    dX_dx: float
    dX_dv_moment1: float
    jacobian: float
    # one backward pass; perfbench/tracer.py reads it as the sweep count
    inner_iterations: ClassVar[int] = 1


@dataclass(frozen=True)
class TrajectoryTable:
    """Backward characteristics in deviation form on PhaseGrid x TimeGrid.

    dX = X - (x + v t) and dV = V - v, shaped (nt, nx, nv).  With E == 0
    both are identically zero, i.e. free transport is represented exactly.
    var holds what the checks read of their label derivatives, solved in
    the same backward pass.
    """

    phase: PhaseGrid
    tgrid: TimeGrid
    dX: np.ndarray
    dV: np.ndarray
    var: VariationalSups
    # one backward pass; perfbench/tracer.py reads it as the sweep count
    inner_iterations: ClassVar[int] = 1


def _require_map_norm(norm_e: float, a: float, t0: float) -> None:
    """The trajectory map's precondition |E|_{a,t0} e^{-a t0} <= a on a
    finite field of norm norm_e; ConvergenceError otherwise."""
    if not math.isfinite(norm_e):
        raise ConvergenceError(
            f"field is not finite: |E|_(a,t0) = {norm_e}")
    if norm_e * math.exp(-a * t0) > a:
        raise ConvergenceError(
            f"field too large for the trajectory map: |E| e^(-a t0) = "
            f"{norm_e * math.exp(-a * t0):.3e} > a = {a:.3e}")


def _march(E: FieldTable, phase: PhaseGrid, a: float, take):
    """The backward march of the characteristics of E and their label
    derivatives (see solve_characteristics), whose precondition the
    caller has checked.  Each finished row block (_row_blocks) of dX and
    dV, (rows, P) each, goes with the block's phase rows (rows, nk, nv)
    to take(n0, n1, dX, dV, phases) and is overwritten after, so no
    (nt, P) table is formed here.  Returns what the checks read of the
    label derivatives, and the largest relative Taylor remainder that
    the evaluations of E and g along the rows left
    (kernels.eval_block)."""
    tg = E.tgrid
    nt, npart, nk = len(tg), phase.xgrid.n * phase.nv, E.xgrid.n // 2 + 1
    times = tg.times

    c = np.stack([E.coefficients(), spectral_dx(E).coefficients()], axis=1)
    ev = np.empty((2, 2, npart))        # E and g along the rows n and n + 1
    left = np.empty(nt)                 # each row's Taylor remainder

    def integrand(n, mom):              # mom = (dX, xi, eta) on row n
        left[n] = kernels.eval_block(ev[n % 2:n % 2 + 1], c[n:n + 1],
                                     mom[:1], phases[n - n0:n - n0 + 1])
        e, g = ev[n % 2]
        h = np.empty(mom.shape)
        h[0] = e
        h[1:] = g * mom[1:]
        h[1] += g
        h[2] += g * times[n]
        return h

    # dV accumulates as -0.0 minus each term of kernels.suffix_weighted of
    # E: the doubles of that sum negated, since rounding is symmetric
    alpha, beta = kernels.exp_cell_weights(a, tg.dt)
    blocks = _row_blocks(nt, npart)
    size = blocks[0][1] - blocks[0][0]
    paths = np.empty((2, size, npart))                  # dX and dV
    ders = np.empty((4, size, npart))                   # xi .. omega
    sups, peaks = np.empty((4, nt)), []
    march = kernels.suffix_pass(integrand, (nt, 3, npart), tg.dt)
    for n0, n1 in blocks:
        phases = kernels.phase_rows(phase.v, times[n0:n1], nk)
        dX, dV = paths[:, :n1 - n0]
        for n, acc, mom in itertools.islice(march, n1 - n0):
            dX[n - n0] = mom[0]
            dV[n - n0] = -0.0 if n == nt - 1 else \
                prev - alpha * ev[n % 2, 0] - beta * ev[(n + 1) % 2, 0]
            prev = dV[n - n0]
            ders[:2, n - n0] = mom[1:]
            np.negative(acc[1:], out=ders[2:, n - n0])
        take(n0, n1, dX, dV, phases)
        xi, eta, chi, omega = d = ders[:, :n1 - n0]
        t = times[n0:n1, None]
        sups[:, n0:n1] = np.abs(d).max(axis=2)
        peaks.append((
            np.abs(1.0 + xi).max(), (np.abs(t + eta) / t).max(),
            np.abs(_jacobian_minus_one(t, xi, eta, chi, omega)).max()))
    var = VariationalSups(tg, *sups, *map(float, np.max(peaks, axis=0)))
    return var, float(left.max())


def solve_characteristics(E: FieldTable, phase: PhaseGrid,
                          a: float) -> TrajectoryTable:
    """The backward trajectory integral equations and their label
    derivatives in one backward pass (_march), stored whole.

    On the composite-trapezoid moment rule the position deviation dX_n
    needs the field only on the rows > n, so kernels.suffix_pass solves
    the discrete system exactly from t_end backward: each row's dX_n comes
    from the recurrence, and E and g = dE/dx are then evaluated along that
    row alone (one kernels.eval_block on the stacked mode rows).  The
    velocity deviation accumulates in the same march, keeping the field
    along two rows only, with the exponential-weight product rule of
    kernels.suffix_weighted (exact for e^{-a s} x linear), since the plain
    trapezoid overshoots decaying convex envelopes by (a dt)^2/12 relative
    - far more than the headroom of the pointwise velocity bound
    |V - v| <= (|E|_{a,t0}/a) e^{-a t}.

    The label derivatives ride along the same rows: the position
    derivatives solve the linear suffix equations
    y = int_t^inf (s - t) (g(s) y(s) + f(s)) ds, xi for f = g and eta for
    f = g s, and the velocity derivatives chi and omega are minus the
    plain suffix integrals of the same integrands; the system is strictly
    triangular on the same rule, so the state of the march is (dX, xi,
    eta).  One row block (_row_blocks) of the four derivatives is kept,
    and each finished block is reduced to what _variational_checks
    reads (TrajectoryTable.var).

    This function copies the march's blocks of dX and dV into whole
    (nt, nx, nv) tables, for the callers that read them whole;
    picard_solve reduces the blocks instead and stores none.

    The integral tail beyond the stored horizon is neglected; picard_solve
    certifies it with the closed-form tail integrals.  A field that is not
    finite, or violates the precondition |E|_{a,t0} e^{-a t0} <= a, raises
    ConvergenceError.
    """
    _require_map_norm(weighted_norm(E, a).value, a, E.tgrid.t0)
    paths = np.empty((2, len(E.tgrid), phase.xgrid.n * phase.nv))

    def take(n0, n1, dX, dV, phases):
        paths[0, n0:n1], paths[1, n0:n1] = dX, dV

    var = _march(E, phase, a, take)[0]
    dX, dV = paths.reshape(2, -1, phase.xgrid.n, phase.nv)
    return TrajectoryTable(phase=phase, tgrid=E.tgrid, dX=dX, dV=dV, var=var)


def _trajectory_ratios(dX, dV, t, norm_e: float, a: float):
    """The worst node ratios (velocity, position) of the displacement
    inequalities |v - V| <= (|E|_{a,t0}/a) e^{-a t} and
    |x - (X - V t)| <= |E|_{a,t0} (2/a) t e^{-a t} on rows (rows, P) of dX
    and dV at the times t (rows,), for a field E of norm_e = |E|_{a,t0};
    both 0 for E == 0, where both sides vanish."""
    if norm_e == 0.0:
        return 0.0, 0.0
    t = t[:, None]
    decay = np.exp(-a * t)
    # x - (X - V t) = dV * t - dX when X, V are expanded around free flight
    lhs_x = np.abs(dV * t - dX)
    return ((np.abs(dV) / ((norm_e / a) * decay)).max(),
            (lhs_x / (norm_e * (2.0 / a) * t * decay)).max())


def _ratio_checks(ratios) -> dict:
    """{traj_velocity, traj_position} BoundChecks against 1 from the
    _trajectory_ratios of row blocks."""
    ratio_v, ratio_x = map(float, np.max(ratios, axis=0))
    return {"traj_velocity": BoundCheck("traj_velocity", ratio_v, 1.0),
            "traj_position": BoundCheck("traj_position", ratio_x, 1.0)}


# unused in the package, but perfbench/tracer.py lists it in TRACED by name
def solve_variational(E: FieldTable, traj: TrajectoryTable) -> VariationalSups:
    """What the checks read of the label derivatives along the
    trajectories of E, which solve_characteristics solves with them."""
    return traj.var


def _variational_checks(var: VariationalSups, params: DampingParams) -> dict:
    """The four weighted-norm estimates for the linearized flow, the two
    plain-sup bounds and the volume deviation |det - 1|, as
    {name: BoundCheck}."""
    a, ce = params.a, params.C_E
    times = var.tgrid.times

    def wsup(name, sup, moment, bound):
        rep = weighted_sup(times, sup, a, moment=moment)
        return BoundCheck(name, rep.value, bound, rep.horizon_dominated)

    checks = [
        wsup("dXdx_weighted", var.xi, 1, 8.0 * ce / a ** 2),
        wsup("dXdv_weighted", var.eta, 2, 8.0 * ce / a ** 2),
        wsup("dVdx_weighted", var.chi, 1, 4.0 * ce / a),
        wsup("dVdv_weighted", var.omega, 2, 10.0 * ce / a),
        BoundCheck("dXdx_sup", var.dX_dx, 2.0),
        BoundCheck("dXdv_sup_moment1", var.dX_dv_moment1, 2.0),
        BoundCheck("jacobian_deviation", var.jacobian, 1e-6),
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
    pos = x + v * traj.tgrid.times[:, None] + traj.dX.reshape(nt, -1)
    return FieldTable(traj.tgrid, xgrid,
                      kernels.cic_density(wf, pos, xgrid.n, xgrid.dx))


def _free_density_pert(spec: ProfileSpec, z: float, tgrid: TimeGrid,
                       xgrid: XGrid) -> np.ndarray:
    """The free-streaming part of deposit_density_pert, (nt, nx), summed
    exactly from the profile transforms."""
    times, xs = tgrid.times, xgrid.points
    free = np.zeros((len(tgrid), xgrid.n))
    for m in spec.modes:
        if m.k == 0:
            continue
        amp = 2.0 * m.amplitude(z) * spec.scale
        trans = np.asarray(spec.shape_transform(m.k * times))
        free += amp * trans[:, None] * np.cos(m.k * xs)[None, :]
    return free


def deposit_density_pert(traj: TrajectoryTable, spec: ProfileSpec, z: float,
                         xgrid: XGrid) -> FieldTable:
    """Mean-free density perturbation rho - rho_mean, late-time accurate.

    Two decaying pieces are assembled separately: the free-streaming
    perturbation summed exactly from the profile transforms
    (_free_density_pert), and the transport correction deposited as a
    per-particle cloud-in-cell *difference* against the free flight.
    Subtracting two full CIC tables instead would leave a flat noise
    floor far above the signal once e^{-a t} has run its course.
    """
    x, v, wf = _profile_weights(traj.phase, spec, z)
    nt = len(traj.tgrid)
    corr = kernels.cic_density_pert(
        wf, x, v, traj.tgrid.times, traj.dX.reshape(nt, -1), xgrid.n, xgrid.dx)
    return FieldTable(traj.tgrid, xgrid,
                      corr + _free_density_pert(spec, z, traj.tgrid, xgrid))


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
    nt = len(traj.tgrid)
    corr = kernels.corr_fourier(wf, x, v, traj.tgrid.times,
                                traj.dX.reshape(nt, -1), xgrid.n // 2 + 1)
    free = field_map_zero(spec, z, traj.tgrid, xgrid)
    return free.with_values(free.values + _field_of_modes(corr, xgrid.n))


def _field_of_modes(modes, nx: int) -> np.ndarray:
    """The field (..., nx) of the density modes (..., nk), complex in the
    kernels' real-FFT layout: E_k = rho_k / (i k) for 0 < k < nk - 1 (the
    mean and the Nyquist row dropped), then one inverse real FFT."""
    nk = modes.shape[-1]
    e = np.zeros(modes.shape, dtype=complex)
    e[..., 1:nk - 1] = modes[..., 1:nk - 1] / (1j * np.arange(1, nk - 1))
    return np.fft.irfft(e, n=nx, axis=-1, norm="forward")


def _field_pass(spec: ProfileSpec, z: float, tgrid: TimeGrid,
                phase: PhaseGrid) -> tuple[FieldTable, FieldTable]:
    """(E, field_map_zero) with E = map E solved in one backward pass:
    kernels.suffix_pass gives dX_n from the rows > n, row n of the map is
    formed from dX_n alone and then evaluated along x + v t_n + dX_n.
    The phase rows are formed one row block (_row_blocks) at a time,
    before the pass reaches the block."""
    wf = _profile_weights(phase, spec, z)[2]
    nt, nx, npart = len(tgrid), phase.xgrid.n, wf.shape[0]
    nk = nx // 2 + 1
    free = field_map_zero(spec, z, tgrid, phase.xgrid)
    vals = free.values.copy()
    corr = kernels.corr_evaluator()
    modes = np.empty((1, nk), dtype=complex)

    def field_along(n, dX_n):
        dx, ph = dX_n[None, :], phases[n - n0:n - n0 + 1]
        corr(modes, wf, dx, ph)
        vals[n] += _field_of_modes(modes[0], nx)
        out = np.empty((1, npart))
        kernels.eval_block(out, np.fft.rfft(vals[n])[None] / nx, dx, ph)
        return out[0]

    # a row that is not finite spoils the rows below it quietly; the
    # certifying characteristics of picard_solve raise on it by name
    march = kernels.suffix_pass(field_along, (nt, npart), tgrid.dt)
    with np.errstate(all="ignore"):
        for n0, n1 in _row_blocks(nt, npart):
            phases = kernels.phase_rows(phase.v, tgrid.times[n0:n1], nk)
            for _ in itertools.islice(march, n1 - n0):
                pass
    return free.with_values(vals), free


# ---------------------------------------------------------------------------
# fixed-point driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveResult:
    """The fixed point with its checks and certificates."""

    field: FieldTable
    params: DampingParams
    z: float
    checks: dict
    certificates: dict
    phase: PhaseGrid
    # one exact pass; perfbench/tracer.py reads iterations
    iterations: ClassVar[int] = 1

    @property
    def residual_norm(self) -> float:
        """|map E - E|_{a,t0}, the value of fixed_point_residual."""
        return self.checks["fixed_point_residual"].value

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def manifest(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "z": self.z,
            # one exact pass; the benchmark's output check asks for it
            "converged": True,
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


def _fixed_point_checks(E: FieldTable, free: FieldTable,
                        params: DampingParams, ne, traj_checks: dict,
                        var: VariationalSups, rho: FieldTable,
                        rho_pert: FieldTable, residual_norm: float,
                        tol: float):
    a, a1, a2, ce = params.a, params.a1, params.a2, params.C_E
    checks: dict[str, BoundCheck] = {}

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

    checks.update(traj_checks)
    checks.update(_variational_checks(var, params))

    consistency = float(np.abs(ex.values - rho_pert.values).max())
    checks["field_density_consistency"] = BoundCheck(
        "field_density_consistency", consistency, 5e-5)

    checks["fixed_point_residual"] = BoundCheck(
        "fixed_point_residual", residual_norm, tol)

    # the map's Lipschitz quotient between 0 and E, |map E - map 0|_a /
    # |E - 0|_a with map E = E and map 0 = free, against the contraction
    # estimate params.contraction_bound
    if ne.value > 0.0:
        lip = weighted_norm(E.with_values(E.values - free.values), a).value
        checks["contraction_ratio"] = BoundCheck(
            "contraction_ratio", lip / ne.value, params.contraction_bound)
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
                 keep_tables: bool = False, along=None) -> SolveResult:
    """The fixed point E = map E in one backward pass (_field_pass).

    The norms |.|_{a,t0} are taken over the stored times, so tgrid must
    start at params.t0 (ValueError otherwise).  Gates on the parameter
    conditions and the profile hypotheses first.
    One more map application, along the characteristics of E (solved
    with their label derivatives, and which raise ConvergenceError for a
    field that is not finite or too large),
    certifies the residual |map E - E|_{a,t0} against tol; the result
    carries every inequality check at E.  The pass meets any iteration
    cap: max_iter, inner_tol, max_inner, method (FIELD_MAP_METHOD only)
    and keep_tables (no table is kept) remain, unread, for
    perfbench/reference.py, which passes them.

    The certifying march (_march) hands each finished row block of dX and
    dV, with its phase rows, to one callback, while the block is in
    cache: it forms the block's rows of the map's correction modes and of
    both deposits, and the maxima of the two trajectory ratios (with the
    |E|_{a,t0} of the march's precondition), and then hands the block to
    along(E)'s take(n0, n1, dX, dV, phases), if along is given: a caller
    that reads the characteristics of E, as a uq node does, rides the
    march.  The kernel_truncation certificate is the largest Taylor
    remainder that the kernels return, those of the march's evaluations
    of E and g along its rows and of the map's correction modes.
    """
    if method != FIELD_MAP_METHOD:
        raise ValueError(f"unknown field-map method {method!r}")
    if tgrid.t0 != params.t0:
        raise ValueError(f"the time grid starts at t0 = {tgrid.t0!r}, not "
                         f"at params.t0 = {params.t0!r}")
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
    times, nx, nk = tgrid.times, xgrid.n, xgrid.n // 2 + 1

    E, free = _field_pass(spec, z, tgrid, phase)
    ne = weighted_norm(E, a)
    _require_map_norm(ne.value, a, tgrid.t0)
    x, v, wf = _profile_weights(phase, spec, z)
    modes = kernels.corr_evaluator()
    corr = np.empty((len(tgrid), nk), dtype=complex)
    rho, pert = np.empty((2, len(tgrid), nx))
    ratios, remainders = [], []
    extra = along(E) if along is not None else lambda *block: None

    def take(n0, n1, dX, dV, phases):
        t = times[n0:n1]
        remainders.append(modes(corr[n0:n1], wf, dX, phases))
        rho[n0:n1] = kernels.cic_density(wf, x + v * t[:, None] + dX, nx,
                                         xgrid.dx)
        pert[n0:n1] = kernels.cic_density_pert(wf, x, v, t, dX, nx, xgrid.dx)
        ratios.append(_trajectory_ratios(dX, dV, t, ne.value, a))
        extra(n0, n1, dX, dV, phases)

    var, left = _march(E, phase, a, take)

    E_map = free.values + _field_of_modes(corr, nx)
    residual_norm = weighted_norm(E.with_values(E_map - E.values), a).value
    checks = _fixed_point_checks(
        E, free, params, ne, _ratio_checks(ratios), var, E.with_values(rho),
        E.with_values(pert + _free_density_pert(spec, z, tgrid, xgrid)),
        residual_norm, tol)

    rho0 = neutral_density(spec, z)
    norm_e, t_end = checks["field_weighted"].value, tgrid.t_end
    certificates = {
        "time_tail_position": norm_e * tail_integral_moment(a, t_end, 0),
        "time_tail_velocity": norm_e * tail_integral(a, t_end, 0),
        "velocity_truncation_density": 2.0 * params.a2 / (3.0 * phase.v_max ** 3),
        "mean_density_drift": abs(float(rho.mean()) - rho0),
        "kernel_truncation": max(left, *remainders),
    }

    return SolveResult(
        field=E, params=params, z=z, checks=checks,
        certificates=certificates, phase=phase)


# ---------------------------------------------------------------------------
# z-derivatives of the fixed point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorCoefficients:
    """E_k = d^k_z E / k! at one z for k = 1..K, with the certificate
    z_deriv_{k}_tangent of each order (see _tangent_pass)."""

    fields: tuple[FieldTable, ...]
    checks: dict


def _free_modes(W, phases) -> np.ndarray:
    """(1/2pi) sum_p W_{n,p} e^{-ik (x_p + v_p t_n)}, complex (rows, nk),
    for per-row weights W (rows, P) on the tensor grid: a real FFT over
    the positions against the same rows of e^{ik v_j t_n}, phases
    (rows, nk, nv) as kernels.phase_rows forms them."""
    g = np.fft.rfft(W.reshape(W.shape[0], -1, phases.shape[2]), axis=1)
    np.conjugate(g, out=g)
    return np.einsum("nkj,nkj->nk", phases, g).conj() / (2.0 * math.pi)


def _powers(X, K: int) -> dict:
    """{(m, l): [delta^m]_l} for 1 <= m <= l <= K, the z^l coefficients of
    delta^m for delta = sum_i X[i-1] z^i, each formed once, from the row
    m - 1, as the sum [delta^m]_l = sum_i X[i-1] [delta^(m-1)]_{l-i}."""
    pw = {(1, l): X[l - 1] for l in range(1, K + 1)}
    for m in range(2, K + 1):
        for l in range(m, K + 1):
            pw[m, l] = sum(X[i - 1] * pw[m - 1, l - i]
                           for i in range(1, l - m + 2))
    return pw


def _tangent_pass(spec: ProfileSpec, E0: FieldTable, params: DampingParams,
                  phase: PhaseGrid, z: float):
    """Taylor coefficients E_j = d^j_z E / j!, j = 1..K, of the fixed point
    E0 at z, along the trajectories X0 that certify it, as (take, finish):
    take(n0, n1, dX, dV, phases) advances the pass over one row block of
    the march of X0 (_march hands the blocks out, the last rows first,
    with their phase rows, from which the kernels read the grid), and
    finish() returns the TaylorCoefficients after the last block.  The
    kernels' remainders on these rows depend on dX alone, so they are
    those of the solve's kernel_truncation, and the pass drops them.

    With delta = sum_l X_l z^l, wf_i = w d^i_z f* / i!, [delta^m]_l the
    z^l coefficient of delta^m (_powers, once per row), M the trapezoid
    suffix moment, S[W]_k = (1/2pi) sum_p W_p e^{-ik X0_p} and
    E_i^(m) = d^m_x E_i (spectral), order j solves
      X_j = M[E_0'(X0) X_j + E_j(X0) + R_j],
      R_j = sum_{i<j} sum_{m=1..j-i} E_i^(m)(X0) [delta^m]_{j-i} / m!
            without (i, m) = (0, 1),
      E_j = field_map_zero(d^j_z f*) / j! + field(corr_fourier(wf_j)
            + sum_{m=1..j} ((-ik)^m / m!) S[sum_i wf_i [delta^m]_{j-i}]),
    where only the wf_0 X_j term reads the unknown.  Order j on row n
    reads the lower orders on row n alone, and X_j on row n reads E_j only
    on the rows > n, so one kernels.suffix_pass over rows (2, K, P) solves
    every order exactly: at row n one density call (kernels.corr_evaluator)
    gives E_1..E_K, and one eval_block call their values and derivatives
    along X0, each on stacked lines.  The same rows carry the trajectory of
    each order's forcing F_j, the image of E_j = 0, whose norm gives with
    the contraction bound L = params.contraction_bound the check
    z_deriv_{j}_tangent, j! |E_j|_{a,t0} <= j! |F_j|_{a,t0} / (1 - L).
    """
    tg, nx, K = E0.tgrid, E0.xgrid.n, params.K
    times, nt, npart = tg.times, len(tg), nx * phase.nv
    nk = nx // 2 + 1
    mik = -1j * np.arange(nk)
    block = []              # the current block's n0, dX and phase rows
    density = kernels.corr_evaluator()

    # the unknown-free weights and free fields of each order
    specs, wf = [spec], [_profile_weights(phase, spec, z)[2]]
    for j in range(1, K + 1):
        specs.append(specs[-1].z_derivative())
        wf.append(_profile_weights(phase, specs[j], z)[2] / math.factorial(j))
    free = [field_map_zero(s, z, tg, E0.xgrid).values / math.factorial(j)
            for j, s in enumerate(specs[1:], 1)]

    # E_i^(m)(X0) on the current row, one line per (i, m) some order reads
    pairs = [(i, m) for i in range(K + 1) for m in range(i == 0, K - i + 1)]
    line = {p: l for l, p in enumerate(pairs)}     # lines of coef and ev
    coef = np.empty((1, len(pairs), nk), dtype=complex)
    ev = np.empty((1, len(pairs), npart))

    vals = np.empty((K, nt, nx))            # E_1..E_K
    sups = np.empty((2, K, nt))             # the row sups of E_j and F_j

    # the weight lines of a row's densities, in the order read: wf_1..wf_K,
    # then each order's terms m, wf_0 F_j (j > 1) and wf_0 X_j, stacked
    # into one buffer for every row (see kernels.corr_evaluator)
    terms = [(j, range(1 + (j == 1), j + 1)) for j in range(1, K + 1)]
    W = np.empty((K + sum(len(ms) + (j > 1) + 1 for j, ms in terms), npart))
    modes = np.empty((1, len(W), nk), dtype=complex)

    def integrand(n, mom):
        X, Xf = mom                         # X_j and F_j's trajectory
        n0, dX, phases = block
        dX0, ph = dX[n - n0:n - n0 + 1], phases[n - n0:n - n0 + 1]
        pw = _powers(X, K)
        lines = wf[1:]
        for j, ms in terms:
            lines += [sum(wf[i] * pw[m, j - i]
                          for i in range(m == 1, j - m + 1)) for m in ms]
            lines += [wf[0] * Xf[j - 1]] * (j > 1) + [wf[0] * X[j - 1]]
        np.stack(lines, out=W)
        density(modes, W[None], dX0, ph)
        modes[0, K:] += _free_modes(W[K:], ph)      # S[.] lines
        S = iter(modes[0, K:])
        for j in range(1, K + 1):
            c = modes[0, j - 1]
            for m in range(1 + (j == 1), j + 1):
                c += (mik ** m / math.factorial(m)) * next(S)
            const = free[j - 1][n] + _field_of_modes(c, nx)
            F = const       # R_1 has no term: (i, m) = (0, 1) is left out
            if j > 1:
                F = const + _field_of_modes(mik * next(S), nx)
            sups[1, j - 1, n] = np.abs(F).max()
            vals[j - 1, n] = const + _field_of_modes(mik * next(S), nx)
            sups[0, j - 1, n] = np.abs(vals[j - 1, n]).max()
        for i, row in enumerate([E0.values[n], *vals[:, n]]):
            for m in range(i == 0, K - i + 1):
                if m:
                    row = _dx_rows(row)
                coef[0, line[i, m]] = np.fft.rfft(row) / nx
        kernels.eval_block(ev, coef, dX0, ph)
        g = ev[0, line[0, 1]]
        h = np.zeros(mom.shape)
        for j in range(1, K + 1):
            h[0, j - 1] = ev[0, line[j, 0]] + g * X[j - 1]
            if j > 1:
                R = sum(ev[0, line[i, m]] * pw[m, j - i]
                        * (1.0 / math.factorial(m)) for i in range(j)
                        for m in range(1 + (i == 0), j - i + 1))
                h[1, j - 1] = g * Xf[j - 1] + R
                h[0, j - 1] += R
        return h

    march = kernels.suffix_pass(integrand, (nt, 2, K, npart), tg.dt)

    def take(n0, n1, dX, dV, phases):
        block[:] = n0, dX, phases
        for _ in itertools.islice(march, n1 - n0):
            pass

    def finish():
        checks, lip = {}, params.contraction_bound
        for j in range(1, K + 1):
            name, fac = f"z_deriv_{j}_tangent", math.factorial(j)
            norm_e, norm_f = (weighted_sup(times, sup, params.a).value
                              for sup in sups[:, j - 1])
            checks[name] = BoundCheck(name, fac * norm_e,
                                      fac * norm_f / (1.0 - lip))
        return TaylorCoefficients(
            fields=tuple(E0.with_values(e) for e in vals), checks=checks)

    return take, finish
