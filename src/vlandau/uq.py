"""Parameter sweeps in z: collocation, gPC projection, z-derivatives.

The scalar parameter z lives on [-1, 1] with the uniform measure.  The
deterministic solve runs at Gauss-Legendre nodes; smooth quantities of
interest are then (a) projected onto the orthonormal Legendre basis
phi_m(z) = sqrt(2m+1) P_m(z) (coefficient decay certifies smooth
z-dependence) and (b) differentiated in z at z = 0 by differentiating
the collocation interpolant.  Derivatives of the interpolant at a point
are fixed linear combinations of the node values, so ensemble
post-processing streams over nodes without retaining per-node
phase-space tables.

Two independent derivative estimators are kept deliberately distinct:
the spectral one differentiates the full-degree interpolant via its
Legendre series, the finite-difference one applies exact
unequally-spaced difference weights on the few nodes nearest z = 0.
Their agreement is a reported verification quantity, not an assumption.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np
from numpy.polynomial import legendre as npleg

from .fields import FieldTable, weighted_norm, weighted_sup
from .params import DampingParams
from .profiles import ProfileSpec, shifted_difference, sup_gradient
from .scattering import BoundCheck, SolveResult, TimeGrid, PhaseGrid, \
    TrajectoryTable, picard_solve
# unused here, but perfbench/tracer.py rebinds it in this module by name
from .scattering import solve_characteristics  # noqa: F401

# nodes of the finite-difference cross-estimator, and the largest relative
# refinement drift of a derivative norm that passes
_FD_STENCIL = 5
_STABILITY_TOL = 0.05


class CollocationError(RuntimeError):
    """A node-level failure during an ensemble run; carries the node index."""

    def __init__(self, node_index: int, z: float, cause: Exception):
        super().__init__(f"node {node_index} (z = {z:.6g}) failed: {cause}")
        self.node_index = node_index
        self.z = z
        self.cause = cause


def gauss_legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (increasing) and weights on [-1, 1]."""
    if n < 1:
        raise ValueError("need at least one node")
    z, w = npleg.leggauss(int(n))
    return z, w


def fd_weights(nodes, x0: float, max_order: int) -> np.ndarray:
    """Finite-difference weights on arbitrary nodes (Fornberg's recursion).

    Returns weights[d, j] such that sum_j weights[d, j] f(nodes[j])
    approximates f^(d)(x0), exactly for polynomials of degree
    < len(nodes), for every d <= max_order.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[0]
    if max_order >= n:
        raise ValueError("derivative order must be below the node count")
    c = np.zeros((max_order + 1, n))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for d in range(mn, 0, -1):
                    c[d, i] = c1 * (d * c[d - 1, i - 1] - c5 * c[d, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for d in range(mn, 0, -1):
                c[d, j] = (c4 * c[d, j] - d * c[d - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZEnsemble:
    """Per-node solve results over a quadrature node set in z, with the
    corollary's ResidualSurvey when run_collocation solved them."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    results: tuple[SolveResult, ...]
    phase: PhaseGrid
    residuals: ResidualSurvey | None = None

    def __post_init__(self):
        if not (len(self.nodes) == len(self.weights) == len(self.results)):
            raise ValueError("nodes, weights and results must align")
        if self.residuals is not None and \
                len(self.residuals.node_norms) != len(self.nodes):
            raise ValueError("nodes and residual survey must align")
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError("nodes must be strictly increasing")
        sigs = {r_setup_signature(r) for r in self.results}
        if len(sigs) > 1:
            raise ValueError("per-node solves used differing grids or params")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def tgrid(self) -> TimeGrid:
        return self.results[0].field.tgrid

    @property
    def params(self) -> DampingParams:
        return self.results[0].params

    def field_stack(self) -> np.ndarray:
        """Node-major stack of field values, shape (n_nodes, nt, nx)."""
        return np.stack([r.field.values for r in self.results])

    def manifest(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "weights": list(self.weights),
            "setup_signature": r_setup_signature(self.results[0]),
            "per_node": [r.manifest() for r in self.results],
        }


def r_setup_signature(result: SolveResult) -> str:
    """Hash of params + grid shape, for the shared-setup invariant."""
    ident = {
        "params": result.params.as_dict(),
        "t0": result.field.tgrid.t0,
        "t_end": result.field.tgrid.t_end,
        "nt": len(result.field.tgrid),
        "nx": result.field.xgrid.n,
        "method": result.method,
    }
    blob = json.dumps(ident, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class ResidualSurvey:
    """The corollary's per-ensemble data, reduced while the nodes are solved.

    D(x,v,t,z) = f*(x,v,z) - f*(X - V t, V, z) is the transported-profile
    residual.  node_norms[j] = |D(., z_j)|_{a,t0,1}; node_ratios[j]
    compares it against 3 |grad f*(z_j)|_Linf |E(z_j)|_{a,t0} / a.
    derivative_norms[k] = |d^k_z D at 0|_{a,t0,1} for k <= k_max =
    min(K, n_nodes - 2), and floors[k] bounds the roundoff of the k >= 1
    ones (see roundoff_floor).
    """

    spec: ProfileSpec
    node_norms: tuple[float, ...]
    node_ratios: tuple[float, ...]
    derivative_norms: tuple[float, ...]
    floors: dict


def _transport_residual(traj: TrajectoryTable, spec: ProfileSpec,
                        z: float) -> np.ndarray:
    """D at the phase nodes, shape (nt, nx nv).

    The residual is evaluated in Lagrangian form: f(X, V, t) = f*(x, v)
    by definition of the transported solution, so D = f* - f* o (X - Vt, V)
    needs only the forward tables.  It is assembled by the profile's
    exact shifted-difference identities: X - Vt = x + (dX - t dV) and
    V = v + dV with tiny arguments.
    """
    phase = traj.phase
    x = np.repeat(phase.xgrid.points, phase.nv)
    v = np.tile(phase.v, phase.xgrid.n)
    nt = len(traj.tgrid)
    t = traj.tgrid.times[:, None]
    dv_arg = traj.dV.reshape(nt, -1)
    dx_arg = traj.dX.reshape(nt, -1) - t * dv_arg
    return -shifted_difference(spec, x[None, :], v[None, :], dx_arg, dv_arg,
                               z)


def _residual_norm(times, table: np.ndarray, params: DampingParams) -> float:
    """|table|_{a,t0,1}: the weighted sup over t of the sup over nodes."""
    sup = np.abs(table).reshape(len(times), -1).max(axis=1)
    return weighted_sup(times, sup, params.a, moment=1,
                        t_start=params.t0).value


def _solve_node(spec, params, z, tgrid, phase, solve_kw):
    """A node's solve, its residual table and the table's norm and ratio.

    The residual comes from the trajectories the solve just certified;
    the variational tables are dropped before it is formed and the
    trajectories after, so the returned result holds no tables.
    """
    result = picard_solve(spec, params, z, tgrid, phase, keep_tables=True,
                          **solve_kw)
    traj = result.traj
    result = replace(result, traj=None, var=None)
    delta = _transport_residual(traj, spec, z)
    del traj
    a = params.a
    norm = _residual_norm(tgrid.times, delta, params)
    norm_e = weighted_norm(result.field, a).value
    bound = 3.0 * sup_gradient(spec, z) * norm_e / a
    ratio = norm / bound if bound > 0 else (0.0 if norm == 0.0 else math.inf)
    return result, delta, norm, ratio


def run_collocation(spec: ProfileSpec, params: DampingParams,
                    tgrid: TimeGrid, phase: PhaseGrid, n_z: int = 9,
                    **solve_kw) -> ZEnsemble:
    """Deterministic solve at each of the n_z Gauss-Legendre nodes, with
    solve_kw passed on to picard_solve; aborts naming a failing node.

    Each node's corollary residual D(z_j) is formed from its own solve
    and streamed into k_max + 1 accumulators of sum_j w_kj D(z_j), the
    order-k derivative at 0 of the interpolant (fd_weights), so that at
    most one node's tables are alive at a time; the ensemble keeps only
    the reduced ResidualSurvey.  A z-independent profile is solved once:
    every node gets that result, with its own z, and its residual.
    """
    nodes, weights = gauss_legendre_nodes(n_z)
    # weight rows k <= k_max; none for a single node (k_max = -1)
    k_max = min(params.K, len(nodes) - 2)
    dw = fd_weights(nodes, 0.0, max(k_max, 0))[:k_max + 1]
    accum = np.zeros((k_max + 1, len(tgrid), phase.xgrid.n * phase.nv))
    results, node_norms, node_ratios = [], [], []
    z_independent = spec.is_z_independent
    for j, z in enumerate(float(z) for z in nodes):
        if j == 0 or not z_independent:
            try:
                result, delta, norm, ratio = _solve_node(
                    spec, params, z, tgrid, phase, solve_kw)
            except Exception as err:
                raise CollocationError(j, z, err) from err
        else:                 # the first node's solve serves every node
            result = replace(result, z=z)
        results.append(result)
        node_norms.append(norm)
        node_ratios.append(ratio)
        for k in range(k_max + 1):
            accum[k] += dw[k, j] * delta
        if not z_independent:
            del delta         # not alive during the next node's solve
    deriv_norms = tuple(_residual_norm(tgrid.times, acc, params)
                        for acc in accum)
    scale = max(node_norms)
    floors = {k: scale * roundoff_floor(dw[k]) for k in range(1, k_max + 1)}
    survey = ResidualSurvey(spec=spec, node_norms=tuple(node_norms),
                            node_ratios=tuple(node_ratios),
                            derivative_norms=deriv_norms, floors=floors)
    return ZEnsemble(nodes=tuple(float(z) for z in nodes),
                     weights=tuple(float(w) for w in weights),
                     results=tuple(results), phase=phase, residuals=survey)


# ---------------------------------------------------------------------------
# gPC projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GpcTable:
    """Coefficients of the field in the orthonormal Legendre basis.

    coefficients[m] are the (nt, nx) tables of
    c_m = (1/2) sum_j w_j sqrt(2m+1) P_m(z_j) E(.,.,z_j),
    so that E(z) ~ sum_m c_m sqrt(2m+1) P_m(z).
    """

    nodes: tuple[float, ...]
    coefficients: np.ndarray            # (n_modes, nt, nx)
    tgrid: TimeGrid
    xs: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.coefficients.shape[0]

    def mode_magnitudes(self) -> np.ndarray:
        """max |c_m| per mode; geometric decay certifies z-smoothness."""
        return np.abs(self.coefficients).reshape(self.n_modes, -1).max(axis=1)

    def decay_rate(self) -> float:
        """Least-squares slope of log10 |c_m| vs m over nonzero modes."""
        mags = self.mode_magnitudes()
        keep = mags > 0
        if keep.sum() < 2:
            return 0.0
        m = np.arange(self.n_modes, dtype=float)[keep]
        return float(np.polyfit(m, np.log10(mags[keep]), 1)[0])

    def reconstruct(self, z: float) -> np.ndarray:
        basis = _orthonormal_legendre(np.asarray([z]), self.n_modes)[0]
        return np.tensordot(basis, self.coefficients, axes=(0, 0))


def _orthonormal_legendre(z: np.ndarray, n_modes: int) -> np.ndarray:
    """phi_m(z_j) matrix, shape (len(z), n_modes)."""
    vander = npleg.legvander(z, n_modes - 1)
    scale = np.sqrt(2.0 * np.arange(n_modes) + 1.0)
    return vander * scale[None, :]


def _projection(nodes, weights) -> np.ndarray:
    """Projection weights (1/2) w_j phi_m(z_j), shape (m, n)."""
    z = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    basis = _orthonormal_legendre(z, len(z))            # (n, m)
    return 0.5 * (basis * w[:, None]).T


def project_stack(nodes, weights, stack) -> np.ndarray:
    """Orthonormal-Legendre projection of node-major values.

    Returns coefficients c_m = (1/2) sum_j w_j phi_m(z_j) stack[j],
    shape (n_nodes,) + stack.shape[1:].
    """
    stack = np.asarray(stack, dtype=float)
    return np.tensordot(_projection(nodes, weights), stack, axes=(1, 0))


def spectral_derivative_stack(nodes, weights, stack, k: int) -> np.ndarray:
    """d^k/dz^k at z = 0 of the interpolant through node-major values,
    computed by differentiating its Legendre series (the projection is
    exact for the interpolant at Gauss quadrature order)."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    coeffs = project_stack(nodes, weights, stack)
    extra = (1,) * (coeffs.ndim - 1)
    scale = np.sqrt(2.0 * np.arange(coeffs.shape[0]) + 1.0)
    series = coeffs * scale.reshape((-1,) + extra)
    if k:
        series = npleg.legder(series, m=k, axis=0)
    return npleg.legval(0.0, series, tensor=True)


def gpc_coefficients(ensemble: ZEnsemble) -> GpcTable:
    """Project node fields onto the orthonormal basis with the node weights."""
    coeffs = project_stack(ensemble.nodes, ensemble.weights,
                           ensemble.field_stack())
    return GpcTable(nodes=ensemble.nodes, coefficients=coeffs,
                    tgrid=ensemble.tgrid, xs=ensemble.results[0].field.xgrid.points)


def write_gpc_csv(table: GpcTable, path) -> None:
    """Long-format CSV (m, x, t, coefficient), m-major then t then x."""
    fmt = "%.17g"
    lines = ["m,x,t,coefficient"]
    times = table.tgrid.times
    for m in range(table.n_modes):
        for n, t in enumerate(times):
            row = table.coefficients[m, n]
            for i, x in enumerate(table.xs):
                lines.append("%d,%s,%s,%s" % (m, fmt % x, fmt % t,
                                              fmt % row[i]))
    with open(str(path), "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# z-derivatives
# ---------------------------------------------------------------------------

def z_derivative(ensemble: ZEnsemble, k: int) -> FieldTable:
    """d^k/dz^k of the field at z = 0 via the collocation interpolant.

    The interpolant is represented in the Legendre basis (its gPC
    projection, exact at this quadrature order) and differentiated
    analytically.  k = 0 evaluates the interpolant at 0.
    """
    n = ensemble.n_nodes
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k > 0 and k > n - 2:
        raise ValueError(
            f"order-{k} differentiation of a {n}-node ensemble is "
            "unstable; need at least k+2 nodes")
    vals = spectral_derivative_stack(ensemble.nodes, ensemble.weights,
                                     ensemble.field_stack(), k)
    ref = ensemble.results[0].field
    return FieldTable(ref.tgrid, ref.xgrid, vals)


def fd_stencil(nodes, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (increasing) of the _FD_STENCIL nodes nearest 0, at least
    k + 1 of them, and their order-k difference weights at 0."""
    z = np.asarray(nodes, dtype=float)
    stencil = min(max(_FD_STENCIL, k + 1), z.shape[0])
    order = np.sort(np.argsort(np.abs(z))[:stencil])
    return order, fd_weights(z[order], 0.0, k)[k]


def z_derivative_fd(ensemble: ZEnsemble, k: int) -> FieldTable:
    """d^k/dz^k of the field at z = 0 by unequally-spaced differences
    on the _FD_STENCIL nodes nearest 0 (the independent cross-estimator)."""
    n = ensemble.n_nodes
    if k < 1 or k > n - 2:
        raise ValueError("need 1 <= k <= n_nodes - 2")
    order, w = fd_stencil(ensemble.nodes, k)
    vals = np.tensordot(w, ensemble.field_stack()[order], axes=(0, 0))
    ref = ensemble.results[0].field
    return FieldTable(ref.tgrid, ref.xgrid, vals)


# ---------------------------------------------------------------------------
# roundoff floors
# ---------------------------------------------------------------------------

_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def roundoff_floor(weights, gains=None) -> float:
    """Roundoff bound, per unit node scale, of an order k >= 1 derivative
    estimate applied to node values that agree.

    weights[m, j] (or a single row) are the computed weights with which
    the estimate combines the node values F_j, |F_j| <= 1; gains[m]
    (default 1) is the exact linear map applied to the combinations
    afterwards.  A derivative of order k >= 1 maps a constant to zero,
    so the exact weights of every row with a nonzero gain sum to zero.
    Each computed row contributes its defect |sum_j w_mj| plus the
    rounding of the sum, gamma_n sum_j |w_mj| with
    gamma_n = n u / (1 - n u) (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1).
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    n = w.shape[1]
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    defect = np.array([abs(math.fsum(row)) for row in w])
    rows = defect + gamma * np.abs(w).sum(axis=1)
    g = np.ones(len(rows)) if gains is None else np.abs(gains)
    return float(g @ rows)


def spectral_floor(nodes, weights, k: int) -> float:
    """roundoff_floor of spectral_derivative_stack at order k >= 1.

    The estimate combines the node values only in the projection; the
    Legendre scaling, legder and legval that follow act on coefficients
    that are themselves roundoff when the node values agree, so they
    enter as the exact gains sqrt(2m+1) P_m^(k)(0).
    """
    if k < 1:
        raise ValueError("the roundoff floor needs derivative order >= 1")
    scale = np.sqrt(2.0 * np.arange(len(nodes)) + 1.0)
    gains = npleg.legval(0.0, npleg.legder(np.diag(scale), m=k, axis=0))
    return roundoff_floor(_projection(nodes, weights), gains)


def _theorem_floors(ensemble: ZEnsemble, k_max: int) -> tuple[dict, dict]:
    """Floors {k: ...}, 1 <= k <= k_max, of the spectral and the
    finite-difference estimate of |d^k_z E|_{a,t0}: their roundoff_floor
    times the node scale max_j |E(z_j)|_{a,t0}."""
    a = ensemble.params.a
    scale = max(weighted_norm(r.field, a).value for r in ensemble.results)
    ks = range(1, k_max + 1)
    spectral = {k: scale * spectral_floor(ensemble.nodes, ensemble.weights, k)
                for k in ks}
    fd = {k: scale * roundoff_floor(fd_stencil(ensemble.nodes, k)[1])
          for k in ks}
    return spectral, fd


def _refinement_drift(base: float, base_floor: float, refined: float,
                      refined_floor: float) -> float:
    """Relative change of a norm under node refinement.

    Norms within their own ensemble's roundoff floor are numerically
    zero, so two of them do not drift; otherwise the change is relative
    to the base norm, or to its floor where the base lies below it.
    """
    if base <= base_floor and refined <= refined_floor:
        return 0.0
    denom = max(base, base_floor)
    return abs(refined - base) / denom if denom > 0.0 else math.inf


# ---------------------------------------------------------------------------
# empirical theorem/corollary reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremReport:
    """Weighted norms of the z-derivative fields at z = 0.

    norms[k] = |d^k_z E|_{a,t0} for k = 0..K; agreement[k] is the
    relative weighted-norm difference between the spectral and
    finite-difference estimators (k >= 1); drift[k] is the relative
    change under node refinement when a refined ensemble was supplied.

    floors["base"][k], floors["fd"][k] and floors["refined"][k] bound the
    roundoff of the k >= 1 spectral estimate, the finite-difference
    estimate and the refined spectral estimate (see roundoff_floor).  A
    norm within its floor is numerically zero: two such norms have drift
    0, and agreement is taken relative to base + fd floor when the
    spectral norm lies below that sum.
    checks holds z_deriv_{k}_drift per refined k, bound stability_tol.
    """

    norms: tuple[float, ...]
    agreement: dict
    drift: dict
    floors: dict = field(default_factory=dict)
    stability_tol: ClassVar[float] = _STABILITY_TOL

    @property
    def checks(self) -> dict:
        return _drift_checks("z_deriv", self.drift, self.stability_tol)

    @property
    def passed(self) -> bool:
        return (all(math.isfinite(v) for v in self.norms)
                and all(c.passed for c in self.checks.values()))

    def as_dict(self) -> dict:
        return {
            "norms": list(self.norms),
            "agreement": {str(k): v for k, v in self.agreement.items()},
            "drift": {str(k): v for k, v in self.drift.items()},
            "floors": _floors_dict(self.floors),
            "stability_tol": self.stability_tol,
            "checks": {n: c.as_dict() for n, c in self.checks.items()},
            "passed": self.passed,
        }


def _drift_checks(prefix: str, drift: dict, tol: float) -> dict:
    checks = (BoundCheck(f"{prefix}_{k}_drift", d, tol)
              for k, d in drift.items())
    return {c.name: c for c in checks}


def _floors_dict(floors: dict) -> dict:
    return {name: {str(k): v for k, v in per_k.items()}
            for name, per_k in floors.items()}


def _relative_weighted_diff(tab_a: FieldTable, tab_b: FieldTable,
                            a: float, floor: float = 0.0) -> float:
    # `floor` bounds the roundoff of the two estimates; quantities below
    # it are indistinguishable from zero, so their disagreement is
    # reported relative to the floor instead of to themselves
    base = max(weighted_norm(tab_a, a).value, floor)
    diff = weighted_norm(tab_a.with_values(tab_a.values - tab_b.values),
                         a).value
    if base == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / base


def check_theorem_bounds(ensemble: ZEnsemble,
                         refined: ZEnsemble | None = None) -> TheoremReport:
    """Report |d^k_z E|_{a,t0} for k <= K (the ensemble's params.K) with
    estimator and refinement cross-checks; "bounded" is operationalized
    as refinement stability."""
    a = ensemble.params.a
    k_max = min(ensemble.params.K, ensemble.n_nodes - 2)
    # derivative norms within the roundoff floor of their estimate are
    # numerically zero; comparisons between them carry no information.
    # The floors come from the weights each estimate applies, so they
    # grow with k and with the node count as the roundoff does.  The
    # value itself (k = 0) is not a roundoff quantity and has no floor.
    base_floors, fd_floors = _theorem_floors(ensemble, k_max)
    floors = {"base": base_floors, "fd": fd_floors}
    if refined is not None:
        floors["refined"] = _theorem_floors(refined, k_max)[0]
    norms = []
    agreement = {}
    drift = {}
    for k in range(k_max + 1):
        tab = z_derivative(ensemble, k)
        norms.append(weighted_norm(tab, a).value)
        if k >= 1:
            agreement[k] = _relative_weighted_diff(
                tab, z_derivative_fd(ensemble, k), a,
                floor=floors["base"][k] + floors["fd"][k])
        if refined is not None:
            ref_norm = weighted_norm(z_derivative(refined, k), a).value
            drift[k] = _refinement_drift(
                norms[k], floors["base"].get(k, 0.0),
                ref_norm, floors["refined"].get(k, 0.0))
    return TheoremReport(norms=tuple(norms), agreement=agreement,
                         drift=drift, floors=floors)


@dataclass(frozen=True)
class CorollaryReport:
    """Weighted-in-t norms of the transported-profile residual
    D(x,v,t,z) = f*(x,v,z) - f*(X - V t, V, z) and its z-derivatives.

    node_norms[j] = |D(., z_j)|_{a,t0,1}; node_ratios[j] compares against
    the first-order bound 3 |grad f*(z_j)|_Linf |E(z_j)|_{a,t0} / a.
    derivative_norms[k] = |d^k_z D at 0|_{a,t0,1}, with refinement drift
    when a refined ensemble is supplied.  floors["base"][k] and
    floors["refined"][k] bound the roundoff of the k >= 1 derivative
    norms of the two ensembles (see roundoff_floor); two norms within
    their floors are numerically zero and have drift 0.
    checks holds residual_k0 (worst node ratio, bound 1) and
    residual_deriv_{k}_drift per refined k, bound stability_tol.
    """

    node_norms: tuple[float, ...]
    node_ratios: tuple[float, ...]
    derivative_norms: tuple[float, ...]
    comparison_bounds: tuple[float, ...]
    drift: dict
    floors: dict = field(default_factory=dict)
    stability_tol: ClassVar[float] = _STABILITY_TOL

    @property
    def k0_ratio(self) -> float:
        return max(self.node_ratios) if self.node_ratios else 0.0

    @property
    def checks(self) -> dict:
        checks = {"residual_k0": BoundCheck("residual_k0", self.k0_ratio, 1.0)}
        checks.update(_drift_checks("residual_deriv", self.drift,
                                    self.stability_tol))
        return checks

    @property
    def passed(self) -> bool:
        return (all(math.isfinite(v) for v in self.derivative_norms)
                and all(c.passed for c in self.checks.values()))

    def as_dict(self) -> dict:
        return {
            "node_norms": list(self.node_norms),
            "node_ratios": list(self.node_ratios),
            "k0_worst_ratio": self.k0_ratio,
            "derivative_norms": list(self.derivative_norms),
            "comparison_bounds": list(self.comparison_bounds),
            "drift": {str(k): v for k, v in self.drift.items()},
            "floors": _floors_dict(self.floors),
            "stability_tol": self.stability_tol,
            "checks": {n: c.as_dict() for n, c in self.checks.items()},
            "passed": self.passed,
        }


def _survey_of(ensemble: ZEnsemble) -> ResidualSurvey:
    survey = ensemble.residuals
    if survey is None:
        raise ValueError("the ensemble carries no residual survey; "
                         "run_collocation forms it")
    return survey


def check_corollary(ensemble: ZEnsemble,
                    refined: ZEnsemble | None = None) -> CorollaryReport:
    """The residual norms and their z-derivatives at 0, with refinement
    drift, from the residual surveys run_collocation formed at each node
    for the profile it solved; nothing is solved again."""
    base = _survey_of(ensemble)
    floors = {"base": base.floors}
    drift = {}
    if refined is not None:
        ref = _survey_of(refined)
        floors["refined"] = ref.floors
        for k in range(min(len(base.derivative_norms),
                           len(ref.derivative_norms))):
            drift[k] = _refinement_drift(
                base.derivative_norms[k], base.floors.get(k, 0.0),
                ref.derivative_norms[k], ref.floors.get(k, 0.0))

    # First-order comparison scale per derivative order:
    # sup|grad d^k_z f*| . |E|_{a,t0} . ((2/a) t + 1/a) e^{-at}, measured in
    # the same weighted norm, which collapses to G_k N (2 + 1/t0) / a.
    params = ensemble.params
    norm_e0 = weighted_norm(z_derivative(ensemble, 0), params.a).value
    bounds = []
    dspec = base.spec
    for k in range(len(base.derivative_norms)):
        g_k = sup_gradient(dspec, 0.0)
        bounds.append(g_k * norm_e0 * (2.0 + 1.0 / params.t0) / params.a)
        dspec = dspec.z_derivative()
    return CorollaryReport(node_norms=base.node_norms,
                           node_ratios=base.node_ratios,
                           derivative_norms=base.derivative_norms,
                           comparison_bounds=tuple(bounds), drift=drift,
                           floors=floors)
