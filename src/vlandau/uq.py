"""Parameter sweeps in z: collocation, gPC projection, z-derivatives.

The scalar parameter z lives on [-1, 1] with the uniform measure.  The
deterministic solve runs at Gauss-Legendre nodes; smooth quantities of
interest are then projected onto the orthonormal Legendre basis
phi_m(z) = sqrt(2m+1) P_m(z) (coefficient decay certifies smooth
z-dependence).  The field's z-derivatives at 0 come from the tangent
solve at the node z = 0 (scattering.solve_tangent, run while that
node's tables are alive); the theorem report compares them with the
collocation interpolant's.  The order-k derivative of the interpolant
at 0 is one fixed row of difference weights over every node
(fd_weights, Fornberg's recursion).  One survey (_z_survey) streams the
node values through those rows: run_collocation feeds it each node's
corollary residual as the node is solved, so that no two nodes'
phase-space tables are alive at once, and the theorem report feeds it
the node fields, with roundoff floors from the same rows.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import legendre as npleg

from .fields import weighted_norm, weighted_sup
from .params import DampingParams
from .profiles import ProfileSpec, shifted_difference, sup_gradient
from .scattering import FIELD_MAP_METHOD, BoundCheck, SolveResult, \
    TaylorCoefficients, TimeGrid, PhaseGrid, TrajectoryTable, picard_solve, \
    solve_tangent
# unused here, but perfbench/tracer.py rebinds it in this module by name
from .scattering import solve_characteristics  # noqa: F401

# the largest relative distance of the interpolant's z-derivative from the
# tangent's that passes, beyond the interpolant's roundoff floor
_RESOLUTION_TOL = 0.05


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
    corollary's ResidualSurvey that run_collocation formed from them and
    the tangent solve's Taylor coefficients at the node z = 0 (None when
    0 is not a node, as for an even node count)."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    results: tuple[SolveResult, ...]
    residuals: ResidualSurvey
    taylor: TaylorCoefficients | None

    def __post_init__(self):
        if not (len(self.nodes) == len(self.weights) == len(self.results)):
            raise ValueError("nodes, weights and results must align")
        if len(self.residuals.node_norms) != len(self.nodes):
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
    def phase(self) -> PhaseGrid:
        return self.results[0].phase

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
    """Hash of params + grids, for the shared-setup invariant."""
    ident = {
        "params": result.params.as_dict(),
        "t0": result.field.tgrid.t0,
        "t_end": result.field.tgrid.t_end,
        "nt": len(result.field.tgrid),
        "nx": result.field.xgrid.n,
        "nv": result.phase.nv,
        "v_max": result.phase.v_max,
        "method": FIELD_MAP_METHOD,
    }
    blob = json.dumps(ident, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class ResidualSurvey:
    """The corollary's per-ensemble data, reduced while the nodes are solved.

    D(x,v,t,z) = f*(x,v,z) - f*(X - V t, V, z) is the transported-profile
    residual.  node_norms[j] = |D(., z_j)|_{a,t0,1}; node_ratios[j]
    compares it against 3 |grad f*(z_j)|_Linf |E(z_j)|_{a,t0} / a.
    derivative_norms[k] = |d^k_z D at 0|_{a,t0,1}, of the interpolant
    through the node residuals, for k <= k_max = min(K, n_nodes - 2).
    """

    spec: ProfileSpec
    node_norms: tuple[float, ...]
    node_ratios: tuple[float, ...]
    derivative_norms: tuple[float, ...]


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
    """A node's solve, its residual table, the table's comparison bound
    3 |grad f*(z)|_Linf |E(z)|_{a,t0} / a and, at z = 0, the tangent
    solve's Taylor coefficients (else None).

    The tangent and the residual come from the trajectories the solve
    just certified; the variational tables are dropped before either is
    formed and the trajectories after, so the returned result holds no
    tables.
    """
    result = replace(picard_solve(spec, params, z, tgrid, phase,
                                  keep_tables=True, **solve_kw), var=None)
    taylor = None
    if z == 0.0:
        taylor = solve_tangent(spec, result, **{
            key: solve_kw[key] for key in ("tol", "max_iter")
            if key in solve_kw})
    traj = result.traj
    result = replace(result, traj=None)
    delta = _transport_residual(traj, spec, z)
    del traj
    norm_e = weighted_norm(result.field, params.a).value
    bound = 3.0 * sup_gradient(spec, z) * norm_e / params.a
    return result, delta, bound, taylor


def run_collocation(spec: ProfileSpec, params: DampingParams,
                    tgrid: TimeGrid, phase: PhaseGrid, n_z: int = 9,
                    **solve_kw) -> ZEnsemble:
    """Deterministic solve at each of the n_z Gauss-Legendre nodes, with
    solve_kw passed on to picard_solve (its tol and max_iter also to the
    tangent solve at z = 0); aborts naming a failing node.

    Each node's corollary residual D(z_j) is formed from its own solve
    and handed to _z_survey before the next node is solved, so that at
    most one node's tables are alive at a time; the ensemble keeps only
    the reduced ResidualSurvey and the K Taylor fields.
    """
    nodes, weights = gauss_legendre_nodes(n_z)
    results, bounds, taylor = [], [], []

    def residuals():
        for j, z in enumerate(float(z) for z in nodes):
            try:
                result, delta, bound, tay = _solve_node(
                    spec, params, z, tgrid, phase, solve_kw)
            except Exception as err:
                raise CollocationError(j, z, err) from err
            results.append(result)
            bounds.append(bound)
            taylor.append(tay)
            yield delta
            del delta         # not alive during the next node's solve

    def norm(table):
        return _residual_norm(tgrid.times, table, params)

    node_norms, sums, _ = _z_survey(nodes, params.K, residuals(), norm)
    ratios = tuple(n / bound if bound > 0 else (0.0 if n == 0.0 else math.inf)
                   for n, bound in zip(node_norms, bounds))
    survey = ResidualSurvey(spec=spec, node_norms=node_norms,
                            node_ratios=ratios,
                            derivative_norms=tuple(map(norm, sums)))
    return ZEnsemble(nodes=tuple(float(z) for z in nodes),
                     weights=tuple(float(w) for w in weights),
                     results=tuple(results), residuals=survey,
                     taylor=next((t for t in taylor if t is not None), None))


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


def project_stack(nodes, weights, stack) -> np.ndarray:
    """Orthonormal-Legendre projection of node-major values.

    Returns coefficients c_m = (1/2) sum_j w_j phi_m(z_j) stack[j],
    shape (n_nodes,) + stack.shape[1:].
    """
    z = np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    basis = _orthonormal_legendre(z, len(z))            # (n, m)
    stack = np.asarray(stack, dtype=float)
    return np.tensordot(0.5 * (basis * w[:, None]).T, stack, axes=(1, 0))


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
    xs = [fmt % x for x in table.xs]
    for m in range(table.n_modes):
        for t, row in zip(table.tgrid.times, table.coefficients[m]):
            t_col = "," + fmt % t + ","
            lines += [f"{m},{x}{t_col}{fmt % c}"
                      for x, c in zip(xs, row.tolist())]
    with open(str(path), "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# z-derivatives
# ---------------------------------------------------------------------------

def _z_survey(nodes, K: int, tables, norm) -> tuple[tuple, list, dict]:
    """Every z-derivative at 0 of a node quantity Q, streamed.

    tables yields Q(z_j) in node order.  Each is added into the sums of
    the interpolant's order-k difference weights at 0 (fd_weights) for
    k <= k_max = min(K, n_nodes - 2), none for a single node, and then
    dropped, so that no two nodes' tables are alive at once.  Returns
    the node norms norm(Q(z_j)), the derivative tables d^k_z Q at 0 and
    the floors of their norms {k: max_j norm(Q(z_j)) roundoff_floor(row
    k)} for k >= 1.
    """
    k_max = min(K, len(nodes) - 2)
    rows = fd_weights(nodes, 0.0, max(k_max, 0))[:k_max + 1]
    node_norms = []
    sums = []
    for table in tables:      # not enumerate: its tuple would hold a table
        j = len(node_norms)
        node_norms.append(norm(table))
        if j == 0:
            sums = [np.zeros(table.shape) for _ in range(k_max + 1)]
        for k in range(k_max + 1):
            sums[k] += rows[k, j] * table
        del table
    scale = max(node_norms)
    floors = {k: scale * roundoff_floor(rows[k]) for k in range(1, k_max + 1)}
    return tuple(node_norms), sums, floors


def _field_norm(ensemble: ZEnsemble, values) -> float:
    """|values|_{a,t0} on the ensemble's grids."""
    return weighted_norm(ensemble.results[0].field.with_values(values),
                         ensemble.params.a).value


def _field_survey(ensemble: ZEnsemble) -> tuple[tuple, list, dict]:
    """_z_survey of the node fields E(z_j) in the norm |.|_{a,t0}."""
    return _z_survey(ensemble.nodes, ensemble.params.K,
                     (r.field.values for r in ensemble.results),
                     lambda values: _field_norm(ensemble, values))


# ---------------------------------------------------------------------------
# roundoff floors
# ---------------------------------------------------------------------------

_UNIT_ROUNDOFF = math.ulp(1.0) / 2


def roundoff_floor(weights) -> float:
    """Roundoff bound, per unit node scale, of an order k >= 1 derivative
    estimate applied to node values that agree.

    weights[j] are the computed weights with which the estimate combines
    the node values F_j, |F_j| <= 1.  A derivative of order k >= 1 maps a
    constant to zero, so the exact weights sum to zero; the computed row
    contributes its defect |sum_j w_j| plus the rounding of the sum,
    gamma_n sum_j |w_j| with gamma_n = n u / (1 - n u) (Higham, Accuracy
    and Stability of Numerical Algorithms, section 3.1).
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    return abs(math.fsum(w)) + gamma * float(np.abs(w).sum())


# ---------------------------------------------------------------------------
# empirical theorem/corollary reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremReport:
    """Weighted norms of the z-derivative fields at z = 0.

    norms[k] = |d^k_z E|_{a,t0} for k = 0..K: the z = 0 node's field and
    k! times its tangent solve's Taylor coefficients.  checks holds the
    tangent's certificates z_deriv_{k}_tangent and, for k <= min(K,
    n_nodes - 2), z_deriv_{k}_resolution: the distance |fd_k -
    d^k_z E|_{a,t0} of the collocation interpolant's derivative fd_k,
    bound _RESOLUTION_TOL |d^k_z E|_{a,t0} + floors[k], the interpolant's
    roundoff floor (see roundoff_floor).
    """

    norms: tuple[float, ...]
    floors: dict
    checks: dict

    @property
    def passed(self) -> bool:
        return (all(math.isfinite(v) for v in self.norms)
                and all(c.passed for c in self.checks.values()))

    def as_dict(self) -> dict:
        return {
            "norms": list(self.norms),
            "floors": {str(k): v for k, v in self.floors.items()},
            "checks": {n: c.as_dict() for n, c in self.checks.items()},
            "passed": self.passed,
        }


def check_theorem_bounds(ensemble: ZEnsemble) -> TheoremReport:
    """Report |d^k_z E|_{a,t0} for k <= K (the ensemble's params.K) from
    the tangent solve, with its certificates and its distance from the
    collocation interpolant; ValueError when 0 is not a node."""
    if ensemble.taylor is None:
        raise ValueError("the theorem report needs z = 0 as a node (an odd "
                         "node count)")
    derivs = [ensemble.results[ensemble.nodes.index(0.0)].field.values] + [
        math.factorial(k) * e.values
        for k, e in enumerate(ensemble.taylor.fields, 1)]
    norms = tuple(_field_norm(ensemble, d) for d in derivs)
    _, fd, floors = _field_survey(ensemble)
    checks = dict(ensemble.taylor.checks)
    for k in range(1, len(fd)):
        name = f"z_deriv_{k}_resolution"
        checks[name] = BoundCheck(
            name, _field_norm(ensemble, fd[k] - derivs[k]),
            _RESOLUTION_TOL * norms[k] + floors[k])
    return TheoremReport(norms=norms, floors=floors, checks=checks)


@dataclass(frozen=True)
class CorollaryReport:
    """Weighted-in-t norms of the transported-profile residual
    D(x,v,t,z) = f*(x,v,z) - f*(X - V t, V, z) and its z-derivatives.

    node_norms[j] = |D(., z_j)|_{a,t0,1}; node_ratios[j] compares against
    the first-order bound 3 |grad f*(z_j)|_Linf |E(z_j)|_{a,t0} / a.
    derivative_norms[k] = |d^k_z D at 0|_{a,t0,1}, from the same nodes
    as the theorem report's z_deriv_{k}_resolution.  checks holds
    residual_k0 (worst node ratio, bound 1).
    """

    node_norms: tuple[float, ...]
    node_ratios: tuple[float, ...]
    derivative_norms: tuple[float, ...]
    comparison_bounds: tuple[float, ...]

    @property
    def k0_ratio(self) -> float:
        return max(self.node_ratios) if self.node_ratios else 0.0

    @property
    def checks(self) -> dict:
        return {"residual_k0": BoundCheck("residual_k0", self.k0_ratio, 1.0)}

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
            "checks": {n: c.as_dict() for n, c in self.checks.items()},
            "passed": self.passed,
        }


def check_corollary(ensemble: ZEnsemble) -> CorollaryReport:
    """The residual norms and their z-derivatives at 0, from the residual
    survey run_collocation formed at each node for the profile it solved;
    nothing is solved again."""
    base = ensemble.residuals

    # First-order comparison scale per derivative order:
    # sup|grad d^k_z f*| . |E|_{a,t0} . ((2/a) t + 1/a) e^{-at}, measured in
    # the same weighted norm, which collapses to G_k N (2 + 1/t0) / a with
    # N = |E at z = 0|_{a,t0}, order 0 of the field survey.
    params = ensemble.params
    fd = _field_survey(ensemble)[1]
    bounds = []
    dspec = base.spec
    for _ in fd:              # orders k = 0..min(K, n_nodes - 2)
        g_k = sup_gradient(dspec, 0.0)
        bounds.append(g_k * _field_norm(ensemble, fd[0])
                      * (2.0 + 1.0 / params.t0) / params.a)
        dspec = dspec.z_derivative()
    return CorollaryReport(node_norms=base.node_norms,
                           node_ratios=base.node_ratios,
                           derivative_norms=base.derivative_norms,
                           comparison_bounds=tuple(bounds))
