"""Parameter sweeps in z: collocation, gPC projection, z-derivatives.

The scalar parameter z lives on [-1, 1] with the uniform measure.  The
deterministic solve runs at Gauss-Legendre nodes; smooth quantities of
interest are then projected onto the orthonormal Legendre basis
phi_m(z) = sqrt(2m+1) P_m(z) (the decay of the coefficients estimates
z-smoothness).  The field's z-derivatives at 0 come from the tangent
pass at the node z = 0 (scattering._tangent_pass, which rides that
node's certifying march); the theorem report compares them with the
collocation interpolant's.  The order-k derivative of the interpolant
at 0 is one fixed row of difference weights over every node
(fd_weights, Fornberg's recursion).  One survey (_z_survey) streams the
node values through those rows: run_collocation solves the nodes
concurrently, one process per usable CPU, each process holding one
node's phase-space tables at a time, and feeds the survey each node's
corollary residual strictly in node order, so that every sum is the
same on any CPU count; the theorem report feeds it the node fields,
with roundoff floors from the same rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pickle
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from .fields import weighted_norm, weighted_sup
from .kernels import _row_blocks
from .params import DampingParams
from .profiles import ProfileSpec, shifted_difference, sup_gradient
from .scattering import FIELD_MAP_METHOD, BoundCheck, SolveResult, \
    TaylorCoefficients, TimeGrid, PhaseGrid, _flat_labels, _tangent_pass, \
    picard_solve
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
    CorollaryReport that run_collocation formed from them and the tangent
    solve's Taylor coefficients at the node z = 0 (None when 0 is not a
    node, as for an even node count)."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    results: tuple[SolveResult, ...]
    corollary: CorollaryReport
    taylor: TaylorCoefficients | None

    def __post_init__(self):
        if not (len(self.nodes) == len(self.weights) == len(self.results)):
            raise ValueError("nodes, weights and results must align")
        if len(self.corollary.node_norms) != len(self.nodes):
            raise ValueError("nodes and corollary report must align")
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
class CorollaryReport:
    """Weighted-in-t norms of the transported-profile residual
    D(x,v,t,z) = f*(x,v,z) - f*(X - V t, V, z) and its z-derivatives,
    reduced while the nodes are solved.

    node_norms[j] = |D(., z_j)|_{a,t0,1}; node_ratios[j] compares it
    against the first-order bound 3 |grad f*(z_j)|_Linf |E(z_j)|_{a,t0} / a.
    derivative_norms[k] = |d^k_z D at 0|_{a,t0,1}, of the interpolant
    through the node residuals, for k <= k_max = min(K, n_nodes - 2): the
    same nodes as the theorem report's z_deriv_{k}_resolution.  They carry
    no bound.  checks holds residual_k0 (worst node ratio, bound 1).
    """

    node_norms: tuple[float, ...]
    node_ratios: tuple[float, ...]
    derivative_norms: tuple[float, ...]

    @property
    def k0_ratio(self) -> float:
        # np.max, unlike max(), keeps the NaN of any node
        return float(np.max(self.node_ratios)) if self.node_ratios else 0.0

    @property
    def checks(self) -> dict:
        return {"residual_k0": BoundCheck("residual_k0", self.k0_ratio, 1.0)}

    @property
    def passed(self) -> bool:
        return (all(math.isfinite(v)
                    for v in self.node_norms + self.derivative_norms)
                and all(c.passed for c in self.checks.values()))

    def as_dict(self) -> dict:
        return {
            "node_norms": list(self.node_norms),
            "node_ratios": list(self.node_ratios),
            "k0_worst_ratio": self.k0_ratio,
            "derivative_norms": list(self.derivative_norms),
            "checks": {n: c.as_dict() for n, c in self.checks.items()},
            "passed": self.passed,
        }


def _solve_node(spec, params, z, tgrid, phase, solve_kw):
    """A node's solve, its residual table, the table's comparison bound
    3 |grad f*(z)|_Linf |E(z)|_{a,t0} / a and, at z = 0, the tangent
    solve's Taylor coefficients (else None).

    The residual D, shape (nt, nx nv), is evaluated in Lagrangian form:
    f(X, V, t) = f*(x, v) by definition of the transported solution, so
    D = f* - f* o (X - Vt, V) needs only the forward characteristics.  It
    is assembled by the profile's exact shifted-difference identities,
    X - Vt = x + (dX - t dV) and V = v + dV with tiny arguments, on each
    row block of the solve's certifying march (picard_solve's along),
    which the tangent pass at z = 0 rides too: one march, no stored table.
    """
    x, v, _ = _flat_labels(phase)
    delta = np.empty((len(tgrid), x.shape[0]))
    tangent = []                        # at z = 0: the pass's take, finish

    def along(E):
        if z == 0.0:
            tangent.extend(_tangent_pass(spec, E, params, phase, z))

        def take(n0, n1, dX, dV, phases):
            dx_arg = dX - tgrid.times[n0:n1, None] * dV
            np.negative(shifted_difference(spec, x[None, :], v[None, :],
                                           dx_arg, dV, z), out=delta[n0:n1])
            if tangent:
                tangent[0](n0, n1, dX, dV, phases)
        return take

    result = picard_solve(spec, params, z, tgrid, phase, along=along,
                          **solve_kw)
    taylor = tangent[1]() if tangent else None
    norm_e = result.checks["field_weighted"].value      # |E|_{a,t0}
    bound = 3.0 * sup_gradient(spec, z) * norm_e / params.a
    return result, delta, bound, taylor


def _portable(err: Exception) -> Exception:
    """err, or a RuntimeError naming its type if it does not survive a
    pickle round trip (a worker sends its failures to the parent)."""
    try:
        pickle.loads(pickle.dumps(err))
        return err
    except Exception:
        return RuntimeError(f"{type(err).__name__}: {err}")


def _send_all(outbox, conn) -> None:
    """Send each item of outbox until None, then close conn."""
    for item in iter(outbox.get, None):
        conn.send(item)
    conn.close()


def _in_node_order(ctx, solve, n: int):
    """solve(j) for the nodes j < n, yielded in node order; solve returns
    a failure as an exception instead of raising it, and the generator
    ends after the first failure it yields.

    The calling process and min(usable CPUs, n) - 1 workers forked from
    it (ctx, the fork context) claim the nodes in node order from one
    shared counter, and each claimant solves its own.  A worker hands its
    outcomes to a sender thread, so that it claims its next node while
    the parent is still busy with one of its own.  Once a node fails no
    process claims another.  A worker that dies leaves a
    ChildProcessError for each node it claimed and did not return.  Every
    worker is stopped and reaped when the generator ends, however it
    ends.
    """
    import queue
    import threading
    from multiprocessing.connection import wait

    next_node = ctx.Value("i", 0)
    owner = ctx.RawArray("i", n)        # the claimant of each node; 0: parent

    def claim(who):
        with next_node.get_lock():
            j = next_node.value
            if j >= n:
                return None
            next_node.value = j + 1
            owner[j] = who
            return j

    def stop():
        with next_node.get_lock():
            next_node.value = n

    def work(who, conn):
        outbox = queue.SimpleQueue()
        sender = threading.Thread(target=_send_all, args=(outbox, conn))
        sender.start()
        try:
            while (j := claim(who)) is not None:
                out = solve(j)
                if isinstance(out, Exception):
                    stop()
                    out = _portable(out)
                outbox.put((j, out))
                del out       # not alive during the next node's solve
        finally:
            outbox.put(None)
            sender.join()

    done, workers = {}, {}
    try:
        for who in range(1, min(len(os.sched_getaffinity(0)), n)):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=work, args=(who, send), daemon=True)
            proc.start()
            send.close()
            workers[recv] = who, proc
        for j in range(n):
            while j not in done:
                ready = wait(list(workers), timeout=0)
                if not ready and (k := claim(0)) is not None:
                    done[k] = solve(k)
                    if isinstance(done[k], Exception):
                        stop()
                    continue
                for conn in ready or wait(list(workers)):
                    try:
                        done.update([conn.recv()])
                    except EOFError:
                        who, proc = workers.pop(conn)
                        conn.close()
                        proc.join()
                        died = ChildProcessError(
                            f"worker process exited with code "
                            f"{proc.exitcode}")
                        for k in range(j, n):
                            if owner[k] == who and k not in done:
                                done[k] = died
            failed = isinstance(done[j], Exception)
            yield done.pop(j)
            if failed:
                return
    finally:
        stop()
        for conn, (_, proc) in workers.items():
            proc.terminate()
            proc.join()
            conn.close()


def run_collocation(spec: ProfileSpec, params: DampingParams,
                    tgrid: TimeGrid, phase: PhaseGrid, n_z: int = 9,
                    **solve_kw) -> ZEnsemble:
    """Deterministic solve at each of the n_z Gauss-Legendre nodes, with
    solve_kw passed on to picard_solve, and the tangent solve at the node
    z = 0; aborts naming the first failing node.

    The nodes are solved concurrently, one per usable CPU, with this
    process as one of the workers (_in_node_order).  Each process forms
    its node's corollary residual D(z_j) from its own solve, so each holds
    one node's tables at a time, and this process hands the residuals to
    _z_survey strictly in node order, with a progress line on stderr per
    node, so that every sum is formed in the same order on any CPU count.
    A residual that arrives ahead of its turn waits in this process.  The
    ensemble keeps only the reduced CorollaryReport and the K Taylor
    fields.
    """
    import multiprocessing      # not at the top: it would slow every CLI start

    nodes, weights = gauss_legendre_nodes(n_z)
    zs = [float(z) for z in nodes]
    results, bounds, taylor = [], [], []

    def solve(j):
        try:
            return _solve_node(spec, params, zs[j], tgrid, phase, solve_kw)
        except Exception as err:
            return err

    outcomes = _in_node_order(multiprocessing.get_context("fork"), solve,
                              n_z)

    def residuals():
        for j, z in enumerate(zs):
            out = next(outcomes)
            if isinstance(out, Exception):
                raise CollocationError(j, z, out) from out
            result, delta, bound, tay = out
            del out
            print(f"uq: node {j} (z = {z:.6g}) solved, {j + 1} of {n_z}",
                  file=sys.stderr, flush=True)
            results.append(result)
            bounds.append(bound)
            taylor.append(tay)
            yield delta
            del delta         # not alive during this process's next solve

    def norm(table):
        """|table|_{a,t0,1}: the weighted sup over t of the sup over nodes,
        formed one row block at a time."""
        sup = np.empty(len(tgrid))
        for n0, n1 in _row_blocks(*table.shape):
            sup[n0:n1] = np.abs(table[n0:n1]).max(axis=1)
        return weighted_sup(tgrid.times, sup, params.a, moment=1).value

    with contextlib.closing(outcomes):
        node_norms, sums, _ = _z_survey(nodes, params.K, residuals(), norm)
    ratios = tuple(n / bound if bound > 0 else (0.0 if n == 0.0 else math.inf)
                   for n, bound in zip(node_norms, bounds))
    corollary = CorollaryReport(node_norms=node_norms, node_ratios=ratios,
                                derivative_norms=tuple(map(norm, sums)))
    return ZEnsemble(nodes=tuple(zs),
                     weights=tuple(float(w) for w in weights),
                     results=tuple(results), corollary=corollary,
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
        """max |c_m| per mode; geometric decay estimates z-smoothness."""
        return np.abs(self.coefficients).reshape(self.n_modes, -1).max(axis=1)

    def decay_rate(self) -> float:
        """Least-squares slope of log10 |c_m| vs m over nonzero modes."""
        mags = self.mode_magnitudes()
        keep = mags > 0
        if keep.sum() < 2:
            return 0.0
        m = np.arange(self.n_modes, dtype=float)[keep]
        return float(np.polyfit(m, np.log10(mags[keep]), 1)[0])


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
    k <= k_max = min(K, n_nodes - 2), none for a single node, by row
    blocks (_row_blocks), and then dropped: the survey holds one node's
    table at a time and no temporary of that size.  Returns
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
        for n0, n1 in _row_blocks(*table.shape):
            for k in range(k_max + 1):
                sums[k][n0:n1] += rows[k, j] * table[n0:n1]
        del table
    scale = max(node_norms)
    floors = {k: scale * roundoff_floor(rows[k]) for k in range(1, k_max + 1)}
    return tuple(node_norms), sums, floors


def _field_norm(ensemble: ZEnsemble, values) -> float:
    """|values|_{a,t0} on the ensemble's grids."""
    return weighted_norm(ensemble.results[0].field.with_values(values),
                         ensemble.params.a).value


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
    _, fd, floors = _z_survey(ensemble.nodes, ensemble.params.K,
                              (r.field.values for r in ensemble.results),
                              lambda values: _field_norm(ensemble, values))
    checks = dict(ensemble.taylor.checks)
    for k in range(1, len(fd)):
        name = f"z_deriv_{k}_resolution"
        checks[name] = BoundCheck(
            name, _field_norm(ensemble, fd[k] - derivs[k]),
            _RESOLUTION_TOL * norms[k] + floors[k])
    return TheoremReport(norms=norms, floors=floors, checks=checks)


def check_corollary(ensemble: ZEnsemble) -> CorollaryReport:
    """The CorollaryReport run_collocation formed at each node for the
    profile it solved; nothing is solved again."""
    return ensemble.corollary
