"""Model parameters, admissibility conditions, and exponential tail integrals.

The damping model is controlled by four numbers:

    a   exponential decay rate of the electric field, e^{-a t}
    a1  smoothness amplitude of the asymptotic profile (Fourier envelope)
    a2  velocity-decay amplitude of the asymptotic profile
    K   number of parameter derivatives the analysis is required to control

From these we derive the field-gradient constant

    C_E = 240 a1 a2 / a + 4 a1,

the contraction bound 88 a2 / (a^2 - 80 a2) of the field map, and the
earliest admissible start time t0.  Five inequalities (A1)-(A5)
must hold before any of the quantitative bounds downstream are meaningful;
`check_assumptions` evaluates them literally as BoundChecks.

The closed-form tail integrals

    tail_integral(a, t, k)        = int_t^inf s^k e^{-a s} ds
    tail_integral_moment(a, t, k) = int_t^inf (s - t) s^k e^{-a s} ds

are the workhorses of every trajectory estimate.  Both are evaluated by
all-positive-term expansions so no cancellation occurs for large t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class AdmissibilityError(ValueError):
    """Raised when a solve is attempted with parameters failing (A1)-(A5)."""


def _factorial(n: int) -> float:
    return float(math.factorial(n))


@dataclass(frozen=True)
class DampingParams:
    """Validated parameter bundle; C_E and the contraction bound are
    derived from it.  Construct through `derive_constants`."""

    a: float
    a1: float
    a2: float
    K: int
    t0: float

    def __post_init__(self):
        if not (self.a > 0 and self.a1 > 0 and self.a2 > 0):
            raise ValueError("a, a1, a2 must be positive")
        if self.K < 0 or int(self.K) != self.K:
            raise ValueError("K must be a nonnegative integer")
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")

    @property
    def C_E(self) -> float:
        """The field-gradient constant 240 a1 a2 / a + 4 a1."""
        return 240.0 * self.a1 * self.a2 / self.a + 4.0 * self.a1

    @property
    def contraction_bound(self) -> float:
        """88 a2 / (a^2 - 80 a2), the field map's Lipschitz estimate; (A1)
        keeps the denominator positive."""
        return 88.0 * self.a2 / (self.a ** 2 - 80.0 * self.a2)

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "a1": self.a1,
            "a2": self.a2,
            "K": int(self.K),
            "t0": self.t0,
            "C_E": self.C_E,
        }


def minimal_start_time(a: float, a1: float, K: int) -> float:
    """Smallest t0 admitted by condition (A2): max{2, 4K, log(8 a1)/a}.

    For 8 a1 <= 1 the logarithm is nonpositive and the floor of 2 rules.
    """
    if a <= 0 or a1 <= 0:
        raise ValueError("a and a1 must be positive")
    return max(2.0, 4.0 * K, math.log(8.0 * a1) / a)


def derive_constants(a: float, a1: float, a2: float, K: int,
                     t0: float | None = None) -> DampingParams:
    """Build a DampingParams with (optionally minimal) t0.

    When t0 is omitted, the minimal value allowed by (A2) is used.
    """
    if K < 0 or int(K) != K:
        raise ValueError("K must be a nonnegative integer")
    if t0 is None:
        t0 = minimal_start_time(a, a1, K)
    return DampingParams(a=a, a1=a1, a2=a2, K=int(K), t0=float(t0))


@dataclass(frozen=True)
class BoundCheck:
    """One named inequality value <= bound with its ratio.

    A NaN value fails: the comparison is false.
    """

    name: str
    value: float
    bound: float
    horizon_dominated: bool = False

    @property
    def ratio(self) -> float:
        if self.bound == 0.0:
            return 0.0 if self.value == 0.0 else math.inf
        return self.value / self.bound

    @property
    def passed(self) -> bool:
        return self.value <= self.bound

    def as_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "bound": self.bound,
                "ratio": self.ratio, "passed": self.passed,
                "horizon_dominated": self.horizon_dominated}


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the five-condition admissibility gate.

    `checks` maps A1..A5 to BoundChecks with value = lhs and bound = rhs
    of the inequalities listed in `check_assumptions`.
    `a3_implied_lhs` is the start-time form (50 C_E / a) t0^3 e^{-a t0},
    which the peak form of (A3) dominates because t^3 e^{-a t} is maximized
    at t = 3/a.  `a3_peak_before_t0` flags configurations with t0 < 3/a,
    where that peak lies inside the excluded early-time window; the implied
    inequality still holds but is then not tight at t0.
    """

    params: DampingParams
    checks: dict

    @property
    def a3_implied_lhs(self) -> float:
        p = self.params
        return (50.0 * p.C_E / p.a) * p.t0 ** 3 * math.exp(-p.a * p.t0)

    @property
    def a3_peak_before_t0(self) -> bool:
        return self.params.t0 < 3.0 / self.params.a

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(n for n, c in self.checks.items() if not c.passed)

    def as_dict(self) -> dict:
        """Everything but `checks` and their verdict, which callers write
        where they gather their checks."""
        return {
            "params": self.params.as_dict(),
            "a3_implied_lhs": self.a3_implied_lhs,
            "a3_peak_before_t0": self.a3_peak_before_t0,
            "failures": list(self.failures),
        }


def check_assumptions(params: DampingParams) -> AssumptionReport:
    """Evaluate the admissibility conditions (A1)-(A5) literally.

    A1:  a  >= max{1, 15 sqrt(a2)}
    A2:  t0 >= max{2, 4K, log(8 a1)/a}
    A3:  (50 C_E / a) (3/a)^3 e^{-3} <= 1
    A4:  8 e <= 1 / (20 a2)
    A5:  8 C_E <= a^2
    """
    a, a1, a2, k, t0 = params.a, params.a1, params.a2, params.K, params.t0
    c_e = params.C_E

    a1_floor = max(1.0, 15.0 * math.sqrt(a2))
    t0_floor = minimal_start_time(a, a1, k)
    a3_lhs = (50.0 * c_e / a) * (3.0 / a) ** 3 * math.exp(-3.0)
    a4_lhs = 8.0 * math.e
    a5_lhs = 8.0 * c_e

    checks = (
        BoundCheck("A1", a1_floor, a),
        BoundCheck("A2", t0_floor, t0),
        BoundCheck("A3", a3_lhs, 1.0),
        BoundCheck("A4", a4_lhs, 1.0 / (20.0 * a2)),
        BoundCheck("A5", a5_lhs, a * a),
    )
    return AssumptionReport(params=params,
                            checks={c.name: c for c in checks})


def require_admissible(params: DampingParams) -> AssumptionReport:
    """Gate helper: return the report, raising AdmissibilityError on failure."""
    report = check_assumptions(params)
    if not report.passed:
        raise AdmissibilityError(
            "admissibility gate failed: " + ", ".join(report.failures))
    return report


# ---------------------------------------------------------------------------
# Exponential tail integrals
# ---------------------------------------------------------------------------

def tail_integral(a: float, t: float, k: int) -> float:
    """int_t^inf s^k e^{-a s} ds, closed form.

    Equals e^{-a t} * sum_{j=0}^{k} (k! / (j! a^{k-j+1})) t^j.  Every term
    is nonnegative for t >= 0, so the evaluation is cancellation-free.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if k < 0 or int(k) != k:
        raise ValueError("k must be a nonnegative integer")
    if t < 0:
        raise ValueError("t must be nonnegative")
    k = int(k)
    kfact = _factorial(k)
    total = 0.0
    tj = 1.0
    for j in range(k + 1):
        total += kfact / (_factorial(j) * a ** (k - j + 1)) * tj
        tj *= t
    return math.exp(-a * t) * total


def tail_integral_moment(a: float, t: float, k: int) -> float:
    """int_t^inf (s - t) s^k e^{-a s} ds, closed form.

    Expanding and integrating by parts gives

        e^{-a t} [ (k+1)!/a^{k+2}
                   + t * sum_{j=0}^{k-1} (k! (k-j) / (j+1)!) t^j / a^{k-j+1} ].

    All terms are nonnegative; the naive difference
    tail_integral(a,t,k+1) - t*tail_integral(a,t,k) loses leading digits
    for a t >> 1 and is used only as a test oracle.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if k < 0 or int(k) != k:
        raise ValueError("k must be a nonnegative integer")
    if t < 0:
        raise ValueError("t must be nonnegative")
    k = int(k)
    total = _factorial(k + 1) / a ** (k + 2)
    kfact = _factorial(k)
    tj = t  # t^{j+1} for j starting at 0
    for j in range(k):
        total += kfact * (k - j) / _factorial(j + 1) / a ** (k - j + 1) * tj
        tj *= t
    return math.exp(-a * t) * total
