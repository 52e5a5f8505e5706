"""Theorem-level calculators: integrability thresholds and growth schedules.

Three ingredients decide whether a coupling's quantitative data can force
hyperbolicity across the coupling:

  - the critical exponent 2 + c * entropy (`critical_exponent`), with
    c = 108 * delta in the threshold and c the log schedule's coefficient in
    condition (5);
  - the vanishing condition: n^2 r(n) Vol(r(n)) / phi(n/r(n)) -> 0;
  - the schedule conditions r(n)/18 >= 4(delta+1)log2(n) + 3 psi^-1(3Ln)
    (with a psi-integral bound L) and r(n)/18 >= 6(delta+1)log(n) (the
    bounded-cocycle variant).

Numeric evaluation runs in certified rational interval arithmetic so that
verdicts near boundaries come out "inconclusive" rather than wrong.  Every
weight is a power law t^p or exp(t^p) in its `exponent` p, so with
r = c log n or n^e condition (5) always gets an analytic verdict, from the
growth a group derives from its growth series: its class, polynomial degree
and certified entropy bracket.  Condition (6) falls back to the samples for
an exp_power psi under a log schedule.  Ratios span hundreds of orders of
magnitude, so sampled values are reported as natural logarithms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import Budget, PreconditionError
from .groups import Growth, MarkedGroup
from .rational import FracInterval, format_fraction

if TYPE_CHECKING:
    from .integrability import IntegrabilityFunction


@functools.cache
def ln2() -> FracInterval:
    """Certified bracket of ln 2, computed on first use."""
    return FracInterval(2).ln()


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class Schedule:
    """Non-decreasing unbounded schedule r(n): c*log(n) or n^e."""

    family: str  # "log" | "pow"
    coefficient: Fraction = Fraction(1)
    exponent: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if self.family == "log":
            if self.coefficient <= 0:
                raise PreconditionError("log schedule needs a positive coefficient")
        elif self.family == "pow":
            if not (0 < self.exponent <= 1):
                raise PreconditionError("power schedule needs exponent in (0, 1]")
        else:
            raise PreconditionError(f"unknown schedule family {self.family!r}")

    def value(self, n: int) -> FracInterval:
        if n < 2:
            raise PreconditionError("schedules are evaluated at n >= 2")
        x = FracInterval(Fraction(n))
        if self.family == "log":
            return x.ln() * self.coefficient
        return x.pow_rational(self.exponent)

    def describe(self) -> str:
        if self.family == "log":
            return f"{format_fraction(self.coefficient)}*log(n)"
        return f"n^({format_fraction(self.exponent)})"


def corollary_schedules(kind: str, **params) -> Schedule:
    """The schedules the two threshold corollaries use.

    kind "lp":  r(n) = 108 * delta * log(n), for delta > 0.
    kind "exp": r(n) = n^(eta/(1+eta)), requiring p > eta > q > 0.
    """
    if kind == "lp":
        delta = Fraction(params["delta"])
        if delta <= 0:
            raise PreconditionError("lp schedule requires delta > 0")
        return Schedule("log", coefficient=108 * delta)
    if kind == "exp":
        eta = Fraction(params["eta"])
        p = Fraction(params["p"]) if "p" in params else None
        q = Fraction(params["q"]) if "q" in params else None
        if eta <= 0:
            raise PreconditionError("exp schedule requires eta > 0")
        if p is not None and not (p > eta):
            raise PreconditionError("exp schedule requires p > eta")
        if q is not None and not (eta > q > 0):
            raise PreconditionError("exp schedule requires eta > q > 0")
        return Schedule("pow", exponent=eta / (1 + eta))
    raise PreconditionError(f"unknown schedule kind {kind!r}")


# ---------------------------------------------------------------------------
# threshold


@dataclass(frozen=True)
class ThresholdReport:
    delta: Fraction
    entropy: Fraction
    p_threshold: Fraction
    provenance: dict


def critical_exponent(c: Fraction, h: Fraction | FracInterval) -> Fraction | FracInterval:
    """2 + c h: exact for an exact entropy h, a bracket for a bracket."""
    return 2 + c * h


def threshold_p(delta: Fraction, entropy: Fraction, provenance: dict | None = None) -> ThresholdReport:
    """The critical integrability exponent 108*delta*entropy + 2."""
    delta = Fraction(delta)
    entropy = Fraction(entropy)
    if delta < 0 or entropy < 0:
        raise PreconditionError("delta and entropy must be >= 0")
    return ThresholdReport(
        delta=delta,
        entropy=entropy,
        p_threshold=critical_exponent(108 * delta, entropy),
        provenance=provenance or {},
    )


# ---------------------------------------------------------------------------
# conditions


@dataclass(frozen=True)
class RigidityConditions:
    delta: Fraction
    L: Fraction
    phi: IntegrabilityFunction
    psi: IntegrabilityFunction
    r: Schedule
    n_min: int = 2
    n_max: int = 10**6

    def __post_init__(self):
        if self.delta < 0:
            raise PreconditionError("delta must be >= 0")
        if self.L < 1:
            raise PreconditionError("L must be >= 1")
        if self.n_min < 2 or self.n_max < self.n_min:
            raise PreconditionError("need 2 <= n_min <= n_max")


# points of the geometric part of a condition's sample grid
SAMPLE_POINTS = 40


def _sample_grid(n_min: int, n_max: int) -> list[int]:
    """Geometric grid of SAMPLE_POINTS points, plus both endpoints and decades."""
    out = {n_min, n_max}
    for k in range(1, 19):
        if n_min <= 10**k <= n_max:
            out.add(10**k)
    if n_max > n_min:
        ratio = (n_max / n_min) ** (1.0 / (SAMPLE_POINTS - 1))
        x = float(n_min)
        for _ in range(SAMPLE_POINTS):
            out.add(min(n_max, max(n_min, round(x))))
            x *= ratio
    return sorted(out)


@dataclass(frozen=True)
class ConditionReport:
    condition: str  # "(5)" | "(6)" | "(7)"
    name: str
    verdict: str  # "tends_to_zero" | "fails" | "holds_eventually" | "inconclusive"
    analytic: bool
    n0: int | None = field(metadata={"key": "N0"})
    samples: list
    notes: dict = field(metadata={"inline": True})


def _onset(grid: list[int], holds: list) -> int | None:
    """The first grid point whose flag and every later one are True, or None;
    holds[i] is the flag of grid[i], and `holds` may stop short of the grid."""
    n0 = None
    for n, flag in zip(grid, holds):
        if flag is not True:
            n0 = None
        elif n0 is None:
            n0 = n
    return n0


def _analytic_condition_5(
    phi: IntegrabilityFunction, r: Schedule, growth: Growth
) -> tuple[str, dict]:
    """Limit verdicts for the vanishing ratio; phi is the power law t^p or,
    for exp_power, exp(t^p), with p = phi.exponent."""
    p = phi.exponent
    if phi.family == "exp_power":
        if r.family == "log":
            return "tends_to_zero", {"reason": "stretched-exponential denominator"}
        e = r.exponent
        if growth.kind != "exponential":
            return "tends_to_zero", {}
        lhs = p * (1 - e)
        if lhs > e:
            return "tends_to_zero", {}
        if lhs < e:
            return "fails", {}
        return "inconclusive", {"reason": "exponent tie; coefficient comparison omitted"}
    if r.family == "log":
        crit = critical_exponent(r.coefficient, growth.entropy)
        if p > crit.hi:
            return "tends_to_zero", {"critical_exponent": crit}
        if p <= crit.lo:
            return "fails", {"critical_exponent": crit}
        return "inconclusive", {"reason": "p within rounding of the critical exponent"}
    # r = n^e
    if growth.kind == "exponential":
        return "fails", {"reason": "exponential growth beats any power of n"}
    e = r.exponent
    lhs = p * (1 - e)
    rhs = 2 + e + e * growth.degree
    if lhs > rhs:
        return "tends_to_zero", {}
    return "fails", {}


def check_condition_5(
    rc: RigidityConditions, group: MarkedGroup, budget: Budget | None = None
) -> ConditionReport:
    """The vanishing condition: n^2 r(n) Vol(r(n)) / phi(n/r(n)) -> 0.

    Vol and the growth behind the analytic verdict come from the group's
    growth series.  Sampled log-ratios are certified intervals; N0 is the
    first sampled n from which the ratio strictly decreases through n_max.
    Vol at the non-integer r(n) is taken at the (conservative) ceiling.
    Every volume up to the largest such radius is expanded, and charged to
    `budget` in 64-bit words, before the first sample.
    """
    grid = _sample_grid(rc.n_min, rc.n_max)
    schedule = [(n, rc.r.value(n)) for n in grid]
    top = max(math.ceil(rn.hi) for _, rn in schedule)
    by = f"condition (5): Vol up to radius {top}, for --n-max {rc.n_max},"
    group.volume(top, budget or Budget(), by=by)
    log_ratios: list[FracInterval] = []
    samples = []
    schedule_exceeds_n = []
    for n, rn in schedule:
        radius = math.ceil(rn.hi)
        if rn.lo > n:
            schedule_exceeds_n.append(n)
        vol = group.volume(radius)
        ln_num = (
            FracInterval(Fraction(n)).ln() * 2
            + rn.ln()
            + FracInterval(vol).ln()
        )
        ln_den = rc.phi.ln_interval(FracInterval(Fraction(n)) / rn)
        lr = ln_num - ln_den
        log_ratios.append(lr)
        samples.append({"n": n, "log_ratio": lr.midpoint_float()})
    n0 = _onset(grid, [b.hi < a.lo for a, b in zip(log_ratios, log_ratios[1:])])
    verdict, notes = _analytic_condition_5(rc.phi, rc.r, group.growth)
    if schedule_exceeds_n:
        notes["r_exceeds_n_at"] = schedule_exceeds_n[:5]
    return ConditionReport(
        condition="(5)",
        name="vanishing_ratio",
        verdict=verdict,
        analytic=True,
        n0=n0,
        samples=samples,
        notes={"phi": rc.phi.describe(), "r": rc.r.describe(), **notes},
    )


def _analytic_condition_6(rc: RigidityConditions) -> tuple[str, dict] | None:
    psi, r = rc.psi, rc.r
    if psi.family != "exp_power":
        if r.family == "log":
            return "fails", {"reason": "polynomial psi inverse beats a log schedule"}
        inv_exp = 1 / psi.exponent
        notes = {"r_exponent": r.exponent, "psi_inverse_exponent": inv_exp}
        return ("holds_eventually" if r.exponent > inv_exp else "fails"), notes
    if r.family == "pow":
        return "holds_eventually", {"reason": "psi inverse grows logarithmically"}
    return None


def _analytic_condition_7(rc: RigidityConditions) -> tuple[str, dict]:
    if rc.r.family == "pow":
        return "holds_eventually", {"reason": "power schedule beats log"}
    return ("holds_eventually" if rc.r.coefficient / 18 >= 6 * (rc.delta + 1) else "fails"), {}


def check_condition_6_7(rc: RigidityConditions, mode: str) -> ConditionReport:
    """Schedule conditions.

    mode "thm41": r(n)/18 >= 4(delta+1) log2(n) + 3 psi^-1(3 L n)   -- "(6)"
    mode "thm42": r(n)/18 >= 6(delta+1) log(n)                      -- "(7)"

    Reports the smallest sampled n from which the inequality holds through
    n_max, plus an analytic verdict for the closed families.
    """
    if mode not in ("thm41", "thm42"):
        raise PreconditionError("mode must be 'thm41' or 'thm42'")
    grid = _sample_grid(rc.n_min, rc.n_max)
    holds_flags = []
    samples = []
    for n in grid:
        lhs = rc.r.value(n) / 18
        ln_n = FracInterval(Fraction(n)).ln()
        if mode == "thm41":
            rhs = (ln_n / ln2()) * (4 * (rc.delta + 1)) + (
                rc.psi.inverse_interval(3 * rc.L * n) * 3
            )
        else:
            rhs = ln_n * (6 * (rc.delta + 1))
        flag = True if lhs.lo >= rhs.hi else False if lhs.hi < rhs.lo else None
        holds_flags.append(flag)
        samples.append(
            {"n": n, "lhs": lhs.midpoint_float(), "rhs": rhs.midpoint_float(), "holds": flag}
        )
    n0 = _onset(grid, holds_flags)
    analytic = _analytic_condition_6(rc) if mode == "thm41" else _analytic_condition_7(rc)
    if analytic is not None:
        verdict, notes = analytic
    elif n0 is not None:
        verdict, notes = "holds_eventually", {"empirical": f"holds on sampled n >= {n0}"}
    elif holds_flags and holds_flags[-1] is False:
        verdict, notes = "fails", {"empirical": "fails at n_max"}
    else:
        verdict, notes = "inconclusive", {}
    return ConditionReport(
        condition="(6)" if mode == "thm41" else "(7)",
        name="schedule_vs_inverse" if mode == "thm41" else "schedule_vs_log",
        verdict=verdict,
        analytic=analytic is not None,
        n0=n0,
        samples=samples,
        notes={
            "r": rc.r.describe(),
            "psi": rc.psi.describe(),
            "delta": rc.delta,
            "L": rc.L,
            **notes,
        },
    )
