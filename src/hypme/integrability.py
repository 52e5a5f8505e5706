"""Integrability functions: the non-decreasing weights phi and psi.

Four families are supported:

  - power(p):      t^p
  - exp_power(p):  exp(t^p)
  - poly_plus(q):  t^(1 + 1/q)
  - table(...):    monotone samples with generalized-inverse lookup

Each carries a positive rational scale delta, applied as phi_delta(t) =
phi(delta * t); the scale is what makes integrability independent of the
generating set for non-doubling families.  Evaluation is exact (Fraction)
whenever the family and arguments allow (power with integer exponent,
tables); otherwise certified upper/lower bounds at a fixed dyadic precision
are available.  The interval API gives certified rational intervals for
ln(phi(x)) and for the generalized inverse inv(y) = inf { t : phi(t) >= y },
with closed forms for the three parametric families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .errors import ParseError, PreconditionError
from .rational import FracInterval, format_fraction

_NUMERIC_PREC = 128


@dataclass(frozen=True)
class IntegrabilityFunction:
    family: str  # "power" | "exp_power" | "poly_plus" | "table"
    param: Fraction = Fraction(1)
    scale: Fraction = Fraction(1)  # the phi_delta mechanism
    table: tuple[tuple[Fraction, Fraction], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.scale <= 0:
            raise PreconditionError("scale must be positive")
        if self.family in ("power", "exp_power", "poly_plus"):
            if self.param <= 0:
                raise PreconditionError(f"{self.family} parameter must be positive")
        elif self.family == "table":
            if len(self.table) < 1:
                raise PreconditionError("table family needs at least one sample")
            for (t0, v0), (t1, v1) in zip(self.table, self.table[1:]):
                if t1 <= t0 or v1 < v0:
                    raise PreconditionError("table samples must be monotone")
        else:
            raise PreconditionError(f"unknown family {self.family!r}")

    # --- description --------------------------------------------------------

    def describe(self) -> str:
        if self.family == "table":
            base = f"table[{len(self.table)}]"
        else:
            base = f"{self.family}({format_fraction(self.param)})"
        if self.scale != 1:
            base += f"@scale={format_fraction(self.scale)}"
        return base

    # --- evaluation ----------------------------------------------------------

    def is_exact(self) -> bool:
        """True when eval_exact works on every rational argument."""
        if self.family == "table":
            return True
        return self.family == "power" and self.param.denominator == 1

    def eval_exact(self, t: Fraction) -> Fraction:
        """Exact value; raises when the family is not exactly evaluable."""
        if t < 0:
            raise PreconditionError("integrability functions take t >= 0")
        t = self.scale * t
        if self.family == "power" and self.param.denominator == 1:
            return t ** int(self.param)
        if self.family == "table":
            value = Fraction(0)
            for t0, v0 in self.table:
                if t >= t0:
                    value = v0
                else:
                    break
            return value
        raise PreconditionError(f"{self.describe()} has no exact rational values")

    def eval_bounds(self, t: Fraction, bits: int = 32) -> tuple[Fraction, Fraction]:
        """Certified rational lower/upper bounds on the value."""
        if self.is_exact():
            v = self.eval_exact(t)
            return v, v
        from mpmath import iv

        old = iv.prec
        iv.prec = _NUMERIC_PREC
        try:
            ts = (iv.mpf(self.scale.numerator) / iv.mpf(self.scale.denominator)) * (
                iv.mpf(t.numerator) / iv.mpf(t.denominator)
            )
            par = iv.mpf(self.param.numerator) / iv.mpf(self.param.denominator)
            if self.family == "power":
                val = ts**par
            elif self.family == "exp_power":
                val = iv.exp(ts**par)
            else:
                val = ts ** (1 + 1 / par)
            scale = 2**bits
            lo = Fraction(int(mpmath.floor(mpmath.mpf(val.a) * scale)), scale)
            hi = Fraction(int(mpmath.ceil(mpmath.mpf(val.b) * scale)), scale)
            return lo, hi
        finally:
            iv.prec = old

    # --- interval API -----------------------------------------------------------

    def ln_interval(self, x: FracInterval) -> FracInterval:
        """ln(phi(x)) as a certified interval, for x > 0."""
        xs = x * self.scale
        if self.family == "power":
            return xs.ln() * self.param
        if self.family == "exp_power":
            return xs.pow_rational(self.param)
        if self.family == "poly_plus":
            return xs.ln() * (1 + 1 / self.param)
        raise PreconditionError("table functions have no interval logarithm")

    def inverse_interval(self, y: Fraction) -> FracInterval:
        """Generalized inverse inf{t : phi(t) >= y} as a certified interval
        (scale folded in)."""
        if y <= 0:
            return FracInterval(0)
        yi = FracInterval(y)
        if self.family == "power":
            t = yi.pow_rational(1 / self.param)
        elif self.family == "poly_plus":
            t = yi.pow_rational(self.param / (1 + self.param))
        elif self.family == "exp_power":
            ly = yi.ln()
            if ly.hi <= 0:
                return FracInterval(0)
            hi_t = FracInterval(ly.hi).pow_rational(1 / self.param).hi
            lo_t = (
                FracInterval(ly.lo).pow_rational(1 / self.param).lo
                if ly.lo > 0
                else Fraction(0)
            )
            t = FracInterval(lo_t, hi_t)
        else:
            for t0, v0 in self.table:
                if v0 >= y:
                    return FracInterval(t0 / self.scale)
            raise PreconditionError("y exceeds the table range")
        return t / self.scale


def power(p, scale=Fraction(1)) -> IntegrabilityFunction:
    return IntegrabilityFunction("power", Fraction(p), Fraction(scale))


def exp_power(p, scale=Fraction(1)) -> IntegrabilityFunction:
    return IntegrabilityFunction("exp_power", Fraction(p), Fraction(scale))


def poly_plus(q, scale=Fraction(1)) -> IntegrabilityFunction:
    return IntegrabilityFunction("poly_plus", Fraction(q), Fraction(scale))


def table_function(samples, scale=Fraction(1)) -> IntegrabilityFunction:
    canon = tuple((Fraction(t), Fraction(v)) for t, v in samples)
    return IntegrabilityFunction("table", scale=Fraction(scale), table=canon)


def parse_function(spec: str) -> IntegrabilityFunction:
    """Parse "power:2", "exp_power:1", "poly_plus:3/2", optionally "@<scale>"."""
    spec = spec.strip()
    scale = Fraction(1)
    if "@" in spec:
        spec, scale_text = spec.split("@", 1)
        from .rational import parse_fraction

        scale = parse_fraction(scale_text)
    if ":" not in spec:
        raise ParseError(f"bad function spec {spec!r} (expected family:param)")
    family, param_text = spec.split(":", 1)
    from .rational import parse_fraction

    param = parse_fraction(param_text)
    if family not in ("power", "exp_power", "poly_plus"):
        raise ParseError(f"unknown function family {family!r}")
    return IntegrabilityFunction(family, param, scale)
