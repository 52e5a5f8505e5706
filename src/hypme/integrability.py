"""Integrability functions: the non-decreasing weights phi and psi.

Three families are supported:

  - power(p):      t^p
  - exp_power(p):  exp(t^p)
  - poly_plus(q):  t^(1 + 1/q)

Each carries a positive rational scale delta, applied as phi_delta(t) =
phi(delta * t); the scale is what makes integrability independent of the
generating set for non-doubling families.  `value(t)` is the one way to
evaluate: power with an integer exponent is the exact family and gives an
exact Fraction; every other family gives a certified FracInterval from
`brackets.power` or `brackets.exp_pow`, whose ends are multiples of 2**-32,
charging an exp_power bracket's working bits (538k for exp(373248)) to the
Budget first.  Callers do plain FracInterval arithmetic, which accepts
either.  The interval API gives certified rational intervals for ln(phi(x))
and for the generalized inverse inv(y) = inf { t : phi(t) >= y }, with
closed forms for all three families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import brackets
from .errors import Budget, ParseError, PreconditionError
from .rational import FracInterval, exact_root, format_fraction, parse_fraction


@dataclass(frozen=True)
class IntegrabilityFunction:
    family: str  # "power" | "exp_power" | "poly_plus"
    param: Fraction = Fraction(1)
    scale: Fraction = Fraction(1)  # the phi_delta mechanism

    def __post_init__(self):
        if self.scale <= 0:
            raise PreconditionError("scale must be positive")
        if self.family not in ("power", "exp_power", "poly_plus"):
            raise PreconditionError(f"unknown family {self.family!r}")
        if self.param <= 0:
            raise PreconditionError(f"{self.family} parameter must be positive")

    # --- description --------------------------------------------------------

    def describe(self) -> str:
        base = f"{self.family}({format_fraction(self.param)})"
        if self.scale != 1:
            base += f"@scale={format_fraction(self.scale)}"
        return base

    # --- evaluation ----------------------------------------------------------

    @property
    def exponent(self) -> Fraction:
        """The power of t: p for power, 1 + 1/q for poly_plus, and the inner
        p of exp(t^p) for exp_power.  Every family is a power law in this
        exponent, or the exponential of one."""
        return 1 + 1 / self.param if self.family == "poly_plus" else self.param

    @property
    def exact(self) -> bool:
        """True when `value` gives exact Fractions: power with an integer exponent."""
        return self.family == "power" and self.param.denominator == 1

    def value(self, t: Fraction, budget: Budget | None = None) -> Fraction | FracInterval:
        """phi(t): an exact Fraction for the exact family, else a certified
        FracInterval on the 2**-32 grid.  An exp_power bracket first charges
        its working bits to `budget`."""
        if t < 0:
            raise PreconditionError("integrability functions take t >= 0")
        x, e = self.scale * t, self.exponent
        root = exact_root(x, e.denominator)
        if root is not None:  # x^e is rational: take it exactly
            x, e = root**e.numerator, Fraction(1)
        if self.exact:
            return x
        if self.family != "exp_power":
            return FracInterval(*brackets.power(x, e))
        if budget is not None:
            budget.charge("bracket bits", brackets.exp_pow_bits(x, e), by="an exp bracket")
        return FracInterval(*brackets.exp_pow(x, e))

    # --- interval API -----------------------------------------------------------

    def ln_interval(self, x: FracInterval) -> FracInterval:
        """ln(phi(x)) as a certified interval, for x > 0."""
        xs = x * self.scale
        if self.family == "exp_power":
            return xs.pow_rational(self.exponent)
        return xs.ln() * self.exponent

    def inverse_interval(self, y: Fraction) -> FracInterval:
        """Generalized inverse inf{t : phi(t) >= y} as a certified interval
        (scale folded in)."""
        if y <= 0:
            return FracInterval(0)
        yi, inv = FracInterval(y), 1 / self.exponent
        if self.family != "exp_power":
            t = yi.pow_rational(inv)
        else:
            ly = yi.ln()
            if ly.hi <= 0:
                return FracInterval(0)
            hi_t = FracInterval(ly.hi).pow_rational(inv).hi
            lo_t = FracInterval(ly.lo).pow_rational(inv).lo if ly.lo > 0 else Fraction(0)
            t = FracInterval(lo_t, hi_t)
        return t / self.scale


def power(p, scale=Fraction(1)) -> IntegrabilityFunction:
    return IntegrabilityFunction("power", Fraction(p), Fraction(scale))


def exp_power(p, scale=Fraction(1)) -> IntegrabilityFunction:
    return IntegrabilityFunction("exp_power", Fraction(p), Fraction(scale))


def poly_plus(q, scale=Fraction(1)) -> IntegrabilityFunction:
    return IntegrabilityFunction("poly_plus", Fraction(q), Fraction(scale))


def parse_function(spec: str) -> IntegrabilityFunction:
    """Parse "power:2", "exp_power:1", "poly_plus:3/2", optionally "@<scale>"."""
    spec = spec.strip()
    scale = Fraction(1)
    if "@" in spec:
        spec, scale_text = spec.split("@", 1)
        scale = parse_fraction(scale_text)
    if ":" not in spec:
        raise ParseError(f"bad function spec {spec!r} (expected family:param)")
    family, param_text = spec.split(":", 1)
    param = parse_fraction(param_text)
    if family not in ("power", "exp_power", "poly_plus"):
        raise ParseError(f"unknown function family {family!r}")
    return IntegrabilityFunction(family, param, scale)
