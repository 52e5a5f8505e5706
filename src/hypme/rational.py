"""Exact rationals and certified transcendental bounds.

All quantities that enter a verdict are either exact ``Fraction`` values or
certified rational brackets of transcendental functions, `FracInterval(x)`
`.ln()` and `.pow_rational(e)` and `log2_upper`, whose ends are multiples
of 2**-32 computed in integers by `brackets`.  exp is taken only for the
exp_power weight, by `brackets.exp_pow` through `integrability`.  So a bracket
contains the true value, and a verdict read from one end (`.lo` or `.hi`)
stays conservative: an upper end can only enlarge a bound, never shrink it.
"""

from __future__ import annotations

from fractions import Fraction

from . import brackets
from .errors import ParseError


def format_fraction(x: Fraction | int) -> str:
    """Serialize a rational as the canonical "p/q" string."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(s: str) -> Fraction:
    """Parse "p/q" or a plain integer/decimal string into a Fraction.

    Anything else, a zero denominator included, raises ParseError.
    """
    s = s.strip()
    try:
        if "/" in s:
            p, q = s.split("/", 1)
            return Fraction(int(p), int(q))
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{s!r} is not a fraction (expected p/q, an integer or a decimal)") from None


def matrix_rank(rows) -> int:
    """Rank over the rationals of an integer or rational matrix, by exact
    Fraction row reduction."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / top[col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def exact_log2(x: Fraction) -> Fraction | None:
    """Exact log2(x) when x is a (possibly negative) power of two, else None."""
    if x <= 0:
        raise ValueError("log2 requires a positive argument")
    p, q = x.numerator, x.denominator
    if p & (p - 1) == 0 and q & (q - 1) == 0:  # both powers of two
        return Fraction(p.bit_length() - q.bit_length())
    return None


def exact_root(x: Fraction, n: int) -> Fraction | None:
    """The rational n-th root of x >= 0 when there is one, else None."""
    ks = (x.numerator, x.denominator)
    roots = ks if n == 1 else [brackets.iroot(k, n) for k in ks]  # exact weights run no bracket code
    if any(r**n != k for r, k in zip(roots, ks)):
        return None
    return Fraction(*roots)


def log2_upper(x: Fraction) -> Fraction:
    """Rational upper bound on log2(x), exact for powers of two.

    Non-exact results are rounded up to a multiple of 2**-32.
    """
    exact = exact_log2(x)
    return exact if exact is not None else brackets.log2(x)[1]


def _ends(f, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """The lower end of f(lo) and the upper end of f(hi), f increasing."""
    at_lo = f(lo)
    return at_lo[0], (at_lo if hi == lo else f(hi))[1]


class FracInterval:
    """Closed rational interval [lo, hi]; arithmetic restricted to what the
    condition checkers need (positive operands for mul/div/ln/pow)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if self.lo > self.hi:
            raise ValueError("interval bounds out of order")

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"

    def __iter__(self):
        return iter((self.lo, self.hi))

    def __eq__(self, other):
        if not isinstance(other, (FracInterval, Fraction, int)):
            return NotImplemented
        return tuple(self) == tuple(_as_interval(other))

    def __add__(self, other):
        other = _as_interval(other)
        return FracInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_interval(other)
        return FracInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other):
        other = _as_interval(other)
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return FracInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_interval(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval division through zero")
        quotients = [
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        ]
        return FracInterval(min(quotients), max(quotients))

    def __rtruediv__(self, other):
        return _as_interval(other) / self

    def ln(self) -> "FracInterval":
        if self.lo <= 0:
            raise ValueError("ln requires a positive interval")
        return FracInterval(*_ends(brackets.ln, self.lo, self.hi))

    def pow_rational(self, e: Fraction) -> "FracInterval":
        """x^e for positive x and e > 0; exact for integer e and for a point x
        whose power is rational, else each end rounded outward to the grid."""
        e = Fraction(e)
        if e <= 0:
            raise ValueError(f"pow_rational needs a positive exponent, got {e}")
        if e.denominator == 1:
            return FracInterval(self.lo**e.numerator, self.hi**e.numerator)
        if self.lo <= 0:
            raise ValueError("fractional powers need a positive interval")
        if self.lo == self.hi and (root := exact_root(self.lo, e.denominator)) is not None:
            return FracInterval(root**e.numerator)
        return FracInterval(*_ends(lambda x: brackets.power(x, e), self.lo, self.hi))

    def midpoint_float(self) -> float:
        return float((self.lo + self.hi) / 2)


def _as_interval(x) -> FracInterval:
    if isinstance(x, FracInterval):
        return x
    return FracInterval(Fraction(x))


def lower(x: Fraction | FracInterval) -> Fraction:
    """The lower end of a bracket; an exact value is its own lower end."""
    return x.lo if isinstance(x, FracInterval) else x


def upper(x: Fraction | FracInterval) -> Fraction:
    """The upper end of a bracket; an exact value is its own upper end."""
    return x.hi if isinstance(x, FracInterval) else x
