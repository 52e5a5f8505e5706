"""Exact rationals and certified transcendental bounds.

All quantities that enter a verdict are either exact ``Fraction`` values or
directed (upper/lower) rational roundings of transcendental functions,
computed with mpmath interval arithmetic at a fixed dyadic precision.
Directed rounding keeps every "consistent" verdict conservative: an upper
rounding can only enlarge a bound, never shrink it.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import iv

from .errors import ParseError

# Dyadic precision of rounded logarithms: results are multiples of 2**-32.
LOG_PRECISION_BITS = 32


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


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def exact_log2(x: Fraction) -> Fraction | None:
    """Exact log2(x) when x is a (possibly negative) power of two, else None."""
    if x <= 0:
        raise ValueError("log2 requires a positive argument")
    p, q = x.numerator, x.denominator
    if _is_power_of_two(p) and _is_power_of_two(q):
        return Fraction(p.bit_length() - q.bit_length())
    return None


def _iv_context_bits(*values: Fraction) -> int:
    bits = 0
    for v in values:
        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits + LOG_PRECISION_BITS + 64


def _iv_fraction(x: Fraction):
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def _round_up(value_upper, bits: int) -> Fraction:
    return Fraction(int(mpmath.ceil(mpmath.mpf(value_upper) * 2**bits)), 2**bits)


def _round_down(value_lower, bits: int) -> Fraction:
    return Fraction(int(mpmath.floor(mpmath.mpf(value_lower) * 2**bits)), 2**bits)


def log2_upper(x: Fraction, bits: int = LOG_PRECISION_BITS) -> Fraction:
    """Rational upper bound on log2(x), exact for powers of two.

    Non-exact results are rounded up to a multiple of 2**-bits.
    """
    exact = exact_log2(x)
    if exact is not None:
        return exact
    old = iv.prec
    iv.prec = _iv_context_bits(x)
    try:
        val = iv.log(_iv_fraction(x)) / iv.log(2)
        return _round_up(val.b, bits)
    finally:
        iv.prec = old


def ln_upper(x: Fraction, bits: int = LOG_PRECISION_BITS) -> Fraction:
    """Rational upper bound on ln(x)."""
    if x <= 0:
        raise ValueError("ln requires a positive argument")
    if x == 1:
        return Fraction(0)
    old = iv.prec
    iv.prec = _iv_context_bits(x)
    try:
        return _round_up(iv.log(_iv_fraction(x)).b, bits)
    finally:
        iv.prec = old


def ln_lower(x: Fraction, bits: int = LOG_PRECISION_BITS) -> Fraction:
    """Rational lower bound on ln(x)."""
    if x <= 0:
        raise ValueError("ln requires a positive argument")
    if x == 1:
        return Fraction(0)
    old = iv.prec
    iv.prec = _iv_context_bits(x)
    try:
        return _round_down(iv.log(_iv_fraction(x)).a, bits)
    finally:
        iv.prec = old


def ln_bounds(x: Fraction, bits: int = LOG_PRECISION_BITS) -> tuple[Fraction, Fraction]:
    return ln_lower(x, bits), ln_upper(x, bits)


def exp_bounds(x: Fraction, bits: int = LOG_PRECISION_BITS) -> tuple[Fraction, Fraction]:
    """Certified rational bounds on exp(x)."""
    if x == 0:
        return Fraction(1), Fraction(1)
    old = iv.prec
    iv.prec = _iv_context_bits(x) + max(0, int(abs(x)) * 2)
    try:
        val = iv.exp(_iv_fraction(x))
        return _round_down(val.a, bits), _round_up(val.b, bits)
    finally:
        iv.prec = old


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

    def ln(self, bits: int = LOG_PRECISION_BITS) -> "FracInterval":
        if self.lo <= 0:
            raise ValueError("ln requires a positive interval")
        return FracInterval(ln_lower(self.lo, bits), ln_upper(self.hi, bits))

    def exp(self, bits: int = LOG_PRECISION_BITS) -> "FracInterval":
        return FracInterval(exp_bounds(self.lo, bits)[0], exp_bounds(self.hi, bits)[1])

    def pow_rational(self, e: Fraction) -> "FracInterval":
        """x^e for positive x; exact for integer e, else via exp(e ln x)."""
        e = Fraction(e)
        if e == 0:
            return FracInterval(1)
        if e.denominator == 1:
            k = int(e)
            if k > 0:
                return FracInterval(self.lo**k, self.hi**k)
            return FracInterval(1) / self.pow_rational(-e)
        if self.lo <= 0:
            raise ValueError("fractional powers need a positive interval")
        return (self.ln() * e).exp()

    def definitely_less(self, other) -> bool:
        other = _as_interval(other)
        return self.hi < other.lo

    def definitely_at_least(self, other) -> bool:
        other = _as_interval(other)
        return self.lo >= other.hi

    def midpoint_float(self) -> float:
        return float((self.lo + self.hi) / 2)


def _as_interval(x) -> FracInterval:
    if isinstance(x, FracInterval):
        return x
    return FracInterval(Fraction(x))
