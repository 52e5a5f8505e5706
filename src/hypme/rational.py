"""Exact rationals and certified transcendental bounds.

All quantities that enter a verdict are either exact ``Fraction`` values or
certified rational brackets of transcendental functions.  Every bracket comes
from one function, `outward`: it evaluates an mpmath interval expression at a
working precision of at least MIN_PRECISION_BITS bits, converts the endpoints
of the result to Fractions exactly (never through a 53-bit float or mpf), and
rounds them outward to multiples of 2**-32.  So a bracket contains the true
value, and a verdict read from one end stays conservative: an upper end can
only enlarge a bound, never shrink it.

The certified brackets of ln and exp are `FracInterval(x).ln()` and
`.exp()`; a caller that needs one end of a bracket reads its `.lo` or `.hi`.
`pow_rational` brackets a fractional power and `log2_upper` bounds log2 from
above.  All of them call `outward`, which is the only code in hypme that
imports mpmath, and it does so on its first call, so a run that needs no
certified bracket never loads it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import ParseError

# Dyadic precision of certified brackets: their ends are multiples of 2**-32.
LOG_PRECISION_BITS = 32
# Least working precision of an interval evaluation, in bits.
MIN_PRECISION_BITS = 128


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
    if x == 0:
        return x
    roots = []
    for k in (x.numerator, x.denominator):
        r = 1 << -(-k.bit_length() // n)  # at least the root; Newton descends to it
        while (s := ((n - 1) * r + k // r ** (n - 1)) // n) < r:
            r = s
        if r**n != k:
            return None
        roots.append(r)
    return Fraction(*roots)


@functools.cache
def _mpmath():
    """mpmath's interval context and its exact converters, imported once."""
    from mpmath import iv, libmp

    return iv, libmp


def outward(fn, *args, extra_bits: int = 0) -> "FracInterval":
    """Certified bracket of fn(iv, *args), rounded outward to multiples of
    2**-LOG_PRECISION_BITS.

    `iv` is mpmath's interval context, for example
    `outward(lambda iv, y: iv.log(y), x)`.  Each argument, a Fraction or a
    FracInterval, enters it as the narrowest interval of the working
    precision that contains it, and `fn` maps those intervals to an mpmath
    interval.  The working precision is MIN_PRECISION_BITS, or more for long
    arguments, plus `extra_bits`.  The result's endpoints are converted to
    Fractions exactly.
    """
    iv, libmp = _mpmath()
    xs = [_as_interval(a) for a in args]
    size = max((k.bit_length() for x in xs for e in x for k in e.as_integer_ratio()), default=0)
    prec = max(MIN_PRECISION_BITS, size + LOG_PRECISION_BITS + 64) + extra_bits
    old = iv.prec
    iv.prec = prec
    try:
        value = fn(iv, *(
            iv.make_mpf((
                libmp.from_rational(*x.lo.as_integer_ratio(), prec, libmp.round_floor),
                libmp.from_rational(*x.hi.as_integer_ratio(), prec, libmp.round_ceiling),
            ))
            for x in xs
        ))
        lo, hi = (Fraction(*libmp.to_rational(end)) for end in value._mpi_)
    finally:
        iv.prec = old
    scale = 2**LOG_PRECISION_BITS
    return FracInterval(Fraction(math.floor(lo * scale), scale), Fraction(math.ceil(hi * scale), scale))


def exp_extra_bits(v) -> int:
    """Working bits, beyond outward's, that keep a bracket of exp(x) for
    |x| <= v grid-tight: exp(v) has about v*log2(e) integer bits."""
    return max(0, math.ceil(v * math.log2(math.e)))


def log2_upper(x: Fraction) -> Fraction:
    """Rational upper bound on log2(x), exact for powers of two.

    Non-exact results are rounded up to a multiple of 2**-LOG_PRECISION_BITS.
    """
    exact = exact_log2(x)
    if exact is not None:
        return exact
    return outward(lambda iv, y: iv.log(y) / iv.log(2), x).hi


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
        return outward(lambda iv, x: iv.log(x), self)

    def exp(self) -> "FracInterval":
        return outward(lambda iv, x: iv.exp(x), self, extra_bits=exp_extra_bits(max(-self.lo, self.hi)))

    def pow_rational(self, e: Fraction) -> "FracInterval":
        """x^e for positive x; exact for integer e and for a point x whose
        power is rational, else one outward-rounded step."""
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
        if self.lo == self.hi and (root := exact_root(self.lo, e.denominator)) is not None:
            return FracInterval(root**e.numerator)
        return outward(lambda iv, x, p: x**p, self, e)

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


def lower(x: Fraction | FracInterval) -> Fraction:
    """The lower end of a bracket; an exact value is its own lower end."""
    return x.lo if isinstance(x, FracInterval) else x


def upper(x: Fraction | FracInterval) -> Fraction:
    """The upper end of a bracket; an exact value is its own upper end."""
    return x.hi if isinstance(x, FracInterval) else x
