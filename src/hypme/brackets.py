"""Certified brackets computed in Python integers: ln, powers, exp of a
power, log2.

Each public function returns a bracket's two ends.  The bracket is first a
fixed-point one, integers lo <= v * 2**w <= hi: each step rounds the lower
end down and the upper end up, or the upper end adds a bound on what the
lower end's roundings lost.  It is then rounded once, outward, to the 2**-32
grid (`_on_grid`).  ln x takes x = m * 2**k exactly, 1/2 < m < 2, and
ln m = 2 atanh((m-1)/(m+1)); x**(a/b) is the integer b-th root of
floor(x**a * 2**(w*b)); log2 divides the ln brackets of x and 2.  exp is
taken only as `exp_pow`, the weight exp(x**e), so its argument y = x**e is
never negative: it works at the base bits plus `exp_extra_bits`, as
(e**(1/b))**a, by binary splitting, for a short rational y = a/b, and as
e**floor(y) times a halved Taylor series for any other y.  `hypme.cli`
registers this module lazily, so a run that takes no bracket never
compiles it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

# Dyadic precision of certified brackets: their ends are multiples of 2**-32.
LOG_PRECISION_BITS = 32
# Least working precision of a bracket, in bits after the binary point.
MIN_PRECISION_BITS = 128
# log2(e) = 1.44269504088896340736..., rounded up to a multiple of 2**-64.
LOG2_E = Fraction(0x171547652B82FE178, 2**64)


def iroot(k: int, n: int) -> int:
    """floor(k ** (1/n)) for integers k >= 0 and n >= 1."""
    if n == 1 or k < 2:
        return k
    if n == 2:
        return math.isqrt(k)
    shift = k.bit_length() // (2 * n)
    # at least the root, from the root of the top half of k; Newton descends to it
    r = (iroot(k >> shift * n, n) + 1) << shift if shift else 1 << -(-k.bit_length() // n)
    while (s := ((n - 1) * r + k // r ** (n - 1)) // n) < r:
        r = s
    return r


def _down(lo: int, hi: int, s: int) -> tuple[int, int]:
    """A bracket at w bits as one at w - s bits, rounded outward."""
    return lo >> s, -(-hi >> s)


def _atanh(p: int, q: int, w: int) -> tuple[int, int]:
    """atanh(p/q) for 0 <= p/q <= 1/3, its terms rounded down: each loses
    under 2.2 units and the tail after the first zero term under 1.3, so
    the upper end adds 2(k + 1) >= 2.2 (k + 1)/2 + 1.3, k the last divisor."""
    p2, q2 = p * p, q * q
    term, lo, k = (p << w) // q, 0, 1
    while term:
        lo += term // k
        term = term * p2 // q2
        k += 2
    return lo, lo + 2 * (k + 1)


@functools.cache
def _ln2(w: int) -> tuple[int, int]:
    """ln 2 = 2 atanh(1/3), under 3w units wide."""
    lo, hi = _atanh(1, 3, w)
    return 2 * lo, 2 * hi


def _ln(x: Fraction, w: int) -> tuple[int, int]:
    """ln x = k ln 2 + 2 atanh((m - 1)/(m + 1)) for x = m * 2**k, 1/2 < m < 2:
    the precision follows the bit length of k, that of the result, not x's."""
    if x == 1:
        return 0, 0
    n, d = x.numerator, x.denominator
    k = n.bit_length() - d.bit_length()
    a, b = (n, d << k) if k >= 0 else (n << -k, d)  # m = a/b
    g = w + abs(k).bit_length() + w.bit_length() + 4  # the sum is under 3(|k| + 1)g units wide
    lo, hi = _atanh(abs(a - b), a + b, g)
    if a < b:
        lo, hi = -hi, -lo
    l2lo, l2hi = _ln2(g) if k >= 0 else _ln2(g)[::-1]
    return _down(2 * lo + k * l2lo, 2 * hi + k * l2hi, g - w)


def exp_extra_bits(v: Fraction) -> int:
    """Working bits, beyond the base precision, that keep a bracket of exp(x)
    for 0 <= x <= v grid-tight: the at most v*log2(e) integer bits of exp(v)."""
    return max(0, math.ceil(v * LOG2_E))


def _exp(x: Fraction, w: int) -> tuple[int, int]:
    """exp x for a rational x >= 0."""
    if x == 0:
        return 1 << w, 1 << w
    if x.denominator.bit_length() <= 64:  # a short rational
        return _exp_short(x, w)
    return _exp_reduced(x, w)


def _series_e(b: int, i: int, j: int) -> tuple[int, int]:
    """Binary splitting: P/Q = sum over k in (i, j] of 1/(b**(k-i) (i+1)...k)."""
    if j - i == 1:
        return 1, b * j
    m = (i + j) // 2
    p1, q1 = _series_e(b, i, m)
    p2, q2 = _series_e(b, m, j)
    return p1 * q2 + p2, q1 * q2


def _exp_short(x: Fraction, w: int) -> tuple[int, int]:
    """exp(a/b) for a short rational a/b > 0 as (e**(1/b))**a: e**(1/b) =
    sum 1/(b**k k!) by binary splitting, 2 units below at p bits, and its
    power with each product cut back to p bits, rounded down.  The true
    power is at most (1 + 2**(1-p))**(a + 2c) times that, c the bit length
    of a, so the upper end adds 2**(c+3-p) of it plus a unit."""
    a, b = x.numerator, x.denominator
    c = a.bit_length()
    p = w + exp_extra_bits(x) + c + 8
    n, bits = 0, 0
    while bits < p + 2:  # until b**n n! >= 2**(p+2): the tail is below 2**-(p+1)
        n += 1
        bits += (b * n).bit_length() - 1
    num, den = _series_e(b, 0, n)
    m = ((num + den) << p) // den
    lo, s = m, p
    for bit in bin(a)[3:]:
        lo, s = lo * lo, 2 * s
        if bit == "1":
            lo, s = lo * m, s + p
        cut = lo.bit_length() - p
        lo, s = lo >> cut, s - cut
    return _down(lo, lo + (lo >> p - c - 3) + 1, s - w)


def _exp_reduced(x: Fraction, w: int) -> tuple[int, int]:
    """exp x for any rational x > 0 as e**n exp(r), with n = floor(x) and
    r = x - n: e**n from `_exp_short`, and exp(r / 2**h) by its Taylor
    series, then squared h times, all rounded down; the upper end adds a
    bound on what the lower end lost."""
    n = math.floor(x)
    extra = exp_extra_bits(x)
    h = math.isqrt(w + extra) // 2
    W = w + extra + h + (w + extra).bit_length() + 16
    r = x - n
    step = (r.numerator << W - h) // r.denominator  # r / 2**h, under a unit low
    s, term, k = 0, 1 << W, 0
    while term:
        s += term
        k += 1
        term = (term * step >> W) // k
    for _ in range(h):
        s = s * s >> W
    # the Taylor sum of exp(r / 2**h) < 2 is under 4(k + 2) units low, and
    # the low step takes under 2 units off it; a squaring adds a unit and
    # multiplies the loss by twice the root it squares, so the h squarings
    # multiply it by at most 2**h exp(r) < 2**(h + 2)
    lo, hi = s, s + ((4 * k + 11) << h + 2)
    if n:
        m = W - extra  # e**n to m bits after the point is W bits of it
        elo, ehi = _exp_short(Fraction(n), m)
        lo, hi, W = lo * elo, hi * ehi, W + m
    return _down(lo, hi, W - w)


def _pow(x: Fraction, e: Fraction, w: int) -> tuple[int, int]:
    """x**e for rationals x >= 0 and e = a/b > 0: the integer b-th root of
    floor(x**a * 2**(w*b)), exact when it lands on the 2**-w grid."""
    a, b = e.numerator, e.denominator
    q, rem = divmod(x.numerator**a << w * b, x.denominator**a)
    r = iroot(q, b)
    return r, r + (rem != 0 or r**b != q)


def _base_bits(*xs: Fraction) -> int:
    """Bits after the point that a bracket of a function of xs starts from."""
    size = max(k.bit_length() for x in xs for k in (x.numerator, x.denominator))
    return max(MIN_PRECISION_BITS, size + LOG_PRECISION_BITS + 64)


def _on_grid(bracket, *xs: Fraction, start: int = 0) -> tuple[Fraction, Fraction]:
    """bracket(w) of a function of xs, rounded once to the 2**-32 grid.

    Each end is then the floor or the ceiling of the true value, unless that
    lies within 2**-w of a grid point; then w doubles, from `start` or the
    base bits of xs up to twice the base bits.
    """
    base = _base_bits(*xs)
    w = start or base
    while True:
        lo, hi = _down(*bracket(w), w - LOG_PRECISION_BITS)
        if hi - lo <= 1 or w >= 2 * base:
            return Fraction(lo, 1 << LOG_PRECISION_BITS), Fraction(hi, 1 << LOG_PRECISION_BITS)
        w *= 2


def ln(x: Fraction) -> tuple[Fraction, Fraction]:
    """The ends of a bracket of ln x, for a rational x > 0; ln 1 is 0."""
    return _on_grid(lambda w: _ln(x, w), x, start=MIN_PRECISION_BITS)


def power(x: Fraction, e: Fraction) -> tuple[Fraction, Fraction]:
    """The ends of a bracket of x**e, for rationals x >= 0 and e > 0; the
    point x**e when that is a grid point."""
    return _on_grid(lambda w: _pow(x, e, w), x, e)


def exp_pow_bits(x: Fraction, e: Fraction) -> int:
    """Working bits of exp_pow(x, e): the base precision plus the
    integer bits of exp(y) for y = ceil(x**e), all from integers."""
    ceil_xa = -(-(x.numerator**e.numerator) // x.denominator**e.numerator)
    y = iroot(ceil_xa - 1, e.denominator) + 1  # ceil(ceil_xa ** (1/b)); iroot(-1, b) is -1
    return _base_bits(x, e) + exp_extra_bits(Fraction(y))


def exp_pow(x: Fraction, e: Fraction) -> tuple[Fraction, Fraction]:
    """The ends of a bracket of exp(x**e), for rationals x >= 0 and e > 0: x**e
    to 2**-(w+v), where exp(x**e) < 2**(v-8), moves exp by under 2**-8 units."""
    v = exp_pow_bits(x, e) - _base_bits(x, e) + 8

    def bracket(w):
        ylo, yhi = _pow(x, e, w + v)
        lo, hi = _exp(Fraction(ylo, 1 << w + v), w)
        # exp(y + d) <= exp(y) (1 + 2d) for 0 <= d <= 1/2, plus a unit for the
        # shift's rounding; an exact power needs neither, so exp(0) is the point 1
        return lo, hi + (2 * hi * (yhi - ylo) >> w + v) + (yhi != ylo)

    return _on_grid(bracket, x, e)


def log2(x: Fraction) -> tuple[Fraction, Fraction]:
    """The ends of a bracket of log2 x = ln x / ln 2, for a rational x > 0."""

    def bracket(w):
        lo, hi = _ln(x, w + 16)
        l2lo, l2hi = _ln2(w + 16)
        return (lo << w) // (l2hi if lo >= 0 else l2lo), -(-(hi << w) // (l2lo if hi >= 0 else l2hi))

    return _on_grid(bracket, x, start=MIN_PRECISION_BITS)
