"""Certified brackets against a 2000-bit mpmath reference.

Every bracket that `rational` and `integrability` hand out must contain the
true value.  Transcendental values are compared with mpmath at 2000 bits,
far beyond the 2**-32 grid of the brackets; algebraic values x**(n/q) are
compared exactly, through the q-th powers of the bracket's ends.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from hypme.integrability import exp_power, poly_plus, power
from hypme.rational import FracInterval, log2_upper, lower, upper
from hypme.rigidity import Schedule, ln2

REF_BITS = 2000


def mpq(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def brackets(lo: Fraction, hi: Fraction, truth) -> bool:
    """lo <= truth() <= hi, with truth evaluated at REF_BITS."""
    with mpmath.workprec(REF_BITS):
        v = truth()
        return mpq(lo) <= v <= mpq(hi)


def brackets_power(lo: Fraction, hi: Fraction, x: Fraction, e: Fraction) -> bool:
    """lo <= x**e <= hi for x >= 0, exactly: compare q-th powers, e = n/q."""
    n, q = e.numerator, e.denominator
    return (lo <= 0 or lo**q <= x**n) and x**n <= hi**q


def sample_rationals(rng, count, top=10**6, den=10**4):
    return [Fraction(rng.randint(1, top), rng.randint(1, den)) for _ in range(count)]


# ln(3**589) and exp(t) for every integer t >= 14 lay outside the brackets
# that an endpoint conversion through 53-bit floats gave
NAMED_LN = [Fraction(3) ** 589, Fraction(3) ** 1000, Fraction(10) ** 30 + 1]
NAMED_EXP = [Fraction(t) for t in (14, 24, 40, 59, 60, 80, -40)]


def test_ln_bounds():
    rng = random.Random(1)
    for x in NAMED_LN + sample_rationals(rng, 200) + [Fraction(1)]:
        lo, hi = FracInterval(x).ln()
        assert brackets(lo, hi, lambda: mpmath.log(mpq(x))), x


def test_ln2_is_pinned():
    # the schedule check divides by this bracket; computed on first use, it
    # must keep the value it had as an import-time constant
    grid = Fraction(1, 2**32)
    assert tuple(ln2()) == (2977044471 * grid, 2977044472 * grid)
    assert brackets(*ln2(), lambda: mpmath.log(2))
    assert ln2() is ln2()


def test_log2_upper():
    rng = random.Random(2)
    for x in sample_rationals(rng, 200) + [Fraction(1, 8), Fraction(3) ** 589]:
        up = log2_upper(x)
        assert brackets(Fraction(-(10**9)), up, lambda: mpmath.log(mpq(x), 2)), x


def test_exp_bounds():
    rng = random.Random(3)
    xs = NAMED_EXP + [Fraction(t) for t in range(-5, 61)]
    xs += [Fraction(rng.randint(-80 * 10**4, 80 * 10**4), 10**4) for _ in range(200)]
    for x in xs:
        lo, hi = FracInterval(x).exp()
        assert lo <= hi
        assert brackets(lo, hi, lambda: mpmath.exp(mpq(x))), x


def test_interval_ln_exp_pow():
    rng = random.Random(4)
    for a in sample_rationals(rng, 100):
        b = a + Fraction(rng.randint(0, 10), rng.randint(1, 100))
        i = FracInterval(a, b)
        ln = i.ln()
        assert brackets(ln.lo, ln.hi, lambda: mpmath.log(mpq(a)))
        assert brackets(ln.lo, ln.hi, lambda: mpmath.log(mpq(b)))
        small = FracInterval(a / 20000 - 40, b / 20000 + Fraction(1, 7))
        ex = small.exp()
        assert brackets(ex.lo, ex.hi, lambda: mpmath.exp(mpq(small.lo)))
        assert brackets(ex.lo, ex.hi, lambda: mpmath.exp(mpq(small.hi)))
        e = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        p = i.pow_rational(e)
        assert brackets_power(p.lo, p.hi, a, e) and brackets_power(p.lo, p.hi, b, e), (a, b, e)


FAMILIES = [
    (fam, param, scale)
    for fam in (power, exp_power, poly_plus)
    for param in (Fraction(1, 2), Fraction(1, 3), Fraction(5, 2), Fraction(2, 3), 1, 2, 3)
    for scale in (Fraction(1), Fraction(1, 3), Fraction(8), Fraction(9, 4))
]
ARGS = [Fraction(t) for t in (0, 1, 2, 3, 4, 9)] + [
    Fraction(3, 4), Fraction(1, 4), Fraction(5, 7), Fraction(16, 9), Fraction(27, 8),
]


@pytest.mark.parametrize("fam, param, scale", FAMILIES)
def test_family_values(fam, param, scale):
    phi = fam(param, scale)
    for t in ARGS:
        x = phi.scale * t
        v = phi.value(t)
        assert isinstance(v, Fraction) == phi.exact
        lo, hi = lower(v), upper(v)
        if phi.family == "exp_power":
            if float(x) ** float(param) > 60:
                continue
            assert brackets(lo, hi, lambda: mpmath.exp(mpq(x) ** mpq(phi.param))), t
        else:
            e = phi.param if phi.family == "power" else 1 + 1 / phi.param
            assert brackets_power(lo, hi, x, e), t


def test_exp_power_at_24():
    # exp_power(1)@8 at 3 is e**24: once reported as e**24 - 7.7e-7 at both ends
    lo, hi = exp_power(1, 8).value(Fraction(3))
    assert lo < hi
    assert brackets(lo, hi, lambda: mpmath.exp(24))


def test_exp_power_extra_bits_for_large_values():
    # exp(100) is about 2**144: at a fixed 128 bits the bracket was 2**49 grid steps wide
    lo, hi = exp_power(2).value(Fraction(10))
    assert hi - lo == Fraction(1, 2**32)
    assert brackets(lo, hi, lambda: mpmath.exp(100))


def test_pow_rational_in_one_step():
    # r(4) = 4**(1/2) is exactly 2, so condition (5) takes Vol(2) there
    assert Schedule("pow", exponent=Fraction(1, 2)).value(4) == FracInterval(2)
    # 10**(5/2) is irrational: one outward step is one grid step wide, where
    # rounding ln x and then exp(e ln x) to the grid gave 792 steps
    p = FracInterval(10).pow_rational(Fraction(5, 2))
    assert p.hi - p.lo == Fraction(1, 2**32)
    assert brackets_power(p.lo, p.hi, Fraction(10), Fraction(5, 2))


def test_exact_algebraic_values_stay_on_the_grid():
    # (1/4)**(5/2) = 1/32 and 27**(2/3) = 9 are exact: the bracket is the point
    assert power(Fraction(5, 2), Fraction(1, 3)).value(Fraction(3, 4)) == FracInterval(Fraction(1, 32))
    assert power(Fraction(2, 3), 8).value(Fraction(27, 8)) == FracInterval(9)
    # 1/3 is not on the 2**-32 grid: its bracket is the two grid points around it
    lo, hi = power(Fraction(1, 2)).value(Fraction(1, 9))
    assert lo < Fraction(1, 3) < hi and hi - lo == Fraction(1, 2**32)
