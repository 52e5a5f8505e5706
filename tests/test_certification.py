"""Certified brackets against a 2000-bit mpmath reference and the mpmath
interval oracle.

Every bracket that `rational` and `integrability` hand out must contain the
true value.  Transcendental values are compared with mpmath at 2000 bits,
far beyond the 2**-32 grid of the brackets; algebraic values x**(n/q) are
compared exactly, through the q-th powers of the bracket's ends.  The
brackets must also equal, end for end, those of `oracles.mpmath_outward`,
mpmath's interval arithmetic rounded outward to the same grid.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from hypme import brackets as native
from hypme.brackets import exp_extra_bits
from hypme.integrability import exp_power, poly_plus, power
from hypme.rational import FracInterval, exact_log2, exact_root, log2_upper, lower, upper
from hypme.rigidity import Schedule, ln2
from oracles import mpmath_outward

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
NAMED_EXP = [Fraction(t) for t in (14, 24, 40, 59, 60, 80)]


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
    for x in [x for x in xs if x >= 0]:  # exp is only taken of a power x**e >= 0
        lo, hi = native.exp_pow(x, Fraction(1))
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
        for x in (a / 20000 - 40, b / 20000 + Fraction(1, 7)):
            if x < 0:
                continue
            lo, hi = native.exp_pow(x, Fraction(1))
            assert brackets(lo, hi, lambda: mpmath.exp(mpq(x)))
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


def test_pow_rational_zero_and_negative_exponents():
    # every caller passes e > 0 (schedule exponents in (0, 1], function
    # exponents and their reciprocals), so e <= 0 is refused, not evaluated
    for x, e in ((FracInterval(2, 3), 0), (FracInterval(2, 3), -2), (FracInterval(4), Fraction(-1, 2)),
                 (FracInterval(Fraction(1, 4), 9), Fraction(-3, 2)), (FracInterval(10), Fraction(-1, 2))):
        with pytest.raises(ValueError, match="positive exponent"):
            x.pow_rational(Fraction(e))


def test_exact_algebraic_values_stay_on_the_grid():
    # (1/4)**(5/2) = 1/32 and 27**(2/3) = 9 are exact: the bracket is the point
    assert power(Fraction(5, 2), Fraction(1, 3)).value(Fraction(3, 4)) == FracInterval(Fraction(1, 32))
    assert power(Fraction(2, 3), 8).value(Fraction(27, 8)) == FracInterval(9)
    # 1/3 is not on the 2**-32 grid: its bracket is the two grid points around it
    lo, hi = power(Fraction(1, 2)).value(Fraction(1, 9))
    assert lo < Fraction(1, 3) < hi and hi - lo == Fraction(1, 2**32)
    # an interval whose ends are squares of grid points
    assert FracInterval(4, 9).pow_rational(Fraction(1, 2)) == FracInterval(2, 3)


# ---------------------------------------------------------------------------
# native brackets against the mpmath interval oracle, end for end


def oracle_ln(x):
    return mpmath_outward(lambda iv, y: iv.log(y), x)


def oracle_exp(x):
    return mpmath_outward(lambda iv, y: iv.exp(y), x, extra_bits=exp_extra_bits(x))


def oracle_pow(x, e):
    return mpmath_outward(lambda iv, y, p: y**p, x, e)


def oracle_log2_upper(x):
    exact = exact_log2(x)
    return exact if exact is not None else mpmath_outward(lambda iv, y: iv.log(y) / iv.log(2), x).hi


def digits(rng, most):
    return rng.randint(1, 10 ** rng.randint(1, most))


def assert_same(got, oracle, arg):
    assert tuple(got) == tuple(oracle), arg


def test_ln_matches_oracle():
    rng = random.Random(11)
    xs = [Fraction(digits(rng, 40), digits(rng, 40)) for _ in range(150)]
    # condition (5)'s volumes: integers of about 2,400 bits
    xs += [Fraction(3**1500 + rng.randint(-(10**9), 10**9)) for _ in range(10)]
    for x in xs + [Fraction(1), Fraction(2), Fraction(1, 2)]:
        assert_same(FracInterval(x).ln(), oracle_ln(x), x)
    assert tuple(FracInterval(1).ln()) == (0, 0)


def test_exp_matches_oracle():
    rng = random.Random(12)
    xs = []
    for _ in range(60):
        q = rng.randint(1, 1000)
        xs.append(Fraction(rng.randint(-(10**4) * q, 10**4 * q), q))
    xs += [Fraction(rng.getrandbits(210) * rng.choice((1, -1)), 2**200) for _ in range(40)]
    for x in [x for x in xs + [Fraction(1)] if x > 0]:
        assert_same(native.exp_pow(x, Fraction(1)), oracle_exp(x), x)
    assert native.exp_pow(Fraction(0), Fraction(1)) == (1, 1)


@pytest.mark.parametrize("e", ["1", "1/2", "3"])
def test_exp_pow_at_zero_is_the_point_one(e):
    # 0**e is exact, so no unit is added for the power's rounding
    assert native.exp_pow(Fraction(0), Fraction(e)) == (1, 1)
    assert tuple(exp_power(Fraction(e)).value(Fraction(0))) == (1, 1)


@pytest.mark.parametrize("e", ["1/2", "1/3", "2/3", "3/2", "5/2"])
def test_pow_matches_oracle(e):
    e, rng = Fraction(e), random.Random(13)
    for _ in range(40):
        x = Fraction(digits(rng, 12), digits(rng, 6))
        if exact_root(x, e.denominator) is not None:
            continue  # a rational power: test_perfect_powers_are_exact
        assert_same(native.power(x, e), oracle_pow(x, e), x)
        assert_same(FracInterval(x).pow_rational(e), oracle_pow(x, e), x)
        if (xe := x ** float(e)) < 2000:
            expected = mpmath_outward(lambda iv, y, p: iv.exp(y**p), x, e, extra_bits=exp_extra_bits(xe))
            assert_same(native.exp_pow(x, e), expected, x)


def test_log2_upper_matches_oracle():
    rng = random.Random(14)
    xs = [Fraction(digits(rng, 40), digits(rng, 40)) for _ in range(100)]
    xs += [Fraction(2) ** k for k in range(-40, 41, 7)] + [Fraction(3) ** 1500]
    for x in xs:
        assert log2_upper(x) == oracle_log2_upper(x), x


PERFECT_POWERS = [
    ("4", "1/2", "2"), ("25/16", "1/2", "5/4"), ("1/16", "1/2", "1/4"),
    ("8", "1/3", "2"), ("27/8", "2/3", "9/4"), ("9/4", "5/2", "243/32"),
]


@pytest.mark.parametrize("x, e, root", PERFECT_POWERS)
def test_perfect_powers_are_exact(x, e, root):
    # the integer root lands on the grid: the bracket is the point, as the
    # oracle's square root gives it; the oracle takes other roots as
    # exp(e ln x), which can land a grid step out
    x, e, root = Fraction(x), Fraction(e), Fraction(root)
    got, oracle = native.power(x, e), oracle_pow(x, e)
    assert got == (root, root)
    if e == Fraction(1, 2):
        assert_same(got, oracle, x)
    else:
        assert oracle.lo <= got[0] and got[1] <= oracle.hi


def near_grid(rng, value, bits):
    """A best rational approximation, with a denominator of at most `bits`
    bits, of value(g) for a random grid point g: about 2**(-2 bits) from it."""
    g = Fraction(rng.randint(2**32, 2**37), 2**32)
    with mpmath.workprec(8 * bits):
        man, exp = value(mpq(g)).man_exp
    return (man * Fraction(2) ** exp).limit_denominator(2**bits)


def test_brackets_near_grid_points():
    # each value lies about 2**-300 from a grid point, closer than the first
    # working precision of either side: the native bracket refines it and
    # must land on the side that the oracle, given 400 more bits, finds
    rng = random.Random(15)
    bits, more = 150, {"extra_bits": 400}
    for _ in range(8):
        x = near_grid(rng, mpmath.exp, bits)
        assert_same(FracInterval(x).ln(), mpmath_outward(lambda iv, y: iv.log(y), x, **more), x)
        x = near_grid(rng, mpmath.log, bits)
        assert_same(native.exp_pow(x, Fraction(1)), mpmath_outward(lambda iv, y: iv.exp(y), x, **more), x)
        x = near_grid(rng, lambda g: g**1.5, bits)
        expected = mpmath_outward(lambda iv, y, p: y**p, x, Fraction(2, 3), **more)
        assert_same(native.power(x, Fraction(2, 3)), expected, x)
        x = near_grid(rng, lambda g: mpmath.power(2, g), bits)
        expected = mpmath_outward(lambda iv, y: iv.log(y) / iv.log(2), x, **more).hi
        assert log2_upper(x) == expected, x
        x = near_grid(rng, lambda g: mpmath.log(g) ** 2, bits)
        expected = mpmath_outward(lambda iv, y, p: iv.exp(y**p), x, Fraction(1, 2), **more)
        assert_same(native.exp_pow(x, Fraction(1, 2)), expected, x)
