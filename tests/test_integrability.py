import math
from fractions import Fraction

import pytest

from hypme.errors import ParseError, PreconditionError
from hypme.integrability import (
    exp_power,
    parse_function,
    poly_plus,
    power,
)
from hypme.rational import FracInterval, lower, upper


def test_power_exact():
    phi = power(2)
    assert phi.value(Fraction(3)) == 9
    assert phi.value(Fraction(3, 2)) == Fraction(9, 4)
    assert phi.exact


def test_scale_mechanism():
    phi = power(2, scale=Fraction(1, 2))
    assert phi.value(Fraction(4)) == 4  # (4/2)^2


def test_exp_power_bounds_bracket_true_value():
    phi = exp_power(1)
    lo, hi = phi.value(Fraction(3))
    assert float(lo) <= math.exp(3) <= float(hi)
    assert float(hi) - float(lo) < 1e-6
    assert not phi.exact


def test_poly_plus_numeric():
    psi = poly_plus(1)  # t^2
    lo, hi = psi.value(Fraction(3))
    assert lo <= 9 <= hi and hi - lo < 1e-6
    psi = poly_plus(2)  # t^(3/2)
    ln = psi.ln_interval(FracInterval(4))
    assert ln.lo <= math.log(8) <= ln.hi and ln.hi - ln.lo < 1e-6


def test_exponent_is_the_power_of_t():
    assert power(Fraction(5, 2)).exponent == Fraction(5, 2)
    assert poly_plus(2).exponent == Fraction(3, 2)
    assert exp_power(3).exponent == 3
    # poly_plus(1) is t^2 but stays a bracket: `exact` is the power family's alone
    assert poly_plus(1).exponent == 2 and not poly_plus(1).exact


@pytest.mark.parametrize(
    "fn,y,expected",
    [
        (power(2), 9, 3.0),
        (poly_plus(1), 9, 3.0),
        (poly_plus(2), 8, 4.0),
        (exp_power(1), math.e**2, 2.0),
    ],
)
def test_generalized_inverse_closed_forms(fn, y, expected):
    t = fn.inverse_interval(Fraction(y))
    assert t.lo - 1e-9 <= expected <= t.hi + 1e-9
    assert t.hi - t.lo < 1e-6


@pytest.mark.parametrize("fn", [power(1), power(3), poly_plus(1), exp_power(1)])
def test_inverse_property_on_samples(fn):
    for y in (Fraction(1), Fraction(5), Fraction(50), Fraction(1000)):
        t = fn.inverse_interval(y)
        # the true inverse lies in t, so phi(t.hi) >= y >= phi(t.lo); the certified
        # bounds must allow that
        assert upper(fn.value(t.hi)) >= y
        assert lower(fn.value(t.lo)) <= y


def test_parse_function():
    phi = parse_function("power:2")
    assert phi.family == "power" and phi.param == 2
    psi = parse_function("exp_power:1@1/2")
    assert psi.scale == Fraction(1, 2)
    assert parse_function("poly_plus:3/2").param == Fraction(3, 2)
    with pytest.raises(ParseError):
        parse_function("gauss:1")
    with pytest.raises(ParseError):
        parse_function("power")


def test_nonpositive_parameters_rejected():
    with pytest.raises(PreconditionError):
        power(0)
    with pytest.raises(PreconditionError):
        power(1, scale=0)
