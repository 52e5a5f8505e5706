import math
from fractions import Fraction

import pytest

from hypme.errors import ParseError, PreconditionError
from hypme.integrability import (
    exp_power,
    parse_function,
    poly_plus,
    power,
    table_function,
)
from hypme.rational import FracInterval


def test_power_exact():
    phi = power(2)
    assert phi.eval_exact(Fraction(3)) == 9
    assert phi.eval_exact(Fraction(3, 2)) == Fraction(9, 4)
    assert phi.is_exact()


def test_scale_mechanism():
    phi = power(2, scale=Fraction(1, 2))
    assert phi.eval_exact(Fraction(4)) == 4  # (4/2)^2


def test_exp_power_bounds_bracket_true_value():
    phi = exp_power(1)
    lo, hi = phi.eval_bounds(Fraction(3))
    assert float(lo) <= math.exp(3) <= float(hi)
    assert float(hi) - float(lo) < 1e-6
    assert not phi.is_exact()


def test_poly_plus_numeric():
    psi = poly_plus(1)  # t^2
    lo, hi = psi.eval_bounds(Fraction(3))
    assert lo <= 9 <= hi and hi - lo < 1e-6
    psi = poly_plus(2)  # t^(3/2)
    ln = psi.ln_interval(FracInterval(4))
    assert ln.lo <= math.log(8) <= ln.hi and ln.hi - ln.lo < 1e-6


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
        assert fn.eval_bounds(t.hi)[1] >= y
        assert fn.eval_bounds(t.lo)[0] <= y


def test_table_function():
    tab = table_function([(0, 0), (1, 1), (2, 4), (3, 9)])
    assert tab.eval_exact(Fraction(5, 2)) == 4
    assert tab.eval_exact(Fraction(3)) == 9
    t = tab.inverse_interval(Fraction(4))
    assert t.lo == t.hi == 2
    # generalized inverse satisfies psi(psi^-1(y)) >= y on sample values
    for _, v in tab.table:
        if v > 0:
            assert tab.eval_exact(tab.inverse_interval(v).lo) >= v
    with pytest.raises(PreconditionError):
        tab.inverse_interval(Fraction(10))
    with pytest.raises(PreconditionError):
        tab.ln_interval(FracInterval(1))


def test_table_monotonicity_enforced():
    with pytest.raises(PreconditionError):
        table_function([(0, 5), (1, 1)])


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
