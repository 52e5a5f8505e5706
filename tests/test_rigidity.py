import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypme.brackets import exp_pow
from hypme.errors import Budget, BudgetError, PreconditionError
from hypme.groups import parse_group
from hypme.integrability import exp_power, poly_plus, power
from hypme.rational import FracInterval
from hypme.reports import encode
from hypme.rigidity import (
    RigidityConditions,
    Schedule,
    check_condition_5,
    check_condition_6_7,
    _onset,
    _sample_grid,
    corollary_schedules,
    threshold_p,
)

LOG3 = Fraction(109861228866810969, 10**17)  # rational stand-in for log(3)


class TestThreshold:
    def test_zero_delta_gives_two(self):
        assert threshold_p(Fraction(0), LOG3).p_threshold == 2

    def test_zero_entropy_gives_two(self):
        assert threshold_p(Fraction(1), Fraction(0)).p_threshold == 2

    def test_formula_arithmetic(self):
        assert threshold_p(Fraction(2), Fraction(1)).p_threshold == 218

    @settings(max_examples=50, deadline=None)
    @given(
        d1=st.fractions(min_value=0, max_value=10),
        d2=st.fractions(min_value=0, max_value=10),
        e1=st.fractions(min_value=0, max_value=5),
        e2=st.fractions(min_value=0, max_value=5),
    )
    def test_monotone_in_both_arguments(self, d1, d2, e1, e2):
        lo = threshold_p(min(d1, d2), min(e1, e2)).p_threshold
        hi = threshold_p(max(d1, d2), max(e1, e2)).p_threshold
        assert lo <= hi
        assert threshold_p(Fraction(0), e1).p_threshold == 2

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            threshold_p(Fraction(-1), Fraction(1))


class TestSchedules:
    def test_lp_schedule(self):
        r = corollary_schedules("lp", delta=Fraction(1))
        assert r.family == "log" and r.coefficient == 108
        val = r.value(1000)
        assert abs(val.midpoint_float() - 108 * math.log(1000)) < 1e-6
        # r(n) = 108 delta log n, so delta = 2 gives 216 log n
        r2 = corollary_schedules("lp", delta=Fraction(2))
        assert r2.coefficient == 216
        assert abs(r2.value(1000).midpoint_float() - 216 * math.log(1000)) < 1e-6

    def test_exp_schedule(self):
        r = corollary_schedules("exp", eta=Fraction(2))
        assert r.family == "pow" and r.exponent == Fraction(2, 3)
        # any eta > 0 is admitted: eta/(1 + eta) = 1/3 at eta = 1/2
        assert corollary_schedules("exp", eta=Fraction(1, 2)).exponent == Fraction(1, 3)

    def test_parameter_ordering_enforced(self):
        with pytest.raises(PreconditionError):
            corollary_schedules("exp", eta=Fraction(2), q=Fraction(3), p=Fraction(4))
        with pytest.raises(PreconditionError):
            corollary_schedules("lp", delta=Fraction(0))

    def test_schedule_monotone_nondecreasing(self):
        for r in (Schedule("log", coefficient=Fraction(5)), Schedule("pow", exponent=Fraction(1, 3))):
            vals = [r.value(n) for n in (2, 10, 100, 10**4)]
            for a, b in zip(vals, vals[1:]):
                assert a.lo <= b.hi and a.midpoint_float() <= b.midpoint_float()


def make_rc(phi, psi, r, delta=Fraction(1), L=Fraction(1), n_max=10**6):
    return RigidityConditions(delta=delta, L=L, phi=phi, psi=psi, r=r, n_min=2, n_max=n_max)


class TestCondition5:
    def test_good_exponent_tends_to_zero(self):
        group = parse_group("F2")
        p = 108 * LOG3 + 5
        rc = make_rc(power(p), power(1), corollary_schedules("lp", delta=Fraction(1)))
        rep = check_condition_5(rc, group)
        assert rep.verdict == "tends_to_zero" and rep.analytic
        assert rep.samples[-1]["n"] == 10**6

    def test_small_exponent_fails(self):
        group = parse_group("F2")
        rc = make_rc(power(2), power(1), corollary_schedules("lp", delta=Fraction(1)))
        rep = check_condition_5(rc, group)
        assert rep.verdict == "fails" and rep.analytic
        # numeric confirmation: the log-ratio grows through the window
        assert rep.samples[-1]["log_ratio"] > rep.samples[0]["log_ratio"]

    def test_decreasing_tail_with_margin(self):
        # with a comfortably supercritical exponent the window tail decreases
        group = parse_group("F2")
        p = 108 * (LOG3 + Fraction(1, 2)) + 2
        rc = make_rc(power(p), power(1), corollary_schedules("lp", delta=Fraction(1)))
        rep = check_condition_5(rc, group)
        assert rep.verdict == "tends_to_zero"
        assert rep.n0 is not None
        by_n = {s["n"]: s["log_ratio"] for s in rep.samples}
        assert by_n[10**6] < by_n[10**3]

    def test_exponential_growth_beats_power_two(self):
        group = parse_group("F2")
        rc = make_rc(power(2), power(1), Schedule("log", coefficient=Fraction(1)))
        rep = check_condition_5(rc, group)
        assert rep.verdict == "fails"
        assert rep.samples[-1]["log_ratio"] > rep.samples[0]["log_ratio"]

    def test_bounded_growth_tends_to_zero(self):
        group = parse_group("C3")
        rc = make_rc(power(3), power(1), Schedule("log", coefficient=Fraction(1)))
        rep = check_condition_5(rc, group)
        assert rep.verdict == "tends_to_zero"
        assert rep.n0 is not None

    def test_polynomial_growth_threshold_at_two(self):
        group = parse_group("Z^2")
        r = Schedule("log", coefficient=Fraction(3))
        assert check_condition_5(make_rc(power(3), power(1), r), group).verdict == "tends_to_zero"
        assert check_condition_5(make_rc(power(2), power(1), r), group).verdict == "fails"

    def test_exp_power_with_power_schedule(self):
        group = parse_group("F2")
        r = corollary_schedules("exp", eta=Fraction(2))  # n^(2/3)
        good = make_rc(exp_power(3), power(1), r)
        bad = make_rc(exp_power(1), power(1), r)
        assert check_condition_5(good, group).verdict == "tends_to_zero"
        assert check_condition_5(bad, group).verdict == "fails"

    @pytest.mark.parametrize("p, verdict", [(7, "fails"), (8, "tends_to_zero")])
    def test_z2_power_schedule_critical_exponent_is_seven(self, p, verdict):
        # Vol(r) ~ 2 r^2 on Z^2; with r = n^(1/2) and phi = t^p the ratio
        # n^2 r Vol(r) / (n/r)^p behaves like n^(2 + e + 2e - p(1 - e)) at
        # e = 1/2, that is n^(7/2 - p/2): constant at p = 7, falling at p = 8
        rc = make_rc(power(p), power(1), Schedule("pow", exponent=Fraction(1, 2)))
        rep = check_condition_5(rc, parse_group("Z^2"))
        assert rep.verdict == verdict and rep.analytic
        by_n = {s["n"]: s["log_ratio"] for s in rep.samples}
        slope = (by_n[10**6] - by_n[10**4]) / math.log(100)
        assert abs(slope - (Fraction(7, 2) - Fraction(p, 2))) < 0.01

    def test_free_products_get_analytic_verdicts(self):
        # C2*C3 has h = ln sqrt(2), so with r = 108 log n the critical exponent
        # is 2 + 54 ln 2 = 39.43...; Z*Z and C2*C2*C2 have h = log 3 and log 2
        r = Schedule("log", coefficient=Fraction(108))
        with mpmath.workprec(200):
            cases = (("C2*C3", 2 + 54 * mpmath.log(2)), ("Z*Z", 2 + 108 * mpmath.log(3)),
                     ("C2*C2*C2", 2 + 108 * mpmath.log(2)))
        for spec, critical in cases:
            group = parse_group(spec)
            above = check_condition_5(make_rc(power(math.ceil(critical)), power(1), r), group)
            below = check_condition_5(make_rc(power(math.floor(critical)), power(1), r), group)
            assert (above.verdict, below.verdict) == ("tends_to_zero", "fails"), spec
            assert above.analytic and below.analytic
            # the note is the certified bracket 2 + 108 h, both ends within 1e-6
            for rep in (above, below):
                with mpmath.workprec(200):
                    lo, hi = (mpmath.mpf(x.numerator) / x.denominator for x in rep.notes["critical_exponent"])
                    assert lo <= critical <= hi and hi - lo < 1e-6, spec

    @pytest.mark.parametrize("spec", ["F2", "Z^2"])
    @pytest.mark.parametrize(
        "r", [Schedule("log", coefficient=Fraction(108)), Schedule("pow", exponent=Fraction(1, 2))]
    )
    @pytest.mark.parametrize("q", [Fraction(2), Fraction(1, 7), Fraction(1, 200)])
    def test_poly_plus_is_the_power_of_its_exponent(self, spec, r, q):
        # poly_plus(q) is t^(1 + 1/q): same verdict, notes and samples as power(1 + 1/q)
        group = parse_group(spec)
        reps = [
            check_condition_5(make_rc(phi, power(1), r, n_max=10**4), group)
            for phi in (poly_plus(q), power(1 + 1 / q))
        ]
        views = [(rep.verdict, rep.analytic, rep.samples, {**rep.notes, "phi": None}) for rep in reps]
        assert views[0] == views[1]
        assert reps[0].analytic and reps[0].notes["phi"] == poly_plus(q).describe()

    def test_poly_plus_verdicts(self):
        # t^(3/2) on F2 under 108 log n: below the critical exponent, as power:3/2
        rc = make_rc(poly_plus(2), power(1), Schedule("log", coefficient=Fraction(108)))
        rep = check_condition_5(rc, parse_group("F2"))
        assert (rep.verdict, rep.analytic) == ("fails", True) and "critical_exponent" in rep.notes
        # t^8 on Z^2 under n^(1/2): 8 (1 - 1/2) = 4 > 2 + 1/2 + 2/2
        rc = make_rc(poly_plus(Fraction(1, 7)), power(1), Schedule("pow", exponent=Fraction(1, 2)))
        rep = check_condition_5(rc, parse_group("Z^2"))
        assert (rep.verdict, rep.notes.get("reason")) == ("tends_to_zero", None)

    def test_exp_power_under_a_log_schedule_tends_to_zero(self):
        # exp(t^p) at t = n / (c ln n) outgrows every power of n, so no growth rate matters
        rc = make_rc(exp_power(1), power(1), Schedule("log", coefficient=Fraction(108)), n_max=10**4)
        rep = check_condition_5(rc, parse_group("F2"))
        assert (rep.verdict, rep.analytic) == ("tends_to_zero", True)
        assert rep.notes["reason"] == "stretched-exponential denominator"

    def test_exp_power_under_sub_exponential_growth_tends_to_zero(self):
        # under n^(1/2), exp(t^1) is exp(n^(1/2)): it beats Z^2's polynomial
        # volumes, where on F2 the same exponents tie (the next test)
        rc = make_rc(exp_power(1), power(1), Schedule("pow", exponent=Fraction(1, 2)), n_max=10**4)
        rep = check_condition_5(rc, parse_group("Z^2"))
        assert (rep.verdict, rep.analytic) == ("tends_to_zero", True)
        assert "reason" not in rep.notes

    def test_exp_power_exponent_tie_is_inconclusive(self):
        # p (1 - e) = 1 * (1 - 1/2) = e: exp(n^(1/2)) against F2's Vol(n^(1/2)) ~ 3^(n^(1/2))
        rc = make_rc(exp_power(1), power(1), Schedule("pow", exponent=Fraction(1, 2)), n_max=10**4)
        rep = check_condition_5(rc, parse_group("F2"))
        assert rep.verdict == "inconclusive"
        assert rep.notes["reason"] == "exponent tie; coefficient comparison omitted"

    def test_exponent_within_the_entropy_bracket_is_inconclusive(self):
        # under r = ln n the critical exponent is 2 + h; p = 2 + h.hi lies in
        # (2 + h.lo, 2 + h.hi], where the certified bracket cannot decide
        group = parse_group("F2")
        entropy = group.growth.entropy
        assert entropy.lo < entropy.hi
        rc = make_rc(power(2 + entropy.hi), power(1), Schedule("log", coefficient=Fraction(1)), n_max=10**4)
        rep = check_condition_5(rc, group)
        assert rep.verdict == "inconclusive"
        assert rep.notes["reason"] == "p within rounding of the critical exponent"
        assert "critical_exponent" not in rep.notes

    def test_r_exceeding_n_is_flagged(self):
        group = parse_group("F2")
        rc = make_rc(power(200), power(1), Schedule("log", coefficient=Fraction(108)))
        rep = check_condition_5(rc, group)
        assert "r_exceeds_n_at" in encode(rep)

    def test_identity_schedule_is_not_flagged(self):
        # pow:1 is r(n) = n exactly, so no sample has r(n) > n
        rc = make_rc(power(8), power(1), Schedule("pow", exponent=Fraction(1)), n_max=1000)
        assert all(rc.r.value(n) == FracInterval(n) for n in (2, 3, 999, 1000))
        rep = check_condition_5(rc, parse_group("Z^2"))
        assert "r_exceeds_n_at" not in rep.notes

    def test_volumes_charged_in_words(self):
        # n^(1/2) up to n_max 10^4 reads Vol up to radius 100; F2's Vol(n) =
        # 2 * 3^n - 1 has 1 + floor(bits / 64) words, 183 over radii 0..100
        rc = make_rc(power(3), power(1), Schedule("pow", exponent=Fraction(1, 2)), n_max=10**4)
        words = sum((2 * 3**n - 1).bit_length() // 64 + 1 for n in range(101))
        assert words == 183
        budget = Budget(words)
        check_condition_5(rc, parse_group("F2"), budget)
        assert budget.spent == words
        with pytest.raises(BudgetError, match=r"Vol up to radius 100, for --n-max 10000"):
            check_condition_5(rc, parse_group("F2"), Budget(words - 1))


class TestCondition67:
    def test_thm42_generous_coefficient(self):
        rc = make_rc(power(1), power(1), Schedule("log", coefficient=Fraction(300)), n_max=10**4)
        rep = check_condition_6_7(rc, "thm42")
        assert rep.verdict == "holds_eventually"
        assert rep.n0 == 2  # 300/18 > 12 = 6*(delta+1)

    def test_thm42_insufficient_coefficient(self):
        rc = make_rc(power(1), power(1), corollary_schedules("lp", delta=Fraction(1)), n_max=10**4)
        rep = check_condition_6_7(rc, "thm42")
        assert rep.verdict == "fails"  # 108/18 = 6 < 12

    def test_thm42_tie_leaves_every_sample_undecided(self):
        # 216/18 = 12 = 6*(delta+1): both sides are 12 ln n, so no bracket
        # separates them, every sample flags holds None and no N0 is
        # reported; the analytic comparison of coefficients decides
        rc = make_rc(power(1), power(1), Schedule("log", coefficient=Fraction(216)))
        rep = check_condition_6_7(rc, "thm42")
        assert len(rep.samples) == 45
        assert all(s["holds"] is None for s in rep.samples)
        assert rep.n0 is None
        assert rep.verdict == "holds_eventually" and rep.analytic

    def test_thm41_eta_above_q(self):
        rc = make_rc(
            power(1), poly_plus(1), Schedule("pow", exponent=Fraction(2, 3)),
            delta=Fraction(0),
        )
        rep = check_condition_6_7(rc, "thm41")
        assert rep.verdict == "holds_eventually" and rep.analytic

    def test_thm41_eta_below_q(self):
        rc = make_rc(
            power(1), poly_plus(1), Schedule("pow", exponent=Fraction(1, 3)),
            delta=Fraction(0),
        )
        rep = check_condition_6_7(rc, "thm41")
        assert rep.verdict == "fails"

    def test_verdict_flips_exactly_at_eta_equals_q(self):
        grid = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]
        for eta in grid:
            for q in grid:
                rc = make_rc(
                    power(1), poly_plus(q), Schedule("pow", exponent=eta / (1 + eta))
                )
                rep = check_condition_6_7(rc, "thm41")
                expected = "holds_eventually" if eta > q else "fails"
                assert rep.verdict == expected, (eta, q)

    def test_numeric_onset_when_crossing_in_window(self):
        # eta = 5/2, q = 1/2: exponents 5/7 vs 1/3, crossing around n ~ 1.4e5
        rc = make_rc(
            power(1), poly_plus(Fraction(1, 2)),
            Schedule("pow", exponent=Fraction(5, 7)),
        )
        rep = check_condition_6_7(rc, "thm41")
        assert rep.verdict == "holds_eventually"
        assert rep.n0 is not None and 10**4 < rep.n0 <= 10**6

    def test_thm41_fails_at_n_max_when_only_the_last_sample_fails(self):
        # exp_power psi under a log schedule has no analytic verdict.  With
        # delta = 1, L = 1, r = 1068 log n and psi^-1(y) = (ln y)^2, condition
        # (6) is 1068 ln(n)/18 >= 8 log2(n) + 3 ln(3n)^2, which holds from
        # n = 2 to about n = 8.4e5 and fails at n_max = 10^6
        rc = make_rc(power(1), exp_power(Fraction(1, 2)), Schedule("log", coefficient=Fraction(1068)))
        rep = check_condition_6_7(rc, "thm41")
        margins = [1068 * math.log(n) / 18 - 8 * math.log2(n) - 3 * math.log(3 * n) ** 2
                   for n in (s["n"] for s in rep.samples)]
        assert all(m > 1 for m in margins[:-1]) and margins[-1] < -1
        assert [s["holds"] for s in rep.samples] == [True] * (len(margins) - 1) + [False]
        assert (rep.verdict, rep.analytic, rep.n0) == ("fails", False, None)
        assert rep.notes["empirical"] == "fails at n_max"

    def test_bad_mode_rejected(self):
        rc = make_rc(power(1), power(1), Schedule("log", coefficient=Fraction(300)))
        with pytest.raises(PreconditionError):
            check_condition_6_7(rc, "thm43")


def quadratic_onset_5(grid, flags):
    """N0 of condition (5) as first defined: flags[j] says the ratio falls
    from grid[j] to grid[j + 1]."""
    for i in range(len(grid) - 1):
        if all(flags[j] for j in range(i, len(grid) - 1)):
            return grid[i]
    return None


def quadratic_onset_6_7(grid, flags):
    """N0 of conditions (6) and (7) as first defined: flags[j] is grid[j]'s."""
    for i in range(len(grid)):
        if all(flags[j] is True for j in range(i, len(grid))):
            return grid[i]
    return None


def test_sample_grid_closed_form():
    # n_min (n_max/n_min)^(i/39) for i = 0..39, rounded, with both ends and every decade between
    geometric = {round(2 * (10**6 / 2) ** (i / 39)) for i in range(40)}
    expected = sorted(geometric | {2, 10**6} | {10**k for k in range(1, 7)})
    assert _sample_grid(2, 10**6) == expected and len(expected) == 45


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([True, False, None]), max_size=12))
def test_onset_matches_the_quadratic_definitions(flags):
    grid = [2 + 3 * i for i in range(len(flags))]
    assert _onset(grid, flags) == quadratic_onset_6_7(grid, flags)
    decreases = [flag is True for flag in flags]  # condition (5)'s flags are plain bools
    longer = grid + [2 + 3 * len(flags)]
    assert _onset(longer, decreases) == quadratic_onset_5(longer, decreases)


class TestIntervalHelpers:
    def test_interval_arithmetic(self):
        a = FracInterval(Fraction(1), Fraction(2))
        b = FracInterval(Fraction(3), Fraction(4))
        assert (a + b).lo == 4 and (a + b).hi == 6
        assert (b - a).lo == 1 and (b - a).hi == 3
        assert (a * b).lo == 3 and (a * b).hi == 8
        assert (b / a).lo == Fraction(3, 2) and (b / a).hi == 4

    def test_ln_exp_round_trip(self):
        x = FracInterval(Fraction(10))
        ln = x.ln()
        back = FracInterval(exp_pow(ln.lo, Fraction(1))[0], exp_pow(ln.hi, Fraction(1))[1])
        assert back.lo <= 10 <= back.hi
        assert float(back.hi - back.lo) < 1e-6

    def test_integer_power_exact(self):
        x = FracInterval(Fraction(3, 2))
        cube = x.pow_rational(Fraction(3))
        assert cube.lo == cube.hi == Fraction(27, 8)
