import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypme.brackets import exp_pow
from hypme.errors import Budget, BudgetError, ParseError, PreconditionError
from hypme.groups import (
    MAX_ATOM_PARAMETER,
    Growth,
    Spheres,
    ball,
    bfs_growth_table,
    entropy_estimate,
    parse_group,
)
from hypme.rational import FracInterval

from oracles import least_positive_root


class TestParseGroup:
    def test_free_group(self):
        g = parse_group("F2")
        assert g.num_generators == 2
        assert len(g.symmetric_generators()) == 4

    def test_free_abelian(self):
        g = parse_group("Z^2")
        w = g.parse_word("abA")
        assert w == (0, 1)
        assert g.word_length(g.parse_word("aab")) == 3

    def test_cyclic(self):
        g = parse_group("C4")
        assert g.word_length(g.parse_word("aaa")) == 1
        assert g.to_word(g.parse_word("aaa")) == "A"

    def test_products(self):
        fp = parse_group("C2*C3")
        dp = parse_group("F2xC2")
        assert fp.num_generators == 2 and dp.num_generators == 3
        assert dp.describe(dp.parse_word("ac")) == "(a,a)"

    def test_precedence_star_over_x(self):
        g = parse_group("C2*C2xZ")
        # (C2*C2) x Z: infinite dihedral times Z has polynomial growth
        assert (g.growth.kind, g.growth.degree) == ("polynomial", 2)

    def test_errors(self):
        for bad in ("", "F0", "C1", "Q3", "F2*", "Z^0"):
            with pytest.raises(ParseError):
                parse_group(bad)

    def test_letter_cap(self):
        with pytest.raises(ParseError):
            parse_group("F27")

    @pytest.mark.parametrize("spec", [
        "C65537", "C1000000000", "C" + "9" * 5000, "F" + "9" * 5000, "Z^" + "9" * 5000, "F2*C3xC" + "1" * 40,
    ])
    def test_atom_parameter_refused_before_it_is_converted(self, spec):
        # C<n> would build a series of n/2 + 1 terms and a relator of n
        # letters, and int() refuses more than 4300 digits with ValueError
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=f"<= n <= {MAX_ATOM_PARAMETER}"):
                parse_group(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_atom_parameter_bound_is_admitted(self):
        g = parse_group(f"C{MAX_ATOM_PARAMETER}")
        assert g.volume(MAX_ATOM_PARAMETER) == MAX_ATOM_PARAMETER
        assert parse_group("C007").name == "C7"


class TestNormalForms:
    @pytest.mark.parametrize("spec", ["F2", "Z^2", "C2*C3"])
    def test_multiplication_agrees_with_letter_folding(self, spec):
        g = parse_group(spec)
        letters = [lab for lab, _ in g.symmetric_generators()]
        words = [""]
        for _ in range(4):
            words += [w + ch for w in words[-len(letters) ** 3 :] for ch in letters]
        words = sorted(set(words))[:400]
        parsed = {w: g.parse_word(w) for w in words}
        for u, v in itertools.product(words[:80], words[:80]):
            assert g.multiply(parsed[u], parsed[v]) == g.parse_word(u + v)

    @pytest.mark.parametrize("spec", ["F2", "Z^2", "C2*C3", "F2xC2"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_group_axioms_on_random_words(self, spec, data):
        g = parse_group(spec)
        letters = [lab for lab, _ in g.symmetric_generators()]
        mk = lambda: g.parse_word(
            "".join(data.draw(st.sampled_from(letters)) for _ in range(data.draw(st.integers(0, 8))))
        )
        x, y, z = mk(), mk(), mk()
        assert g.multiply(g.multiply(x, y), z) == g.multiply(x, g.multiply(y, z))
        assert g.multiply(x, g.inverse(x)) == g.identity()
        assert g.word_length(g.inverse(x)) == g.word_length(x)

    @pytest.mark.parametrize("spec", ["F2", "Z^2", "C2*C3"])
    def test_word_round_trip(self, spec):
        g = parse_group(spec)
        letters = [lab for lab, _ in g.symmetric_generators()]
        rng = random.Random(4)
        for _ in range(50):
            w = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 10)))
            e = g.parse_word(w)
            assert g.parse_word(g.to_word(e)) == e


# The 24 specs the growth series were first checked on against BFS: every
# family, both products, and the degenerate cases (C2*C2 and C2*C2xZ are
# polynomial, Z*Z is F2 in disguise, C2*C2*C2 has a rational rho).
SERIES_SPECS = [
    "F1", "F2", "F3", "Z", "Z^2", "Z^3", "C2", "C3", "C4", "C5", "C2*C2", "C2*C3",
    "C3*C4", "C2*C2*C2", "F2*C3", "Z^2*C2", "C5*Z", "C3*C4xC2", "F2xZ",
    "C2*C3xC4*C2", "Z*Z", "F2xF2", "Z^2xC3", "C2*C2xZ",
]


# sha256 prefixes of `_normal_form_transcript`, recorded from the free- and
# direct-product classes that `Product` replaced; the last six specs have
# three parts or a product not in SERIES_SPECS
NORMAL_FORM_DIGESTS = {
    "F1": "9630741fc0239197",
    "F2": "36dea45266525a06",
    "F3": "c93e0b90aaec5132",
    "Z": "627a10a7583e108d",
    "Z^2": "9c0f812c0cabd43e",
    "Z^3": "f835e6d0f9c15537",
    "C2": "7ae825b17aa6542b",
    "C3": "2f0b6acdf2307136",
    "C4": "58e643028f64a195",
    "C5": "40ec7166ad850615",
    "C2*C2": "1212f42000ecda57",
    "C2*C3": "b656f492e173e278",
    "C3*C4": "ef6e1c7fd24233c9",
    "C2*C2*C2": "499c4064ce9180d3",
    "F2*C3": "b658f5505c14fc3b",
    "Z^2*C2": "5ed2f8fb331b7e88",
    "C5*Z": "eff6c3af1b72e138",
    "C3*C4xC2": "f86dcf50e8b2bb6c",
    "F2xZ": "89b382dd8799e1dc",
    "C2*C3xC4*C2": "8e7490e4b74d95fe",
    "Z*Z": "fd0f8fe970112e9d",
    "F2xF2": "18cfaf08a91326d0",
    "Z^2xC3": "821e36b24138ebd3",
    "C2*C2xZ": "998cfd5f18908e3a",
    "C2*C3xC4*C2xF2": "9389ea1fac3517a6",
    "C3xC4": "3afa9dd1f8ded618",
    "F2xC2": "c05a506d8d47ffdf",
    "C2xC2xC2": "7b0ea0c321d671b1",
    "C4*C6xZ*C3": "73a7ddb5238ed276",
    "Z^2*Z^2": "8b0d7f4204e12de7",
}


def _normal_form_transcript(spec: str) -> str:
    """Relators, series, and for 60 seeded random pairs of words u, v: the
    product's word, description and length, and the word of u's inverse."""
    g = parse_group(spec)
    letters = [lab for lab, _ in g.symmetric_generators()]
    rng = random.Random(spec)
    lines = [" ".join(g.relators()), repr(g.growth_series())]
    for _ in range(60):
        u, v = ("".join(rng.choice(letters) for _ in range(rng.randrange(14))) for _ in "uv")
        x, y = g.parse_word(u), g.parse_word(v)
        xy = g.multiply(x, y)
        lines.append(f"{u} {v} {g.to_word(xy)} {g.describe(xy)} {g.word_length(xy)} {g.to_word(g.inverse(x))}")
    return "\n".join(lines)


@pytest.mark.parametrize("spec", NORMAL_FORM_DIGESTS)
def test_normal_forms_match_the_recorded_transcript(spec):
    digest = hashlib.sha256(_normal_form_transcript(spec).encode()).hexdigest()[:16]
    assert digest == NORMAL_FORM_DIGESTS[spec]


class TestBalls:
    def test_f2_growth(self):
        b = ball(parse_group("F2"), 2)
        assert list(b.growth) == [1, 5, 17]
        g = parse_group("F2")
        assert all(g.volume(n) == 2 * 3**n - 1 for n in range(8))

    def test_z2_growth(self):
        b = ball(parse_group("Z^2"), 3)
        assert list(b.growth) == [1, 5, 13, 25]
        g = parse_group("Z^2")
        assert all(g.volume(n) == 2 * n * n + 2 * n + 1 for n in range(8))

    def test_c3_saturates(self):
        t = bfs_growth_table(parse_group("C3"), 5)
        assert list(t) == [1, 3, 3, 3, 3, 3]

    @pytest.mark.parametrize("spec", SERIES_SPECS + ["F2xC2"])
    def test_bfs_matches_closed_form(self, spec):
        g = parse_group(spec)
        t = bfs_growth_table(g, 6, budget=Budget(30_000))  # F3 has the largest ball, 23,437
        assert list(t) == [g.volume(n) for n in range(7)]
        spheres = [b - a for a, b in zip(t, t[1:])]
        assert [g.volume(n) - g.volume(n - 1) for n in range(1, 7)] == spheres

    @pytest.mark.parametrize("spec", ["F2", "Z^2", "C2*C3", "F2xC2"])
    def test_word_length_equals_bfs_depth(self, spec):
        g = parse_group(spec)
        b = ball(g, 5)
        for elem, depth in zip(b.elements, b.word_lengths):
            assert g.word_length(elem) == depth

    @pytest.mark.parametrize("spec", ["F2", "Z^2", "C2*C3"])
    def test_interior_degree_is_generator_count(self, spec):
        g = parse_group(spec)
        b = ball(g, 4)
        adj = b.graph.adjacency()
        k = len(g.symmetric_generators())
        for i, depth in enumerate(b.word_lengths):
            if depth <= 3:
                assert len(adj[i]) == k

    @pytest.mark.parametrize("spec", ["F2", "Z^2", "C2*C3", "F2xC2"])
    def test_growth_submultiplicative(self, spec):
        g = parse_group(spec)
        vols = [g.volume(n) for n in range(11)]
        for m in range(11):
            for n in range(11 - m):
                assert vols[m + n] <= vols[m] * vols[n]

    def test_budget_names_radius(self):
        with pytest.raises(BudgetError, match="radius 3"):
            bfs_growth_table(parse_group("F2"), 8, budget=Budget(40))

    def test_spheres_retry_over_budget_charges_nothing(self):
        # F2 has 1 + 4 elements within radius 1 and 12 more at radius 2
        budget = Budget(5 + 11)
        spheres = Spheres(parse_group("F2"), budget=budget)
        for _ in range(2):
            with pytest.raises(BudgetError, match=r"12 group elements at radius 2 \(radius 1 completed\)"):
                spheres.ball(3)
            assert budget.spent == 5 and len(spheres.ball(1)) == 5
        with pytest.raises(PreconditionError, match="radius must be >= 0"):
            Spheres(parse_group("F2"), budget=Budget(0)).ball(-1)

    def test_finite_group_levels_stop_at_the_first_empty_one(self):
        # C6 has levels {0}, {1, 5}, {2, 4}, {3}, then the empty level 4,
        # which every later depth reads without growing the BFS
        to_four = Budget()
        Spheres(parse_group("C6"), budget=to_four)[4]
        budget = Budget()
        spheres = Spheres(parse_group("C6"), budget=budget)
        assert spheres[10**6] == [] and spheres[3] == [3]
        assert len(spheres._levels) <= 5
        assert budget.spent == to_four.spent == 6
        with pytest.raises(PreconditionError, match="radius must be >= 0"):
            spheres[-1]

    @pytest.mark.parametrize("spec, radius", [("F2", 5), ("Z^2", 6), ("C2*C3", 7), ("C3xC4", 8)])
    def test_growth_table_matches_ball(self, spec, radius):
        # C3xC4 has diameter 3, so its levels run out before the radius
        g = parse_group(spec)
        assert bfs_growth_table(g, radius) == ball(g, radius).growth

    @pytest.mark.parametrize("spec", [
        "F2", "Z", "Z^2", "Z^3", "C2", "C3", "C4", "C7", "C2*C2", "C2*C3", "C4*Z", "C5*Z",
        "F2xC2", "C2xC2", "C2xC3", "C2*C3xZ",
    ])
    def test_ball_is_tree_read_off_the_relators(self, spec):
        g = parse_group(spec)
        for radius in range(5):
            assert g.ball_is_tree(radius) == ball(g, radius).graph.is_tree, radius

    def test_ball_deterministic(self):
        b1 = ball(parse_group("C2*C3"), 5)
        b2 = ball(parse_group("C2*C3"), 5)
        assert b1.elements == b2.elements
        assert b1.graph.edges == b2.graph.edges


class TestGrowthSeries:
    # products are not reduced: C2*C2 is (1+t)^2/((1+t)(1-t)), Z*Z is
    # (1+t)^2/((1+t)(1-3t)); the numerator has no positive root, so the
    # common factor never moves rho
    @pytest.mark.parametrize(
        "spec, denominator",
        [("F3", [1, -5]), ("Z^2", [1, -2, 1]), ("C4", [1]), ("C2*C3", [1, 0, -2]),
         ("C2*C2", [1, 0, -1]), ("Z*Z", [1, -2, -3]), ("F2xZ", [1, -4, 3])],
    )
    def test_closed_forms(self, spec, denominator):
        assert parse_group(spec).growth_series()[1] == denominator

    @pytest.mark.parametrize(
        "factors", [[2], [3, 3], [2, 5], [4, 1, 1], [7, 2, 3], [3, -1, 6], [2, 2], [4, 4, 3]]
    )
    def test_rational_root_is_exact(self, factors):
        # D = prod (1 - m t): the least positive root is 1/max(m), exactly;
        # [2, 2] and [4, 4, 3] put a double root on a bisection midpoint
        den = [1]
        for m in factors:
            den = [a - m * b for a, b in zip(den + [0], [0] + den)]
        growth = Growth.of_denominator(den)
        top = max(factors)
        assert growth.kind == "exponential" and growth.rho == Fraction(1, top)
        assert (growth.entropy.lo, growth.entropy.hi) == tuple(FracInterval(top).ln())

    @pytest.mark.parametrize(
        "den",
        [[1, 0, -2], [1, -1, -1], [1, 0, 0, -3], [1, -1, -4, -4], [1, 0, -4, -1, 4, 2],
         [1, -3, 0, 1], [1, 5, -40, 3], [1, -1, 0, 0, 0, 0, -1]],
    )
    def test_irrational_root_matches_numpy(self, den):
        growth = Growth.of_denominator(den)
        rho = least_positive_root(den)
        assert growth.kind == "exponential" and growth.rho is None
        assert float(growth.entropy.lo) - 1e-9 <= -math.log(rho) <= float(growth.entropy.hi) + 1e-9
        assert growth.entropy.hi - growth.entropy.lo <= Fraction(1, 2**30)

    @pytest.mark.parametrize("den", [[1, 1], [1, 0, 1], [1, 2, 3]])
    def test_no_root_in_unit_interval_is_bounded(self, den):
        assert least_positive_root(den) is None or least_positive_root(den) > 1
        growth = Growth.of_denominator(den)
        assert (growth.kind, growth.degree, growth.entropy.hi) == ("bounded", 0, 0)


class TestEntropy:
    def test_f2_estimates(self):
        g = parse_group("F2")
        est = entropy_estimate(g, 12)
        assert g.growth.rho == Fraction(1, 3) and est.declared == "log(3)"
        assert est.declared_exact
        assert abs(est.ratio_estimates[-1] - math.log(3)) < 0.02
        assert est.lower <= Fraction(109862, 100000)
        assert est.lower > Fraction(109860, 100000)

    def test_z2_declared_zero(self):
        g = parse_group("Z^2")
        est = entropy_estimate(g, 10)
        assert g.growth.kind == "polynomial" and g.growth.entropy.hi == 0
        assert est.declared == "0" and est.lower == 0
        assert est.point_estimates[-1] < 0.6

    def test_c3_zero(self):
        g = parse_group("C3")
        est = entropy_estimate(g, 6)
        assert g.growth.kind == "bounded" and est.declared == "0" and est.lower == 0
        assert est.ratio_estimates[-1] == 0

    def test_free_product_bracket_contains_log_sqrt2(self):
        # C2*C3 has growth series (1+t)(1+2t)/(1-2t^2), so h = ln sqrt(2)
        g = parse_group("C2*C3")
        est = entropy_estimate(g, 8)
        h = g.growth.entropy
        assert est.lower == h.lo > 0
        assert h.hi - h.lo <= Fraction(1, 2**30)
        # ln sqrt(2) in [lo, hi] iff 2 in [exp(2 lo), exp(2 hi)]
        assert exp_pow(2 * h.lo, Fraction(1))[1] <= 2 <= exp_pow(2 * h.hi, Fraction(1))[0]

    @pytest.mark.parametrize("spec, base", [("F2", 3), ("F3", 5), ("F2xZ", 3), ("F2xF2", 3)])
    def test_free_factor_bounds_are_exact_logs(self, spec, base):
        h = parse_group(spec).growth.entropy
        assert (h.lo, h.hi) == tuple(FracInterval(base).ln())

    def test_lower_below_declared(self):
        for spec in ("F2", "F3", "Z^2", "C2*C3"):
            g = parse_group(spec)
            est = entropy_estimate(g, 8)
            assert est.lower <= g.growth.entropy.hi


class TestGrowthClasses:
    def test_families(self):
        kinds = {
            "F2": ("exponential", 0, "log(3)"),
            "Z^3": ("polynomial", 3, "0"),
            "C6": ("bounded", 0, "0"),
            "C2*C2": ("polynomial", 1, "0"),
            "Z^2xC3": ("polynomial", 2, "0"),
            "F2xZ^2": ("exponential", 0, "log(3)"),
            "C2*C2*C2": ("exponential", 0, "log(2)"),
            "C2*C3": ("exponential", 0, "-log(rho), rho the least positive root of 1-2t^2"),
        }
        for spec, (kind, degree, entropy) in kinds.items():
            g = parse_group(spec).growth
            assert (g.kind, g.degree, g.describe()) == (kind, degree, entropy), spec
        assert parse_group("C6").volume(9) == 6
