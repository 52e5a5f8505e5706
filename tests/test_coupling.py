import contextlib
import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from hypme import coupling
from hypme.coupling import (
    CheckReport,
    Coupling,
    check_actions_commute,
    check_b_identity,
    check_cocycle_identity,
    check_fundamental_domains,
    check_inverse_relation,
    claim_bound_check,
    claim_bound_sweep,
    coboundedness_witness,
    coupling_from_spec,
    integrability_report,
    projection_and_similarity,
    strengthen_coboundedness,
    subgroup_coupling,
    subgroup_data,
)
from hypme.errors import Budget, BudgetError, PreconditionError
from hypme.groups import FreeGroup, parse_group
from hypme.integrability import exp_power, power
from hypme.rational import matrix_rank
from oracles import (
    brute_claim_sweep,
    independent_word_lengths,
    signed_trace,
    sympy_coset_table,
    traced_transversal,
)

F2_GENS = ["aa", "b", "abA"]
INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.fixture(scope="module")
def f2():
    return parse_group("F2")


@pytest.fixture(scope="module")
def f2_coupling(f2):
    return subgroup_coupling(f2, F2_GENS)


@pytest.fixture(scope="module")
def z2_coupling():
    return subgroup_coupling(parse_group("Z^2"), ["aa", "b"])


def f2_coupling_with(limit):
    """A fresh F2 coupling whose Budget has `limit` units, of which coset
    enumeration has spent 2, one per coset of the index-2 subgroup."""
    return subgroup_coupling(parse_group("F2"), F2_GENS, budget=Budget(limit))


class TestSubgroupCoupling:
    def test_f2_index_and_transversal(self, f2, f2_coupling):
        c = f2_coupling
        assert c.index == 2
        assert [f2.describe(t) for t in c.sub.transversal] == ["e", "a"]
        assert c.x0 == f2.identity() and c.mu_x_lambda() == 2

    def test_index_agrees_with_parity_homomorphism(self, f2, f2_coupling):
        # the subgroup is the kernel of a |-> 1, b |-> 0 into C2: check that
        # membership matches word parity on a ball (independent of the tables)
        c = f2_coupling
        from hypme.groups import ball

        for g in ball(f2, 5).elements:
            parity = sum(1 for ch in f2.to_word(g) if ch in "aA") % 2
            assert c.sub.contains(g) == (parity == 0)

    def test_z2_coupling(self, z2_coupling):
        c = z2_coupling
        assert c.index == 2
        z2 = c.group
        assert [z2.describe(t) for t in c.sub.transversal] == ["e", "a"]

    def test_infinite_index_rejected(self, f2):
        with pytest.raises(PreconditionError, match="infinite index"):
            subgroup_coupling(f2, ["a"])

    @pytest.mark.parametrize("spec", ["F2", "Z^3", "C2*C3", "C3xC4", "F2xZ", "Z^2*C2", "Z*C3"])
    def test_free_rank_from_relators(self, spec):
        # the relators' exponent sums give the free rank of the closed form:
        # the sum over atoms of k for F_k and d for Z^d
        rank = sum(int(k or 1) for k in re.findall(r"(?:F|Z\^?)(\d*)", spec))
        g = parse_group(spec)
        if rank:
            with pytest.raises(PreconditionError, match=rf"image has rank 0 < {rank}$"):
                subgroup_data(g, [])
        else:  # nothing to refuse: the trivial subgroup goes on to enumeration
            with contextlib.suppress(BudgetError):
                subgroup_data(g, [], Budget(64))
        gens = [g.letter(i) for i in range(g.num_generators)]
        assert subgroup_data(g, gens).index == 1

    @pytest.mark.parametrize("spec, gens, message", [
        ("Z^2", ["a"], "rank 1 < 2"), ("F2xZ", ["a", "b"], "rank 2 < 3"),
    ])
    def test_rank_refusals_keep_their_numbers(self, spec, gens, message):
        with pytest.raises(PreconditionError, match=f"abelianized image has {message}$"):
            subgroup_data(parse_group(spec), gens)

    def test_matrix_rank_matches_sympy(self):
        from sympy import Matrix

        rng = random.Random(7)
        for _ in range(300):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            if rows > 1 and rng.random() < 0.5:  # force a dependent row
                k = rng.randint(-2, 2)
                m[-1] = [x + k * y for x, y in zip(m[0], m[1])]
            assert matrix_rank(m) == Matrix(m).rank(), m
        assert matrix_rank([]) == 0

    def test_undetectable_infinite_index_hits_budget(self):
        # <a, bab^-1> in C2*C3 has infinite index but full abelian rank (0)
        g = parse_group("C2*C3")
        with pytest.raises(BudgetError):
            subgroup_coupling(g, ["a"], budget=Budget(300))

    def test_from_spec_json(self):
        spec = json.dumps(
            {"group": "F2", "subgroup_generators": F2_GENS, "x_gamma": "e"}
        )
        c = coupling_from_spec(spec)
        assert c.index == 2

    def test_from_spec_charges_its_cosets(self):
        # enumeration defines the index-2 subgroup's 2 cosets and no BFS runs yet
        b = Budget()
        coupling_from_spec({"group": "F2", "subgroup_generators": F2_GENS, "x_gamma": "e"}, b)
        assert b.spent == 2

    def test_actions_commute(self, f2_coupling):
        rep = check_actions_commute(f2_coupling, 3, samples=150, seed=0)
        assert rep.passed


class TestCosetEnumeration:
    GROUPS = ["F2", "F3", "Z^2", "Z^3", "C6", "C3xC4", "C4xC6xC2", "C2*C3", "C2*C2*C2",
              "C5*Z", "F2xZ", "Z^2*C2", "C3*C4xC2"]

    def test_tables_match_sympy(self):
        # random subgroups, no rank check first: infinite-index ones hit the cap
        rng = random.Random(13)
        cap = 50
        finished = refused = 0
        for name in self.GROUPS:
            g = parse_group(name)
            letters = [g.letter(i) for i in range(g.num_generators)]
            letters += [x.upper() for x in letters]
            for _ in range(4):
                words = [
                    g.parse_word("".join(rng.choice(letters) for _ in range(rng.randint(0, 6))))
                    for _ in range(rng.randint(1, 3))
                ]
                expected = sympy_coset_table(g, words, cap)
                try:
                    table, defined = coupling._build_coset_table(g, words, cap)
                    assert len(table) <= defined <= cap
                except BudgetError:
                    table = None
                assert table == expected, (name, [g.to_word(w) for w in words])
                finished += table is not None
                refused += table is None
        assert finished >= 15 and refused >= 5, (finished, refused)

    def test_cap_counts_the_subgroup_coset(self):
        # F2 over <aa, b, abA> has index 2: a cap of 2 cosets admits it, 1 does not
        f2 = parse_group("F2")
        gens = [f2.parse_word(w) for w in F2_GENS]
        assert coupling._build_coset_table(f2, gens, 2)[1] == 2
        with pytest.raises(BudgetError, match="stopped at 1 cosets"):
            coupling._build_coset_table(f2, gens, 1)

    # Frozen from the signed-index relators (k + 1 for letter k, -(k + 1) for
    # its inverse, read as column 2k or 2k + 1): each group's relator columns,
    # in order, and the cosets its subgroup's table holds and defines.
    FROZEN = [
        ("F2", ["aa", "b", "abA"], [], 2, 2),
        ("Z^3", ["aa", "b", "c"], [[0, 2, 1, 3], [0, 4, 1, 5], [2, 4, 3, 5]], 2, 2),
        ("C5", [], [[0, 0, 0, 0, 0]], 5, 5),
        ("C2*C3", ["b", "aba"], [[0, 0], [2, 2, 2]], 2, 3),
        ("C3xC4", [], [[0, 0, 0], [2, 2, 2, 2], [0, 2, 1, 3]], 12, 14),
        ("F2xZ", ["aa", "b", "c", "abA"], [[0, 4, 1, 5], [2, 4, 3, 5]], 2, 2),
        ("Z^2*C2", ["a", "b", "cac", "cbc"], [[0, 2, 1, 3], [4, 4]], 2, 3),
        ("Z^2xC2xC3", ["aa", "b"], [
            [0, 2, 1, 3], [4, 4], [6, 6, 6], [0, 4, 1, 5],
            [2, 4, 3, 5], [0, 6, 1, 7], [2, 6, 3, 7], [4, 6, 5, 7],
        ], 12, 14),
    ]

    @pytest.mark.parametrize("spec, words, columns, index, defined", FROZEN)
    def test_relator_words_keep_their_columns(self, spec, words, columns, index, defined):
        g = parse_group(spec)
        rels = g.relators()
        assert all(isinstance(rel, str) for rel in rels)
        assert [coupling._columns(g, rel) for rel in rels] == columns
        gens = [g.parse_word(w) for w in words]
        table, count = coupling._build_coset_table(g, gens, 20_000)
        assert (len(table), count) == (index, defined)


def random_words(g, rng, count: int, longest: int) -> list:
    letters = [g.letter(i) for i in range(g.num_generators)]
    letters += [x.upper() for x in letters]
    return [
        g.parse_word("".join(rng.choice(letters) for _ in range(rng.randint(0, longest))))
        for _ in range(count)
    ]


class TestTraceByLetter:
    """SubgroupData.trace reads columns by letter; the oracle walks signed indices."""

    GOLDEN_SPECS = [("F2", F2_GENS), ("Z^2", ["aa", "b"]), ("C2*C3", ["b", "aba"]), ("C3xC4", ["b"])]

    @staticmethod
    def assert_traces_match(sub, rng):
        for g in random_words(sub.group, rng, 30, 12):
            assert sub.trace(0, g) == signed_trace(sub, 0, g)
            for c in range(sub.index):
                assert sub.trace(c, g) == signed_trace(sub, c, g), (sub.group.to_word(g), c)

    @pytest.mark.parametrize("seed, spec", enumerate(GOLDEN_SPECS))
    def test_golden_specs(self, seed, spec):
        name, gens = spec
        sub = coupling.subgroup_data(parse_group(name), gens)
        self.assert_traces_match(sub, random.Random(seed))

    def test_random_subgroups(self):
        rng = random.Random(29)
        traced = []
        for name in TestCosetEnumeration.GROUPS:
            g = parse_group(name)
            for _ in range(6):
                gens = [g.to_word(w) for w in random_words(g, rng, rng.randint(1, 3), 6)]
                try:
                    sub = coupling.subgroup_data(g, gens, Budget(100))
                except (BudgetError, PreconditionError):  # infinite or large index
                    continue
                self.assert_traces_match(sub, rng)
                traced.append(sub.index)
        assert len(traced) >= 20 and max(traced) >= 12, traced


class TestTransversalFromTable:
    """subgroup_data reads the transversal and the Schreier generators off the
    table's columns; the oracle multiplies on the left and traces each word."""

    @staticmethod
    def assert_matches_oracle(sub):
        transversal, schreier = traced_transversal(sub)
        assert sub.transversal == transversal
        assert sub.schreier_generators == schreier

    @pytest.mark.parametrize("spec", TestTraceByLetter.GOLDEN_SPECS, ids=lambda s: s[0])
    def test_golden_specs(self, spec):
        name, gens = spec
        self.assert_matches_oracle(coupling.subgroup_data(parse_group(name), gens))

    def test_random_subgroups(self):
        rng = random.Random(31)
        indices = []
        for name in TestCosetEnumeration.GROUPS:
            g = parse_group(name)
            for _ in range(10):
                gens = [g.to_word(w) for w in random_words(g, rng, rng.randint(1, 3), 6)]
                try:
                    sub = coupling.subgroup_data(g, gens, Budget(100))
                except (BudgetError, PreconditionError):  # infinite or large index
                    continue
                self.assert_matches_oracle(sub)
                indices.append(sub.index)
        assert len(indices) >= 20 and sum(i >= 12 for i in indices) >= 3, indices


class TestCocycles:
    def test_alpha_examples(self, f2, f2_coupling):
        c = f2_coupling
        e, a = f2.identity(), f2.parse_word("a")
        assert c.alpha(a, e) == e
        assert c.alpha(a, a) == f2.parse_word("aa")
        assert c.alpha(e, a) == e

    def test_alpha_of_generators_are_schreier_generators(self, f2, f2_coupling):
        c = f2_coupling
        for _, s in f2.symmetric_generators():
            for x in c.x_lambda_points():
                val = c.alpha(s, x)
                assert f2.is_identity(val) or val in c.sub.schreier_generators

    def test_alpha_returns_the_induced_point_on_z2(self, z2_coupling):
        c = z2_coupling
        for _, s in c.group.symmetric_generators():
            for x in c.x_lambda_points():
                lam = c.alpha(s, x)
                assert c.sub.contains(lam)
                moved = c.group.multiply(s, x)
                assert c.lambda_act(lam, moved) == c.induced_gamma(s, x)
                assert c.in_x_lambda(c.induced_gamma(s, x))

    def test_beta_is_conjugation_by_base_point(self, f2):
        c = subgroup_coupling(f2, F2_GENS, x_gamma_word="a")
        lam = f2.parse_word("aa")
        g0 = f2.parse_word("a")
        assert c.beta(lam) == f2.multiply(g0, f2.multiply(lam, f2.inverse(g0)))

    def test_cocycle_domain_errors(self, f2, f2_coupling):
        c = f2_coupling
        a = f2.parse_word("a")
        assert c.alpha(a, a) == f2.parse_word("aa")
        with pytest.raises(PreconditionError):
            c.alpha(a, f2.parse_word("aa"))  # aa not in T
        with pytest.raises(PreconditionError):
            c.beta(a)  # a is not in the subgroup

    def test_cocycle_identity_f2(self, f2_coupling):
        rep = check_cocycle_identity(f2_coupling, 3)
        assert rep.cases == 53 * 53 * 2
        assert rep.passed

    def test_cocycle_identity_z2(self, z2_coupling):
        rep = check_cocycle_identity(z2_coupling, 4)
        assert rep.passed and rep.cases > 0

    def test_cocycle_identity_radius_zero_vacuous(self, f2_coupling):
        rep = check_cocycle_identity(f2_coupling, 0)
        assert rep.cases == 0 and rep.passed

    def test_inverse_relation(self, f2_coupling, z2_coupling):
        assert check_inverse_relation(f2_coupling, 4).passed
        assert check_inverse_relation(z2_coupling, 4).passed

    def test_inverse_relation_requires_inclusion(self, f2):
        c = subgroup_coupling(f2, F2_GENS, x_gamma_word="b")
        with pytest.raises(PreconditionError, match="strengthen"):
            check_inverse_relation(c, 2)

    def test_b_identity(self, f2_coupling, z2_coupling):
        assert check_b_identity(f2_coupling, 2).passed
        assert check_b_identity(z2_coupling, 3).passed

    def test_fundamental_domains(self, f2_coupling, z2_coupling):
        assert check_fundamental_domains(f2_coupling, 3).passed
        assert check_fundamental_domains(z2_coupling, 3).passed


def _with_fault(c, **methods):
    """A copy of coupling `c` whose class overrides `methods`."""
    return type("FaultyCoupling", (Coupling,), methods)(c.group, c.sub, c.shift, c.x0)


def _wrong_at(method, at: str):
    """`method`, its result multiplied by b when its first argument is `at`."""

    def wrong(self, first, *rest):
        right, g = method(self, first, *rest), self.group
        return g.multiply(right, g.parse_word("b")) if first == g.parse_word(at) else right

    return wrong


def _lambda_acts_on_the_left(self, lam, w):
    return self.group.multiply(self.group.inverse(lam), w)


class _OneWrongProduct(FreeGroup):
    """F2 with ab e = e, so the gamma translates of x0 = e by e and ab collide."""

    def multiply(self, g, h):
        return "" if (g, h) == ("ab", "") else super().multiply(g, h)


# one fault per check, and one per kind of violation the fundamental-domain
# check counts: a repeated coset representative, a gamma-side collision (and
# so a point left uncovered), and a lambda side that collides and fails the
# round trip
FAULTS = {
    "alpha wrong at ab": (
        lambda c: _with_fault(c, alpha=_wrong_at(Coupling.alpha, "ab")),
        lambda c: check_cocycle_identity(c, 2),
    ),
    "beta wrong at aa, inverse relation": (
        lambda c: _with_fault(c, beta=_wrong_at(Coupling.beta, "aa")),
        lambda c: check_inverse_relation(c, 2),
    ),
    "beta wrong at aa, b identity": (
        lambda c: _with_fault(c, beta=_wrong_at(Coupling.beta, "aa")),
        lambda c: check_b_identity(c, 2),
    ),
    "lambda acting on the left": (
        lambda c: _with_fault(c, lambda_act=_lambda_acts_on_the_left),
        lambda c: check_actions_commute(c, 2, samples=50, seed=1),
    ),
    "lambda acting trivially": (
        lambda c: _with_fault(c, lambda_act=lambda self, lam, w: w),
        lambda c: check_fundamental_domains(c, 2),
    ),
    "a repeated coset representative": (
        lambda c: replace(c, sub=replace(c.sub, transversal=c.sub.transversal[:1] * c.index)),
        lambda c: check_fundamental_domains(c, 2),
    ),
    "a wrong product": (
        lambda c: subgroup_coupling(_OneWrongProduct(2), F2_GENS),
        lambda c: check_fundamental_domains(c, 2),
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_checks_report_an_injected_fault(f2_coupling, fault):
    inject, check = FAULTS[fault]
    assert check(f2_coupling).passed
    rep = check(inject(f2_coupling))
    assert rep.violations > 0 and not rep.passed


class TestLambdaMetric:
    def test_lengths_match_independent_bfs(self, f2, f2_coupling):
        c = f2_coupling
        targets = [f2.parse_word(w) for w in ("aa", "b", "Aba", "aabb", "bb")]
        mine = c.lambda_lengths(set(targets))
        ref = independent_word_lengths(f2, list(c.sub.schreier_generators), targets)
        for t in targets:
            assert mine[t] == ref[t]

    def test_ball_sizes_free_rank_three(self, f2_coupling):
        # the index-2 subgroup of F2 is free of rank 3: |B(r)| = 1 + 3((5^r)-1)/2
        assert [len(f2_coupling.lambda_spheres[d]) for d in range(4)] == [1, 6, 30, 150]

    def test_non_subgroup_target_errors(self, f2, f2_coupling):
        with pytest.raises(PreconditionError):
            f2_coupling.lambda_lengths({f2.parse_word("a")})

    @pytest.mark.parametrize("group, gens", [("F2", F2_GENS), ("C3xC4", ["b"])])
    def test_lengths_agree_with_ball_depths(self, group, gens):
        # the subgroup <b> of C3xC4 has order 4, so its ball stops growing
        c = subgroup_coupling(parse_group(group), gens)
        g = c.group
        ref = independent_word_lengths(g, c.sub.schreier_generators, max_radius=3)
        assert sorted(c.lambda_spheres.ball(3), key=g.to_word) == sorted(ref, key=g.to_word)
        assert c.lambda_lengths(set(ref)) == ref

    def test_budget_names_radius(self, f2):
        # the rank-3 free subgroup has 7 elements within radius 1 and 37 within 2
        c = f2_coupling_with(20)
        with pytest.raises(BudgetError, match=r"at radius 2 \(radius 1 completed\)"):
            c.lambda_spheres.ball(4)
        # the levels read stay; a retry is refused with the same charge, charging nothing
        assert len(c.lambda_spheres.ball(1)) == 7
        with pytest.raises(BudgetError, match=r"at radius 2 \(radius 1 completed\)"):
            c.lambda_spheres.ball(2)
        aaaaaa = f2.parse_word("aaaaaa")  # (aa)^3: Schreier length 3
        with pytest.raises(BudgetError, match=r"at radius 2 \(radius 1 completed\)"):
            f2_coupling_with(20).lambda_lengths({aaaaaa})
        assert f2_coupling_with(2 + 187).lambda_lengths({aaaaaa})[aaaaaa] == 3

    def test_within_leaves_out_longer_targets(self, f2):
        # aa has Schreier length 1 and (aa)^3 length 3: within 2, only aa is
        # resolved, and B_lambda is read to depth 2 only (37 elements)
        aa, aaaaaa = f2.parse_word("aa"), f2.parse_word("aaaaaa")
        c = f2_coupling_with(2 + 37)
        assert c.lambda_lengths({aaaaaa}, within=2) == {}
        assert c.budget.spent == 2 + 37
        assert c.lambda_lengths({aa, aaaaaa}, within=2) == {aa: 1}
        assert f2_coupling_with(2 + 187).lambda_lengths({aa, aaaaaa}, within=3) == {aa: 1, aaaaaa: 3}


class TestSharedBalls:
    """Each coupling runs one BFS per side; every check reads its two balls."""

    def test_smaller_reads_charge_nothing(self, f2):
        c = f2_coupling_with(10_000)
        ball3 = c.lambda_spheres.ball(3)
        spent = c.budget.spent
        assert spent == 2 + 187 == 2 + len(ball3)  # the 2 cosets, then the ball
        assert c.lambda_spheres.ball(2) == ball3[:37]
        inside = {f2.parse_word(w) for w in ("aa", "bb", "aab", "Abab")}
        assert set(c.lambda_lengths(inside)) == inside
        assert check_inverse_relation(c, 3).cases == 187
        assert c.budget.spent == spent

    def test_gamma_ball_is_a_prefix(self, f2):
        c = f2_coupling_with(10_000)
        ball3 = c.gamma_spheres.ball(3)
        assert c.budget.spent == 2 + 53 == 2 + len(ball3)  # the 2 cosets, then the ball
        assert c.gamma_spheres.ball(1) == ball3[:5]
        assert c.budget.spent == 2 + 53

    def test_read_past_a_finite_subgroup(self):
        # <b> in C3xC4 has order 4: its levels end, and reading on charges 0
        c = subgroup_coupling(parse_group("C3xC4"), ["b"], budget=Budget(100))
        whole = c.lambda_spheres.ball(3)
        spent = c.budget.spent
        assert len(whole) == 4
        assert c.lambda_spheres.ball(10) == whole
        assert c.budget.spent == spent

    def test_negative_radius_refused(self, f2_coupling):
        with pytest.raises(PreconditionError, match="radius must be >= 0"):
            f2_coupling.lambda_spheres.ball(-1)
        with pytest.raises(PreconditionError, match="radius must be >= 0"):
            check_fundamental_domains(f2_coupling, -1)

    def test_strengthening_keeps_the_budget(self, f2):
        c = subgroup_coupling(f2, F2_GENS, x_gamma_word="b", budget=Budget(10_000))
        st = strengthen_coboundedness(c)
        assert st.budget is c.budget


class TestProjections:
    def test_identity_projection(self, f2_coupling):
        rep = projection_and_similarity(
            f2_coupling, "lambda", ["e", "a"], ["e", "a"], power(1)
        )
        assert rep["integral"] == "0/1"
        assert rep["correction_set"] == ["e"]

    def test_alternate_transversal(self, f2, f2_coupling):
        rep = projection_and_similarity(
            f2_coupling, "lambda", ["e", "a"], ["e", "aB"], power(1)
        )
        assert rep["linf_equivalent"]
        # pi(a) = aB with correction (aB)^-1 a = bA a... in the subgroup
        corr = [w for w in rep["correction_set"] if w != "e"]
        assert len(corr) == 1
        lam = f2.parse_word(corr[0])
        assert f2_coupling.sub.contains(lam)
        dist = f2_coupling.lambda_lengths({lam})[lam]
        assert rep["integral"] == f"{dist}/1"

    def test_linf_equivalence_symmetric_transitive(self, f2_coupling):
        transversals = [["e", "a"], ["e", "aB"], ["e", "abb"], ["e", "A"]]
        for X1 in transversals:
            for X2 in transversals:
                fwd = projection_and_similarity(f2_coupling, "lambda", X1, X2, power(1))
                back = projection_and_similarity(f2_coupling, "lambda", X2, X1, power(1))
                assert fwd["linf_equivalent"] and back["linf_equivalent"]
                assert fwd["integral"] == back["integral"]  # displacement symmetry

    def test_invalid_transversal_rejected(self, f2_coupling):
        with pytest.raises(PreconditionError, match="transversal"):
            projection_and_similarity(f2_coupling, "lambda", ["e", "a"], ["e", "aa"], power(1))

    def test_gamma_side(self, f2_coupling):
        rep = projection_and_similarity(f2_coupling, "gamma", ["e"], ["ab"], power(2))
        assert rep["displacements"] == [2]
        assert rep["integral"] == "4/1"


class TestIntegrability:
    def test_f2_exact_constants(self, f2, f2_coupling):
        rep = integrability_report(f2_coupling, power(1), power(1))
        assert rep.exact
        # independent recomputation of K
        best = Fraction(0)
        ref_lengths = independent_word_lengths(
            f2, list(f2_coupling.sub.schreier_generators),
            [f2_coupling.alpha(s, x) for _, s in f2.symmetric_generators()
             for x in f2_coupling.x_lambda_points()],
        )
        for _, s in f2.symmetric_generators():
            total = sum(
                Fraction(ref_lengths[f2_coupling.alpha(s, x)])
                for x in f2_coupling.x_lambda_points()
            )
            best = max(best, total)
        assert rep.k_constant == best
        # L: beta on a singleton at e is lambda itself, so L = max |t|_{S_Gamma}
        assert rep.l_constant == max(
            f2.word_length(t) for t in f2_coupling.sub.schreier_generators
        )
        assert rep.beta_sup == 3

    def test_finite_for_any_phi(self, f2_coupling):
        rep = integrability_report(f2_coupling, power(5), power(3))
        assert isinstance(rep.k_constant, Fraction)  # finite sum, always defined

    def test_exp_power_bounds(self, f2_coupling):
        rep = integrability_report(f2_coupling, power(1), exp_power(1))
        assert not rep.exact
        lo, hi = rep.l_constant
        assert 0 < lo <= hi

    def test_generating_set_robustness(self, f2, f2_coupling):
        # adding a generator to S_lambda keeps power-integrals finite with the
        # same finiteness verdict (values may differ)
        c = f2_coupling
        extra = f2.parse_word("aabb")
        bigger = list(c.sub.schreier_generators) + [extra, f2.inverse(extra)]
        targets = [c.alpha(s, x) for _, s in f2.symmetric_generators() for x in c.x_lambda_points()]
        ref = independent_word_lengths(f2, bigger, targets)
        total = sum(ref[t] for t in targets)
        assert total < float("inf")


class TestCoboundedness:
    def test_witness_default_is_identity(self, f2, f2_coupling):
        assert coboundedness_witness(f2_coupling) == [f2.identity()]

    def test_witness_for_b(self, f2):
        c = subgroup_coupling(f2, F2_GENS, x_gamma_word="b")
        W = coboundedness_witness(c)
        assert [f2.describe(w) for w in W] == ["B"]
        assert not c.x_gamma_in_x_lambda()

    def test_witness_for_a_is_identity(self, f2):
        # 'a' is itself a transversal representative, so e * X_lambda covers it
        c = subgroup_coupling(f2, F2_GENS, x_gamma_word="a")
        W = coboundedness_witness(c)
        assert [f2.describe(w) for w in W] == ["e"]
        assert c.x_gamma_in_x_lambda()

    def test_witness_covers(self, f2):
        for word in ("b", "ab", "aab", "ba"):
            c = subgroup_coupling(f2, F2_GENS, x_gamma_word=word)
            st = strengthen_coboundedness(c)
            assert st.x_gamma_in_x_lambda()


# (group, subgroup generators, x_gamma): the golden specs, and F2 at base
# points outside X_lambda, each with its own one-element witness
STRENGTHEN_CASES = [
    ("F2", F2_GENS, "e"),
    ("F2", F2_GENS, "b"),
    ("Z^2", ["aa", "b"], "e"),
    ("C2*C3", ["b", "aba"], "e"),
    ("C3xC4", ["b"], "e"),
    ("F2", F2_GENS, "ab"),
    ("F2", F2_GENS, "aab"),
    ("F2", F2_GENS, "ba"),
]


class TestStrengthening:
    def test_trivial_witness_is_isomorphic(self, f2, f2_coupling):
        st = strengthen_coboundedness(f2_coupling)
        assert st.shift == f2_coupling.shift == f2.identity()
        assert st.x0 == f2_coupling.x0
        assert st.x_lambda_points() == f2_coupling.x_lambda_points()

    @pytest.mark.parametrize("case", STRENGTHEN_CASES, ids=[f"{g}@{x}" for g, _, x in STRENGTHEN_CASES])
    def test_strengthened_passes_the_checks(self, case):
        group, gens, x_gamma = case
        st = strengthen_coboundedness(subgroup_coupling(parse_group(group), gens, x_gamma_word=x_gamma))
        assert st.x_gamma_in_x_lambda()
        assert coboundedness_witness(st) == [st.group.identity()]
        assert strengthen_coboundedness(st) == st
        for report in (
            check_fundamental_domains(st, 3),
            check_inverse_relation(st, 3),
            check_cocycle_identity(st, 2),
            check_b_identity(st, 2),
        ):
            assert report.passed and report.cases > 0, report

    def test_shift_is_the_witness(self, f2):
        # x0 = b lies in the coset L of e: the witness B moves X_lambda = {e, a}
        # to {e, a} B^-1 = {b, ab}, which holds b
        c = subgroup_coupling(f2, F2_GENS, x_gamma_word="b")
        st = strengthen_coboundedness(c)
        assert [f2.describe(x) for x in st.x_lambda_points()] == ["b", "ab"]
        assert st.shift == f2.parse_word("B") and st.x0 == c.x0 and st.sub is c.sub

    def test_cocycles_still_exact_after_strengthening(self, f2):
        c = subgroup_coupling(f2, F2_GENS, x_gamma_word="b")
        st = strengthen_coboundedness(c)
        assert check_cocycle_identity(st, 2).passed
        assert check_inverse_relation(st, 3).passed
        assert check_b_identity(st, 2).passed


@pytest.mark.parametrize("call, message", [
    (lambda c, w: c.alpha(w("a"), w("aa")), "alpha requires a point of X_lambda"),
    (lambda c, w: c.lambda_lengths({w("a")}), "length target a is not in the subgroup"),
    (lambda c, w: projection_and_similarity(c, "x", ["e"], ["e"], power(1)),
     "side must be 'lambda' or 'gamma'"),
    (lambda c, w: projection_and_similarity(c, "lambda", ["e", "aa"], ["e", "a"], power(1)),
     "X1 is not a transversal"),
    (lambda c, w: claim_bound_check(c, w("aa"), w("b"), 0, power(1)), "R must be a positive integer"),
    (lambda c, w: claim_bound_check(c, w("a"), w("b"), 1, power(1)), "u and v must be subgroup elements"),
], ids=["alpha-outside-x-lambda", "length-target-outside", "projection-side", "projection-x1",
        "claim-r-zero", "claim-u-outside"])
def test_refusal_names_its_precondition(f2, f2_coupling, call, message):
    # aa lies in the subgroup <aa, b, abA>, whose point of X_lambda is e
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call(f2_coupling, f2.parse_word)


class TestClaimBound:
    def test_degenerate_pair_skipped(self, f2, f2_coupling):
        u = f2.parse_word("aa")
        rep = claim_bound_check(f2_coupling, u, u, 2, power(1))
        assert rep.degenerate and rep.passed

    def test_schreier_generator_pair(self, f2, f2_coupling):
        u = f2.parse_word("aa")
        v = f2.parse_word("b")
        rep = claim_bound_check(f2_coupling, u, v, 1, power(1))
        assert rep.d_lambda == 2
        # X_gamma is one point, so the displacement identity has one case
        assert rep.identity_cases == 1 and rep.identity_violations == 0
        assert rep.passed
        # measured side: |u^-1 v| = |AAb| = 3 > 1, so measure 0
        assert rep.measured == 0

    def test_measured_one_cases_pass(self, f2, f2_coupling):
        u = f2.parse_word("b")
        v = f2.parse_word("bb")
        rep = claim_bound_check(f2_coupling, u, v, 1, power(2))
        assert rep.measured == 1  # |b|_Gamma = 1 <= R
        assert rep.passed

    def test_volume_charged_to_the_budget(self):
        # C6 has Vol(n) = 6 from n = 3 on, one word each: Vol up to 5000 is
        # 5001 words, so a budget that leaves fewer refuses the bound
        c = subgroup_coupling(parse_group("C6"), ["aa"], budget=Budget(2000))
        aa = c.group.parse_word("aa")
        with pytest.raises(BudgetError, match=r"the measure bound's Vol\(5000\) needs 1 volume words"):
            claim_bound_check(c, c.group.identity(), aa, 5000, power(1))
        assert claim_bound_check(c, c.group.identity(), aa, 1000, power(1)).passed

    def test_requires_inclusion(self, f2):
        c = subgroup_coupling(f2, F2_GENS, x_gamma_word="b")
        u = f2.parse_word("aa")
        v = f2.parse_word("b")
        with pytest.raises(PreconditionError):
            claim_bound_check(c, u, v, 1, power(1))

    def test_sweep_small(self, f2_coupling, z2_coupling):
        for c in (f2_coupling, z2_coupling):
            out = claim_bound_sweep(c, 2, [1, 2], [power(1), power(2)])
            assert out["passed"]
            assert out["pair_checks"] > 0

    def test_sweep_on_strengthened(self, f2):
        c = subgroup_coupling(f2, F2_GENS, x_gamma_word="b")
        st = strengthen_coboundedness(c)
        out = claim_bound_sweep(st, 2, [1, 2], [power(1)])
        assert out["passed"]


# (group, subgroup generators, x_gamma, strengthened): the golden specs, and
# base points off the identity, which conjugate the displacements; a base
# point outside X_lambda is swept after strengthen_coboundedness
SWEEP_CASES = [
    ("F2", F2_GENS, "e", False),
    ("F2", F2_GENS, "ab", False),
    ("F2", F2_GENS, "ab", True),
    ("Z^2", ["aa", "b"], "e", False),
    ("Z^2", ["aa", "b"], "ab", True),
    ("C2*C3", ["b", "aba"], "e", False),
    ("C2*C3", ["b", "aba"], "ab", True),
    ("C3xC4", ["b"], "e", False),
    ("C3xC4", ["b"], "a", False),
]
SWEEP_IDS = [f"{g}@{x}" + ("-strengthened" if st else "") for g, _, x, st in SWEEP_CASES]


def sweep_coupling(group, gens, x_gamma, strengthened):
    c = subgroup_coupling(parse_group(group), gens, x_gamma_word=x_gamma)
    return strengthen_coboundedness(c) if strengthened else c


INCLUSION = "requires X_gamma inside X_lambda; run strengthen"


def assert_pair_loop_refuses(c, lambda_radius, R, phi):
    """The pair loop ran claim_bound_check on the pairs u != v of the ball;
    with X_gamma outside X_lambda that call refuses (checked on consecutive pairs)."""
    ball = c.lambda_spheres.ball(lambda_radius)
    for u, v in zip(ball, ball[1:]):
        with pytest.raises(PreconditionError, match=INCLUSION):
            claim_bound_check(c, u, v, R, phi)


class TestClaimSweepOracle:
    """The gamma-side sweep against the pair double loop it replaced."""

    @pytest.mark.parametrize("case", SWEEP_CASES, ids=SWEEP_IDS)
    def test_matches_pair_loop(self, case):
        c = sweep_coupling(*case)
        phis = [power(1), exp_power(1)]
        for lambda_radius in (1, 2, 3):
            for radii in ([1, 2, 3], [3, 1], [2]):
                if not c.x_gamma_in_x_lambda():
                    # unstrengthened: the pair loop refuses, and so does the sweep
                    assert_pair_loop_refuses(c, lambda_radius, max(radii), phis[0])
                    with pytest.raises(PreconditionError, match=INCLUSION):
                        claim_bound_sweep(c, lambda_radius, radii, phis)
                    continue
                expected = brute_claim_sweep(c, lambda_radius, radii, phis)
                assert claim_bound_sweep(c, lambda_radius, radii, phis) == expected, (
                    lambda_radius, radii,
                )

    @pytest.mark.parametrize("case", SWEEP_CASES, ids=SWEEP_IDS)
    def test_failure_order_pinned(self, case, monkeypatch):
        # with a tiny K every evaluation fails, so `failures` lists every
        # displacement, in the order of first occurrence among the pairs
        k_calls = []
        monkeypatch.setattr(
            coupling, "_k_constant", lambda c, phi: k_calls.append(phi) or Fraction(1, 10**6)
        )
        c = sweep_coupling(*case)
        phis = [power(1), power(2)]
        for lambda_radius in (1, 2, 3):
            if not c.x_gamma_in_x_lambda():
                # unstrengthened: refused before any K is computed or any
                # failure listed, as the pair loop refuses on its first pair
                assert_pair_loop_refuses(c, lambda_radius, 3, phis[0])
                with pytest.raises(PreconditionError, match=INCLUSION):
                    claim_bound_sweep(c, lambda_radius, [3, 1, 2], phis)
                assert k_calls == []
                continue
            out = claim_bound_sweep(c, lambda_radius, [3, 1, 2], phis)
            assert out["failures"]
            assert out == brute_claim_sweep(c, lambda_radius, [3, 1, 2], phis), lambda_radius

    def test_unstrengthened_refused(self, f2):
        # ab lies outside X_lambda = {e, a}: the sweep, the single-pair bound
        # and the inverse relation refuse it with one message
        c = subgroup_coupling(f2, F2_GENS, x_gamma_word="ab")
        aa, b = f2.parse_word("aa"), f2.parse_word("b")
        for run in (
            lambda: claim_bound_sweep(c, 1, [1], [power(1)]),
            lambda: claim_bound_check(c, aa, b, 1, power(1)),
            lambda: check_inverse_relation(c, 1),
        ):
            with pytest.raises(PreconditionError, match=INCLUSION):
                run()
        assert claim_bound_sweep(strengthen_coboundedness(c), 1, [1], [power(1)])["passed"]

    def test_counts_at_lambda_radius_six(self, f2_coupling):
        # |B| = 23437, so the pair loop would make 3.3e9 checks; the sweep
        # counts them in closed form without enumerating a pair
        out = claim_bound_sweep(f2_coupling, 6, [1, 2, 3], [power(1), power(2)])
        assert out["ball_size"] == 23437
        assert out["pair_checks"] == 3_295_617_192 == 23437 * 23436 * 3 * 2
        assert out["nontrivial_evaluations"] == 64
        assert out["passed"]

    def test_gamma_ball_budget(self):
        # B_Gamma(3) of F2 has 53 elements
        with pytest.raises(BudgetError, match=r"radius 3 \(radius 2 completed\), over the budget of 50"):
            claim_bound_sweep(f2_coupling_with(50), 2, [1, 3], [power(1)])


class TestBIdentityBudget:
    def test_refuses_before_the_first_case(self):
        # |B_lambda(2)| = 37 in the rank-3 free subgroup: 1369 cases, charged
        # after the 2 cosets and the 37 group elements of the ball
        assert check_b_identity(f2_coupling_with(2 + 37 + 1369), 2).cases == 1369
        with pytest.raises(BudgetError, match="needs 1369 cases.*--budget or HYPME_BUDGET"):
            check_b_identity(f2_coupling_with(2 + 37 + 1368), 2)


class TestBIdentityMembership:
    def test_one_trace_per_ball_element(self, monkeypatch):
        c = subgroup_coupling(parse_group("F2"), F2_GENS)
        ball = len(c.lambda_spheres.ball(3))
        traces = []
        trace = coupling.SubgroupData.trace
        monkeypatch.setattr(
            coupling.SubgroupData, "trace", lambda sub, start, g: traces.append(g) or trace(sub, start, g)
        )
        rep = check_b_identity(c, 3)
        assert (rep.cases, rep.violations) == (ball**2, 0) == (34_969, 0)
        assert len(traces) <= ball + 2

    def test_non_members_still_raise(self, f2, monkeypatch):
        c = subgroup_coupling(f2, F2_GENS)
        with pytest.raises(PreconditionError, match="subgroup element"):
            c.beta(f2.parse_word("a"))
        monkeypatch.setattr(coupling.SubgroupData, "contains", lambda sub, g: False)
        with pytest.raises(PreconditionError, match="subgroup element"):
            check_b_identity(c, 1)


class TestCocycleIdentityBudget:
    def test_refuses_before_the_first_case(self):
        # |X_lambda| = 2 and |B_gamma(3)| = 53 in F2: 2 * 53^2 = 5618 cases,
        # charged after the 2 cosets and the 53 group elements of the ball
        assert check_cocycle_identity(f2_coupling_with(2 + 53 + 5618), 3).cases == 5618
        with pytest.raises(BudgetError, match="needs 5618 cases.*--budget or HYPME_BUDGET"):
            check_cocycle_identity(f2_coupling_with(2 + 53 + 5617), 3)


class TestCheckReportOf:
    def test_empty_sequence_passes_with_no_cases(self):
        rep = CheckReport.of("empty", iter(()))
        assert (rep.cases, rep.violations, rep.passed, rep.details) == (0, 0, True, {})

    def test_counts_each_outcome(self):
        # x = 0, 3, 6 and 9 are the four cases that fail
        rep = CheckReport.of("mixed", (x % 3 != 0 for x in range(10)), radius=2)
        assert (rep.name, rep.cases, rep.violations, rep.passed) == ("mixed", 10, 4, False)
        assert rep.details == {"radius": 2}

    @pytest.mark.parametrize("outcomes", [
        [True], [True] * 5, [False], [False] * 3, [True, True, False], [False, True],
    ])
    def test_passes_only_when_no_case_is_false(self, outcomes):
        rep = CheckReport.of("check", outcomes)
        assert (rep.cases, rep.violations) == (len(outcomes), outcomes.count(False))
        assert rep.passed is (False not in outcomes)


class TestCaseCountsInClosedForm:
    """Each check's case count, derived without running the check: |B_gamma(r)|
    from the group's growth series, |B_lambda(r)| from a BFS that shares no
    code with `groups.Spheres`, |X_lambda| as the index."""

    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("spec", ["f2", "f2b", "c3c4"])
    def test_every_check(self, spec, radius):
        # strengthened first, as coupling-verify does, so the inverse relation runs on f2b too
        c = strengthen_coboundedness(coupling_from_spec((INPUTS / f"{spec}.json").read_text()))
        g = c.group
        gamma = g.volume(radius)
        lam = len(independent_word_lengths(g, c.sub.schreier_generators, max_radius=radius))
        reach = radius - g.word_length(c.x0)  # gamma x0 covers the points this close to e
        covered = g.volume(reach) if reach >= 0 else 0
        expected = {
            "cocycle_identity": c.index * gamma**2,
            "b_identity": lam**2,
            "inverse_relation": lam,
            "actions_commute": 37,
            "fundamental_domains": 3 * gamma + covered + lam * c.index,
        }
        reports = [
            check_cocycle_identity(c, radius),
            check_b_identity(c, radius),
            check_inverse_relation(c, radius),
            check_actions_commute(c, radius, samples=37, seed=radius),
            check_fundamental_domains(c, radius),
        ]
        assert {r.name: r.cases for r in reports} == expected
        assert all(r.passed and r.violations == 0 for r in reports)

    def test_f2_at_radius_three(self, f2_coupling):
        # |B_gamma(3)| = 53 and |B_lambda(3)| = 187: 3 * 53 + 53 + 187 * 2
        assert check_fundamental_domains(f2_coupling, 3).cases == 586
        assert check_inverse_relation(f2_coupling, 3).cases == 187
