import random
import tracemalloc
from fractions import Fraction

import pytest

from hypme.cycles import (
    CycleEmbedding,
    _heuristic_candidates,
    _simple_cycles,
    check_obstruction,
    cycle_distance,
    find_fat_cycle,
    obstruction_bound,
    verify_embedding,
)
from hypme.errors import Budget, BudgetError, PreconditionError
from hypme.graphs import (
    cycle_graph,
    distance_matrix,
    grid_graph,
    make_graph,
    tree_graph,
)
from hypme.hyperbolicity import thin_triangle_delta

from oracles import nx_simple_cycles, random_connected_graph, random_tree


def brute_constants(dm, images):
    n = len(images)
    ratios = []
    for i in range(n):
        for j in range(i + 1, n):
            dc = cycle_distance(n, i, j)
            ratios.append(Fraction(int(dm.d[images[i], images[j]]), dc))
    return min(ratios), max(ratios)


class TestVerifyEmbedding:
    def test_identity_on_cycle(self):
        dm = distance_matrix(cycle_graph(8))
        e = verify_embedding(dm, list(range(8)))
        assert e.a == 1 and e.b == 1

    def test_grid_boundary(self):
        g = grid_graph(5, 5)
        dm = distance_matrix(g)
        top = [0, 1, 2, 3, 4]
        right = [9, 14, 19, 24]
        bottom = [23, 22, 21, 20]
        left = [15, 10, 5]
        boundary = top + right + bottom + left
        assert len(boundary) == 16
        e = verify_embedding(dm, boundary)
        assert e.a == Fraction(1, 2) and e.b == 1
        assert (e.a, e.b) == brute_constants(dm, boundary)

    def test_constant_map_degenerates(self):
        dm = distance_matrix(cycle_graph(6))
        e = verify_embedding(dm, [2] * 6)
        assert e.a == 0 and e.b == 0

    def test_repeated_vertices_force_a_zero(self):
        dm = distance_matrix(grid_graph(4, 4))
        e = verify_embedding(dm, [0, 1, 2, 1, 0, 4])
        assert e.a == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_constants_are_tight(self, seed):
        # odd and even lengths (at even n the pairs at distance n/2 are read
        # twice), distinct images and images drawn with repeats
        rng = random.Random(seed)
        g = random_connected_graph(rng, 14, 5)
        dm = distance_matrix(g)
        for n in range(3, 13):
            for images in (rng.sample(range(g.n), n), rng.choices(range(g.n), k=n)):
                e = verify_embedding(dm, images)
                assert (e.n, e.images) == (n, tuple(images))
                assert (e.a, e.b) == brute_constants(dm, images)

    def test_too_short_rejected(self):
        dm = distance_matrix(cycle_graph(4))
        with pytest.raises(PreconditionError):
            verify_embedding(dm, [0, 1])


class TestObstructionBound:
    def test_power_of_two_values(self):
        assert obstruction_bound(Fraction(1), Fraction(1), 64) == Fraction(30, 64)
        assert obstruction_bound(Fraction(0), Fraction(1), 64) == Fraction(6, 64)
        assert obstruction_bound(Fraction(1), Fraction(2), 256) == Fraction(44, 256)

    def test_upper_rounding_is_conservative(self):
        # log2(3*10) is irrational; the bound must not undershoot
        val = obstruction_bound(Fraction(1), Fraction(3), 10)
        import math

        true_val = (4 * math.log2(30) + 4 + 6) / 10
        assert float(val) >= true_val
        assert float(val) - true_val < 1e-8

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            obstruction_bound(Fraction(1), Fraction(1, 2), 8)
        with pytest.raises(PreconditionError):
            obstruction_bound(Fraction(1), Fraction(1), 7)
        with pytest.raises(PreconditionError):
            obstruction_bound(Fraction(-1), Fraction(1), 8)


class TestCheckObstruction:
    def test_tree_embedding_consistent(self):
        g = tree_graph(2, 3)
        dm = distance_matrix(g)
        e = verify_embedding(dm, [0, 1, 0, 2, 0, 1])  # a = 0 back-and-forth
        rep = check_obstruction(e, Fraction(2))
        assert rep.verdict == "consistent"

    def test_grid_boundary_against_hypothetical_delta(self):
        g = grid_graph(5, 5)
        dm = distance_matrix(g)
        boundary = [0, 1, 2, 3, 4, 9, 14, 19, 24, 23, 22, 21, 20, 15, 10, 5]
        e = verify_embedding(dm, boundary)
        rep = check_obstruction(e, Fraction(1, 10))
        # ((2/5)*log2(16) + 4 + 2)/16 = 19/40 < 1/2
        assert rep.bound_prop == Fraction(19, 40)
        assert rep.verdict == "violation"

    def test_9x9_boundary_against_hypothetical_delta(self):
        g = grid_graph(9, 9)
        dm = distance_matrix(g)
        res = find_fat_cycle(g, dm, Fraction(1, 2), 32)
        e = res.embedding
        assert e.n == 32 and e.a == Fraction(1, 2)
        rep = check_obstruction(e, Fraction(1, 10))
        # ((2/5)*log2(32) + 4 + 2)/32 = 8/32 < 1/2
        assert rep.bound_prop == Fraction(8, 32)
        assert rep.verdict == "violation"

    def test_cycle_in_itself_consistent(self):
        g = cycle_graph(64)
        dm = distance_matrix(g)
        dt, _ = thin_triangle_delta(g, dm)
        e = verify_embedding(dm, list(range(64)))
        rep = check_obstruction(e, dt)
        assert rep.verdict == "consistent"

    def test_odd_length_checked_at_even_restriction(self):
        g = cycle_graph(9)
        dm = distance_matrix(g)
        e = verify_embedding(dm, list(range(9)))
        rep = check_obstruction(e, Fraction(5))
        assert rep.n_even == 8
        assert rep.bound_prop == obstruction_bound(Fraction(5), Fraction(1), 8)

    def test_asymptotic_form_reported_when_applicable(self):
        g = cycle_graph(12)
        dm = distance_matrix(g)
        e = verify_embedding(dm, list(range(12)))
        rep = check_obstruction(e, Fraction(3))
        assert rep.bound_cor is None and not rep.cor_applicable


def _exact_crossing(b):
    """The real n where 4*log2(b*n) + 4 + 2b = 6*ln(n), that is
    n * obstruction_bound(1, b, n) = 6*ln(n) without rounding, by bisection
    in mpmath; the difference falls in n, since 4/ln(2) < 6."""
    import mpmath

    with mpmath.workprec(200):
        b = mpmath.mpf(b.numerator) / b.denominator
        gap = lambda n: 4 * mpmath.log(b * n, 2) + 4 + 2 * b - 6 * mpmath.log(n)  # noqa: E731
        lo, hi = mpmath.mpf(4), mpmath.mpf(2) ** 100
        assert gap(lo) > 0 > gap(hi)
        while hi - lo > 1:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
        # log2 and ln are each rounded by at most 2 * 2^-32, so the certified
        # comparison can differ from the exact one only where |gap| <= 20 * 2^-32,
        # that is within n * 20 * 2^-32 / (6 - 4/ln 2) of the crossing
        window = hi * 20 * mpmath.mpf(2) ** -32 / (6 - 4 / mpmath.log(2))
        return int(mpmath.ceil(hi)), max(10**5, int(mpmath.ceil(window)))


@pytest.mark.parametrize("b", [Fraction(1), Fraction(3, 2), Fraction(2)], ids=str)
def test_asymptotic_form_reported_past_the_exact_crossing(b):
    # check_obstruction reads only n, a and b of the embedding
    crossing, margin = _exact_crossing(b)

    def reported(n):
        rep = check_obstruction(CycleEmbedding(n, (), Fraction(1, 2), b), Fraction(1))
        assert (rep.bound_cor is not None) == rep.cor_applicable
        return rep.cor_applicable

    assert not reported(crossing - margin) and not reported(crossing - margin - 1)
    assert reported(crossing + margin) and reported(crossing + margin + 1)


@pytest.mark.parametrize("b", [Fraction(2), Fraction(4)], ids=str)
@pytest.mark.parametrize("n", [4, 5, 1 << 62], ids=["4", "5", "2^62"])
def test_large_upper_constant_still_gets_its_verdict(b, n):
    # the exact crossing is about 5.4e22 for b = 2 and 7.8e37 for b = 4
    rep = check_obstruction(CycleEmbedding(n, (), Fraction(1), b), Fraction(3))
    assert rep.verdict == ("consistent" if n < 1 << 62 else "violation")
    assert not rep.cor_applicable and rep.bound_cor is None


class TestEnumerateCycles:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randrange(5, 12), rng.randrange(1, 5))
        mine = {tuple(c) for c in _simple_cycles(g, Budget())}
        assert mine == nx_simple_cycles(g)

    def test_tree_plus_chord_has_one_cycle(self):
        rng = random.Random(7)
        g = random_tree(30, rng)
        edges = set(g.edges)
        edges.add((0, 29)) if (0, 29) not in edges else edges.add((1, 28))
        g2 = make_graph(30, edges)
        cycles = list(_simple_cycles(g2, Budget()))
        assert len(cycles) == 1

    def test_budget_error(self):
        g = make_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        with pytest.raises(BudgetError):
            list(_simple_cycles(g, Budget(10)))


class TestFindFatCycle:
    def test_cycle_host_finds_itself(self):
        g = cycle_graph(100)
        dm = distance_matrix(g)
        res = find_fat_cycle(g, dm, Fraction(1, 18), 50)
        assert res.outcome == "found"
        assert res.embedding.n == 100 and res.embedding.a == 1

    def test_heuristic_far_pairs_are_the_farthest_in_order(self):
        # all 100 vertices are eccentric, so no corner tour: the far-pair
        # candidates come first, from the pairs at distance 50 in order
        g = cycle_graph(100)
        candidates = list(_heuristic_candidates(g, distance_matrix(g), seed=0))
        far = dict.fromkeys((c[0], c[2]) for c in candidates[:-40])  # 40 seeded ones last
        assert list(far) == [(i, i + 50) for i in range(5)]

    def test_grid_boundary_found(self):
        g = grid_graph(9, 9)
        dm = distance_matrix(g)
        res = find_fat_cycle(g, dm, Fraction(1, 2), 32)
        assert res.outcome == "found"
        e = res.embedding
        assert e.n == 32 and e.a >= Fraction(1, 2) and e.b == 1
        again = verify_embedding(dm, list(e.images))
        assert (again.a, again.b) == (e.a, e.b)

    def test_grid_family_scaling(self):
        for k in (4, 5, 6):
            g = grid_graph(k + 1, k + 1)
            dm = distance_matrix(g)
            res = find_fat_cycle(g, dm, Fraction(1, 2), 4 * k, mode="heuristic")
            assert res.outcome == "found"
            assert res.embedding.n == 4 * k
            assert res.embedding.a >= Fraction(1, 2)

    def test_tree_proven_absent(self):
        g = tree_graph(2, 8)
        dm = distance_matrix(g)
        res = find_fat_cycle(g, dm, Fraction(1, 18), 20, mode="exhaustive")
        assert res.outcome == "proven_absent"

    def test_tree_with_min_a_zero(self):
        # a = 0 admits the walk back and forth along the least edge, found
        # without search; a single vertex has no edge and no cycle
        g = tree_graph(2, 3)
        dm = distance_matrix(g)
        for min_n in (3, 4, 7):
            res = find_fat_cycle(g, dm, Fraction(0), min_n)
            assert (res.outcome, res.nodes_used) == ("found", 0)
            e = res.embedding
            assert e.n == min_n + min_n % 2 and e.images[:2] == min(g.edges)
            assert (e.a, e.b) == (0, 1)
        point = tree_graph(2, 0)
        res = find_fat_cycle(point, distance_matrix(point), Fraction(0), 3)
        assert (res.embedding, res.outcome) == (None, "proven_absent")

    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "heuristic"])
    def test_tree_answers_without_a_matrix(self, mode):
        # the stated walk's constants are those verify_embedding computes
        for g in (tree_graph(2, 0), tree_graph(1, 1), tree_graph(2, 3), random_tree(30, random.Random(2))):
            for min_a, min_n in ((Fraction(0), 3), (Fraction(0), 6), (Fraction(1, 3), 4)):
                res = find_fat_cycle(g, None, min_a, min_n, mode=mode)
                if g.m == 0 or min_a > 0:
                    assert (res.embedding, res.outcome, res.nodes_used) == (None, "proven_absent", 0)
                    continue
                assert (res.outcome, res.nodes_used) == ("found", 0)
                e = res.embedding
                assert e == verify_embedding(distance_matrix(g), list(e.images))

    def test_small_host_exhaustive_absence(self):
        rng = random.Random(11)
        g = random_tree(20, rng)
        dm = distance_matrix(g)
        res = find_fat_cycle(g, dm, Fraction(1, 4), 4)
        assert res.outcome == "proven_absent"

    def test_found_results_reverify(self):
        rng = random.Random(13)
        g = random_connected_graph(rng, 18, 4)
        dm = distance_matrix(g)
        res = find_fat_cycle(g, dm, Fraction(1, 18), 3)
        if res.embedding is not None:
            e = res.embedding
            again = verify_embedding(dm, list(e.images))
            assert (again.a, again.b) == (e.a, e.b)
            assert e.a >= Fraction(1, 18)

    def test_deterministic(self):
        g = grid_graph(8, 8)
        dm = distance_matrix(g)
        r1 = find_fat_cycle(g, dm, Fraction(1, 2), 20, seed=3)
        r2 = find_fat_cycle(g, dm, Fraction(1, 2), 20, seed=3)
        assert r1 == r2


def naive_fat_cycle(g, dm, min_a, min_n):
    """First enumerated simple cycle with n >= min_n and a >= min_a, unpruned."""
    for cyc in _simple_cycles(g, Budget()):
        if len(cyc) >= min_n:
            e = verify_embedding(dm, cyc)
            if e.a >= min_a:
                return e
    return None


class TestPrunedExhaustiveSearch:
    """The pruned exhaustive search against the naive reference."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_reference(self, seed):
        rng = random.Random(100 + seed)
        g = random_connected_graph(rng, rng.randrange(6, 15), rng.randrange(2, 7))
        dm = distance_matrix(g)
        for min_a in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5), Fraction(1)):
            # g.n + 1 exceeds every simple cycle's length
            for min_n in (3, 4, 6, 8, g.n + 1):
                want = naive_fat_cycle(g, dm, min_a, min_n)
                res = find_fat_cycle(g, dm, min_a, min_n, mode="exhaustive")
                assert res.embedding == want, (min_a, min_n)
                assert res.outcome == ("proven_absent" if want is None else "found")

    def test_grid_witness_far_below_budget(self):
        g = grid_graph(6, 6)
        dm = distance_matrix(g)
        res = find_fat_cycle(g, dm, Fraction(1, 2), 20)
        assert res.outcome == "found"
        assert res.nodes_used < 100_000
        # the unpruned reference runs past the default budget here, so the
        # witness is checked from the definitions instead
        e = res.embedding
        assert e.n >= 20 and len(set(e.images)) == e.n
        assert all(dm.d[u, v] == 1 for u, v in zip(e.images, e.images[1:] + e.images[:1]))
        assert (e.a, e.b) == brute_constants(dm, e.images)
        assert e.a >= Fraction(1, 2)

    def test_nodes_used_is_what_the_budget_limits(self):
        g = grid_graph(6, 6)
        dm = distance_matrix(g)
        found = find_fat_cycle(g, dm, Fraction(1, 2), 20)
        exact = find_fat_cycle(g, dm, Fraction(1, 2), 20, budget=Budget(found.nodes_used))
        assert exact == found
        short = find_fat_cycle(g, dm, Fraction(1, 2), 20, budget=Budget(found.nodes_used - 1))
        assert short.outcome == "budget_exhausted"
        assert short.nodes_used == found.nodes_used - 1

        h = random_connected_graph(random.Random(5), 10, 4)
        dh = distance_matrix(h)
        absent = find_fat_cycle(h, dh, Fraction(1, 3), h.n + 1, mode="exhaustive")
        assert absent.outcome == "proven_absent" and absent.nodes_used > 0
        exact = find_fat_cycle(h, dh, Fraction(1, 3), h.n + 1, mode="exhaustive",
                               budget=Budget(absent.nodes_used))
        assert exact == absent
        short = find_fat_cycle(h, dh, Fraction(1, 3), h.n + 1, mode="exhaustive",
                               budget=Budget(absent.nodes_used - 1))
        assert (short.outcome, short.nodes_used) == ("budget_exhausted", absent.nodes_used - 1)

    def test_pruning_table_is_sized_by_the_host(self):
        # a path prefix has fewer than g.n vertices, so every min_n >= 2 g.n
        # reads the same table; a table of min_n/2 entries peaks near 200 MB
        g = grid_graph(3, 3)
        dm = distance_matrix(g)
        tracemalloc.start()
        try:
            huge = find_fat_cycle(g, dm, Fraction(1, 2), 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert huge == find_fat_cycle(g, dm, Fraction(1, 2), 2 * g.n)
        assert huge.outcome == "proven_absent" and huge.nodes_used > 0

    def test_heuristic_stays_within_the_budget(self):
        # grid 9x9 (n = 81) takes the heuristic path; its first closed walk
        # has 32 vertices, so every smaller limit must refuse that walk
        g = grid_graph(9, 9)
        dm = distance_matrix(g)
        found = find_fat_cycle(g, dm, Fraction(1, 2), 32)
        assert found.outcome == "found"
        for limit in range(1, found.nodes_used):
            short = find_fat_cycle(g, dm, Fraction(1, 2), 32, budget=Budget(limit))
            assert short.outcome == "budget_exhausted", limit
            assert short.nodes_used <= limit
        assert find_fat_cycle(g, dm, Fraction(1, 2), 32, budget=Budget(found.nodes_used)) == found


class TestSoundnessSweepSmall:
    """Certified-delta obstruction soundness on small hosts (the full corpus
    runs in the acceptance suite)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_no_violations_on_trees_plus_chords(self, seed):
        rng = random.Random(40 + seed)
        g = random_connected_graph(rng, rng.randrange(10, 30), rng.randrange(1, 3))
        dm = distance_matrix(g)
        dt, _ = thin_triangle_delta(g, dm)
        delta = dt + 2
        for cyc in _simple_cycles(g, Budget()):
            e = verify_embedding(dm, cyc)
            rep = check_obstruction(e, delta)
            assert rep.verdict == "consistent"
