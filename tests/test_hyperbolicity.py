import random
from fractions import Fraction

import numpy as np
import pytest

from hypme import hyperbolicity
from hypme.errors import PreconditionError
from hypme.graphs import (
    cycle_graph,
    direct_image_path,
    distance_matrix,
    grid_graph,
    random_tree,
    tree_graph,
)
from hypme.hyperbolicity import (
    four_point_delta,
    four_point_value,
    hyperbolicity_report,
    sampled_hyperbolicity,
    thin_triangle_delta,
    thin_triangle_value,
    verify_geodesic_path_bound,
)

from oracles import (
    all_geodesic_vertices,
    brute_four_point_numerator,
    brute_thin_delta,
    nx_distances,
    random_connected_graph,
)


class TestTreeCase:
    @pytest.mark.parametrize("branching,depth", [(2, 3), (3, 3), (1, 5)])
    def test_generated_trees_are_zero(self, branching, depth):
        g = tree_graph(branching, depth)
        dm = distance_matrix(g)
        rep = hyperbolicity_report(g, dm)
        assert rep.delta_thin == 0 and rep.delta_four_point == 0

    def test_random_trees_zero_via_oracle(self):
        rng = random.Random(3)
        for _ in range(5):
            g = random_tree(rng.randrange(4, 30), rng)
            dist = nx_distances(g)
            assert brute_thin_delta(g, dist) == 0
            assert brute_four_point_numerator(dist, g.n) == 0


class TestSmallCycles:
    def test_c4_constants(self):
        g = cycle_graph(4)
        dm = distance_matrix(g)
        dt, wt = thin_triangle_delta(g, dm)
        d4, w4 = four_point_delta(dm)
        assert dt == 1 and d4 == 1
        # oracle agreement
        dist = nx_distances(g)
        assert dt == brute_thin_delta(g, dist)
        assert d4 == Fraction(brute_four_point_numerator(dist, 4), 2)

    def test_c12_four_point_vs_oracle(self):
        g = cycle_graph(12)
        dm = distance_matrix(g)
        d4, _ = four_point_delta(dm)
        assert d4 == Fraction(brute_four_point_numerator(nx_distances(g), 12), 2)

    def test_cycle_monotonicity(self):
        values = []
        for n in range(4, 25):
            g = cycle_graph(n)
            dm = distance_matrix(g)
            dt, _ = thin_triangle_delta(g, dm)
            dist = nx_distances(g)
            assert dt == brute_thin_delta(g, dist)
            values.append(dt)
        assert all(a <= b for a, b in zip(values, values[1:]))


def dense_graph(rng: random.Random):
    """A tree plus up to about n^2/4 chords: most vertices then have several
    neighbours one step closer to a given vertex."""
    n = rng.randrange(6, 22)
    return random_connected_graph(rng, n, rng.randrange(n, n * n // 4 + 1))


class TestKernelsMatchOracles:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        sparse = random_connected_graph(rng, rng.randrange(4, 22), rng.randrange(0, 5))
        for g in (sparse, dense_graph(rng)):
            dm = distance_matrix(g)
            dist = nx_distances(g)
            dt, ((a, b, c), x) = thin_triangle_delta(g, dm)
            d4, w4 = four_point_delta(dm)
            assert dt == brute_thin_delta(g, dist)
            assert thin_triangle_value(dm, a, b, c) == dt
            assert 2 * d4 == brute_four_point_numerator(dist, g.n)

    @pytest.mark.parametrize("seed", range(6))
    def test_tables_match_geodesic_sets(self, seed):
        # N_v[w, y] = d(y, G(v, w)), with G(v, w) enumerated path by path
        rng = random.Random(200 + seed)
        g = grid_graph(4, 5) if seed == 0 else dense_graph(rng)
        dm = distance_matrix(g)
        dist = nx_distances(g)
        nbrs = [np.array(row, dtype=np.intp) for row in g.adjacency()]
        for v in range(g.n):
            table = hyperbolicity._nearest_to_geodesics(dm, v, nbrs)
            for w in range(g.n):
                geo = all_geodesic_vertices(g, dist, v, w)
                assert table[w].tolist() == [min(dist[x][y] for x in geo) for y in range(g.n)], (v, w)

    def test_grid_vs_oracle(self):
        g = grid_graph(5, 5)
        dm = distance_matrix(g)
        dt, _ = thin_triangle_delta(g, dm)
        assert dt == brute_thin_delta(g, nx_distances(g))


class TestWitnesses:
    @pytest.mark.parametrize("seed", range(5))
    def test_witnesses_reproduce_constants(self, seed):
        rng = random.Random(100 + seed)
        g = random_connected_graph(rng, rng.randrange(6, 25), rng.randrange(1, 5))
        dm = distance_matrix(g)
        dt, ((a, b, c), x) = thin_triangle_delta(g, dm)
        assert Fraction(thin_triangle_value(dm, a, b, c)) == dt
        d4, quad = four_point_delta(dm)
        assert four_point_value(dm, *quad) == d4

    def test_sampled_mode_is_deterministic_lower_bound(self):
        g = grid_graph(6, 6)
        dm = distance_matrix(g)
        exact, _ = thin_triangle_delta(g, dm)
        r1 = sampled_hyperbolicity(g, dm, samples=300, seed=11)
        r2 = sampled_hyperbolicity(g, dm, samples=300, seed=11)
        assert r1 == r2
        assert not r1.exact
        assert r1.delta_thin <= exact


class TestCutoff:
    """The exact scans refuse n > EXACT_CUTOFF unless forced (cutoff lowered to 10)."""

    def test_refusal_names_the_flag(self, monkeypatch):
        g = cycle_graph(12)
        dm = distance_matrix(g)
        monkeypatch.setattr(hyperbolicity, "EXACT_CUTOFF", 10)
        with pytest.raises(PreconditionError, match="--force"):
            thin_triangle_delta(g, dm)
        with pytest.raises(PreconditionError, match="--force"):
            four_point_delta(dm)

    def test_force_runs_the_scans(self, monkeypatch):
        g = cycle_graph(12)
        dm = distance_matrix(g)
        expected = hyperbolicity_report(g, dm)
        monkeypatch.setattr(hyperbolicity, "EXACT_CUTOFF", 10)
        assert hyperbolicity_report(g, dm, force=True) == expected


class TestGeodesicPathBound:
    def test_tree_paths_sit_on_geodesics(self):
        g = tree_graph(2, 4)
        dm = distance_matrix(g)
        rng = random.Random(5)
        for _ in range(10):
            x1, x2 = rng.randrange(g.n), rng.randrange(g.n)
            if x1 == x2:
                continue
            mid = rng.randrange(g.n)
            alpha = direct_image_path(dm, [x1, mid, x2])
            rep = verify_geodesic_path_bound(g, dm, alpha, x1, x2, Fraction(0))
            assert rep.max_observed == 0
            assert rep.passes

    def test_c16_long_arc(self):
        g = cycle_graph(16)
        dm = distance_matrix(g)
        dt, _ = thin_triangle_delta(g, dm)
        # the long way around from 0 to 4: through 15, 14, ..., 5
        arc = [0] + list(range(15, 4, -1)) + [4]
        from hypme.graphs import Path

        alpha = Path(vertices=tuple(arc))
        assert alpha.length == 12
        rep = verify_geodesic_path_bound(g, dm, alpha, 0, 4, dt)
        # geodesic vertices are 0..4; farthest from the long arc is distance 0
        # (its endpoints lie on the arc) so the bound holds comfortably
        assert rep.passes

    def test_7x7_grid_with_computed_delta(self):
        g = grid_graph(7, 7)
        dm = distance_matrix(g)
        dt, _ = thin_triangle_delta(g, dm)
        rng = random.Random(9)
        for _ in range(50):
            x1, x2 = rng.randrange(g.n), rng.randrange(g.n)
            if x1 == x2:
                continue
            mids = [rng.randrange(g.n) for _ in range(2)]
            alpha = direct_image_path(dm, [x1, *mids, x2])
            rep = verify_geodesic_path_bound(g, dm, alpha, x1, x2, dt + 2)
            assert rep.passes

    def test_endpoint_mismatch_rejected(self):
        g = cycle_graph(6)
        dm = distance_matrix(g)
        alpha = direct_image_path(dm, [0, 2])
        from hypme.errors import PreconditionError

        with pytest.raises(PreconditionError):
            verify_geodesic_path_bound(g, dm, alpha, 1, 2, Fraction(1))
