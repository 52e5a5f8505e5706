import random
import tracemalloc

import networkx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypme import graphs
from hypme.errors import Budget, BudgetError, ParseError, PreconditionError
from hypme.groups import ball, parse_group
from hypme.graphs import (
    MAX_VERTICES,
    DistanceMatrix,
    Graph,
    Path,
    cycle_graph,
    direct_image_path,
    distance_matrix,
    extract_geodesic,
    grid_graph,
    load_graph,
    make_graph,
    pairs_by_distance,
    tree_diameter,
    tree_graph,
)

from oracles import (
    all_geodesic_vertices,
    geodesic_points,
    grid_edge_text,
    nx_distances,
    random_connected_graph,
    random_tree,
    to_networkx,
)


class TestLoadGraph:
    def test_path_graph(self):
        g = load_graph("0 1\n1 2")
        assert g.n == 3 and g.m == 2

    def test_triangle(self):
        g = load_graph("0 1\n1 2\n2 0")
        assert g.n == 3 and g.m == 3

    def test_comments_and_dedup(self):
        g = load_graph("# header\n0 1  # trailing\n1 0\n1 2\n")
        assert g.n == 3 and g.m == 2

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load_graph("0 1\n1 two")

    def test_loop_rejected(self):
        with pytest.raises(ParseError, match="loop"):
            load_graph("0 1\n2 2")

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError, match="disconnected"):
            load_graph("0 1\n2 3")

    def test_largest_component_extraction(self):
        g = load_graph("0 1\n1 2\n3 4", largest_component=True)
        assert g.n == 3 and g.m == 2

    @pytest.mark.parametrize("text, m", [
        ("3 4\n4 5\n3 5\n0 1\n1 2", 2),  # the path holds vertex 0
        ("0 1\n1 2\n0 2\n3 4\n4 5", 3),  # the triangle holds vertex 0
    ])
    def test_largest_component_tie_keeps_vertex_zero(self, text, m):
        g = load_graph(text, largest_component=True)
        assert g.n == 3 and g.m == m

    def test_grid_round_trip(self):
        g = load_graph(grid_edge_text(5, 5))
        ref = grid_graph(5, 5)
        assert g.n == 25 and g.m == 40
        assert g.edges == ref.edges


class TestDistances:
    def test_path_graph(self):
        dm = distance_matrix(load_graph("0 1\n1 2"))
        assert dm[0, 2] == 2

    def test_cycle_metric(self):
        dm = distance_matrix(cycle_graph(8))
        assert dm[0, 4] == 4 and dm[0, 5] == 3

    def test_grid_corner_to_corner(self):
        g = grid_graph(5, 5)
        dm = distance_matrix(g)
        oracle = nx_distances(g)
        assert dm[0, 24] == 8
        assert np.array_equal(dm.d, np.array(oracle))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_on_random_graphs(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randrange(5, 40), rng.randrange(0, 6))
        dm = distance_matrix(g)
        assert np.array_equal(dm.d, np.array(nx_distances(g)))
        dm.validate()  # symmetry, zero diagonal, triangle inequality

    def test_disconnected_errors(self):
        g = Graph(n=3, edges=frozenset({(0, 1)}))
        with pytest.raises(PreconditionError):
            distance_matrix(g)


def _host(shape: str, n: int) -> Graph:
    if n == 1:
        return Graph(n=1, edges=frozenset())
    if shape == "path":
        return make_graph(n, [(i, i + 1) for i in range(n - 1)])
    if shape == "star":
        return make_graph(n, [(0, i) for i in range(1, n)])
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _assert_matches_networkx(g: Graph) -> np.ndarray:
    dm = distance_matrix(g)
    dist = nx_distances(g)
    # the dtype rule: int8 exactly when 2 ecc(0) <= 63, else int16
    assert dm.d.dtype == (np.int8 if 2 * max(dist[0]) <= 63 else np.int16)
    assert np.array_equal(dm.d, np.array(dist))
    return dm.d


class TestBitsetBFS:
    """The multi-source kernel against networkx, across its 64-bit word and row-block edges."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("shape", ["path", "star", "complete"])
    def test_word_edges(self, shape, n):
        d = _assert_matches_networkx(_host(shape, n))
        assert d.max() == {"path": n - 1, "star": min(n - 1, 2), "complete": min(n - 1, 1)}[shape]

    @pytest.mark.parametrize("n", [63, 64, 65])
    @pytest.mark.parametrize("shape", ["path", "star", "complete"])
    def test_block_edges(self, monkeypatch, shape, n):
        # 64-row blocks: n = 64 +- 1 ends one row short of a block, on it, or one past it
        monkeypatch.setattr(graphs, "_BLOCK_BYTES", 64 * n)
        _assert_matches_networkx(_host(shape, n))

    @pytest.mark.parametrize("build, dtype", [
        (lambda: cycle_graph(63), np.int8),  # ecc(0) = 31
        (lambda: cycle_graph(64), np.int16),  # ecc(0) = 32
        (lambda: ball(parse_group("C5*Z"), 4).graph, np.int8),  # ecc(0) = 4
    ], ids=["cycle:63", "cycle:64", "C5*Z-radius-4"])
    def test_dtype_on_each_side_of_the_rule(self, build, dtype):
        assert _assert_matches_networkx(build()).dtype == dtype

    def test_one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(graphs, "_BLOCK_BYTES", 1)
        _assert_matches_networkx(random_connected_graph(random.Random(9), 70, 30))

    @pytest.mark.parametrize("chords", [150, 2000], ids=["rows-bind", "arcs-bind"])
    def test_row_blocks_partition_rows_within_budget(self, monkeypatch, chords):
        n, words, budget = 200, 4, 2000
        g = random_connected_graph(random.Random(4), n, chords)
        indptr = np.cumsum([0] + [len(row) for row in g.adjacency()])
        monkeypatch.setattr(graphs, "_BLOCK_BYTES", budget)
        blocks = graphs._row_blocks(indptr, n, words)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        for start, stop in blocks:
            unpacked, gathered = (stop - start) * n, 8 * words * (indptr[stop] - indptr[start])
            assert stop - start == 1 or max(unpacked, gathered) <= budget

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_past_one_word(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(65, 300)
        _assert_matches_networkx(random_connected_graph(rng, n, rng.randrange(0, n)))

    def test_two_components_raise(self):
        # no vertex is isolated (TestDistances covers that), and the cut crosses a word
        g = make_graph(130, [(i, i + 1) for i in range(129) if i != 64])
        with pytest.raises(PreconditionError, match="disconnected"):
            distance_matrix(g)

    def test_vertex_cap_refused_before_allocating(self):
        n = MAX_VERTICES + 1  # past the generators' own refusal
        g = make_graph(n, [(i, (i + 1) % n) for i in range(n)])
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="cap is"):
                distance_matrix(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("build", [
        lambda: cycle_graph(MAX_VERTICES + 1),
        lambda: grid_graph(128, 129),
        lambda: tree_graph(1, MAX_VERTICES),
        lambda: tree_graph(2, 30),
        lambda: load_graph(f"0 {MAX_VERTICES}"),
    ])
    def test_hosts_past_the_cap_refused_before_building(self, build):
        tracemalloc.start()
        try:
            cap = rf"graph has \d+ vertices, cap is {MAX_VERTICES}$"
            with pytest.raises(PreconditionError, match=cap):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_grid_at_the_cap_builds(self):
        assert grid_graph(128, 128).n == MAX_VERTICES


def _clique_with_tail(k: int, tail: int) -> Graph:
    """A k-clique on 0..k-1 with a path of `tail` more vertices hung from k-1."""
    clique = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return make_graph(k + tail, clique + [(v, v + 1) for v in range(k - 1, k + tail - 1)])


def _level_blocks(n: int) -> int:
    return -(-n * ((n + 63) // 64) // graphs.WORDS_PER_BLOCK)


class TestLevelCounting:
    """d(v, s) = #{l >= 0 : s not in seen_l[v]}, added level by level."""

    @pytest.mark.parametrize("build, top", [
        (lambda: _host("path", 300), 299),  # a count passes 127/128 and 255/256
        (lambda: cycle_graph(600), 300),
    ], ids=["path:300", "cycle:600"])
    def test_counts_past_one_byte(self, build, top):
        d = _assert_matches_networkx(build())
        assert d.dtype == np.int16 and d.max() == top

    @pytest.mark.parametrize("tail", [20, 60], ids=["int8", "int16"])
    def test_blocks_that_finish_at_different_levels(self, monkeypatch, tail):
        # the clique's rows (many arcs) and the tail's rows fall in separate
        # blocks; a block in the middle of the tail stops growing at about
        # half the levels of the clique's, and is skipped from then on
        g = _clique_with_tail(40, tail)
        monkeypatch.setattr(graphs, "_BLOCK_BYTES", 8 * g.n)
        indptr = np.cumsum([0] + [len(row) for row in g.adjacency()])
        blocks = graphs._row_blocks(indptr, g.n, (g.n + 63) // 64)
        ecc = np.array(nx_distances(g)).max(axis=1)
        finished = {int(ecc[start:stop].max()) for start, stop in blocks}
        assert len(blocks) > 4 and len(finished) >= 3
        _assert_matches_networkx(g)

    @pytest.mark.parametrize("build", [
        lambda: grid_graph(30, 30),
        lambda: random_connected_graph(random.Random(16), 1600, 800),
    ], ids=["grid:30,30", "sparse1600"])
    def test_peak_is_the_matrix_the_bitsets_and_a_few_blocks(self, build):
        g = build()
        n = g.n
        tracemalloc.start()
        try:
            d = distance_matrix(g).d
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= d.nbytes + 3 * n * n / 8 + 4 * graphs._BLOCK_BYTES


class TestBudget:
    """The BFS charges ceil(n ceil(n/64) / 64) cell blocks a level."""

    @pytest.mark.parametrize("build", [
        lambda: grid_graph(9, 9),  # ecc(0) = diameter
        lambda: cycle_graph(130),  # ecc(0) = diameter, past two words
        lambda: tree_graph(3, 4),  # ecc(0) = diameter / 2: four levels charged one by one
        lambda: _clique_with_tail(40, 20),
        lambda: Graph(n=1, edges=frozenset()),
    ], ids=["grid:9,9", "cycle:130", "tree:3,4", "clique-tail", "point"])
    def test_charges_one_level_past_the_diameter(self, build):
        # levels 1..diam each find a new source, and level diam + 1 finds none
        g = build()
        diam = max(map(max, nx_distances(g)))
        need = (diam + 1) * _level_blocks(g.n) if g.n > 1 else 0
        budget = Budget(need)
        assert np.array_equal(distance_matrix(g, budget).d, np.array(nx_distances(g)))
        assert budget.spent == need
        if need:
            with pytest.raises(BudgetError, match=f"APSP BFS level {diam + 1} needs"):
                distance_matrix(g, Budget(need - 1))

    def test_ecc0_levels_charged_before_allocating(self):
        g = cycle_graph(5000)  # 2500 levels of 6172 blocks, past the default budget
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=r"at least 2500 levels\) needs 15430000 cell blocks"):
                distance_matrix(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGeodesicPoints:
    def test_tree_unique_geodesic(self):
        g = tree_graph(2, 4)
        dm = distance_matrix(g)
        dist = nx_distances(g)
        rng = random.Random(0)
        for _ in range(20):
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            assert geodesic_points(dm, u, v) == all_geodesic_vertices(g, dist, u, v)

    def test_cycle_antipodes(self):
        dm = distance_matrix(cycle_graph(4))
        assert geodesic_points(dm, 0, 2) == {0, 1, 2, 3}

    def test_grid_opposite_corners(self):
        g = grid_graph(3, 3)
        dm = distance_matrix(g)
        expected = all_geodesic_vertices(g, nx_distances(g), 0, 8)
        assert geodesic_points(dm, 0, 8) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dfs_oracle(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randrange(5, 20), rng.randrange(0, 5))
        dm = distance_matrix(g)
        dist = nx_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                assert geodesic_points(dm, u, v) == all_geodesic_vertices(g, dist, u, v)


class TestPairsByDistance:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_a_brute_sort(self, seed):
        # every pair a < b, by nonincreasing distance and then lexicographically
        rng = random.Random(seed)
        hosts = [
            random_connected_graph(rng, rng.randrange(5, 40), rng.randrange(0, 12)),
            cycle_graph(rng.randrange(3, 30)),
            grid_graph(rng.randrange(1, 7), rng.randrange(2, 7)),
        ]
        for g in hosts:
            dm = distance_matrix(g)
            got = []
            for level, a, b in pairs_by_distance(dm):
                assert all(dm[x, y] == level for x, y in zip(a, b))
                got += zip(a.tolist(), b.tolist())
            pairs = [(a, b) for a in range(g.n) for b in range(a + 1, g.n)]
            assert got == sorted(pairs, key=lambda p: (-dm[p], p[0], p[1]))


class TestCycleGraph:
    def test_triangle(self):
        g = cycle_graph(3)
        assert g.n == 3 and g.m == 3

    def test_hexagon_metric(self):
        assert distance_matrix(cycle_graph(6))[0, 3] == 3

    def test_two_cycle_rejected(self):
        with pytest.raises(PreconditionError):
            cycle_graph(2)


class TestDirectImagePath:
    def test_adjacent_images(self):
        g = cycle_graph(6)
        dm = distance_matrix(g)
        p = direct_image_path(dm, [0, 1, 2])
        assert p.vertices == (0, 1, 2)

    def test_grid_corners_single_geodesic(self):
        dm = distance_matrix(grid_graph(5, 5))
        p = direct_image_path(dm, [0, 24])
        assert p.length == 8
        p.validate(dm)

    def test_cycle_concatenation(self):
        dm = distance_matrix(cycle_graph(6))
        p = direct_image_path(dm, [0, 2, 4])
        assert p.length == 4
        p.validate(dm)

    @pytest.mark.parametrize("seed", range(5))
    def test_length_is_sum_of_distances(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, 15, 4)
        dm = distance_matrix(g)
        images = [rng.randrange(g.n)]
        while len(images) < 5:
            v = rng.randrange(g.n)
            if v != images[-1]:
                images.append(v)
        p = direct_image_path(dm, images)
        assert p.length == sum(dm[a, b] for a, b in zip(images, images[1:]))
        p.validate(dm)
        # visits images in order
        it = iter(p.vertices)
        assert all(im in it for im in [images[0]] + images[1:])

    def test_geodesic_extraction_is_geodesic(self):
        dm = distance_matrix(grid_graph(4, 4))
        path = extract_geodesic(dm, 0, 15)
        assert len(path) - 1 == dm[0, 15]
        for a, b in zip(path, path[1:]):
            assert dm[a, b] == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.randoms(use_true_random=False))
def test_random_tree_has_tree_shape(n, rng):
    g = random_tree(n, rng)
    assert g.m == g.n - 1
    distance_matrix(g)  # refuses a disconnected graph


@pytest.mark.parametrize("seed", range(8))
def test_tree_diameter_matches_networkx(seed):
    rng = random.Random(seed)
    for g in (random_tree(rng.randrange(1, 200), rng), random_tree(1 + seed % 3, rng)):
        assert tree_diameter(g) == networkx.diameter(to_networkx(g))


def test_path_requires_length_one():
    with pytest.raises(PreconditionError):
        Path(vertices=(3,))


def test_distance_matrix_validate_catches_bad_triangle():
    bad = DistanceMatrix(d=np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=np.int32))
    with pytest.raises(PreconditionError):
        bad.validate()
