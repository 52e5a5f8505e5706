import functools
import importlib.util
import itertools
import random
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypme import hyperbolicity
from hypme.cycles import cycle_distance, verify_embedding
from hypme.errors import Budget, BudgetError, PreconditionError
from hypme.graphs import (
    MAX_VERTICES,
    DistanceMatrix,
    cycle_graph,
    direct_image_path,
    distance_matrix,
    geodesic_mask,
    grid_graph,
    load_graph,
    make_graph,
    pairs_by_distance,
    tree_graph,
)
from hypme.groups import ball, parse_group
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
    full_scan_four_point_delta,
    full_scan_thin_delta,
    nx_distances,
    random_connected_graph,
    random_tree,
)


class TestTreeCase:
    @pytest.mark.parametrize("branching,depth", [(2, 3), (3, 3), (1, 5)])
    def test_generated_trees_are_zero(self, branching, depth):
        g = tree_graph(branching, depth)
        dm = distance_matrix(g)
        rep = hyperbolicity_report(g, dm)
        assert rep.delta_thin == 0 and rep.delta_four_point == 0
        assert four_point_delta(dm, tree_hint=True) == (0, (0, 0, 0, 0))
        assert four_point_delta(dm)[0] == 0  # the hint skips a scan that finds 0

    def test_trees_read_no_distance_matrix(self):
        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"the tree dispatch read dm.{name}")

        for g in (tree_graph(2, 3), random_tree(20, random.Random(5))):
            assert thin_triangle_delta(g, Unreadable()) == (0, ((0, 0, 0), 0))
            assert thin_triangle_delta(g) == (0, ((0, 0, 0), 0))

    def test_report_on_a_tree_needs_no_matrix(self, monkeypatch):
        trees = [tree_graph(1, 0), tree_graph(1, 1), tree_graph(2, 3), random_tree(20, random.Random(5))]
        with_matrix = [hyperbolicity_report(g, distance_matrix(g)) for g in trees]

        def fail(*args, **kwargs):
            raise AssertionError("the tree report ran a matrix kernel")

        monkeypatch.setattr(hyperbolicity, "four_point_delta", fail)
        monkeypatch.setattr(hyperbolicity, "distance_matrix", fail)
        assert [hyperbolicity_report(g, None) for g in trees] == with_matrix

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
            assert (dt, ((a, b, c), x)) == full_scan_thin_delta(g, dm)
            assert (d4, w4) == full_scan_four_point_delta(dm)

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


def path_metric(points: list[int]) -> list[list[int]]:
    return [[abs(p - q) for q in points] for p in points]


def cycle_metric(length: int, points: list[int]) -> list[list[int]]:
    return [[cycle_distance(length, p, q) for q in points] for p in points]


def cap_metrics(top: int) -> dict[str, list[list[int]]]:
    """A few points of a path and of a cycle whose distances reach `top`,
    built without the graphs themselves."""
    antipodal = random.Random(5).sample(range(top), 4)
    return {
        "path": path_metric([0, 1, 2, top // 2, top // 2 + 1, top - 2, top - 1, top]),
        "cycle": cycle_metric(2 * top, [0, 1, top // 2, top - 1, top, top + 1, 3 * top // 2, 2 * top - 1]),
        "cycle-antipodes": cycle_metric(2 * top, sorted(antipodal + [p + top for p in antipodal])),
    }


# Each dtype of DistanceMatrix.d with the largest distance it holds: an int16
# host is under the vertex cap, an int8 host has 2 ecc(0) <= 63.  Pair sums
# reach 32,766 and 126, one below each maximum, and three of them overflow it.
TOPS = {np.int16: MAX_VERTICES - 1, np.int8: 63}
CAP_METRICS = {dtype: cap_metrics(top) for dtype, top in TOPS.items()}
CAP_CASES = [
    pytest.param(dtype, name, id=name if dtype is np.int16 else f"{name}-{dtype.__name__}")
    for dtype, metrics in CAP_METRICS.items() for name in metrics
]


def py_thin_point(dist, a: int, b: int, c: int) -> tuple[int, int]:
    """_thin_triangle_point in Python ints: the largest d(x, G(a,c) u G(b,c))
    over x in G(a,b), and the first x that attains it."""
    n = len(dist)

    def geo(u, v):
        return [x for x in range(n) if dist[u][x] + dist[x][v] == dist[u][v]]

    union = set(geo(a, c)) | set(geo(b, c))
    best = (-1, -1)
    for x in geo(a, b):
        value = min(dist[x][y] for y in union)
        if value > best[0]:
            best = (value, x)
    return best


def py_lead(dist, x: int, y: int, z: int, w: int) -> int:
    """L1 - L2 of a quadruple, in Python ints."""
    sums = sorted([dist[x][y] + dist[z][w], dist[x][z] + dist[y][w], dist[x][w] + dist[y][z]])
    return sums[2] - sums[1]


class TestDistancesAtTheCap:
    """The kernels in each dtype against Python ints on distances up to its top."""

    @pytest.mark.parametrize("dtype", TOPS)
    def test_two_distances_fit(self, dtype):
        top = TOPS[dtype]
        assert 2 * top <= np.iinfo(dtype).max < 2 * (top + 1)

    @pytest.mark.parametrize("dtype, name", CAP_CASES)
    def test_kernels_match_python_ints(self, dtype, name):
        top = TOPS[dtype]
        dist = CAP_METRICS[dtype][name]
        n = len(dist)
        dm = DistanceMatrix(d=np.array(dist, dtype=dtype))
        assert int(dm.d.max()) == top
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on scalar overflow
            dm.validate()
            for x, y in itertools.product(range(n), repeat=2):
                assert geodesic_mask(dm, x, y).tolist() == [
                    dist[x][z] + dist[z][y] == dist[x][y] for z in range(n)
                ]
                row = hyperbolicity._four_point_row(dm.d, x, y)
                assert row.tolist() == [[py_lead(dist, x, y, z, w) for w in range(n)] for z in range(n)]
                for z in range(n):
                    assert hyperbolicity._thin_triangle_point(dm, x, y, z) == py_thin_point(dist, x, y, z)
            for q in itertools.product(range(0, n, 2), repeat=4):
                assert four_point_value(dm, *q) == Fraction(py_lead(dist, *q), 2)
            d4, w4 = four_point_delta(dm)
            assert 2 * d4 == brute_four_point_numerator(dist, n)
            assert four_point_value(dm, *w4) == d4
            for images in (list(range(n)), list(range(n))[::-1][::2] + list(range(1, n, 2))):
                emb = verify_embedding(dm, images)
                ratios = [
                    Fraction(dist[images[i]][images[j]], cycle_distance(len(images), i, j))
                    for i, j in itertools.combinations(range(len(images)), 2)
                ]
                assert (emb.a, emb.b) == (min(ratios), max(ratios))

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int8])
    def test_validate(self, dtype):
        top = TOPS.get(dtype, MAX_VERTICES - 1)  # an int32 matrix holds any distance under the cap
        bad = {
            "triangle": [[0, top, 1], [top, 0, 1], [1, 1, 0]],
            ">= 1": [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
            rf"<= {top} = min\(MAX_VERTICES - 1, {np.dtype(dtype).name} maximum // 2\)":
                [[0, top + 1, 1], [top + 1, 0, top], [1, top, 0]],
            "symmetric": [[0, 1, 2], [1, 0, 1], [1, 1, 0]],
            "diagonal": [[1, 1], [1, 0]],
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow on the way to a refusal
            for dist in cap_metrics(top).values():
                DistanceMatrix(d=np.array(dist, dtype=dtype)).validate()
            for match, dist in bad.items():
                with pytest.raises(PreconditionError, match=match):
                    DistanceMatrix(d=np.array(dist, dtype=dtype)).validate()


def sparse_graph(n: int, seed: int):
    """A random tree on n vertices plus n/2 chords, seeded."""
    return random_connected_graph(random.Random(seed), n, n // 2)


def complete_graph_text(n: int) -> str:
    return "\n".join(f"{u} {v}" for u, v in itertools.combinations(range(n), 2))


WITNESS_HOSTS = {
    "grid3x3": grid_graph(3, 3), "grid4x7": grid_graph(4, 7), "grid9x9": grid_graph(9, 9),
    "cycle5": cycle_graph(5), "cycle8": cycle_graph(8), "cycle13": cycle_graph(13),
    "cycle100": cycle_graph(100), "sparse60": sparse_graph(60, 1), "sparse100": sparse_graph(100, 2),
    "sparse130": sparse_graph(130, 3), "sparse170": sparse_graph(170, 4),
}
# n = 149 and thin-triangle constant 1: the bounds prune few rows
C5Z_BALL4 = ball(parse_group("C5*Z"), 4).graph


class TestWitnessOrder:
    """The pruned scans return the value and the witness of the full scan over
    every pair in lexicographic order (tests/oracles.py)."""

    @pytest.mark.parametrize("g", WITNESS_HOSTS.values(), ids=WITNESS_HOSTS.keys())
    def test_same_value_and_witness_as_full_scan(self, g):
        dm = distance_matrix(g)
        assert thin_triangle_delta(g, dm) == full_scan_thin_delta(g, dm)
        assert four_point_delta(dm) == full_scan_four_point_delta(dm)

    @pytest.mark.parametrize("tables", [1, 5])
    @pytest.mark.parametrize(
        "g", [*WITNESS_HOSTS.values(), C5Z_BALL4], ids=[*WITNESS_HOSTS.keys(), "C5*Z-ball4"]
    )
    def test_c_major_pass_gives_the_full_scan(self, monkeypatch, g, tables):
        # with room for one table, the first row keeps its two tables and the
        # next row to need another starts the c-major pass
        dm = distance_matrix(g)
        monkeypatch.setattr(hyperbolicity, "TABLE_CACHE_BYTES", tables * dm.d.nbytes)
        assert thin_triangle_delta(g, dm) == full_scan_thin_delta(g, dm)

    @pytest.mark.parametrize("g", [grid_graph(4, 7), cycle_graph(13)], ids=["grid4x7", "cycle13"])
    def test_scan_builds_its_own_matrix(self, g):
        assert thin_triangle_delta(g) == thin_triangle_delta(g, distance_matrix(g))

    @pytest.mark.parametrize("text", ["0 1\n1 2\n0 2", complete_graph_text(4), complete_graph_text(5)],
                             ids=["cycle3", "K4", "K5"])
    def test_zero_delta_on_graphs_that_are_not_trees(self, text):
        # every row reaches 0, so both witnesses come from the first row (0, 1)
        g = load_graph(text)
        dm = distance_matrix(g)
        assert not g.is_tree
        assert thin_triangle_delta(g, dm) == full_scan_thin_delta(g, dm) == (0, ((0, 1, 0), 0))
        assert four_point_delta(dm) == full_scan_four_point_delta(dm) == (0, (0, 1, 0, 0))


class TestForcedScanMemory:
    def test_grid_30x30_forced(self):
        # n = 900: all n tables would take 2n^3 = 1.46 GB; only the endpoints
        # of the one visited row are built
        g = grid_graph(30, 30)
        dm = distance_matrix(g)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            rep = hyperbolicity_report(g, dm)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 30
        assert peak < 200 * 2**20
        assert rep.delta_thin == rep.delta_four_point == 29
        w = rep.witness
        assert thin_triangle_value(dm, *w["thin_triple"]) == rep.delta_thin
        assert four_point_value(dm, *w["four_point"]) == rep.delta_four_point


INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


@functools.cache
def bench_inputs():
    """perfbench/inputs.py, whose seeded sparse hosts the benchmark reads."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_sparse(n: int, chords: int, seed: int):
    return make_graph(n, bench_inputs().sparse_graph(n, chords, seed))


def count_builds(monkeypatch) -> list[int]:
    """The vertices whose thin-triangle tables are built from now on, in order."""
    built = []
    build = hyperbolicity._nearest_to_geodesics

    def counted(dm, v, nbrs):
        built.append(v)
        return build(dm, v, nbrs)

    monkeypatch.setattr(hyperbolicity, "_nearest_to_geodesics", counted)
    return built


class TestTableBuilds:
    """While its tables fit under TABLE_CACHE_BYTES (or are the first row's
    two), the scan builds each table at most once; past that, one c-major
    pass builds each table once more, and the witness row two."""

    @pytest.mark.parametrize(
        "g, tables",
        [
            pytest.param(lambda: grid_graph(9, 9), 2, id="grid9x9"),
            pytest.param(lambda: cycle_graph(100), 2, id="cycle100"),
            pytest.param(lambda: bench_sparse(170, 85, 1), 25, id="graph-exact-sparse170"),
            pytest.param(lambda: grid_graph(24, 24), 2, id="grid24x24"),
            pytest.param(lambda: bench_sparse(500, 250, 1), 10, id="sparse500"),
            pytest.param(lambda: bench_sparse(600, 300, 2), 52, id="sparse600"),
        ],
    )
    def test_hosts_that_fit_build_only_their_rows_tables(self, monkeypatch, g, tables):
        # every table of these hosts' scored rows fits, so each is built once
        g = g()
        dm = distance_matrix(g)
        built = count_builds(monkeypatch)
        thin_triangle_delta(g, dm)
        assert len(built) == len(set(built)) == tables

    @pytest.mark.parametrize("tables", [0, 1])
    def test_the_first_row_keeps_its_two_tables(self, monkeypatch, tables):
        # grid 20x20's first row (0, 399) reaches its bound, 19, and ends the
        # scan: with room for fewer than two tables it still builds only two
        g = grid_graph(20, 20)
        dm = distance_matrix(g)
        built = count_builds(monkeypatch)
        monkeypatch.setattr(hyperbolicity, "TABLE_CACHE_BYTES", tables * dm.d.nbytes)
        assert thin_triangle_delta(g, dm) == (19, ((0, 399, 19), 380))
        assert built == [0, 399]

    @pytest.mark.parametrize(
        "g, tables", [(sparse_graph(120, 5), 3), (C5Z_BALL4, 5), (sparse_graph(120, 5), 1)],
        ids=["sparse120", "C5*Z-ball4", "sparse120-one-table"],
    )
    def test_no_table_built_twice_before_the_pass(self, monkeypatch, g, tables):
        dm = distance_matrix(g)
        expected = thin_triangle_delta(g, dm)
        built = count_builds(monkeypatch)
        at_pass = []  # the tables built when the c-major pass is charged
        charge = Budget.charge

        def recorded(budget, what, amount=1, *, by):
            if by == "a c-major thin-triangle pass":
                at_pass.append(len(built))
            charge(budget, what, amount, by=by)

        monkeypatch.setattr(Budget, "charge", recorded)
        monkeypatch.setattr(hyperbolicity, "TABLE_CACHE_BYTES", tables * dm.d.nbytes)
        assert thin_triangle_delta(g, dm) == expected
        assert len(at_pass) == 2 and at_pass[0] == at_pass[1]  # its tables, then its points
        before = built[: at_pass[0]]
        assert len(before) == len(set(before)) <= max(tables, 2)
        assert sorted(built[at_pass[0]: at_pass[0] + g.n]) == list(range(g.n))
        assert len(built) <= max(tables, 2) + g.n + 2 <= 2 * g.n


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
        r1 = sampled_hyperbolicity(dm, samples=300, seed=11)
        r2 = sampled_hyperbolicity(dm, samples=300, seed=11)
        assert r1 == r2
        assert not r1.exact
        assert r1.delta_thin <= exact

    def test_sampled_thin_witness_attains_the_value(self):
        g = grid_graph(8, 5)
        dm = distance_matrix(g)
        rep = sampled_hyperbolicity(dm, samples=200, seed=3)
        (a, b, c), x = rep.witness["thin_triple"], rep.witness["thin_vertex"]
        union = geodesic_mask(dm, a, c) | geodesic_mask(dm, b, c)
        assert thin_triangle_value(dm, a, b, c) == rep.delta_thin > 0
        assert geodesic_mask(dm, a, b)[x]
        assert dm.d[x, union].min() == rep.delta_thin


class TestCutoff:
    """EXACT_CUTOFF picks the CLI's path only: the kernels never read it."""

    def test_kernels_ignore_the_cutoff(self, monkeypatch):
        g = cycle_graph(12)
        dm = distance_matrix(g)
        expected = hyperbolicity_report(g, dm)
        monkeypatch.setattr(hyperbolicity, "EXACT_CUTOFF", 10)
        assert hyperbolicity_report(g, dm) == expected


def fail_if_called(*args):
    raise AssertionError("computed before its charge")


class TestBudget:
    """Both exact scans charge the Budget, in cell blocks, before they compute."""

    def spent(self, scan, *args) -> int:
        budget = Budget(10**12)
        scan(*args, budget=budget)
        return budget.spent

    def test_thin_triangle_row_charged_before_any_table(self, monkeypatch):
        g = grid_graph(9, 9)
        dm = distance_matrix(g)
        monkeypatch.setattr(hyperbolicity, "_nearest_to_geodesics", fail_if_called)
        # the first row, corner to corner, has all 81 vertices on its
        # geodesics: 2 * 81 * 81 cells, 206 blocks
        budget = Budget(205)
        with pytest.raises(BudgetError, match="thin-triangle row needs 206 cell blocks.*--budget"):
            thin_triangle_delta(g, dm, budget)
        assert budget.spent == 0

    def test_thin_triangle_table_charged_before_it_is_built(self, monkeypatch):
        g = grid_graph(9, 9)
        dm = distance_matrix(g)
        monkeypatch.setattr(hyperbolicity, "_nearest_to_geodesics", fail_if_called)
        budget = Budget(206 + 102)  # the row, and not one table of 81 * 81 cells
        with pytest.raises(BudgetError, match="thin-triangle table needs 103 cell blocks"):
            thin_triangle_delta(g, dm, budget)
        assert budget.spent == 206

    @pytest.mark.parametrize("room", [0, 1], ids=["at-its-tables", "at-its-points"])
    def test_c_major_pass_charged_before_its_point_lists(self, monkeypatch, room):
        g = sparse_graph(300, 7)
        dm = distance_matrix(g)
        n, build, built = g.n, hyperbolicity._nearest_to_geodesics, []
        _, a_s, b_s = next(pairs_by_distance(dm))
        points = int(geodesic_mask(dm, a_s[0], b_s[0]).sum())
        first_row = 2 * -(-n * n // 64) + -(-2 * n * points // 64)  # its two tables and its row
        tables = n**3 // 64  # 421,875; the points' charge is 2,060,485

        def first_row_only(dm, v, nbrs):
            built.append(v)
            if len(built) > 2:
                raise AssertionError("computed before its charge")
            return build(dm, v, nbrs)

        monkeypatch.setattr(hyperbolicity, "_nearest_to_geodesics", first_row_only)
        # room for one table: the first row keeps its two, the next starts the pass
        monkeypatch.setattr(hyperbolicity, "TABLE_CACHE_BYTES", dm.d.nbytes)
        budget = Budget(first_row + room * tables + 1000)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=r"c-major thin-triangle pass needs \d{6,} cell"):
                thin_triangle_delta(g, dm, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(built) == 2
        assert budget.spent == first_row + room * tables
        # a few n^2 bytes; the pass's 220k points would take 16 bytes each, 3.5 MB
        assert peak < 10 * dm.d.nbytes

    @pytest.mark.parametrize("g", [grid_graph(9, 9), cycle_graph(100)], ids=["grid9x9", "cycle100"])
    def test_the_witness_row_is_not_computed_again(self, monkeypatch, g):
        # the first row ends these scans and is their witness: one row charged
        charged = []
        charge = Budget.charge

        def recorded(budget, what, amount=1, *, by):
            charged.append(by)
            charge(budget, what, amount, by=by)

        monkeypatch.setattr(Budget, "charge", recorded)
        thin_triangle_delta(g, distance_matrix(g), Budget())
        assert charged.count("a thin-triangle row") == 1

    def test_a_cached_table_is_not_charged_again(self, monkeypatch):
        g = sparse_graph(120, 5)
        dm = distance_matrix(g)
        built, charged = count_builds(monkeypatch), []
        charge = Budget.charge

        def recorded(budget, what, amount=1, *, by):
            charged.append(by)
            charge(budget, what, amount, by=by)

        monkeypatch.setattr(Budget, "charge", recorded)
        thin_triangle_delta(g, dm, Budget())
        assert charged.count("a thin-triangle table") == len(built) >= 2

    def test_four_point_stops_within_the_limit(self):
        dm = distance_matrix(sparse_graph(60, 1))  # the scan spends 1,341 blocks
        budget = Budget(1000)
        with pytest.raises(BudgetError, match="a four-point row needs"):
            four_point_delta(dm, budget=budget)
        assert budget.spent <= budget.limit

    def test_four_point_witness_row_charged_before_it_is_computed(self, monkeypatch):
        dm = distance_matrix(grid_graph(9, 9))
        total = self.spent(four_point_delta, dm)
        monkeypatch.setattr(hyperbolicity, "_four_point_row", fail_if_called)
        with pytest.raises(BudgetError, match="four-point witness row needs 103 cell blocks"):
            four_point_delta(dm, budget=Budget(total - 1))

    def test_report_charges_both_scans_to_one_budget(self):
        g = sparse_graph(60, 3)
        dm = distance_matrix(g)
        assert self.spent(hyperbolicity_report, g, dm) == (
            self.spent(thin_triangle_delta, g, dm) + self.spent(four_point_delta, dm)
        )

    def test_trees_charge_nothing(self):
        g = tree_graph(3, 4)
        assert self.spent(hyperbolicity_report, g, distance_matrix(g)) == 0

    def test_own_distance_matrix_charged_to_the_scan_budget(self):
        g = sparse_graph(60, 3)
        assert self.spent(thin_triangle_delta, g) == (
            self.spent(distance_matrix, g) + self.spent(thin_triangle_delta, g, distance_matrix(g))
        )


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
            rep = verify_geodesic_path_bound(dm, alpha, x1, x2, Fraction(0))
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
        rep = verify_geodesic_path_bound(dm, alpha, 0, 4, dt)
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
            rep = verify_geodesic_path_bound(dm, alpha, x1, x2, dt + 2)
            assert rep.passes

    def test_default_slack_is_two(self):
        # on C24 the long arc from 0 to 6 stays 3 away from the geodesic's
        # midpoint 3; with delta = 0 the bound is 0 + 1 + slack, so only the
        # default slack 2 passes it
        g = cycle_graph(24)
        dm = distance_matrix(g)
        from hypme.graphs import Path

        alpha = Path(vertices=(0, *range(23, 5, -1)))
        rep = verify_geodesic_path_bound(dm, alpha, 0, 6, Fraction(0))
        assert (rep.slack, rep.max_observed, rep.bound, rep.passes) == (2, 3, 3, True)
        assert not verify_geodesic_path_bound(dm, alpha, 0, 6, Fraction(0), slack=1).passes

    def test_endpoint_mismatch_rejected(self):
        g = cycle_graph(6)
        dm = distance_matrix(g)
        alpha = direct_image_path(dm, [0, 2])
        from hypme.errors import PreconditionError

        with pytest.raises(PreconditionError):
            verify_geodesic_path_bound(dm, alpha, 1, 2, Fraction(1))
