"""Hyperbolicity constants of finite graphs.

Two constants are computed over the exact distance matrix:

  - the thin-triangle constant over all-geodesic point sets: the maximum,
    over vertex triples (a,b,c) and x in G(a,b), of d(x, G(a,c) u G(b,c)),
    where G(u,v) is the union of all discrete geodesics.  Using the full
    geodesic point set makes the constant canonical (choice-free).
  - the four-point constant: max over quadruples of (L1-L2)/2 where
    L1 >= L2 >= L3 are the three pair-sum distances; an exact half-integer.

Both exact scans are organised in rows: a row is a vertex pair a < b and
holds every triple (a, b, c), or every quadruple (a, b, z, w).  They visit
the rows in the one order of `graphs.pairs_by_distance`, by nonincreasing
d(a, b) with ties in lexicographic order, one distance level at a time, and
stop once no unscanned row can beat the best value found, by these bounds:

  - thin-triangle: every row (a, b) scores at most floor(d(a,b)/2).  Each x
    in G(a,b) has d(x,a) + d(x,b) = d(a,b), so one of the two is at most
    floor(d(a,b)/2); and a lies in G(a,c), b in G(b,c).
  - four-point: if d(x,y) + d(z,w) is the largest pair sum L1, then
    L1 - L2 <= min(d(x,y), d(z,w)).  The other two sums add up to
    d(x,z) + d(z,y) + d(y,w) + d(w,x) >= 2 d(x,y) by the triangle
    inequality, so the larger one, L2, is at least d(x,y), and likewise at
    least d(z,w).  This is the pruning of Cohen, Coudert and Lancin (ACM
    JEA 2015); Borassi, Coudert, Crescenzi and Marino (ESA 2015) refine the
    visit order.

The witnesses are those of a scan over every row in lexicographic order that
keeps the first strict improvement: the first row reaching the maximum, then
its first c and first x in G(a,b), or its first (z, w) in row-major order.
They are recovered as follows:

  - thin-triangle: the pass visits rows while floor(d/2) > best, so it ends
    with the maximum; then the rows with floor(d/2) >= best are rescanned
    in lexicographic order, reusing scored rows' values, up to the first
    row that reaches the maximum (recomputed if the c-major pass scored it).
  - four-point: the pass visits rows while d >= best, and row (x, y)
    scores the quadruples (x, y, z, w) over the rows (z, w) scanned so far,
    taking d(x,y) + d(z,w) as the largest sum (a score below the true value
    where it is not).  Every quadruple that attains the maximum M has both
    pairs of its largest sum at distance >= M, so both rows are scanned and
    the later one collects it.  The value is symmetric in the four points,
    so the first row reaching M is the least pair of two smallest members
    over all collected quadruples (row (0, 1) when M = 0, since every row
    reaches 0); that one row is recomputed in full for its first (z, w).
    No lexicographic rescan is needed.

The thin-triangle row (a, b) reads the tables N_a and N_b, where
N_v[w, y] = d(y, G(v, w)).  G(v, w) is w together with G(v, u) for every
neighbour u of w one step closer to v, so N_v starts as the distance matrix
and, taking w in order of nondecreasing d(v, w),

    N_v[w] = min(N_v[w], min over those u of N_v[u]),

which costs O(m*n) per table.  Tables are kept up to TABLE_CACHE_BYTES (the
first row's two past it); then one c-major pass builds each N_c once, as
N_a[c, x] = N_c[a, x], and scores every unscored row whose bound reaches
the best value: at most max(TABLE_CACHE_BYTES / d.nbytes, 2) + n + 2 tables.

Both scans are O(n^4) at worst: where a constant is 0 on a graph that is
not a tree (a complete graph, a tree of cliques), the bounds stop little or
nothing, so each table, row and c-major pass is charged to a Budget, in the
cell blocks of `errors`, before it is computed.  They use exact integer
arithmetic and return Fractions.  Past EXACT_CUTOFF vertices the CLI takes
instead a seeded uniform sample, a certified lower bound labeled as such,
which charges each sampled triple's masks and gather in the same cell
blocks.  Like graphs, the module imports numpy only inside the functions
that use it, and thin_triangle_delta and hyperbolicity_report answer a tree
from the Graph, with no distance matrix, so a tree costs no numpy import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import Budget, PreconditionError
from .graphs import DistanceMatrix, Graph, Path, distance_matrix, geodesic_mask, pairs_by_distance
from .rational import log2_upper

if TYPE_CHECKING:
    import numpy as np

# graph-analyze samples past this many vertices, unless the host is a tree
EXACT_CUTOFF = 600
CELLS_PER_BLOCK = 64  # distance cells per unit of the scans' Budget charges
# bytes of thin-triangle tables N_v held at once, or the first row's two; each
# is a copy of the distance matrix, n^2 bytes on an int8 host, 2n^2 on int16
TABLE_CACHE_BYTES = 64 << 20


@dataclass(frozen=True)
class HyperbolicityReport:
    delta_thin: Fraction
    delta_four_point: Fraction
    witness: dict  # thin_triple, thin_vertex, four_point
    exact: bool
    samples: int | None = None


def _witness(thin: tuple[tuple[int, int, int], int], four: tuple[int, int, int, int]) -> dict:
    return {"thin_triple": thin[0], "thin_vertex": thin[1], "four_point": four}


def _charge(budget: Budget, cells: int, by: str) -> None:
    budget.charge("cell blocks", -(-cells // CELLS_PER_BLOCK), by=by)


def _nearest_to_geodesics(dm: DistanceMatrix, v: int, nbrs: list[np.ndarray]) -> np.ndarray:
    """Table N[w, y] = d(y, G(v, w)) for all w, y, by the geodesic recurrence
    of the module docstring; nbrs[w] is the neighbour array of w.  The table
    starts as a copy of the distance matrix, so it takes d.nbytes: n^2 bytes
    for an int8 matrix, 2n^2 for an int16 one."""
    import numpy as np

    dv = dm.d[v]
    out = dm.d.copy()
    # w = v comes first and has no predecessor; every later w has one
    for w in np.argsort(dv, kind="stable")[1:]:
        pred = nbrs[w][dv[nbrs[w]] == dv[w] - 1]
        np.minimum(out[w], out[pred].min(axis=0), out=out[w])
    return out


def _thin_triangle_point(
    dm: DistanceMatrix, a: int, b: int, c: int, budget: Budget | None = None
) -> tuple[int, int]:
    """thin_triangle_value of one ordered triple, with the first x in G(a,b)
    that attains it.  With a budget, the three masks (3n cells) and the
    gather (|G(a,b)| * |G(a,c) u G(b,c)| cells) are charged before the gather."""
    import numpy as np

    union = geodesic_mask(dm, a, c) | geodesic_mask(dm, b, c)
    idx = geodesic_mask(dm, a, b).nonzero()[0]
    if budget is not None:
        _charge(budget, 3 * dm.n + len(idx) * int(union.sum()), "a sampled triple of --samples")
    dist_to_union = dm.d[np.ix_(idx, union)].min(axis=1)
    k = int(dist_to_union.argmax())
    return int(dist_to_union[k]), int(idx[k])


def thin_triangle_value(dm: DistanceMatrix, a: int, b: int, c: int) -> int:
    """max over x in G(a,b) of d(x, G(a,c) u G(b,c)) for one ordered triple."""
    return _thin_triangle_point(dm, a, b, c)[0]


def thin_triangle_delta(
    g: Graph, dm: DistanceMatrix | None = None, budget: Budget | None = None
) -> tuple[Fraction, tuple]:
    """Exact thin-triangle constant with a witness ((a,b,c), x).

    The witness reproduces the constant via thin_triangle_value.  Trees are
    dispatched from g alone, before any distance matrix is read or built:
    geodesics are unique and triangles are tripods, so the constant is 0.
    Each table, row and c-major pass is charged to `budget` before it runs.
    Without dm, the scan builds the distance matrix of g itself.
    """
    n = g.n
    if n <= 2 or g.is_tree:
        return Fraction(0), ((0, 0, 0), 0)
    budget = budget or Budget()
    if dm is None:
        dm = distance_matrix(g, budget)
    import numpy as np

    d = dm.d
    nbrs = [np.array(row, dtype=np.intp) for row in g.adjacency()]
    tables, known = {}, np.full_like(d, -1)  # known: each scored row's value, else -1

    def table(v: int) -> np.ndarray:
        if v not in tables:
            _charge(budget, n * n, "a thin-triangle table")
            tables[v] = _nearest_to_geodesics(dm, v, nbrs)
        return tables[v]

    def row(a: int, b: int) -> tuple[int, tuple]:
        idx = np.nonzero(geodesic_mask(dm, a, b))[0]
        _charge(budget, 2 * n * len(idx), "a thin-triangle row")
        vals = np.minimum(table(a)[:, idx], table(b)[:, idx])
        per_c = vals.max(axis=1)
        c = int(per_c.argmax())
        return int(per_c[c]), ((a, b, c), int(idx[int(vals[c].argmax())]))

    def score(a: int, b: int) -> int:  # the first row's two tables are kept past the cap
        nonlocal first
        held = len(tables) + (a not in tables) + (b not in tables)
        if known[a, b] < 0 and tables and held * d.nbytes > TABLE_CACHE_BYTES:
            c_major_pass()
        elif known[a, b] < 0:
            value, witness = row(a, b)
            known[a, b], first = value, min(first, (-value, (a, b), witness))
        return int(known[a, b])

    def c_major_pass() -> None:  # every unscored row with floor(d/2) >= best
        tables.clear()  # the pass holds one table at a time
        _charge(budget, n**3, "a c-major thin-triangle pass")  # its tables, before it counts points
        rows = np.triu((d // 2 >= best) & (known < 0), 1)

        def geodesics():  # each a, its rows' b and their masks G(a, b), one per b
            for a, bs in enumerate(map(np.flatnonzero, rows)):
                yield a, bs, d[a] + d[bs] == d[a, bs][:, None]
        points = sum(int(geo.sum()) for _, _, geo in geodesics())
        _charge(budget, 2 * n * points, "a c-major thin-triangle pass")
        parts = [(a * n + x, bs[r] * n + x, geo.sum(axis=1))  # flat indices of (a, x), (b, x) in N_c
                 for a, bs, geo in geodesics() for r, x in [geo.nonzero()]]
        at_a, at_b, counts = (np.concatenate(p) for p in zip(*parts))
        starts = np.cumsum(counts) - counts  # no row is empty: it holds a and b
        value = np.zeros(len(counts), d.dtype)
        for c in range(n):
            t = _nearest_to_geodesics(dm, c, nbrs).ravel()  # N_c[a, x] = N_a[c, x]
            np.maximum(value, np.maximum.reduceat(np.minimum(t[at_a], t[at_b]), starts), out=value)
        known[rows] = value

    best, first = -1, (1,)  # first: (-value, row, witness) of the least top row row() scored
    for level, a_s, b_s in pairs_by_distance(dm):
        if level // 2 <= best:
            break
        for a, b in zip(a_s.tolist(), b_s.tolist()):
            best = max(best, score(a, b))
            if level // 2 <= best:
                break
    # rescan in lexicographic order the rows whose bound reaches the maximum
    a_s, b_s = np.nonzero(np.triu(d // 2 >= best, 1))
    for a, b in zip(a_s.tolist(), b_s.tolist()):
        if score(a, b) == best:  # that is first, unless the c-major pass scored it
            return Fraction(best), first[2] if first[:2] == (-best, (a, b)) else row(a, b)[1]
    raise AssertionError("no row reaches the maximum of the pass")


def four_point_value(dm: DistanceMatrix, x: int, y: int, z: int, w: int) -> Fraction:
    """(L1 - L2)/2 for one quadruple, where L1 >= L2 >= L3 are the pair sums."""
    d = dm.d
    sums = sorted([
        int(d[x, y]) + int(d[z, w]), int(d[x, z]) + int(d[y, w]), int(d[x, w]) + int(d[y, z])
    ])
    return Fraction(sums[2] - sums[1], 2)


def _four_point_row(d: np.ndarray, x: int, y: int) -> np.ndarray:
    """L1 - L2 of the quadruple (x, y, z, w), for every z and w.

    Each pair sum fits in d's dtype, int8 or int16 (see graphs), but
    s1 + s2 + s3 need not, so the median L2 is taken with min and max."""
    import numpy as np

    s1 = int(d[x, y]) + d
    s2 = d[x][:, None] + d[y][None, :]
    s3 = d[y][:, None] + d[x][None, :]
    lo, hi = np.minimum(s1, s2), np.maximum(s1, s2)
    return np.maximum(hi, s3) - np.maximum(lo, np.minimum(hi, s3))


def four_point_delta(
    dm: DistanceMatrix, tree_hint: bool = False, budget: Budget | None = None
) -> tuple[Fraction, tuple[int, int, int, int]]:
    """Exact Gromov four-point constant with an achieving quadruple.

    On trees the four-point condition is an equality, so callers may pass
    tree_hint to skip the quadruple scan.  Each row is charged to `budget`
    before it is computed.
    """
    n = dm.n
    if n <= 2 or tree_hint:
        return Fraction(0), (0, 0, 0, 0)
    budget = budget or Budget()
    import numpy as np

    d = dm.d
    best = -1
    first = (0, 1)  # least two smallest members of a quadruple attaining best
    zs = ws = np.zeros(0, dtype=np.intp)  # the rows scanned so far
    # a row scores at most its level, so the pass can only stop between levels
    for level, a_s, b_s in pairs_by_distance(dm):
        if level < best:
            break
        start = len(zs)
        zs, ws = np.concatenate((zs, a_s)), np.concatenate((ws, b_s))
        dzw = d[zs, ws]
        for i, (x, y) in enumerate(zip(a_s.tolist(), b_s.tolist()), start):
            # Quadruples (x, y, z, w) over the rows (z, w) scanned so far: lead
            # is L1 - L2 where d(x,y) + d(z,w) is the largest sum, and negative
            # where not; the quadruple then shows up in the row of that sum.
            _charge(budget, i + 1, "a four-point row")
            z, w = zs[: i + 1], ws[: i + 1]
            lead = (d[x, y] + dzw[: i + 1]) - np.maximum(d[x, z] + d[y, w], d[x, w] + d[y, z])
            top = int(lead.max())  # at least 0, from (z, w) = (x, y)
            if top < best or top == 0:
                best = max(best, top)
                continue
            hit = np.nonzero(lead == top)[0]
            corners = np.full_like(hit, x), np.full_like(hit, y), z[hit], w[hit]
            members = np.sort(np.stack(corners, axis=1))
            k = int(np.argmin(members[:, 0] * n + members[:, 1]))
            least = (int(members[k, 0]), int(members[k, 1]))
            first = least if top > best else min(first, least)
            best = top
    _charge(budget, n * n, "the four-point witness row")
    diff = _four_point_row(d, *first)
    z, w = np.unravel_index(int(diff.argmax()), diff.shape)
    return Fraction(best, 2), (*first, int(z), int(w))


def hyperbolicity_report(
    g: Graph, dm: DistanceMatrix | None, budget: Budget | None = None
) -> HyperbolicityReport:
    """Both exact constants, the two scans charging one `budget`.

    A tree's constants are both 0, read off g, so on a tree dm may be None."""
    budget = budget or Budget()
    dt, wt = thin_triangle_delta(g, dm, budget)
    if g.is_tree:  # the four-point condition is an equality on a tree
        d4, w4 = Fraction(0), (0, 0, 0, 0)
    else:
        d4, w4 = four_point_delta(dm, budget=budget)
    return HyperbolicityReport(
        delta_thin=dt, delta_four_point=d4, witness=_witness(wt, w4), exact=True
    )


def sampled_hyperbolicity(
    dm: DistanceMatrix, samples: int, seed: int, budget: Budget | None = None
) -> HyperbolicityReport:
    """Seeded uniform sampling of triples/quadruples: a lower bound on both deltas.

    Each sampled triple is charged to `budget` before its gather."""
    if samples < 1:
        raise PreconditionError(f"samples must be >= 1, got {samples}")
    n = dm.n
    rng = random.Random(seed)
    budget = budget or Budget()
    best_t = -1
    wt = ((0, 0, 0), 0)
    best_q = Fraction(-1)
    wq = (0, 0, 0, 0)
    for _ in range(samples):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        v, x = _thin_triangle_point(dm, a, b, c, budget)
        if v > best_t:
            best_t, wt = v, ((a, b, c), x)
        x0, y0, z0, w0 = (rng.randrange(n) for _ in range(4))
        q = four_point_value(dm, x0, y0, z0, w0)
        if q > best_q:
            best_q, wq = q, (x0, y0, z0, w0)
    return HyperbolicityReport(
        delta_thin=Fraction(max(best_t, 0)),
        delta_four_point=max(best_q, Fraction(0)),
        witness=_witness(wt, wq),
        exact=False,
        samples=samples,
    )


@dataclass(frozen=True)
class GeodesicPathBoundReport:
    max_observed: int
    bound: Fraction
    passes: bool
    path_length: int
    geodesic_vertices: int
    slack: int


def verify_geodesic_path_bound(
    dm: DistanceMatrix,
    alpha: Path,
    x1: int,
    x2: int,
    delta: Fraction,
    slack: int = 2,
) -> GeodesicPathBoundReport:
    """Check d(y, alpha) <= delta*log2(len(alpha)) + 1 + slack for every vertex y
    lying on some discrete geodesic from x1 to x2.

    The statement being checked holds in geodesic spaces; the additive slack
    (default 2) absorbs the continuous-vs-discrete geodesic discrepancy, since
    the continuous path metric agrees with the discrete one on vertices and
    any continuous geodesic stays within distance 1 of a discrete one.
    `delta` should be a certified hyperbolicity constant of the host.
    """
    alpha.validate(dm)
    if alpha.vertices[0] != x1 or alpha.vertices[-1] != x2:
        raise PreconditionError("path endpoints do not match x1, x2")
    import numpy as np

    path_idx = np.array(sorted(set(alpha.vertices)), dtype=np.int64)
    dist_to_path = dm.d[:, path_idx].min(axis=1)
    geo = np.nonzero(geodesic_mask(dm, x1, x2))[0]
    max_obs = int(dist_to_path[geo].max())
    bound = delta * log2_upper(Fraction(alpha.length)) + 1 + slack
    return GeodesicPathBoundReport(
        max_observed=max_obs,
        bound=bound,
        passes=Fraction(max_obs) <= bound,
        path_length=alpha.length,
        geodesic_vertices=int(len(geo)),
        slack=slack,
    )
