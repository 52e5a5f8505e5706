"""Bi-Lipschitz embedded cycles and the hyperbolicity obstruction.

A cycle embedding is a map from the n-cycle into a host graph together with
its tight bi-Lipschitz constants (a, b), computed as exact rationals over
all vertex pairs.  In a delta-hyperbolic host the lower constant of a long
cycle is obstructed: a <= (4*delta*log2(b*n) + 4 + 2*b)/n for even n, and
asymptotically a < 6*delta*log(n)/n, reported when delta >= 1 and certified
at the even length n_even.  A single verified embedding that beats the bound
therefore certifies non-hyperbolicity at that delta.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import graphs
from .errors import Budget, BudgetError, PreconditionError
from .rational import FracInterval, log2_upper

EXHAUSTIVE_VERTEX_LIMIT = 40


@dataclass(frozen=True)
class CycleEmbedding:
    n: int
    images: tuple[int, ...]
    a: Fraction
    b: Fraction


def cycle_distance(n: int, i: int, j: int) -> int:
    k = abs(i - j)
    return min(k, n - k)


def verify_embedding(host_d: graphs.DistanceMatrix, images: list[int]) -> CycleEmbedding:
    """Tight constants: a = min over pairs of d_host/d_cycle, b = max.

    The pairs at cycle distance k are (i, i+k mod n).  For each k in
    1..n//2 one gathered row of n host distances holds them, and a and b are
    the least min(row)/k and the greatest max(row)/k, as exact Fractions; at
    even n the row at k = n/2 holds each of its pairs twice.  Repeated image
    vertices force a = 0 (the map cannot be injective).
    """
    n = len(images)
    if n < 3:
        raise PreconditionError("cycle length must be >= 3")
    import numpy as np  # host_d already holds a numpy array

    ring = np.array(images * 2)
    rows = (host_d.d[ring[:n], ring[k:k + n]] for k in range(1, n // 2 + 1))  # one row alive at a time
    lows, highs = zip(*[(Fraction(int(row.min()), k), Fraction(int(row.max()), k))
                        for k, row in enumerate(rows, 1)])
    return CycleEmbedding(n=n, images=tuple(images), a=min(lows), b=max(highs))


def obstruction_bound(delta: Fraction, b: Fraction, n: int) -> Fraction:
    """(4*delta*log2(b*n) + 4 + 2*b) / n, rounded conservatively upward.

    log2 is exact when b*n is a power of two, otherwise upper-rounded at
    2**-32 so that "consistent" verdicts are never produced by rounding.
    """
    if b < 1:
        raise PreconditionError("upper bi-Lipschitz constant must be >= 1")
    if n < 2 or n % 2 != 0:
        raise PreconditionError("cycle length must be even and >= 2")
    if delta < 0:
        raise PreconditionError("delta must be >= 0")
    return (4 * delta * log2_upper(b * n) + 4 + 2 * b) / n


@dataclass(frozen=True)
class ObstructionReport:
    delta: Fraction
    a: Fraction
    b: Fraction
    n: int
    n_even: int
    bound_prop: Fraction
    bound_cor: Fraction | None
    cor_applicable: bool
    verdict: str  # "consistent" | "violation"


def check_obstruction(e: CycleEmbedding, delta: Fraction) -> ObstructionReport:
    """Compare the embedding's lower constant against the even-cycle bound.

    Odd-length embeddings are checked at 2*floor(n/2): restricting to an even
    sub-cycle changes constants by at most the adjacent-step distortion, which
    the report carries via (a, b).  The verdict is driven by the even-cycle
    bound alone.  The asymptotic form 6*delta*ln(n)/n is reported when delta
    >= 1 and n_even * obstruction_bound(1, b, n_even) <= 6*ln(n_even) is
    certified; then it holds at delta too, as 4 + 2b <= delta*(4 + 2b).
    """
    n_even = 2 * (e.n // 2)
    b_eff = max(e.b, Fraction(1))
    bound = obstruction_bound(delta, b_eff, n_even)
    cor_ok = (delta >= 1 and n_even * obstruction_bound(Fraction(1), b_eff, n_even)
              <= 6 * FracInterval(n_even).ln().lo)
    bound_cor = 6 * delta * FracInterval(e.n).ln().hi / e.n if cor_ok else None
    return ObstructionReport(
        delta=delta,
        a=e.a,
        b=e.b,
        n=e.n,
        n_even=n_even,
        bound_prop=bound,
        bound_cor=bound_cor,
        cor_applicable=cor_ok,
        verdict="violation" if e.a > bound else "consistent",
    )


def _simple_cycles(g: graphs.Graph, budget: Budget, d=None, need=()):
    """Depth-first search over simple cycles, each yielded once, in canonical
    form: a vertex list that starts at the cycle's smallest vertex, with the
    second vertex smaller than the last.  Each candidate extension is charged
    to `budget` as one candidate vertex.

    With a distance matrix `d`, two vertices at path separation k must be at
    host distance >= need[k], for 1 <= k < len(need); a prefix that breaks
    this is dropped (see find_fat_cycle).  With no `need`, every simple
    cycle is yielded.
    """
    adj = g.adjacency()
    for root in range(g.n):
        stack = [(root, [root], {root})]
        while stack:
            x, path, onpath = stack.pop()
            for y in adj[x]:
                budget.charge("candidate vertices", by="the cycle search")
                if y == root and len(path) >= 3 and path[1] < path[-1]:
                    yield list(path)
                elif y > root and y not in onpath:
                    last = len(path)  # y's index on the extended path
                    for k in range(1, min(len(need) - 1, last) + 1):
                        if d[y, path[last - k]] < need[k]:
                            break
                    else:
                        stack.append((y, path + [y], onpath | {y}))


@dataclass(frozen=True)
class FatCycleResult:
    embedding: CycleEmbedding | None
    outcome: str  # "found" | "proven_absent" | "budget_exhausted" | "not_found"
    nodes_used: int


def _closed_walk_images(dm: graphs.DistanceMatrix, corners: list[int]) -> list[int]:
    """The closed walk through the corners along direct geodesics; every
    candidate of `_heuristic_candidates` has distinct consecutive corners."""
    path = graphs.direct_image_path(dm, list(corners) + [corners[0]])
    return list(path.vertices[:-1])


def _greedy_tour(dm: graphs.DistanceMatrix, pts: list[int]) -> list[int]:
    rest = sorted(pts)
    tour = [rest.pop(0)]
    while rest:
        rest.sort(key=lambda x: (dm[tour[-1], x], x))
        tour.append(rest.pop(0))
    return tour


def _heuristic_candidates(g: graphs.Graph, dm: graphs.DistanceMatrix, seed: int):
    """Deterministic corner quadruples: eccentricity extremes, far pairs with
    spread midpoints, then 40 seeded random quadruples."""
    import numpy as np  # only the heuristic search needs it; see graphs

    n = g.n
    d = dm.d
    ecc = d.max(axis=1)
    corners = [int(v) for v in np.nonzero(ecc == ecc.max())[0]]
    if 3 <= len(corners) <= 12:
        yield _greedy_tour(dm, corners)
    # the five farthest pairs; no distance level past theirs is built
    pairs = ((int(u), int(v)) for _, a, b in graphs.pairs_by_distance(dm) for u, v in zip(a, b))
    for u, v in itertools.islice(pairs, 5):
        spread = np.minimum(d[u], d[v])
        w_order = sorted(range(n), key=lambda x: (-int(spread[x]), int(abs(d[u, x] - d[v, x])), x))
        for w in w_order[:3]:
            if w in (u, v):
                continue
            z_order = sorted(
                range(n), key=lambda x: (-int(d[w, x]), -int(spread[x]), x)
            )
            for z in z_order[:2]:
                if z in (u, v, w):
                    continue
                yield [u, w, v, z]
    rng = random.Random(seed)
    for _ in range(40):
        if n >= 4:
            yield rng.sample(range(n), 4)


def _heuristic_embeddings(
    g: graphs.Graph, dm: graphs.DistanceMatrix, min_n: int, seed: int, budget: Budget
):
    """The closed walks through the corner candidates, each verified."""
    for corners in _heuristic_candidates(g, dm, seed):
        images = _closed_walk_images(dm, corners)
        budget.charge("candidate vertices", len(images), by="the cycle heuristic")
        if len(images) >= max(min_n, 3):
            yield verify_embedding(dm, images)


def find_fat_cycle(
    g: graphs.Graph,
    dm: graphs.DistanceMatrix | None,
    min_a: Fraction,
    min_n: int,
    mode: str = "auto",
    budget: Budget | None = None,
    seed: int = 0,
) -> FatCycleResult:
    """Search for a verified cycle embedding with n >= min_n and a >= min_a.

    Graph cycles are 1-Lipschitz, so found witnesses have b = 1.  Exhaustive
    enumeration (small hosts, or mode="exhaustive") can prove absence;
    the heuristic reports "not_found" when its candidates are spent.  Either
    reports "budget_exhausted" when `budget` refuses a charge.

    A tree is answered from g alone (dm may be None): it has no cycle, so
    "proven_absent" when min_a > 0 or it has one vertex, else the walk back
    and forth on its least edge, with a = 0 and b = 1.

    The exhaustive search prunes path prefixes.  Two vertices p_i, p_j of a
    prefix at path separation k = j - i <= floor(min_n/2) sit at cycle
    distance exactly min(k, n - k) = k in every completed cycle of length
    n >= min_n.  So if d_host(p_i, p_j) < min_a*k, no completion has
    a >= min_a, and the prefix is dropped.  The test is an exact integer
    comparison, d_host >= ceil(min_a*k), and it removes only subtrees that
    hold no witness, so "proven_absent" remains a proof.  The DFS order is
    kept, so the first witness returned is the one the unpruned search
    would reach first.  nodes_used is what the search charged to `budget`:
    candidate vertices of DFS extensions or closed-walk images.
    """
    if min_n < 3:
        raise PreconditionError("min_n must be >= 3")
    if mode not in ("auto", "exhaustive", "heuristic"):
        raise PreconditionError(f"unknown search mode {mode!r}")
    if g.is_tree:
        if min_a > 0 or g.m == 0:
            return FatCycleResult(None, "proven_absent", 0)
        u, v = min(g.edges)
        n = min_n + (min_n % 2)
        walk = CycleEmbedding(n, (u, v) * (n // 2), a=Fraction(0), b=Fraction(1))
        return FatCycleResult(walk, "found", 0)
    exhaustive = mode == "exhaustive" or (mode == "auto" and g.n <= EXHAUSTIVE_VERTEX_LIMIT)
    budget = budget or Budget()
    start = budget.spent
    if exhaustive:
        # need[k] = ceil(min_a*k) for 1 <= k <= floor(min_n/2); a prefix has
        # fewer than g.n vertices, so no k past g.n is read
        need = [-(-min_a.numerator * k // min_a.denominator) for k in range(min(min_n // 2, g.n) + 1)]
        search = _simple_cycles(g, budget, dm.d, need if min_a > 0 else ())
        cycles = (cyc for cyc in search if len(cyc) >= min_n)
        embeddings = (verify_embedding(dm, cyc) for cyc in cycles)
    else:
        embeddings = _heuristic_embeddings(g, dm, min_n, seed, budget)
    try:
        emb = next((e for e in embeddings if e.a >= min_a), None)
        outcome = "found" if emb else "proven_absent" if exhaustive else "not_found"
    except BudgetError:
        emb, outcome = None, "budget_exhausted"
    return FatCycleResult(emb, outcome, budget.spent - start)
