"""Hyperbolicity constants of finite graphs.

Two constants are computed over the exact distance matrix:

  - the thin-triangle constant over all-geodesic point sets: the maximum,
    over vertex triples (a,b,c) and x in G(a,b), of d(x, G(a,c) u G(b,c)),
    where G(u,v) is the union of all discrete geodesics.  Using the full
    geodesic point set makes the constant canonical (choice-free).
  - the four-point constant: max over quadruples of (L1-L2)/2 where
    L1 >= L2 >= L3 are the three pair-sum distances; an exact half-integer.

The thin-triangle scan reads, for each vertex v, the table
N_v[w, y] = d(y, G(v, w)).  G(v, w) is w together with G(v, u) for every
neighbour u of w one step closer to v, so N_v starts as the distance matrix
and, taking w in order of nondecreasing d(v, w),

    N_v[w] = min(N_v[w], min over those u of N_v[u]),

which costs O(m*n) per table and O(m*n^2) for all n of them, kept in
2n^3 bytes.  The (a, b) scan over those tables and the four-point scan are
O(n^4) at worst.  Both scans use exact integer arithmetic and return
Fractions, and both refuse n > EXACT_CUTOFF unless forced; above that a
seeded uniform sample gives a certified lower bound, labeled as such in
the report.  Like graphs, the module imports numpy only inside the
functions that use it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import PreconditionError
from .graphs import DistanceMatrix, Graph, Path, geodesic_mask
from .rational import log2_upper

if TYPE_CHECKING:
    import numpy as np

EXACT_CUTOFF = 600


@dataclass(frozen=True)
class HyperbolicityReport:
    delta_thin: Fraction
    delta_four_point: Fraction
    witness: dict  # thin_triple, thin_vertex, four_point
    exact: bool
    samples: int | None = None


def _witness(thin: tuple[tuple[int, int, int], int], four: tuple[int, int, int, int]) -> dict:
    return {"thin_triple": thin[0], "thin_vertex": thin[1], "four_point": four}


def _nearest_to_geodesics(dm: DistanceMatrix, v: int, nbrs: list[np.ndarray]) -> np.ndarray:
    """Table N[w, y] = d(y, G(v, w)) for all w, y, as int16, by the geodesic
    recurrence of the module docstring; nbrs[w] is the neighbour array of w."""
    import numpy as np

    dv = dm.d[v]
    out = dm.d.astype(np.int16)
    # w = v comes first and has no predecessor; every later w has one
    for w in np.argsort(dv, kind="stable")[1:]:
        pred = nbrs[w][dv[nbrs[w]] == dv[w] - 1]
        np.minimum(out[w], out[pred].min(axis=0), out=out[w])
    return out


def thin_triangle_value(dm: DistanceMatrix, a: int, b: int, c: int) -> int:
    """max over x in G(a,b) of d(x, G(a,c) u G(b,c)) for one ordered triple."""
    d = dm.d
    union = geodesic_mask(dm, a, c) | geodesic_mask(dm, b, c)
    dist_to_union = d[:, union].min(axis=1)
    return int(dist_to_union[geodesic_mask(dm, a, b)].max())


def thin_triangle_delta(
    g: Graph, dm: DistanceMatrix, force: bool = False
) -> tuple[Fraction, tuple]:
    """Exact thin-triangle constant with a witness ((a,b,c), x).

    The witness reproduces the constant via thin_triangle_value.  Trees are
    dispatched directly: geodesics are unique and triangles are tripods, so
    the constant is 0.  Past EXACT_CUTOFF the scan runs only if forced.
    """
    n = dm.n
    if n <= 2 or g.is_tree:
        return Fraction(0), ((0, 0, 0), 0)
    if n > EXACT_CUTOFF and not force:
        raise PreconditionError(
            f"exhaustive thin-triangle scan refuses n={n} > {EXACT_CUTOFF}; "
            "sample instead, or force the scan (graph-analyze --force)"
        )
    import numpy as np

    nbrs = [np.array(row, dtype=np.intp) for row in g.adjacency()]
    near = [_nearest_to_geodesics(dm, v, nbrs) for v in range(n)]
    best = -1
    witness = ((0, 0, 1), 0)
    for a in range(n):
        na = near[a]
        for b in range(a + 1, n):
            mask = geodesic_mask(dm, a, b)
            idx = np.nonzero(mask)[0]
            vals = np.minimum(na[:, idx], near[b][:, idx])
            per_c = vals.max(axis=1)
            c = int(per_c.argmax())
            if per_c[c] > best:
                best = int(per_c[c])
                x = int(idx[int(vals[c].argmax())])
                witness = ((a, b, c), x)
    return Fraction(best), witness


def four_point_value(dm: DistanceMatrix, x: int, y: int, z: int, w: int) -> Fraction:
    """(L1 - L2)/2 for one quadruple, where L1 >= L2 >= L3 are the pair sums."""
    d = dm.d
    sums = sorted([int(d[x, y] + d[z, w]), int(d[x, z] + d[y, w]), int(d[x, w] + d[y, z])])
    return Fraction(sums[2] - sums[1], 2)


def four_point_delta(
    dm: DistanceMatrix, tree_hint: bool = False, force: bool = False
) -> tuple[Fraction, tuple[int, int, int, int]]:
    """Exact Gromov four-point constant with an achieving quadruple.

    On trees the four-point condition is an equality, so callers may pass
    tree_hint to skip the quadruple scan.  Past EXACT_CUTOFF the scan runs
    only if forced.
    """
    n = dm.n
    if n <= 2 or tree_hint:
        return Fraction(0), (0, 0, 0, 0)
    if n > EXACT_CUTOFF and not force:
        raise PreconditionError(
            f"exhaustive four-point scan refuses n={n} > {EXACT_CUTOFF}; "
            "sample instead, or force the scan (graph-analyze --force)"
        )
    import numpy as np

    d = dm.d
    best = -1
    witness = (0, 0, 0, 0)
    for x in range(n):
        for y in range(x + 1, n):
            s1 = int(d[x, y]) + d
            s2 = d[x][:, None] + d[y][None, :]
            s3 = d[y][:, None] + d[x][None, :]
            mx = np.maximum(np.maximum(s1, s2), s3)
            mn = np.minimum(np.minimum(s1, s2), s3)
            med = s1 + s2 + s3 - mx - mn
            diff = mx - med
            val = int(diff.max())
            if val > best:
                best = val
                z, w = np.unravel_index(int(diff.argmax()), diff.shape)
                witness = (x, y, int(z), int(w))
    return Fraction(best, 2), witness


def hyperbolicity_report(
    g: Graph, dm: DistanceMatrix, force: bool = False
) -> HyperbolicityReport:
    """Both exact constants; `force` lets the scans run past EXACT_CUTOFF."""
    dt, wt = thin_triangle_delta(g, dm, force=force)
    d4, w4 = four_point_delta(dm, tree_hint=g.is_tree, force=force)
    return HyperbolicityReport(
        delta_thin=dt, delta_four_point=d4, witness=_witness(wt, w4), exact=True
    )


def sampled_hyperbolicity(
    g: Graph, dm: DistanceMatrix, samples: int, seed: int
) -> HyperbolicityReport:
    """Seeded uniform sampling of triples/quadruples: a lower bound on both deltas."""
    n = dm.n
    rng = random.Random(seed)
    best_t = -1
    wt = ((0, 0, 0), 0)
    best_q = Fraction(-1)
    wq = (0, 0, 0, 0)
    for _ in range(samples):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        v = thin_triangle_value(dm, a, b, c)
        if v > best_t:
            d_union = dm.d[:, geodesic_mask(dm, a, c) | geodesic_mask(dm, b, c)].min(axis=1)
            idx = geodesic_mask(dm, a, b).nonzero()[0]
            x = int(idx[int(d_union[idx].argmax())])
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
    g: Graph,
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
