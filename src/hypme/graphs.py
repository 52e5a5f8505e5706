"""Exact finite-graph metric engine.

A connected undirected graph with unit edge lengths is the host metric
space for everything else in the toolkit: distances are exact BFS integers,
geodesic point sets are computed from the distance matrix alone, and paths
are explicit vertex sequences.

Conventions:
    - vertices are dense integers 0..n-1;
    - the distance matrix is a full numpy array, built by a multi-source
      bitset BFS that runs all n searches level by level and counts the
      levels into `d`, d(v, s) = #{l >= 0 : s has not reached v by level
      l}, with no branch per cell (see distance_matrix).  Its dtype is
      chosen before it is allocated, from one BFS from vertex 0: int8 (n^2
      bytes) when 2 ecc(0) <= 63, else int16 (2n^2 bytes).  distance_matrix,
      load_graph and the generators refuse graphs above MAX_VERTICES before
      building anything of their size, and distance_matrix refuses a BFS
      whose first ecc(0) levels are over its Budget before it allocates;
    - a sum of two distances fits in the matrix's dtype.  The kernels rely
      on this invariant: they add two entries in the dtype (geodesic masks,
      pair sums, the triangle inequality) but never three, and they take a
      median of three sums with min and max, not by adding.  For int8 every
      distance is at most diam <= 2 ecc(0) <= 63, so a sum is at most 126 <=
      127.  For int16 every distance is at most n - 1 <= MAX_VERTICES - 1 =
      16,383, so a sum is at most 32,766 <= 32,767; MAX_VERTICES = 2^14 is the
      largest n for which that holds.  At the cap an int16 matrix takes 512 MiB;
    - all operations are pure functions of immutable inputs;
    - numpy is imported by the functions that build or read a distance
      matrix, not by the module, so a run that builds a Graph and no matrix
      never loads it: group-ball, threshold on a tree ball (a free product
      of F_k, Z and C2 atoms), whose thin-triangle constant is read off the
      Graph alone, and graph-analyze and find-cycles on a tree, whose
      constants, diameter (tree_diameter) and cycle answer need no
      distances.  The coupling commands, conditions, group-ball
      --counts-only and check-obstruction --delta build no Graph, and do
      not run this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from itertools import accumulate, chain
from typing import TYPE_CHECKING

from .errors import Budget, ParseError, PreconditionError

if TYPE_CHECKING:
    import numpy as np

MAX_VERTICES = 1 << 14  # the largest n whose two-distance sums fit in int16
# scratch bytes per row block of the APSP kernel, beside the n^2 matrix
_BLOCK_BYTES = 1 << 18
WORDS_PER_BLOCK = 64  # bitset words per unit of the APSP BFS's Budget charges


@dataclass(frozen=True)
class Graph:
    """Finite undirected graph: no loops, no multi-edges."""

    n: int
    edges: frozenset[tuple[int, int]]  # each pair sorted (u < v)

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise PreconditionError(f"loop edge ({u},{u}) not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise PreconditionError(f"edge ({u},{v}) out of range for n={self.n}")
            if u > v:
                raise PreconditionError("edges must be stored as sorted pairs")

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def is_tree(self) -> bool:
        """Whether this connected graph is a tree: it has exactly n - 1 edges."""
        return self.m == self.n - 1

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise PreconditionError(f"graph has {n} vertices, cap is {MAX_VERTICES}")


def make_graph(n: int, edges) -> Graph:
    canon = frozenset((min(u, v), max(u, v)) for u, v in edges)
    return Graph(n=n, edges=canon)


def _bfs(adj: list[list[int]], start: int) -> dict[int, int]:
    """The distance from `start` of every vertex of its component."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def tree_diameter(g: Graph) -> int:
    """The diameter of a tree, from two BFS: the vertex farthest from 0 is an
    end of a longest path."""
    adj = g.adjacency()
    from_0 = _bfs(adj, 0)
    return max(_bfs(adj, max(from_0, key=from_0.get)).values())


def load_graph(edge_list_text: str, largest_component: bool = False) -> Graph:
    """Parse whitespace-separated integer pairs, one edge per line.

    '#' starts a comment. Vertices are 0..max_id; duplicates are deduplicated.
    Disconnected input is an error unless largest_component is set, in which
    case the largest component is extracted and relabeled densely.
    """
    edges = set()
    max_id = -1
    for lineno, raw in enumerate(edge_list_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two vertex ids, got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex id in {line!r}", line=lineno)
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex id in {line!r}", line=lineno)
        if u == v:
            raise ParseError(f"loop edge ({u},{u}) not allowed", line=lineno)
        edges.add((min(u, v), max(u, v)))
        max_id = max(max_id, u, v)
    if max_id < 0:
        raise ParseError("no edges found")
    n = max_id + 1
    _check_size(n)  # before the adjacency lists, one per vertex id
    g = make_graph(n, edges)
    adj = g.adjacency()
    seen: set[int] = set()
    best: dict[int, int] = {}
    for start in range(n):
        if start in seen:
            continue
        comp = _bfs(adj, start)
        seen |= comp.keys()
        if len(comp) > len(best):
            best = comp
    if len(best) == n:
        return g
    if not largest_component:
        raise PreconditionError(
            "graph is disconnected (pass largest_component=True to extract one)"
        )
    relabel = {old: new for new, old in enumerate(sorted(best))}
    kept = [
        (relabel[u], relabel[v]) for u, v in edges if u in best and v in best
    ]
    return make_graph(len(best), kept)


@dataclass(frozen=True)
class DistanceMatrix:
    """Exact all-pairs graph distances (unit edge lengths)."""

    # int8 or int16, shape (n, n); two entries add without wrapping (see the
    # module docstring)
    d: np.ndarray

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def __getitem__(self, idx):
        return int(self.d[idx])

    def validate(self) -> None:
        import numpy as np

        d = self.d
        n = self.n
        if d.shape != (n, n):
            raise PreconditionError("distance matrix must be square")
        if not np.array_equal(d, d.T):
            raise PreconditionError("distance matrix must be symmetric")
        if np.any(np.diag(d) != 0):
            raise PreconditionError("diagonal must be zero")
        if np.any(d[~np.eye(n, dtype=bool)] < 1):
            raise PreconditionError("off-diagonal distances must be >= 1")
        # the invariant of the module docstring, which keeps the sums below
        # (and in every kernel) from wrapping in d's dtype
        top = min(MAX_VERTICES - 1, np.iinfo(d.dtype).max // 2)
        if np.any(d > top):
            raise PreconditionError(
                f"distances must be <= {top} = min(MAX_VERTICES - 1, {d.dtype} maximum // 2)"
            )
        # full triangle inequality: d(u,w) <= d(u,v) + d(v,w)
        for v in range(n):
            if np.any(d > d[:, v][:, None] + d[v, :][None, :]):
                raise PreconditionError(f"triangle inequality fails through {v}")


def distance_matrix(g: Graph, budget: Budget | None = None) -> DistanceMatrix:
    """Exact BFS distances for all vertex pairs; errors on disconnected input.

    A multi-source bitset BFS (Then et al., "The More the Merrier: Efficient
    Multi-Source Graph Traversal", VLDB 2014) runs the n searches together,
    one level at a time.  Row v of each (n, ceil(n/64)) uint64 bitset holds a
    set of sources: `seen[v]` those that have reached v, `frontier[v]` those
    that reached it at the last level.  One level l is

        next[v] = OR of frontier[u] over u in adj(v), minus seen[v],

    and seen_l[v] = seen_(l-1)[v] | next[v].  The OR is a
    `bitwise_or.reduceat` over the CSR neighbour lists, done in blocks of
    rows.  `d` counts levels instead of writing each one:

        d(v, s) = #{l >= 0 : s not in seen_l[v]},

    so `d` starts at 1 off the diagonal (seen_0[v] = {v}), and each level
    adds the unpacked complement of seen_l to the rows of every block that
    grew.  The add has no branch; a masked copy of the level into the new
    bits branches on every cell, and on a 2-core Xeon cost 4-7 ns a cell at
    20-50% of cells set, against under 0.2 ns for the add.  The add does
    touch every cell of a growing row, so where `d` outgrows the cache and
    the levels are many and sparse it is the slower one (cycle:3000: 12 s
    against 8 s).  The distances from v take every value 0..ecc(v), so a
    block that finds no new source has finished all its rows and would add
    only zeros: it is skipped.

    One BFS from vertex 0 first proves the graph connected and picks `d`'s
    dtype (see the module docstring).  The BFS runs at least ecc(0) levels,
    each of n ceil(n/64) bitset words, charged to `budget` (the default
    Budget if None) in cell blocks of 64 words: ecc(0) levels before
    anything of the matrix's size is allocated, then each later level
    before it runs.  Memory: n^2 bytes for an int8 `d` or 2n^2 for an int16
    one, 3n^2/8 for the bitsets, and about _BLOCK_BYTES of scratch per
    block.  Graphs above MAX_VERTICES are refused before anything is
    allocated.
    """
    import numpy as np

    n = g.n
    if n == 0:
        raise PreconditionError("empty graph")
    _check_size(n)
    adj = g.adjacency()
    from_0 = _bfs(adj, 0)
    if len(from_0) < n:
        raise PreconditionError("graph is disconnected")
    ecc = max(from_0.values())
    # diam <= 2 ecc(0), so two distances add without wrapping in the dtype
    dtype = np.int8 if 2 * ecc <= np.iinfo(np.int8).max // 2 else np.int16
    words = (n + 63) // 64
    level_blocks = -(-n * words // WORDS_PER_BLOCK)
    budget = budget or Budget()
    budget.charge("cell blocks", ecc * level_blocks, by=f"the APSP BFS (at least {ecc} levels)")
    if n == 1:
        return DistanceMatrix(d=np.zeros((1, 1), dtype=dtype))
    degree = [len(row) for row in adj]  # connected, so reduceat gets no empty row
    indptr = np.fromiter(accumulate(degree, initial=0), dtype=np.int64, count=n + 1)
    indices = np.fromiter(chain.from_iterable(adj), dtype=np.intp, count=int(indptr[-1]))
    word = np.dtype("<u8")  # little-endian, so bit s of a row unpacks to column s
    frontier = np.zeros((n, words), dtype=word)
    v = np.arange(n)
    frontier[v, v // 64] = np.uint64(1) << (v % 64).astype(np.uint64)
    seen = frontier.copy()
    nxt = np.empty_like(frontier)
    d = np.ones((n, n), dtype=dtype)  # level 0: every source but v itself is unseen
    np.fill_diagonal(d, 0)
    blocks = _row_blocks(indptr, n, words)
    level = 0
    while True:
        level += 1
        if level > ecc:
            budget.charge("cell blocks", level_blocks, by=f"APSP BFS level {level}")
        grew = False
        for start, stop in blocks:
            lo, hi = indptr[start], indptr[stop]
            block = nxt[start:stop]
            np.bitwise_or.reduceat(frontier[indices[lo:hi]], indptr[start:stop] - lo, out=block)
            block &= ~seen[start:stop]
            if not block.any():
                continue
            grew = True
            seen[start:stop] |= block
            unseen = (~seen[start:stop]).view(np.uint8)
            d[start:stop] += np.unpackbits(unseen, axis=1, count=n, bitorder="little").view(np.int8)
        if not grew:
            break
        frontier, nxt = nxt, frontier
    return DistanceMatrix(d=d)


def _row_blocks(indptr: np.ndarray, n: int, words: int) -> list[tuple[int, int]]:
    """Split rows 0..n-1 into runs whose gathered bitsets and unpacked bits
    each take at most about _BLOCK_BYTES (one row at least)."""
    max_rows = max(1, _BLOCK_BYTES // n)
    max_arcs = max(1, _BLOCK_BYTES // (8 * words))
    blocks = []
    start = 0
    for v in range(1, n + 1):
        if v == n or v - start == max_rows or indptr[v + 1] - indptr[start] > max_arcs:
            blocks.append((start, v))
            start = v
    return blocks


def geodesic_mask(dm: DistanceMatrix, u: int, v: int) -> np.ndarray:
    """Boolean mask of G(u,v) = {x : d(u,x) + d(x,v) = d(u,v)}."""
    d = dm.d
    return d[u] + d[v] == d[u, v]


def pairs_by_distance(dm: DistanceMatrix):
    """Every pair a < b by nonincreasing d(a, b), ties in lexicographic order.

    Yields (level, a, b) for each distance level from the diameter down to 1,
    where a and b are the arrays of that level's pairs.  A level costs two
    n^2 boolean masks, and a caller that stops early builds no later level."""
    import numpy as np

    d = dm.d
    for level in range(int(d.max(initial=0)), 0, -1):
        a, b = np.nonzero(np.triu(d == level, 1))
        yield level, a, b


@dataclass(frozen=True)
class Path:
    """Discrete path: consecutive vertices adjacent, length >= 1."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise PreconditionError("a path has length >= 1")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def validate(self, dm: DistanceMatrix) -> None:
        for a, b in zip(self.vertices, self.vertices[1:]):
            if dm[a, b] != 1:
                raise PreconditionError(f"consecutive vertices {a},{b} not adjacent")


def extract_geodesic(dm: DistanceMatrix, u: int, v: int) -> list[int]:
    """One discrete geodesic from u to v (lexicographically smallest steps)."""
    d = dm.d
    out = [u]
    x = u
    while x != v:
        dist = int(d[x, v])
        nxt = ((d[x] == 1) & (d[:, v] == dist - 1)).nonzero()[0]
        x = int(nxt[0])
        out.append(x)
    return out


def direct_image_path(host_d: DistanceMatrix, images: list[int]) -> Path:
    """Concatenate geodesics between consecutive image points.

    The result visits all images in order and has length equal to the sum of
    consecutive pairwise distances.
    """
    if not images:
        raise PreconditionError("images must be nonempty")
    verts: list[int] = [images[0]]
    for a, b in zip(images, images[1:]):
        verts.extend(extract_geodesic(host_d, a, b)[1:])
    if len(verts) == 1:
        # all images coincide; no discrete path of length 0 exists
        raise PreconditionError("images induce a path of length 0")
    return Path(vertices=tuple(verts))


# ---------------------------------------------------------------------------
# generators: each refuses a host above MAX_VERTICES before building its edges


def cycle_graph(n: int) -> Graph:
    """The n-cycle with d(i,j) = min(|i-j|, n-|i-j|); rejects n < 3.

    As a simple graph a 2-cycle would need a multi-edge, so it is rejected.
    """
    if n < 3:
        raise PreconditionError(f"cycle length must be >= 3, got {n}")
    _check_size(n)
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(w: int, h: int) -> Graph:
    """The w x h grid graph, vertices numbered row-major."""
    if w < 1 or h < 1:
        raise PreconditionError("grid dimensions must be positive")
    _check_size(w * h)
    edges = []
    for i in range(h):
        for j in range(w):
            v = i * w + j
            if j + 1 < w:
                edges.append((v, v + 1))
            if i + 1 < h:
                edges.append((v, v + w))
    return make_graph(w * h, edges)


def tree_graph(branching: int, depth: int) -> Graph:
    """Complete rooted tree where every internal vertex has `branching` children.

    Vertices are numbered level by level, so the parent of v is (v - 1) // branching;
    the count stops at the first level that passes MAX_VERTICES."""
    if branching < 1 or depth < 0:
        raise PreconditionError("branching >= 1 and depth >= 0 required")
    n = width = 1
    for _ in range(depth):
        width *= branching
        n += width
        _check_size(n)
    return make_graph(n, [((v - 1) // branching, v) for v in range(1, n)])
