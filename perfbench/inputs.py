"""Seeded inputs for the benchmark, and the reference facts its checker uses.

Everything here is the benchmark's own code: the checker never asks hypme to
judge hypme.  Only the standard library and numpy are used (networkx is a
test-only dependency of the repository, so it is not assumed here).
"""

from __future__ import annotations

import functools
import random

import numpy as np

SPECS = {
    "f2.json": {"group": "F2", "subgroup_generators": ["aa", "b", "abA"], "x_gamma": "e"},
    "z2.json": {"group": "Z^2", "subgroup_generators": ["aa", "b"], "x_gamma": "e"},
}


def sparse_graph(n: int, chords: int, seed: int) -> list[tuple[int, int]]:
    """A random spanning tree on n vertices plus `chords` distinct extra edges.

    The tree attaches each vertex of a shuffled order to a uniformly chosen
    earlier one; chords are uniform non-edges.  Returns sorted (u, v) pairs
    with u < v.  The same (n, chords, seed) gives the same edges.
    """
    if chords > n * (n - 1) // 2 - (n - 1):
        raise ValueError("more chords than non-edges")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < n - 1 + chords:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def write_edge_list(path: str, edges) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in edges)


def read_edge_list(path: str) -> list[tuple[int, int]]:
    with open(path) as fh:
        return [tuple(int(x) for x in line.split()) for line in fh if line.strip()]


def generator_edges(spec: str) -> list[tuple[int, int]]:
    """Edges of a `--gen` host, numbered as hypme documents its generators.

    grid:w,h is numbered row-major, cycle:n in cyclic order, and tree:b,d
    level by level with each vertex's children numbered consecutively.
    """
    kind, _, rest = spec.partition(":")
    p = [int(x) for x in rest.split(",")]
    if kind == "cycle":
        return [(i, (i + 1) % p[0]) for i in range(p[0])]
    if kind == "grid":
        w, h = p
        return [(v, v + 1) for v in range(w * h) if (v + 1) % w] + [
            (v, v + w) for v in range(w * (h - 1))
        ]
    if kind == "tree":
        branching, depth = p
        edges, level, next_id = [], [0], 1
        for _ in range(depth):
            children = []
            for parent in level:
                for _ in range(branching):
                    edges.append((parent, next_id))
                    children.append(next_id)
                    next_id += 1
            level = children
        return edges
    raise ValueError(f"unknown generator {spec!r}")


class Host:
    """A graph with its exact all-pairs distances, for checking reports."""

    def __init__(self, edges):
        canon = {(min(u, v), max(u, v)) for u, v in edges}
        self.n = 1 + max(max(e) for e in canon)
        self.m = len(canon)
        self.d = distances(self.n, sorted(canon))

    @property
    def is_tree(self) -> bool:
        return self.m == self.n - 1

    @functools.cached_property
    def thin_delta(self) -> int:
        return thin_delta(self.d)


def thin_delta(d: np.ndarray) -> int:
    """Exact thin-triangle constant: the largest d(x, G(a,c) u G(b,c)) over x in G(a,b).

    G(a,b) is the set of vertices on some geodesic from a to b.  far[a, c, x]
    is d(x, G(a,c)); the constant is the largest min(far[a, c, x], far[b, c, x])
    over all a, b, c and x in G(a,b).  Takes O(n^4) numpy work, for small hosts.
    """
    n = len(d)
    on = d[:, :, None] + d[None, :, :] == d[:, None, :]  # on[a, x, b]: x lies in G(a,b)
    far = np.empty((n, n, n), dtype=np.int32)
    for a in range(n):
        inside = on[a].T  # inside[c, y]: y lies in G(a,c)
        far[a] = np.where(inside[:, None, :], d[None, :, :], np.iinfo(np.int32).max).min(axis=2)
    best = 0
    for a in range(n):
        near = np.minimum(far[a][None], far)  # near[b, c, x]
        best = max(best, int(np.where(on[a].T[:, None, :], near, 0).max()))
    return best


def distances(n: int, edges) -> np.ndarray:
    """All-pairs BFS distances of a connected graph, as an int32 matrix.

    Runs every source's BFS at once, one level per step: row v of `frontier`
    is the bitset of sources whose BFS reached v at the current level.
    """
    e = np.asarray(edges, dtype=np.int64)
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    if not np.array_equal(np.unique(dst), np.arange(n)):
        raise ValueError("graph has an isolated vertex")
    starts = np.searchsorted(dst, np.arange(n))
    frontier = np.packbits(np.eye(n, dtype=bool), axis=1)
    seen = frontier.copy()
    d = np.zeros((n, n), dtype=np.int32)
    level = 0
    while frontier.any():
        level += 1
        reached = np.bitwise_or.reduceat(frontier[src], starts, axis=0)
        frontier = reached & ~seen
        seen |= frontier
        d[np.unpackbits(frontier, axis=1, count=n).astype(bool)] = level
    if not np.unpackbits(seen, axis=1, count=n).all():
        raise ValueError("graph is disconnected")
    return d


def _normal_form(group: str, word: str):
    """Canonical form of a word over a/b (A/B are the inverses) in F2 or Z^2."""
    if group == "Z^2":
        return (word.count("a") - word.count("A"), word.count("b") - word.count("B"))
    if group == "F2":
        out: list[str] = []
        for ch in word:
            if out and out[-1] == ch.swapcase():
                out.pop()
            else:
                out.append(ch)
        return "".join(out)
    raise ValueError(f"no normal form for {group!r}")


def subgroup_ball_size(spec: dict, radius: int) -> int:
    """|B_Lambda(radius)| for the subgroup generated by the spec's words."""
    group = spec["group"]
    gens = spec["subgroup_generators"]
    steps = gens + [w[::-1].swapcase() for w in gens]
    seen = {_normal_form(group, "")}
    frontier = [""]
    for _ in range(radius):
        nxt = []
        for word in frontier:
            for s in steps:
                key = _normal_form(group, word + s)
                if key not in seen:
                    seen.add(key)
                    nxt.append(word + s)
        frontier = nxt
    return len(seen)


def ball_volumes(group: str, radius: int) -> list[int]:
    """|B(k)| for k = 0..radius over the standard generators, from closed forms.

    F2: spheres 4*3^(k-1).  Z^2: spheres 4k.  C2*C3 (a of order 2, b of
    order 3): the growth series (1+z)(1+2z)/(1-2z^2) gives spheres 1, 3, 4 and
    then s_k = 2*s_(k-2).
    """
    spheres = []
    for k in range(radius + 1):
        if k == 0:
            s = 1
        elif group == "F2":
            s = 4 * 3 ** (k - 1)
        elif group == "Z^2":
            s = 4 * k
        elif group == "C2*C3":
            s = 3 if k == 1 else 4 if k == 2 else 2 * spheres[k - 2]
        else:
            raise ValueError(f"no closed form for {group!r}")
        spheres.append(s)
    return [sum(spheres[: k + 1]) for k in range(radius + 1)]
