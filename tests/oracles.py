"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (networkx BFS, DFS enumeration,
nested loops straight from definitions).  The graph oracles share no code
with the production kernels beyond the distance matrix inputs, except the
two full-scan references, which fix the canonical witnesses: they visit
every row in lexicographic order and read the thin-triangle tables of
`hyperbolicity._nearest_to_geodesics`.  `geodesic_points` is no oracle: it
lists the vertices of `graphs.geodesic_mask`, the kernel its tests check
against `all_geodesic_vertices`.  The claim sweep oracle reuses the
coupling's group arithmetic and K constants; it enumerates displacements
from the pairs, and takes the lambda ball and lengths from its own BFS.
The coset table oracle is sympy's own HLT enumeration.  The transversal
oracle grows left cosets by multiplying group elements and traces each
candidate through the table, where `subgroup_data` reads table entries only.
The bracket oracle `mpmath_outward` evaluates ln, exp and powers in mpmath's
interval arithmetic, where `brackets` computes them in integers.
"""

import functools
import itertools
import math
import random
from collections import deque
from fractions import Fraction

import networkx as nx

from hypme import coupling
from hypme.errors import PreconditionError
from hypme.graphs import DistanceMatrix, Graph, geodesic_mask, make_graph
from hypme.hyperbolicity import _nearest_to_geodesics
from hypme.brackets import LOG_PRECISION_BITS, MIN_PRECISION_BITS
from hypme.rational import FracInterval, _as_interval, lower, upper


def to_networkx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def nx_distances(g: Graph):
    """All-pairs distances via networkx (independent BFS)."""
    G = to_networkx(g)
    out = [[0] * g.n for _ in range(g.n)]
    for src, lengths in nx.all_pairs_shortest_path_length(G):
        for dst, dist in lengths.items():
            out[src][dst] = dist
    return out


def all_geodesic_vertices(g: Graph, dist, u: int, v: int) -> set[int]:
    """Vertices on at least one geodesic, by DFS over shortest paths."""
    adj = g.adjacency()
    target = dist[u][v]
    onpath = set()
    stack = [(u, (u,))]
    while stack:
        x, path = stack.pop()
        if x == v:
            onpath.update(path)
            continue
        for y in adj[x]:
            if dist[u][y] == len(path) and dist[u][y] + dist[y][v] == target:
                stack.append((y, path + (y,)))
    return onpath


def brute_thin_delta(g: Graph, dist) -> int:
    """Thin-triangle constant by direct triple enumeration."""
    n = g.n
    geo = {}
    for a in range(n):
        for b in range(a, n):
            pts = [x for x in range(n) if dist[a][x] + dist[x][b] == dist[a][b]]
            geo[(a, b)] = pts
            geo[(b, a)] = pts
    best = 0
    for a in range(n):
        for b in range(a + 1, n):
            side = geo[(a, b)]
            for c in range(n):
                union = set(geo[(a, c)]) | set(geo[(b, c)])
                for x in side:
                    d_min = min(dist[x][u] for u in union)
                    if d_min > best:
                        best = d_min
    return best


def brute_four_point_numerator(dist, n: int) -> int:
    """Twice the four-point constant, by quadruple enumeration."""
    best = 0
    for x in range(n):
        dx = dist[x]
        for y in range(x + 1, n):
            dy = dist[y]
            dxy = dx[y]
            for z in range(y + 1, n):
                dz = dist[z]
                s1base = dx[z]
                s2base = dy[z]
                for w in range(z + 1, n):
                    s1 = dxy + dz[w]
                    s2 = s1base + dy[w]
                    s3 = dx[w] + s2base
                    hi = max(s1, s2, s3)
                    lo = min(s1, s2, s3)
                    med = s1 + s2 + s3 - hi - lo
                    if hi - med > best:
                        best = hi - med
    return best


def full_scan_thin_delta(g: Graph, dm: DistanceMatrix) -> tuple[Fraction, tuple]:
    """Thin-triangle constant and canonical witness ((a,b,c), x) by a scan of
    every pair a < b in lexicographic order: the first pair that reaches the
    maximum (strict >), then the first c, then the first x."""
    import numpy as np

    n = dm.n
    if n <= 2 or g.is_tree:
        return Fraction(0), ((0, 0, 0), 0)
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


def full_scan_four_point_delta(dm: DistanceMatrix) -> tuple[Fraction, tuple]:
    """Four-point constant and canonical quadruple (x, y, z, w) by a scan of
    every pair x < y in lexicographic order: the first pair that reaches the
    maximum (strict >), then the first (z, w) in row-major order."""
    import numpy as np

    n = dm.n
    if n <= 2:
        return Fraction(0), (0, 0, 0, 0)
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


def nx_simple_cycles(g: Graph):
    """Canonicalized simple cycles via networkx."""
    out = set()
    for cyc in nx.simple_cycles(to_networkx(g)):
        if len(cyc) < 3:
            continue
        k = cyc.index(min(cyc))
        rot = cyc[k:] + cyc[:k]
        if rot[1] > rot[-1]:
            rot = [rot[0]] + rot[1:][::-1]
        out.add(tuple(rot))
    return out


def random_connected_graph(rng: random.Random, n: int, extra_edges: int) -> Graph:
    """Random tree plus some chords; always connected."""
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((j, i))
    attempts = 0
    added = 0
    while added < extra_edges and attempts < 50 * (extra_edges + 1):
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e not in edges:
            edges.add(e)
            added += 1
    return make_graph(n, edges)


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform-ish random tree: each vertex i >= 1 attaches to a random earlier one."""
    return random_connected_graph(rng, n, 0)


def geodesic_points(dm: DistanceMatrix, u: int, v: int) -> set[int]:
    """The vertex set of `geodesic_mask`, the kernel under test, to compare
    against all_geodesic_vertices."""
    return {int(x) for x in geodesic_mask(dm, u, v).nonzero()[0]}


def grid_edge_text(w: int, h: int) -> str:
    """Edge-list text for a w x h grid, written independently of the library."""
    lines = []
    for i, j in itertools.product(range(h), range(w)):
        v = i * w + j
        if j + 1 < w:
            lines.append(f"{v} {v + 1}")
        if i + 1 < h:
            lines.append(f"{v} {v + w}")
    return "\n".join(lines)


def independent_word_lengths(group, gens, targets=None, max_radius=12) -> dict:
    """Word lengths over `gens` by a deque BFS that shares no code with
    `groups.Spheres`: every element within `max_radius`, or, given
    `targets`, until all of them are reached."""
    sym = set(gens) | {group.inverse(s) for s in gens}
    lengths = {group.identity(): 0}
    queue = deque([group.identity()])
    pending = None if targets is None else set(targets) - {group.identity()}
    while queue and (pending is None or pending):
        g = queue.popleft()
        if lengths[g] >= max_radius:
            break
        for s in sym:
            h = group.multiply(g, s)
            if h not in lengths:
                lengths[h] = lengths[g] + 1
                queue.append(h)
                if pending is not None:
                    pending.discard(h)
    return lengths


def brute_claim_sweep(c, lambda_radius: int, R_values, phis) -> dict:
    """The measure-bound sweep over every pair u != v of the lambda ball.

    Displacements w = u^-1 v are collected by a double loop over the ball in
    `to_word` order, so `failures` lists them in order of first occurrence.
    """
    g = c.group
    if not R_values or min(R_values) < 1:
        raise PreconditionError("R values must be positive integers")
    gens = c.sub.schreier_generators
    elems = sorted(independent_word_lengths(g, gens, max_radius=lambda_radius), key=g.to_word)
    max_R = max(R_values)

    w_multiplicity: dict = {}
    for u in elems:
        uinv = g.inverse(u)
        for v in elems:
            if u == v:
                continue
            w = g.multiply(uinv, v)
            w_multiplicity[w] = w_multiplicity.get(w, 0) + 1

    base = c.x0
    w_disp = {}
    for w in w_multiplicity:
        w_disp[w] = g.word_length(g.multiply(base, g.multiply(w, g.inverse(base))))
    need = {w for w, disp in w_disp.items() if disp <= max_R}
    lam_len = independent_word_lengths(g, gens, need, max_radius=2 * lambda_radius)

    k_constants = {phi.describe(): coupling._k_constant(c, phi) for phi in phis}
    failures = []
    checked_pairs = 0
    evaluated = 0
    for phi in phis:
        kc = k_constants[phi.describe()]
        for R in R_values:
            vol = g.volume(R)
            for w, mult in w_multiplicity.items():
                checked_pairs += mult
                if w_disp[w] > R:
                    continue
                evaluated += 1
                denom = upper(phi.value(Fraction(lam_len[w], R)))
                if denom == 0:
                    failures.append((g.describe(w), R, phi.describe(), "phi=0"))
                    continue
                bound = lower(kc) * R * vol / denom
                if Fraction(1) > bound:
                    failures.append((g.describe(w), R, phi.describe(), str(bound)))
    return {
        "lambda_radius": lambda_radius,
        "R_values": list(R_values),
        "phis": [phi.describe() for phi in phis],
        "ball_size": len(elems),
        "pair_checks": checked_pairs,
        "nontrivial_evaluations": evaluated,
        "K": k_constants,
        "failures": failures,
        "passed": not failures,
    }


def signed_letters(group, g) -> tuple[int, ...]:
    """g as signed 1-based generator indices: k + 1 for the letter
    group.letter(k), -(k + 1) for its upper case."""
    out = []
    for ch in group.to_word(g):
        idx = ord(ch.lower()) - ord("a") + 1
        out.append(idx if ch.islower() else -idx)
    return tuple(out)


def signed_trace(sub, start: int, g) -> int:
    """The coset that g moves `start` to, walked through sub.table by signed
    letters: generator k + 1 reads column 2k, its inverse column 2k + 1."""
    c = start
    for letter in signed_letters(sub.group, g):
        c = sub.table[c][2 * (abs(letter) - 1) + (0 if letter > 0 else 1)]
    return c


def traced_transversal(sub) -> tuple[tuple, tuple]:
    """The transversal and Schreier generators of `sub`, by a BFS that
    multiplies on the left and runs `left_index` (a full trace) per candidate."""
    group = sub.group
    sym = [s for _, s in group.symmetric_generators()]
    reps = {sub.left_index(group.identity()): group.identity()}
    frontier = [group.identity()]
    while frontier and len(reps) < sub.index:
        nxt = []
        for t in frontier:
            for s in sym:
                u = group.multiply(s, t)
                idx = sub.left_index(u)
                if idx not in reps:
                    reps[idx] = u
                    nxt.append(u)
        frontier = nxt
    transversal = tuple(reps[i] for i in range(len(reps)))
    schreier = {}
    for t in transversal:
        for s in sym:
            st = group.multiply(s, t)
            lam = group.multiply(group.inverse(reps[sub.left_index(st)]), st)
            if not group.is_identity(lam):
                schreier.setdefault(lam, None)
    ordered = sorted(schreier, key=lambda g: (group.word_length(g), group.to_word(g)))
    return transversal, tuple(ordered)


def sympy_coset_table(group, words, cap: int):
    """The coset table of the subgroup generated by `words`, from sympy's
    `coset_enumeration_r` with `max_cosets=cap`, then `compress()` and
    `standardize()`; None when sympy stops at the cap."""
    from sympy.combinatorics.fp_groups import FpGroup, coset_enumeration_r
    from sympy.combinatorics.free_groups import free_group

    names = ", ".join(group.letter(i) for i in range(group.num_generators))
    fgroup, *gens = free_group(names)

    def to_sympy(word):
        w = fgroup.identity
        for ch in word:
            gen = gens[ord(ch.lower()) - ord("a")]
            w = w * (gen if ch.islower() else gen**-1)
        return w

    fp = FpGroup(fgroup, [to_sympy(rel) for rel in group.relators()])
    subgroup = [to_sympy(group.to_word(g)) for g in words]
    try:
        table = coset_enumeration_r(fp, subgroup, max_cosets=cap)
    except ValueError:
        return None
    table.compress()
    table.standardize()
    return tuple(tuple(row) for row in table.table)


def least_positive_root(den) -> float | None:
    """Least positive real root of the polynomial sum den[i] t^i, from the
    eigenvalues numpy.roots computes, or None when it has none."""
    import numpy as np

    roots = np.roots(list(reversed(den)))
    positive = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
    return min(positive, default=None)


@functools.cache
def _mpmath():
    """mpmath's interval context and its exact converters, imported once."""
    from mpmath import iv, libmp

    return iv, libmp


def mpmath_outward(fn, *args, extra_bits: int = 0) -> FracInterval:
    """Certified bracket of fn(iv, *args), rounded outward to multiples of
    2**-LOG_PRECISION_BITS.

    `iv` is mpmath's interval context, for example
    `mpmath_outward(lambda iv, y: iv.log(y), x)`.  Each argument, a Fraction
    or a FracInterval, enters it as the narrowest interval of the working
    precision that contains it, and `fn` maps those intervals to an mpmath
    interval.  The working precision is MIN_PRECISION_BITS, or more for long
    arguments, plus `extra_bits`.  The result's endpoints are converted to
    Fractions exactly.
    """
    iv, libmp = _mpmath()
    xs = [_as_interval(a) for a in args]
    size = max((k.bit_length() for x in xs for e in x for k in e.as_integer_ratio()), default=0)
    prec = max(MIN_PRECISION_BITS, size + LOG_PRECISION_BITS + 64) + extra_bits
    old = iv.prec
    iv.prec = prec
    try:
        value = fn(iv, *(
            iv.make_mpf((
                libmp.from_rational(*x.lo.as_integer_ratio(), prec, libmp.round_floor),
                libmp.from_rational(*x.hi.as_integer_ratio(), prec, libmp.round_ceiling),
            ))
            for x in xs
        ))
        lo, hi = (Fraction(*libmp.to_rational(end)) for end in value._mpi_)
    finally:
        iv.prec = old
    scale = 2**LOG_PRECISION_BITS
    return FracInterval(Fraction(math.floor(lo * scale), scale), Fraction(math.ceil(hi * scale), scale))
