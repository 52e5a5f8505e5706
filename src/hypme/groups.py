"""Marked groups with computable normal forms and exact growth.

Supported families are fixed so that every computation downstream is exact:
free groups F<k>, free abelian Z^<d>, finite cyclic C<n> (n at most
MAX_ATOM_PARAMETER), and their free ("*") and direct ("x") products.  Every
product the DSL parses is a direct product of free products of atoms, and
one class, `Product`, holds it: an element is a tuple with one entry per
direct factor, that factor's reduced alternating syllables (atom index,
atom element).  Elements carry canonical normal forms, word lengths have
closed forms per family, and ball enumeration is a deterministic BFS.
`Spheres` is the only word-metric BFS over a marked group: `ball`,
`bfs_growth_table` and a coupling's two balls read its levels.

Each family states its spherical growth series sum_n |S(n)| t^n = N(t)/D(t)
once (de la Harpe, Topics in Geometric Group Theory, ch. VI); a free product
has 1/S = sum 1/S_i - (k-1) and a direct product S = prod S_i.  Everything
else about growth is derived from that one closed form in `MarkedGroup`:
sphere sizes and volumes are its power-series expansion, and `Growth` reads
the growth class and a certified entropy bracket off the roots of D.  The
group is the only source of growth data; a BFS counts volumes as a plain
tuple, for the `group-ball` report and for checks against the series.

Each family also states its presentation once, as `relators()`, words over
the group's letters: coset enumeration scans them, and their exponent sums
decide the infinite-index check.

Words serialize as strings over a..z with uppercase denoting inverses
(A = a inverse); generator letters are assigned left to right across the
whole group expression, so at most 26 generators are supported.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from . import graphs
from .errors import Budget, ParseError, PreconditionError
from .rational import FracInterval


# ---------------------------------------------------------------------------
# Growth series: integer polynomials as coefficient lists, lowest degree first


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_prod(polys) -> list[int]:
    return functools.reduce(_poly_mul, polys, [1])


def _poly_eval(p, x):
    total = 0
    for c in reversed(p):
        total = total * x + c
    return total


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    """p, p' and the negated remainders, down to a constant or a zero
    remainder (then the last entry is gcd(p, p') and the chain still counts
    distinct roots)."""
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        rem, div = list(chain[-2]), chain[-1]
        while len(rem) >= len(div):
            q, shift = rem[-1] / div[-1], len(rem) - len(div)
            for i, c in enumerate(div):
                rem[shift + i] -= q * c
            _trim(rem)
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_changes(chain, x: Fraction) -> int:
    """By Sturm's theorem, V(a) - V(b) distinct roots of chain[0] lie in (a, b]."""
    signs = [v > 0 for v in (_poly_eval(p, x) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@dataclass(frozen=True)
class Growth:
    """Growth of a marked group, read off the denominator D of its series.

    D(0) = 1 and the numerator has no positive root, so by Pringsheim's
    theorem the radius of convergence rho is the least positive root of D.
    `kind` is "exponential" when rho < 1, else "polynomial" of `degree` the
    multiplicity of the root t = 1, else "bounded" (a finite group).
    `entropy` is a certified bracket on h = -ln(rho) (0 unless exponential);
    `rho` is the root itself when it is rational, and then 1/rho is an
    integer and the bracket is FracInterval(1/rho).ln().
    """

    kind: str
    degree: int
    entropy: FracInterval
    rho: Fraction | None
    denominator: tuple[int, ...]

    @classmethod
    def of_denominator(cls, den) -> Growth:
        p = [Fraction(c) for c in den]
        degree = 0
        while len(p) > 1 and sum(p) == 0:  # divide out (t - 1)
            p = list(itertools.accumulate(reversed(p[1:])))[::-1]
            degree += 1
        chain = _sturm_chain(p)
        at_zero = _sign_changes(chain, Fraction(0))
        if len(p) == 1 or _sign_changes(chain, Fraction(1)) == at_zero:
            kind = "polynomial" if degree else "bounded"
            return cls(kind, degree, FracInterval(0), None, tuple(den))
        # bisect rho in (lo, hi] to a relative width of 2**-34; a midpoint on a
        # multiple root zeroes the whole chain, so V = 0 < V(0) marks it too
        lo, hi = Fraction(0), Fraction(1)
        while hi - lo > lo / 2**34:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if _sign_changes(chain, mid) < at_zero else (mid, hi)
        # D has integer coefficients and D(0) = 1, so a rational root is 1/q
        rho = Fraction(1, math.ceil(1 / hi))
        if rho > lo and _poly_eval(p, rho) == 0:
            lo = hi = rho
        else:
            rho = None
        entropy = FracInterval(FracInterval(1 / hi).ln().lo, FracInterval(1 / lo).ln().hi)
        return cls("exponential", 0, entropy, rho, tuple(den))

    def describe(self) -> str:
        if self.kind != "exponential":
            return "0"
        if self.rho is not None:
            return f"log({1 / self.rho})"
        terms = "".join(
            f"{c:+d}" + ("t" if i else "") + (f"^{i}" if i > 1 else "")
            for i, c in enumerate(self.denominator) if c
        )
        return f"-log(rho), rho the least positive root of {terms.lstrip('+')}"


def _commutator(x: str, y: str) -> str:
    return x + y + x.upper() + y.upper()


class MarkedGroup:
    """A group with marked generators; what every family shares.

    A family sets `name` and `num_generators` and defines, for hashable
    elements in a canonical normal form:
      - `identity()`, `generator(i)` for 0 <= i < num_generators,
        `multiply(g, h)` and `inverse(g)`, all exact;
      - `word_length(g)`, the length over the marked generators;
      - `to_word(g)`, a word for g over the group's letters ("" for e);
      - `relators()`, defining relators as words over those letters;
      - `growth_series()`, the integer coefficients of N and D, lowest
        degree first, with sum_n |S(n)| t^n = N(t)/D(t) for the marked
        generators and D(0) = 1.
    """

    name: str
    num_generators: int

    @functools.cached_property
    def growth(self) -> Growth:
        return Growth.of_denominator(self.growth_series()[1])

    @functools.cached_property
    def _volume_series(self) -> tuple[list[int], list[int], list[int]]:
        """N, D(t)(1 - t) and the volumes expanded so far: sum_n Vol(n) t^n
        = N / (D (1 - t))."""
        num, den = self.growth_series()
        return num, _poly_mul(den, [1, -1]), []

    def volume(self, n: int, budget: Budget | None = None, by: str = "volume expansion") -> int:
        """Vol(n) from the growth series.  Every volume up to n is expanded
        and cached; with a budget, each one expanded is charged its size in
        64-bit words, so a run caps the memory its cache may take."""
        num, den, vols = self._volume_series
        while len(vols) <= n:
            m = len(vols)
            vol = (num[m] if m < len(num) else 0) - sum(
                den[i] * vols[m - i] for i in range(1, min(m, len(den) - 1) + 1)
            )
            if budget is not None:
                budget.charge("volume words", vol.bit_length() // 64 + 1, by=by)
            vols.append(vol)
        return vols[n]

    def ball_is_tree(self, radius: int) -> bool:
        """B(e, radius) holds a cycle iff the girth is at most 2 radius + 1, and
        the girth is the shortest relator longer than 2 (aa is one edge)."""
        return all(len(w) <= 2 or len(w) > 2 * radius + 1 for w in self.relators())

    def is_identity(self, g) -> bool:
        return g == self.identity()

    def letter(self, i: int) -> str:
        return chr(ord("a") + i)

    def symmetric_generators(self):
        """Deduplicated generators and inverses, identity excluded, with labels."""
        out = []
        seen = set()
        for i in range(self.num_generators):
            g = self.generator(i)
            for elem, label in ((g, self.letter(i)), (self.inverse(g), self.letter(i).upper())):
                if self.is_identity(elem) or elem in seen:
                    continue
                seen.add(elem)
                out.append((label, elem))
        return out

    def parse_word(self, s: str):
        """Parse a word over assigned letters; "e" or "" is the identity."""
        s = s.strip()
        if s in ("", "e"):
            return self.identity()
        g = self.identity()
        for ch in s:
            low = ch.lower()
            idx = ord(low) - ord("a")
            if not (0 <= idx < self.num_generators):
                raise ParseError(f"unknown generator letter {ch!r} in word {s!r}")
            step = self.generator(idx)
            if ch.isupper():
                step = self.inverse(step)
            g = self.multiply(g, step)
        return g

    def describe(self, g) -> str:
        w = self.to_word(g)
        return w if w else "e"

    @functools.cached_property
    def letter_columns(self) -> dict[str, int]:
        """The coset-table column of each letter of `to_word`: letter(k) is
        column 2k and its upper case column 2k + 1."""
        out = {}
        for k in range(self.num_generators):
            out[self.letter(k)], out[self.letter(k).upper()] = 2 * k, 2 * k + 1
        return out


class FreeGroup(MarkedGroup):
    """Free group of rank k; elements are freely reduced letter strings."""

    def __init__(self, rank: int):
        self.rank = rank
        self.num_generators = rank
        self.name = f"F{rank}"

    def identity(self):
        return ""

    def generator(self, i: int):
        return chr(ord("a") + i)

    def multiply(self, g: str, h: str) -> str:
        i = len(g)
        j = 0
        while i > 0 and j < len(h) and g[i - 1] == h[j].swapcase():
            i -= 1
            j += 1
        return g[:i] + h[j:]

    def inverse(self, g: str) -> str:
        return g[::-1].swapcase()

    def word_length(self, g: str) -> int:
        return len(g)

    def to_word(self, g: str) -> str:
        return g

    def relators(self) -> list[str]:
        return []

    def growth_series(self):
        return [1, 1], [1, 1 - 2 * self.rank]


class FreeAbelian(MarkedGroup):
    """Z^d with unit-vector generators; elements are exponent tuples."""

    def __init__(self, dim: int, name: str | None = None):
        self.dim = dim
        self.num_generators = dim
        self.name = name or f"Z^{dim}"

    def identity(self):
        return (0,) * self.dim

    def generator(self, i: int):
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def multiply(self, g, h):
        return tuple(x + y for x, y in zip(g, h))

    def inverse(self, g):
        return tuple(-x for x in g)

    def word_length(self, g) -> int:
        return sum(abs(x) for x in g)

    def to_word(self, g) -> str:
        parts = []
        for i, x in enumerate(g):
            parts.append((self.letter(i) if x > 0 else self.letter(i).upper()) * abs(x))
        return "".join(parts)

    def relators(self) -> list[str]:
        letters = map(self.letter, range(self.dim))
        return [_commutator(x, y) for x, y in itertools.combinations(letters, 2)]

    def growth_series(self):
        return _poly_prod([[1, 1]] * self.dim), _poly_prod([[1, -1]] * self.dim)


class Cyclic(MarkedGroup):
    """Z/mZ with the single generator 1 mod m; elements are residues."""

    def __init__(self, order: int):
        self.order = order
        self.num_generators = 1
        self.name = f"C{order}"

    def identity(self):
        return 0

    def generator(self, i: int):
        return 1

    def multiply(self, g, h):
        return (g + h) % self.order

    def inverse(self, g):
        return (-g) % self.order

    def word_length(self, g) -> int:
        return min(g, self.order - g)

    def to_word(self, g) -> str:
        if g <= self.order - g:
            return "a" * g
        return "A" * (self.order - g)

    def relators(self) -> list[str]:
        return ["a" * self.order]

    def growth_series(self):
        # spheres 1, 2, 2, ..., and a single antipode 1 when the order is even
        return [1] + [2] * ((self.order - 1) // 2) + [1] * (1 - self.order % 2), [1]


class Product(MarkedGroup):
    """A direct product of free products of atoms, the shape every DSL spec
    has: `parts` lists the direct factors, each a list of atoms joined by
    '*', and the generators are the atoms' in order.  An element is a tuple
    with one entry per part, that part's reduced alternating syllables
    (atom index, atom element); the identity is a tuple of empty parts."""

    def __init__(self, parts: list[list[MarkedGroup]], name: str):
        self.parts = parts
        self.name = name
        sizes = [[a.num_generators for a in atoms] for atoms in parts]
        self._letters = _runs([sum(ks) for ks in sizes])  # each part's letters in the product
        self.num_generators = sum(map(len, self._letters))
        # str.translate tables: each atom's letters to its part's, and each
        # part's letters to the product's
        self._to_part = [[_table(run) for run in _runs(ks)] for ks in sizes]
        self._to_product = [_table(run) for run in self._letters]
        self._generators = [
            tuple(((a, atom.generator(j)),) if q == p else () for q in range(len(parts)))
            for p, atoms in enumerate(parts)
            for a, atom in enumerate(atoms)
            for j in range(atom.num_generators)
        ]

    def identity(self):
        return ((),) * len(self.parts)

    def generator(self, i: int):
        return self._generators[i]

    def multiply(self, g, h):
        return tuple(map(_free_merge, self.parts, g, h))

    def inverse(self, g):
        return tuple([
            tuple([(a, atoms[a].inverse(s)) for a, s in reversed(x)]) if x else x
            for atoms, x in zip(self.parts, g)
        ])

    def word_length(self, g) -> int:
        return sum(atoms[a].word_length(s) for atoms, x in zip(self.parts, g) for a, s in x)

    def _part_words(self, g) -> list[str]:
        """Each part's word, in the part's own letters."""
        return [
            "".join([atoms[a].to_word(s).translate(to_part[a]) for a, s in x])
            for atoms, to_part, x in zip(self.parts, self._to_part, g)
        ]

    def to_word(self, g) -> str:
        return "".join([w.translate(t) for w, t in zip(self._part_words(g), self._to_product)])

    def describe(self, g) -> str:
        if len(self.parts) == 1:
            return super().describe(g)
        return "(" + ",".join(w or "e" for w in self._part_words(g)) + ")"

    def relators(self) -> list[str]:
        own = [
            rel.translate(t).translate(self._to_product[p])
            for p, atoms in enumerate(self.parts)
            for atom, t in zip(atoms, self._to_part[p])
            for rel in atom.relators()
        ]
        pairs = itertools.combinations(self._letters, 2)  # each letter with every later part's
        return own + [_commutator(x, y) for xs, ys in pairs for x in xs for y in ys]

    def growth_series(self):
        # per part 1/S = sum_i D_i/N_i - (k-1), over the common denominator
        # prod_i N_i; the parts' series multiply
        nums, dens = [], []
        for atoms in self.parts:
            ns, ds = zip(*(a.growth_series() for a in atoms))
            num = _poly_prod(ns)
            terms = [[(1 - len(ns)) * c for c in num]]
            terms += [_poly_prod([d, *ns[:i], *ns[i + 1 :]]) for i, d in enumerate(ds)]
            nums.append(num)
            dens.append(_trim([sum(t) for t in itertools.zip_longest(*terms, fillvalue=0)]))
        return _poly_prod(nums), _poly_prod(dens)


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _runs(sizes: list[int]) -> list[str]:
    """Consecutive runs of letters from a on, of the given lengths."""
    return [_LETTERS[n - k : n] for k, n in zip(sizes, itertools.accumulate(sizes))]


def _table(run: str) -> dict:
    """A str.translate table from the first len(run) letters, and their
    inverses, to the letters of `run`."""
    src = _LETTERS[: len(run)]
    return str.maketrans(src + src.upper(), run + run.upper())


def _free_merge(atoms, x, y) -> tuple:
    """The reduced product of two syllable tuples of a free product of
    `atoms`: equal atoms meet only at the junction, and once a merged
    syllable is not the identity its neighbours lie in other atoms.  A
    generator touches one part, so most calls return an operand as it is."""
    if not x or not y:
        return x or y
    i, j = len(x), 0
    while i and j < len(y) and x[i - 1][0] == y[j][0]:
        a = y[j][0]
        merged = atoms[a].multiply(x[i - 1][1], y[j][1])
        i, j = i - 1, j + 1
        if not atoms[a].is_identity(merged):
            return x[:i] + ((a, merged),) + y[j:]
    return x[:i] + y[j:]


_ATOM_RE = re.compile(r"^(F|C|Z\^)0*(\d+)$|^Z$")
# The largest atom parameter.  C<n> keeps a relator of n letters and a
# growth series of n/2 + 1 terms, so the bound caps what a spec allocates;
# F<k> and Z^<d> meet the 26-letter cap long before it.
MAX_ATOM_PARAMETER = 2**16
_ATOMS = {"F": (FreeGroup, 1), "C": (Cyclic, 2), "Z^": (FreeAbelian, 1)}


def _parse_atom(token: str) -> MarkedGroup:
    """One atom, its parameter checked on its digits before it is converted."""
    m = _ATOM_RE.match(token)
    if not m:
        raise ParseError(f"bad group atom {token!r} (expected F<k>, Z^<d>, C<n>)")
    if token == "Z":
        return FreeAbelian(1, name="Z")
    (family, least), digits = _ATOMS[m.group(1)], m.group(2)
    if len(digits) > len(str(MAX_ATOM_PARAMETER)) or not least <= int(digits) <= MAX_ATOM_PARAMETER:
        raise ParseError(f"{m.group(1)}<n> needs {least} <= n <= {MAX_ATOM_PARAMETER}: {token[:24]!r}")
    return family(int(digits))


def parse_group(spec: str) -> MarkedGroup:
    """Parse the family DSL: atoms F<k>, Z^<d>, C<n>; '*' free product binds
    tighter than 'x' direct product; both associate to the left."""
    spec = spec.strip()
    if not spec:
        raise ParseError("empty group spec")
    parts = [[_parse_atom(p.strip()) for p in part.split("*")] for part in spec.split("x")]
    if sum(a.num_generators for atoms in parts for a in atoms) > 26:
        raise ParseError("at most 26 generators are supported (letters a..z)")
    if len(parts) == 1 and len(parts[0]) == 1:
        return parts[0][0]
    return Product(parts, spec)


# ---------------------------------------------------------------------------
# Cayley balls and growth


@dataclass(frozen=True)
class CayleyBall:
    radius: int
    graph: graphs.Graph
    elements: tuple
    word_lengths: tuple[int, ...]
    growth: tuple[int, ...]  # Vol(0..radius), counted by the BFS


class Spheres:
    """The levels of one word-metric BFS over `gens` (by default the
    symmetric generators), computed only as far as asked for.

    `gens` must be symmetric (closed under inverses), so every neighbour of
    a level-d element lies in level d-1, d or d+1 and the two live levels
    tell new elements from old.  Level d holds the elements of word length
    exactly d, sorted by `group.to_word`.  The BFS stops at the first empty
    level, the end of a finite group: it is stored once and read for every
    later depth.  Each level is charged to `budget` as group elements
    before it is kept, so every element is charged once; a level refused
    over budget is refused again on the next read, with nothing charged.
    Every level read stays, so a smaller ball is a prefix of a larger one.
    """

    def __init__(self, group: MarkedGroup, gens=None, budget: Budget | None = None):
        self.group = group
        self.gens = [g for _, g in group.symmetric_generators()] if gens is None else gens
        self.budget = budget or Budget()
        self._levels: list[list] = []
        self._live: tuple[set, set] = (set(), set())  # levels d-1 and d, as sets

    def __getitem__(self, depth: int) -> list:
        """The elements of length exactly `depth`, sorted by `to_word`; a
        negative depth is refused before any charge."""
        if depth < 0:
            raise PreconditionError("radius must be >= 0")
        levels, group, gens = self._levels, self.group, self.gens
        while len(levels) <= depth and (not levels or levels[-1]):
            d = len(levels)
            prev, curr = self._live
            nxt = set() if d else {group.identity()}
            for g in curr:
                for s in gens:
                    h = group.multiply(g, s)
                    if h not in prev and h not in curr:
                        nxt.add(h)
            done = f" (radius {d - 1} completed)" if d else ""
            self.budget.charge(f"group elements at radius {d}{done}", len(nxt), by="a group BFS")
            self._live = (curr, nxt)
            levels.append(sorted(nxt, key=group.to_word))
        return levels[min(depth, len(levels) - 1)]

    def levels(self, radius: int) -> list[list]:
        """Levels 0..radius; a negative radius is refused before any charge."""
        last = self[radius]
        return [self[d] for d in range(radius)] + [last]

    def ball(self, radius: int) -> list:
        """The elements of length <= radius, level by level."""
        return [g for level in self.levels(radius) for g in level]


def bfs_growth_table(group: MarkedGroup, radius: int, budget: Budget | None = None) -> tuple[int, ...]:
    """Vol(0..radius) counted by BFS alone; the group's own volumes come
    from its series, `group.volume`."""
    return tuple(itertools.accumulate(map(len, Spheres(group, budget=budget).levels(radius))))


def ball(group: MarkedGroup, radius: int, budget: Budget | None = None) -> CayleyBall:
    """Exact Cayley ball B(e, radius): elements, word lengths, ball graph, growth."""
    spheres = Spheres(group, budget=budget)
    levels = spheres.levels(radius)
    elements = [g for level in levels for g in level]
    index = {g: i for i, g in enumerate(elements)}
    edges = set()
    for i, g in enumerate(elements):
        for s in spheres.gens:
            h = group.multiply(g, s)
            j = index.get(h)
            if j is not None and j != i:
                edges.add((min(i, j), max(i, j)))
    graph = graphs.make_graph(len(elements), edges)
    return CayleyBall(
        radius=radius,
        graph=graph,
        elements=tuple(elements),
        word_lengths=tuple(d for d, level in enumerate(levels) for _ in level),
        growth=tuple(itertools.accumulate(map(len, levels))),
    )


@dataclass(frozen=True)
class EntropyEstimate:
    """The entropy block of a report, read off a group's growth series.

    `point_estimates` are log(Vol(n))/n and `ratio_estimates` the successive
    quotients log(Vol(n)/Vol(n-1)), which converge much faster for
    exponential growth; both are uncertified floats.  `declared` describes
    the entropy the group derives from its series, and `lower`, the low end
    of that certified bracket, is a certified lower bound on the entropy.
    """

    lower: Fraction
    point_estimates: tuple[float, ...]
    ratio_estimates: tuple[float, ...]
    declared: str
    declared_exact: bool


def entropy_estimate(group: MarkedGroup, radius: int) -> EntropyEstimate:
    if radius < 2:
        raise PreconditionError("growth table must cover radius >= 2")
    vols = [group.volume(n) for n in range(radius + 1)]
    return EntropyEstimate(
        lower=group.growth.entropy.lo,
        point_estimates=tuple(math.log(vols[n]) / n for n in range(1, radius + 1)),
        ratio_estimates=tuple(math.log(vols[n] / vols[n - 1]) for n in range(1, radius + 1)),
        declared=group.growth.describe(),
        declared_exact=True,  # the declared value is the series' own
    )
