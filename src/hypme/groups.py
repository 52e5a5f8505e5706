"""Marked groups with computable normal forms and exact growth.

Supported families are fixed so that every computation downstream is exact:
free groups F<k>, free abelian Z^<d>, finite cyclic C<n>, and their free
("*") and direct ("x") products.  Elements carry canonical normal forms,
word lengths have closed forms per family, and ball enumeration is a
deterministic BFS whose counts can be cross-checked against closed-form
growth.

Words serialize as strings over a..z with uppercase denoting inverses
(A = a inverse); generator letters are assigned left to right across the
whole group expression, so at most 26 generators are supported.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, ParseError, PreconditionError
from .graphs import Graph, make_graph
from .rational import ln_lower, ln_upper

DEFAULT_BALL_BUDGET = 2_000_000


@dataclass(frozen=True)
class EntropyValue:
    """Exact volume entropy of a supported family: 0 or log of an integer."""

    log_arg: int  # entropy = ln(log_arg); log_arg == 1 means entropy 0

    def __post_init__(self):
        if self.log_arg < 1:
            raise PreconditionError("entropy argument must be >= 1")

    def is_zero(self) -> bool:
        return self.log_arg == 1

    def lower(self, bits: int = 32) -> Fraction:
        return ln_lower(Fraction(self.log_arg), bits)

    def upper(self, bits: int = 32) -> Fraction:
        return ln_upper(Fraction(self.log_arg), bits)

    def describe(self) -> str:
        return "0" if self.is_zero() else f"log({self.log_arg})"


class MarkedGroup:
    """Base interface: identity, generators, exact multiplication and lengths."""

    name: str
    num_generators: int

    def identity(self):
        raise NotImplementedError

    def generator(self, i: int):
        raise NotImplementedError

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def word_length(self, g) -> int:
        raise NotImplementedError

    def sphere_size(self, n: int) -> int:
        raise NotImplementedError

    def relators(self) -> list[tuple[int, ...]]:
        """Defining relators as tuples of signed 1-based generator indices."""
        raise NotImplementedError

    def growth_class(self):
        """("exponential", EntropyValue|None) | ("polynomial", degree) | ("bounded", order)."""
        raise NotImplementedError

    # --- shared helpers ----------------------------------------------------

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

    def to_word(self, g) -> str:
        raise NotImplementedError

    def describe(self, g) -> str:
        w = self.to_word(g)
        return w if w else "e"

    def volume(self, n: int) -> int:
        return sum(self.sphere_size(k) for k in range(n + 1))

    def growth_table(self, radius: int) -> "GrowthTable":
        vols = []
        total = 0
        for n in range(radius + 1):
            total += self.sphere_size(n)
            vols.append(total)
        return GrowthTable(values=tuple(vols), group_name=self.name, closed_form=self)

    def declared_entropy(self) -> EntropyValue | None:
        cls, info = self.growth_class()
        if cls in ("polynomial", "bounded"):
            return EntropyValue(1)
        return info  # may be None when no closed form is known

    def word_problem_letters(self, g) -> tuple[int, ...]:
        """g as a sequence of signed 1-based generator indices (for coset tracing)."""
        word = self.to_word(g)
        out = []
        for ch in word:
            idx = ord(ch.lower()) - ord("a") + 1
            out.append(idx if ch.islower() else -idx)
        return tuple(out)

    def abelian_generator_vectors(self) -> list[tuple[int, ...]]:
        """Image of each generator in the free part of the abelianization.

        A finite-index subgroup must hit a finite-index sublattice there, so a
        rank-deficient image certifies infinite index before any enumeration.
        """
        raise NotImplementedError

    def abelian_free_rank(self) -> int:
        vecs = self.abelian_generator_vectors()
        return len(vecs[0]) if vecs else 0

    def abelian_vector(self, g) -> tuple[int, ...]:
        vecs = self.abelian_generator_vectors()
        if not vecs or not vecs[0]:
            return ()
        total = [0] * len(vecs[0])
        for letter in self.word_problem_letters(g):
            vec = vecs[abs(letter) - 1]
            sign = 1 if letter > 0 else -1
            for i, x in enumerate(vec):
                total[i] += sign * x
        return tuple(total)


class FreeGroup(MarkedGroup):
    """Free group of rank k; elements are freely reduced letter strings."""

    def __init__(self, rank: int, name: str | None = None):
        if rank < 1:
            raise ParseError("free group rank must be >= 1")
        self.rank = rank
        self.num_generators = rank
        self.name = name or f"F{rank}"

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

    def sphere_size(self, n: int) -> int:
        if n == 0:
            return 1
        k = self.rank
        return 2 * k * (2 * k - 1) ** (n - 1)

    def volume(self, n: int) -> int:
        k = self.rank
        if k == 1:
            return 2 * n + 1
        return 1 + k * ((2 * k - 1) ** n - 1) // (k - 1)

    def relators(self) -> list[tuple[int, ...]]:
        return []

    def growth_class(self):
        if self.rank == 1:
            return ("polynomial", 1)
        return ("exponential", EntropyValue(2 * self.rank - 1))

    def abelian_generator_vectors(self):
        return [tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)]


class FreeAbelian(MarkedGroup):
    """Z^d with unit-vector generators; elements are exponent tuples."""

    def __init__(self, dim: int, name: str | None = None):
        if dim < 1:
            raise ParseError("free abelian rank must be >= 1")
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

    def sphere_size(self, n: int) -> int:
        if n == 0:
            return 1
        d = self.dim
        return sum(
            2**k * math.comb(d, k) * math.comb(n - 1, k - 1)
            for k in range(1, min(d, n) + 1)
        )

    def relators(self) -> list[tuple[int, ...]]:
        return [
            (i, j, -i, -j)
            for i in range(1, self.dim + 1)
            for j in range(i + 1, self.dim + 1)
        ]

    def growth_class(self):
        return ("polynomial", self.dim)

    def abelian_generator_vectors(self):
        return [tuple(1 if j == i else 0 for j in range(self.dim)) for i in range(self.dim)]


class Cyclic(MarkedGroup):
    """Z/mZ with the single generator 1 mod m; elements are residues."""

    def __init__(self, order: int, name: str | None = None):
        if order < 2:
            raise ParseError("cyclic order must be >= 2")
        self.order = order
        self.num_generators = 1
        self.name = name or f"C{order}"

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

    def sphere_size(self, n: int) -> int:
        if n == 0:
            return 1
        if 2 * n < self.order:
            return 2
        if 2 * n == self.order:
            return 1
        return 0

    def relators(self) -> list[tuple[int, ...]]:
        return [(1,) * self.order]

    def growth_class(self):
        return ("bounded", self.order)

    def abelian_generator_vectors(self):
        return [()]


class FreeProduct(MarkedGroup):
    """Free product; elements are alternating syllable tuples (factor, element)."""

    def __init__(self, factors: list[MarkedGroup]):
        if len(factors) < 2:
            raise ParseError("free product needs at least two factors")
        self.factors = factors
        self.num_generators = sum(f.num_generators for f in factors)
        self.name = "*".join(f.name for f in factors)
        self._offsets = []
        off = 0
        for f in factors:
            self._offsets.append(off)
            off += f.num_generators
        # _last_syllable[m][i] = count of length-m elements ending in factor i
        self._last_syllable: list[list[int]] = [[0] * len(factors)]

    def identity(self):
        return ()

    def _locate(self, i: int) -> tuple[int, int]:
        for fi in reversed(range(len(self.factors))):
            if i >= self._offsets[fi]:
                return fi, i - self._offsets[fi]
        raise PreconditionError("generator index out of range")

    def generator(self, i: int):
        fi, j = self._locate(i)
        return ((fi, self.factors[fi].generator(j)),)

    def multiply(self, g, h):
        out = list(g)
        for syl in h:
            if out and out[-1][0] == syl[0]:
                fi = syl[0]
                merged = self.factors[fi].multiply(out[-1][1], syl[1])
                out.pop()
                if not self.factors[fi].is_identity(merged):
                    out.append((fi, merged))
            else:
                out.append(syl)
        return tuple(out)

    def inverse(self, g):
        return tuple((fi, self.factors[fi].inverse(x)) for fi, x in reversed(g))

    def word_length(self, g) -> int:
        return sum(self.factors[fi].word_length(x) for fi, x in g)

    def to_word(self, g) -> str:
        parts = []
        for fi, x in g:
            w = self.factors[fi].to_word(x)
            parts.append(self._shift_word(w, self._offsets[fi]))
        return "".join(parts)

    @staticmethod
    def _shift_word(w: str, offset: int) -> str:
        out = []
        for ch in w:
            base = "a" if ch.islower() else "A"
            out.append(chr(ord(base) + ord(ch.lower()) - ord("a") + offset))
        return "".join(out)

    def sphere_size(self, n: int) -> int:
        if n == 0:
            return 1
        k = len(self.factors)
        f = self._last_syllable
        while len(f) <= n:
            m = len(f)
            row = []
            for i, fac in enumerate(self.factors):
                total = 0
                for length in range(1, m + 1):
                    s = fac.sphere_size(length)
                    if s == 0:
                        continue
                    if length == m:
                        total += s
                    else:
                        total += s * sum(f[m - length][j] for j in range(k) if j != i)
                row.append(total)
            f.append(row)
        return sum(f[n])

    def relators(self) -> list[tuple[int, ...]]:
        rels = []
        for fi, f in enumerate(self.factors):
            off = self._offsets[fi]
            for rel in f.relators():
                rels.append(tuple(x + off if x > 0 else x - off for x in rel))
        return rels

    def growth_class(self):
        orders = []
        for f in self.factors:
            cls, info = f.growth_class()
            orders.append(info if cls == "bounded" else None)
        if len(self.factors) == 2 and orders[0] == 2 and orders[1] == 2:
            return ("polynomial", 1)  # infinite dihedral
        return ("exponential", None)  # no closed form declared

    def abelian_generator_vectors(self):
        return _block_abelian_vectors(self.factors)


class DirectProduct(MarkedGroup):
    """Direct product with the union generating set; elements are tuples."""

    def __init__(self, factors: list[MarkedGroup]):
        if len(factors) < 2:
            raise ParseError("direct product needs at least two factors")
        self.factors = factors
        self.num_generators = sum(f.num_generators for f in factors)
        self.name = "x".join(f.name for f in factors)
        self._offsets = []
        off = 0
        for f in factors:
            self._offsets.append(off)
            off += f.num_generators
        self._sphere_cache: list[int] = []

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def _locate(self, i: int) -> tuple[int, int]:
        for fi in reversed(range(len(self.factors))):
            if i >= self._offsets[fi]:
                return fi, i - self._offsets[fi]
        raise PreconditionError("generator index out of range")

    def generator(self, i: int):
        fi, j = self._locate(i)
        return tuple(
            f.generator(j) if k == fi else f.identity()
            for k, f in enumerate(self.factors)
        )

    def multiply(self, g, h):
        return tuple(f.multiply(x, y) for f, x, y in zip(self.factors, g, h))

    def inverse(self, g):
        return tuple(f.inverse(x) for f, x in zip(self.factors, g))

    def word_length(self, g) -> int:
        return sum(f.word_length(x) for f, x in zip(self.factors, g))

    def to_word(self, g) -> str:
        return "".join(
            FreeProduct._shift_word(f.to_word(x), self._offsets[i])
            for i, (f, x) in enumerate(zip(self.factors, g))
        )

    def describe(self, g) -> str:
        words = [f.to_word(x) or "e" for f, x in zip(self.factors, g)]
        return "(" + ",".join(words) + ")"

    def sphere_size(self, n: int) -> int:
        if len(self._sphere_cache) <= n:
            # convolve factor sphere sequences up to n
            current = [self.factors[0].sphere_size(m) for m in range(n + 1)]
            for f in self.factors[1:]:
                nxt = [f.sphere_size(m) for m in range(n + 1)]
                current = [
                    sum(current[i] * nxt[m - i] for i in range(m + 1))
                    for m in range(n + 1)
                ]
            self._sphere_cache = current
        return self._sphere_cache[n]

    def relators(self) -> list[tuple[int, ...]]:
        rels = []
        for fi, f in enumerate(self.factors):
            off = self._offsets[fi]
            for rel in f.relators():
                rels.append(tuple(x + off if x > 0 else x - off for x in rel))
        # cross-factor commutators
        for fi in range(len(self.factors)):
            for fj in range(fi + 1, len(self.factors)):
                for gi in range(self.factors[fi].num_generators):
                    for gj in range(self.factors[fj].num_generators):
                        a = self._offsets[fi] + gi + 1
                        b = self._offsets[fj] + gj + 1
                        rels.append((a, b, -a, -b))
        return rels

    def growth_class(self):
        degree = 0
        order = 1
        best_exp: EntropyValue | None = None
        has_exp = False
        unknown = False
        for f in self.factors:
            cls, info = f.growth_class()
            if cls == "exponential":
                has_exp = True
                if info is None:
                    unknown = True
                elif best_exp is None or info.log_arg > best_exp.log_arg:
                    best_exp = info
            elif cls == "polynomial":
                degree += info
            else:
                order *= info
        if has_exp:
            return ("exponential", None if unknown else best_exp)
        return ("polynomial", degree) if degree else ("bounded", order)

    def abelian_generator_vectors(self):
        return _block_abelian_vectors(self.factors)


def _block_abelian_vectors(factors) -> list[tuple[int, ...]]:
    blocks = [f.abelian_generator_vectors() for f in factors]
    ranks = [len(b[0]) if b else 0 for b in blocks]
    total = sum(ranks)
    out = []
    offset = 0
    for b, r in zip(blocks, ranks):
        for vec in b:
            padded = (0,) * offset + tuple(vec) + (0,) * (total - offset - r)
            out.append(padded)
        offset += r
    return out


_ATOM_RE = re.compile(r"^(F|C)(\d+)$|^Z\^(\d+)$|^Z$")


def _parse_atom(token: str) -> MarkedGroup:
    m = _ATOM_RE.match(token)
    if not m:
        raise ParseError(f"bad group atom {token!r} (expected F<k>, Z^<d>, C<n>)")
    if token == "Z":
        return FreeAbelian(1, name="Z")
    if m.group(1) == "F":
        return FreeGroup(int(m.group(2)))
    if m.group(1) == "C":
        return Cyclic(int(m.group(2)))
    return FreeAbelian(int(m.group(3)))


def parse_group(spec: str) -> MarkedGroup:
    """Parse the family DSL: atoms F<k>, Z^<d>, C<n>; '*' free product binds
    tighter than 'x' direct product; both associate to the left."""
    spec = spec.strip()
    if not spec:
        raise ParseError("empty group spec")
    direct_parts = spec.split("x")
    built: list[MarkedGroup] = []
    for part in direct_parts:
        free_parts = [p.strip() for p in part.split("*")]
        atoms = [_parse_atom(p) for p in free_parts]
        built.append(atoms[0] if len(atoms) == 1 else FreeProduct(atoms))
    group = built[0] if len(built) == 1 else DirectProduct(built)
    if group.num_generators > 26:
        raise ParseError("at most 26 generators are supported (letters a..z)")
    if len(built) > 1 or len(direct_parts[0].split("*")) > 1:
        group.name = spec
    return group


# ---------------------------------------------------------------------------
# Cayley balls and growth


@dataclass(frozen=True)
class GrowthTable:
    """Vol_S(0..R) as exact integers, optionally backed by a closed form."""

    values: tuple[int, ...]
    group_name: str
    closed_form: MarkedGroup | None = None

    @property
    def radius(self) -> int:
        return len(self.values) - 1

    def volume(self, n: int) -> int:
        if n <= self.radius:
            return self.values[n]
        if self.closed_form is not None:
            return self.closed_form.volume(n)
        raise PreconditionError(
            f"growth table covers radius {self.radius}, but radius {n} is required"
        )

    def covers(self, n: int) -> bool:
        return n <= self.radius or self.closed_form is not None

    def to_csv(self) -> str:
        lines = ["n,vol"] + [f"{n},{v}" for n, v in enumerate(self.values)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CayleyBall:
    radius: int
    graph: Graph
    elements: tuple
    word_lengths: tuple[int, ...]
    growth: GrowthTable
    group: MarkedGroup


def sphere_levels(group: MarkedGroup, gens, max_elements: int, what: str):
    """Yield (depth, level) for depth 0, 1, 2, ...: the elements of word
    length exactly `depth` over `gens`, sorted by `group.to_word`.

    `gens` must be symmetric (closed under inverses), so every neighbour of
    a level-d element lies in level d-1, d or d+1 and two levels suffice to
    tell new elements from old.  Past the end of a finite group the levels
    are empty.  Once more than `max_elements` elements have been found,
    raises BudgetError naming `what` and the radius.  Stop iterating at the
    last level needed: the next one is computed only when asked for.
    """
    prev: set = set()
    curr = {group.identity()}
    total = 1
    yield 0, [group.identity()]
    for depth in itertools.count(1):
        nxt = set()
        for g in curr:
            for s in gens:
                h = group.multiply(g, s)
                if h not in prev and h not in curr:
                    nxt.add(h)
        total += len(nxt)
        if total > max_elements:
            raise BudgetError(
                f"{what} {max_elements} exceeded at radius {depth} "
                f"(radius {depth - 1} completed)"
            )
        prev, curr = curr, nxt
        yield depth, sorted(nxt, key=group.to_word)


def bfs_growth_table(
    group: MarkedGroup,
    radius: int,
    gens=None,
    max_elements: int = DEFAULT_BALL_BUDGET,
) -> GrowthTable:
    """Growth table from BFS counting only (memory stays at two levels)."""
    if gens is None:
        gens = [g for _, g in group.symmetric_generators()]
    vols = []
    total = 0
    for depth, level in sphere_levels(group, gens, max_elements, "ball budget"):
        total += len(level)
        vols.append(total)
        if depth >= radius:
            break
    return GrowthTable(values=tuple(vols), group_name=group.name)


def ball(
    group: MarkedGroup,
    radius: int,
    gens=None,
    max_elements: int = DEFAULT_BALL_BUDGET,
) -> CayleyBall:
    """Exact Cayley ball B(e, radius): elements, word lengths, ball graph, growth."""
    if radius < 0:
        raise PreconditionError("radius must be >= 0")
    if gens is None:
        gens = [g for _, g in group.symmetric_generators()]
    elements = []
    lengths = []
    vols = []
    for depth, level in sphere_levels(group, gens, max_elements, "ball budget"):
        elements.extend(level)
        lengths.extend([depth] * len(level))
        vols.append(len(elements))
        if depth >= radius:
            break
    index = {g: i for i, g in enumerate(elements)}
    edges = set()
    for i, g in enumerate(elements):
        for s in gens:
            h = group.multiply(g, s)
            j = index.get(h)
            if j is not None and j != i:
                edges.add((min(i, j), max(i, j)))
    graph = make_graph(len(elements), edges) if edges else Graph(n=len(elements), edges=frozenset())
    return CayleyBall(
        radius=radius,
        graph=graph,
        elements=tuple(elements),
        word_lengths=tuple(lengths),
        growth=GrowthTable(values=tuple(vols), group_name=group.name, closed_form=group),
        group=group,
    )


@dataclass(frozen=True)
class EntropyEstimate:
    """Entropy data from a growth table.

    `point_estimates` are log(Vol(n))/n; `ratio_estimates` are the successive
    quotients log(Vol(n)/Vol(n-1)), which converge much faster for exponential
    growth.  `lower` is a certified rational lower bound: the rounded-down
    declared value when the family has one, else 0 (a limsup admits no
    positive certificate from finitely many terms).
    """

    lower: Fraction
    point_estimates: tuple[float, ...]
    ratio_estimates: tuple[float, ...]
    declared: EntropyValue | None


def entropy_estimate(table: GrowthTable) -> EntropyEstimate:
    if len(table.values) < 3:
        raise PreconditionError("growth table must cover radius >= 2")
    points = tuple(
        math.log(table.values[n]) / n for n in range(1, len(table.values))
    )
    ratios = tuple(
        math.log(table.values[n] / table.values[n - 1])
        for n in range(1, len(table.values))
    )
    declared = (
        table.closed_form.declared_entropy() if table.closed_form is not None else None
    )
    lower = declared.lower() if declared is not None else Fraction(0)
    return EntropyEstimate(
        lower=lower,
        point_estimates=points,
        ratio_estimates=ratios,
        declared=declared,
    )
