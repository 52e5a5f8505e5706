"""Discrete measure-equivalence couplings with exactly computable cocycles.

The ambient space is a finitely generated group G with counting measure.
The full group (the "gamma side") acts by left multiplication, a finite
index subgroup L (the "lambda side", with Schreier generators) acts on the
right by lambda * w = w lambda^-1, and the two actions commute.  The gamma
fundamental domain is a singleton {g0}; the lambda fundamental domain is a
left-coset transversal T, so mu(X_gamma) = 1 and mu(X_lambda) = [G : L].

To support the coboundedness-strengthening construction, every coupling is
stored in fibered form: the space is G x {0..m-1}, the gamma side is
G x Z/m (the finite factor permutes fibers cyclically), and the lambda
fundamental domain in fiber i is the translate T * f_i^-1 for an element
f_i of L.  A plain subgroup coupling is the m = 1 case with f_0 = e.

Cocycles are computed by coset lookup:

    alpha((gamma,k), (x,i)) = f_j * rep(gamma x)^-1 * (gamma x),  j = k+i mod m
    beta(lambda, (g0,i0))   = (g0 lambda g0^-1, 0)

where rep(g) is the transversal representative of the left coset g L.
Both are exact group elements; every integral in scope is a finite sum
over the finite fundamental domains.

The subgroup's cosets come from HLT Todd-Coxeter enumeration (Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 5.1): scan-and-fill the
subgroup words at coset 0, then each relator at every live coset in turn, then
define the coset's missing entries; coincidences are merged into the smaller
number.  The table is then standardised: scanning cosets 0, 1, ... and, in
each, the columns g1, g1^-1, g2, g2^-1, ..., every coset is renumbered in order
of first appearance.  A standardised table is unique for its subgroup, so the
transversal and the Schreier generators do not depend on the enumeration order.
A trace walks the letters of `to_word(g)` through the table by letter: each
SubgroupData caches, per letter, its column as one tuple over the cosets.

Each coupling owns the run's `Budget` and two cached balls: B_gamma over
S_gamma and B_lambda over the Schreier generators.  Each is one
`groups.sphere_levels` BFS, run on only as far as a check asks, so every
element is charged to the Budget once.  A smaller ball is a prefix of a
larger one, because each level is sorted by `to_word`; so every check reads
the same elements in the same order, whatever radius was read first.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .errors import Budget, BudgetError, ParseError, PreconditionError
from .groups import MarkedGroup, parse_group, sphere_levels
from .integrability import IntegrabilityFunction
from .rational import FracInterval, lower, matrix_rank, upper
from .reports import encode

# the coset cap bounds the table's memory when an infinite index slips past the
# rank check: <a> in C2*C3 reaches 20,000 cosets in 25-50 ms (2-core x86_64
# host), where the general budget (10M by default) would let it grow to millions
DEFAULT_COSET_BUDGET = 20_000


# ---------------------------------------------------------------------------
# coset machinery


@dataclass(frozen=True)
class SubgroupData:
    """Finite-index subgroup of a marked group, via its right-coset table."""

    group: MarkedGroup
    generator_words: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]  # row per coset; columns g1, g1^-1, g2, ...
    transversal: tuple  # BFS-minimal left-coset representatives, transversal[0] = e
    schreier_generators: tuple  # symmetric, deduplicated, identity-free

    @property
    def index(self) -> int:
        return len(self.table)

    @cached_property
    def _columns(self) -> dict[str, tuple[int, ...]]:
        """Each letter's table column, as one tuple over the cosets."""
        return {
            ch: tuple(row[col] for row in self.table)
            for ch, col in self.group.letter_columns.items()
        }

    def trace(self, start: int, g) -> int:
        """Apply g to a right coset index (right-multiplication action)."""
        c = start
        columns = self._columns
        for ch in self.group.to_word(g):
            c = columns[ch][c]
        return c

    def contains(self, g) -> bool:
        return self.trace(0, g) == 0

    def left_index(self, g) -> int:
        """Index of the left coset gL (an arbitrary but fixed numbering)."""
        return self.trace(0, self.group.inverse(g))

    def rep(self, g):
        """The transversal representative of gL."""
        return self.transversal[self.left_index(g)]


def _build_coset_table(group: MarkedGroup, words, cap: int):
    """The standardised right-coset table of the subgroup generated by `words`.

    HLT Todd-Coxeter with coincidence processing (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 5.1).  Column 2k is generator
    k + 1 and column 2k + 1 its inverse.  Returns the table and the number of
    cosets defined, dead ones included; past `cap` of them it raises
    BudgetError.
    """
    table: list[list] = []
    p: list[int] = []  # p[c] == c for a live coset, else one it coincided with

    def new() -> int:
        if len(table) >= cap:
            raise BudgetError(
                f"coset enumeration stopped at {cap} cosets, the least of what is left of "
                f"--budget or HYPME_BUDGET and {DEFAULT_COSET_BUDGET}: the index may be infinite"
            )
        table.append([None] * (2 * group.num_generators))
        p.append(len(p))
        return p[-1]

    def rep(c: int) -> int:
        root = c
        while p[root] != root:
            root = p[root]
        while p[c] != root:
            p[c], c = root, p[c]
        return root

    def coincidence(a: int, b: int) -> None:
        queue = []

        def merge(x: int, y: int) -> None:
            x, y = rep(x), rep(y)
            if x != y:
                p[max(x, y)] = min(x, y)
                queue.append(max(x, y))

        merge(a, b)
        for dead in queue:  # FIFO; merge appends while the loop runs
            for x, d in enumerate(table[dead]):
                if d is None:
                    continue
                table[d][x ^ 1] = None
                mu, nu = rep(dead), rep(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x], table[nu][x ^ 1] = nu, mu

    def define(c: int, x: int) -> None:
        d = new()
        table[c][x], table[d][x ^ 1] = d, c

    def scan_and_fill(c: int, word: list[int]) -> None:
        f, b, i, j = c, c, 0, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f, i = table[f][word[i]], i + 1
            while j >= i and table[b][word[j] ^ 1] is not None:
                b, j = table[b][word[j] ^ 1], j - 1
            if j < i:  # the scan closed: f and b are the same coset
                coincidence(f, b)
                return
            if j == i:  # one gap: a deduction
                table[f][word[i]], table[b][word[i] ^ 1] = b, f
                return
            define(f, word[i])

    new()
    for g in words:
        scan_and_fill(0, [group.letter_columns[ch] for ch in group.to_word(g)])
    relators = [[2 * abs(x) - 2 + (x < 0) for x in rel] for rel in group.relators()]
    for c, row in enumerate(table):  # also visits the cosets defined on the way
        for rel in relators:
            if p[c] == c:
                scan_and_fill(c, rel)
        if p[c] == c:
            for x in range(len(row)):
                if row[x] is None:
                    define(c, x)

    order, number = [0], {0: 0}  # standardise: number cosets by first appearance
    for c in order:
        for d in table[c]:
            if d not in number:
                number[d] = len(order)
                order.append(d)
    return tuple(tuple(number[d] for d in table[c]) for c in order), len(table)


def subgroup_data(
    group: MarkedGroup,
    subgroup_gen_words: list[str],
    budget: Budget | None = None,
) -> SubgroupData:
    """Coset-enumerate the subgroup: transversal plus Schreier generators.

    An abelianization rank check rejects provably infinite-index inputs
    before enumeration is attempted.
    """
    gens = [group.parse_word(w) for w in subgroup_gen_words]
    rank = group.abelian_free_rank()
    if rank > 0:
        sub_rank = matrix_rank([group.abelian_vector(g) for g in gens])
        if sub_rank < rank:
            raise PreconditionError(
                f"subgroup has infinite index: abelianized image has rank {sub_rank} < {rank}"
            )
    budget = budget or Budget()
    table, defined = _build_coset_table(
        group, gens, min(budget.limit - budget.spent, DEFAULT_COSET_BUDGET)
    )
    budget.charge("cosets", defined, by="coset enumeration")  # within the cap, so never over
    index = len(table)

    # temporary data object for tracing while we build the transversal
    probe = SubgroupData(
        group=group,
        generator_words=tuple(subgroup_gen_words),
        table=table,
        transversal=(),
        schreier_generators=(),
    )
    sym = [g for _, g in group.symmetric_generators()]
    reps: dict[int, object] = {probe.left_index(group.identity()): group.identity()}
    frontier = [group.identity()]
    while frontier and len(reps) < index:
        nxt = []
        for t in frontier:
            for s in sym:
                u = group.multiply(s, t)  # left cosets grow by left multiplication
                idx = probe.left_index(u)
                if idx not in reps:
                    reps[idx] = u
                    nxt.append(u)
        frontier = nxt
    if len(reps) != index:
        raise PreconditionError("coset table is not transitive; inconsistent input")
    transversal = tuple(reps[i] for i in range(index))
    if not group.is_identity(transversal[0]):
        raise PreconditionError("transversal must start at the identity coset")

    schreier = {}
    for t in transversal:
        for s in sym:
            st = group.multiply(s, t)
            lam = group.multiply(group.inverse(reps[probe.left_index(st)]), st)
            if not group.is_identity(lam):
                schreier.setdefault(lam, None)
    ordered = sorted(schreier, key=lambda g: (group.word_length(g), group.to_word(g)))
    return SubgroupData(
        group=group,
        generator_words=tuple(subgroup_gen_words),
        table=table,
        transversal=transversal,
        schreier_generators=tuple(ordered),
    )


# ---------------------------------------------------------------------------
# the coupling


class Spheres:
    """The levels of one word-metric BFS, computed only as far as asked for."""

    def __init__(self, group: MarkedGroup, gens, budget: Budget):
        self._bfs = sphere_levels(group, gens, budget)
        self._levels: list[list] = []

    def __getitem__(self, depth: int) -> list:
        """The elements of length exactly `depth`, sorted by `to_word`."""
        while len(self._levels) <= depth:
            level = next(self._bfs, None)  # None: the BFS ended at a BudgetError
            if level is None:
                raise BudgetError(f"a group BFS stopped over budget before radius {depth}")
            self._levels.append(level[1])
        return self._levels[depth]

    def ball(self, radius: int) -> list:
        """The elements of length <= radius, level by level."""
        if radius < 0:
            raise PreconditionError("radius must be >= 0")
        return [g for depth in range(radius + 1) for g in self[depth]]


@dataclass(frozen=True)
class Coupling:
    group: MarkedGroup
    sub: SubgroupData
    fibers: tuple  # elements f_i of the subgroup; plain coupling: (e,)
    x_gamma: tuple  # points (g, fiber_index); singleton by construction
    budget: Budget = field(default_factory=Budget, compare=False, repr=False)

    @cached_property
    def gamma_spheres(self) -> Spheres:
        """B_gamma over S_gamma, the base-group part of the gamma side."""
        return Spheres(self.group, [s for _, s in self.group.symmetric_generators()], self.budget)

    @cached_property
    def lambda_spheres(self) -> Spheres:
        """B_lambda over the Schreier generators."""
        return Spheres(self.group, self.sub.schreier_generators, self.budget)

    # --- basic structure ---------------------------------------------------

    @property
    def fiber_count(self) -> int:
        return len(self.fibers)

    @property
    def index(self) -> int:
        return self.sub.index

    def gamma_multiply(self, p, q):
        """The product of gamma points; with q a point (g, i), the gamma action."""
        return (self.group.multiply(p[0], q[0]), (p[1] + q[1]) % self.fiber_count)

    def gamma_inverse(self, p):
        return (self.group.inverse(p[0]), (-p[1]) % self.fiber_count)

    def gamma_length(self, p) -> int:
        """Word length over S_gamma plus the fiber group (all of K \\ {e})."""
        return self.group.word_length(p[0]) + (1 if p[1] % self.fiber_count else 0)

    def gamma_generators(self) -> list:
        """S_gamma in fiber 0, then the nontrivial fiber moves (all of K \\ {e})."""
        e = self.group.identity()
        return [(s, 0) for _, s in self.group.symmetric_generators()] + [
            (e, k) for k in range(1, self.fiber_count)
        ]

    def gamma_distance(self, p, q) -> int:
        return self.gamma_length(self.gamma_multiply(self.gamma_inverse(p), q))

    def gamma_volume(self, radius: int) -> int:
        """Ball sizes of the gamma side: Vol(r) + (m-1) Vol(r-1) for m fibers."""
        m = self.fiber_count
        if m == 1:
            return self.group.volume(radius)
        if radius == 0:
            return 1
        return self.group.volume(radius) + (m - 1) * self.group.volume(radius - 1)

    def gamma_ball(self, radius: int):
        """The gamma points within `radius` of (e, 0); a fiber move costs one letter."""
        base = self.gamma_spheres.ball(radius)
        out = [(g, 0) for g in base]
        inner = base[: len(base) - len(self.gamma_spheres[radius])]
        for k in range(1, self.fiber_count):
            out.extend((g, k) for g in inner)
        return out

    # --- actions -------------------------------------------------------------

    def lambda_act(self, lam, point):
        g, i = point
        return (self.group.multiply(g, self.group.inverse(lam)), i)

    # --- fundamental domains ---------------------------------------------------

    def x_lambda_points(self):
        out = []
        for i, f in enumerate(self.fibers):
            finv = self.group.inverse(f)
            for t in self.sub.transversal:
                out.append((self.group.multiply(t, finv), i))
        return out

    def x_lambda_rep(self, point):
        """Projection of a point's lambda orbit into X_lambda."""
        g, i = point
        t = self.sub.rep(g)
        return (self.group.multiply(t, self.group.inverse(self.fibers[i])), i)

    def in_x_lambda(self, point) -> bool:
        return point == self.x_lambda_rep(point)

    def in_x_gamma(self, point) -> bool:
        return point in self.x_gamma

    def x_gamma_in_x_lambda(self) -> bool:
        return all(self.in_x_lambda(p) for p in self.x_gamma)

    def mu_x_gamma(self) -> Fraction:
        return Fraction(len(self.x_gamma))

    def mu_x_lambda(self) -> Fraction:
        return Fraction(self.index * self.fiber_count)

    # --- cocycles ---------------------------------------------------------------

    def alpha(self, p, point):
        """The unique subgroup element returning the gamma point p times point
        to X_lambda."""
        if not self.in_x_lambda(point):
            raise PreconditionError("alpha requires a point of X_lambda")
        moved = self.gamma_multiply(p, point)
        return self.group.multiply(self.group.inverse(self.x_lambda_rep(moved)[0]), moved[0])

    def induced_gamma(self, p, point):
        """gamma . x for a gamma point p: the shadow of the gamma action on X_lambda."""
        if not self.in_x_lambda(point):
            raise PreconditionError("induced action requires a point of X_lambda")
        return self.x_lambda_rep(self.gamma_multiply(p, point))

    def beta(self, lam, point):
        """The unique gamma-side element returning lambda * point to X_gamma."""
        if not self.sub.contains(lam):
            raise PreconditionError("beta requires a subgroup element")
        if not self.in_x_gamma(point):
            raise PreconditionError("beta requires a point of X_gamma")
        g, i = point
        base, i0 = self.x_gamma[0]
        moved = self.group.multiply(g, self.group.inverse(lam))
        gamma = self.group.multiply(base, self.group.inverse(moved))
        k = (i0 - i) % self.fiber_count
        return (gamma, k)

    def induced_lambda(self, lam, point):
        if not self.in_x_gamma(point):
            raise PreconditionError("induced action requires a point of X_gamma")
        return self.x_gamma[0]  # X_gamma is a singleton

    def b_map(self, lam, point):
        """b_x(lambda) = beta(lambda^-1, x)^-1."""
        return self.gamma_inverse(self.beta(self.group.inverse(lam), point))

    # --- subgroup metric -----------------------------------------------------------

    def lambda_lengths(self, targets) -> dict:
        """Word lengths over the Schreier generators, read from B_lambda until resolved."""
        pending = set(targets)
        for t in pending:
            if not self.sub.contains(t):
                raise PreconditionError(
                    f"length target {self.group.describe(t)} is not in the subgroup"
                )
        out = {}
        for depth in itertools.count():
            level = self.lambda_spheres[depth]
            if not level:
                raise PreconditionError(
                    "targets unreachable over Schreier generators (not in subgroup?)"
                )
            found = pending.intersection(level)
            out.update(dict.fromkeys(found, depth))
            pending -= found
            if not pending:
                break
        return out


def subgroup_coupling(
    group: MarkedGroup,
    subgroup_gen_words: list[str],
    x_gamma_word: str = "e",
    budget: Budget | None = None,
) -> Coupling:
    """The coupling of a group with a finite-index subgroup.

    The group acts on itself by left translations, the subgroup by right
    translations; fundamental domains are {x_gamma} and a BFS-minimal
    Schreier transversal.
    """
    budget = budget or Budget()
    sub = subgroup_data(group, subgroup_gen_words, budget)
    g0 = group.parse_word(x_gamma_word)
    return Coupling(
        group=group,
        sub=sub,
        fibers=(group.identity(),),
        x_gamma=((g0, 0),),
        budget=budget,
    )


def coupling_from_spec(spec: dict | str, budget: Budget | None = None) -> Coupling:
    """Build from the JSON spec {"group", "subgroup_generators", "x_gamma"}."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    if "group" not in spec or "subgroup_generators" not in spec:
        raise ParseError("coupling spec needs 'group' and 'subgroup_generators'")
    group = parse_group(spec["group"])
    return subgroup_coupling(
        group,
        list(spec["subgroup_generators"]),
        x_gamma_word=spec.get("x_gamma", "e"),
        budget=budget,
    )


# ---------------------------------------------------------------------------
# exhaustive identity checks


@dataclass(frozen=True)
class CheckReport:
    name: str = field(metadata={"key": "check"})
    cases: int
    violations: int
    passed: bool
    details: dict = field(default_factory=dict, metadata={"inline": True})

    @classmethod
    def of(cls, name: str, cases: int, violations: int, **details) -> CheckReport:
        return cls(name, cases, violations, violations == 0, details)


def check_cocycle_identity(c: Coupling, radius: int) -> CheckReport:
    """alpha(g'g, x) == alpha(g', g.x) alpha(g, x) for all |g|,|g'| <= radius.

    The check runs |X_lambda| |B_gamma(radius)|^2 cases, charged to `c.budget`
    after the gamma ball and before the first case.
    """
    if radius < 1:
        return CheckReport.of("cocycle_identity", 0, 0)
    points = c.x_lambda_points()
    ballg = c.gamma_ball(radius)
    cases = len(points) * len(ballg) ** 2
    c.budget.charge("cases", cases, by=f"cocycle identity check at radius {radius}")
    bad = 0
    for x in points:
        alpha_x = {p: c.alpha(p, x) for p in ballg}
        moved = {p: c.induced_gamma(p, x) for p in ballg}
        for p in ballg:
            ax = alpha_x[p]
            mx = moved[p]
            for q in ballg:
                left = c.alpha(c.gamma_multiply(q, p), x)
                right = c.group.multiply(c.alpha(q, mx), ax)
                if left != right:
                    bad += 1
    return CheckReport.of("cocycle_identity", cases, bad, radius=radius)


def check_inverse_relation(c: Coupling, radius: int) -> CheckReport:
    """alpha(beta(lam, x), x) == lam for |lam|_{S_lambda} <= radius, x in X_gamma."""
    if not c.x_gamma_in_x_lambda():
        raise PreconditionError(
            "inverse relation requires X_gamma inside X_lambda; "
            "run strengthen_coboundedness first"
        )
    cases = 0
    bad = 0
    for x in c.x_gamma:
        for lam in c.lambda_spheres.ball(radius):
            cases += 1
            if c.alpha(c.beta(lam, x), x) != lam:
                bad += 1
    return CheckReport.of("inverse_relation", cases, bad, radius=radius)


def check_b_identity(c: Coupling, radius: int) -> CheckReport:
    """b_x(u)^-1 b_x(v) == beta(v^-1 u, u^-1 . x)^-1 over the lambda ball.

    The check runs |X_gamma| |B_lambda(radius)|^2 cases, charged to `c.budget`
    after the lambda ball and before the first case.
    """
    elems = sorted(c.lambda_spheres.ball(radius), key=c.group.to_word)
    cases = len(c.x_gamma) * len(elems) ** 2
    c.budget.charge("cases", cases, by=f"b-identity check at radius {radius}")
    bad = 0
    inv = c.group.inverse
    for x in c.x_gamma:
        b_of = {u: c.b_map(u, x) for u in elems}
        for u in elems:
            bu_inv = c.gamma_inverse(b_of[u])
            ux = c.induced_lambda(inv(u), x)
            for v in elems:
                left = c.gamma_multiply(bu_inv, b_of[v])
                right = c.gamma_inverse(c.beta(c.group.multiply(inv(v), u), ux))
                if left != right:
                    bad += 1
    return CheckReport.of("b_identity", cases, bad, radius=radius)


def check_actions_commute(c: Coupling, radius: int, samples: int, seed: int) -> CheckReport:
    """(gamma * w) lambda^-1 == gamma * (w lambda^-1) on sampled triples."""
    import random

    rng = random.Random(seed)
    ballg = c.gamma_ball(radius)
    lams = sorted(c.lambda_spheres.ball(radius), key=c.group.to_word)
    points = [(p[0], i) for p in ballg for i in range(c.fiber_count)]
    cases = 0
    bad = 0
    for _ in range(samples):
        p = rng.choice(ballg)
        lam = rng.choice(lams)
        w = rng.choice(points)
        cases += 1
        one = c.lambda_act(lam, c.gamma_multiply(p, w))
        two = c.gamma_multiply(p, c.lambda_act(lam, w))
        if one != two:
            bad += 1
    return CheckReport.of("actions_commute", cases, bad, radius=radius)


def check_fundamental_domains(c: Coupling, radius: int) -> CheckReport:
    """Ball-truncated fundamental-domain axioms for both actions.

    Injectivity: (group element, domain point) pairs hit distinct points.
    Coverage: every point with small enough base coordinate is hit, where
    "small enough" subtracts the largest word length appearing in the domain
    and translate data.  Transversal uniqueness is re-verified by direct
    membership tests rather than through the coset index.
    """
    g = c.group
    bad = 0
    cases = 0

    base_ball = c.gamma_spheres.ball(radius)
    # transversal: each sampled element lies in exactly one t L
    for w in base_ball:
        cases += 1
        hits = [
            t for t in c.sub.transversal if c.sub.contains(g.multiply(g.inverse(t), w))
        ]
        if len(hits) != 1:
            bad += 1

    # gamma side: injectivity and coverage (fiber moves cost one letter)
    c_gamma = max(g.word_length(p[0]) for p in c.x_gamma)
    if c.fiber_count > 1:
        c_gamma += 1
    seen = {}
    for p in c.gamma_ball(radius):
        for x in c.x_gamma:
            cases += 1
            pt = c.gamma_multiply(p, x)
            if pt in seen:
                bad += 1
            seen[pt] = (p, x)
    for w in base_ball:
        if g.word_length(w) > radius - c_gamma:
            continue
        for i in range(c.fiber_count):
            cases += 1
            if (w, i) not in seen:
                bad += 1

    # lambda side: round-trip projection and injectivity over a lambda ball
    x_lambda = c.x_lambda_points()
    seen_l = {}
    for lam in c.lambda_spheres.ball(radius):
        for x in x_lambda:
            cases += 1
            pt = c.lambda_act(lam, x)
            if pt in seen_l:
                bad += 1
            seen_l[pt] = (lam, x)
    c_lambda = max(g.word_length(p[0]) for p in x_lambda)
    for w in base_ball:
        for i in range(c.fiber_count):
            cases += 1
            x = c.x_lambda_rep((w, i))
            lam = g.multiply(g.inverse(w), x[0])  # x lam^-1 == w
            pt = c.lambda_act(lam, x)
            if pt != (w, i) or not c.sub.contains(lam):
                bad += 1
    return CheckReport.of(
        "fundamental_domains", cases, bad, radius=radius, c_gamma=c_gamma, c_lambda=c_lambda
    )


# ---------------------------------------------------------------------------
# projections between fundamental domains


def projection_and_similarity(
    c: Coupling, side: str, X1: list[str], X2: list[str], phi: IntegrabilityFunction
) -> dict:
    """Materialize pi_{X1,X2} and integrate phi of the displacement.

    X1, X2 are fundamental domains for the same action, given as words:
    transversals for the lambda side, singletons for the gamma side.  The
    report carries the finite correction set (so the two domains are
    L-infinity-equivalent exactly when it is finite, which is automatic
    here) and the exact similarity integral when phi allows it.
    """
    g = c.group
    if c.fiber_count != 1:
        raise PreconditionError("projections are defined for plain couplings")
    elems1 = [g.parse_word(w) for w in X1]
    elems2 = [g.parse_word(w) for w in X2]
    if side == "lambda":
        for name, elems in (("X1", elems1), ("X2", elems2)):
            idxs = {c.sub.left_index(e) for e in elems}
            if len(elems) != c.index or len(idxs) != c.index:
                raise PreconditionError(f"{name} is not a transversal")
        by_idx2 = {c.sub.left_index(e): e for e in elems2}
        pairs = []
        corrections = []
        for x in elems1:
            x2 = by_idx2[c.sub.left_index(x)]
            lam = g.multiply(g.inverse(x2), x)  # pi(x) = x lam^-1
            corrections.append(lam)
            pairs.append((x, x2))
        lengths = c.lambda_lengths(set(corrections))
        dists = [lengths[lam] for lam in corrections]
    elif side == "gamma":
        if len(elems1) != 1 or len(elems2) != 1:
            raise PreconditionError("gamma fundamental domains are singletons")
        pairs = [(elems1[0], elems2[0])]
        corrections = [g.multiply(elems2[0], g.inverse(elems1[0]))]
        dists = [g.word_length(corrections[0])]
    else:
        raise PreconditionError("side must be 'lambda' or 'gamma'")

    integral = sum((phi.value(Fraction(d)) for d in dists), Fraction(0))
    correction_words = sorted({g.describe(lam) for lam in corrections})
    return {
        "side": side,
        "projection": [[g.describe(a), g.describe(b)] for a, b in pairs],
        "correction_set": correction_words,
        "linf_equivalent": True,  # correction set is finite by construction
        "displacements": dists,
        "phi": phi.describe(),
        "integral": encode(integral),
        "exact": phi.exact,
    }


# ---------------------------------------------------------------------------
# integrability functionals


@dataclass(frozen=True)
class IntegrabilityReport:
    phi: str
    psi: str
    k_constant: Fraction | FracInterval = field(metadata={"key": "K"})
    l_constant: Fraction | FracInterval = field(metadata={"key": "L"})
    beta_sup: int = field(metadata={"key": "beta_ess_sup"})
    alpha_max_length: int
    exact: bool


def integrability_report(
    c: Coupling, phi: IntegrabilityFunction, psi: IntegrabilityFunction
) -> IntegrabilityReport:
    """K = max_s integral of phi(|alpha(s,.)|) over X_lambda, and
    L = max_t integral of psi(|beta(t,.)|) over X_gamma, as exact finite sums.

    Also reports the essential sup of |beta(t,.)| (the L-infinity constant;
    finite here because the domain is finite).
    """
    gamma_gens = c.gamma_generators()
    points = c.x_lambda_points()
    alpha_values = {}
    targets = set()
    for s in gamma_gens:
        vals = [c.alpha(s, x) for x in points]
        alpha_values[s] = vals
        targets.update(vals)
    lengths = c.lambda_lengths(targets)
    alpha_max = max((lengths[v] for vals in alpha_values.values() for v in vals), default=0)

    lambda_gens = list(c.sub.schreier_generators)
    beta_lengths = {}
    for t in lambda_gens:
        beta_lengths[t] = [c.gamma_length(c.beta(t, x)) for x in c.x_gamma]
    beta_sup = max((d for ds in beta_lengths.values() for d in ds), default=0)

    def integral(fn, dist_lists):
        # the largest integral by its upper end; the first one on a tie
        sums = [sum((fn.value(Fraction(d)) for d in dists), Fraction(0)) for dists in dist_lists]
        return max(sums, key=upper, default=Fraction(0))

    K = integral(phi, [[lengths[v] for v in alpha_values[s]] for s in gamma_gens])
    L = integral(psi, [beta_lengths[t] for t in lambda_gens])
    return IntegrabilityReport(
        phi=phi.describe(),
        psi=psi.describe(),
        k_constant=K,
        l_constant=L,
        beta_sup=beta_sup,
        alpha_max_length=alpha_max,
        exact=phi.exact and psi.exact,
    )


# ---------------------------------------------------------------------------
# coboundedness


def coboundedness_witness(c: Coupling):
    """The minimal finite F in the subgroup with X_gamma inside F * X_lambda.

    Each gamma-domain point determines a unique translate, so the minimal
    witness is exactly the set of those translates (sorted by word length,
    then lexicographically).
    """
    g = c.group
    out = dict.fromkeys(required_translate(c, point) for point in c.x_gamma)
    return sorted(out, key=lambda e: (g.word_length(e), g.to_word(e)))


def required_translate(c: Coupling, point):
    """The unique f with point in f * X_lambda."""
    g = c.group
    return g.multiply(g.inverse(point[0]), c.x_lambda_rep(point)[0])


def strengthen_coboundedness(c: Coupling, F) -> Coupling:
    """Product coupling on Omega x F making the gamma domain sit inside the
    lambda domain.

    The new gamma side is Gamma x K with K cyclic of order |F| permuting the
    (fixed) enumeration of F; generating set S_gamma plus the nontrivial
    elements of K, so points differing only in fiber are at distance <= 1.
    Postconditions (both domains are genuine fundamental domains, the
    inclusion, the step bound, and the growth comparison) are re-checked by
    validate_strengthened via the standard check functions.
    """
    g = c.group
    F = list(F)
    if not F:
        raise PreconditionError("witness set F must be nonempty")
    for f in F:
        if not c.sub.contains(f):
            raise PreconditionError("witness elements must lie in the subgroup")
    positions = {f: idx for idx, f in enumerate(F)}
    if len(positions) != len(F):
        raise PreconditionError("witness set F has repeated elements")

    m_old = c.fiber_count
    new_fibers = []
    for f in F:
        for fi in c.fibers:
            new_fibers.append(g.multiply(f, fi))

    new_x_gamma = []
    for point in c.x_gamma:
        f_hat = required_translate(c, point)
        if f_hat not in positions:
            raise PreconditionError(
                f"F is not a coboundedness witness: point needs translate "
                f"{g.describe(f_hat)}"
            )
        x, i = point
        new_x_gamma.append((x, positions[f_hat] * m_old + i))
    out = Coupling(
        group=g,
        sub=c.sub,
        fibers=tuple(new_fibers),
        x_gamma=tuple(new_x_gamma),
        budget=c.budget,
    )
    if not out.x_gamma_in_x_lambda():
        raise PreconditionError("strengthening failed to achieve the inclusion")
    return out


def check_step_bound(c: Coupling) -> CheckReport:
    """d((x,f), (x,f')) <= 1 for gamma-domain base points across fibers."""
    cases = 0
    bad = 0
    for x, _ in c.x_gamma:
        for i in range(c.fiber_count):
            for j in range(c.fiber_count):
                cases += 1
                dist = c.gamma_distance((x, i), (x, j))
                if dist > 1:
                    bad += 1
    return CheckReport.of("step_bound", cases, bad)


def check_growth_comparison(c: Coupling, radius: int) -> CheckReport:
    """Vol_{S_gamma-tilde}(r) <= |K| * Vol_{S_gamma}(r), with the left side
    enumerated by BFS on the product group."""
    from .groups import Cyclic, DirectProduct, bfs_growth_table

    g = c.group
    m = c.fiber_count
    if m == 1:
        return CheckReport.of("growth_comparison", radius + 1, 0, radius=radius)
    prod = DirectProduct([g, Cyclic(m)])
    vols = bfs_growth_table(prod, radius, gens=c.gamma_generators(), budget=c.budget)
    bad = 0
    for r in range(radius + 1):
        lhs = vols[r]
        rhs = m * g.volume(r)
        if lhs > rhs:
            bad += 1
        expected = c.gamma_volume(r)
        if lhs != expected:
            bad += 1
    return CheckReport.of("growth_comparison", radius + 1, bad, radius=radius)


def validate_strengthened(c: Coupling, radius: int = 3, growth_radius: int = 6) -> dict:
    """All postcondition checks of the product construction, as one report."""
    reports = [
        check_fundamental_domains(c, radius),
        check_step_bound(c),
        check_growth_comparison(c, growth_radius),
    ]
    inclusion = c.x_gamma_in_x_lambda()
    return {
        "x_gamma_in_x_lambda": inclusion,
        "checks": reports,
        "passed": inclusion and all(r.passed for r in reports),
    }


# ---------------------------------------------------------------------------
# the measure bound


@dataclass(frozen=True)
class ClaimBoundReport:
    u: str
    v: str
    R: int
    d_lambda: int
    measured: Fraction
    bound: Fraction | FracInterval
    k_constant: Fraction | FracInterval
    identity_cases: int
    identity_violations: int
    degenerate: bool
    passed: bool


def _k_constant(c: Coupling, phi: IntegrabilityFunction):
    return integrability_report(c, phi, phi).k_constant


def claim_bound_check(
    c: Coupling,
    u,
    v,
    R: int,
    phi: IntegrabilityFunction,
    k_constant=None,
    d_lambda: int | None = None,
) -> ClaimBoundReport:
    """mu({x : d(b_x(u), b_x(v)) <= R}) <= K R Vol(R) / phi(d_lambda(u,v)/R).

    Exact on both sides for exactly evaluable phi; u == v is degenerate
    (phi(0) may vanish) and is reported as skipped rather than asserted.
    The displacement identity b_x(u)^-1 b_x(v) == beta(v^-1 u, u^-1 . x)^-1
    is re-verified on every gamma-domain point along the way.
    """
    g = c.group
    if not c.x_gamma_in_x_lambda():
        raise PreconditionError(
            "the measure bound requires X_gamma inside X_lambda; "
            "run strengthen_coboundedness first"
        )
    if R < 1:
        raise PreconditionError("R must be a positive integer")
    for w in (u, v):
        if not c.sub.contains(w):
            raise PreconditionError("u and v must be subgroup elements")
    # measure scaled so mu(X_gamma) = 1: exact rational reweighting
    weight = Fraction(1, len(c.x_gamma))

    w = g.multiply(g.inverse(u), v)
    degenerate = g.is_identity(w)

    identity_cases = 0
    identity_bad = 0
    measured = Fraction(0)
    winv = g.multiply(g.inverse(v), u)
    for x in c.x_gamma:
        bu = c.b_map(u, x)
        bv = c.b_map(v, x)
        diff = c.gamma_multiply(c.gamma_inverse(bu), bv)
        identity_cases += 1
        ux = c.induced_lambda(g.inverse(u), x)
        rhs = c.gamma_inverse(c.beta(winv, ux))
        if diff != rhs:
            identity_bad += 1
        if c.gamma_length(diff) <= R:
            measured += weight

    if degenerate:
        d_lambda, k_constant, bound = 0, Fraction(0), Fraction(0)
    else:
        if d_lambda is None:
            d_lambda = c.lambda_lengths({w})[w]
        if k_constant is None:
            k_constant = _k_constant(c, phi)
        denom = phi.value(Fraction(d_lambda, R))
        if lower(denom) <= 0:
            raise PreconditionError("phi vanishes at d/R; bound undefined")
        bound = k_constant * R * c.gamma_volume(R) / denom
    return ClaimBoundReport(
        u=g.describe(u), v=g.describe(v), R=R, d_lambda=d_lambda,
        measured=measured, bound=bound, k_constant=k_constant,
        identity_cases=identity_cases, identity_violations=identity_bad,
        degenerate=degenerate, passed=identity_bad == 0 and (degenerate or measured <= lower(bound)),
    )


def claim_bound_sweep(c: Coupling, lambda_radius: int, R_values, phis) -> dict:
    """Check the measure bound for every pair u != v in the lambda ball B.

    Both sides depend on a pair only through w = u^-1 v: the gamma-side
    displacement is |g0 w g0^-1| for X_gamma = {g0}, and d_lambda(u, v) is
    |w|_lambda.  Splitting a geodesic word in two shows that these w are
    exactly B_lambda(2r) minus e for lambda radius r.  A w with displacement
    > R has measured side 0, so it satisfies the bound without evaluating
    phi.  So the sweep runs from the gamma side: for gamma in B_Gamma(max R)
    it takes w = g0^-1 gamma g0, whose displacement is |gamma|, and keeps w
    if it is in L, is not e, and has |w|_lambda <= 2r.  The coupling's
    B_lambda gives B and the lambda lengths; it is read to the farthest
    candidate or to depth 2r.

    The u, v pairs are never enumerated.  `pair_checks` counts them all,
    |B| (|B| - 1) per (R, phi), and `failures` lists the w in order of first
    occurrence among the pairs in `to_word` order, that is, by the first u
    with u w in B, then by u w.  The two balls charge their group elements
    to `c.budget`.
    """
    g = c.group
    if len(c.x_gamma) != 1:
        raise PreconditionError("sweep assumes a singleton gamma domain")
    if not R_values or min(R_values) < 1:
        raise PreconditionError("R values must be positive integers")
    base = c.x_gamma[0][0]
    base_inv = g.inverse(base)

    # candidate w -> gamma-side displacement |g0 w g0^-1|
    disp = {}
    for depth in range(max(R_values) + 1):
        for gamma in c.gamma_spheres[depth]:
            w = g.multiply(base_inv, g.multiply(gamma, base))
            if not g.is_identity(w) and c.sub.contains(w):
                disp[w] = depth

    # B = B_lambda(r), then the lambda lengths of the candidates up to 2r
    elems = sorted(c.lambda_spheres.ball(lambda_radius), key=g.to_word)
    lam_len = {}
    pending = set(disp)
    for depth in range(2 * lambda_radius + 1):
        if not pending:
            break
        found = pending.intersection(c.lambda_spheres[depth])
        lam_len.update(dict.fromkeys(found, depth))
        pending -= found
    position = {u: i for i, u in enumerate(elems)}

    def first_pair(w):
        for i, u in enumerate(elems):
            j = position.get(g.multiply(u, w))
            if j is not None:
                return i, j

    order = sorted(lam_len, key=first_pair)

    k_constants = {phi.describe(): _k_constant(c, phi) for phi in phis}
    failures = []
    evaluated = 0
    for phi in phis:
        kc = k_constants[phi.describe()]
        k_low = lower(kc)
        for R in R_values:
            vol = c.gamma_volume(R)
            for w in order:
                if disp[w] > R:
                    continue  # measured side is 0 <= bound
                evaluated += 1
                denom = upper(phi.value(Fraction(lam_len[w], R)))
                if denom == 0:
                    failures.append((g.describe(w), R, phi.describe(), "phi=0"))
                    continue
                bound = k_low * R * vol / denom
                if Fraction(1) > bound:
                    failures.append((g.describe(w), R, phi.describe(), str(bound)))
    return {
        "lambda_radius": lambda_radius,
        "R_values": list(R_values),
        "phis": [phi.describe() for phi in phis],
        "ball_size": len(elems),
        "pair_checks": len(elems) * (len(elems) - 1) * len(R_values) * len(phis),
        "nontrivial_evaluations": evaluated,
        "K": k_constants,
        "failures": failures,
        "passed": not failures,
    }
