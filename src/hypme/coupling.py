"""Discrete measure-equivalence couplings with exactly computable cocycles.

The ambient space is a finitely generated group G with counting measure.
The full group (the "gamma side") acts by left multiplication, a finite
index subgroup L (the "lambda side", with Schreier generators) acts on the
right by lambda * w = w lambda^-1, and the two actions commute; the points
of the space are group elements.  The gamma side acts simply transitively,
so its fundamental domain X_gamma is one point x0 = g0 and mu(X_gamma) = 1.
The lambda fundamental domain is the left-coset transversal T shifted by
one subgroup element f, X_lambda = T f^-1, so mu(X_lambda) = [G : L]; a
plain subgroup coupling has f = e.  X_lambda is one table in coset order:
its point i, t_i f^-1, lies in the left coset t_i L because f is in L.  So
the point of X_lambda in w L is read at w's left-coset index, and whether a
point lies in X_lambda is a set lookup, with no trace.

The measure bound is stated for a strengthened coupling, one with X_gamma
inside X_lambda.  A coupling is cobounded when X_gamma lies in F * X_lambda
for a finite F in L, and the general strengthening lets Gamma x Z/|F| act
on Omega x F.  Here X_gamma is the one point x0, whose lambda orbit x0 L
meets X_lambda in exactly one point, so the minimal witness F is one
element f'.  With |F| = 1 the product construction is the coupling itself
with X_lambda moved to f' * X_lambda = T (f' f)^-1: strengthening is a
shift of the transversal (`strengthen_coboundedness`).

Cocycles are computed by coset lookup:

    alpha(gamma, x) = f * rep(gamma x)^-1 * (gamma x)
    beta(lambda)    = g0 lambda g0^-1

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
transversal and the Schreier generators do not depend on the enumeration order;
both are read off the table's columns, without tracing a word.
A trace walks the letters of `to_word(g)` through the table by letter: each
SubgroupData caches, per letter, its column as one tuple over the cosets.

Each coupling owns the run's `Budget` and two cached balls: B_gamma over
S_gamma and B_lambda over the Schreier generators.  Each is one
`groups.Spheres` BFS, run on only as far as a check asks, so every element
is charged to the Budget once.  A smaller ball is a prefix of a larger one,
because each level is sorted by `to_word`; so every check reads the same
elements in the same order, whatever radius was read first.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import Budget, BudgetError, ParseError, PreconditionError
from .groups import MarkedGroup, Spheres, parse_group
from .rational import FracInterval, lower, matrix_rank, upper
from .reports import encode, read_object

if TYPE_CHECKING:
    from .integrability import IntegrabilityFunction

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


def _columns(group: MarkedGroup, word: str) -> list[int]:
    """The letters of a word, such as a relator or `to_word(g)`, as coset-table columns."""
    return [group.letter_columns[ch] for ch in word]


def _exponent_sums(group: MarkedGroup, words) -> list[list[int]]:
    """The exponent sum of each generator in each word of table columns."""
    sums = [[0] * group.num_generators for _ in words]
    for vec, word in zip(sums, words):
        for col in word:
            vec[col >> 1] += 1 - 2 * (col & 1)
    return sums


def _build_coset_table(group: MarkedGroup, words, cap: int):
    """The standardised right-coset table of the subgroup generated by `words`.

    HLT Todd-Coxeter with coincidence processing (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 5.1).  Column 2k is the letter
    group.letter(k) and column 2k + 1 its inverse.  Returns the table and
    the number of cosets defined, dead ones included; past `cap` of them it
    raises BudgetError.
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
        scan_and_fill(0, _columns(group, group.to_word(g)))
    relators = [_columns(group, rel) for rel in group.relators()]
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

    A rank check rejects provably infinite-index inputs before enumeration
    is attempted.  It reads the exponent sums of the group's relators, the
    one presentation that enumeration also scans: with R their rows and S
    those of the subgroup generators, the abelianization has free rank
    k - rank(R) over k generators, and the subgroup's image there has rank
    rank(R u S) - rank(R), which a finite index must reach.

    The transversal is a BFS over left cosets, growing by left
    multiplication, that reads the table directly: left_index(s t) =
    trace(0, t^-1 s^-1) = table[left_index(t)][column of s^-1].
    Every coset of the standardised table is reachable from coset 0, so the
    BFS reaches them all.  The same identity gives each Schreier generator
    rep(s t)^-1 s t from one table entry.
    """
    gens = [group.parse_word(w) for w in subgroup_gen_words]
    rels = _exponent_sums(group, [_columns(group, rel) for rel in group.relators()])
    subs = _exponent_sums(group, [_columns(group, group.to_word(g)) for g in gens])
    rel_rank = matrix_rank(rels)
    rank, sub_rank = group.num_generators - rel_rank, matrix_rank(rels + subs) - rel_rank
    if sub_rank < rank:
        raise PreconditionError(
            f"subgroup has infinite index: abelianized image has rank {sub_rank} < {rank}"
        )
    budget = budget or Budget()
    table, defined = _build_coset_table(
        group, gens, min(budget.limit - budget.spent, DEFAULT_COSET_BUDGET)
    )
    budget.charge("cosets", defined, by="coset enumeration")  # within the cap, so never over

    # each generator s with the column of s^-1
    sym = [(s, group.letter_columns[label.swapcase()]) for label, s in group.symmetric_generators()]
    reps = {0: group.identity()}  # left index -> representative
    frontier = [0]
    while frontier and len(reps) < len(table):
        nxt = []
        for i in frontier:
            for s, col in sym:
                j = table[i][col]
                if j not in reps:
                    reps[j] = group.multiply(s, reps[i])
                    nxt.append(j)
        frontier = nxt
    transversal = tuple(reps[i] for i in range(len(table)))

    schreier = {}
    for i, t in enumerate(transversal):
        for s, col in sym:
            lam = group.multiply(group.inverse(reps[table[i][col]]), group.multiply(s, t))
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


@dataclass(frozen=True)
class Coupling:
    """A subgroup coupling with X_lambda = T shift^-1 and X_gamma = {x0}."""

    group: MarkedGroup
    sub: SubgroupData
    shift: object  # the subgroup element f of X_lambda = T f^-1; plain coupling: e
    x0: object  # the group element g0 that is all of X_gamma
    budget: Budget = field(default_factory=Budget, compare=False, repr=False)

    @cached_property
    def gamma_spheres(self) -> Spheres:
        """B_gamma over S_gamma."""
        return Spheres(self.group, budget=self.budget)

    @cached_property
    def lambda_spheres(self) -> Spheres:
        """B_lambda over the Schreier generators."""
        return Spheres(self.group, self.sub.schreier_generators, self.budget)

    @property
    def index(self) -> int:
        return self.sub.index

    def lambda_act(self, lam, w):
        return self.group.multiply(w, self.group.inverse(lam))

    # --- fundamental domains ---------------------------------------------------

    @cached_property
    def x_lambda(self) -> tuple:
        """X_lambda in coset order: point i is t_i f^-1, in left coset i as f is in L."""
        finv = self.group.inverse(self.shift)
        return tuple(self.group.multiply(t, finv) for t in self.sub.transversal)

    @cached_property
    def _x_lambda_set(self) -> frozenset:
        return frozenset(self.x_lambda)

    def x_lambda_rep(self, w):
        """The point of X_lambda in the lambda orbit w L."""
        return self.x_lambda[self.sub.left_index(w)]

    def in_x_lambda(self, w) -> bool:
        return w in self._x_lambda_set

    def require_inclusion(self, what: str) -> None:
        """Refuse a coupling whose X_gamma is not inside X_lambda."""
        if not self.in_x_lambda(self.x0):
            raise PreconditionError(
                f"{what} requires X_gamma inside X_lambda; run strengthen_coboundedness first"
            )

    # --- cocycles ---------------------------------------------------------------

    def alpha(self, gamma, x):
        """The unique subgroup element returning gamma x to X_lambda."""
        if not self.in_x_lambda(x):
            raise PreconditionError("alpha requires a point of X_lambda")
        moved = self.group.multiply(gamma, x)
        return self.group.multiply(self.group.inverse(self.x_lambda_rep(moved)), moved)

    @cached_property
    def alpha_lengths(self) -> list[list[int]]:
        """|alpha(s, x)|_lambda, a row for each s in S_gamma over x in X_lambda."""
        gens = self.group.symmetric_generators()
        rows = [[self.alpha(s, x) for x in self.x_lambda] for _, s in gens]
        lengths = self.lambda_lengths({v for row in rows for v in row})
        return [[lengths[v] for v in row] for row in rows]

    def induced_gamma(self, gamma, x):
        """gamma . x: the shadow of the gamma action on X_lambda."""
        if not self.in_x_lambda(x):
            raise PreconditionError("induced action requires a point of X_lambda")
        return self.x_lambda_rep(self.group.multiply(gamma, x))

    def beta(self, lam):
        """The unique gamma-side element returning lambda * x0 to x0: g0 lambda g0^-1."""
        if not self.sub.contains(lam):
            raise PreconditionError("beta requires a subgroup element")
        return self._conjugate_by_x0(lam)

    def _conjugate_by_x0(self, lam):
        """beta(lambda) for a lambda already known to lie in the subgroup."""
        g = self.group
        return g.multiply(self.x0, g.multiply(lam, g.inverse(self.x0)))

    def b_map(self, lam):
        """b(lambda) = beta(lambda^-1)^-1."""
        return self.group.inverse(self.beta(self.group.inverse(lam)))

    # --- subgroup metric -----------------------------------------------------------

    def lambda_lengths(self, targets, within: int | None = None) -> dict:
        """Word lengths over the Schreier generators, read from B_lambda until resolved.

        With `within`, B_lambda is read to depth `within` at most, and the
        targets longer than that are left out of the result.
        """
        pending = set(targets)
        for t in pending:
            if not self.sub.contains(t):
                raise PreconditionError(
                    f"length target {self.group.describe(t)} is not in the subgroup"
                )
        out = {}
        for depth in itertools.count() if within is None else range(within + 1):
            if not pending:
                break
            level = self.lambda_spheres[depth]
            if not level:
                raise PreconditionError(
                    "targets unreachable over Schreier generators (not in subgroup?)"
                )
            found = pending.intersection(level)
            out.update(dict.fromkeys(found, depth))
            pending -= found
        return out


def subgroup_coupling(
    group: MarkedGroup,
    subgroup_gen_words: list[str],
    x_gamma_word: str = "e",
    budget: Budget | None = None,
) -> Coupling:
    """The coupling of a group with a finite-index subgroup.

    The group acts on itself by left translations, the subgroup by right
    translations; fundamental domains are the point x_gamma and a
    BFS-minimal Schreier transversal.
    """
    budget = budget or Budget()
    return Coupling(
        group=group,
        sub=subgroup_data(group, subgroup_gen_words, budget),
        shift=group.identity(),
        x0=group.parse_word(x_gamma_word),
        budget=budget,
    )


def coupling_from_spec(spec: dict | str, budget: Budget | None = None) -> Coupling:
    """Build from the JSON spec {"group", "subgroup_generators", "x_gamma"},
    as text or decoded; x_gamma is optional and defaults to "e".

    A spec of the wrong shape, or with a key not among these three, raises
    ParseError naming the key at fault.
    """
    spec = read_object(spec, "coupling spec", ("group", "subgroup_generators"), ("x_gamma",))
    words, x_gamma = spec["subgroup_generators"], spec.get("x_gamma", "e")
    if not isinstance(spec["group"], str):
        raise ParseError("coupling spec 'group' must be a group name string")
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise ParseError("coupling spec 'subgroup_generators' must be a list of word strings")
    if not isinstance(x_gamma, str):
        raise ParseError("coupling spec 'x_gamma' must be a word string")
    return subgroup_coupling(parse_group(spec["group"]), words, x_gamma_word=x_gamma, budget=budget)


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
    def of(cls, name: str, holds, **details) -> CheckReport:
        """The report of a check whose cases `holds` yields, True for each case
        in which the identity held.  The only place cases and violations are
        counted: `Counter` tallies the outcomes without keeping them."""
        tally = Counter(holds)
        return cls(name, tally.total(), tally[False], not tally[False], details)


def check_cocycle_identity(c: Coupling, radius: int) -> CheckReport:
    """alpha(g'g, x) == alpha(g', g.x) alpha(g, x) for all |g|,|g'| <= radius.

    The check runs |X_lambda| |B_gamma(radius)|^2 cases, charged to `c.budget`
    after the gamma ball and before the first case.
    """
    if radius < 1:
        return CheckReport.of("cocycle_identity", ())
    points = c.x_lambda
    ballg = c.gamma_spheres.ball(radius)
    cases = len(points) * len(ballg) ** 2
    c.budget.charge("cases", cases, by=f"cocycle identity check at radius {radius}")
    mul = c.group.multiply
    # g.x is a point of X_lambda, so alpha(g', g.x) is read from one table
    alpha_at = {y: {q: c.alpha(q, y) for q in ballg} for y in points}
    holds = (
        c.alpha(mul(q, p), x) == mul(alpha_at[moved][q], alpha_at[x][p])
        for x in points
        for p in ballg
        for moved in [c.induced_gamma(p, x)]
        for q in ballg
    )
    return CheckReport.of("cocycle_identity", holds, radius=radius)


def check_inverse_relation(c: Coupling, radius: int) -> CheckReport:
    """alpha(beta(lam), x0) == lam for |lam|_{S_lambda} <= radius."""
    c.require_inclusion("the inverse relation")
    holds = (c.alpha(c.beta(lam), c.x0) == lam for lam in c.lambda_spheres.ball(radius))
    return CheckReport.of("inverse_relation", holds, radius=radius)


def check_b_identity(c: Coupling, radius: int) -> CheckReport:
    """b(u)^-1 b(v) == beta(v^-1 u)^-1 over the lambda ball.

    The general identity evaluates beta at u^-1 . x0, which is x0 again, as
    X_gamma is one point.  The check runs |B_lambda(radius)|^2 cases, charged
    to `c.budget` after the lambda ball and before the first case.  Each
    element of the ball is traced through the coset table once, by b_map:
    the subgroup is closed under products and inverses, so every v^-1 u is
    then a member, and the cases take beta without its membership trace.
    """
    elems = sorted(c.lambda_spheres.ball(radius), key=c.group.to_word)
    c.budget.charge("cases", len(elems) ** 2, by=f"b-identity check at radius {radius}")
    mul, inv = c.group.multiply, c.group.inverse
    b_and_inverse = [(c.b_map(v), inv(v)) for v in elems]
    holds = (
        mul(b_u_inv, b_v) == inv(c._conjugate_by_x0(mul(v_inv, u)))
        for u, (b_u, _) in zip(elems, b_and_inverse)
        for b_u_inv in [inv(b_u)]
        for b_v, v_inv in b_and_inverse
    )
    return CheckReport.of("b_identity", holds, radius=radius)


def check_actions_commute(c: Coupling, radius: int, samples: int, seed: int) -> CheckReport:
    """(gamma * w) lambda^-1 == gamma * (w lambda^-1) on sampled triples."""
    import random

    rng = random.Random(seed)
    mul = c.group.multiply
    ballg = c.gamma_spheres.ball(radius)
    lams = sorted(c.lambda_spheres.ball(radius), key=c.group.to_word)
    holds = (
        c.lambda_act(lam, mul(p, w)) == mul(p, c.lambda_act(lam, w))
        for _ in range(samples)
        for p, lam, w in [(rng.choice(ballg), rng.choice(lams), rng.choice(ballg))]
    )
    return CheckReport.of("actions_commute", holds, radius=radius)


def _first_visits(points, seen: set):
    """For each point, whether it is not in `seen`; each is added after its test."""
    for pt in points:
        yield pt not in seen
        seen.add(pt)


def check_fundamental_domains(c: Coupling, radius: int) -> CheckReport:
    """Ball-truncated fundamental-domain axioms for both actions.

    Injectivity: (group element, domain point) pairs hit distinct points.
    Coverage: every point within radius - |x0| of e is gamma x0 for a gamma
    in B_gamma(radius), and every point of B_gamma(radius) is x lambda^-1
    for its X_lambda point x and a subgroup element lambda.  Transversal
    uniqueness is re-verified by direct membership tests rather than
    through the coset index.
    """
    g = c.group
    base_ball = c.gamma_spheres.ball(radius)
    c_gamma = g.word_length(c.x0)
    c_lambda = max(g.word_length(x) for x in c.x_lambda)
    t_invs = [g.inverse(t) for t in c.sub.transversal]
    lambda_points = (c.lambda_act(lam, x) for lam in c.lambda_spheres.ball(radius) for x in c.x_lambda)
    gamma_seen = set()

    def round_trip(w) -> bool:
        x = c.x_lambda_rep(w)
        lam = g.multiply(g.inverse(w), x)  # x lam^-1 == w
        return c.lambda_act(lam, x) == w and c.sub.contains(lam)

    holds = itertools.chain(
        # transversal: each sampled element lies in exactly one t L
        (sum(c.sub.contains(g.multiply(t_inv, w)) for t_inv in t_invs) == 1 for w in base_ball),
        # gamma side: injectivity, then coverage
        _first_visits((g.multiply(p, c.x0) for p in base_ball), gamma_seen),
        (w in gamma_seen for w in base_ball if g.word_length(w) <= radius - c_gamma),
        # lambda side: injectivity over a lambda ball, then round-trip projection
        _first_visits(lambda_points, set()),
        map(round_trip, base_ball),
    )
    return CheckReport.of(
        "fundamental_domains", holds, radius=radius, c_gamma=c_gamma, c_lambda=c_lambda
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
    elems1 = [g.parse_word(w) for w in X1]
    elems2 = [g.parse_word(w) for w in X2]
    if side == "lambda":
        for name, elems in (("X1", elems1), ("X2", elems2)):
            idxs = {c.sub.left_index(e) for e in elems}
            if len(elems) != c.index or len(idxs) != c.index:
                raise PreconditionError(f"{name} is not a transversal")
        by_idx2 = {c.sub.left_index(e): e for e in elems2}
        pairs = [(x, by_idx2[c.sub.left_index(x)]) for x in elems1]
        corrections = [g.multiply(g.inverse(x2), x) for x, x2 in pairs]  # pi(x) = x lam^-1
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

    integral = sum((phi.value(Fraction(d), c.budget) for d in dists), Fraction(0))
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


def _largest_integral(c: Coupling, fn: IntegrabilityFunction, rows) -> Fraction | FracInterval:
    """The largest sum of fn over a row of distances, by its upper end; the
    first one on a tie.  Each exp_power term charges `c.budget`."""
    sums = [sum((fn.value(Fraction(d), c.budget) for d in row), Fraction(0)) for row in rows]
    return max(sums, key=upper, default=Fraction(0))


def _k_constant(c: Coupling, phi: IntegrabilityFunction) -> Fraction | FracInterval:
    """K = max over s in S_gamma of the integral of phi(|alpha(s,.)|) over X_lambda."""
    return _largest_integral(c, phi, c.alpha_lengths)


def integrability_report(
    c: Coupling, phi: IntegrabilityFunction, psi: IntegrabilityFunction
) -> IntegrabilityReport:
    """K = max_s integral of phi(|alpha(s,.)|) over X_lambda, and
    L = max_t integral of psi(|beta(t)|) over X_gamma, as exact finite sums;
    the second has the one term of the point x0.

    Also reports the essential sup of |beta(t)| (the L-infinity constant;
    finite here because the domain is finite).  Each exp_power term charges
    its bracket's working bits to `c.budget`.
    """
    beta_lengths = [c.group.word_length(c.beta(t)) for t in c.sub.schreier_generators]
    return IntegrabilityReport(
        phi=phi.describe(),
        psi=psi.describe(),
        k_constant=_k_constant(c, phi),
        l_constant=_largest_integral(c, psi, [[d] for d in beta_lengths]),
        beta_sup=max(beta_lengths, default=0),
        alpha_max_length=max((d for row in c.alpha_lengths for d in row), default=0),
        exact=phi.exact and psi.exact,
    )


# ---------------------------------------------------------------------------
# coboundedness


def coboundedness_witness(c: Coupling) -> list:
    """The minimal finite F in the subgroup with X_gamma inside F * X_lambda.

    The lambda orbit x0 L meets X_lambda in one point x, and x0 = f * x for
    exactly one f = x0^-1 x in L; so the minimal witness is [f].
    """
    g = c.group
    return [g.multiply(g.inverse(c.x0), c.x_lambda_rep(c.x0))]


def strengthen_coboundedness(c: Coupling) -> Coupling:
    """The coupling with X_lambda moved so that it contains X_gamma.

    The general construction takes a finite witness F with X_gamma inside
    F * X_lambda and lets Gamma x Z/|F| act on Omega x F.  X_gamma is the
    one point x0, so the minimal F is the one element f of
    `coboundedness_witness`, the product with |F| = 1 is Omega itself, and
    the new lambda domain f * X_lambda = T (f shift)^-1 is the transversal
    shifted by f.  On a coupling with X_gamma already inside X_lambda, f is
    e and the result equals c.  The budget is shared with c.
    """
    f = coboundedness_witness(c)[0]
    return replace(c, shift=c.group.multiply(f, c.shift))


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


def claim_bound_check(c: Coupling, u, v, R: int, phi: IntegrabilityFunction) -> ClaimBoundReport:
    """mu({x : d(b_x(u), b_x(v)) <= R}) <= K R Vol(R) / phi(d_lambda(u,v)/R).

    Exact on both sides for exactly evaluable phi; u == v is degenerate
    (phi(0) may vanish) and is reported as skipped rather than asserted.
    X_gamma is the one point x0 of measure 1, so the measured side is 0 or 1.
    The displacement identity b(u)^-1 b(v) == beta(v^-1 u)^-1 is re-verified
    at x0 along the way.  Expanding Vol(R) charges its 64-bit words to
    `c.budget`.
    """
    g = c.group
    c.require_inclusion("the measure bound")
    if R < 1:
        raise PreconditionError("R must be a positive integer")
    for w in (u, v):
        if not c.sub.contains(w):
            raise PreconditionError("u and v must be subgroup elements")
    w = g.multiply(g.inverse(u), v)
    degenerate = g.is_identity(w)

    diff = g.multiply(g.inverse(c.b_map(u)), c.b_map(v))
    identity_bad = int(diff != g.inverse(c.beta(g.inverse(w))))
    measured = Fraction(int(g.word_length(diff) <= R))

    if degenerate:
        d_lambda, k_constant, bound = 0, Fraction(0), Fraction(0)
    else:
        d_lambda = c.lambda_lengths({w})[w]
        k_constant = _k_constant(c, phi)
        denom = phi.value(Fraction(d_lambda, R), c.budget)
        if lower(denom) <= 0:
            raise PreconditionError("phi vanishes at d/R; bound undefined")
        bound = k_constant * R * g.volume(R, c.budget, by=f"the measure bound's Vol({R})") / denom
    return ClaimBoundReport(
        u=g.describe(u), v=g.describe(v), R=R, d_lambda=d_lambda,
        measured=measured, bound=bound, k_constant=k_constant,
        identity_cases=1, identity_violations=identity_bad,
        degenerate=degenerate, passed=identity_bad == 0 and (degenerate or measured <= lower(bound)),
    )


def claim_bound_sweep(c: Coupling, lambda_radius: int, R_values, phis) -> dict:
    """Check the measure bound for every pair u != v in the lambda ball B.

    Both sides depend on a pair only through w = u^-1 v: the gamma-side
    displacement is |g0 w g0^-1| for X_gamma = {x0}, and d_lambda(u, v) is
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
    to `c.budget`, each exp_power bracket its working bits, and Vol up to
    the largest R its 64-bit words, before the first ball is read.  Like
    `claim_bound_check`, the sweep refuses a coupling whose X_gamma is not
    inside X_lambda.

    The bound's denominator is the upper end of phi's bracket at
    d_lambda / R >= 1/R > 0, which is positive for every family: an exact
    power is > 0, a power or poly_plus bracket's upper end is at least
    2**-32 and exp_power's is at least 1.  So every bound is finite.
    """
    g = c.group
    c.require_inclusion("the measure bound")
    if not R_values or min(R_values) < 1:
        raise PreconditionError("R values must be positive integers")
    top = max(R_values)
    g.volume(top, c.budget, by=f"the measure bound's Vol({top})")
    base_inv = g.inverse(c.x0)

    # candidate w -> gamma-side displacement |g0 w g0^-1|; a finite group's
    # levels end before top
    disp = {}
    for depth in range(top + 1):
        level = c.gamma_spheres[depth]
        if not level:
            break
        for gamma in level:
            w = g.multiply(base_inv, g.multiply(gamma, c.x0))
            if not g.is_identity(w) and c.sub.contains(w):
                disp[w] = depth

    # B = B_lambda(r), then the lambda lengths of the candidates up to 2r
    elems = sorted(c.lambda_spheres.ball(lambda_radius), key=g.to_word)
    lam_len = c.lambda_lengths(disp, within=2 * lambda_radius)
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
            vol = g.volume(R)
            for w in order:
                if disp[w] > R:
                    continue  # measured side is 0 <= bound
                evaluated += 1
                denom = upper(phi.value(Fraction(lam_len[w], R), c.budget))
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
