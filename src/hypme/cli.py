"""Command-line front door.

Subcommands: graph-analyze, find-cycles, check-obstruction, group-ball,
coupling-build, coupling-verify, integrability, claim-check, threshold,
conditions.  Every run writes one JSON report embedding the tool version,
the configuration echo, the seed, and the budget, so identical invocations
produce byte-identical files.  One `Budget`, from --budget or HYPME_BUDGET,
bounds the work of every kernel a run calls.

Each subcommand is declared once, by `_command`, and named after the
function that runs it by the rule cmd_x_y <-> x-y: `cmd_claim_check` runs
claim-check.  perfbench/tracing.py finds every command's function by that
rule.  --gen and --edges name the host two ways, so a command refuses both.
Each command builds its report on one path.  check-obstruction always loads
a host that is given, checks the embedding's images against it and
re-verifies the embedding's constants on it; --delta replaces only the
certified delta, and with no host it is required.

Importing this module runs none of the kernel modules: each is registered
lazily (`_lazy`) and runs on first attribute access, so a subcommand pays
only for the modules it calls.  Commands therefore call kernels through
their module, as `graphs.distance_matrix(...)`, never through names bound at
import time.  A kernel module imports names only from a module that runs
whenever it does; any other it imports as `from . import graphs`, which
runs nothing until an attribute is read, or, when it names it only in
annotations, under TYPE_CHECKING.  Certified brackets are computed in
Python integers by `brackets`, which only the commands that take one run.

Exit codes: 0 success; 1 usage, parse, precondition, budget or IO errors
(the report file included), with one line on stderr and no report; 2 when
the report is written but its mathematical check fails (a command's
`math_ok` is false: an obstruction violation, a failed coupling check or
claim), so CI can tell broken math from broken IO.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from fractions import Fraction

from . import __version__
from .errors import Budget, HypmeError, ParseError


def _lazy(name: str):
    """The module hypme.<name>, registered in sys.modules and bound on the
    package, but executed only when one of its attributes is first read."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


brackets = _lazy("brackets")
coupling = _lazy("coupling")
cycles = _lazy("cycles")
graphs = _lazy("graphs")
groups = _lazy("groups")
hyperbolicity = _lazy("hyperbolicity")
integrability = _lazy("integrability")
rational = _lazy("rational")
reports = _lazy("reports")
rigidity = _lazy("rigidity")


def _budget(args) -> Budget:
    env = os.environ.get("HYPME_BUDGET")
    if args.budget is None and env:
        try:
            return Budget(int(env))
        except ValueError:
            raise ParseError(f"HYPME_BUDGET={env!r} is not an integer") from None
    return Budget() if args.budget is None else Budget(args.budget)


# generator kind -> (constructor in graphs, number of integer parameters)
_GENERATORS = {"tree": ("tree_graph", 2), "grid": ("grid_graph", 2), "cycle": ("cycle_graph", 1)}


def _load_host(args) -> graphs.Graph:
    if getattr(args, "gen", None):
        kind, _, rest = args.gen.partition(":")
        if kind not in _GENERATORS:
            raise ParseError(f"unknown generator {kind!r} (tree|grid|cycle)")
        make, arity = _GENERATORS[kind]
        try:
            params = [int(x) for x in rest.split(",")]
        except ValueError:
            params = []
        if len(params) != arity:
            raise ParseError(f"generator spec {args.gen!r} needs {arity} integer parameter(s)")
        return getattr(graphs, make)(*params)
    if getattr(args, "edges", None):
        with open(args.edges) as fh:
            return graphs.load_graph(fh.read(), largest_component=args.largest_component)
    raise HypmeError("provide --gen or --edges")


def _config_echo(args) -> dict:
    skip = {"func"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = value
    return out


def cmd_graph_analyze(args, budget):
    g = _load_host(args)
    dm = None if g.is_tree else graphs.distance_matrix(g, budget)  # a tree's report needs none
    if dm is None or g.n <= hyperbolicity.EXACT_CUTOFF:
        rep = hyperbolicity.hyperbolicity_report(g, dm, budget)
    else:
        rep = hyperbolicity.sampled_hyperbolicity(dm, args.samples, args.seed, budget=budget)
    diameter = graphs.tree_diameter(g) if dm is None else int(dm.d.max())
    return {"n": g.n, "m": g.m, "diameter": diameter, **vars(rep)}, True


def cmd_find_cycles(args, budget):
    g = _load_host(args)
    dm = None if g.is_tree else graphs.distance_matrix(g, budget)  # a tree's answer needs none
    res = cycles.find_fat_cycle(
        g,
        dm,
        min_a=rational.parse_fraction(args.min_a),
        min_n=args.min_n,
        mode=args.mode,
        budget=budget,
        seed=args.seed,
    )
    return res, True


def _read_embedding(path: str) -> cycles.CycleEmbedding:
    """The embedding object that find-cycles reports, checked for shape and
    for keys other than its four."""
    with open(path) as fh:
        obj = reports.read_object(fh.read(), "embedding", ("n", "images", "a", "b"))
    images = obj["images"]
    if not isinstance(images, list) or not all(type(v) is int for v in images):
        raise ParseError("embedding images must be a list of vertex integers")
    if obj["n"] != len(images):
        raise ParseError(f"embedding n = {obj['n']!r} but it has {len(images)} images")
    if len(images) < 3:
        raise ParseError(f"embedding has {len(images)} images, a cycle needs at least 3")
    try:
        a, b = rational.parse_fraction(str(obj["a"])), rational.parse_fraction(str(obj["b"]))
    except ParseError:
        raise ParseError(f"embedding constants a={obj['a']!r}, b={obj['b']!r} are not fractions") from None
    return cycles.CycleEmbedding(n=len(images), images=tuple(images), a=a, b=b)


def cmd_check_obstruction(args, budget):
    emb = _read_embedding(args.embedding)
    delta = None if args.delta is None else rational.parse_fraction(args.delta)
    delta_source = "supplied"
    # a host that is given is always read, and with no --delta one is needed to certify delta
    if args.gen or args.edges or delta is None:
        host = _load_host(args)
        if not all(0 <= v < host.n for v in emb.images):
            raise ParseError(f"embedding image vertex out of range for a host with {host.n} vertices")
        dm = graphs.distance_matrix(host, budget)
        if delta is None:
            delta = hyperbolicity.thin_triangle_delta(host, dm, budget)[0] + 2
            delta_source = "thin_triangle_plus_slack_2"
        emb = cycles.verify_embedding(dm, list(emb.images))
    report = cycles.check_obstruction(emb, delta)
    payload = {"delta_source": delta_source, **vars(report)}
    return payload, report.verdict == "consistent"


# 64-bit words a row of group-ball's growth table and entropy block takes (Budget.UNITS)
_GROWTH_ROW_WORDS = 50


def cmd_group_ball(args, budget):
    group = groups.parse_group(args.group)
    rows = max(args.radius + 1, 0)  # n = 0..radius: Vol(n) and the entropy estimates at n
    by = f"the growth table and entropy block to radius {args.radius}"
    budget.charge("report words", _GROWTH_ROW_WORDS * rows, by=by)
    if args.counts_only:
        growth, ball = groups.bfs_growth_table(group, args.radius, budget=budget), {}
    else:
        b = groups.ball(group, args.radius, budget=budget)
        growth = b.growth
        ball = {
            "n": b.graph.n,
            "edges": sorted(b.graph.edges),
            "word_lengths": b.word_lengths,
            "labels": [group.describe(g) for g in b.elements],
        }
    entropy = groups.entropy_estimate(group, args.radius) if args.radius >= 2 else None
    payload = {"group": group.name, "radius": args.radius, **ball, "growth": growth, "entropy": entropy}
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("n,vol\n" + "".join(f"{n},{v}\n" for n, v in enumerate(growth)))
    return payload, True


def _load_coupling(args, budget):
    with open(args.spec) as fh:
        return coupling.coupling_from_spec(fh.read(), budget)


def _coupling_view(c) -> dict:
    g = c.group
    return {
        "group": g.name,
        "subgroup_generators": c.sub.generator_words,
        "index": c.index,
        "transversal": [g.describe(t) for t in c.sub.transversal],
        "schreier_generators": [g.describe(s) for s in c.sub.schreier_generators],
        "shift": g.describe(c.shift),  # f of X_lambda = T f^-1
        "x_gamma": g.describe(c.x0),
        "mu_scale": Fraction(1),  # mu is counting measure
        "mu_x_gamma": Fraction(1),  # X_gamma is the one point x0
        "mu_x_lambda": Fraction(c.index),
        "x_gamma_in_x_lambda": c.in_x_lambda(c.x0),
    }


def _witness_view(c) -> list[str]:
    return [c.group.describe(f) for f in coupling.coboundedness_witness(c)]


def cmd_coupling_build(args, budget):
    c = _load_coupling(args, budget)
    payload = _coupling_view(c)
    payload["coboundedness_witness"] = _witness_view(c)
    return payload, True


def cmd_coupling_verify(args, budget):
    # strengthening is the identity on a coupling with X_gamma inside X_lambda
    c = coupling.strengthen_coboundedness(_load_coupling(args, budget))
    # the b-identity check has the most cases, so it refuses an over-budget radius first
    b_identity = coupling.check_b_identity(c, args.radius)
    checks = [
        coupling.check_cocycle_identity(c, args.radius),
        b_identity,
        coupling.check_actions_commute(c, max(args.radius - 1, 1), samples=200, seed=args.seed),
        coupling.check_fundamental_domains(c, args.radius),
        coupling.check_inverse_relation(c, args.radius),
    ]
    payload = {
        "coupling": _coupling_view(c),
        "radius": args.radius,
        "checks": checks,
    }
    ok = all(r.passed for r in checks)
    return payload, ok


def cmd_integrability(args, budget):
    c = _load_coupling(args, budget)
    parse_function = integrability.parse_function
    rep = coupling.integrability_report(c, parse_function(args.phi), parse_function(args.psi))
    return rep, True


def cmd_claim_check(args, budget):
    c = _load_coupling(args, budget)
    phis = [integrability.parse_function(s) for s in args.phi.split(",")]
    try:
        r_values = [int(x) for x in args.radii.split(",")]
    except ValueError:
        raise ParseError(f"--radii {args.radii!r} is not a list of integers") from None
    witness = _witness_view(c)
    payload = coupling.claim_bound_sweep(
        coupling.strengthen_coboundedness(c), args.lambda_radius, r_values, phis
    )
    payload["coboundedness_witness"] = witness
    return payload, payload["passed"]


def cmd_threshold(args, budget):
    group = groups.parse_group(args.group)
    if not group.ball_is_tree(args.ball_radius):  # its scan builds a distance matrix
        graphs._check_size(group.volume(args.ball_radius, budget, by="the ball's vertex count"))
    b = groups.ball(group, args.ball_radius, budget=budget)
    est = groups.entropy_estimate(group, args.ball_radius)
    rep = rigidity.threshold_p(
        hyperbolicity.thin_triangle_delta(b.graph, budget=budget)[0],
        group.growth.entropy.hi,
        provenance={
            "delta_source": f"thin_triangle on ball radius {args.ball_radius} (lower bound for the group)",
            "entropy_source": "declared",
            "group": group.name,
        },
    )
    return {**vars(rep), "entropy_estimate": est}, True


def cmd_conditions(args, budget):
    group = groups.parse_group(args.group)
    parse_fraction = rational.parse_fraction
    if args.r.startswith("log:"):
        schedule = rigidity.Schedule("log", coefficient=parse_fraction(args.r[4:]))
    elif args.r.startswith("pow:"):
        schedule = rigidity.Schedule("pow", exponent=parse_fraction(args.r[4:]))
    else:
        raise HypmeError("schedule spec must be log:<c> or pow:<e>")
    rc = rigidity.RigidityConditions(
        delta=parse_fraction(args.delta),
        L=parse_fraction(args.L),
        phi=integrability.parse_function(args.phi),
        psi=integrability.parse_function(args.psi),
        r=schedule,
        n_min=args.n_min,
        n_max=args.n_max,
    )
    checks = []
    wanted = args.check.split(",")
    unknown = sorted(set(wanted) - {"5", "6", "7"})
    if unknown:
        raise ParseError(f"--check takes conditions 5, 6 and 7, not {', '.join(unknown)!r}")
    if "5" in wanted:
        checks.append(rigidity.check_condition_5(rc, group, budget))
    if "6" in wanted:
        checks.append(rigidity.check_condition_6_7(rc, "thm41"))
    if "7" in wanted:
        checks.append(rigidity.check_condition_6_7(rc, "thm42"))
    payload = {
        "group": group.name,
        "conditions": checks,
    }
    return payload, True


def _command(sub, func, help: str, host: bool = False, **kwargs) -> argparse.ArgumentParser:
    """The subparser that runs `func`, named by the rule cmd_x_y -> x-y, with
    the host options when `host` (--gen and --edges exclusive), then the
    options every command takes."""
    p = sub.add_parser(func.__name__.removeprefix("cmd_").replace("_", "-"), help=help, **kwargs)
    if host:
        source = p.add_mutually_exclusive_group()
        source.add_argument("--gen", help="generator spec: tree:b,d | grid:w,h | cycle:n")
        source.add_argument("--edges", help="edge-list file (one 'u v' pair per line)")
        p.add_argument("--largest-component", action="store_true")
    p.add_argument("--out", required=True, help="output report path (JSON)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help=f"work budget in {Budget.UNITS} (or HYPME_BUDGET)")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypme",
        description="exact toolkit for hyperbolicity obstructions and measure-equivalence couplings",
    )
    ap.add_argument("--version", action="version", version=f"hypme {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _command(sub, cmd_graph_analyze, "distances and hyperbolicity constants", host=True)
    p.add_argument("--samples", type=int, default=100_000, help="sample count past the cutoff")

    p = _command(sub, cmd_find_cycles, "search for fat bi-Lipschitz embedded cycles", host=True)
    p.add_argument("--min-a", required=True, help="lower bi-Lipschitz threshold, e.g. 1/2")
    p.add_argument("--min-n", type=int, required=True)
    p.add_argument("--mode", choices=["auto", "exhaustive", "heuristic"], default="auto")

    p = _command(sub, cmd_check_obstruction, "evaluate the cycle obstruction inequality", host=True)
    p.add_argument("--embedding", required=True, help="CycleEmbedding JSON file")
    p.add_argument("--delta", help="hypothetical delta as p/q, in place of the certified one; "
                   "a given host still re-verifies the embedding")

    p = _command(sub, cmd_group_ball, "Cayley ball, growth table, entropy")
    p.add_argument("--group", required=True, help="family DSL, e.g. F2, Z^2, C2*C3")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--csv", help="also write the growth table as CSV")
    p.add_argument("--counts-only", action="store_true", help="skip the ball graph")

    p = _command(sub, cmd_coupling_build, "build a subgroup coupling from a spec file")
    p.add_argument("--spec", required=True, help='JSON: {"group","subgroup_generators","x_gamma"}')

    p = _command(sub, cmd_coupling_verify, "strengthen the coupling, then run exhaustive checks")
    p.add_argument("--spec", required=True)
    p.add_argument("--radius", type=int, default=3)

    p = _command(sub, cmd_integrability, "the K and L integral constants")
    p.add_argument("--spec", required=True)
    p.add_argument("--phi", default="power:1")
    p.add_argument("--psi", default="power:1")

    p = _command(
        sub,
        cmd_claim_check,
        "strengthen the coupling, then sweep the measure bound over a subgroup ball",
        description="Strengthen the coupling first, shifting X_lambda by the coboundedness "
        "witness so that it contains X_gamma, then check the measure bound for every pair "
        "of the subgroup ball.",
    )
    p.add_argument("--spec", required=True)
    p.add_argument("--lambda-radius", type=int, default=4)
    p.add_argument("--radii", default="1,2,3", help="comma-separated R values")
    p.add_argument("--phi", default="power:1,power:2", help="comma-separated functions")

    p = _command(sub, cmd_threshold, "critical exponent from group data")
    p.add_argument("--group", required=True)
    p.add_argument("--ball-radius", type=int, default=4)

    p = _command(sub, cmd_conditions, "vanishing and schedule condition checks")
    p.add_argument("--group", required=True, help="growth source (closed-form families)")
    p.add_argument("--check", default="5,6,7", help="which conditions to run")
    p.add_argument("--delta", default="1")
    p.add_argument("--L", default="1")
    p.add_argument("--phi", default="power:2")
    p.add_argument("--psi", default="power:1")
    p.add_argument("--r", default="log:108", help="schedule: log:<c> or pow:<e>")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=10**6)

    return ap


def dispatch(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    config = _config_echo(args)
    try:
        budget = _budget(args)
        config["budget_effective"] = budget.limit
        payload, math_ok = args.func(args, budget)
        reports.write_report(args.out, config, payload)
    except HypmeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1
    return 0 if math_ok else 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
