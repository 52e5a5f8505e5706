"""The traced run: the same jobs in-process, with a span around each layer call.

The benchmark wraps hypme's public functions from its own files; no file
under src/ changes.  Each wrapper replaces every name bound to the function
in every loaded hypme module, so it catches both calls from the CLI and calls
inside the defining module (hyperbolicity_report -> thin_triangle_delta).
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("L1", "L2", "L3", "L4", "L5", "L6", "L7")


def _thin_counts(result, p):
    g = p["g"]
    scanned = g.n > 2 and g.m != g.n - 1  # trees and tiny graphs have a closed form
    return {"triples": g.n**3 if scanned else 0}


def _four_point_counts(result, p):
    n = p["dm"].n
    return {"quadruples": n**4 if n > 2 and not p["tree_hint"] else 0}


# (module, function, layer, counts taken from the result and the bound arguments)
TRACED = (
    ("graphs", "distance_matrix", "L1", lambda r, p: {"vertices": r.n, "bytes": 4 * r.n**2}),
    ("graphs", "load_graph", "L1", None),
    ("hyperbolicity", "thin_triangle_delta", "L2", _thin_counts),
    ("hyperbolicity", "four_point_delta", "L2", _four_point_counts),
    ("hyperbolicity", "sampled_hyperbolicity", "L2", lambda r, p: {"samples": p["samples"]}),
    ("cycles", "find_fat_cycle", "L3", lambda r, p: {"nodes_used": r.nodes_used, "found": int(r.outcome == "found")}),
    ("cycles", "verify_embedding", "L3", None),
    ("cycles", "check_obstruction", "L3", None),
    ("groups", "ball", "L4", lambda r, p: {"elements": len(r.elements)}),
    ("groups", "bfs_growth_table", "L4", None),
    ("groups", "entropy_estimate", "L4", None),
    ("coupling", "coupling_from_spec", "L5", None),
    ("coupling", "claim_bound_sweep", "L5", lambda r, p: {
        "pair_checks": r["pair_checks"], "nontrivial_evaluations": r["nontrivial_evaluations"],
    }),
    ("coupling", "check_b_identity", "L5", lambda r, p: {"cases": r.cases}),
    ("coupling", "check_cocycle_identity", "L5", None),
    ("coupling", "check_fundamental_domains", "L5", None),
    ("coupling", "check_actions_commute", "L5", None),
    ("coupling", "integrability_report", "L5", None),
    ("rigidity", "threshold_p", "L6", None),
    ("rigidity", "check_condition_5", "L6", None),
    ("rigidity", "check_condition_6_7", "L6", None),
    ("reports", "write_report", "L7", None),
)
SUBCOMMANDS = (
    "graph-analyze", "find-cycles", "check-obstruction", "group-ball", "coupling-build",
    "coupling-verify", "integrability", "claim-check", "threshold", "conditions",
)
# Every per-layer metric the traced run reports, with its unit.
METRICS = (
    ("graphs.distance_matrix.self_s", "s"),
    ("graphs.distance_matrix.vertices", "count"),
    ("graphs.distance_matrix.bytes", "bytes"),
    ("graphs.distance_matrix.bytes_at_max_vertices", "bytes"),
    ("graphs.load_graph.self_s", "s"),
    ("hyperbolicity.thin_triangle_delta.self_s", "s"),
    ("hyperbolicity.thin_triangle_delta.triples", "count"),
    ("hyperbolicity.thin_triangle_delta.peak_bytes", "bytes"),
    ("hyperbolicity.four_point_delta.self_s", "s"),
    ("hyperbolicity.four_point_delta.quadruples", "count"),
    ("hyperbolicity.sampled_hyperbolicity.self_s", "s"),
    ("hyperbolicity.sampled_hyperbolicity.s_per_sample", "s"),
    ("hyperbolicity.sampled_hyperbolicity.default_samples_s", "s"),
    ("cycles.find_fat_cycle.self_s", "s"),
    ("cycles.find_fat_cycle.nodes_used", "count"),
    ("cycles.find_fat_cycle.found_ratio", "ratio"),
    ("cycles.verify_embedding.self_s", "s"),
    ("cycles.verify_embedding.calls", "count"),
    ("cycles.check_obstruction.self_s", "s"),
    ("groups.ball.self_s", "s"),
    ("groups.ball.elements", "count"),
    ("groups.bfs_growth_table.self_s", "s"),
    ("groups.entropy_estimate.self_s", "s"),
    ("coupling.coupling_from_spec.self_s", "s"),
    ("coupling.claim_bound_sweep.self_s", "s"),
    ("coupling.claim_bound_sweep.pair_checks", "count"),
    ("coupling.claim_bound_sweep.nontrivial_evaluations", "count"),
    ("coupling.claim_bound_sweep.useful_ratio", "ratio"),
    ("coupling.check_b_identity.self_s", "s"),
    ("coupling.check_b_identity.cases", "count"),
    ("coupling.check_cocycle_identity.self_s", "s"),
    ("coupling.check_fundamental_domains.self_s", "s"),
    ("coupling.check_actions_commute.self_s", "s"),
    ("coupling.integrability_report.self_s", "s"),
    ("rigidity.threshold_p.self_s", "s"),
    ("rigidity.check_condition_5.self_s", "s"),
    ("rigidity.check_condition_6_7.self_s", "s"),
    *((f"cli.{name}.self_s", "s") for name in SUBCOMMANDS),
    ("reports.write_report.self_s", "s"),
    ("cli.startup_share", "ratio"),
    *((f"layer.{layer}.share", "ratio") for layer in LAYERS),
    ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    name: str
    layer: str
    job: str
    start: float
    parent: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; `job` names the job the next spans belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._open: list[int] = []

    def span(self, name: str, layer: str, fn, counts=None):
        signature = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = Span(name, layer, self.job, time.perf_counter(), parent)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts.update(counts(result, bound.arguments))
            return result

        return traced

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s.parent, "job": s.job, "name": s.name,
                                     "layer": s.layer, "start": s.start, "end": s.end, **s.counts}) + "\n")


def _rebind(original, wrapped) -> list:
    """Bind `wrapped` to every name of `original` in every loaded hypme module; returns the undo list."""
    undo = []
    for name, m in list(sys.modules.items()):
        if name == "hypme" or name.startswith("hypme."):
            for attr in [a for a, v in vars(m).items() if v is original]:
                undo.append((m, attr, original))
                setattr(m, attr, wrapped)
    return undo


def install(tracer: Tracer, cli) -> list:
    """Wrap the traced functions in every loaded hypme module; returns the undo list."""
    targets = [(sys.modules[f"hypme.{mod}"], fn, f"{mod}.{fn}", layer, counts) for mod, fn, layer, counts in TRACED]
    targets += [(cli, "cmd_" + sub.replace("-", "_"), f"cli.{sub}", "L7", None) for sub in SUBCOMMANDS]
    undo = []
    for home, fn_name, name, layer, counts in targets:
        original = getattr(home, fn_name)
        undo += _rebind(original, tracer.span(name, layer, original, counts))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class PeakMemory:
    """The largest tracemalloc peak of a thin_triangle_delta call.

    tracemalloc slows every allocation, so this runs in a pass whose times
    are not used.
    """

    def __init__(self):
        self.peak = 0

    def install(self) -> list:
        original = sys.modules["hypme.hyperbolicity"].thin_triangle_delta

        @functools.wraps(original)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return _rebind(original, measured)


class InProcess:
    """Runs a job through hypme.cli.dispatch in this process, optionally traced."""

    def __init__(self, src: str):
        sys.path.insert(0, src)
        import hypme.cli

        self.cli = hypme.cli
        self.tracer: Tracer | None = None

    def __call__(self, job, argv, workdir):
        here = os.getcwd()
        os.chdir(workdir)
        error = ""
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if self.tracer is None:
                code = self.cli.dispatch(list(argv))
            else:
                self.tracer.job = job.id
                code = self.tracer.span("cli.dispatch", "L7", self.cli.dispatch)(list(argv))
        except Exception as exc:  # an uncaught error ends a CLI process with exit 1
            code, error = 1, f"{type(exc).__name__}: {exc}"
        finally:
            os.chdir(here)
        return time.perf_counter() - t0, code, time.process_time() - c0, 0, error


def layer_metrics(tracer: Tracer, cli, traced_s: float, jobs_s: float, dispatch_s: float, overhead_s: float,
                  peak_bytes: int) -> dict:
    """Per-layer metrics of one traced pass.

    traced_s is the traced pass's wall time.  jobs_s, the sum of job walls in
    the untraced subprocess pass, minus dispatch_s, the same sum in the
    untraced in-process pass, is start-up: it counts toward L7, and a layer's
    share is its self time over traced_s plus start-up.
    """
    own = tracer.self_times()
    by_name: dict[str, dict] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(tracer.spans, own):
        agg = by_name.setdefault(s.name, {"self_s": 0.0, "calls": 0})
        agg["self_s"] += t
        agg["calls"] += 1
        for key, value in s.counts.items():
            agg[key] = agg.get(key, 0) + value
        layer_self[s.layer] += t
    startup = jobs_s - dispatch_s
    layer_self["L7"] += startup

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    samples = get("hyperbolicity.sampled_hyperbolicity", "samples")
    s_per_sample = ratio(get("hyperbolicity.sampled_hyperbolicity", "self_s"), samples)
    default_samples = cli.build_parser().parse_args(["graph-analyze", "--out", "-"]).samples
    max_vertices = sys.modules["hypme.graphs"].MAX_VERTICES

    values = {
        "graphs.distance_matrix.bytes_at_max_vertices": 4 * max_vertices**2,
        "hyperbolicity.sampled_hyperbolicity.s_per_sample": s_per_sample,
        "hyperbolicity.sampled_hyperbolicity.default_samples_s": s_per_sample * default_samples,
        "cycles.find_fat_cycle.found_ratio": ratio(get("cycles.find_fat_cycle", "found"),
                                                   get("cycles.find_fat_cycle", "calls")),
        "coupling.claim_bound_sweep.useful_ratio": ratio(get("coupling.claim_bound_sweep", "nontrivial_evaluations"),
                                                         get("coupling.claim_bound_sweep", "pair_checks")),
        "cli.startup_share": ratio(startup, jobs_s),
        "hyperbolicity.thin_triangle_delta.peak_bytes": peak_bytes,
        "trace.overhead_s": overhead_s,
        **{f"layer.{layer}.share": ratio(t, traced_s + startup) for layer, t in layer_self.items()},
    }
    for name, _unit in METRICS:
        if name not in values:
            fn, _, key = name.rpartition(".")
            values[name] = get(fn, key)
    return {name: values[name] for name, _unit in METRICS}
