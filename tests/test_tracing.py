"""The benchmark's tracer still fits the functions it wraps.

perfbench/tracing.py wraps hypme functions by module and name and reads
their results and bound arguments (`g`, `dm`, `tree_hint`, `samples`, ...)
to count work.  A renamed function or argument breaks the traced benchmark;
this test runs one small job per counted kernel under the tracer, and the
group commands whose uncounted functions it wraps, so such a rename fails
here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hypme import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
F2_SPEC = {"group": "F2", "subgroup_generators": ["aa", "b", "abA"], "x_gamma": "e"}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_counted_kernel_records_its_counts(tracing, tmp_path):
    spec = tmp_path / "f2.json"
    spec.write_text(json.dumps(F2_SPEC))
    jobs = [
        ("graph-analyze", "--gen", "grid:3,3"),  # distance matrix, both exact scans
        ("graph-analyze", "--gen", "grid:25,25", "--samples", "5"),  # n > EXACT_CUTOFF
        ("find-cycles", "--gen", "grid:4,4", "--min-a", "1/2", "--min-n", "8"),
        ("group-ball", "--group", "F2", "--radius", "2"),
        ("group-ball", "--group", "F2", "--radius", "2", "--counts-only"),  # bfs_growth_table
        ("threshold", "--group", "F2"),  # ball, entropy_estimate, threshold_p
        ("claim-check", "--spec", str(spec), "--lambda-radius", "2", "--radii", "1"),
        ("coupling-verify", "--spec", str(spec), "--radius", "1"),
    ]
    tracer = tracing.Tracer()
    originals = {(mod, fn): getattr(sys.modules[f"hypme.{mod}"], fn) for mod, fn, _, _ in tracing.TRACED}
    undo = tracing.install(tracer, cli)
    try:
        for i, argv in enumerate(jobs):
            tracer.job = argv[0]
            assert cli.dispatch([*argv, "--out", str(tmp_path / f"{i}.json")]) == 0, argv
    finally:
        tracing.uninstall(undo)
    for (mod, fn), original in originals.items():
        assert getattr(sys.modules[f"hypme.{mod}"], fn) is original
    counted = {f"{mod}.{fn}" for mod, fn, _, counts in tracing.TRACED if counts is not None}
    spans = [s for s in tracer.spans if s.name in counted]
    assert {s.name for s in spans} == counted
    assert all(s.counts for s in spans), [s.name for s in spans if not s.counts]
    # uncounted wrappers the group commands reach must still find their functions
    recorded = {s.name for s in tracer.spans}
    assert {"groups.bfs_growth_table", "groups.entropy_estimate", "rigidity.threshold_p"} <= recorded


def test_traced_pass_writes_the_plain_reports(tracing, tmp_path):
    """One job per subcommand, run in this process plain, under the tracer,
    then plain again: the benchmark's traced run checks the reports of an
    in-process pass against those of a subprocess pass, so the tracer must
    change no byte of any report."""
    golden_inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    f2, c3c4, embedding = (str(golden_inputs / name) for name in ("f2.json", "c3c4.json", "embedding.json"))
    jobs = [
        ("graph-analyze", "--gen", "grid:4,4"),
        ("find-cycles", "--gen", "grid:4,4", "--min-a", "1/2", "--min-n", "8"),
        ("check-obstruction", "--gen", "grid:4,4", "--embedding", embedding),
        ("group-ball", "--group", "C2*C3", "--radius", "4"),
        ("coupling-build", "--spec", c3c4),
        ("coupling-verify", "--spec", c3c4, "--radius", "2"),
        ("integrability", "--spec", f2),
        ("claim-check", "--spec", f2, "--lambda-radius", "2", "--radii", "1"),
        ("threshold", "--group", "C2*C3", "--ball-radius", "3"),
        ("conditions", "--group", "F2"),
    ]
    assert {argv[0] for argv in jobs} == set(tracing.SUBCOMMANDS)

    def reports():
        out = []
        for i, argv in enumerate(jobs):
            path = tmp_path / f"{i}.json"
            path.unlink(missing_ok=True)
            assert cli.dispatch([*argv, "--out", str(path)]) == 0, argv
            out.append(path.read_bytes())
        return out

    plain = reports()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, cli)
    try:
        traced = reports()
    finally:
        tracing.uninstall(undo)
    assert tracer.spans and traced == plain
    assert reports() == plain
