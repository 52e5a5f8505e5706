"""Golden reports: one small run per CLI subcommand, compared byte for byte.

Each case runs in a fresh directory holding copies of tests/golden/inputs,
with relative --out/--spec/--embedding names, because the configuration
echo records those paths.  A refactor that changes a report fails here.

To rewrite the golden files after an intended report change, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from hypme.cli import dispatch

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# case name -> (argv without --out, expected exit code); the report is <name>.json
CASES = {
    "graph-analyze": (["graph-analyze", "--gen", "grid:4,4"], 0),
    "graph-analyze-tree": (["graph-analyze", "--gen", "tree:2,3"], 0),
    # n = 625 > EXACT_CUTOFF: the sampled path (exact false, samples set)
    "graph-analyze-sampled": (["graph-analyze", "--gen", "grid:25,25", "--samples", "50"], 0),
    "find-cycles": (["find-cycles", "--gen", "grid:4,4", "--min-a", "1/2", "--min-n", "8"], 0),
    "find-cycles-tree": (["find-cycles", "--gen", "tree:2,3", "--min-a", "1/2", "--min-n", "4"], 0),
    # the heuristic search's not_found report: no embedding, nodes_used only
    "find-cycles-not-found": (
        ["find-cycles", "--gen", "grid:6,6", "--min-a", "2/3", "--min-n", "8", "--mode", "heuristic"], 0,
    ),
    # every vertex is eccentric, so no corner tour: pins the far-pair order
    "find-cycles-cycle100": (["find-cycles", "--gen", "cycle:100", "--min-a", "1/2", "--min-n", "60"], 0),
    "check-obstruction": (["check-obstruction", "--gen", "grid:4,4", "--embedding", "embedding.json"], 0),
    "check-obstruction-delta": (["check-obstruction", "--embedding", "embedding.json", "--delta", "1/10"], 0),
    "group-ball": (["group-ball", "--group", "C2*C3", "--radius", "4"], 0),
    "group-ball-c3xc4": (["group-ball", "--group", "C3xC4", "--radius", "6"], 0),
    "group-ball-counts": (
        ["group-ball", "--group", "Z^2", "--radius", "5", "--counts-only", "--csv", "group-ball-counts.csv"], 0,
    ),
    "group-ball-counts-c3xc4": (["group-ball", "--group", "C3xC4", "--radius", "6", "--counts-only"], 0),
    "coupling-build": (["coupling-build", "--spec", "f2.json"], 0),
    "coupling-build-c2c3": (["coupling-build", "--spec", "c2c3.json"], 0),
    "coupling-build-c3xc4": (["coupling-build", "--spec", "c3c4.json"], 0),
    # base point x_gamma = b lies outside X_lambda: pins the view off the identity
    "coupling-build-f2b": (["coupling-build", "--spec", "f2b.json"], 0),
    "coupling-verify": (["coupling-verify", "--spec", "f2.json", "--radius", "2"], 0),
    "coupling-verify-c3xc4": (["coupling-verify", "--spec", "c3c4.json", "--radius", "3"], 0),
    # base point x_gamma = b: pins beta's conjugation by g0
    "coupling-verify-f2b": (["coupling-verify", "--spec", "f2b.json", "--radius", "3"], 0),
    "integrability": (["integrability", "--spec", "f2.json", "--phi", "power:2", "--psi", "exp_power:1"], 0),
    "integrability-z2": (["integrability", "--spec", "z2.json"], 0),
    "claim-check": (["claim-check", "--spec", "z2.json", "--lambda-radius", "2"], 0),
    "claim-check-f2": (
        ["claim-check", "--spec", "f2.json", "--lambda-radius", "2", "--phi", "power:1,exp_power:1"], 0,
    ),
    "claim-check-f2b": (["claim-check", "--spec", "f2b.json", "--lambda-radius", "3"], 0),
    "threshold": (["threshold", "--group", "F2", "--ball-radius", "3"], 0),
    "threshold-c2c3": (["threshold", "--group", "C2*C3", "--ball-radius", "4"], 0),
    "conditions": (["conditions", "--group", "F2"], 0),
    "conditions-z2": (
        ["conditions", "--group", "Z^2", "--phi", "poly_plus:2", "--psi", "exp_power:1", "--r", "pow:1/2"], 0,
    ),
    # an exp_power psi under a log schedule has no analytic (6) verdict: the samples decide
    "conditions-6-fails": (["conditions", "--group", "F2", "--psi", "exp_power:1", "--check", "6"], 0),
    "conditions-6-holds": (
        ["conditions", "--group", "F2", "--psi", "exp_power:2", "--r", "log:2000", "--check", "6"], 0,
    ),
}


def outputs(name: str, argv: list[str]) -> list[str]:
    files = [f"{name}.json"]
    if "--csv" in argv:
        files.append(argv[argv.index("--csv") + 1])
    return files


def run_case(name: str, workdir: Path) -> int:
    """Run one case with `workdir` as the working directory; returns the exit code."""
    for src in INPUTS.iterdir():
        shutil.copy(src, workdir / src.name)
    argv, _ = CASES[name]
    here = os.getcwd()
    os.chdir(workdir)
    try:
        return dispatch(argv + ["--out", f"{name}.json"])
    finally:
        os.chdir(here)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("HYPME_BUDGET", raising=False)
    argv, code = CASES[name]
    assert run_case(name, tmp_path) == code
    for fname in outputs(name, argv):
        assert (tmp_path / fname).read_bytes() == (GOLDEN / fname).read_bytes(), fname


def regenerate() -> None:
    os.environ.pop("HYPME_BUDGET", None)
    for name, (argv, code) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(name, Path(tmp))
            if got != code:
                raise SystemExit(f"{name}: exit {got}, expected {code}")
            for fname in outputs(name, argv):
                shutil.copy(Path(tmp) / fname, GOLDEN / fname)


if __name__ == "__main__":
    sys.exit(regenerate())
