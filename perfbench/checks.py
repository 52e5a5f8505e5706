"""The report checker.

Every report is checked with the benchmark's own distances and closed forms
(see inputs.py), never by calling hypme.  A job that did not deliver its
result (a crash, a wrong exit code, an exhausted budget) raises Failed; a
report that states something false raises Wrong, which also counts as failed
and makes the run incorrect.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from inputs import SPECS, Host, ball_volumes, generator_edges, read_edge_list, subgroup_ball_size


class Failed(Exception):
    """The job did not deliver its result."""


class Wrong(Failed):
    """The report states something false."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


def thin_value(d: np.ndarray, triple, x: int) -> int:
    """d(x, G(a,c) u G(b,c)) for x on a geodesic from a to b."""
    a, b, c = triple
    _expect(d[a, x] + d[x, b] == d[a, b], "thin-triangle witness vertex is not on G(a,b)")
    union = (d[a] + d[c] == d[a, c]) | (d[b] + d[c] == d[b, c])
    return int(d[x, union].min())


def four_point_value(d: np.ndarray, quad) -> Fraction:
    x, y, z, w = quad
    sums = sorted([int(d[x, y] + d[z, w]), int(d[x, z] + d[y, w]), int(d[x, w] + d[y, z])])
    return Fraction(sums[2] - sums[1], 2)


def cycle_constants(d: np.ndarray, images) -> tuple[Fraction, Fraction]:
    """Tight (a, b): min and max of d_host / d_cycle over image pairs."""
    n = len(images)
    i, j = np.triu_indices(n, 1)
    host = d[np.asarray(images)[i], np.asarray(images)[j]]
    cyc = np.minimum(j - i, n - (j - i))
    ratios = {Fraction(int(h), int(c)) for h, c in np.unique(np.stack([host, cyc], 1), axis=0)}
    return min(ratios), max(ratios)


class Checker:
    """Checks the reports of one workload's jobs, run from `workdir`."""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self._hosts: dict[str, Host] = {}

    def host(self, job) -> Host:
        key = job.opt("--gen") or job.opt("--edges")
        if key not in self._hosts:
            if job.opt("--gen"):
                edges = generator_edges(key)
            else:
                edges = read_edge_list(f"{self.workdir}/{key}")
            self._hosts[key] = Host(edges)
        return self._hosts[key]

    def check(self, job, exit_code: int, text: str | None) -> None:
        if text is None:
            raise Failed(f"exit {exit_code} without a report")
        try:
            doc = json.loads(text)
            config = doc["config"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise Wrong(f"not a report: {exc!r}") from None
        try:
            _expect(
                config["command"] == job.command and config["out"] == job.out and config["seed"] == self.seed,
                "config echo does not match the invocation",
            )
            CHECKS[job.command](self, job, doc["report"], config)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise Wrong(f"malformed report: {exc!r}") from None
        if exit_code != job.exit_code:
            raise Failed(f"exit {exit_code}, expected {job.exit_code}")

    def graph_analyze(self, job, r, config) -> None:
        h = self.host(job)
        _expect(r["n"] == h.n and r["m"] == h.m, "n or m differs from the input graph")
        _expect(r["diameter"] == int(h.d.max()), "diameter differs from BFS")
        thin, four = Fraction(r["delta_thin"]), Fraction(r["delta_four_point"])
        w = r["witness"]
        _expect(thin_value(h.d, w["thin_triple"], w["thin_vertex"]) == thin, "thin witness does not reproduce delta_thin")
        _expect(four_point_value(h.d, w["four_point"]) == four, "four-point witness does not reproduce delta_four_point")
        if h.is_tree:
            _expect(thin == 0 and four == 0, "a tree must report delta 0")
        samples = job.opt("--samples")
        if samples is None:
            _expect(r["exact"] is True, "expected exact constants")
        else:
            _expect(r["exact"] is False and r["samples"] == int(samples), "expected a sampled lower bound")

    def find_cycles(self, job, r, config) -> None:
        if r["outcome"] != "found":
            raise Failed(f"outcome {r['outcome']} after {r['nodes_used']} nodes")
        e = r["embedding"]
        images = e["images"]
        n = len(images)
        d = self.host(job).d
        _expect(e["n"] == n and n >= int(job.opt("--min-n")), "cycle shorter than --min-n")
        _expect(all(0 <= v < len(d) for v in images), "image vertex out of range")
        steps = d[np.asarray(images), np.roll(np.asarray(images), -1)]
        _expect(bool(np.all(steps == 1)), "consecutive images are not adjacent")
        a, b = cycle_constants(d, images)
        _expect(Fraction(e["a"]) == a and Fraction(e["b"]) == b, f"constants differ from recomputed a={a}, b={b}")
        _expect(a >= Fraction(job.opt("--min-a")), "a below --min-a")

    def check_obstruction(self, job, r, config) -> None:
        with open(f"{self.workdir}/{job.opt('--embedding')}") as fh:
            emb = json.load(fh)
        expected = "violation" if job.exit_code == 2 else "consistent"
        _expect(r["verdict"] == expected, f"verdict {r['verdict']}, expected {expected}")
        a = Fraction(r["a"])
        _expect(
            r["n"] == emb["n"] and a == Fraction(emb["a"]) and Fraction(r["b"]) == Fraction(emb["b"]),
            "constants differ from the embedding",
        )
        bound = Fraction(r["bound_prop"])
        _expect((a > bound) == (r["verdict"] == "violation"), "verdict contradicts a vs bound")
        delta = Fraction(r["delta"])
        if job.opt("--delta"):
            _expect(delta == Fraction(job.opt("--delta")), "delta differs from --delta")
        else:
            _expect(r["delta_source"] == "thin_triangle_plus_slack_2", "delta not certified from the host")
            thin = self.host(job).thin_delta
            _expect(delta == thin + 2, f"certified delta {delta}, expected thin delta {thin} + 2")
        # (4*delta*log2(b*n) + 4 + 2*b) / n at the even length n, with b at least 1;
        # the program rounds log2 up at 2**-32, so a float agrees to far below 1e-9
        n_even, b = 2 * (emb["n"] // 2), max(Fraction(emb["b"]), Fraction(1))
        expected = (4 * float(delta) * math.log2(b * n_even) + 4 + 2 * float(b)) / n_even
        _expect(math.isclose(float(bound), expected, rel_tol=1e-9), f"bound_prop {float(bound)}, expected {expected}")

    def coupling_verify(self, job, r, config) -> None:
        names = {c["check"] for c in r["checks"]}
        _expect(
            {"cocycle_identity", "b_identity", "actions_commute", "fundamental_domains"} <= names,
            "a coupling check is missing",
        )
        for c in r["checks"]:
            _expect(c["passed"] is True and c["violations"] == 0 and c["cases"] > 0, f"{c['check']} did not pass")

    def claim_check(self, job, r, config) -> None:
        size = subgroup_ball_size(SPECS[job.opt("--spec")], int(job.opt("--lambda-radius")))
        _expect(r["passed"] is True and not r["failures"], "claim sweep reports failures")
        _expect(r["ball_size"] == size, f"ball size {r['ball_size']}, expected {size}")
        expected = size * (size - 1) * len(config["radii"].split(",")) * len(config["phi"].split(","))
        _expect(r["pair_checks"] == expected, f"pair_checks {r['pair_checks']}, expected {expected}")

    def threshold(self, job, r, config) -> None:
        p = 108 * Fraction(r["delta"]) * Fraction(r["entropy"]) + 2
        _expect(Fraction(r["p_threshold"]) == p, "p_threshold != 108*delta*entropy + 2")
        _expect(r["provenance"]["group"] == job.opt("--group"), "threshold for another group")

    def group_ball(self, job, r, config) -> None:
        volumes = ball_volumes(job.opt("--group"), int(job.opt("--radius")))
        _expect(r["growth"] == volumes, "growth differs from the closed form")
        if "--counts-only" not in job.argv:
            _expect(r["n"] == volumes[-1] and len(r["labels"]) == r["n"], "ball size differs from its growth")

    def coupling_build(self, job, r, config) -> None:
        spec = SPECS[job.opt("--spec")]
        _expect(r["subgroup_generators"] == spec["subgroup_generators"], "subgroup generators differ from the spec")
        _expect(r["index"] == len(r["transversal"]), "index differs from the transversal size")

    def integrability(self, job, r, config) -> None:
        _expect(r["exact"] is True, "power weights must give exact constants")
        _expect(Fraction(r["K"]) > 0 and Fraction(r["L"]) > 0, "K and L must be positive")

    def conditions(self, job, r, config) -> None:
        verdicts = {"tends_to_zero", "fails", "holds_eventually", "inconclusive"}
        _expect([c["condition"] for c in r["conditions"]] == ["(5)", "(6)", "(7)"], "a condition is missing")
        _expect(all(c["verdict"] in verdicts for c in r["conditions"]), "unknown verdict")


CHECKS = {
    "graph-analyze": Checker.graph_analyze,
    "find-cycles": Checker.find_cycles,
    "check-obstruction": Checker.check_obstruction,
    "coupling-verify": Checker.coupling_verify,
    "claim-check": Checker.claim_check,
    "threshold": Checker.threshold,
    "group-ball": Checker.group_ball,
    "coupling-build": Checker.coupling_build,
    "integrability": Checker.integrability,
    "conditions": Checker.conditions,
}


def _bump(value: str) -> str:
    return str(Fraction(value) + 1)


def _repeat_first_image(r):
    r["embedding"]["images"][1] = r["embedding"]["images"][0]


# One falsified report per subcommand family whose content the checker can
# refute; each must be caught as Wrong, or the checker passes too much.
TAMPER = {
    "graph-analyze": lambda r: r.update(delta_thin=_bump(r["delta_thin"])),
    "find-cycles": _repeat_first_image,
    "check-obstruction": lambda r: r.update(verdict={"consistent": "violation"}.get(r["verdict"], "consistent")),
    "coupling-verify": lambda r: r["checks"][0].update(violations=1),
    "claim-check": lambda r: r.update(pair_checks=r["pair_checks"] + 1),
    "threshold": lambda r: r.update(p_threshold=_bump(r["p_threshold"])),
    "group-ball": lambda r: r["growth"].__setitem__(-1, r["growth"][-1] + 1),
}


def self_test(checker: Checker, verified: dict) -> list[str]:
    """Feed the checker one tampered copy of a verified report per family.

    `verified` maps each job to the text of a report that passed.  Returns the
    families tested; raises RuntimeError if a tampered report is accepted.
    """
    tested = []
    for job, text in verified.items():
        if job.command not in TAMPER or job.command in tested:
            continue
        doc = json.loads(text)
        TAMPER[job.command](doc["report"])
        try:
            checker.check(job, job.exit_code, json.dumps(doc))
        except Wrong:
            tested.append(job.command)
            continue
        raise RuntimeError(f"checker accepted a tampered {job.command} report ({job.id})")
    return tested
