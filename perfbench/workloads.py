"""The benchmark's workloads: which CLI jobs each runs, and why.

Each job is one `python -m hypme.cli <argv> --out <id>.json --seed <seed>`
run from the workload's working directory.  Jobs run in the order listed; a
job with `embedding_from` reads the embedding that an earlier job of the same
pass reported, as written to its `--embedding` file by the benchmark.

Layers (ROADMAP aim 1): L1 APSP in graphs, L2 kernels in hyperbolicity, L3
cycles, L4 groups, L5 coupling, L6 rational/rigidity, L7 the CLI itself with
interpreter start-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from inputs import SPECS, sparse_graph, write_edge_list


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    # 0 for success, 2 where the program must report a mathematical violation
    exit_code: int = 0
    embedding_from: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def out(self) -> str:
        return f"{self.id}.json"

    def opt(self, flag: str) -> str | None:
        """The value given for `flag` in argv, or None."""
        if flag not in self.argv:
            return None
        return self.argv[self.argv.index(flag) + 1]


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    # (file name, vertices, chords) of each seeded sparse graph it reads
    graphs: tuple[tuple[str, int, int], ...] = ()
    specs: tuple[str, ...] = ()

    def write_inputs(self, workdir: str, seed: int) -> None:
        for name, n, chords in self.graphs:
            write_edge_list(f"{workdir}/{name}", sparse_graph(n, chords, seed))
        for name in self.specs:
            with open(f"{workdir}/{name}", "w") as fh:
                json.dump(SPECS[name], fh)


def _obstruction(job_id: str, source: str, *host: str, delta: str | None = None) -> Job:
    argv = ("check-obstruction", *host, "--embedding", f"{source}.embedding.json")
    if delta is not None:
        argv += ("--delta", delta)
    return Job(job_id, argv, exit_code=2 if delta else 0, embedding_from=source)


WORKLOADS = {
    "graph-exact": Workload(
        graphs=(("sparse170.txt", 170, 85),),
        jobs=(
            Job("grid9", ("graph-analyze", "--gen", "grid:9,9")),
            Job("cycle100", ("graph-analyze", "--gen", "cycle:100")),
            Job("sparse170", ("graph-analyze", "--edges", "sparse170.txt")),
            # trees skip the L2 scans: an L2 change must not move this job
            Job("tree3-5", ("graph-analyze", "--gen", "tree:3,5")),
        ),
    ),
    "graph-large": Workload(
        graphs=(("sparse1600.txt", 1600, 800),),
        jobs=(
            # diameter 58: large geodesic sets make each sample costly
            Job("grid30", ("graph-analyze", "--gen", "grid:30,30", "--samples", "200")),
            # diameter about 15: APSP dominates, the samples are cheap
            Job("sparse1600", ("graph-analyze", "--edges", "sparse1600.txt", "--samples", "200")),
            Job("cycles-grid24", ("find-cycles", "--gen", "grid:24,24", "--min-a", "1/2", "--min-n", "40")),
        ),
    ),
    "cycles": Workload(
        jobs=(
            # auto mode goes exhaustive on n<=40 and spends the whole budget
            Job("cycles-grid6", ("find-cycles", "--gen", "grid:6,6", "--min-a", "1/2", "--min-n", "20")),
            Job("cycles-grid6-heur", (
                "find-cycles", "--gen", "grid:6,6", "--min-a", "1/2", "--min-n", "20", "--mode", "heuristic",
            )),
            Job("cycles-grid9", ("find-cycles", "--gen", "grid:9,9", "--min-a", "1/2", "--min-n", "32")),
            _obstruction("obstruct-grid6", "cycles-grid6", "--gen", "grid:6,6"),
            _obstruction("obstruct-grid6-heur", "cycles-grid6-heur", "--gen", "grid:6,6"),
            _obstruction("obstruct-grid9", "cycles-grid9", "--gen", "grid:9,9"),
            # the math-failure path: a delta too small for the embedding
            _obstruction("obstruct-grid9-small-delta", "cycles-grid9", delta="1/10"),
        ),
    ),
    "algebra": Workload(
        specs=("f2.json", "z2.json"),
        jobs=(
            Job("ball-f2", ("group-ball", "--group", "F2", "--radius", "6")),
            Job("ball-c2c3", ("group-ball", "--group", "C2*C3", "--radius", "12")),
            Job("ball-z2", ("group-ball", "--group", "Z^2", "--radius", "30", "--counts-only")),
            Job("coupling-build-f2", ("coupling-build", "--spec", "f2.json")),
            Job("integrability-f2", ("integrability", "--spec", "f2.json")),
            # check_b_identity is O(|B_Lambda|^2).  At --radius 4 it takes about
            # 7 s, half of this workload's pass, and would double the length of
            # a run; radius 3 keeps the check in the workload at 35k cases.
            Job("verify-f2-r3", ("coupling-verify", "--spec", "f2.json", "--radius", "3")),
            Job("claim-z2", ("claim-check", "--spec", "z2.json", "--lambda-radius", "3")),
            # 937-element ball: millions of pair checks for 64 evaluations
            Job("claim-f2", ("claim-check", "--spec", "f2.json", "--lambda-radius", "4")),
            # threshold and conditions run on F2 only: on C2*C3 and Z^2 they
            # were three more start-up-bound jobs, and a run of two passes
            # must stay short enough for the benchmark's time limit
            Job("threshold-f2", ("threshold", "--group", "F2")),
            Job("conditions-f2", ("conditions", "--group", "F2")),
        ),
    ),
}
