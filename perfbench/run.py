"""End-to-end benchmark of the hypme CLI.

Run from the repository root:

    python3 perfbench/run.py --workload cycles --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client in a closed loop: each job is a fresh `python -m hypme.cli`
process, started when the previous one has exited, so interpreter and import
start-up are paid on every job and no two jobs ever run at once.  A pass
runs every job of the workload once; passes repeat, at least two of them,
while the next is expected to end within --seconds.  Every report is checked
(checks.py) and must be byte-identical in every pass.

With --trace 0 the last line of stdout is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced in-process pass (tracing.py).  Inputs come from --seed alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# One BLAS/OpenMP thread, here and in every child (which inherit os.environ):
# the load never asks for more threads than the cores it runs on.  This must
# precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

from checks import Checker, Failed, Wrong, self_test  # noqa: E402
from workloads import WORKLOADS, Job, Workload  # noqa: E402

# Imports of hypme.cli taken in the first and the second pass, spread over
# their jobs, so that setup_s is a median of five samples taken across the
# run rather than in one burst.  The first import in a fresh checkout also
# compiles the bytecode; the median leaves that one sample out.
SETUP_PER_PASS = (3, 2)
JOB_TIMEOUT_S = 120
UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "job_s_p50": "s", "setup_s": "s"}
# The metrics of the JSON line.  job_s_p50 is printed but not among them: on
# start-up-bound workloads its run-to-run spread on a shared machine exceeds
# any bound the gate allows (see NOTES.md).
GATED = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


@dataclass
class JobRun:
    job: Job
    wall: float
    cpu: float
    rss_kb: int
    text: str | None
    error: str | None = None
    wrong: bool = False


@dataclass
class Pass:
    wall: float
    runs: list[JobRun]


class Subprocess:
    """Runs jobs as `python -m hypme.cli` in fresh interpreters.

    The children are started, timed and reaped by a launcher.py process, which
    stays small: Linux counts the pages a child shares with its parent at fork
    in the child's ru_maxrss.  close() ends the launcher and waits for it.
    """

    def __init__(self, src: str):
        self.env = dict(os.environ, PYTHONPATH=src)
        self.env.pop("HYPME_BUDGET", None)
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
        self.launcher = subprocess.Popen([sys.executable, script], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True)

    def run(self, argv, cwd: str, stderr: str) -> dict:
        request = {"argv": [sys.executable, *argv], "cwd": cwd, "env": self.env, "stderr": stderr,
                   "timeout": JOB_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended early")
        return json.loads(reply)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=JOB_TIMEOUT_S)

    def __call__(self, job: Job, argv, workdir: str):
        stderr = os.path.join(workdir, f"{job.id}.stderr")
        r = self.run(["-m", "hypme.cli", *argv], workdir, stderr)
        with open(stderr) as fh:
            lines = fh.read().strip().splitlines()
        return r["wall"], r["exit_code"], r["cpu"], r["maxrss_kb"], lines[-1] if lines else ""


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def run_pass(workload: Workload, execute, workdir: str, seed: int, checker: Checker, first: dict,
             setup: list | None = None, imports: int = 0) -> Pass:
    """Runs every job once; `first` maps job ids to the reports every pass must repeat.

    `imports` import times, taken evenly between the jobs, are appended to
    `setup`; the pass's wall time leaves them out.
    """
    runs = []
    jobs = workload.jobs
    imports_before = [k * len(jobs) // imports for k in range(imports)]
    paused = 0.0
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        for _ in range(imports_before.count(i)):
            t = time.perf_counter()
            setup.append(import_time(execute, workdir))
            paused += time.perf_counter() - t
        if job.embedding_from:
            source = _read(os.path.join(workdir, f"{job.embedding_from}.json"))
            embedding = json.loads(source).get("report", {}).get("embedding") if source else None
            with open(os.path.join(workdir, job.opt("--embedding")), "w") as fh:
                json.dump(embedding, fh)
        out = os.path.join(workdir, job.out)
        if os.path.exists(out):
            os.remove(out)
        wall, code, cpu, rss_kb, stderr_tail = execute(job, (*job.argv, "--out", job.out, "--seed", str(seed)), workdir)
        run = JobRun(job, wall, cpu, rss_kb, _read(out))
        try:
            checker.check(job, code, run.text)
        except Failed as exc:
            run.error, run.wrong = str(exc), isinstance(exc, Wrong)
            if stderr_tail:
                run.error += f" [{stderr_tail}]"
        if first.setdefault(job.id, run.text) != run.text:
            run.error, run.wrong = "report bytes differ from the first pass", True
        runs.append(run)
    return Pass(time.perf_counter() - t0 - paused, runs)


def import_time(execute: Subprocess, workdir: str) -> float:
    """Wall time of a fresh interpreter that only imports hypme.cli."""
    stderr = os.path.join(workdir, "setup.stderr")
    r = execute.run(["-c", "import hypme.cli"], workdir, stderr)
    if r["exit_code"] != 0:
        with open(stderr) as fh:
            sys.exit(f"cannot import hypme.cli: {fh.read().strip().splitlines()[-1:]}")
    return r["wall"]


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    jobs = [r.wall for p in passes for r in p.runs]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(sum(r.cpu for r in p.runs) for p in passes),
        "peak_rss_mb": statistics.median(max(r.rss_kb for r in p.runs) / 1024 for p in passes),
        "job_s_p50": statistics.median(jobs),
        "setup_s": statistics.median(setup),
    }


def reports_sha256(first: dict) -> str:
    h = hashlib.sha256()
    for job_id, text in first.items():
        h.update(f"{job_id}\0{text}\0".encode())
    return h.hexdigest()


def summarize(passes: list[Pass], first: dict) -> tuple[dict, list[str]]:
    runs = [r for p in passes for r in p.runs]
    failed = [r for r in runs if r.error]
    result = {"correct": not any(r.wrong for r in runs), "attempted": len(runs), "failed": len(failed)}
    lines = [
        f"  failed_share {len(failed) / len(runs):.4f} ({len(failed)}/{len(runs)} jobs)",
        f"  reports_sha256 {reports_sha256(first)}",
    ]
    for job_id in dict.fromkeys(r.job.id for r in failed):
        errors = [r.error for r in failed if r.job.id == job_id]
        lines.append(f"  FAILED {job_id} x{len(errors)}: {errors[0]}")
    return result, lines


def prepare(name: str, seed: int, root: str) -> tuple[Workload, str, Checker]:
    workload = WORKLOADS[name]
    workdir = os.path.join(root, ".perfbench", name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload.write_inputs(workdir, seed)
    checker = Checker(workdir, seed)
    for job in workload.jobs:  # reference facts are computed before any timing
        if job.opt("--gen") or job.opt("--edges"):
            host = checker.host(job)
            if job.command == "check-obstruction":
                _ = host.thin_delta
    return workload, workdir, checker


def run_untraced(name: str, seed: int, seconds: float, root: str, execute: Subprocess) -> tuple[dict, list[str]]:
    """At least two passes; a further one only if it is expected to end within `seconds` of the start."""
    start = time.perf_counter()
    workload, workdir, checker = prepare(name, seed, root)
    setup: list[float] = []
    first: dict = {}
    passes = [run_pass(workload, execute, workdir, seed, checker, first, setup, SETUP_PER_PASS[0])]
    families = self_test(checker, {r.job: r.text for r in passes[0].runs if not r.error})
    while len(passes) < 2 or time.perf_counter() - start + max(p.wall for p in passes) <= seconds:
        imports = SETUP_PER_PASS[len(passes)] if len(passes) < len(SETUP_PER_PASS) else 0
        passes.append(run_pass(workload, execute, workdir, seed, checker, first, setup, imports))
    metrics = end_to_end(passes, setup)
    result, lines = summarize(passes, first)
    n_jobs = sum(len(p.runs) for p in passes)
    samples = {"wall_s": len(passes), "cpu_s": len(passes), "peak_rss_mb": len(passes),
               "job_s_p50": n_jobs, "setup_s": len(setup)}
    head = [f"workload {name} seed {seed}: {len(passes)} passes of {len(workload.jobs)} jobs"]
    head += [f"  {k} {v:.4f} {UNITS[k]} (median of {samples[k]})" for k, v in metrics.items()]
    head += [f"  pass walls {' '.join(f'{p.wall:.3f}' for p in passes)} s; setup samples {' '.join(f'{t:.3f}' for t in setup)} s"]
    lines = head + lines + [f"  checker self-test rejected tampered {', '.join(families) or 'nothing'}"]
    result["metrics"] = {k: {"value": metrics[k], "unit": UNITS[k]} for k in GATED}
    return result, lines


def run_traced(name: str, seed: int, root: str, execute: Subprocess) -> tuple[dict, list[str]]:
    """An untraced subprocess pass, then in-process passes: a warm-up, a traced
    one, an untraced one and a last one that only measures memory."""
    import tracing

    src = os.path.join(root, "src")
    workload, workdir, checker = prepare(name, seed, root)
    first: dict = {}
    sub = run_pass(workload, execute, workdir, seed, checker, first)
    inproc = tracing.InProcess(src)
    # Untimed, so that the traced and the untraced pass both find warm caches.
    warm = run_pass(workload, inproc, workdir, seed, checker, first)
    inproc.tracer = tracer = tracing.Tracer()
    undo = tracing.install(tracer, inproc.cli)
    try:
        traced = run_pass(workload, inproc, workdir, seed, checker, first)
    finally:
        tracing.uninstall(undo)
        inproc.tracer = None
    plain = run_pass(workload, inproc, workdir, seed, checker, first)
    passes = [sub, warm, traced, plain]
    # tracemalloc slows every allocation, so the thin-triangle peak is taken in
    # a pass of its own, over the jobs that ran the scan, and its times are unused.
    scanned = {s.job for s in tracer.spans if s.counts.get("triples")}
    memory = tracing.PeakMemory()
    if scanned:
        undo = memory.install()
        try:
            jobs = tuple(job for job in workload.jobs if job.id in scanned)
            passes.append(run_pass(Workload(jobs), inproc, workdir, seed, checker, first))
        finally:
            tracing.uninstall(undo)
    tracer.write(os.path.join(workdir, "spans.jsonl"))
    values = tracing.layer_metrics(
        tracer, inproc.cli, traced.wall,
        jobs_s=sum(r.wall for r in sub.runs),
        dispatch_s=sum(r.wall for r in plain.runs),
        overhead_s=traced.wall - plain.wall,
        peak_bytes=memory.peak,
    )
    result, lines = summarize(passes, first)
    units = dict(tracing.METRICS)
    head = [f"workload {name} seed {seed}: traced pass, untraced wall {sub.wall:.4f} s"]
    head += [f"  {k} {v:.6g} {units[k]}" for k, v in values.items() if v]
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return result, head + lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hypme", "cli.py")):
        sys.exit("run from the repository root: src/hypme/cli.py not found")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    execute = Subprocess(os.path.join(root, "src"))
    try:
        for name in names:
            if args.trace:
                result, lines = run_traced(name, args.seed, root, execute)
            else:
                result, lines = run_untraced(name, args.seed, args.seconds, root, execute)
            print("\n".join(lines), flush=True)
            results[name] = result
    finally:
        execute.close()
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
