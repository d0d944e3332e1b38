"""Closed-loop benchmark of the ``secplex`` command line.

    python3 perfbench/run.py --workload reeb-tall --seed 1 --seconds 30 --trace 0

One client calls ``secplex.cli.main(argv)`` in-process with no think time,
capturing stdout, for ``--seconds`` seconds.  Each job loads a freshly
generated document from disk, so the per-document caches start cold while
process-wide caches stay warm, as in a long-running service.  Every job
runs with ``--threads`` equal to the CPUs this process may use.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the same loop runs under :mod:`tracer` and the line
carries the per-layer metrics.  Run from the root of a checkout: the
package is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# A percentile leaving at least ten jobs beyond it in a run of the seed
# commit, also when the host runs a quarter slower; recorded per workload
# in BENCHMARK.json.
TAIL_PERCENTILE = {"reeb-tall": 85, "spectral-wide": 85, "diag-check": 97}
SETUP_REPEATS = 5


def run_job(main, job: workloads.Job) -> tuple[float, str, str]:
    """Run one job; returns (latency, outcome, detail).  The outcome is
    ``ok``, ``exit`` (nonzero status), ``raised`` or ``mismatch``."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(job.argv)
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - t0, "raised", f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if code != 0:
        return latency, "exit", f"status {code}: {err.getvalue().strip()[:200]}"
    problem = job.check(out.getvalue())
    if problem is not None:
        return latency, "mismatch", problem
    return latency, "ok", ""


def closed_loop(main, jobs, seconds: float | None = None, count: int | None = None,
                after_job=None) -> tuple[list[tuple], float]:
    """Run jobs back to back, wrapping around the list, until ``seconds``
    have passed (the job in flight finishes) or ``count`` jobs ran.
    Returns (job, latency, outcome, detail) records and the wall time."""
    records = []
    start = time.perf_counter()
    while True:
        job = jobs[len(records) % len(jobs)]
        records.append((job, *run_job(main, job)))
        if after_job is not None:
            after_job()
        if count is not None and len(records) >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return records, time.perf_counter() - start


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:  # a run of one job still reports
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarize(records, wall: float) -> dict:
    failed = [r for r in records if r[2] != "ok"]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "mismatched": sum(1 for r in records if r[2] == "mismatch"),
        "ok": len(records) - len(failed),
        "latencies": [r[1] for r in records],
        "kinds": [(r[0].kind, r[1]) for r in records],
        "wall": wall,
        "failures": [(r[0].kind, r[2], r[3]) for r in failed],
    }


def report(lines: list[str], result: dict) -> None:
    for line in lines:
        print(line)
    print(json.dumps(result))


def setup(workload: str, seed: int, work: Path, threads: int):
    """Import the package, then generate the documents and run the warm-up
    jobs ``SETUP_REPEATS`` times; returns (cli.main, jobs, setup seconds):
    the import plus the median round.  Later rounds overwrite the files of
    the first: creating hundreds of files costs a tenfold varying share of
    a round on some disks, rewriting them a steady one."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from secplex import cli

    import_s = time.perf_counter() - t0
    shutil.rmtree(work, ignore_errors=True)
    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = workloads.build(workload, seed, work / "docs", threads, ROOT / "data")
        warm = workloads.build(workload, seed, work / "warm", threads, ROOT / "data",
                               small=True)
        for job in warm:
            run_job(cli.main, job)
        reps.append(time.perf_counter() - t0)
    return cli.main, jobs, import_s + statistics.median(reps)


def describe(workload: str, summary: dict, threads: int, extra: str = "") -> list[str]:
    kinds: dict[str, list[int]] = {}
    lines = [f"workload {workload}: {summary['attempted']} jobs in "
             f"{summary['wall']:.2f} s, --threads {threads}, "
             f"failed {summary['failed']} "
             f"(failed_job_ratio {summary['failed'] / summary['attempted']:.4f}){extra}"]
    for kind, outcome, detail in summary["failures"]:
        kinds.setdefault(f"{kind} {outcome}", [0])[0] += 1
        if outcome == "mismatch":
            lines.append(f"  mismatch in {kind}: {detail}")
    lines += [f"  failed {k}: {v[0]}" for k, v in sorted(kinds.items())]
    by_kind: dict[str, list[float]] = {}
    for kind, latency in summary["kinds"]:
        by_kind.setdefault(kind, []).append(latency)
    lines += [f"  {k}: {len(v)} jobs, median {statistics.median(v):.3f} s, max {max(v):.3f} s"
              for k, v in sorted(by_kind.items())]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "secplex" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli_main, jobs, setup_s = setup(args.workload, args.seed, work, threads)
        if args.trace:
            return traced(args, cli_main, jobs, threads, work)
        records, wall = closed_loop(cli_main, jobs, seconds=args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    s = summarize(records, wall)
    pct = TAIL_PERCENTILE[args.workload]
    tail = percentile(s["latencies"], pct)
    beyond = sum(1 for x in s["latencies"] if x > tail)
    report(
        describe(args.workload, s, threads, f", job_tail_s is p{pct} with {beyond} beyond"),
        result(s, end_to_end_metrics(s, setup_s, args.workload)),
    )
    return 0


def end_to_end_metrics(s: dict, setup_s: float, workload: str) -> dict[str, tuple]:
    return {
        "job_p50_s": (statistics.median(s["latencies"]), "s"),
        "job_tail_s": (percentile(s["latencies"], TAIL_PERCENTILE[workload]), "s"),
        "jobs_per_s": (s["ok"] / s["wall"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def layer_units(metrics: dict[str, float]) -> dict[str, tuple]:
    units = {"_s": "s", "_ratio": "ratio"}
    return {k: (v, next((u for suffix, u in units.items() if k.endswith(suffix)), "count"))
            for k, v in metrics.items()}


def result(s: dict, metrics: dict[str, tuple], probe_ok: bool = True) -> dict:
    """The final JSON line.  ``correct`` is false when any job printed
    output that differs from its reference, or the cap probe ended in
    neither its reference output nor the cap error."""
    return {
        "correct": s["mismatched"] == 0 and probe_ok,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_cap_probe(args, threads: int, work: Path) -> tuple[int, str | None]:
    """Run the diag-check cap probe once under a tracer of its own, apart
    from the job loop; returns the ResourceLimitError count the tracer saw
    and the probe's outcome (None when it is unacceptable)."""
    import secplex
    import secplex.cli

    from tracer import Tracer, layer_metrics

    probe = workloads.cap_probe(args.seed, work / "probe", threads)
    tracer = Tracer()
    tracer.install(secplex)
    try:
        latency, outcome, detail = run_job(secplex.cli.main, probe)
        tracer.end_job()
    finally:
        tracer.uninstall()
    accepted = workloads.cap_probe_outcome(outcome, detail)
    print(f"  cap probe: {outcome} in {latency:.2f} s traced"
          + ("" if accepted else f" (unexpected: {detail})"))
    return layer_metrics(tracer)[0]["sections.cap_exceeded"], accepted


def traced(args, cli_main, jobs, threads: int, work: Path) -> int:
    """Half the time traced, then the same jobs again untraced for the
    overhead ratio.  On diag-check the cap probe runs last, and its
    ResourceLimitError count is added to ``sections.cap_exceeded``."""
    import secplex
    import secplex.cli

    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install(secplex)
    traced_main = secplex.cli.main

    def next_job():
        tracer.end_job()
        tracer.job += 1

    try:
        records, traced_wall = closed_loop(traced_main, jobs, seconds=args.seconds / 2,
                                           after_job=next_job)
    finally:
        tracer.uninstall()
    replay, plain_wall = closed_loop(cli_main, jobs, count=len(records))
    metrics, shares = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    probe_ok = True
    if args.workload == "diag-check":
        exceeded, accepted = run_cap_probe(args, threads, work)
        metrics["sections.cap_exceeded"] += exceeded
        probe_ok = accepted is not None
    tracer.write(ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.jsonl",
                 {"workload": args.workload, "seed": args.seed, "threads": threads,
                  "jobs": len(records), "shares": shares})
    s = summarize(records + replay, traced_wall + plain_wall)
    lines = describe(args.workload, s, threads)
    lines += [f"  share {k}: {v:.3f}" for k, v in shares.items() if v >= 0.01]
    report(lines, result(s, layer_units(metrics), probe_ok))
    return 0


if __name__ == "__main__":
    sys.exit(main())
