"""Quick self-check of the benchmark itself (a few seconds).

    python3 perfbench/selfcheck.py

Runs the tiny job list of every workload and expects every job to pass
its reference; feeds a deliberately corrupted output and a failing job
through the same path and expects both to count as failed; runs the tiny
lists under the tracer and expects the originals back afterwards; runs
the diag-check cap probe at a small cap and expects the cap error, counted
by the tracer; and checks that the metric names and units the runner prints are exactly
those in BENCHMARK.json.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

import secplex  # noqa: E402
import secplex.cli  # noqa: E402
import secplex.sections  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = run.ROOT / ".perfbench_work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    original_main = secplex.cli.main
    original_truncation = secplex.sections.build_truncation
    try:
        expect(reference.betti_numbers(
            json.loads((run.ROOT / "data" / "cylinder.json").read_text()), 2, 2) == [1, 1, 0],
            "standalone rank routine gives the cylinder Betti numbers (1, 1, 0)")
        for name in workloads.WORKLOADS:
            jobs = workloads.build(name, 7, work / name, 2, run.ROOT / "data", small=True)
            again = workloads.build(name, 7, work / f"{name}-again", 2, run.ROOT / "data",
                                    small=True)
            expect([j.argv[2:] for j in jobs] == [j.argv[2:] for j in again]
                   and all(Path(a.argv[1]).read_bytes() == Path(b.argv[1]).read_bytes()
                           for a, b in zip(jobs, again)),
                   f"{name}: one seed gives the same documents")
            records, wall = run.closed_loop(original_main, jobs, count=len(jobs))
            s = run.summarize(records, wall)
            expect(s["failed"] == 0, f"{name}: {len(jobs)} tiny jobs match their references "
                   f"{s['failures']}")
            e2e = run.end_to_end_metrics(s, 0.5, name)
            expect({k: u for k, (_, u) in e2e.items()}
                   == {m["name"]: m["unit"] for m in spec["end_to_end"]},
                   f"{name}: end-to-end metrics and units match BENCHMARK.json")

            def corrupted(argv):
                code = original_main(argv)
                print("corrupted")
                return code

            records, wall = run.closed_loop(corrupted, jobs[:1], count=1)
            s = run.summarize(records, wall)
            expect(s["failed"] == 1 and not run.result(s, {})["correct"],
                   f"{name}: a corrupted output counts as failed and incorrect")
            broken = workloads.Job([jobs[0].argv[0], str(work / "missing.json")],
                                   jobs[0].check, "broken")
            records, wall = run.closed_loop(original_main, [broken], count=1)
            s = run.summarize(records, wall)
            expect(s["failed"] == 1 and records[0][2] == "exit",
                   f"{name}: a nonzero exit counts as failed")

            tracer = Tracer()
            tracer.install(secplex)
            try:
                traced_main = secplex.cli.main
                records, wall = run.closed_loop(traced_main, jobs, count=len(jobs),
                                                after_job=tracer.end_job)
            finally:
                tracer.uninstall()
            expect(secplex.cli.main is original_main
                   and secplex.sections.build_truncation is original_truncation
                   and secplex.cli.build_truncation is original_truncation,
                   f"{name}: uninstall restores every binding")
            expect(run.summarize(records, wall)["failed"] == 0,
                   f"{name}: traced jobs still match their references")
            metrics, _ = layer_metrics(tracer)
            metrics["trace.overhead_ratio"] = 1.0
            expect({k: u for k, (_, u) in run.layer_units(metrics).items()}
                   == {m["name"]: m["unit"] for m in spec["per_layer"]},
                   f"{name}: per-layer metrics and units match BENCHMARK.json")
            expect(metrics["cli.self_s"] > 0 and metrics["simplicial.face_calls"] > 0
                   and metrics["linalg.rref_calls"] > 0,
                   f"{name}: the tracer saw cli, simplicial and linalg work")
        probe = workloads.cap_probe(7, work / "probe", 2)
        probe.argv += ["--cap", "1000"]  # the same error as at 10^6, sooner
        tracer = Tracer()
        tracer.install(secplex)
        try:
            _, outcome, detail = run.run_job(secplex.cli.main, probe)
            tracer.end_job()
        finally:
            tracer.uninstall()
        expect(workloads.cap_probe_outcome(outcome, detail) == "exceeded"
               and layer_metrics(tracer)[0]["sections.cap_exceeded"] >= 1,
               "the cap probe ends in the cap error, and the tracer counts it")
        expect(workloads.cap_probe_outcome("mismatch", "line 1") is None
               and workloads.cap_probe_outcome("exit", "status 1: error: bad input") is None,
               "a cap probe ending otherwise is not accepted")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("PASS" if not failures else f"FAIL ({len(failures)} checks)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
