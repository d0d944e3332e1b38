"""The three job mixes, each generated from a seed.

A job is one command-line invocation of the package on one document
written to disk, together with the reference it must reproduce.  Every
mix interleaves input sizes in seeded blocks of a fixed composition, so
any stretch of a run sees about the same mix whatever the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import reference

WORKLOADS = ("reeb-tall", "spectral-wide", "diag-check")

# reeb-tall: small circumference, many levels -> O(levels^2) mostly empty
# blocks in the truncation.
TALL_SIZES = [(3, 8), (4, 7)]  # (circumference, levels)
TALL_DEGREE = "2"

# spectral-wide: large circumference over 2-3 levels -> total dimensions in
# the hundreds, dense elimination dominates.
WIDE_SIZES = [(36, 2), (26, 3)]
WIDE_DEGREE = "1"
WIDE_FIELDS = (2, 32003)

# diag-check: small gluings over levels 0, 1, 2.  A strict gluing has one
# triangle spanning all three levels; in a subdivided one no edge skips a
# level.  Jobs run at --max-degree 1, where the diagonal goes to
# (2,2)-sections and a job takes tens of milliseconds; at the default
# window ((3,3)-sections) their cost spreads tenfold and a run would hold
# too few of them to be steady.  The bundled documents come first, then
# light gluings of 1-4 triangles, a third subdivided, in rounds of a fixed
# mix.  No job of the mix fails.  The candidate cap is exercised apart
# from it by the cap probe: two unglued flat triangles (one height) at one
# level, at the default window, whose constant height words exceed the
# default 10^6 candidate cap.
SUBDIVIDED_PATTERNS = [(0, 0, 1), (0, 1, 1), (1, 1, 2), (1, 2, 2)]
FLAT_PATTERNS = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
LIGHT_ROUND = ([("strict", n) for n in (1, 2, 3, 4, 1, 2, 3, 4)]
               + [("subdivided", n) for n in (1, 2, 3, 4)])
DIAG_DEGREE = 1
DEFAULT_DEGREE = 2  # diag-check certifies degrees 0..min(max-degree, 2)
DATA_DOCUMENTS = ("sphere.json", "sphere_subdivided.json", "cylinder.json")


@dataclass
class Job:
    argv: list[str]
    # returns a description of the first mismatch, or None when stdout is right
    check: Callable[[str], str | None]
    kind: str


def _exact(expected: str) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        if out == expected:
            return None
        got, want = out.splitlines(), expected.splitlines()
        for k, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return f"line {k + 1}: got {a!r}, expected {b!r}"
        return f"got {len(got)} lines, expected {len(want)}"

    return check


def _write(directory: Path, name: str, doc: dict) -> str:
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _blocks(rng: random.Random, items: list, count: int) -> list:
    """``count`` items drawn as consecutive seeded shuffles of ``items``."""
    out: list = []
    while len(out) < count:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def tall_jobs(rng: random.Random, directory: Path, docs: int, threads: int,
              sizes=TALL_SIZES) -> list[Job]:
    jobs = []
    common = ["--max-degree", TALL_DEGREE, "--threads", str(threads)]
    for k, (C, L) in enumerate(_blocks(rng, sizes, docs)):
        levels = gen.tube_levels(rng, L)
        path = _write(directory, f"tall{k}", gen.tube(C, levels, f"tall{k}"))
        q = k // 2 % 2
        jobs += [
            Job(["reeb-graph", path, *common], _exact(reference.tube_reeb_graph(levels)),
                "reeb-graph"),
            Job(["barcode", path, *common],
                _exact(reference.tube_barcode(levels, int(TALL_DEGREE) - 1)), "barcode"),
            Job(["reeb", path, "--q", str(q), *common],
                _exact(reference.tube_reeb(levels, q)), f"reeb-q{q}"),
            Job(["ss", path, "--page", "2", *common],
                _exact(reference.tube_page_text(L, 2, int(TALL_DEGREE), 2)), "ss-2"),
        ]
    return jobs


def wide_jobs(rng: random.Random, directory: Path, docs: int, threads: int,
              sizes=WIDE_SIZES) -> list[Job]:
    jobs = []
    window = int(WIDE_DEGREE)
    for k, (C, L) in enumerate(_blocks(rng, sizes, docs)):
        field = WIDE_FIELDS[k // 2 % 2]
        levels = gen.tube_levels(rng, L)
        path = _write(directory, f"wide{k}", gen.tube(C, levels, f"wide{k}"))
        common = ["--max-degree", WIDE_DEGREE, "--field", str(field),
                  "--threads", str(threads)]

        def page_json(out: str, L=L, field=field) -> str | None:
            return reference.tube_page_json_problem(out, L, 1, window, field)

        jobs += [
            Job(["ss", path, "--page", "1", "--json", *common], page_json, "ss-1-json"),
            Job(["ss", path, "--page", "2", *common],
                _exact(reference.tube_page_text(L, 2, window, field)), "ss-2"),
            Job(["homology", path, *common],
                _exact(reference.homology_text([1, 1])), "homology"),
        ]
    return jobs


def _diag_job(path: str, doc: dict, threads: int, kind: str,
              degree: int = DIAG_DEGREE) -> Job:
    betti = reference.betti_numbers(doc, 2, degree)
    window = [] if degree == DEFAULT_DEGREE else ["--max-degree", str(degree)]
    return Job(["diag-check", path, *window, "--threads", str(threads)],
               _exact(reference.diag_check_text(betti)), kind)


def _glue(rng: random.Random, directory: Path, name: str, patterns, threads: int,
          kind: str) -> Job:
    doc = gen.gluing(rng, patterns, name)
    return _diag_job(_write(directory, name, doc), doc, threads, kind)


def _data_job(path: Path, threads: int) -> Job:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return _diag_job(str(path), doc, threads, "data")


CAP_MESSAGE = "exceeded the cap of"


def cap_probe(seed: int, directory: Path, threads: int) -> Job:
    """Two flat triangles at one level, none of their edges glued, checked
    at the default window.  At the seed commit the job exits with a
    resource error naming the cap; :func:`cap_probe_outcome` accepts that
    or the reference output."""
    rng = random.Random(f"cap-probe:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    pattern = rng.choice(FLAT_PATTERNS)
    while True:
        doc = gen.gluing(rng, [pattern, pattern], "two-flat")
        if len(doc["generators"][1]) == 6:
            path = _write(directory, "two-flat", doc)
            return _diag_job(path, doc, threads, "cap-probe", DEFAULT_DEGREE)


def cap_probe_outcome(outcome: str, detail: str) -> str | None:
    """``exceeded`` or ``ok`` for an acceptable probe, None otherwise."""
    if outcome == "ok":
        return "ok"
    if outcome == "exit" and CAP_MESSAGE in detail:
        return "exceeded"
    return None


def diag_jobs(rng: random.Random, directory: Path, rounds: int, threads: int,
              data_dir: Path) -> list[Job]:
    """The bundled documents, then rounds of light gluings in seeded order."""
    jobs = [_data_job(data_dir / name, threads) for name in DATA_DOCUMENTS]
    for r in range(rounds):
        light = []
        for k, (kind, n) in enumerate(LIGHT_ROUND):
            first = [(0, 1, 2)] if kind == "strict" else []
            patterns = first + [rng.choice(SUBDIVIDED_PATTERNS) for _ in range(n - len(first))]
            light.append(_glue(rng, directory, f"{kind}{r}.{k}", patterns, threads, kind))
        rng.shuffle(light)
        jobs += light
    return jobs


def small_diag_jobs(rng: random.Random, directory: Path, threads: int,
                    data_dir: Path) -> list[Job]:
    jobs = [_data_job(data_dir / DATA_DOCUMENTS[0], threads)]
    for k, pattern in enumerate([(0, 1, 2), (0, 0, 1)]):
        jobs.append(_glue(rng, directory, f"small{k}", [pattern], threads, "small"))
    return jobs


# Enough documents that a run at the seed commit never wraps around.
FULL_SIZE = {"reeb-tall": 60, "spectral-wide": 80, "diag-check": 70}


def build(workload: str, seed: int, directory: Path, threads: int, data_dir: Path,
          small: bool = False) -> list[Job]:
    """The job list of a workload.  ``small`` gives a handful of tiny jobs
    covering every command of the mix, for warm-up and self-checks."""
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "reeb-tall":
        if small:
            return tall_jobs(rng, directory, 2, threads, sizes=[(3, 3)])
        return tall_jobs(rng, directory, FULL_SIZE[workload], threads)
    if workload == "spectral-wide":
        if small:
            return wide_jobs(rng, directory, 2, threads, sizes=[(4, 2)])
        return wide_jobs(rng, directory, FULL_SIZE[workload], threads)
    if workload == "diag-check":
        if small:
            return small_diag_jobs(rng, directory, threads, data_dir)
        return diag_jobs(rng, directory, FULL_SIZE[workload], threads, data_dir)
    raise ValueError(f"unknown workload {workload!r}")
