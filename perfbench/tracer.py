"""Per-layer tracing of the package, done entirely from the outside.

:meth:`Tracer.install` replaces public functions and methods of each
module (the layers) with wrappers, in every module of the package that
binds them, and :meth:`Tracer.uninstall` puts the originals back.  Two
kinds of wrapper exist:

* timed: records a span (id, parent, layer, function, thread, job, thread
  CPU start/end, wall start/end, a measured value) in memory;
* counted: only bumps a per-thread counter.  Used at the per-simplex and
  per-section boundaries, where timestamps would dominate the run.

Spans use each thread's CPU clock, so the enumeration workers that
``build_truncation`` starts are charged for their own work and a caller
waiting on them is not.  A span's *own* time is its CPU time minus that of
its wrapped children on the same thread; a worker's top span is parented,
across threads, to the span that submitted it.  Self time of a layer is
the sum of own times of its spans.  ``<layer>.<fn>_s`` metrics sum the own
times of the layer's spans whose outermost enclosing span of the same
layer is ``fn``; the leaf kernels ``rref`` and ``matmul`` are reported by
their own spans.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from math import comb
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

# (module, owner class or None, attribute, mode); mode is "timed" or "counted"
TARGETS = [
    ("cli", None, "main", "timed"),
    ("documents", None, "load_document", "timed"),
    ("documents", None, "space_from_dict", "timed"),
    ("documents", None, "space_to_dict", "timed"),
    ("documents", None, "save_document", "timed"),
    ("documents", None, "matrix_to_lists", "timed"),
    ("heights", None, "as_fraction", "counted"),
    ("heights", None, "validate_height", "timed"),
    ("heights", None, "subdivision_violations", "timed"),
    ("heights", None, "is_subdivided", "timed"),
    ("heights", None, "subdivision_number", "timed"),
    ("heights", None, "subdivision_witness", "timed"),
    ("heights", None, "fiber", "timed"),
    ("simplicial", "SimplicialSet", "face", "counted"),
    ("simplicial", "SimplicialSet", "degeneracy", "counted"),
    ("simplicial", "SimplicialSet", "simplices", "counted"),
    ("simplicial", "SimplicialSet", "validate", "timed"),
    ("simplicial", "SimplicialSet", "chain_data", "timed"),
    ("sections", None, "build_truncation", "timed"),
    ("sections", None, "enumerate_sections", "timed"),
    ("sections", None, "diagonal_chain_complex", "timed"),
    ("sections", None, "evaluate_chain", "counted"),
    ("sections", None, "section_face", "counted"),
    ("sections", None, "section_degeneracy", "counted"),
    ("sections", None, "is_degenerate", "counted"),
    ("linalg", "PrimeField", "rref", "timed"),
    ("linalg", "PrimeField", "matmul", "timed"),
    ("linalg", "PrimeField", "solve", "timed"),
    ("linalg", "PrimeField", "kernel", "timed"),
    ("linalg", "PrimeField", "image", "timed"),
    ("linalg", "PrimeField", "rank", "timed"),
    ("linalg", "Subquotient", "__init__", "timed"),
    ("linalg", "Subquotient", "coords", "timed"),
    ("linalg", "ChainComplex", "__init__", "timed"),
    ("linalg", "ChainComplex", "homology", "timed"),
    ("linalg", None, "induced_map", "timed"),
    ("linalg", None, "normalized_chains", "timed"),
    ("linalg", None, "balanced_lift", "timed"),
    ("spectral", None, "double_complex", "timed"),
    ("spectral", None, "total_complex", "timed"),
    ("spectral", None, "convergence_check", "timed"),
    ("spectral", "SpectralSequence", "__init__", "timed"),
    ("spectral", "SpectralSequence", "page", "timed"),
    ("spectral", "SpectralSequence", "entry", "counted"),
    ("reeb", None, "reeb_complex", "timed"),
    ("reeb", None, "reeb_graph", "timed"),
    ("reeb", None, "barcode_diagram", "timed"),
    ("reeb", None, "vertical_complex", "timed"),
    ("reeb", None, "horizontal_chain_map", "timed"),
]


def _cells(args, kwargs) -> int:
    return int(np.prod(np.shape(args[1])))


def _macs(args, kwargs) -> int:
    (m, k), n = np.shape(args[1]), np.shape(args[2])[1]
    return m * k * n


def _truncation(args, kwargs, result) -> tuple[int, int, int]:
    blocks = result.blocks.values()
    return len(blocks), sum(1 for b in blocks if not b), sum(len(b) for b in blocks)


def _total_dim_max(args, kwargs, result) -> int:
    return max(result.total_dim(n) for n in range(result.window + 2))


# values stored in a span: before the call from the arguments, or after it
# from the result
BEFORE = {"rref": _cells, "matmul": _macs}
AFTER = {
    "build_truncation": _truncation,
    "enumerate_sections": lambda a, k, r: len(r),
    "double_complex": _total_dim_max,
}

# span fields
ID, PARENT, LAYER, FUNC, THREAD, JOB, CPU0, CPU1, WALL0, WALL1, VALUE, ERROR = range(12)


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list[int] = []
        self.root_parent: int | None = None  # set in executor workers
        self.spans: list[list] = []
        self.counts: defaultdict = defaultdict(int)
        self.face_keys: set = set()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.job = 0
        self.distinct_faces = 0

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers -----------------------------------------------------------

    def _timed(self, layer: str, name: str, fn):
        attr = name.rsplit(".", 1)[-1]
        tracer, before, after = self, BEFORE.get(attr), AFTER.get(attr)

        def wrapper(*args, **kwargs):
            st = tracer._state()
            span = [next(tracer._ids), st.stack[-1] if st.stack else st.root_parent,
                    layer, name, st.ident, tracer.job, 0.0, 0.0, 0.0, 0.0,
                    before(args, kwargs) if before else None, None]
            st.stack.append(span[ID])
            span[WALL0], span[CPU0] = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[CPU1], span[WALL1] = time.thread_time(), time.perf_counter()
                st.stack.pop()
                st.spans.append(span)
            if after:
                span[VALUE] = after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, layer: str, name: str, fn):
        tracer, key = self, f"{layer}.{name}"
        if name == "SimplicialSet.face":
            def face(self_, ref, i):
                st = tracer._state()
                st.counts[key] += 1
                st.face_keys.add((ref, i))
                return fn(self_, ref, i)
            return face
        if name == "SimplicialSet.simplices":
            # the count a full pass yields, from the generator counts, so the
            # simplices themselves pass through no wrapper
            def simplices(self_, d):
                tracer._state().counts[key] += sum(
                    len(self_.generators(m)) * comb(d, m)
                    for m in range(min(d, self_.top_dim) + 1))
                return fn(self_, d)
            return simplices

        def wrapper(*args, **kwargs):
            tracer._state().counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _executor(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            """Parents each worker's spans to the span that submitted it."""

            def submit(self, fn, /, *args, **kwargs):
                st = tracer._state()
                parent = st.stack[-1] if st.stack else st.root_parent

                def run(*a, **k):
                    ws = tracer._state()
                    saved, ws.root_parent = ws.root_parent, parent
                    try:
                        return fn(*a, **k)
                    finally:
                        ws.root_parent = saved

                return super().submit(run, *args, **kwargs)

        return TracedExecutor

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self, package) -> None:
        """Wrap every target; ``package`` is the imported top-level package."""
        import importlib
        import sys

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for layer, owner_name, attr, mode in TARGETS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            make = self._timed if mode == "timed" else self._counted
            if owner_name is not None:
                owner = getattr(module, owner_name)
                wrapped = make(layer, f"{owner_name}.{attr}", owner.__dict__[attr])
                self._set(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = make(layer, attr, original)
            for m in modules:  # every binding, including ``from x import f``
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, binding, wrapped)
        executor = self._executor()
        for m in modules:
            if vars(m).get("ThreadPoolExecutor") is ThreadPoolExecutor:
                self._set(m, "ThreadPoolExecutor", executor)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def end_job(self) -> None:
        """Fold the per-job distinct (simplex, face index) pairs into the total."""
        keys: set = set()
        with self._lock:
            for st in self._states:
                keys |= st.face_keys
                st.face_keys = set()
        self.distinct_faces += len(keys)

    # -- results ------------------------------------------------------------

    def spans(self) -> list[list]:
        return sorted((s for st in self._states for s in st.spans), key=lambda s: s[ID])

    def counts(self) -> dict[str, int]:
        total: defaultdict = defaultdict(int)
        for st in self._states:
            for k, v in st.counts.items():
                total[k] += v
        return dict(total)

    def analyse(self) -> dict:
        """Self times per layer, per (layer, entry function) and per
        (layer, function), plus span counts, values and errors."""
        spans = self.spans()
        by_id = {s[ID]: s for s in spans}
        own = {s[ID]: s[CPU1] - s[CPU0] for s in spans}
        for s in spans:
            parent = by_id.get(s[PARENT])
            if parent is not None and parent[THREAD] == s[THREAD]:
                own[parent[ID]] -= s[CPU1] - s[CPU0]
        entry: dict[int, str] = {}

        def entry_of(s) -> str:
            chain = []
            while True:
                hit = entry.get(s[ID])
                if hit is not None:
                    break
                chain.append(s)
                parent = by_id.get(s[PARENT])
                if parent is None or parent[LAYER] != s[LAYER]:
                    hit = s[FUNC]
                    break
                s = parent
            for c in chain:
                entry[c[ID]] = hit
            return hit

        out = {
            "layer_self": defaultdict(float),
            "entry_self": defaultdict(float),
            "func_self": defaultdict(float),
            "calls": defaultdict(int),
            "values": defaultdict(list),
            "entry_values": defaultdict(list),
            "errors": defaultdict(int),
        }
        for s in spans:
            layer, func, e = s[LAYER], s[FUNC], entry_of(s)
            out["layer_self"][layer] += own[s[ID]]
            out["entry_self"][f"{layer}.{e}"] += own[s[ID]]
            out["func_self"][f"{layer}.{func}"] += own[s[ID]]
            out["calls"][f"{layer}.{func}"] += 1
            if s[VALUE] is not None:
                out["values"][f"{layer}.{func}"].append(s[VALUE])
                out["entry_values"][f"{layer}.{func}@{e}"].append(s[VALUE])
            if s[ERROR]:
                out["errors"][f"{layer}.{func}.{s[ERROR]}"] += 1
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for s in self.spans():
                fh.write(json.dumps(s) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics and each layer's share of all traced self time."""
    a, counts = tracer.analyse(), tracer.counts()
    entry, func, calls, values = a["entry_self"], a["func_self"], a["calls"], a["values"]
    truncations = values.get("sections.build_truncation", [])
    blocks = sum(t[0] for t in truncations)
    kept = sum(t[2] for t in truncations)
    enumerated_in_trunc = sum(a["entry_values"].get(
        "sections.enumerate_sections@build_truncation", []))
    face_calls = counts.get("simplicial.SimplicialSet.face", 0)
    metrics = {
        "sections.truncation_s": entry["sections.build_truncation"],
        "sections.blocks": blocks,
        "sections.empty_block_ratio": _ratio(sum(t[1] for t in truncations), blocks),
        "sections.kept_ratio": _ratio(kept, enumerated_in_trunc),
        "simplicial.simplices_yielded": counts.get("simplicial.SimplicialSet.simplices", 0),
        "linalg.rref_s": func["linalg.PrimeField.rref"],
        "linalg.rref_calls": calls["linalg.PrimeField.rref"],
        "linalg.rref_cells": sum(values.get("linalg.PrimeField.rref", [])),
        "linalg.matmul_s": func["linalg.PrimeField.matmul"],
        "linalg.matmul_macs": sum(values.get("linalg.PrimeField.matmul", [])),
        "linalg.solve_calls": calls["linalg.PrimeField.solve"],
        "spectral.page_s": entry["spectral.SpectralSequence.page"],
        "spectral.entries": counts.get("spectral.SpectralSequence.entry", 0),
        "spectral.total_dim_max": max(values.get("spectral.double_complex", [0])),
        "sections.diagonal_s": entry["sections.diagonal_chain_complex"],
        "sections.enumerate_calls": calls["sections.enumerate_sections"],
        "sections.sections_enumerated": sum(values.get("sections.enumerate_sections", [])),
        "sections.evaluate_chain_calls": counts.get("sections.evaluate_chain", 0),
        "sections.section_face_calls": counts.get("sections.section_face", 0),
        "sections.cap_exceeded":
            a["errors"]["sections.enumerate_sections.ResourceLimitError"],
        "simplicial.face_calls": face_calls,
        "simplicial.face_unique_ratio": _ratio(tracer.distinct_faces, face_calls),
        "reeb.reeb_complex_s": entry["reeb.reeb_complex"],
        "reeb.reeb_graph_s": entry["reeb.reeb_graph"],
        "reeb.barcode_s": entry["reeb.barcode_diagram"],
        "reeb.vertical_complex_calls": calls["reeb.vertical_complex"],
        "linalg.induced_map_calls": calls["linalg.induced_map"],
        "spectral.double_complex_s": entry["spectral.double_complex"],
        "spectral.convergence_s": entry["spectral.convergence_check"],
        "heights.self_s": a["layer_self"]["heights"],
        "documents.load_s": a["layer_self"]["documents"],
        "cli.self_s": a["layer_self"]["cli"],
    }
    total = sum(a["layer_self"].values())
    shares = {k: _ratio(v, total) for k, v in sorted(a["entry_self"].items(),
                                                      key=lambda kv: -kv[1])}
    shares.update({f"layer:{k}": _ratio(v, total) for k, v in a["layer_self"].items()})
    return metrics, shares
