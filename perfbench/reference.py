"""Expected outputs, derived without the package under test.

Tubes (circle x interval, subdivided) have closed-form answers: Betti
numbers (1, 1, 0); one fiber circle per level; the sections over a word
are nonempty only for single levels and adjacent level pairs, each with
the homology of a circle.  Hence the Reeb graph is a path on the L
levels, page 1 has dimensions (0, q) = L and (1, q) = L - 1 with a rank
L - 1 differential, and page 2 is the homology of the circle.

Gluings get their Betti numbers from :func:`betti_numbers`, a standalone
Gaussian elimination over GF(p) on the generated face tables.
"""

from __future__ import annotations

import json
from fractions import Fraction


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) of an integer matrix given as a list of rows."""
    M = [[x % p for x in row] for row in rows]
    rank, cols = 0, len(M[0]) if M else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(M)) if M[r][c]), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        inv = pow(M[rank][c], p - 2, p)
        M[rank] = [x * inv % p for x in M[rank]]
        for r in range(len(M)):
            if r != rank and M[r][c]:
                f = M[r][c]
                M[r] = [(x - f * y) % p for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


def betti_numbers(doc: dict, p: int, top: int) -> list[int]:
    """Betti numbers through degree ``top`` of the normalized chains of a
    document: degenerate faces (nonempty words) are dropped."""
    cells = doc["generators"]
    ranks = [0] * (top + 2)  # ranks[n] = rank of the boundary C_n -> C_{n-1}
    for n in range(1, min(top + 1, len(cells) - 1) + 1):
        below = {name: i for i, name in enumerate(cells[n - 1])}
        rows = [[0] * len(cells[n]) for _ in below]
        for k, name in enumerate(cells[n]):
            for i, (word, target) in enumerate(doc["faces"][name]):
                if not word:
                    rows[below[target]][k] += -1 if i % 2 else 1
        ranks[n] = rank_mod_p(rows, p) if rows and cells[n] else 0
    dims = [len(cells[n]) if n < len(cells) else 0 for n in range(top + 1)]
    return [dims[n] - ranks[n] - ranks[n + 1] for n in range(top + 1)]


# -- tubes ------------------------------------------------------------------


def _pairs(levels: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    return list(zip(levels, levels[1:]))


def tube_reeb_graph(levels: list[Fraction]) -> str:
    lines = ["digraph reeb {", "  rankdir=BT;"]
    lines += [f'  v{i} [label="{a}:0"];' for i, a in enumerate(levels)]
    lines += [
        f'  v{i} -> v{i + 1} [label="{a}-{b}#0"];'
        for i, (a, b) in enumerate(_pairs(levels))
    ]
    lines += ["}", "// components: 1, independent cycles: 0"]
    return "\n".join(lines) + "\n"


def tube_barcode(levels: list[Fraction], max_q: int) -> str:
    lines = ["graph barcode {", "  rankdir=LR;", "  node [fontsize=10];"]
    for q in range(max_q + 1):
        lines += [f"  subgraph cluster_q{q} {{", f'    label="degree {q}";']
        lines += [
            f'    "q{q} {a}:0" [shape=circle, style=filled, label="{a}:0"];'
            for a in levels
        ]
        lines += [
            f'    "q{q} {a}:0" -- "q{q} {b}:0" [label="{a}-{b}#0"];'
            for a, b in _pairs(levels)
        ]
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def tube_reeb(levels: list[Fraction], q: int) -> str:
    """``reeb --q`` over GF(2): the incidence matrix of the level path."""
    L = len(levels)
    lines = [
        f"Reeb complex in vertical degree {q} over GF(2)",
        f"p=0: dimension {L}",
        "  basis: " + ", ".join(f"[{a}]#0" for a in levels),
        f"p=1: dimension {L - 1}",
        "  basis: " + ", ".join(f"[{a},{b}]#0" for a, b in _pairs(levels)),
        f"differential p=1 ({L} x {L - 1}), rank {L - 1}:",
    ]
    for i in range(L):
        row = [1 if i in (j, j + 1) else 0 for j in range(L - 1)]
        lines.append("  " + str(row))
    lines.append("homology: (1, 0)")
    return "\n".join(lines) + "\n"


def tube_page_dims(L: int, page: int, window: int) -> dict[tuple[int, int], int]:
    """Page dimensions of a tube for every bidegree of total degree <= window."""
    dims = {}
    for n in range(window + 1):
        for p in range(n + 1):
            q = n - p
            if page == 1:
                d = L if (p == 0 and q <= 1) else L - 1 if (p == 1 and q <= 1) else 0
            else:
                d = 1 if (p == 0 and q <= 1) else 0
            dims[(p, q)] = d
    return dims


def tube_page_text(L: int, page: int, window: int, field: int) -> str:
    dims = tube_page_dims(L, page, window)
    lines = [f"page {page} over GF({field}), window: total degree <= {window}"]
    lines += [f"  ({p},{q}) = {d}" for (p, q), d in sorted(dims.items()) if d]
    if page == 1:
        lines += [
            f"  differential (1,{q}) -> (0,{q}): rank {L - 1}"
            for q in range(2)
            if 1 + q <= window
        ]
    return "\n".join(lines) + "\n"


def tube_page_json_problem(out: str, L: int, page: int, window: int, field: int) -> str | None:
    """Check an ``ss --json`` dump; returns a description of the first
    mismatch, or None when the dump is right."""
    try:
        doc = json.loads(out)
    except ValueError:
        return "not JSON"
    head = {k: doc.get(k) for k in ("kind", "page", "field", "window")}
    if head != {"kind": "spectral-page", "page": page, "field": field, "window": window}:
        return f"header {head}"
    dims = tube_page_dims(L, page, window)
    got = {(e["p"], e["q"]): e["dimension"] for e in doc["entries"]}
    if got != dims:
        return f"dimensions {sorted(got.items())}"
    for e in doc["entries"]:
        if len(e["representatives"]) != e["dimension"] or not all(e["representatives"]):
            return f"representatives of ({e['p']},{e['q']})"
        M = e.get("differential")
        target = (e["p"] - page, e["q"] + page - 1)
        if (M is not None) != (target in dims):
            return f"differential presence at ({e['p']},{e['q']})"
        if M is None:
            continue
        shape = (dims[target], e["dimension"])
        if (len(M), len(M[0]) if M else shape[1]) != shape:
            return f"differential shape at ({e['p']},{e['q']})"
        want = L - 1 if page == 1 and e["p"] == 1 else 0
        if M and rank_mod_p(M, field) != want:
            return f"differential rank at ({e['p']},{e['q']})"
    return None


def homology_text(betti: list[int]) -> str:
    return "".join(f"H_{n} = {b}\n" for n, b in enumerate(betti))


def diag_check_text(betti: list[int]) -> str:
    lines = [
        f"degree {n}: direct={b} total={b} diagonal={b} stable-page={b} [ok]"
        for n, b in enumerate(betti)
    ]
    lines += ["collapse: stable page repeats", "PASS"]
    return "\n".join(lines) + "\n"
