"""Reeb complexes, Reeb graphs and barcode diagrams.

For a fixed vertical degree q, the *Reeb complex* has, in horizontal degree
p, one summand per strictly increasing height word of p + 1 levels: the
degree-q homology of the vertical (fiberwise) chain complex of sections
over that word.  The differential is the alternating sum of the maps
induced on homology by the horizontal faces.  In degree q = 0 over a
subdivided height function this is the chain complex of the classical Reeb
graph, which :func:`reeb_graph` extracts directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import NotSubdividedError, ValidationError, WindowError
from .heights import HeightFunction, subdivision_number, subdivision_violations
from .linalg import (
    ChainComplex,
    PrimeField,
    balanced_lift,
    face_sum_matrix,
    induced_map,
)
from .sections import (
    DEFAULT_CAP,
    SectionTruncation,
    build_truncation,
    face_rows,
    section_face,
    word_label,
)
from .simplicial import SimplicialSet

Word = tuple[Fraction, ...]


def vertical_complex(
    trunc: SectionTruncation, field: PrimeField, word, top: int
) -> ChainComplex:
    """Normalized chains, through degree ``top``, of the sections over one
    height word in the vertical direction."""
    word = tuple(word)
    blocks = [trunc.block(word, q) for q in range(top + 1)]
    labels = {
        q: [f"q{q}#{i}" for i in range(len(secs))] for q, secs in enumerate(blocks)
    }
    diffs = {
        q: face_sum_matrix(
            len(blocks[q - 1]),
            face_rows(trunc.space, blocks[q], "v", trunc.block_index(word, q - 1)),
        )
        for q in range(1, top + 1)
    }
    return ChainComplex(field, labels, diffs)


def horizontal_chain_map(
    trunc: SectionTruncation, word, i: int, q: int
) -> np.ndarray:
    """Matrix of the i-th horizontal face on vertical degree q, from the
    sections over ``word`` to those over ``word`` with entry i dropped.
    Vertically degenerate images map to zero."""
    word = tuple(word)
    source = trunc.block(word, q)
    target_word = word[:i] + word[i + 1 :]
    target_index = trunc.block_index(target_word, q)
    M = np.zeros((len(trunc.block(target_word, q)), len(source)), dtype=np.int64)
    for c, sec in enumerate(source):
        pos = target_index.get(section_face(trunc.space, sec, "h", i))
        if pos is not None:
            M[pos, c] = 1
    return M


@dataclass
class ReebComplex:
    """The degree-q Reeb complex.

    ``complex`` is the assembled chain complex (integer matrices via the
    balanced lift, exact over the field).
    """

    q: int
    field: PrimeField
    complex: ChainComplex

    def dim(self, p: int) -> int:
        return self.complex.dim(p)

    def betti(self, p: int) -> int:
        return self.complex.betti(p)

    def differential(self, p: int) -> np.ndarray:
        return self.complex.differential(p)


def reeb_complex(
    trunc: SectionTruncation, field: PrimeField, q: int
) -> ReebComplex:
    """Assemble the degree-q Reeb complex from a stored truncation."""
    if q < 0:
        raise ValidationError("the vertical degree must be nonnegative")
    s = trunc.subdivision
    if trunc.degree < s + q:
        raise WindowError(
            f"truncation too small: the degree-{q} Reeb complex needs "
            f"sections of total degree {s + q + 1}, so the truncation degree "
            f"must be at least {s + q}",
            required_degree=s + q,
        )
    words: dict[int, list[Word]] = {p: trunc.words(p) for p in range(s + 1)}
    vcx: dict[Word, ChainComplex] = {}
    for ws in words.values():
        for w in ws:
            vcx[w] = vertical_complex(trunc, field, w, q + 1)
    class_dims = {w: vcx[w].betti(q) for ws in words.values() for w in ws}

    offsets: dict[Word, int] = {}
    labels: dict[int, list[str]] = {}
    for p, ws in words.items():
        off = 0
        labs: list[str] = []
        for w in ws:
            offsets[w] = off
            labs.extend(f"[{word_label(w)}]#{k}" for k in range(class_dims[w]))
            off += class_dims[w]
        labels[p] = labs

    diffs: dict[int, np.ndarray] = {}
    for p in range(1, s + 1):
        M = np.zeros((len(labels.get(p - 1, [])), len(labels.get(p, []))), dtype=np.int64)
        for w in words[p]:
            for i in range(p + 1):
                dw = w[:i] + w[i + 1 :]
                chain_maps = {
                    k: horizontal_chain_map(trunc, w, i, k)
                    for k in (q - 1, q)
                    if k >= 0
                }
                ind = induced_map(vcx[w], vcx[dw], chain_maps, q)
                if ind.size:
                    sign = -1 if i % 2 else 1
                    r0, c0 = offsets[dw], offsets[w]
                    M[r0 : r0 + ind.shape[0], c0 : c0 + ind.shape[1]] = (
                        M[r0 : r0 + ind.shape[0], c0 : c0 + ind.shape[1]]
                        + sign * ind
                    ) % field.p
        diffs[p] = balanced_lift(M, field.p)

    return ReebComplex(q=q, field=field, complex=ChainComplex(field, labels, diffs))


# -- the Reeb graph -----------------------------------------------------------


@dataclass
class ReebGraph:
    """Vertices are fiber components per level; edges are components of the
    section space over each adjacent level pair, attached by the maps
    induced on degree-0 homology."""

    vertices: list[tuple[Fraction, int]]
    edges: list[tuple[int, int, tuple[Fraction, Fraction], int]]
    components: int

    def homology(self) -> tuple[int, int]:
        """(number of components, independent cycles) of the graph."""
        b0 = self.components
        return b0, len(self.edges) - len(self.vertices) + b0

    def to_dot(self) -> str:
        lines = ["digraph reeb {", "  rankdir=BT;"]
        for v, (level, k) in enumerate(self.vertices):
            lines.append(f'  v{v} [label="{level}:{k}"];')
        for tail, head, (a, b), k in self.edges:
            lines.append(f'  v{tail} -> v{head} [label="{a}-{b}#{k}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def reeb_graph(
    X: SimplicialSet,
    h: HeightFunction,
    trunc: SectionTruncation | None = None,
    cap: int = DEFAULT_CAP,
) -> ReebGraph:
    """The Reeb graph of a subdivided height function.

    Raises :class:`NotSubdividedError` naming a level-skipping edge when the
    input is not subdivided.  Degree-0 homology does not depend on the
    field, so the graph is extracted over GF(2).
    """
    violations = subdivision_violations(h)
    if violations:
        raise NotSubdividedError(
            f"the Reeb graph needs a subdivided height function: {violations[0]}"
        )
    if trunc is None:
        trunc = build_truncation(X, h, degree=max(1, subdivision_number(h)), cap=cap)
    field = PrimeField(2)
    levels = h.levels

    vertices: list[tuple[Fraction, int]] = []
    vertex_at: dict[tuple[Fraction, int], int] = {}
    vcx: dict[Word, ChainComplex] = {}
    for a in levels:
        w = (a,)
        vcx[w] = vertical_complex(trunc, field, w, 1)
        for k in range(vcx[w].betti(0)):
            vertex_at[(a, k)] = len(vertices)
            vertices.append((a, k))

    edges: list[tuple[int, int, tuple[Fraction, Fraction], int]] = []
    for a, b in zip(levels, levels[1:]):
        w = (a, b)
        cx = vertical_complex(trunc, field, w, 1)
        if cx.betti(0) == 0:
            continue
        tail = induced_map(cx, vcx[(a,)], {0: horizontal_chain_map(trunc, w, 1, 0)}, 0)
        head = induced_map(cx, vcx[(b,)], {0: horizontal_chain_map(trunc, w, 0, 0)}, 0)
        for k in range(cx.betti(0)):
            tcol, hcol = tail[:, k], head[:, k]
            assert int(tcol.sum()) == 1 and int(np.count_nonzero(tcol)) == 1
            assert int(hcol.sum()) == 1 and int(np.count_nonzero(hcol)) == 1
            t = vertex_at[(a, int(np.nonzero(tcol)[0][0]))]
            hd = vertex_at[(b, int(np.nonzero(hcol)[0][0]))]
            edges.append((t, hd, (a, b), k))

    parent = list(range(len(vertices)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, hd, _, _ in edges:
        parent[find(t)] = find(hd)
    components = len({find(v) for v in range(len(vertices))})
    return ReebGraph(vertices=vertices, edges=edges, components=components)


# -- barcode diagrams ---------------------------------------------------------


@dataclass(frozen=True)
class BarcodeNode:
    q: int
    level: Fraction
    index: int


@dataclass(frozen=True)
class BarcodeSegment:
    """One homology class of the sections over a level pair, with its
    attaching coefficients on the classes at either endpoint level (balanced
    integer lifts; all zero means the endpoint hangs open)."""

    q: int
    left_level: Fraction
    right_level: Fraction
    index: int
    left_coefficients: tuple[int, ...]
    right_coefficients: tuple[int, ...]

    @property
    def left_attached(self) -> bool:
        return any(self.left_coefficients)

    @property
    def right_attached(self) -> bool:
        return any(self.right_coefficients)


@dataclass
class Barcode:
    """Barcode-style summary: per degree q, one filled node per homology
    class of each single-level section space and one segment per class over
    each increasing level pair."""

    max_q: int
    nodes: list[BarcodeNode]
    segments: list[BarcodeSegment]

    def to_dict(self) -> dict:
        tracks = []
        for q in range(self.max_q + 1):
            tracks.append(
                {
                    "q": q,
                    "nodes": [
                        {"level": str(n.level), "index": n.index}
                        for n in self.nodes
                        if n.q == q
                    ],
                    "segments": [
                        {
                            "left_level": str(s.left_level),
                            "right_level": str(s.right_level),
                            "index": s.index,
                            "left_attached": s.left_attached,
                            "right_attached": s.right_attached,
                            "left_coefficients": list(s.left_coefficients),
                            "right_coefficients": list(s.right_coefficients),
                        }
                        for s in self.segments
                        if s.q == q
                    ],
                }
            )
        return {"format": "sset-v1", "kind": "barcode", "max_q": self.max_q, "tracks": tracks}

    def to_dot(self) -> str:
        """Graphviz rendering: filled nodes for classes at a level, unfilled
        nodes for open segment ends.  A segment attaching to several classes
        is drawn at its first nonzero coefficient; the exact coefficients
        live in :meth:`to_dict`."""
        lines = ["graph barcode {", "  rankdir=LR;", '  node [fontsize=10];']
        for q in range(self.max_q + 1):
            lines.append(f"  subgraph cluster_q{q} {{")
            lines.append(f'    label="degree {q}";')
            for n in self.nodes:
                if n.q == q:
                    lines.append(
                        f'    "q{q} {n.level}:{n.index}" '
                        f'[shape=circle, style=filled, label="{n.level}:{n.index}"];'
                    )
            for t, s in enumerate(seg for seg in self.segments if seg.q == q):
                if s.left_attached:
                    k = next(i for i, c in enumerate(s.left_coefficients) if c)
                    left = f'"q{q} {s.left_level}:{k}"'
                else:
                    left = f'"q{q} open{t}L"'
                    lines.append(
                        f'    {left} [shape=circle, style=solid, label=""];'
                    )
                if s.right_attached:
                    k = next(i for i, c in enumerate(s.right_coefficients) if c)
                    right = f'"q{q} {s.right_level}:{k}"'
                else:
                    right = f'"q{q} open{t}R"'
                    lines.append(
                        f'    {right} [shape=circle, style=solid, label=""];'
                    )
                lines.append(
                    f'    {left} -- {right} '
                    f'[label="{s.left_level}-{s.right_level}#{s.index}"];'
                )
            lines.append("  }")
        lines.append("}")
        return "\n".join(lines) + "\n"


def barcode_diagram(
    trunc: SectionTruncation, field: PrimeField, max_q: int | None = None
) -> Barcode:
    """Build the barcode of all level and level-pair section spaces.

    Degree q needs vertical chains through q + 1 over words of length two,
    so the truncation must satisfy ``max_q <= degree - 1``.
    """
    if max_q is None:
        max_q = trunc.degree - 1
    if max_q > trunc.degree - 1:
        raise WindowError(
            f"truncation too small: barcodes through degree {max_q} need "
            f"truncation degree at least {max_q + 1}",
            required_degree=max_q + 1,
        )
    levels = trunc.height.levels
    # degree-q homology and its induced maps read only d_q and d_(q+1), so
    # one complex through max_q + 1 per word serves every q
    single = {a: vertical_complex(trunc, field, (a,), max_q + 1) for a in levels}
    pairs = {
        w: vertical_complex(trunc, field, w, max_q + 1)
        for w in combinations(levels, 2)
    }
    nodes: list[BarcodeNode] = []
    segments: list[BarcodeSegment] = []
    for q in range(max_q + 1):
        for a in levels:
            for k in range(single[a].betti(q)):
                nodes.append(BarcodeNode(q, a, k))
        for w, cx in pairs.items():
            a, b = w
            if cx.betti(q) == 0:
                continue
            maps_tail = {
                k: horizontal_chain_map(trunc, w, 1, k) for k in (q - 1, q) if k >= 0
            }
            maps_head = {
                k: horizontal_chain_map(trunc, w, 0, k) for k in (q - 1, q) if k >= 0
            }
            tail = balanced_lift(induced_map(cx, single[a], maps_tail, q), field.p)
            head = balanced_lift(induced_map(cx, single[b], maps_head, q), field.p)
            for k in range(cx.betti(q)):
                segments.append(
                    BarcodeSegment(
                        q=q,
                        left_level=a,
                        right_level=b,
                        index=k,
                        left_coefficients=tuple(int(x) for x in tail[:, k]),
                        right_coefficients=tuple(int(x) for x in head[:, k]),
                    )
                )
    return Barcode(max_q=max_q, nodes=nodes, segments=segments)
