"""Section spaces of a height function, in two simplicial directions.

Fix a simplicial set with a monotone height function and a word of target
heights ``(a_0, ..., a_p)``.  A *(p, q)-section* assigns to every maximal
chain of the grid poset [p] x [q] a (p+q)-simplex of the space whose k-th
vertex sits at height ``a_i`` when the chain's k-th point is (i, j), such
that any two chains agreeing after deleting one point have matching faces
there.  Sections of a fixed shape form the value of a bisimplicial object:
the first (horizontal) direction reindexes the height word, the second
(vertical) direction moves along the fibers.

Maximal chains are kept in lexicographic order on their point sequences,
and a section is stored as the tuple of its chain images in that order.
Pairs of chains that differ in exactly one position generate all the
compatibility constraints, which is what the backtracking enumeration
exploits.  Faces and degeneracies of sections, and values on arbitrary
monotone chains, follow integer recipes cached once per grid shape
(:func:`_plan`), and degeneracy is read off the images' normal-form words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Sequence

from .errors import ResourceLimitError, ValidationError, WindowError
from .heights import HeightFunction, as_fraction, subdivision_number
from .linalg import ChainComplex, PrimeField, normalized_chains
from .simplicial import (
    SimplexRef,
    SimplicialSet,
    delta_vertex,
    sigma_vertex,
    word_vertex_position,
)

DEFAULT_CAP = 10**6


def word_label(word: Iterable) -> str:
    """Readable form of a height word, e.g. ``0,1/2,1``."""
    return ",".join(str(a) for a in word)

GridPoint = tuple[int, int]
Chain = tuple[GridPoint, ...]


@lru_cache(maxsize=None)
def shuffle_chains(p: int, q: int) -> tuple[Chain, ...]:
    """All maximal chains of [p] x [q], lexicographically ordered.

    A vertical step (0, 1) produces a lexicographically smaller next point
    than a horizontal step (1, 0), so the all-vertical-first chain comes
    first.  There are binomial(p + q, p) chains of p + q + 1 points each.
    """

    def rec(i: int, j: int):
        if i == p and j == q:
            yield ((i, j),)
            return
        if j < q:
            for rest in rec(i, j + 1):
                yield ((i, j),) + rest
        if i < p:
            for rest in rec(i + 1, j):
                yield ((i, j),) + rest

    return tuple(rec(0, 0))


@lru_cache(maxsize=None)
def _adjacent_chains(p: int, q: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each maximal chain, the pairs (b, t) of an earlier chain b that
    differs from it only at position t.

    Every chain but the first has one: swapping a horizontal step followed
    by a vertical step gives a lexicographically smaller chain.
    """
    chains = shuffle_chains(p, q)
    out = []
    for a in range(len(chains)):
        pairs = []
        for b in range(a):
            diff = [t for t in range(p + q + 1) if chains[a][t] != chains[b][t]]
            if len(diff) == 1:
                pairs.append((b, diff[0]))
        out.append(tuple(pairs))
    return tuple(out)


@dataclass(frozen=True, order=True)
class Section:
    """A (p, q)-section: heights word plus one image per maximal chain.

    ``images`` follows the lexicographic chain order of
    :func:`shuffle_chains`, so equality and ordering of sections are
    canonical.  Instances are hashable and safe as dict keys.
    """

    p: int
    q: int
    heights: tuple[Fraction, ...]
    images: tuple[SimplexRef, ...]


def _height_buckets(
    h: HeightFunction, n: int
) -> dict[tuple[int, ...], list[SimplexRef]]:
    """The n-simplices grouped by the level indices of their vertices, each
    group sorted; built once per height function and dimension."""
    buckets = h._buckets.get(n)
    if buckets is None:
        buckets = {}
        for ref in h.space.simplices(n):
            buckets.setdefault(h.vertex_levels(ref), []).append(ref)
        for refs in buckets.values():
            refs.sort()
        h._buckets[n] = buckets
    return buckets


def enumerate_sections(
    X: SimplicialSet,
    h: HeightFunction,
    levels: Sequence,
    q: int,
    cap: int = DEFAULT_CAP,
) -> list[Section]:
    """All (p, q)-sections over the given height word, degenerate included.

    The word may repeat heights.  Results come in lexicographic order on
    the image tuples.  A word some chain of which has no simplex of its
    height pattern has no sections and inspects no candidate.  Otherwise
    the candidates for the first chain are its whole bucket, and for each
    later chain the simplices of its bucket sharing a face with an already
    chosen neighbouring chain; each counts against ``cap``, and exceeding
    it raises :class:`ResourceLimitError`.
    """
    heights = tuple(as_fraction(a) for a in levels)
    if not heights:
        raise ValidationError("the height word must be nonempty")
    if q < 0:
        raise ValidationError("the vertical degree must be nonnegative")
    p = len(heights) - 1
    n = p + q
    index = h.level_index()
    # a height that is no level gets index -1, whose buckets are all missing
    word = tuple(index.get(a, -1) for a in heights)
    chains = shuffle_chains(p, q)
    all_buckets = _height_buckets(h, n)
    buckets: list[list[SimplexRef]] = []
    for c in chains:
        refs = all_buckets.get(tuple(word[i] for (i, _) in c))
        if refs is None:
            return []
        buckets.append(refs)

    adjacent = _adjacent_chains(p, q)
    # per chain after the first, its bucket keyed on the face at its first
    # adjacent constraint; built when the search first reaches the chain
    by_face: list[dict[SimplexRef, list[SimplexRef]] | None] = [None] * len(chains)

    out: list[Section] = []
    images: list[SimplexRef] = []
    budget = cap

    def backtrack(k: int) -> None:
        nonlocal budget
        if k == len(chains):
            out.append(Section(p, q, heights, tuple(images)))
            return
        if k == 0:
            candidates = buckets[0]
        else:
            b, t = adjacent[k][0]
            index = by_face[k]
            if index is None:
                index = by_face[k] = {}
                for cand in buckets[k]:
                    index.setdefault(X.face(cand, t), []).append(cand)
            candidates = index.get(X.face(images[b], t), ())
        for cand in candidates:
            budget -= 1
            if budget < 0:
                raise ResourceLimitError(
                    f"section enumeration over {word_label(heights)} at vertical "
                    f"degree {q} exceeded the cap of {cap} candidates, at chain "
                    f"{k + 1} of {len(chains)}, whose bucket holds "
                    f"{len(buckets[k])} simplices"
                )
            if all(
                X.face(cand, t) == X.face(images[b], t) for b, t in adjacent[k][1:]
            ):
                images.append(cand)
                backtrack(k + 1)
                images.pop()

    try:
        backtrack(0)
    finally:
        # the recursive closure refers to itself; left in place, that cycle
        # keeps X and its caches alive until the next garbage collection
        del backtrack
    return out


Recipe = tuple[int, tuple[int, ...], tuple[int, ...]]
# kind of operator -> (vertex map, change of grid size)
_MOVES = {"face": (delta_vertex, -1), "degeneracy": (sigma_vertex, 1)}
_AXIS_NAMES = {"h": "horizontal", "v": "vertical"}


@lru_cache(maxsize=None)
def _recipe(p: int, q: int, chain: Chain) -> Recipe:
    """How a (p, q)-section's value on a weakly monotone grid chain is read
    off its images: the index of a maximal chain, then face positions, then
    degeneracy positions, each in the order applied.  Repeats become
    degeneracies; a strict chain is completed to a maximal one (horizontal
    steps first between consecutive anchors) and the inserted positions are
    removed again by faces, top position first."""
    if not chain:
        raise ValidationError("cannot evaluate a section on the empty chain")
    for (i, j) in chain:
        if not (0 <= i <= p and 0 <= j <= q):
            raise ValidationError(f"chain point {(i, j)} outside the grid")
    for k in range(len(chain) - 1):
        (i0, j0), (i1, j1) = chain[k], chain[k + 1]
        if i1 < i0 or j1 < j0:
            raise ValidationError(f"chain is not monotone at position {k}")
        if (i0, j0) == (i1, j1):
            index, faces, degeneracies = _recipe(p, q, chain[: k + 1] + chain[k + 2 :])
            return index, faces, degeneracies + (k,)
    full: list[GridPoint] = [(0, 0)]
    for (i0, j0), (i1, j1) in zip(((0, 0),) + chain, chain + ((p, q),)):
        full.extend((i, j0) for i in range(i0 + 1, i1 + 1))
        full.extend((i1, j) for j in range(j0 + 1, j1 + 1))
    faces = tuple(t for t in reversed(range(len(full))) if full[t] not in chain)
    return shuffle_chains(p, q).index(tuple(full)), faces, ()


def _run(X: SimplicialSet, images: tuple[SimplexRef, ...], recipe: Recipe) -> SimplexRef:
    index, faces, degeneracies = recipe
    value = images[index]
    for t in faces:
        value = X.face(value, t)
    for t in degeneracies:
        value = X.degeneracy(value, t)
    return value


def evaluate_chain(X: SimplicialSet, sec: Section, chain: Chain) -> SimplexRef:
    """Value of a section on an arbitrary weakly monotone grid chain."""
    return _run(X, sec.images, _recipe(sec.p, sec.q, chain))


@lru_cache(maxsize=None)
def _plan(p: int, q: int, kind: str, axes: str, i: int) -> tuple[Recipe, ...]:
    """The recipe of each maximal target chain of the i-th ``kind`` ("face"
    or "degeneracy") of (p, q)-sections along ``axes``: "h", "v", or "hv"
    (the diagonal face), whose vertex map moves each coordinate in ``axes``."""
    move, step = _MOVES[kind]
    across, up = "h" in axes, "v" in axes
    return tuple(
        _recipe(p, q, tuple((move(i, a) if across else a, move(i, b) if up else b)
                            for a, b in chain))
        for chain in shuffle_chains(p + step * across, q + step * up)
    )


def _operate(X: SimplicialSet, sec: Section, kind: str, axes: str, i: int) -> Section:
    """Apply a plan to a section whose index the caller has checked."""
    move, step = _MOVES[kind]
    p = sec.p + step * ("h" in axes)
    heights = sec.heights
    if "h" in axes:
        heights = tuple(heights[move(i, a)] for a in range(p + 1))
    images = tuple(_run(X, sec.images, r) for r in _plan(sec.p, sec.q, kind, axes, i))
    return Section(p, sec.q + step * ("v" in axes), heights, images)


def _top(sec: Section, direction: str) -> int:
    """The last grid index of a section in the direction "h" or "v"."""
    if direction not in ("h", "v"):
        raise ValidationError(f"unknown direction {direction!r}, expected 'h' or 'v'")
    return sec.p if direction == "h" else sec.q


def section_face(X: SimplicialSet, sec: Section, direction: str, i: int) -> Section:
    """Face in the horizontal ("h", reindexing heights) or vertical ("v",
    along the fiber) direction."""
    top = _top(sec, direction)
    if top == 0:
        raise ValidationError(
            "a section with a single height has no horizontal faces"
            if direction == "h"
            else "a section of vertical degree 0 has no vertical faces"
        )
    if not 0 <= i <= top:
        raise ValidationError(f"{_AXIS_NAMES[direction]} face index {i} out of range")
    return _operate(X, sec, "face", direction, i)


def section_degeneracy(
    X: SimplicialSet, sec: Section, direction: str, j: int
) -> Section:
    if not 0 <= j <= _top(sec, direction):
        raise ValidationError(
            f"{_AXIS_NAMES[direction]} degeneracy index {j} out of range"
        )
    return _operate(X, sec, "degeneracy", direction, j)


@lru_cache(maxsize=None)
def _steps(p: int, q: int, j: int, axes: str) -> tuple[tuple[int, ...], ...]:
    """For each maximal chain of [p] x [q], the position at which it steps
    from j to j + 1 along each axis of ``axes``: its last point at j."""
    coords = ["hv".index(axis) for axis in axes]
    return tuple(
        tuple(sum(pt[x] <= j for pt in c) - 1 for x in coords)
        for c in shuffle_chains(p, q)
    )


def _fixed_by_move(sec: Section, j: int, axes: str) -> bool:
    """Whether the section is the j-th degeneracy of its j-th face along
    ``axes``: "h", "v", or "hv" for both at once (the diagonal).

    That holds exactly when, on every maximal chain c, the normal-form word
    of c's image identifies the vertices k and k + 1 at which c steps from j
    to j + 1 along each axis.  Sketch, for one axis: let x be the section as
    a map of the grid into the space and e the grid map moving index j to
    j + 1 (coface after codegeneracy); the claim is x e = x.  By the
    Eilenberg-Zilber lemma a simplex lies in the image of s_k iff its word
    identifies k and k + 1.  Necessity: e c repeats position k, so x(e c) =
    s_k x(d_k e c).  Sufficiency, by induction on k: if k = 0 or c reaches k
    along the same axis, e fixes d_k c and x(e c) = s_k d_k x(c).  Otherwise
    c and the chain c' with the steps around k swapped differ in one square,
    d_k c' = d_k c, and c' steps at k - 1; by induction x(e d_k c') = d_k
    x(c'), so again x(e c) = s_k d_k x(c), which is x(c) when x(c) lies in
    the image of s_k.  On the diagonal, x (e x e) = x iff x (e x 1) = x =
    x (1 x e), as the codegeneracy after the coface is the identity.  A
    horizontal degeneracy repeats height j, so other words fail at once.
    """
    if "h" in axes and sec.heights[j] != sec.heights[j + 1]:
        return False
    return all(
        word_vertex_position(image.word, k) == word_vertex_position(image.word, k + 1)
        for image, steps in zip(sec.images, _steps(sec.p, sec.q, j, axes))
        for k in steps
    )


def is_degenerate(X: SimplicialSet, sec: Section, direction: str) -> bool:
    """Whether the section is a degeneracy in the given direction."""
    return any(_fixed_by_move(sec, j, direction) for j in range(_top(sec, direction)))


def face_rows(
    X: SimplicialSet,
    secs: Iterable[Section],
    direction: str,
    index: dict[Section, int],
) -> list[list[int | None]]:
    """For each section, the row under ``index`` of its i-th face in the
    given direction, or ``None`` where that face is missing from ``index``
    (a degenerate face)."""
    rows = []
    for sec in secs:
        top = _top(sec, direction)
        rows.append(
            [index.get(section_face(X, sec, direction, i)) for i in range(top + 1)]
        )
    return rows


# -- the diagonal simplicial set ---------------------------------------------


def _diagonal_degenerate(X: SimplicialSet, sec: Section) -> bool:
    """Degeneracy criterion for the diagonal: both directions at once."""
    return any(_fixed_by_move(sec, j, "hv") for j in range(sec.p))


def diagonal_chain_complex(
    X: SimplicialSet,
    h: HeightFunction,
    field: PrimeField,
    top: int,
    cap: int = DEFAULT_CAP,
) -> ChainComplex:
    """Normalized chains of the diagonal of the section family.

    Degree n collects the (n, n)-sections over every weakly increasing
    height word of n + 1 levels; the i-th face applies the horizontal and
    vertical i-th faces together, and only diagonally nondegenerate
    sections generate.
    """
    # per degree, the kept sections in order with their labels
    label_of: dict[int, dict[Section, str]] = {}
    for n in range(top + 1):
        label_of[n] = {}
        for word in combinations_with_replacement(h.levels, n + 1):
            secs = enumerate_sections(X, h, word, n, cap=cap)
            kept = [sec for sec in secs if not _diagonal_degenerate(X, sec)]
            for k, sec in enumerate(kept):
                label_of[n][sec] = f"[{word_label(sec.heights)}]#{k}"
    labels = {n: list(labs.values()) for n, labs in label_of.items()}
    faces: dict[int, list[list[str | None]]] = {}
    for n in range(1, top + 1):
        faces[n] = []
        for sec in label_of[n]:
            entry: list[str | None] = []
            for i in range(n + 1):
                f = _operate(X, sec, "face", "hv", i)
                if f not in label_of[n - 1] and not _diagonal_degenerate(X, f):
                    raise ValidationError(
                        "internal: a nondegenerate diagonal face is missing "
                        "from the enumeration"
                    )
                entry.append(label_of[n - 1].get(f))
            faces[n].append(entry)
    return normalized_chains(field, labels, faces)


# -- the truncated two-parameter family --------------------------------------


@dataclass
class SectionTruncation:
    """Vertically nondegenerate sections over strictly increasing height
    words, indexed by (word, vertical degree) for total degree <= N + 1.

    This is exactly the basis of the associated double complex: horizontal
    degeneracies cannot occur over strictly increasing words, so blocks of
    vertically nondegenerate sections are the binormalized pieces.
    """

    space: SimplicialSet
    height: HeightFunction
    degree: int
    subdivision: int
    blocks: dict[tuple[tuple[Fraction, ...], int], list[Section]]
    index: dict[tuple[tuple[Fraction, ...], int], dict[Section, int]]

    def words(self, p: int) -> list[tuple[Fraction, ...]]:
        """Strictly increasing height words with p + 1 entries."""
        if p < 0 or p > min(self.subdivision, self.degree + 1):
            return []
        return [tuple(c) for c in combinations(self.height.levels, p + 1)]

    def block(self, word: Iterable, q: int) -> list[Section]:
        key = (tuple(as_fraction(a) for a in word), q)
        p = len(key[0]) - 1
        if p + q > self.degree + 1:
            raise WindowError(
                f"truncation too small: degree {self.degree} stores sections "
                f"of total degree at most {self.degree + 1}, requested {p + q} "
                f"over {word_label(key[0])} at vertical degree {q}",
                required_degree=p + q - 1,
            )
        return self.blocks.get(key, [])

    def block_index(self, word: Iterable, q: int) -> dict[Section, int]:
        key = (tuple(as_fraction(a) for a in word), q)
        return self.index.get(key, {})


def build_truncation(
    X: SimplicialSet,
    h: HeightFunction,
    degree: int,
    cap: int = DEFAULT_CAP,
) -> SectionTruncation:
    """Enumerate all blocks of the truncation in canonical order.

    Words run over strictly increasing tuples of levels with at most
    ``subdivision + 1`` entries; vertical degrees fill up total degree
    ``degree + 1``.  Each block keeps its vertically nondegenerate sections.
    """
    if degree < 0:
        raise ValidationError("the truncation degree must be nonnegative")
    s = subdivision_number(h)
    blocks: dict[tuple[tuple[Fraction, ...], int], list[Section]] = {}
    for p in range(min(s, degree + 1) + 1):
        for word in combinations(h.levels, p + 1):
            for q in range(degree + 2 - p):
                secs = enumerate_sections(X, h, word, q, cap=cap)
                blocks[(word, q)] = [
                    sec for sec in secs if not is_degenerate(X, sec, "v")
                ]
    index = {
        key: {sec: i for i, sec in enumerate(secs)} for key, secs in blocks.items()
    }
    return SectionTruncation(
        space=X,
        height=h,
        degree=degree,
        subdivision=s,
        blocks=blocks,
        index=index,
    )
