"""Height functions on the vertices of a simplicial set.

Heights are exact rationals (:class:`fractions.Fraction`); floats are
rejected so that level comparisons are never approximate.  A height function
is *monotone* when every nondegenerate edge goes from a lower-or-equal
vertex to a higher-or-equal one, and *subdivided* when no nondegenerate edge
skips a level.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import HeightError
from .simplicial import SimplexRef, SimplicialSet


def as_fraction(value) -> Fraction:
    """Coerce an int, string or Fraction to an exact rational."""
    if isinstance(value, bool) or isinstance(value, float):
        raise HeightError(f"height {value!r} must be an exact rational, not a float")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise HeightError(f"cannot parse height {value!r}") from exc
    raise HeightError(f"unsupported height value {value!r}")


class HeightFunction:
    """Exact vertex heights on a fixed simplicial set.

    The constructor checks only that every vertex gets exactly one value;
    monotonicity is the job of :func:`validate_height`.
    """

    __slots__ = ("space", "_by_gid", "_levels", "_widest", "_buckets")

    def __init__(self, space: SimplicialSet, values: Mapping[str, object]):
        self.space = space
        n0 = space.n_generators(0)
        by_gid: list[Fraction | None] = [None] * n0
        for name, raw in values.items():
            gid = space.id_of.get(name)
            if gid is None or space.gen_dim[gid] != 0:
                raise HeightError(f"height given for non-vertex {name!r}")
            by_gid[gid] = as_fraction(raw)
        missing = [space.gen_names[g] for g in range(n0) if by_gid[g] is None]
        if missing:
            raise HeightError(f"vertices without a height: {missing}")
        self._by_gid: tuple[Fraction, ...] = tuple(by_gid)  # type: ignore[arg-type]
        self._levels: list[Fraction] | None = None
        self._widest: tuple[int, str | None] | None = None
        # n -> {vertex-height tuple: sorted n-simplices}, filled by sections
        self._buckets: dict[int, dict[tuple[Fraction, ...], list[SimplexRef]]] = {}

    def of(self, gid: int) -> Fraction:
        return self._by_gid[gid]

    def of_name(self, name: str) -> Fraction:
        return self._by_gid[self.space.id_of[name]]

    def vertex_heights(self, ref: SimplexRef) -> tuple[Fraction, ...]:
        return tuple(self._by_gid[v] for v in self.space.vertices(ref))

    @property
    def levels(self) -> list[Fraction]:
        """Sorted distinct heights actually taken by vertices."""
        if self._levels is None:
            self._levels = sorted(set(self._by_gid))
        return self._levels

    def level_index(self) -> dict[Fraction, int]:
        return {a: i for i, a in enumerate(self.levels)}


def validate_height(h: HeightFunction) -> list[Fraction]:
    """Check monotonicity along every nondegenerate edge.

    Returns the sorted list of levels; raises :class:`HeightError` naming a
    decreasing edge otherwise.
    """
    X = h.space
    for gid in X.generators(1):
        a, b = h.vertex_heights(SimplexRef(gid))
        if a > b:
            raise HeightError(
                f"edge {X.gen_names[gid]!r} decreases from height {a} to {b}"
            )
    return h.levels


def subdivision_violations(h: HeightFunction) -> list[str]:
    """Nondegenerate edges that skip a level, described readably."""
    X = h.space
    index = h.level_index()
    out = []
    for gid in X.generators(1):
        a, b = h.vertex_heights(SimplexRef(gid))
        if index[b] - index[a] >= 2:
            out.append(
                f"edge {X.gen_names[gid]!r} spans non-adjacent levels {a} and {b}"
            )
    return out


def is_subdivided(h: HeightFunction) -> bool:
    """True when no nondegenerate edge spans non-adjacent levels."""
    return not subdivision_violations(h)


def _widest_generator(h: HeightFunction) -> tuple[int, str | None]:
    """The subdivision number and the first generator achieving it, if it
    is positive; computed once per height function."""
    if h._widest is None:
        best, witness = 0, None
        X = h.space
        for d in range(X.top_dim + 1):
            for gid in X.generators(d):
                steps = len(set(h.vertex_heights(SimplexRef(gid)))) - 1
                if steps > best:
                    best, witness = steps, X.gen_names[gid]
        h._widest = (best, witness)
    return h._widest


def subdivision_number(h: HeightFunction) -> int:
    """Largest number of strict height steps inside one generator.

    The maximum over nondegenerate generators of (number of distinct vertex
    heights - 1); zero for a set with no generators.
    """
    return _widest_generator(h)[0]


def subdivision_witness(h: HeightFunction) -> str | None:
    """A generator achieving :func:`subdivision_number`, if any is positive."""
    return _widest_generator(h)[1]


def fiber(h: HeightFunction, level) -> SimplicialSet:
    """The full subcomplex of generators living entirely at one height."""
    a = as_fraction(level)
    X = h.space
    keep = set()
    for d in range(X.top_dim + 1):
        for gid in X.generators(d):
            if all(v == a for v in h.vertex_heights(SimplexRef(gid))):
                keep.add(gid)
    gens = [
        [X.gen_names[g] for g in X.generators(d) if g in keep]
        for d in range(X.top_dim + 1)
    ]
    table = {
        X.gen_names[g]: [
            (list(r.word), X.gen_names[r.gen]) for r in X.faces[g]
        ]
        for g in keep
        if X.faces[g] is not None
    }
    return SimplicialSet(gens, table, name=f"{X.name}[{a}]" if X.name else f"[{a}]")
