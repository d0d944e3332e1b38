"""Finite simplicial sets presented by nondegenerate generators.

A simplicial set is stored as a list of nondegenerate *generators* per
dimension together with a face table: for a generator of dimension n, an
(n+1)-tuple of references to (possibly degenerate) simplices of dimension
n-1.  Every simplex of the set is represented canonically by a
:class:`SimplexRef` — a generator plus a strictly decreasing word of
degeneracy indices (the Eilenberg-Zilber normal form, which is unique).

Degeneracy words are stored *outermost first*: ``word = (j_k, ..., j_1)``
with ``j_k > ... > j_1`` denotes the operator ``s_{j_k} ∘ ... ∘ s_{j_1}``,
so ``word[0]`` is the operator applied last.  All operator rewriting happens
through :func:`normalize_word`, which implements the identity
``s_i s_j = s_{j+1} s_i`` for ``i <= j``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import GlueError, ValidationError

Word = tuple[int, ...]


def sigma_vertex(j: int, q: int) -> int:
    """Vertex map of the codegeneracy: the monotone surjection hitting j
    twice, sending position q of the stretched simplex into the base."""
    return q if q <= j else q - 1


def delta_vertex(i: int, q: int) -> int:
    """Vertex map of the coface: the order embedding skipping the value i."""
    return q if q < i else q + 1


def _insert(j: int, word: list[int]) -> list[int]:
    # Prepend s_j to a canonical word, rewriting s_j s_w = s_{w+1} s_j
    # (valid for j <= w) until the result is strictly decreasing again.
    out: list[int] = []
    i = 0
    while i < len(word) and j <= word[i]:
        out.append(word[i] + 1)
        i += 1
    out.append(j)
    out.extend(word[i:])
    return out


def normalize_word(operators: Sequence[int], base_dim: int | None = None) -> Word:
    """Canonical strictly decreasing form of a degeneracy-operator word.

    Parameters
    ----------
    operators:
        Degeneracy indices, outermost first (``operators[0]`` applied last).
    base_dim:
        When given, each index is checked to be valid for the dimension of
        the simplex it acts on, starting from a simplex of this dimension.

    Returns
    -------
    tuple of int
        The unique strictly decreasing word representing the same operator.
    """
    word: list[int] = []
    dim = base_dim
    for j in reversed(list(operators)):  # innermost operator acts first
        if j < 0:
            raise ValidationError(f"degeneracy index {j} is negative")
        if dim is not None:
            if j > dim:
                raise ValidationError(
                    f"degeneracy index {j} out of range for dimension {dim}"
                )
            dim += 1
        word = _insert(j, word)
    return tuple(word)


def word_vertex_position(word: Word, q: int) -> int:
    """Position in the base simplex hit by vertex ``q`` under the word."""
    for j in word:  # outermost first
        q = q if q <= j else q - 1
    return q


def check_word(word: Word, base_dim: int) -> None:
    """Validate that ``word`` is canonical over a base of ``base_dim``."""
    for a, b in zip(word, word[1:]):
        if a <= b:
            raise ValidationError(f"word {word} is not strictly decreasing")
    for t, j in enumerate(reversed(word), start=1):
        if j < 0 or j > base_dim + t - 1:
            raise ValidationError(
                f"word {word} invalid over a base of dimension {base_dim}"
            )


@dataclass(frozen=True, order=True)
class SimplexRef:
    """A simplex in Eilenberg-Zilber normal form.

    Attributes
    ----------
    gen:
        Internal id of the nondegenerate generator underneath.
    word:
        Strictly decreasing degeneracy word, outermost first.  Empty iff
        the simplex is nondegenerate.
    """

    gen: int
    word: Word = ()

    @property
    def nondegenerate(self) -> bool:
        return not self.word


class SimplicialSet:
    """A finite simplicial set given by generators and face tables.

    Generator identifiers are opaque strings from the input; internal dense
    integer ids are assigned deterministically by (dimension, input order).
    Instances are immutable after construction; the only mutable attributes
    are the caches of faces and of generator vertices.
    """

    def __init__(
        self,
        generators_by_dim: Sequence[Sequence[str]],
        face_table: dict[str, Sequence[tuple[Sequence[int], str]]],
        name: str = "",
    ):
        self.name = name
        # strip trailing empty dimensions
        dims = list(generators_by_dim)
        while dims and not dims[-1]:
            dims.pop()
        self.gen_names: list[str] = []
        self.gen_dim: list[int] = []
        self.by_dim: list[list[int]] = [[] for _ in dims]
        self.id_of: dict[str, int] = {}
        for d, names in enumerate(dims):
            for nm in names:
                if not isinstance(nm, str) or not nm:
                    raise ValidationError(f"bad generator identifier {nm!r}")
                if nm in self.id_of:
                    raise ValidationError(f"duplicate generator identifier {nm!r}")
                gid = len(self.gen_names)
                self.id_of[nm] = gid
                self.gen_names.append(nm)
                self.gen_dim.append(d)
                self.by_dim[d].append(gid)

        self.faces: list[tuple[SimplexRef, ...] | None] = [None] * len(self.gen_names)
        seen = set()
        for nm, entries in face_table.items():
            gid = self.id_of.get(nm)
            if gid is None:
                raise ValidationError(f"face table mentions unknown generator {nm!r}")
            seen.add(nm)
            d = self.gen_dim[gid]
            if d == 0:
                raise ValidationError(f"vertex {nm!r} must not have face entries")
            if len(entries) != d + 1:
                raise ValidationError(
                    f"generator {nm!r} has dimension {d} and needs {d + 1} faces, "
                    f"got {len(entries)}"
                )
            refs = []
            for i, (wd, target) in enumerate(entries):
                tid = self.id_of.get(target)
                if tid is None:
                    raise ValidationError(
                        f"face {i} of {nm!r} references unknown generator {target!r}"
                    )
                word = tuple(int(j) for j in wd)
                check_word(word, self.gen_dim[tid])
                if self.gen_dim[tid] + len(word) != d - 1:
                    raise ValidationError(
                        f"face {i} of {nm!r} has dimension "
                        f"{self.gen_dim[tid] + len(word)}, expected {d - 1}"
                    )
                refs.append(SimplexRef(tid, word))
            self.faces[gid] = tuple(refs)
        for gid, nm in enumerate(self.gen_names):
            if self.gen_dim[gid] >= 1 and nm not in seen:
                raise ValidationError(f"generator {nm!r} is missing its face entries")

        self._face_cache: dict[tuple[SimplexRef, int], SimplexRef] = {}
        self._vertex_cache: dict[int, tuple[int, ...]] = {}

    # -- basic structure ---------------------------------------------------

    @property
    def top_dim(self) -> int:
        return len(self.by_dim) - 1

    def n_generators(self, d: int) -> int:
        return len(self.by_dim[d]) if 0 <= d <= self.top_dim else 0

    def generators(self, d: int) -> list[int]:
        return self.by_dim[d] if 0 <= d <= self.top_dim else []

    def dim(self, ref: SimplexRef) -> int:
        return self.gen_dim[ref.gen] + len(ref.word)

    def label(self, ref: SimplexRef) -> str:
        """Readable canonical label, e.g. ``s1.s0.v`` for (v, (1, 0))."""
        base = self.gen_names[ref.gen]
        if not ref.word:
            return base
        return ".".join(f"s{j}" for j in ref.word) + "." + base

    def ref(self, name: str, word: Sequence[int] = ()) -> SimplexRef:
        """Build a canonical reference from a generator name and a word."""
        gid = self.id_of[name]
        return SimplexRef(gid, normalize_word(word, base_dim=self.gen_dim[gid]))

    # -- operator algebra --------------------------------------------------

    def face(self, ref: SimplexRef, i: int) -> SimplexRef:
        """The i-th face, computed by commuting d_i past the degeneracy word.

        Uses d_i s_j = s_{j-1} d_i (i < j), d_j s_j = id = d_{j+1} s_j and
        d_i s_j = s_j d_{i-1} (i > j+1), then the stored face table.
        """
        n = self.dim(ref)
        if n == 0:
            raise ValidationError("a vertex has no faces")
        if not 0 <= i <= n:
            raise ValidationError(f"face index {i} out of range for dimension {n}")
        key = (ref, i)
        hit = self._face_cache.get(key)
        if hit is not None:
            return hit

        emitted: list[int] = []
        word = ref.word
        pos = 0
        result: SimplexRef | None = None
        while pos < len(word):
            j = word[pos]
            if i < j:
                emitted.append(j - 1)
                pos += 1
            elif i <= j + 1:  # absorbed: d_j s_j = id = d_{j+1} s_j
                result = SimplexRef(ref.gen, word[pos + 1 :])
                break
            else:
                emitted.append(j)
                pos += 1
                i -= 1
        if result is None:
            target = self.faces[ref.gen]
            assert target is not None
            result = target[i]
        if emitted:
            result = SimplexRef(
                result.gen,
                normalize_word(
                    emitted + list(result.word), base_dim=self.gen_dim[result.gen]
                ),
            )
        self._face_cache[key] = result
        return result

    def degeneracy(self, ref: SimplexRef, j: int) -> SimplexRef:
        n = self.dim(ref)
        if not 0 <= j <= n:
            raise ValidationError(
                f"degeneracy index {j} out of range for dimension {n}"
            )
        word = normalize_word([j] + list(ref.word), base_dim=self.gen_dim[ref.gen])
        return SimplexRef(ref.gen, word)

    def vertices(self, ref: SimplexRef) -> tuple[int, ...]:
        """Ordered tuple of vertex generator ids visited by the simplex."""
        base = self._generator_vertices(ref.gen)
        return tuple(
            base[word_vertex_position(ref.word, q)] for q in range(self.dim(ref) + 1)
        )

    def _generator_vertices(self, gid: int) -> tuple[int, ...]:
        hit = self._vertex_cache.get(gid)
        if hit is not None:
            return hit
        m = self.gen_dim[gid]
        verts = []
        for k in range(m + 1):
            cur = SimplexRef(gid)
            for i in range(m, k, -1):
                cur = self.face(cur, i)
            for i in range(k - 1, -1, -1):
                cur = self.face(cur, i)
            assert not cur.word
            verts.append(cur.gen)
        out = tuple(verts)
        self._vertex_cache[gid] = out
        return out

    def simplices(self, d: int) -> Iterator[SimplexRef]:
        """All simplices of dimension d, degenerate ones included.

        Degenerate d-simplices over a generator of dimension m biject with
        the (d-m)-subsets of {0, ..., d-1} (the repeat positions); the
        canonical word is the subset sorted decreasingly.
        """
        for m in range(min(d, self.top_dim) + 1):
            for gid in self.by_dim[m]:
                for repeats in combinations(range(d), d - m):
                    yield SimplexRef(gid, tuple(sorted(repeats, reverse=True)))

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        """Check the face-commutation identities on every generator.

        Returns a list of human-readable violations; empty means valid.
        The identity d_i d_j = d_{j-1} d_i (i < j) on generators, evaluated
        through the operator algebra, is equivalent to the full battery of
        simplicial identities for the presented set.
        """
        problems = []
        for gid, nm in enumerate(self.gen_names):
            n = self.gen_dim[gid]
            if n < 2:
                continue
            top = SimplexRef(gid)
            for j in range(n + 1):
                for i in range(j):
                    left = self.face(self.face(top, j), i)
                    right = self.face(self.face(top, i), j - 1)
                    if left != right:
                        problems.append(
                            f"generator {nm!r}: d_{i} d_{j} = {self.label(left)} "
                            f"but d_{j - 1} d_{i} = {self.label(right)}"
                        )
        return problems

    # -- serialisation helpers ----------------------------------------------

    def generator_table(self) -> dict[str, list[tuple[list[int], str]]]:
        out: dict[str, list[tuple[list[int], str]]] = {}
        for gid, nm in enumerate(self.gen_names):
            refs = self.faces[gid]
            if refs is None:
                continue
            out[nm] = [(list(r.word), self.gen_names[r.gen]) for r in refs]
        return out

    def chain_data(self, top: int):
        """Labels and face labels of the nondegenerate generators up to
        dimension ``top`` (faces that are degenerate become ``None``), in the
        shape expected by the normalized-chains builder."""
        labels = {
            n: [self.gen_names[g] for g in self.generators(n)]
            for n in range(min(top, self.top_dim) + 1)
        }
        faces = {}
        for n in range(1, min(top, self.top_dim) + 1):
            rows = []
            for g in self.generators(n):
                entry = []
                for r in self.faces[g]:
                    entry.append(self.gen_names[r.gen] if not r.word else None)
                rows.append(entry)
            faces[n] = rows
        return labels, faces


# -- builders ---------------------------------------------------------------


def _subset_name(subset: Iterable[int]) -> str:
    return "-".join(str(v) for v in subset)


def standard_simplex(n: int) -> SimplicialSet:
    """The standard n-simplex: one generator per nonempty subset of
    {0, ..., n}, named like ``"0-2-3"``."""
    if n < 0:
        raise ValidationError("dimension must be nonnegative")
    gens = [
        [_subset_name(c) for c in combinations(range(n + 1), k + 1)]
        for k in range(n + 1)
    ]
    table: dict[str, list[tuple[list[int], str]]] = {}
    for k in range(1, n + 1):
        for c in combinations(range(n + 1), k + 1):
            table[_subset_name(c)] = [
                ([], _subset_name(c[:i] + c[i + 1 :])) for i in range(k + 1)
            ]
    return SimplicialSet(gens, table, name=f"delta{n}")


def boundary_simplex(n: int) -> SimplicialSet:
    """The boundary of the standard n-simplex (drops the top generator)."""
    if n < 1:
        raise ValidationError("the boundary needs dimension at least 1")
    full = standard_simplex(n)
    gens = [[full.gen_names[g] for g in full.generators(k)] for k in range(n)]
    table = {
        nm: entries
        for nm, entries in full.generator_table().items()
        if len(nm.split("-")) <= n
    }
    return SimplicialSet(gens, table, name=f"boundary{n}")


def relabel(X: SimplicialSet, prefix: str) -> SimplicialSet:
    """A fresh copy with every generator name prefixed."""
    gens = [[prefix + X.gen_names[g] for g in X.generators(d)] for d in range(X.top_dim + 1)]
    table = {
        prefix + nm: [(w, prefix + t) for (w, t) in entries]
        for nm, entries in X.generator_table().items()
    }
    return SimplicialSet(gens, table, name=X.name)


def disjoint_union(*parts: SimplicialSet, name: str = "") -> SimplicialSet:
    top = max(x.top_dim for x in parts)
    gens: list[list[str]] = [[] for _ in range(top + 1)]
    table: dict[str, list[tuple[list[int], str]]] = {}
    for x in parts:
        for d in range(x.top_dim + 1):
            for g in x.generators(d):
                nm = x.gen_names[g]
                if any(nm in layer for layer in gens):
                    raise ValidationError(
                        f"duplicate generator {nm!r} in disjoint union; relabel first"
                    )
                gens[d].append(nm)
        table.update(x.generator_table())
    return SimplicialSet(gens, table, name=name)


def glue(
    X: SimplicialSet, identifications: Sequence[tuple[str, str]]
) -> tuple[SimplicialSet, dict[str, str]]:
    """Quotient by identifying generators, closed under face maps.

    Two identified generators must have equal dimension, and the closure may
    never force a nondegenerate generator to equal a degenerate reference
    (face words must match exactly); otherwise a :class:`GlueError` is
    raised.  Returns the quotient and the map old name -> representative.
    """
    parent = list(range(len(X.gen_names)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    work: list[tuple[int, int]] = []

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if X.gen_dim[ra] != X.gen_dim[rb]:
            raise GlueError(
                f"cannot identify {X.gen_names[ra]!r} (dim {X.gen_dim[ra]}) with "
                f"{X.gen_names[rb]!r} (dim {X.gen_dim[rb]})"
            )
        if ra > rb:
            ra, rb = rb, ra
        parent[rb] = ra  # smaller id (= lower (dim, input order)) wins
        work.append((ra, rb))

    for a_name, b_name in identifications:
        for nm in (a_name, b_name):
            if nm not in X.id_of:
                raise GlueError(f"unknown generator {nm!r} in identification")
        union(X.id_of[a_name], X.id_of[b_name])

    while work:
        a, b = work.pop()
        fa, fb = X.faces[a], X.faces[b]
        if fa is None:
            continue
        assert fb is not None
        for i, (ra, rb) in enumerate(zip(fa, fb)):
            if ra.word != rb.word:
                raise GlueError(
                    f"face {i} of {X.gen_names[a]!r} and {X.gen_names[b]!r} "
                    f"disagree as operators ({X.label(ra)} vs {X.label(rb)}); "
                    "the identification would equate a nondegenerate generator "
                    "with a degenerate reference"
                )
            union(ra.gen, rb.gen)

    mapping = {nm: X.gen_names[find(gid)] for nm, gid in X.id_of.items()}
    reps = sorted({find(g) for g in range(len(X.gen_names))})
    gens: list[list[str]] = [[] for _ in range(X.top_dim + 1)]
    for r in reps:
        gens[X.gen_dim[r]].append(X.gen_names[r])
    table: dict[str, list[tuple[list[int], str]]] = {}
    for r in reps:
        refs = X.faces[r]
        if refs is None:
            continue
        table[X.gen_names[r]] = [
            (list(ref.word), X.gen_names[find(ref.gen)]) for ref in refs
        ]
    return SimplicialSet(gens, table, name=X.name), mapping
