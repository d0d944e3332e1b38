"""Exact linear algebra over a prime field.

Matrices are numpy int64 arrays whose entries are reduced modulo the prime.
With the prime capped below 2**31 every pivoting step stays below 2**62, so
all arithmetic is exact in int64.  Pivoting is deterministic (first nonzero
entry, scanning rows top to bottom), which keeps every downstream basis and
report byte-stable.  Elimination touches only the rows with a nonzero in the
pivot column, and only from that column on, so its cost follows the
nonzeros of the sparse boundary matrices rather than their full size.

The chain-complex layer keeps its differentials as *integer* matrices so
signs survive for display, and reduces mod p only when computing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import LinAlgError


def _check_prime(p: int) -> None:
    if not isinstance(p, int) or isinstance(p, bool):
        raise LinAlgError(f"field characteristic must be an int, got {p!r}")
    if p < 2 or p >= 2**31:
        raise LinAlgError(f"field characteristic {p} out of range [2, 2**31)")
    if p == 2:
        return
    if p % 2 == 0:
        raise LinAlgError(f"{p} is not prime")
    for d in range(3, isqrt(p) + 1, 2):
        if p % d == 0:
            raise LinAlgError(f"{p} is not prime ({d} divides it)")


def balanced_lift(M: np.ndarray, p: int) -> np.ndarray:
    """Lift residues to the integer interval (-p/2, p/2] for display."""
    M = np.asarray(M, dtype=np.int64) % p
    return np.where(M > p // 2, M - p, M)


class PrimeField:
    """GF(p) arithmetic on dense int64 matrices."""

    def __init__(self, p: int):
        _check_prime(p)
        self.p = p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def reduce(self, M) -> np.ndarray:
        return np.asarray(M, dtype=np.int64) % self.p

    def matmul(self, A, B) -> np.ndarray:
        """Exact product; the inner dimension is chunked so partial sums
        stay below 2**62."""
        A, B = self.reduce(A), self.reduce(B)
        if A.shape[1] != B.shape[0]:
            raise LinAlgError(f"shape mismatch {A.shape} @ {B.shape}")
        step = max(1, (2**62) // (self.p * self.p))
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for s in range(0, A.shape[1], step):
            out = (out + A[:, s : s + step] @ B[s : s + step, :]) % self.p
        return out

    def rref(self, M) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form and the pivot-column list.

        The pivot of column c is its first nonzero at or below the next
        pivot row.  Only the rows with a nonzero in column c are eliminated,
        and only from column c on: every row at or below the pivot row is
        zero to the left of c.
        """
        p = self.p
        R = self.reduce(M)
        rows, cols = R.shape
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = np.flatnonzero(R[:, c])
            k = nz.searchsorted(r)
            if k == len(nz):
                continue
            pr = int(nz[k])
            if pr != r:
                R[[r, pr], c:] = R[[pr, r], c:]
            inv = pow(int(R[r, c]), p - 2, p)
            if inv != 1:
                R[r, c:] = R[r, c:] * inv % p
            hit = nz[nz != pr]
            if len(hit):
                R[hit, c:] = (R[hit, c:] - np.outer(R[hit, c], R[r, c:])) % p
            pivots.append(c)
            r += 1
        return R, pivots

    def rank(self, M) -> int:
        return len(self.rref(M)[1])

    def kernel(self, M) -> np.ndarray:
        """Matrix whose columns are a basis of the null space."""
        R, pivots = self.rref(M)
        pivot_set = set(pivots)
        free = [c for c in range(R.shape[1]) if c not in pivot_set]
        K = np.zeros((R.shape[1], len(free)), dtype=np.int64)
        K[free, np.arange(len(free))] = 1
        K[pivots] = -R[: len(pivots), free] % self.p
        return K

    def image(self, M) -> np.ndarray:
        """The pivot columns of M itself: a basis of the column span."""
        M = self.reduce(M)
        _, pivots = self.rref(M)
        return M[:, pivots]

    def solve(self, A, b) -> np.ndarray:
        """Solve A x = b (b may be a vector or a matrix of columns)."""
        A = self.reduce(A)
        b = self.reduce(b)
        vector = b.ndim == 1
        B = b[:, None] if vector else b
        if B.shape[0] != A.shape[0]:
            raise LinAlgError(f"shape mismatch solving {A.shape} x = {B.shape}")
        R, pivots = self.rref(np.concatenate([A, B], axis=1))
        n = A.shape[1]
        if pivots and pivots[-1] >= n:
            raise LinAlgError("inconsistent linear system")
        X = np.zeros((n, B.shape[1]), dtype=np.int64)
        X[pivots] = R[: len(pivots), n:]
        return X[:, 0] if vector else X


class Subquotient:
    """A quotient span(total)/span(sub) with stored representatives.

    ``representatives`` are columns of ``total`` completing a basis of the
    sub down in the ambient space; :meth:`coords` expresses any ambient
    vector lying in span(total) in terms of the representative classes.
    """

    def __init__(self, field: PrimeField, total: np.ndarray, sub: np.ndarray):
        self.field = field
        total = field.reduce(total)
        sub = field.reduce(sub)
        if total.shape[0] != sub.shape[0]:
            raise LinAlgError("subquotient spaces live in different ambients")
        _, pivots = field.rref(np.concatenate([total, sub], axis=1))
        if pivots and pivots[-1] >= total.shape[1]:
            raise LinAlgError("sub is not contained in total")
        # the pivots among sub's columns are the ones image(sub) keeps; those
        # among total's columns complete them to a basis of span(total)
        m = sub.shape[1]
        _, pivots = field.rref(np.concatenate([sub, total], axis=1))
        sub_basis = sub[:, [pv for pv in pivots if pv < m]]
        self.representatives = total[:, [pv - m for pv in pivots if pv >= m]]
        self.dimension = self.representatives.shape[1]
        self._solve_matrix = np.concatenate([sub_basis, self.representatives], axis=1)
        self._sub_rank = sub_basis.shape[1]

    def coords(self, z: np.ndarray) -> np.ndarray:
        """Coordinates of the class of z on the stored representatives; a
        matrix z gets one column of coordinates per column."""
        sol = self.field.solve(self._solve_matrix, z)
        return sol[self._sub_rank :]


@dataclass
class HomologyEntry:
    """Homology in one degree, with chosen cycle representatives."""

    degree: int
    dimension: int
    representatives: np.ndarray
    _classes: Subquotient | None

    def coords(self, cycle: np.ndarray) -> np.ndarray:
        if self._classes is None:
            raise LinAlgError("homology of an empty degree has no coordinates")
        return self._classes.coords(cycle)


class ChainComplex:
    """A nonnegatively graded chain complex over a prime field.

    ``labels[n]`` names the basis of degree n; ``differentials[n]`` is an
    integer matrix of shape (dim(n-1), dim(n)) sending degree n to n-1.
    The square-zero law is checked over the field at construction.
    """

    def __init__(
        self,
        field: PrimeField,
        labels: dict[int, list[str]],
        differentials: dict[int, np.ndarray],
    ):
        self.field = field
        self.labels = {n: list(ls) for n, ls in labels.items() if ls}
        self.differentials: dict[int, np.ndarray] = {}
        for n, M in differentials.items():
            M = np.asarray(M, dtype=np.int64)
            if M.shape != (self.dim(n - 1), self.dim(n)):
                raise LinAlgError(
                    f"differential in degree {n} has shape {M.shape}, expected "
                    f"({self.dim(n - 1)}, {self.dim(n)})"
                )
            self.differentials[n] = M
        for n, M in self.differentials.items():
            prev = self.differentials.get(n - 1)
            if prev is not None and M.size and prev.size:
                if np.any(field.matmul(prev, M)):
                    raise LinAlgError(f"differentials do not square to zero at {n}")
        self._homology: dict[int, HomologyEntry] = {}

    def dim(self, n: int) -> int:
        return len(self.labels.get(n, []))

    @property
    def top_degree(self) -> int:
        return max(self.labels) if self.labels else -1

    def differential(self, n: int) -> np.ndarray:
        M = self.differentials.get(n)
        if M is None:
            return np.zeros((self.dim(n - 1), self.dim(n)), dtype=np.int64)
        return M

    def homology(self, n: int) -> HomologyEntry:
        hit = self._homology.get(n)
        if hit is not None:
            return hit
        if self.dim(n) == 0:
            entry = HomologyEntry(n, 0, np.zeros((0, 0), dtype=np.int64), None)
        else:
            cycles = self.field.kernel(self.differential(n))
            boundaries = self.field.reduce(self.differential(n + 1))
            classes = Subquotient(self.field, cycles, boundaries)
            entry = HomologyEntry(
                n, classes.dimension, classes.representatives, classes
            )
        self._homology[n] = entry
        return entry

    def betti(self, n: int) -> int:
        return self.homology(n).dimension

    def betti_numbers(self, top: int) -> list[int]:
        return [self.betti(n) for n in range(top + 1)]


def induced_map(
    source: ChainComplex,
    target: ChainComplex,
    chain_maps: dict[int, np.ndarray],
    n: int,
) -> np.ndarray:
    """Matrix of the map induced on degree-n homology by a chain map.

    ``chain_maps[k]`` carries degree k of the source to the target.  The
    chain-map square with the differentials is verified (mod p) in degree n
    whenever the degree below is supplied.
    """
    field = source.field
    f_n = field.reduce(chain_maps.get(n, np.zeros((target.dim(n), source.dim(n)))))
    if f_n.shape != (target.dim(n), source.dim(n)):
        raise LinAlgError(
            f"chain map in degree {n} has shape {f_n.shape}, expected "
            f"({target.dim(n)}, {source.dim(n)})"
        )
    f_below = chain_maps.get(n - 1)
    if f_below is not None and source.dim(n) and target.dim(n - 1):
        lhs = field.matmul(target.differential(n), f_n)
        rhs = field.matmul(field.reduce(f_below), source.differential(n))
        if np.any((lhs - rhs) % field.p):
            raise LinAlgError(f"not a chain map in degree {n}")
    src_h = source.homology(n)
    tgt_h = target.homology(n)
    if src_h.dimension == 0 or tgt_h.dimension == 0:
        return np.zeros((tgt_h.dimension, src_h.dimension), dtype=np.int64)
    return tgt_h.coords(field.matmul(f_n, src_h.representatives))


def face_sum_matrix(rows: int, face_rows: list[list[int | None]]) -> np.ndarray:
    """Integer matrix of an alternating face sum.

    Column k gets (-1)^i at row ``face_rows[k][i]`` for every face i whose
    row is not ``None``; a ``None`` marks a degenerate face, which
    normalization drops.
    """
    M = np.zeros((rows, len(face_rows)), dtype=np.int64)
    for k, faces in enumerate(face_rows):
        for i, r in enumerate(faces):
            if r is not None:
                M[r, k] += -1 if i % 2 else 1
    return M


def normalized_chains(
    field: PrimeField,
    labels: dict[int, list[str]],
    faces: dict[int, list[list[str | None]]],
) -> ChainComplex:
    """Normalized chains of a simplicial set from generator face labels.

    ``faces[n][k]`` lists, for the k-th generator of dimension n, the label
    of each face, or ``None`` where that face is degenerate (degenerate
    faces are dropped by normalization).  Differentials are the usual
    alternating sums, kept as integer matrices.
    """
    diffs: dict[int, np.ndarray] = {}
    for n, rows in faces.items():
        below = {nm: r for r, nm in enumerate(labels.get(n - 1, []))}
        diffs[n] = face_sum_matrix(
            len(below),
            [[None if nm is None else below[nm] for nm in entry] for entry in rows],
        )
    return ChainComplex(field, labels, diffs)
