"""The double complex of section spaces and its filtration spectral sequence.

Bidegree (p, q) collects the vertically nondegenerate q-sections over all
strictly increasing height words of p + 1 levels.  Horizontal and vertical
differentials are alternating face sums (vertically degenerate images
vanish); they square to zero and commute on the nose over the integers, so
the total complex carries the differential D = horizontal + (-1)^p vertical.

Pages of the column-filtration spectral sequence are computed directly as
subquotients:  with F_p the span of the columns up to p and

    A[r, p] = { x in F_p : D x in F_(p-r) }      (A[r, p] = F_p for r <= 0),

the page entry is  E[r](p, q) = A[r, p] / (A[r-1, p-1] + D A[r-1, p+r-1]),
everything in total degree p + q, and the page differential is induced by
D.  A truncation of degree N supports every entry with p + q <= N (the
correction term D A[r-1, p+r-1] lives one total degree up).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, WindowError
from .heights import HeightFunction
from .linalg import (
    ChainComplex,
    PrimeField,
    Subquotient,
    face_sum_matrix,
    normalized_chains,
)
from .reeb import reeb_complex
from .sections import (
    DEFAULT_CAP,
    SectionTruncation,
    build_truncation,
    diagonal_chain_complex,
    face_rows,
)
from .simplicial import SimplicialSet


@dataclass
class DoubleComplex:
    """Integer double complex of the section family over increasing words."""

    truncation: SectionTruncation
    dims: dict[tuple[int, int], int]
    horizontal: dict[tuple[int, int], np.ndarray]
    vertical: dict[tuple[int, int], np.ndarray]

    @property
    def window(self) -> int:
        return self.truncation.degree

    def dim(self, p: int, q: int) -> int:
        if p < 0 or q < 0 or p > self.truncation.subdivision:
            return 0
        if p + q > self.window + 1:
            raise WindowError(
                f"bidegree ({p}, {q}) lies beyond the stored total degree "
                f"{self.window + 1}",
                required_degree=p + q - 1,
            )
        return self.dims.get((p, q), 0)

    def total_dim(self, n: int) -> int:
        if n < 0:
            return 0
        return sum(self.dim(p, n - p) for p in range(n + 1))

    def block_start(self, n: int, p: int) -> int:
        """Offset of block (p, n - p) inside total degree n (blocks are
        ordered by increasing p)."""
        return sum(self.dim(i, n - i) for i in range(p))

    def total_differential(self, n: int) -> np.ndarray:
        """The total differential as an integer matrix, degree n to n - 1."""
        D = np.zeros((self.total_dim(n - 1), self.total_dim(n)), dtype=np.int64)
        for p in range(n + 1):
            q = n - p
            cols = self.dim(p, q)
            if cols == 0:
                continue
            c0 = self.block_start(n, p)
            if p >= 1 and self.dim(p - 1, q):
                M = self.horizontal[(p, q)]
                r0 = self.block_start(n - 1, p - 1)
                D[r0 : r0 + M.shape[0], c0 : c0 + cols] += M
            if q >= 1 and self.dim(p, q - 1):
                M = self.vertical[(p, q)]
                r0 = self.block_start(n - 1, p)
                sign = -1 if p % 2 else 1
                D[r0 : r0 + M.shape[0], c0 : c0 + cols] += sign * M
        return D

    def verify(self) -> list[str]:
        """Check both squares and the commutation over the integers."""
        problems = []
        for (p, q), M in self.horizontal.items():
            left = self.horizontal.get((p - 1, q))
            if left is not None and left.size and M.size:
                if np.any(left @ M):
                    problems.append(f"horizontal square fails at ({p}, {q})")
        for (p, q), M in self.vertical.items():
            down = self.vertical.get((p, q - 1))
            if down is not None and down.size and M.size:
                if np.any(down @ M):
                    problems.append(f"vertical square fails at ({p}, {q})")
        for (p, q) in self.dims:
            if p >= 1 and q >= 1:
                hv = None
                h, v = self.horizontal.get((p, q)), self.vertical.get((p, q))
                vh = self.vertical.get((p - 1, q))
                hd = self.horizontal.get((p, q - 1))
                if h is None or v is None or vh is None or hd is None:
                    continue
                if np.any(vh @ h - hd @ v):
                    problems.append(f"faces do not commute at ({p}, {q})")
        return problems


def double_complex(trunc: SectionTruncation) -> DoubleComplex:
    """Assemble the integer double complex from a stored truncation.

    The basis of bidegree (p, q) concatenates the blocks of its words in
    :meth:`SectionTruncation.words` order; a section carries its height
    word, so one index per bidegree locates every face.
    """
    X = trunc.space
    s, N = trunc.subdivision, trunc.degree
    bases = {
        (p, q): [sec for w in trunc.words(p) for sec in trunc.block(w, q)]
        for p in range(min(s, N + 1) + 1)
        for q in range(N + 2 - p)
    }
    index = {pq: {sec: r for r, sec in enumerate(b)} for pq, b in bases.items()}
    horizontal: dict[tuple[int, int], np.ndarray] = {}
    vertical: dict[tuple[int, int], np.ndarray] = {}
    for (p, q), secs in bases.items():
        if p >= 1:
            below = (p - 1, q)
            rows = face_rows(X, secs, "h", index[below])
            horizontal[(p, q)] = face_sum_matrix(len(bases[below]), rows)
        if q >= 1:
            below = (p, q - 1)
            rows = face_rows(X, secs, "v", index[below])
            vertical[(p, q)] = face_sum_matrix(len(bases[below]), rows)
    return DoubleComplex(
        truncation=trunc,
        dims={pq: len(b) for pq, b in bases.items()},
        horizontal=horizontal,
        vertical=vertical,
    )


def total_complex(dc: DoubleComplex, field: PrimeField) -> ChainComplex:
    """The total chain complex, reliable in homology through degree N."""
    labels: dict[int, list[str]] = {}
    diffs: dict[int, np.ndarray] = {}
    for n in range(dc.window + 2):
        labs: list[str] = []
        for p in range(n + 1):
            labs.extend(f"({p},{n - p})#{i}" for i in range(dc.dim(p, n - p)))
        labels[n] = labs
        if n >= 1:
            diffs[n] = dc.total_differential(n)
    return ChainComplex(field, labels, diffs)


@dataclass
class Page:
    """One page of the spectral sequence over a fixed window.

    ``dims`` covers every bidegree with total degree at most the window;
    ``differentials[(p, q)]`` is the matrix of the page differential leaving
    (p, q), present whenever its target also lies in the window.
    """

    r: int
    window: int
    field: PrimeField
    dims: dict[tuple[int, int], int]
    entries: dict[tuple[int, int], Subquotient]
    differentials: dict[tuple[int, int], np.ndarray]

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def differential_rank(self, p: int, q: int) -> int:
        M = self.differentials.get((p, q))
        return self.field.rank(M) if M is not None and M.size else 0

    def nonzero(self) -> list[tuple[int, int, int]]:
        return [
            (p, q, d) for (p, q), d in sorted(self.dims.items()) if d > 0
        ]


class SpectralSequence:
    """Filtration-by-columns spectral sequence of a double complex."""

    def __init__(self, dc: DoubleComplex, field: PrimeField):
        self.dc = dc
        self.field = field
        self.window = dc.window
        self._D: dict[int, np.ndarray] = {
            n: field.reduce(dc.total_differential(n))
            for n in range(dc.window + 2)
        }
        self._pages: dict[int, Page] = {}

    def _filtration_dim(self, n: int, p: int) -> int:
        if n < 0 or p < 0:
            return 0
        return sum(self.dc.dim(i, n - i) for i in range(min(p, n) + 1))

    def _a_space(self, r: int, p: int, n: int) -> np.ndarray:
        """Column span of A[r, p] inside total degree n."""
        tdim = self.dc.total_dim(n) if n >= 0 else 0
        if n < 0 or p < 0:
            return np.zeros((tdim, 0), dtype=np.int64)
        fp = self._filtration_dim(n, p)
        prefix = np.eye(tdim, dtype=np.int64)[:, :fp]
        if r <= 0 or fp == 0:
            return prefix
        cut = self._filtration_dim(n - 1, p - r)
        rows = self._D[n][cut:, :fp] if n >= 1 else np.zeros((0, fp), dtype=np.int64)
        K = self.field.kernel(rows)
        out = np.zeros((tdim, K.shape[1]), dtype=np.int64)
        out[:fp] = K
        return out

    def entry(self, r: int, p: int, q: int) -> Subquotient:
        """The subquotient E[r](p, q), with stored representatives."""
        if r < 0:
            raise ValidationError("page index must be nonnegative")
        n = p + q
        if n > self.window:
            raise WindowError(
                f"entry ({p}, {q}) has total degree {n}, beyond the certified "
                f"window {self.window}",
                required_degree=n,
            )
        total = self._a_space(r, p, n)
        below = self._a_space(r - 1, p - 1, n)
        incoming = self.field.matmul(
            self._D[n + 1], self._a_space(r - 1, p + r - 1, n + 1)
        )
        sub = np.concatenate([below, incoming], axis=1)
        return Subquotient(self.field, total, sub)

    def page(self, r: int) -> Page:
        hit = self._pages.get(r)
        if hit is not None:
            return hit
        entries: dict[tuple[int, int], Subquotient] = {}
        dims: dict[tuple[int, int], int] = {}
        for n in range(self.window + 1):
            for p in range(n + 1):
                e = self.entry(r, p, n - p)
                entries[(p, n - p)] = e
                dims[(p, n - p)] = e.dimension
        diffs: dict[tuple[int, int], np.ndarray] = {}
        if r >= 1:
            for (p, q), src in entries.items():
                tgt = entries.get((p - r, q + r - 1))
                if tgt is None:
                    continue
                if src.dimension and tgt.dimension:
                    M = tgt.coords(
                        self.field.matmul(self._D[p + q], src.representatives)
                    )
                else:
                    M = np.zeros((tgt.dimension, src.dimension), dtype=np.int64)
                diffs[(p, q)] = M
        page = Page(
            r=r,
            window=self.window,
            field=self.field,
            dims=dims,
            entries=entries,
            differentials=diffs,
        )
        self._pages[r] = page
        return page

    def infinity(self) -> Page:
        """The stable page: the first page index past the subdivision number
        (every later differential leaves or enters the zero columns)."""
        return self.page(self.dc.truncation.subdivision + 1)


def reeb_consistency(
    trunc: SectionTruncation, field: PrimeField
) -> list[str]:
    """Cross-check pages 1 and 2 against the Reeb complexes.

    The first page must match the Reeb complex dimensions degree for
    degree, and the second page its homology, for every vertical degree the
    truncation can certify.  Returns discrepancies, empty when consistent.
    """
    ss = SpectralSequence(double_complex(trunc), field)
    e1, e2 = ss.page(1), ss.page(2)
    s, N = trunc.subdivision, trunc.degree
    problems: list[str] = []
    for q in range(N - s + 1):
        rc = reeb_complex(trunc, field, q)
        for p in range(s + 1):
            if p + q > N:
                continue
            if e1.dim(p, q) != rc.dim(p):
                problems.append(
                    f"page 1 entry ({p}, {q}) has dimension {e1.dim(p, q)} "
                    f"but the Reeb complex has {rc.dim(p)}"
                )
            if e2.dim(p, q) != rc.betti(p):
                problems.append(
                    f"page 2 entry ({p}, {q}) has dimension {e2.dim(p, q)} "
                    f"but the Reeb complex homology has {rc.betti(p)}"
                )
    return problems


@dataclass
class ConvergenceReport:
    """Degreewise comparison of four routes to the homology of the base."""

    window: int
    direct: list[int]
    total: list[int]
    diagonal: list[int]
    infinity_sums: list[int]
    collapse_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.direct == self.total == self.diagonal == self.infinity_sums
            and self.collapse_ok
        )

    def lines(self) -> list[str]:
        out = []
        for n in range(self.window + 1):
            status = (
                "ok"
                if self.direct[n] == self.total[n] == self.diagonal[n]
                == self.infinity_sums[n]
                else "MISMATCH"
            )
            out.append(
                f"degree {n}: direct={self.direct[n]} total={self.total[n]} "
                f"diagonal={self.diagonal[n]} stable-page={self.infinity_sums[n]} "
                f"[{status}]"
            )
        out.append(
            "collapse: "
            + ("stable page repeats" if self.collapse_ok else "STABLE PAGE MOVES")
        )
        return out


def convergence_check(
    X: SimplicialSet,
    h: HeightFunction,
    field: PrimeField,
    degree: int = 2,
    cap: int = DEFAULT_CAP,
) -> ConvergenceReport:
    """Compare homology of the base, the total complex, the diagonal and
    the stable page, through the given degree; also confirm the page after
    the stable one does not move."""
    trunc = build_truncation(X, h, degree=degree, cap=cap)
    dc = double_complex(trunc)
    ss = SpectralSequence(dc, field)

    labels, faces = X.chain_data(degree + 1)
    direct_cx = normalized_chains(field, labels, faces)
    total_cx = total_complex(dc, field)
    diag_cx = diagonal_chain_complex(X, h, field, top=degree + 1, cap=cap)

    s = trunc.subdivision
    stable = ss.page(s + 1)
    following = ss.page(s + 2)
    collapse_ok = all(
        stable.dim(p, n - p) == following.dim(p, n - p)
        for n in range(degree + 1)
        for p in range(n + 1)
    )
    return ConvergenceReport(
        window=degree,
        direct=[direct_cx.betti(n) for n in range(degree + 1)],
        total=[total_cx.betti(n) for n in range(degree + 1)],
        diagonal=[diag_cx.betti(n) for n in range(degree + 1)],
        infinity_sums=[
            sum(stable.dim(p, n - p) for p in range(n + 1))
            for n in range(degree + 1)
        ],
        collapse_ok=collapse_ok,
    )
