import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from secplex import (
    ChainComplex,
    LinAlgError,
    PrimeField,
    Subquotient,
    balanced_lift,
    induced_map,
    normalized_chains,
)

primes = st.sampled_from([2, 3, 5, 32003])


def matrices(max_dim=5, p=5):
    return st.tuples(
        st.integers(0, max_dim), st.integers(0, max_dim)
    ).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-p * 3, p * 3), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(shape))
    )


def test_prime_field_rejects_composites_and_huge_moduli():
    with pytest.raises(LinAlgError):
        PrimeField(4)
    with pytest.raises(LinAlgError):
        PrimeField(1)
    with pytest.raises(LinAlgError):
        PrimeField(2**31 + 11)
    PrimeField(32003)  # fine


@given(primes, matrices())
@settings(max_examples=60)
def test_rref_is_reduced_and_rank_sized(p, M):
    F = PrimeField(p)
    R, pivots = F.rref(M)
    assert len(pivots) <= min(M.shape)
    for r, c in enumerate(pivots):
        col = np.zeros(M.shape[0], dtype=np.int64)
        col[r] = 1
        assert np.array_equal(R[:, c], col)
    # rows beyond the rank vanish
    assert not R[len(pivots) :].any()


@given(primes, matrices())
@settings(max_examples=60)
def test_kernel_and_image_dimensions(p, M):
    F = PrimeField(p)
    K = F.kernel(M)
    I = F.image(M)
    assert K.shape[1] + I.shape[1] == M.shape[1]
    assert not F.matmul(M, K).any()
    assert F.rank(I) == I.shape[1] == F.rank(M)


@given(primes, matrices())
@settings(max_examples=40)
def test_solve_recovers_combinations(p, M):
    F = PrimeField(p)
    x = np.arange(M.shape[1], dtype=np.int64) % p
    b = F.matmul(M, x.reshape(-1, 1))
    y = F.solve(M, b[:, 0])
    assert np.array_equal(F.matmul(M, y.reshape(-1, 1)), b)


def test_solve_raises_on_inconsistency():
    F = PrimeField(3)
    M = np.array([[1], [0]], dtype=np.int64)
    with pytest.raises(LinAlgError):
        F.solve(M, np.array([0, 1], dtype=np.int64))


@given(primes)
def test_balanced_lift_small_and_faithful(p):
    F = PrimeField(p)
    values = np.arange(p, dtype=np.int64)
    lifted = balanced_lift(values, p)
    assert np.array_equal(F.reduce(lifted), values)
    assert (np.abs(lifted) <= p // 2 + (p % 2 == 0)).all()


def test_subquotient_dimension_and_coords():
    F = PrimeField(5)
    total = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int64)
    sub = np.array([[1], [1], [0]], dtype=np.int64)
    Q = Subquotient(F, total, sub)
    assert Q.dimension == 1
    z = np.array([2, 4, 0], dtype=np.int64)  # = 2*(e0+e1) + 2*e1
    coords = Q.coords(z)
    assert coords.shape == (1,)
    # the class of z equals coords . representatives modulo the subspace
    rep = F.matmul(Q.representatives, coords.reshape(-1, 1))[:, 0]
    diff = F.reduce(z - rep)
    assert F.rank(np.concatenate([sub, diff.reshape(-1, 1)], axis=1)) == 1


def test_subquotient_requires_containment():
    F = PrimeField(2)
    total = np.array([[1], [0]], dtype=np.int64)
    sub = np.array([[0], [1]], dtype=np.int64)
    with pytest.raises(LinAlgError):
        Subquotient(F, total, sub)


def circle_complex(field):
    labels = {0: ["v", "w"], 1: ["e", "f"]}
    d1 = np.array([[-1, 1], [1, -1]], dtype=np.int64)
    return ChainComplex(field, labels, {1: d1})


def test_chain_complex_homology_circle(gf2, gf3):
    for F in (gf2, gf3):
        cx = circle_complex(F)
        assert cx.betti(0) == 1 and cx.betti(1) == 1 and cx.betti(2) == 0
        assert cx.betti_numbers(2) == [1, 1, 0]


def test_chain_complex_rejects_nonsquaring_differentials(gf2):
    labels = {0: ["a"], 1: ["b"], 2: ["c"]}
    d1 = np.array([[1]], dtype=np.int64)
    d2 = np.array([[1]], dtype=np.int64)
    with pytest.raises(LinAlgError, match="square"):
        ChainComplex(gf2, labels, {1: d1, 2: d2})


def test_chain_complex_rejects_bad_shape(gf2):
    labels = {0: ["a", "b"], 1: ["c"]}
    with pytest.raises(LinAlgError, match="shape"):
        ChainComplex(gf2, labels, {1: np.zeros((1, 1), dtype=np.int64)})


def test_induced_map_identity_and_homotopy_class(gf3):
    cx = circle_complex(gf3)
    ident = {0: np.eye(2, dtype=np.int64), 1: np.eye(2, dtype=np.int64)}
    for n in (0, 1):
        M = induced_map(cx, cx, ident, n)
        assert M.shape == (cx.betti(n), cx.betti(n))
        assert gf3.rank(M) == cx.betti(n)


def test_induced_map_checks_chain_map_square(gf2):
    cx = circle_complex(gf2)
    bad = {0: np.array([[1, 0], [0, 0]], dtype=np.int64),
           1: np.eye(2, dtype=np.int64)}
    with pytest.raises(LinAlgError, match="chain map"):
        induced_map(cx, cx, bad, 1)


def test_normalized_chains_drops_degenerate_faces(gf2):
    # one vertex, one loop edge whose faces are both that vertex, plus a
    # 2-generator with one degenerate face (None): torus-like bookkeeping
    labels = {0: ["v"], 1: ["e"], 2: ["t"]}
    faces = {1: [["v", "v"]], 2: [["e", None, "e"]]}
    cx = normalized_chains(gf2, labels, faces)
    d2 = cx.differential(2)
    # entries: +e (face 0), skipped None, +e (face 2) -> 1 + 1 = 2 = 0 mod 2
    assert d2.shape == (1, 1) and cx.betti(1) in (0, 1)
    assert np.array_equal(cx.differential(1), np.zeros((1, 1)))


def test_normalized_betti_match_unnormalized(all_examples, gf2, gf3):
    from conftest import unnormalized_betti

    for X, _ in all_examples:
        for F in (gf2, gf3):
            labels, faces = X.chain_data(3)
            cx = normalized_chains(F, labels, faces)
            assert [cx.betti(n) for n in range(3)] == unnormalized_betti(X, F, 2)


# -- oracles: the dense elimination and four-rref subquotient it replaced ----


def dense_rref(p, M):
    """Eliminate every row against every pivot over the whole matrix."""
    R = np.asarray(M, dtype=np.int64) % p
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        inv = pow(int(R[r, c]), p - 2, p)
        R[r] = (R[r] * inv) % p
        col = R[:, c].copy()
        col[r] = 0
        R = (R - np.outer(col, R[r])) % p
        pivots.append(c)
        r += 1
    return R, pivots


def dense_kernel(p, M):
    M = np.asarray(M, dtype=np.int64) % p
    R, pivots = dense_rref(p, M)
    free = [c for c in range(M.shape[1]) if c not in pivots]
    K = np.zeros((M.shape[1], len(free)), dtype=np.int64)
    for idx, fc in enumerate(free):
        K[fc, idx] = 1
        for row, pc in enumerate(pivots):
            K[pc, idx] = (-int(R[row, fc])) % p
    return K


def four_rref_subquotient(p, total, sub):
    """(representatives, dimension), or None where sub is not in total."""
    total = np.asarray(total, dtype=np.int64) % p
    sub = np.asarray(sub, dtype=np.int64) % p
    rank = lambda M: len(dense_rref(p, M)[1])
    if rank(total) != rank(np.concatenate([total, sub], axis=1)):
        return None
    sub_basis = sub[:, dense_rref(p, sub)[1]]
    k = sub_basis.shape[1]
    _, pivots = dense_rref(p, np.concatenate([sub_basis, total], axis=1))
    reps = total[:, [pv - k for pv in pivots if pv >= k]]
    return reps, reps.shape[1]


oracle_primes = st.sampled_from([2, 3, 32003])


@st.composite
def field_matrices(draw, max_rows=12, max_cols=24):
    """A prime and a matrix over it, mostly zeros or fully drawn."""
    p = draw(oracle_primes)
    shape = (draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols)))
    sparse = draw(st.booleans())
    M = draw(
        arrays(
            np.int64,
            shape,
            elements=st.integers(-3 * p, 3 * p),
            fill=st.just(0) if sparse else st.nothing(),
        )
    )
    return p, M


@given(field_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_and_kernel_match_dense_elimination(pm):
    p, M = pm
    F = PrimeField(p)
    R, pivots = F.rref(M)
    R0, pivots0 = dense_rref(p, M)
    assert pivots == pivots0
    assert R.dtype == np.int64 and np.array_equal(R, R0)
    assert np.array_equal(F.kernel(M), dense_kernel(p, M))


@given(field_matrices(max_cols=12), st.data())
@settings(max_examples=200, deadline=None)
def test_subquotient_matches_four_rref_construction(pm, data):
    p, total = pm
    F = PrimeField(p)
    # sub spans combinations of total's columns, plus maybe stray columns
    k = data.draw(st.integers(0, 12))
    C = data.draw(arrays(np.int64, (total.shape[1], k), elements=st.integers(0, p - 1)))
    stray = data.draw(
        arrays(np.int64, (total.shape[0], data.draw(st.integers(0, 2))),
               elements=st.integers(0, p - 1), fill=st.just(0))
    )
    sub = np.concatenate([F.matmul(total, C), stray], axis=1)
    expected = four_rref_subquotient(p, total, sub)
    if expected is None:
        with pytest.raises(LinAlgError, match="not contained"):
            Subquotient(F, total, sub)
        return
    Q = Subquotient(F, total, sub)
    reps, dim = expected
    assert Q.dimension == dim
    assert np.array_equal(Q.representatives, reps)


@given(field_matrices(max_cols=12), st.data())
@settings(max_examples=100, deadline=None)
def test_coords_of_a_matrix_are_its_column_coords(pm, data):
    p, total = pm
    F = PrimeField(p)
    C = data.draw(
        arrays(np.int64, (total.shape[1], data.draw(st.integers(0, 4))),
               elements=st.integers(0, p - 1))
    )
    W = data.draw(
        arrays(np.int64, (total.shape[1], data.draw(st.integers(0, 5))),
               elements=st.integers(0, p - 1))
    )
    Q = Subquotient(F, total, F.matmul(total, C))
    Z = F.matmul(total, W)
    got = Q.coords(Z)
    assert got.shape == (Q.dimension, Z.shape[1])
    for j in range(Z.shape[1]):
        assert np.array_equal(got[:, j], Q.coords(Z[:, j]))


# -- wide GF(2) matrices: the packed elimination against the dense oracle ----


@pytest.mark.parametrize("cols", [0, 1, 7, 8, 9, 63, 64, 65, 130, 417])
@pytest.mark.parametrize("rows", [0, 1, 5, 182])
def test_gf2_rref_matches_dense_elimination_on_wide_matrices(rows, cols):
    F = PrimeField(2)
    rng = np.random.default_rng(1000 * rows + cols)
    values = rng.integers(-6, 7, size=(rows, cols))
    sparse = values * (rng.random((rows, cols)) < 0.03)
    for M in (sparse, values):
        for view in (M, M[:, ::2], M[3:, :]):
            before = view.copy()
            R, pivots = F.rref(view)
            R0, pivots0 = dense_rref(2, view)
            assert pivots == pivots0
            assert R.dtype == np.int64 and R.flags.writeable
            assert R.flags.owndata and np.array_equal(R, R0)
            assert np.array_equal(view, before)
            assert np.array_equal(F.kernel(view), dense_kernel(2, view))
