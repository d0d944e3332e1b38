import gc
import itertools
import random
import re
import weakref
from fractions import Fraction

import pytest

from secplex import (
    HeightFunction,
    PrimeField,
    ResourceLimitError,
    Section,
    SimplicialSet,
    ValidationError,
    build_truncation,
    diagonal_chain_complex,
    enumerate_sections,
    evaluate_chain,
    is_degenerate,
    section_degeneracy,
    section_face,
    shuffle_chains,
)


from secplex.examples import cylinder
from secplex.sections import _diagonal_degenerate, _fixed_by_move, _operate, _plan
from secplex.simplicial import delta_vertex, sigma_vertex

from conftest import all_chains, naive_sections


def weakly_increasing_words(levels, length):
    return list(itertools.combinations_with_replacement(levels, length))


def test_shuffle_chain_count_and_order():
    from math import comb

    for p in range(4):
        for q in range(4):
            chains = shuffle_chains(p, q)
            assert len(chains) == comb(p + q, p)
            assert list(chains) == sorted(chains)
            assert list(chains) == all_chains(p, q)


def test_enumeration_matches_naive_oracle(all_examples):
    for X, h in all_examples:
        levels = h.levels
        for total in range(4):
            for p in range(total + 1):
                q = total - p
                for word in weakly_increasing_words(levels, p + 1):
                    got = sorted(enumerate_sections(X, h, word, q))
                    want = naive_sections(X, h, word, q)
                    assert got == want, (X.name, word, q)


def test_sphere_top_sections(sphere_pair):
    X, h = sphere_pair
    secs = enumerate_sections(X, h, (0, 1, 2), 0)
    assert [X.label(s.images[0]) for s in secs] == ["a", "b"]


def test_subdivided_sphere_has_no_skip_sections(subdivided_pair):
    X, h = subdivided_pair
    assert enumerate_sections(X, h, (Fraction(0), Fraction(2)), 0) == []
    assert enumerate_sections(X, h, (0, 1, 2), 0) == []


def test_resource_cap(cylinder_pair):
    X, h = cylinder_pair
    with pytest.raises(ResourceLimitError, match="over 0,1 at vertical degree 2"):
        enumerate_sections(X, h, (0, 1), 2, cap=3)


def test_resource_cap_names_chain_and_bucket():
    X, h = cylinder()
    with pytest.raises(ResourceLimitError) as err:
        enumerate_sections(X, h, (0, 1), 2, cap=3)
    assert str(err.value).startswith(
        "section enumeration over 0,1 at vertical degree 2 exceeded the cap "
        "of 3 candidates, at chain "
    )
    # the first chain's candidates are its whole bucket
    bucket = [s for s in X.simplices(3) if h.vertex_heights(s) == (0, 0, 0, 1)]
    assert len(bucket) > 3
    assert str(err.value).endswith(f"at chain 1 of 3, whose bucket holds {len(bucket)} simplices")


def test_impossible_word_inspects_nothing(subdivided_pair):
    # no edge of the subdivided sphere joins heights 0 and 2, so the word
    # has no sections and a zero cap is never reached
    X, h = subdivided_pair
    assert enumerate_sections(X, h, (0, 2), 0, cap=0) == []


def test_truncation_lists_each_dimension_once():
    X, h = cylinder()
    calls = []
    listing = X.simplices

    def counted(n):
        calls.append(n)
        return listing(n)

    X.simplices = counted
    trunc = build_truncation(X, h, degree=2)
    assert sum(len(secs) for secs in trunc.blocks.values()) > 0
    assert len(calls) == len(set(calls))


# -- the product square, where the identity section lives --------------------


@pytest.fixture(scope="module")
def square_pair():
    X = SimplicialSet(
        [
            ["00", "01", "10", "11"],
            ["e_b", "e_l", "e_r", "e_t", "diag"],
            ["tv", "th"],
        ],
        {
            "e_b": [((), "01"), ((), "00")],
            "e_l": [((), "10"), ((), "00")],
            "e_r": [((), "11"), ((), "01")],
            "e_t": [((), "11"), ((), "10")],
            "diag": [((), "11"), ((), "00")],
            "tv": [((), "e_r"), ((), "diag"), ((), "e_b")],
            "th": [((), "e_t"), ((), "diag"), ((), "e_l")],
        },
        name="square",
    )
    h = HeightFunction(X, {"00": 0, "01": 0, "10": 1, "11": 1})
    assert X.validate() == []
    return X, h


def test_square_identity_section(square_pair):
    X, h = square_pair
    secs = enumerate_sections(X, h, (0, 1), 1)
    assert len(secs) == 6
    tv, th = X.ref("tv"), X.ref("th")
    identity = Section(p=1, q=1, heights=(Fraction(0), Fraction(1)), images=(tv, th))
    assert identity in secs
    assert not is_degenerate(X, identity, "v")
    assert not is_degenerate(X, identity, "h")
    nondeg = [s for s in secs if not is_degenerate(X, s, "v")]
    assert len(nondeg) == 3 and identity in nondeg


def test_square_matches_naive(square_pair):
    X, h = square_pair
    for word in [(0,), (1,), (0, 1), (0, 0), (1, 1), (0, 0, 1)]:
        for q in range(3 - len(word) + 2):
            got = sorted(enumerate_sections(X, h, word, q))
            assert got == naive_sections(X, h, word, q)


# -- face and degeneracy structure on sections --------------------------------


def _sample_sections(X, h, max_total=3, limit=40):
    out = []
    for total in range(max_total + 1):
        for p in range(total + 1):
            q = total - p
            for word in weakly_increasing_words(h.levels, p + 1):
                out.extend(
                    (p, q, s) for s in enumerate_sections(X, h, word, q)
                )
    return out[:limit]


def test_section_face_identities(all_examples):
    for X, h in all_examples:
        for p, q, sec in _sample_sections(X, h):
            if q >= 2:
                for j in range(q + 1):
                    for i in range(j):
                        assert section_face(
                            X, section_face(X, sec, "v", j), "v", i
                        ) == section_face(X, section_face(X, sec, "v", i), "v", j - 1)
            if p >= 2:
                for j in range(p + 1):
                    for i in range(j):
                        assert section_face(
                            X, section_face(X, sec, "h", j), "h", i
                        ) == section_face(X, section_face(X, sec, "h", i), "h", j - 1)
            if p >= 1 and q >= 1:
                for i in range(p + 1):
                    for j in range(q + 1):
                        assert section_face(
                            X, section_face(X, sec, "h", i), "v", j
                        ) == section_face(X, section_face(X, sec, "v", j), "h", i)


def test_section_degeneracy_face_inverses(all_examples):
    for X, h in all_examples:
        for p, q, sec in _sample_sections(X, h, max_total=2, limit=25):
            for j in range(q + 1):
                up = section_degeneracy(X, sec, "v", j)
                assert section_face(X, up, "v", j) == sec
                assert section_face(X, up, "v", j + 1) == sec
                assert is_degenerate(X, up, "v")
            for j in range(p + 1):
                up = section_degeneracy(X, sec, "h", j)
                assert section_face(X, up, "h", j) == sec
                assert section_face(X, up, "h", j + 1) == sec
                assert is_degenerate(X, up, "h")


def test_evaluate_chain_on_maximal_and_weak_chains(square_pair):
    X, h = square_pair
    secs = enumerate_sections(X, h, (0, 1), 1)
    chains = shuffle_chains(1, 1)
    for sec in secs:
        for k, chain in enumerate(chains):
            assert evaluate_chain(X, sec, chain) == sec.images[k]
        # a weak chain repeating a point gives the degenerate image
        weak = ((0, 0), (0, 0), (0, 1), (1, 1))
        strict = ((0, 0), (0, 1), (1, 1))
        assert evaluate_chain(X, sec, weak) == X.degeneracy(
            evaluate_chain(X, sec, strict), 0
        )
        # a sub-chain evaluates to a face of a completing maximal chain
        sub = ((0, 0), (1, 1))
        img = evaluate_chain(X, sec, sub)
        assert img == X.face(evaluate_chain(X, sec, strict), 1)


# -- truncation ----------------------------------------------------------------


def test_truncation_blocks(cylinder_pair):
    X, h = cylinder_pair
    t1 = build_truncation(X, h, degree=2)
    assert t1.subdivision == 2
    # frozen interval section counts along the bottom row
    def count(word, q=0):
        return len(t1.block(tuple(Fraction(a) for a in word), q))

    assert count((0, 1)) == 5 + 0  # five spanning edges, none degenerate
    assert count((1, 2)) == 3
    assert count((0, 2)) == 3
    assert count((0, 1, 2)) == 2


def test_truncation_window_error(cylinder_pair):
    from secplex import WindowError

    X, h = cylinder_pair
    trunc = build_truncation(X, h, degree=1)
    with pytest.raises(WindowError) as err:
        trunc.block((Fraction(0), Fraction(1)), 2)
    assert err.value.required_degree == 2
    assert str(err.value).endswith("requested 3 over 0,1 at vertical degree 2")


def test_diagonal_degeneracy_matches_face_then_degeneracy(all_examples):
    # the chain test must agree with building s_j^h s_j^v d_j^v d_j^h of
    # the section and comparing, on every (n, n)-section of the examples
    def rebuilt(X, sec):
        for j in range(sec.p):
            f = section_face(X, section_face(X, sec, "h", j), "v", j)
            up = section_degeneracy(X, section_degeneracy(X, f, "v", j), "h", j)
            if up == sec:
                return True
        return False

    seen = set()
    for X, h in all_examples:
        for n in (1, 2):
            for word in weakly_increasing_words(h.levels, n + 1):
                for sec in enumerate_sections(X, h, word, n):
                    expected = rebuilt(X, sec)
                    assert _diagonal_degenerate(X, sec) == expected
                    seen.add(expected)
    assert seen == {True, False}


def test_degeneracy_matches_face_then_degeneracy(all_examples):
    # the chain test must agree with building s_j d_j of the section in the
    # same direction and comparing, on every section up to total degree 3
    def rebuilt(X, sec, direction):
        top = sec.p if direction == "h" else sec.q
        return any(
            section_degeneracy(X, section_face(X, sec, direction, j), direction, j)
            == sec
            for j in range(top)
        )

    seen = {"h": set(), "v": set()}
    for X, h in all_examples:
        for total in range(4):
            for p in range(total + 1):
                for word in weakly_increasing_words(h.levels, p + 1):
                    for sec in enumerate_sections(X, h, word, total - p):
                        for direction in ("h", "v"):
                            expected = rebuilt(X, sec, direction)
                            assert is_degenerate(X, sec, direction) == expected
                            seen[direction].add(expected)
    assert seen == {"h": {True, False}, "v": {True, False}}


def test_enumeration_leaves_no_reference_cycle():
    # a space must be freed by reference counting once its caller drops it,
    # not wait for a garbage-collection pass with all its caches; the
    # process-wide plan caches must not hold it either
    X, h = cylinder()
    ref = weakref.ref(X)
    gc.disable()
    try:
        secs = enumerate_sections(X, h, (0, 1), 1)
        assert secs
        for direction in ("h", "v"):
            section_face(X, secs[0], direction, 0)
            section_degeneracy(X, secs[0], direction, 1)
        assert diagonal_chain_complex(X, h, PrimeField(2), top=2).dim(1) > 0
        del X, h, secs
        assert ref() is None
    finally:
        gc.enable()


def test_repeated_face_reuses_its_plan(cylinder_pair):
    X, h = cylinder_pair
    sec = enumerate_sections(X, h, (0, 1), 1)[0]
    first = section_face(X, sec, "v", 1)
    hits = _plan.cache_info().hits
    assert section_face(X, sec, "v", 1) == first
    assert _plan.cache_info().hits == hits + 1


# -- oracle: the symbolic operators that the cached plans replaced -------------
#
# Copies of the recursive chain evaluation, the mapped-section faces and
# degeneracies and the chain-by-chain degeneracy test, as they were before
# section operators became cached integer plans.  Only the cache moved: it
# is kept per space here instead of on the space.

_oracle_caches = weakref.WeakKeyDictionary()


def old_evaluate_chain(X, sec, chain):
    cache = _oracle_caches.setdefault(X, {})
    key = (sec.p, sec.q, sec.images, chain)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if not chain:
        raise ValidationError("cannot evaluate a section on the empty chain")
    for (i, j) in chain:
        if not (0 <= i <= sec.p and 0 <= j <= sec.q):
            raise ValidationError(f"chain point {(i, j)} outside the grid")
    for k in range(len(chain) - 1):
        (i0, j0), (i1, j1) = chain[k], chain[k + 1]
        if i1 < i0 or j1 < j0:
            raise ValidationError(f"chain is not monotone at position {k}")
        if (i0, j0) == (i1, j1):
            sub = chain[: k + 1] + chain[k + 2 :]
            result = X.degeneracy(old_evaluate_chain(X, sec, sub), k)
            cache[key] = result
            return result

    chain_index = {c: k for k, c in enumerate(shuffle_chains(sec.p, sec.q))}
    index = chain_index.get(chain)
    if index is not None:
        result = sec.images[index]
        cache[key] = result
        return result

    anchors = set(chain)
    waypoints = list(chain)
    if waypoints[0] != (0, 0):
        waypoints.insert(0, (0, 0))
    if waypoints[-1] != (sec.p, sec.q):
        waypoints.append((sec.p, sec.q))
    full = [waypoints[0]]
    for (i0, j0), (i1, j1) in zip(waypoints, waypoints[1:]):
        full.extend((i, j0) for i in range(i0 + 1, i1 + 1))
        full.extend((i1, j) for j in range(j0 + 1, j1 + 1))
    value = sec.images[chain_index[tuple(full)]]
    for pos in range(len(full) - 1, -1, -1):
        if full[pos] not in anchors:
            value = X.face(value, pos)
    cache[key] = value
    return value


def old_mapped_section(X, sec, p, q, heights, point_map):
    images = tuple(
        old_evaluate_chain(X, sec, tuple(point_map(pt) for pt in chain))
        for chain in shuffle_chains(p, q)
    )
    return Section(p, q, heights, images)


def old_section_face(X, sec, direction, i):
    if direction == "h":
        heights = sec.heights[:i] + sec.heights[i + 1 :]
        return old_mapped_section(
            X, sec, sec.p - 1, sec.q, heights,
            lambda pt: (delta_vertex(i, pt[0]), pt[1]),
        )
    return old_mapped_section(
        X, sec, sec.p, sec.q - 1, sec.heights,
        lambda pt: (pt[0], delta_vertex(i, pt[1])),
    )


def old_section_degeneracy(X, sec, direction, j):
    if direction == "h":
        heights = sec.heights[: j + 1] + sec.heights[j:]
        return old_mapped_section(
            X, sec, sec.p + 1, sec.q, heights,
            lambda pt: (sigma_vertex(j, pt[0]), pt[1]),
        )
    return old_mapped_section(
        X, sec, sec.p, sec.q + 1, sec.heights,
        lambda pt: (pt[0], sigma_vertex(j, pt[1])),
    )


def old_fixed_by_move(X, sec, j, axes):
    across, up = "h" in axes, "v" in axes
    if across and sec.heights[j] != sec.heights[j + 1]:
        return False
    for chain, image in zip(shuffle_chains(sec.p, sec.q), sec.images):
        moved = tuple(
            (j + 1 if across and a == j else a, j + 1 if up and b == j else b)
            for a, b in chain
        )
        if old_evaluate_chain(X, sec, moved) != image:
            return False
    return True


def old_is_degenerate(X, sec, direction):
    top = sec.p if direction == "h" else sec.q
    return any(old_fixed_by_move(X, sec, j, direction) for j in range(top))


def old_diagonal_degenerate(X, sec):
    return any(old_fixed_by_move(X, sec, j, "hv") for j in range(sec.p))


def _oracle_spaces():
    """The examples and seeded random gluings, strict and subdivided (the
    subdivided ones include flat triangles)."""
    from secplex.examples import random_gluing, sphere, sphere_subdivided

    pairs = [sphere(), sphere_subdivided(), cylinder()]
    rng = random.Random(2718)
    for k in range(6):
        pairs.append(random_gluing(rng, max_triangles=3, subdivided=k % 2 == 1))
    return pairs


def _all_sections(X, h, max_total):
    for total in range(max_total + 1):
        for p in range(total + 1):
            for word in weakly_increasing_words(h.levels, p + 1):
                yield from enumerate_sections(X, h, word, total - p)


def _derived_chains(chain):
    """Strict and weak chains built from one maximal chain: every nonempty
    subchain, each with one point repeated, and each with its first point
    tripled and its last point doubled."""
    out = []
    for size in range(1, len(chain) + 1):
        for sub in itertools.combinations(chain, size):
            out.append(sub)
            out.extend(sub[: u + 1] + sub[u:] for u in range(size))
            out.append(sub[:1] * 2 + sub + sub[-1:])
    return out


@pytest.fixture(scope="module")
def oracle_cases():
    return [(X, list(_all_sections(X, h, 4))) for X, h in _oracle_spaces()]


def test_plans_match_symbolic_faces_and_degeneracies(oracle_cases):
    for X, secs in oracle_cases:
        for sec in secs:
            for direction, top in (("h", sec.p), ("v", sec.q)):
                for i in range(top + 1):
                    if top:
                        assert section_face(X, sec, direction, i) == old_section_face(
                            X, sec, direction, i
                        ), (X.name, sec, direction, i)
                    assert section_degeneracy(
                        X, sec, direction, i
                    ) == old_section_degeneracy(X, sec, direction, i)


def test_plans_match_symbolic_diagonal_faces(oracle_cases):
    for X, secs in oracle_cases:
        for sec in secs:
            if sec.p == sec.q > 0:
                for i in range(sec.p + 1):
                    nested = old_section_face(X, old_section_face(X, sec, "h", i), "v", i)
                    assert _operate(X, sec, "face", "hv", i) == nested


def test_word_test_matches_chain_test(oracle_cases):
    seen = {"h": set(), "v": set(), "hv": set()}
    for X, secs in oracle_cases:
        for sec in secs:
            diagonal = sec.p if sec.p == sec.q else 0
            for axes, top in (("h", sec.p), ("v", sec.q), ("hv", diagonal)):
                for j in range(top):
                    expected = old_fixed_by_move(X, sec, j, axes)
                    assert _fixed_by_move(sec, j, axes) == expected, (X.name, sec, j)
                    seen[axes].add(expected)
            for direction in ("h", "v"):
                assert is_degenerate(X, sec, direction) == old_is_degenerate(
                    X, sec, direction
                )
            if sec.p == sec.q:
                assert _diagonal_degenerate(X, sec) == old_diagonal_degenerate(X, sec)
    assert all(outcomes == {True, False} for outcomes in seen.values())


def test_recipes_match_symbolic_chain_evaluation(oracle_cases):
    for X, secs in oracle_cases:
        for sec in secs:
            if sec.p + sec.q > 3:
                continue
            for chain in shuffle_chains(sec.p, sec.q):
                for weak in _derived_chains(chain):
                    assert evaluate_chain(X, sec, weak) == old_evaluate_chain(
                        X, sec, weak
                    ), (X.name, sec, weak)


def test_recipes_raise_as_symbolic_evaluation(square_pair):
    X, h = square_pair
    sec = enumerate_sections(X, h, (0, 1), 1)[0]
    bad = [(), ((0, 0), (2, 0)), ((0, 1), (0, 0)), ((0, 0), (0, 0), (1, 0), (0, 1))]
    for chain in bad:
        with pytest.raises(ValidationError) as want:
            old_evaluate_chain(X, sec, chain)
        with pytest.raises(ValidationError, match=re.escape(str(want.value))):
            evaluate_chain(X, sec, chain)
