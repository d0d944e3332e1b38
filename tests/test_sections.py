import gc
import itertools
import weakref
from fractions import Fraction

import pytest

from secplex import (
    HeightFunction,
    ResourceLimitError,
    Section,
    SimplicialSet,
    build_truncation,
    enumerate_sections,
    evaluate_chain,
    is_degenerate,
    section_degeneracy,
    section_face,
    shuffle_chains,
)


from secplex.examples import cylinder
from secplex.sections import _diagonal_degenerate

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
    # not wait for a garbage-collection pass with all its caches
    X, h = cylinder()
    ref = weakref.ref(X)
    gc.disable()
    try:
        assert enumerate_sections(X, h, (0, 1), 1)
        del X, h
        assert ref() is None
    finally:
        gc.enable()
