import random

import numpy as np
import pytest

from secplex import (
    PrimeField,
    WindowError,
    build_truncation,
    convergence_check,
    double_complex,
    reeb_consistency,
    total_complex,
    SpectralSequence,
)
from secplex.examples import random_gluing

from conftest import unnormalized_betti


@pytest.fixture(scope="module")
def cylinder_dc(cylinder_pair):
    X, h = cylinder_pair
    return double_complex(build_truncation(X, h, degree=3))


def test_double_complex_squares_and_commutation(all_examples):
    for X, h in all_examples:
        dc = double_complex(build_truncation(X, h, degree=3))
        assert dc.verify() == []
        for n in range(1, dc.window + 2):
            D2 = dc.total_differential(n - 1) @ dc.total_differential(n)
            assert not D2.any(), f"total differential squares to {D2} at {n}"


def test_window_errors(cylinder_dc, gf2):
    with pytest.raises(WindowError):
        cylinder_dc.dim(0, 5)
    ss = SpectralSequence(cylinder_dc, gf2)
    with pytest.raises(WindowError) as err:
        ss.entry(2, 2, 2)
    assert err.value.required_degree == 4


def test_cylinder_first_page(cylinder_dc, gf2):
    ss = SpectralSequence(cylinder_dc, gf2)
    e1 = ss.page(1)
    assert [e1.dim(p, 0) for p in range(3)] == [3, 3, 2]
    assert e1.dim(0, 1) == 2
    assert e1.differential_rank(1, 0) == 2
    assert e1.differential_rank(2, 0) == 1


def test_cylinder_second_page_and_collapse(cylinder_dc, gf2):
    ss = SpectralSequence(cylinder_dc, gf2)
    e2 = ss.page(2)
    assert e2.nonzero() == [(0, 0, 1), (0, 1, 2), (2, 0, 1)]
    assert e2.differential_rank(2, 0) == 1
    e3, e4 = ss.page(3), ss.page(4)
    assert e3.nonzero() == [(0, 0, 1), (0, 1, 1)]
    assert e3.dims == e4.dims  # stable from page s + 1 = 3 on


def test_page_zero_dimensions_match_blocks(cylinder_dc, gf2):
    ss = SpectralSequence(cylinder_dc, gf2)
    e0 = ss.page(0)
    for n in range(cylinder_dc.window + 1):
        for p in range(n + 1):
            assert e0.dim(p, n - p) == cylinder_dc.dim(p, n - p)


def test_page_recurrence(all_examples, gf2):
    """dim E[r+1] = dim E[r] - rank(out) - rank(in), wherever the incoming
    differential's source still lies in the window."""
    for X, h in all_examples:
        dc = double_complex(build_truncation(X, h, degree=3))
        ss = SpectralSequence(dc, gf2)
        for r in range(1, 4):
            cur, nxt = ss.page(r), ss.page(r + 1)
            for (p, q), d in cur.dims.items():
                if p + q >= dc.window:
                    continue
                out = cur.differential_rank(p, q)
                inc = cur.differential_rank(p + r, q - r + 1)
                assert nxt.dim(p, q) == d - out - inc, (X.name, r, p, q)


def test_first_two_pages_match_reeb(all_examples, gf2, gf3):
    for X, h in all_examples:
        trunc = build_truncation(X, h, degree=3)
        for F in (gf2, gf3):
            assert reeb_consistency(trunc, F) == []


def test_total_complex_betti(all_examples, gf2):
    expected = {
        "sphere": [1, 0, 1],
        "sphere-subdivided": [1, 0, 1],
        "cylinder": [1, 1, 0],
    }
    for X, h in all_examples:
        dc = double_complex(build_truncation(X, h, degree=3))
        cx = total_complex(dc, gf2)
        assert [cx.betti(n) for n in range(3)] == expected[X.name]


def test_convergence_on_examples(all_examples, gf2):
    for X, h in all_examples:
        report = convergence_check(X, h, gf2, degree=2)
        assert report.ok, report.lines()


def test_convergence_on_random_gluings(gf2):
    rng = random.Random(421)
    for _ in range(5):
        X, h = random_gluing(rng, max_triangles=4)
        report = convergence_check(X, h, gf2, degree=2)
        assert report.ok, (X.name, report.lines())


def test_field_independence_of_dimensions(cylinder_pair):
    X, h = cylinder_pair
    dims = []
    for p in (2, 3, 32003):
        F = PrimeField(p)
        ss = SpectralSequence(
            double_complex(build_truncation(X, h, degree=3)), F
        )
        dims.append((ss.page(1).dims, ss.page(2).dims, ss.page(3).dims))
    assert dims[0] == dims[1] == dims[2]


def test_infinity_sums_match_homology(subdivided_pair, gf2):
    X, h = subdivided_pair
    dc = double_complex(build_truncation(X, h, degree=3))
    ss = SpectralSequence(dc, gf2)
    inf = ss.infinity()
    sums = [
        sum(inf.dim(p, n - p) for p in range(n + 1)) for n in range(3)
    ]
    assert sums == [1, 0, 1]
    # subdivided: collapse one page earlier (second page equals third)
    assert ss.page(2).dims == ss.page(3).dims


def test_convergence_at_the_default_window_on_flat_gluings(gf3):
    # subdivided gluings, flat triangles among them, at the default window
    # over GF(3); the base's Betti numbers come from the chain complex of
    # all simplices, degenerate ones included
    rng = random.Random(10)
    loops = 0
    for _ in range(8):
        X, h = random_gluing(rng, max_triangles=3, subdivided=True)
        report = convergence_check(X, h, gf3, degree=2)
        assert report.ok, (X.name, report.lines())
        assert report.direct == unnormalized_betti(X, gf3, 2)
        loops += report.direct[1] > 0
    assert loops  # some gluing closes a loop
