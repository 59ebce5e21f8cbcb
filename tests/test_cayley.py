"""Ball enumeration, growth verdicts, and the regular pair search."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthcert.cayley import (
    RegularPair,
    charpoly_is_squarefree,
    enumerate_ball,
    estimate_omega,
    find_regular_pair,
    generated_algebra_dimension,
    integer_nth_root,
    nth_root_floor,
    shemesh_no_common_eigenvector,
)
from growthcert.errors import BudgetExceeded, InsufficientData, PairNotFound
from growthcert.exactnum import ARCH, SquareMatrix, Word, row_reduce


def sanov_gens():
    return [
        SquareMatrix.from_rows([[1, 2], [0, 1]]),
        SquareMatrix.from_rows([[1, 0], [2, 1]]),
    ]


def heisenberg_gens():
    e12 = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    e23 = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    return [SquareMatrix.from_rows(e12), SquareMatrix.from_rows(e23)]


def test_sanov_ball_sizes_match_free_group_recurrence():
    # the generators satisfy no relation, so ball sizes follow the rank-2
    # free group count: sphere(1) = 4, sphere(n) = 3 * sphere(n-1)
    report = enumerate_ball(sanov_gens(), 6)
    expected = [1]
    sphere = 4
    for _ in range(6):
        expected.append(expected[-1] + sphere)
        sphere *= 3
    assert list(report.ball_sizes) == list(enumerate(expected))
    assert report.ball_sizes[-1] == (6, 1457)
    assert report.alphabet_size == 4
    assert not report.exhausted
    assert report.verdict == "exponential-evidence"


def test_heisenberg_growth_is_quartic():
    report = enumerate_ball(heisenberg_gens(), 12)
    assert report.ball_sizes[-1] == (12, 8871)
    assert report.poly_fit_degree == 4
    assert report.verdict == "polynomial-evidence"


def test_finite_group_exhausts():
    # order-4 rotation: the ball stabilizes at 4 elements
    rot = SquareMatrix.from_rows([[0, -1], [1, 0]])
    report = enumerate_ball([rot], 10)
    assert report.exhausted
    assert report.ball_sizes[-1][1] == 4
    assert report.verdict == "polynomial-evidence"
    assert report.poly_fit_degree == 0
    assert estimate_omega(report) == 1


def test_identity_generator_exhausts():
    report = enumerate_ball([SquareMatrix.identity(2)], 3)
    assert report.exhausted
    assert all(c == 1 for _, c in report.ball_sizes)
    assert estimate_omega(report) == 1


def test_budget_exceeded_keeps_completed_radii():
    with pytest.raises(BudgetExceeded) as info:
        enumerate_ball(sanov_gens(), 10, budget=30)
    partial = info.value.partial
    assert partial.ball_sizes[0] == (0, 1)
    full = [1, 5, 17, 53, 161, 485, 1457]
    for n, c in partial.ball_sizes:
        assert c == full[n]
    assert len(partial.ball_sizes) < 11


def test_enumerate_ball_rejects_negative_radius():
    with pytest.raises(ValueError):
        enumerate_ball(sanov_gens(), -1)


def test_integer_nth_root_exact():
    rng = random.Random(50)
    for _ in range(300):
        x = rng.randint(0, 10**12)
        n = rng.randint(1, 6)
        r = integer_nth_root(x, n)
        assert r**n <= x < (r + 1) ** n
    assert integer_nth_root(0, 3) == 0
    with pytest.raises(ValueError):
        integer_nth_root(-1, 2)
    with pytest.raises(ValueError):
        integer_nth_root(4, 0)


def test_nth_root_floor_is_certified_dyadic():
    rng = random.Random(51)
    step = F(1, 2**20)
    for _ in range(100):
        c = rng.randint(1, 10**9)
        n = rng.randint(1, 8)
        q = nth_root_floor(c, n)
        assert q**n <= c < (q + step) ** n
        assert (2**20) % q.denominator == 0


def test_estimate_omega_sanov():
    report = enumerate_ball(sanov_gens(), 6)
    omega = estimate_omega(report)
    assert omega == F(882639, 262144)
    # the deepest certified bound: omega^6 <= 1457 on the nose
    assert omega**6 <= 1457 < (omega + F(1, 2**20)) ** 6
    assert 3 < omega < F(7, 2)


def test_estimate_omega_needs_two_radii():
    report = enumerate_ball(sanov_gens(), 1)
    with pytest.raises(InsufficientData):
        estimate_omega(report)


def test_charpoly_squarefree_gate():
    assert not charpoly_is_squarefree(SquareMatrix.from_rows([[1, 1], [0, 1]]))
    assert charpoly_is_squarefree(SquareMatrix.from_rows([[5, 2], [2, 1]]))


def test_shemesh_detects_shared_eigenvector():
    a, b = sanov_gens()
    assert shemesh_no_common_eigenvector(a * b, b * a)
    # two upper triangulars share e1
    u = SquareMatrix.from_rows([[2, 1], [0, F(1, 2)]])
    w = SquareMatrix.from_rows([[3, 0], [0, F(1, 3)]])
    assert not shemesh_no_common_eigenvector(u, w)
    assert not shemesh_no_common_eigenvector(a, a)


def test_generated_algebra_dimension_cases():
    a, b = sanov_gens()
    assert generated_algebra_dimension(a, b) == 4
    d1 = SquareMatrix.from_rows([[2, 0], [0, F(1, 2)]])
    d2 = SquareMatrix.from_rows([[3, 0], [0, F(1, 3)]])
    assert generated_algebra_dimension(d1, d2) == 2
    i = SquareMatrix.identity(2)
    assert generated_algebra_dimension(i, i) == 1


@st.composite
def _shaped_pair(draw):
    # a shared zero pattern keeps the algebra inside diagonal, triangular or
    # block matrices, so dimensions below n^2 come up too
    n = draw(st.integers(2, 3))
    shape = draw(st.sampled_from(["full", "upper", "diagonal", "block"]))
    keep = {
        "full": lambda i, j: True,
        "upper": lambda i, j: i <= j,
        "diagonal": lambda i, j: i == j,
        "block": lambda i, j: i == j or (i < n - 1 and j < n - 1),
    }[shape]

    def matrix():
        return SquareMatrix.from_rows(
            [[draw(st.integers(-3, 3)) if keep(i, j) else 0 for j in range(n)] for i in range(n)]
        )

    return matrix(), matrix()


@settings(max_examples=60, deadline=None)
@given(_shaped_pair())
# span{I, E12, E23} grows only through E12 * E23 = E13: dimension 4
@example(
    (
        SquareMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        SquareMatrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
    )
)
def test_generated_algebra_dimension_matches_word_span(pair):
    # words of length < n^2 span the algebra: the closure ends within n^2 rounds
    a, b = pair
    n = a.n
    words = [SquareMatrix.identity(n)]
    layer = words
    for _ in range(n * n - 1):
        layer = [g * m for g in (a, b) for m in layer]
        layer = list({m.entries: m for m in layer}.values())
        words += layer
    rank = len(row_reduce([[x for row in m.entries for x in row] for m in words])[1])
    assert generated_algebra_dimension(a, b) == rank


def test_find_regular_pair_sanov():
    pair = find_regular_pair(sanov_gens(), depth=4)
    assert str(pair.word_a) == "0 1"
    assert str(pair.word_b) == "0"
    assert pair.matrix_a == SquareMatrix.from_rows([[5, 2], [2, 1]])
    assert pair.disc == 32
    assert pair.genericity["shemesh"] is True
    assert pair.genericity["burnside_dim"] == 4
    assert pair.l1_grid == {(ARCH, 1): True}


def test_find_regular_pair_heisenberg_raises():
    # every element is unipotent, so no squarefree characteristic polynomial
    with pytest.raises(PairNotFound):
        find_regular_pair(heisenberg_gens(), depth=3)


def test_growth_report_csv():
    report = enumerate_ball(sanov_gens(), 2)
    assert report.csv() == "n,count\n0,1\n1,5\n2,17\n"
