"""Ball enumeration, growth verdicts, and the regular pair search."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthcert import cayley
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
from growthcert.errors import BudgetExceeded, Inconclusive, InsufficientData, PairNotFound
from growthcert.exactnum import ARCH, SquareMatrix, Word, row_reduce, s_support
from growthcert.spectra import l1_gap_report


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


# ---------------------------------------------------------------------------
# the integer-form BFS against the Fraction BFS it replaced


def reference_ball(gens, radius, budget=10**6, want_words=False):
    """The exact Fraction BFS the integer-form BFS must agree with.

    Returns (counts, exhausted, elements), elements being the shortlex list
    of (word, SquareMatrix) without the identity when want_words.
    """
    letters = []
    seen = set()
    for i, g in enumerate(gens):
        if g.entries not in seen:
            seen.add(g.entries)
            letters.append((Word(((i, 1),)), g))
    for i, g in enumerate(gens):
        inv = g.inverse()
        if inv.entries not in seen:
            seen.add(inv.entries)
            letters.append((Word(((i, -1),)), inv))
    ident = SquareMatrix.identity(gens[0].n)
    ball = {ident.entries}
    frontier = [(Word(), ident)]
    counts = [1]
    elements = []
    exhausted = False
    for _ in range(radius):
        new_frontier = []
        for word, mat in frontier:
            for lw, lm in letters:
                nxt = mat * lm
                if nxt.entries in ball:
                    continue
                if len(ball) >= budget:
                    raise BudgetExceeded(f"ball exceeded budget {budget}", partial=list(counts))
                ball.add(nxt.entries)
                entry = (word * lw, nxt)
                new_frontier.append(entry)
                if want_words:
                    elements.append(entry)
        counts.append(len(ball))
        frontier = new_frontier
        if not frontier:
            exhausted = True
            break
    return counts, exhausted, elements


def reference_pair(gens, depth, budget=10**6):
    """find_regular_pair's scans over the Fraction ball: words and matrices, or the refusal."""
    s = s_support(gens)
    n = gens[0].n
    _, _, elements = reference_ball(gens, depth, budget, want_words=True)
    for word_a, mat_a in elements:
        if not charpoly_is_squarefree(mat_a):
            continue
        try:
            grid = l1_gap_report(mat_a, s)
        except Inconclusive:
            continue
        if any(grid.values()):
            break
    else:
        return f"no regular (L1)-capable element within radius {depth}"
    for word_b, mat_b in elements:
        if (
            mat_b != mat_a
            and shemesh_no_common_eigenvector(mat_a, mat_b)
            and generated_algebra_dimension(mat_a, mat_b) == n * n
        ):
            return str(word_a), str(word_b), mat_a, mat_b
    return f"no generic partner for A within radius {depth}"


def ball_outcome(bfs, gens, radius, budget):
    try:
        counts, exhausted, _ = bfs(gens, radius, budget, False)
    except BudgetExceeded as exc:
        return ("BudgetExceeded", str(exc), exc.partial)
    return counts, exhausted


def pair_outcome(gens, depth):
    try:
        pair = find_regular_pair(gens, depth)
    except PairNotFound as exc:
        return str(exc)
    return str(pair.word_a), str(pair.word_b), pair.matrix_a, pair.matrix_b


_SMALL_DEN = st.sampled_from([1, 1, 2, 3, 6])
_PIVOT = st.sampled_from([1, -1, 2, F(1, 2), F(-2, 3), 3, F(1, 6)])


@st.composite
def _generators(draw, max_n=4, finite_groups=True):
    """1-3 invertible n x n generators, n = 2..max_n.

    Each is a random matrix with entries p/q (mixed denominators 1, 2, 3, 6,
    negative entries), a signed permutation conjugated by such a matrix (a
    finite-order element whose powers cancel denominators), or an earlier
    generator's inverse, copy or scalar multiple.
    """
    n = draw(st.integers(2, max_n))

    def rational():
        # L U with L unit lower and U upper triangular: invertible by construction
        def entry():
            return F(draw(st.integers(-3, 3)), draw(_SMALL_DEN))

        lower = [[entry() if j < i else int(i == j) for j in range(n)] for i in range(n)]
        upper = [
            [draw(_PIVOT) if j == i else entry() if j > i else 0 for j in range(n)]
            for i in range(n)
        ]
        return SquareMatrix.from_rows(lower) * SquareMatrix.from_rows(upper)

    def signed_permutation():
        perm = draw(st.permutations(range(n)))
        signs = [draw(st.sampled_from([1, -1])) for _ in range(n)]
        return SquareMatrix.from_rows(
            [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
        )

    # one conjugator for every finite-order generator: with no other kind
    # drawn, the group is finite and the ball exhausts
    conj = rational() if draw(st.booleans()) else SquareMatrix.identity(n)
    finite_group = finite_groups and draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["rational", "finite", "inverse", "copy", "scalar"]))
        if finite_group:
            kind = "finite"
        if kind in ("inverse", "copy", "scalar") and gens:
            g = draw(st.sampled_from(gens))
            c = draw(st.sampled_from([2, F(1, 2), -3]))
            gens.append({"inverse": g.inverse(), "copy": g, "scalar": g.scale(c)}[kind])
        elif kind == "finite":
            gens.append(conj * signed_permutation() * conj.inverse())
        else:
            gens.append(rational())
    return gens


@settings(max_examples=150, deadline=None)
@given(
    gens=_generators(),
    radius=st.integers(1, 5),
    budget=st.one_of(st.integers(1, 150), st.just(10**6)),
)
def test_ball_matches_fraction_reference(gens, radius, budget):
    radius = min(radius, 7 - gens[0].n)
    new = ball_outcome(cayley._bfs_ball, gens, radius, budget)
    assert new == ball_outcome(reference_ball, gens, radius, budget)
    if new[0] == "BudgetExceeded":
        return
    _, _, elements = cayley._bfs_ball(gens, radius, budget, True)
    _, _, ref_elements = reference_ball(gens, radius, budget, want_words=True)
    # the same words in the same shortlex order, with the same matrices
    assert [(w, cayley._as_matrix(key)) for w, key in elements] == ref_elements


@settings(max_examples=25, deadline=None)
@given(gens=_generators(max_n=3, finite_groups=False), depth=st.integers(1, 2))
def test_find_regular_pair_matches_fraction_reference(gens, depth):
    assert pair_outcome(gens, depth) == reference_pair(gens, depth)


def test_ball_meets_integer_word_with_denominator_four():
    # the word "0 0" is (4, 4 * unit) before reduction and must meet the
    # letter "1"; the letters step by +-1/2 and +-1 in the corner, so
    # |B(r)| = 4r + 1
    half = SquareMatrix.from_rows([[1, F(1, 2)], [0, 1]])
    unit = SquareMatrix.from_rows([[1, 1], [0, 1]])
    counts, exhausted, _ = cayley._bfs_ball([half, unit], 5, 10**6, False)
    assert counts == [4 * r + 1 for r in range(6)] and not exhausted
    assert counts == reference_ball([half, unit], 5)[0]
    _, _, elements = cayley._bfs_ball([half, unit], 1, 10**6, True)
    assert [str(w) for w, _ in elements] == ["0", "1", "0^-1", "1^-1"]


def test_ball_keeps_the_denominator_in_the_key():
    # 2I and I/2 share N = I and differ only in d; inside SL_n this cannot
    # happen (det N = d^n), so the case needs a scalar generator in GL_n
    report = enumerate_ball([SquareMatrix.from_rows([[2, 0], [0, 2]])], 3)
    assert [c for _, c in report.ball_sizes] == [1, 3, 5, 7]


def test_integer_form_is_canonical():
    m = SquareMatrix.from_rows([[F(1, 2), F(-1, 3)], [F(5, 6), 2]])
    assert cayley._integer_form(m) == (6, ((3, -2), (5, 12)))
    assert cayley._as_matrix(cayley._integer_form(m)) == m
    assert cayley._integer_form(SquareMatrix.identity(3)) == (1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
