"""Ball enumeration, growth verdicts, and the regular pair search."""

import math
import random
from contextlib import nullcontext
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
from growthcert.spectra import char_poly, l1_gap_report
from test_exactnum import reference_matmul, reference_row_reduce


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
    assert not charpoly_is_squarefree(char_poly(SquareMatrix.from_rows([[1, 1], [0, 1]])))
    assert charpoly_is_squarefree(char_poly(SquareMatrix.from_rows([[5, 2], [2, 1]])))


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


def test_pair_found_before_the_budget_runs_out():
    # the pair lies in sphere 1 (5 elements with the identity), so a budget
    # of 10 never reaches sphere 2 (17); refusals still scan the whole ball
    gens = [
        SquareMatrix.from_rows([[F(9, 2), F(-1, 4)], [F(-1, 2), F(1, 4)]]),
        SquareMatrix.from_rows([[1, F(-1, 2)], [1, F(1, 2)]]),
    ]
    pair = find_regular_pair(gens, 4, budget=10)
    assert (str(pair.word_a), str(pair.word_b)) == ("0", "1")
    assert pair == find_regular_pair(gens, 4)
    with pytest.raises(BudgetExceeded):
        enumerate_ball(gens, 4, budget=10)
    with pytest.raises(BudgetExceeded):
        find_regular_pair(heisenberg_gens(), 4, budget=10)


def test_growth_report_csv():
    report = enumerate_ball(sanov_gens(), 2)
    assert report.csv() == "n,count\n0,1\n1,5\n2,17\n"


# ---------------------------------------------------------------------------
# the packed-slot BFS against the Fraction BFS it replaced


def reference_ball(gens, radius, budget=10**6, want_words=False):
    """The exact Fraction BFS that cayley._spheres must agree with.

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
        f = char_poly(mat_a)
        if not charpoly_is_squarefree(f):
            continue
        try:
            grid = l1_gap_report(mat_a, s, f)
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


def spheres_outcome(gens, radius, budget):
    """(counts, exhausted) from cayley._spheres, or its BudgetExceeded with the completed counts."""
    counts = [1]
    try:
        for _, _, sphere in cayley._spheres(cayley._alphabet(gens), radius, budget):
            counts.append(counts[-1] + len(sphere))
    except BudgetExceeded as exc:
        return ("BudgetExceeded", str(exc), counts)
    return counts, len(counts) > 1 and counts[-1] == counts[-2]


def reference_outcome(gens, radius, budget):
    try:
        counts, exhausted, _ = reference_ball(gens, radius, budget)
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
    # reference_ball keeps the whole ball, _spheres only three spheres
    radius = min(radius, 7 - gens[0].n)
    new = spheres_outcome(gens, radius, budget)
    assert new == reference_outcome(gens, radius, budget)
    counts = new[2] if new[0] == "BudgetExceeded" else new[0]
    _, _, ref_elements = reference_ball(gens, radius, want_words=True)
    words = []
    with pytest.raises(BudgetExceeded) if new[0] == "BudgetExceeded" else nullcontext():
        for w, mat in cayley._ball_words(cayley._alphabet(gens), radius, budget):
            words.append((w, mat))
    # the same words in the same shortlex order, with the same matrices; the
    # completed spheres come out before the budget runs out
    assert words == ref_elements[: counts[-1] - 1]


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
    assert spheres_outcome([half, unit], 5, 10**6) == ([4 * r + 1 for r in range(6)], False)
    assert spheres_outcome([half, unit], 5, 10**6) == reference_outcome([half, unit], 5, 10**6)
    words = cayley._ball_words(cayley._alphabet([half, unit]), 1, 10**6)
    assert [str(w) for w, _ in words] == ["0", "1", "0^-1", "1^-1"]


def test_ball_keeps_the_denominator_in_the_key():
    # 2I and I/2 differ only by a scalar; inside SL_n no two elements do
    # (the determinant is 1), so the case needs a scalar generator in GL_n
    report = enumerate_ball([SquareMatrix.from_rows([[2, 0], [0, 2]])], 3)
    assert [c for _, c in report.ball_sizes] == [1, 3, 5, 7]


def test_keys_of_different_spheres_are_not_compared():
    # a key is d * M for its sphere's scale d = 2^k: H in sphere 1 and H/2 in
    # sphere 2 have the same slot bytes, and only the scale tells them apart
    half = SquareMatrix.from_rows([[F(1, 2), 0], [0, F(1, 2)]])
    hyperbolic = SquareMatrix.from_rows([[2, 1], [1, 1]])
    gens = [half, hyperbolic, sanov_gens()[1]]
    spheres = list(cayley._spheres(cayley._alphabet(gens), 2, 10**6))
    (d1, width1, s1), (d2, width2, s2) = spheres
    key_h = next(key for _, letter, key in s1 if letter == 1)
    key_h2 = next(key for p, letter, key in s2 if s1[p][1] == 0 and letter == 1)
    assert key_h == key_h2 and (d1, d2) == (2, 4) and width1 == width2
    assert cayley._as_matrix(key_h, d1, width1) == hyperbolic
    assert cayley._as_matrix(key_h2, d2, width2) == hyperbolic.scale(F(1, 2))
    assert_same_spheres(gens, 3)
    assert pair_outcome(gens, 2) == reference_pair(gens, 2)


def test_mixed_denominators_share_one_scale():
    # D = 6 exceeds both letters' own denominators; sphere k holds 6^k * M,
    # which passes 2^63 / 9 in the twenties, so the slots widen while the
    # window is rescaled by 6 and 36
    gens = [
        SquareMatrix.from_rows([[1, F(1, 2)], [0, 1]]),
        SquareMatrix.from_rows([[1, F(1, 3)], [0, 1]]),
    ]
    spheres, error = assert_same_spheres(gens, 30)
    assert error is None
    sizes = [1]
    for sphere in spheres:
        sizes.append(sizes[-1] + len(sphere))
    assert sizes[:6] == [1, 5, 13, 19, 25, 31]
    assert sizes[-1] == 6 * 30 + 1
    widths = [width for _, width, _ in cayley._spheres(cayley._alphabet(gens), 30, 10**6)]
    assert widths[0] == 64 and widths[-1] > 64


def packed(values, width=64):
    """Slot bytes of the signed values, one slot of width bits each."""
    return cayley._pack(sum(v << width * s for s, v in enumerate(values)), len(values), width)


def test_slots_decode_exactly_at_the_sign_boundaries():
    for width in (64, 128):
        half = 2 ** (width - 1)
        values = [-half, half - 1, -1, 0, 1, -half + 1, half - 2]
        buf = packed(values, width)
        assert cayley._unpack(buf, width, width) == sum(v << width * s for s, v in enumerate(values))
        # widening keeps every value, slot by slot
        wide = cayley._unpack(buf, width, width + 128)
        assert cayley._pack(wide, len(values), width + 128) == packed(values, width + 128)
        for bits in (1, 2, 8, 62, 63, width - 1, width):
            edge = 2 ** (bits - 1)
            for v in (-edge - 1, -edge, edge - 1, edge):
                if -half <= v < half:
                    for vals in ([v], [0, v, -1], [v, v, 5], [-half, v]):
                        fits = all(-edge <= x < edge for x in vals)
                        assert cayley._fits(packed(vals, width), width, bits) == fits, (width, bits, vals)


def test_width_holds_each_entry_times_its_growth_factor():
    # 3 * (2^62 - 1) passes 2^63 - 1, 3 * (2^61 - 1) does not
    assert cayley._width([(packed([2**62 - 1, -5]), 64, 3)], 64) == 128
    assert cayley._width([(packed([2**61 - 1, -(2**61)]), 64, 3)], 64) == 64
    # every window sphere counts, at its own width
    window = [(packed([1]), 64, 2**200 + 1), (packed([2**100], 128), 128, 1)]
    assert cayley._width(window, 128) == 256


def test_ball_resists_a_hash_flood():
    # ints hash modulo P = 2^61 - 1, and both generators are the identity
    # modulo P, so every entry hashes like a small one; the keys are bytes,
    # hashed whole.  The ball sizes are Sanov's, 2 * 3^n - 1
    p = 2**61 - 1
    gens = [
        SquareMatrix.from_rows([[1 + p, p * p], [p, 1 + (p - 1) * p]]),
        SquareMatrix.from_rows([[1 + p, p], [p * p, 1 + (p - 1) * p]]),
    ]
    report = enumerate_ball(gens, 8)
    assert [c for _, c in report.ball_sizes] == [2 * 3**n - 1 for n in range(9)]


# ---------------------------------------------------------------------------
# the inverse-letter skip against the sphere BFS without it


def reference_spheres(letters, radius, budget):
    """cayley._spheres as it was before the skip: every element times every letter."""
    n = len(letters[0][1][1])
    mats = [(d, tuple(zip(*rows))) for _, (d, rows), _ in letters]
    ident = (1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    older, sphere = [], [(None, None, ident)]
    seen = {ident}
    total = 1
    for _ in range(radius):
        new = []
        for parent, (_, _, (d, rows)) in enumerate(sphere):
            for letter, (ld, cols) in enumerate(mats):
                prod = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in rows)
                dd = d * ld
                g = math.gcd(dd, *(x for row in prod for x in row))
                key = (dd // g, tuple(tuple(x // g for x in row) for row in prod))
                if key in seen:
                    continue
                if total >= budget:
                    raise BudgetExceeded(f"ball exceeded budget {budget}")
                total += 1
                seen.add(key)
                new.append((parent, letter, key))
        seen.difference_update(key for _, _, key in older)
        yield new
        if not new:
            return
        older, sphere = sphere, new


def integer_form_matrix(key):
    d, rows = key
    return SquareMatrix.from_rows([[F(x, d) for x in row] for row in rows])


def collect(spheres):
    """Every sphere the generator yields, then the BudgetExceeded message or None."""
    out = []
    try:
        for sphere in spheres:
            out.append(sphere)
    except BudgetExceeded as exc:
        return out, str(exc)
    return out, None


def cayley_spheres(gens, radius, budget):
    """cayley._spheres as (parent, letter, matrix) triples, at each sphere's scale and width."""
    for d, width, sphere in cayley._spheres(cayley._alphabet(gens), radius, budget):
        yield [(p, letter, cayley._as_matrix(key, d, width)) for p, letter, key in sphere]


def assert_same_spheres(gens, radius, budget=10**6):
    # the keys differ in form, so the triples compare parents, letters and matrices
    got = collect(cayley_spheres(gens, radius, budget))
    ref = reference_spheres(cayley._alphabet(gens), radius, budget)
    decoded = ([(p, lt, integer_form_matrix(key)) for p, lt, key in sphere] for sphere in ref)
    assert got == collect(decoded)
    return got


_SHEAR = SquareMatrix.from_rows([[1, 1], [0, 1]])
_MINUS_I = SquareMatrix.from_rows([[-1, 0], [0, -1]])


@pytest.mark.parametrize(
    "gens, radius",
    [
        (sanov_gens(), 5),
        ([_MINUS_I, _SHEAR], 6),
        ([_SHEAR, _SHEAR.inverse()], 6),
        ([_SHEAR, _SHEAR, sanov_gens()[1]], 4),
        ([SquareMatrix.from_rows([[0, -1], [1, 0]]), SquareMatrix.from_rows([[0, 1], [-1, 1]])], 8),
        ([SquareMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), SquareMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]])], 8),
        # entries straddle +-2^62 and +-2^63 around the first slot width
        (
            [
                SquareMatrix.from_rows([[1, 2**61], [0, 1]]),
                SquareMatrix.from_rows([[1, 0], [-(2**61), 1]]),
            ],
            4,
        ),
        # entries pass 2^64 by sphere 3: the width grows twice with older spheres in the window
        (
            [
                SquareMatrix.from_rows([[1, 2**22, 0], [0, 1, 0], [0, 0, 1]]),
                SquareMatrix.from_rows([[1, 0, 0], [2**22, 1, 0], [0, 2**22, 1]]),
            ],
            5,
        ),
    ],
    ids=[
        "sanov",
        "minus-identity-and-shear",
        "mutually-inverse",
        "repeated",
        "sl2z-torsion",
        "finite-group",
        "straddles-2^63",
        "widens-in-window",
    ],
)
def test_inverse_letter_skip_keeps_every_sphere(gens, radius):
    _, error = assert_same_spheres(gens, radius)
    assert error is None


def test_inverse_letter_skip_exhausts_a_finite_group():
    # signed 3x3 permutation matrices of determinant 1: a group of order 24
    gens = [
        SquareMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        SquareMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -1]]),
    ]
    spheres, error = assert_same_spheres(gens, 12)
    assert error is None and spheres[-1] == []
    assert 1 + sum(len(s) for s in spheres) == 24


def test_inverse_letter_table():
    # -I is its own inverse; a repeated letter and a letter equal to another's
    # inverse are dropped, and the inverses map to the letters kept
    letters = cayley._alphabet([_MINUS_I, _SHEAR, _SHEAR, _SHEAR.inverse()])
    assert [str(w) for w, _, _ in letters] == ["0", "1", "3"]
    assert [inv for _, _, inv in letters] == [0, 2, 1]


@pytest.mark.parametrize("budget", [1, 2, 5, 17, 40, 53, 54])
def test_inverse_letter_skip_keeps_the_budget_cut_off(budget):
    spheres, error = assert_same_spheres(sanov_gens(), 4, budget)
    assert error == f"ball exceeded budget {budget}"
    with pytest.raises(BudgetExceeded) as info:
        enumerate_ball(sanov_gens(), 4, budget)
    assert [c for _, c in info.value.partial.ball_sizes] == [1] + [
        1 + sum(len(s) for s in spheres[:k]) for k in range(1, len(spheres) + 1)
    ]


@settings(max_examples=80, deadline=None)
@given(
    gens=_generators(max_n=3),
    radius=st.integers(1, 4),
    budget=st.one_of(st.integers(1, 120), st.just(10**6)),
)
def test_inverse_letter_skip_matches_reference(gens, radius, budget):
    assert_same_spheres(gens, radius, budget)


# ---------------------------------------------------------------------------
# the integer Shemesh and Burnside gates against the Fraction gates they replaced


def reference_shemesh(a, b):
    """Rank of the stacked Fraction commutators [A^k, B^l], 1 <= k, l < n, is n."""
    n = a.n
    a_pows, b_pows = [a.entries], [b.entries]
    for _ in range(n - 2):
        a_pows.append(reference_matmul(a_pows[-1], a.entries))
        b_pows.append(reference_matmul(b_pows[-1], b.entries))
    stacked = []
    for ak in a_pows:
        for bl in b_pows:
            ab, ba = reference_matmul(ak, bl), reference_matmul(bl, ak)
            stacked.extend([x - y for x, y in zip(r, s)] for r, s in zip(ab, ba))
    return len(reference_row_reduce(stacked)[1]) == n


def reference_algebra_dimension(a, b):
    """Fraction rref closure of span{I} under left multiplication by A and B."""
    n = a.n
    rref = [[F(int(i == j)) for i in range(n) for j in range(n)]]
    pivots = [0]
    fresh = rref
    while fresh and len(rref) < n * n:
        mats = [[r[i : i + n] for i in range(0, n * n, n)] for r in fresh]
        products = [
            [x for row in reference_matmul(g.entries, m) for x in row] for g in (a, b) for m in mats
        ]
        old = set(pivots)
        rref, pivots, _ = reference_row_reduce(rref + products)
        fresh = [r for r, col in zip(rref, pivots) if col not in old]
    return len(rref)


_gate_entry = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def _planted_pairs(draw):
    """(A, B, kind) for n = 2..4: a random pair, or one with a planted invariant subspace.

    A planted pair is block upper triangular with blocks k and n - k, which
    leaves span(e_1..e_k) invariant, conjugated by a unimodular integer
    matrix P.  With k = 1 it shares the eigenvector P e_1, with any k the
    algebra has dimension below n^2; "commuting" makes B a polynomial in A.
    """
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["random", "eigenvector", "subspace", "commuting"]))
    k = 1 if kind == "eigenvector" else draw(st.integers(1, n - 1))

    def block_triangular():
        return [
            [draw(_gate_entry) if kind in ("random", "commuting") or i < k or j >= k else 0 for j in range(n)]
            for i in range(n)
        ]

    ta, tb = SquareMatrix.from_rows(block_triangular()), SquareMatrix.from_rows(block_triangular())
    if kind == "commuting":
        c = [draw(st.integers(-3, 3)) for _ in range(3)]
        tb = ta.scale(c[1]) + (ta * ta).scale(c[2]) + SquareMatrix.identity(n).scale(c[0])
    p = SquareMatrix.identity(n)
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            # the elementary matrix I + c E_ij
            c = draw(st.integers(-2, 2))
            p = p * SquareMatrix.from_rows([[int(r == s) + c * ((r, s) == (i, j)) for s in range(n)] for r in range(n)])
    p_inv = p.inverse()
    return p * ta * p_inv, p * tb * p_inv, kind


@settings(max_examples=150, deadline=None)
@given(_planted_pairs())
@example((SquareMatrix.identity(3), SquareMatrix.identity(3), "commuting"))
# [A, B] and [A^2, B^2] share a kernel vector; [A, B^2] or [A^2, B] does not vanish on it
@example(
    (
        SquareMatrix.from_rows([[-2, -2, -1], [0, -1, 1], [-2, 0, 2]]),
        SquareMatrix.from_rows([[1, 0, 0], [2, -1, 0], [-2, 2, 1]]),
        "random",
    )
)
@example(
    (
        SquareMatrix.from_rows([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]),
        SquareMatrix.from_rows([[F(1, 2), 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, F(1, 3)]]),
        "random",
    )
)
def test_gates_match_fraction_reference(case):
    a, b, kind = case
    n = a.n
    shemesh = shemesh_no_common_eigenvector(a, b)
    dim = generated_algebra_dimension(a, b)
    assert shemesh is reference_shemesh(a, b)
    assert dim == reference_algebra_dimension(a, b)
    if kind in ("eigenvector", "commuting"):
        assert not shemesh
    if kind != "random":
        assert dim < n * n


def test_gates_match_fraction_reference_seeded():
    rng = random.Random(2001)
    agreed = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(2, 4)

        def grid():
            return [[F(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(n)] for _ in range(n)]

        a, b = SquareMatrix.from_rows(grid()), SquareMatrix.from_rows(grid())
        if rng.random() < 0.3:
            # a shared eigenvector e_1: column 0 is zero below the diagonal in both
            a, b = (
                SquareMatrix.from_rows([[0 if i and not j else x for j, x in enumerate(r)] for i, r in enumerate(m.entries)])
                for m in (a, b)
            )
        shemesh = shemesh_no_common_eigenvector(a, b)
        assert shemesh is reference_shemesh(a, b)
        assert generated_algebra_dimension(a, b) == reference_algebra_dimension(a, b)
        agreed[shemesh] += 1
    assert min(agreed.values()) > 30
