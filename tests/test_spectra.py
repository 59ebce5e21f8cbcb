"""Characteristic polynomials, separation bounds, Newton polygons, wedges."""

import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthcert.exactnum import ARCH, Place, PlaceSet, SquareMatrix, abs_value
from growthcert.errors import BadExponent, Inconclusive, RamifiedSlopes
from growthcert.intervals import RationalInterval
from growthcert.polyroots import poly_degree, poly_deriv, poly_from, squarefree_part
from growthcert.spectra import (
    adjugate_poly,
    arch_moduli,
    char_poly,
    charpoly_is_squarefree,
    check_separation,
    compound,
    discriminant,
    l1_arch_decision,
    l1_finite_decision,
    l1_gap_report,
    newton_polygon_moduli,
    newton_polygon_valuations,
    wedge_diag,
    wedge_power,
)
from test_polyroots import poly_eval


def poly_from_roots(roots):
    # build prod (x - r) by hand so the expected coefficients are independent
    coeffs = [F(1)]
    for r in roots:
        coeffs = [F(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return tuple(coeffs)


def elementary(n, i, j, t):
    rows = [[F(int(a == b)) for b in range(n)] for a in range(n)]
    rows[i][j] += F(t)
    return SquareMatrix.from_rows(rows)


def random_sl(rng, n, length=6):
    m = SquareMatrix.identity(n)
    for _ in range(length):
        i, j = rng.sample(range(n), 2)
        m = m * elementary(n, i, j, rng.choice([-2, -1, 1, 2]))
    return m


def test_char_poly_known_2x2():
    a = SquareMatrix.from_rows([[5, 2], [2, 1]])
    assert char_poly(a) == (F(1), F(-6), F(1))
    assert len(char_poly(a)) == 3  # degree 2, monic


def test_char_poly_diagonal_matches_expansion():
    rng = random.Random(41)
    for _ in range(30):
        d = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(2, 5))]
        a = SquareMatrix.from_rows(
            [[d[i] if i == j else F(0) for j in range(len(d))] for i in range(len(d))]
        )
        assert char_poly(a) == poly_from_roots(d)


def test_cayley_hamilton():
    # f(A) = 0 is an oracle that does not reuse the implementation
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(2, 4)
        a = SquareMatrix.from_rows(
            [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        )
        f = char_poly(a)
        acc = SquareMatrix.from_rows([[F(0)] * n for _ in range(n)])
        for i, c in enumerate(f):
            acc = acc + (a**i).scale(c)
        assert all(acc[i, j] == 0 for i in range(n) for j in range(n))


def test_discriminant_known_values():
    assert discriminant((F(1), F(-6), F(1))) == 32
    assert discriminant((F(1), F(0), F(1))) == -4
    assert discriminant((F(-1), F(0), F(0), F(1))) == -27


def test_discriminant_equals_root_difference_product():
    rng = random.Random(43)
    for _ in range(25):
        k = rng.randint(2, 4)
        roots = rng.sample([F(a, b) for a in range(-6, 7) for b in (1, 2, 3)], k)
        f = poly_from_roots(roots)
        expected = F(1)
        for i in range(k):
            for j in range(i + 1, k):
                expected *= (roots[i] - roots[j]) ** 2
        assert discriminant(f) == expected


def test_separation_known_example():
    a = SquareMatrix.from_rows([[5, 2], [2, 1]])
    rep = check_separation(a, PlaceSet([]))
    assert rep.disc == 32
    assert rep.distinct_count == 2
    assert rep.passes and rep.product_over_s == 32
    # 2 * cauchy_bound(x^2 - 6x + 1) = 14, so the archimedean floor is 32/14
    assert dict(rep.per_place_lower)[ARCH] == F(16, 7)


def test_separation_product_at_least_one():
    # disc of an integer matrix is a nonzero integer, so the S-product of
    # its absolute values can only discard prime factors inside S
    rng = random.Random(44)
    s = PlaceSet.from_primes([2, 3])
    for _ in range(60):
        n = rng.choice([2, 3])
        a = random_sl(rng, n)
        rep = check_separation(a, s)
        assert rep.product_over_s >= 1
        assert rep.passes
        for _, lower in rep.per_place_lower:
            assert lower > 0


def test_separation_repeated_eigenvalue_trivial():
    a = SquareMatrix.from_rows([[1, 1], [0, 1]])
    rep = check_separation(a, PlaceSet.from_primes([2]))
    assert rep.distinct_count == 1
    assert rep.passes and rep.product_over_s == 1


def test_newton_polygon_examples():
    assert newton_polygon_valuations((F(1), F(-6), F(1)), 2) == (F(0), F(0))
    # x^2 - p^2 has both roots of valuation 1
    assert newton_polygon_valuations((F(-9), F(0), F(1)), 3) == (F(1), F(1))
    # x^2 - 2 ramifies: two roots of valuation 1/2
    assert newton_polygon_valuations((F(-2), F(0), F(1)), 2) == (F(1, 2), F(1, 2))


def test_newton_polygon_rejects_zero_root():
    with pytest.raises(ValueError):
        newton_polygon_valuations((F(0), F(1), F(1)), 2)


def test_newton_polygon_moduli_match_abs_value():
    # for diagonal matrices the eigenvalues are visible, so |.|_p is exact
    rng = random.Random(45)
    for p in (2, 3, 5):
        v = Place.parse(f"finite:{p}")
        for _ in range(20):
            n = rng.randint(2, 4)
            diag = []
            for _ in range(n - 1):
                k = rng.randint(-3, 3)
                u = rng.choice([1, 3, 5, 7]) if p != 3 else rng.choice([1, 2, 5, 7])
                diag.append(F(u) * F(p) ** k)
            prod = F(1)
            for d in diag:
                prod *= d
            diag.append(1 / prod)
            a = SquareMatrix.from_rows(
                [[diag[i] if i == j else F(0) for j in range(n)] for i in range(n)]
            )
            got = newton_polygon_moduli(a, v)
            want = tuple(sorted((abs_value(d, v) for d in diag), reverse=True))
            assert got == want


def test_newton_polygon_moduli_ramified():
    a = SquareMatrix.from_rows([[0, 2], [1, 0]])  # x^2 - 2
    with pytest.raises(RamifiedSlopes):
        newton_polygon_moduli(a, Place.parse("finite:2"))
    with pytest.raises(ValueError):
        newton_polygon_moduli(a, ARCH)


def test_wedge_power_is_multiplicative():
    rng = random.Random(46)
    for _ in range(30):
        n = rng.randint(2, 5)
        a = SquareMatrix.from_rows(
            [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        )
        b = SquareMatrix.from_rows(
            [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        )
        for m in range(1, n + 1):
            assert wedge_power(a * b, m) == wedge_power(a, m) * wedge_power(b, m)


def test_wedge_power_top_degree_is_det():
    a = SquareMatrix.from_rows([[2, 1, 0], [1, 1, 3], [0, 2, 1]])
    top = wedge_power(a, 3)
    assert top.n == 1 and top[0, 0] == a.det()


def test_wedge_diag_matches_wedge_power():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(2, 5)
        d = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        a = SquareMatrix.from_rows(
            [[d[i] if i == j else F(0) for j in range(n)] for i in range(n)]
        )
        for m in range(1, n):
            w = wedge_power(a, m)
            vals = wedge_diag(d, m)
            assert [w[i, i] for i in range(w.n)] == vals
            assert all(
                w[i, j] == 0 for i in range(w.n) for j in range(w.n) if i != j
            )


def minors_by_det(rows, m):
    """Every m x m minor as the determinant of its own SquareMatrix (the reference)."""
    subs = list(itertools.combinations(range(len(rows)), m))
    return [
        [SquareMatrix.from_rows([[rows[i][j] for j in cset] for i in rset]).det() for cset in subs]
        for rset in subs
    ]


_BIG = 10**300


@st.composite
def _exact_rows(draw):
    """n x n rows, n = 2..6, of small or 300-digit ints or Fractions."""
    n = draw(st.integers(2, 6))
    size = draw(st.sampled_from([9, _BIG]))
    num = st.integers(-size, size)
    if draw(st.booleans()):
        entry = num
    else:
        entry = st.builds(F, num, st.integers(1, size))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(_exact_rows())
@example([[F(7 * _BIG + 1, 3 * _BIG - 1)] * 6 for _ in range(6)])
@example([[(-1) ** (i * j) * (_BIG + i + 7 * j) for j in range(6)] for i in range(6)])
@example([[F(i + 1, _BIG - j) for j in range(6)] for i in range(6)])
def test_compound_and_wedge_power_match_per_minor_determinants(rows):
    a = SquareMatrix.from_rows(rows)
    for m in range(1, len(rows) + 1):
        want = minors_by_det(rows, m)
        got = compound(rows, m, 0)
        assert [list(r) for r in got] == want
        if all(isinstance(x, int) for row in rows for x in row):
            assert all(isinstance(x, int) for row in got for x in row)
        assert wedge_power(a, m) == SquareMatrix.from_rows(want)


def test_wedge_power_rejects_bad_degree():
    a = SquareMatrix.identity(3)
    with pytest.raises(BadExponent):
        wedge_power(a, 0)
    with pytest.raises(BadExponent):
        wedge_power(a, 4)


def test_archimedean_moduli_contain_rational_eigenvalues():
    rng = random.Random(48)
    for _ in range(20):
        n = rng.randint(2, 4)
        d = rng.sample([F(a, b) for a in range(-8, 9) if a for b in (1, 2)], n)
        a = SquareMatrix.from_rows(
            [[d[i] if i == j else F(0) for j in range(n)] for i in range(n)]
        )
        encl = arch_moduli(a, char_poly(a))
        want = sorted((abs(x) for x in d), reverse=True)
        assert len(encl) == n
        for box, true in zip(encl, want):
            assert box.lo <= true <= box.hi


def test_arch_moduli_and_newton_valuations():
    a = SquareMatrix.from_rows([[5, 2], [2, 1]])
    f = char_poly(a)
    assert f == (F(1), F(-6), F(1))
    assert newton_polygon_valuations(f, 2) == (F(0), F(0))
    assert newton_polygon_valuations(f, 3) == (F(0), F(0))
    # both eigenvalues 3 +- 2*sqrt(2) are positive; enclosures must not overlap
    top, bottom = arch_moduli(a, f)
    assert top.lo > 5 and bottom.hi < 1
    # the enclosures are as narrow as the precision asks
    for bits in (64, 200):
        assert all(iv.hi - iv.lo <= F(5, 2**bits) for iv in arch_moduli(a, f, bits))


def test_l1_arch_decision_cases():
    pt = RationalInterval.point
    assert l1_arch_decision((pt(4), pt(F(1, 4))), 1) is True
    assert l1_arch_decision((pt(F(3, 2)), pt(F(2, 3))), 1) is False
    # dominant but not doubled: 4 >= 2 yet 4 < 2*3
    assert l1_arch_decision((pt(4), pt(3)), 1) is False
    wide = RationalInterval(F(1), F(5))
    assert l1_arch_decision((wide, wide), 1) is None


def test_l1_finite_decision_cases():
    assert l1_finite_decision((F(-2), F(2)), 2, 1) is True
    assert l1_finite_decision((F(0), F(0)), 2, 1) is False
    # top modulus 3 passes the threshold but the runner-up is equal
    assert l1_finite_decision((F(-1), F(-1), F(2)), 3, 1) is False
    # ramified valuations work: 5^(3/2) >= 2 and the gap 5^3 >= 2
    assert l1_finite_decision((F(-3, 2), F(3, 2)), 5, 1) is True


def test_l1_gap_report_grid():
    a = SquareMatrix.from_rows([[5, 2], [2, 1]])
    grid = l1_gap_report(a, PlaceSet.from_primes([2]), char_poly(a))
    assert grid == {(ARCH, 1): True, (Place.parse("finite:2"), 1): False}


def test_l1_gap_report_inconclusive_at_cap():
    # eigenvalues 1 +- i and 1/2: the wedge-2 product (1+i)(1-i) has modulus
    # exactly 2, which no finite-precision enclosure can separate from 2
    a = SquareMatrix.from_rows([[0, 0, 1], [1, 0, -3], [0, 1, F(5, 2)]])
    assert a.det() == 1
    with pytest.raises(Inconclusive):
        l1_gap_report(a, PlaceSet([]), char_poly(a))


# ---------------------------------------------------------------------------
# the integer Faddeev-LeVerrier against the Fraction recurrence it replaced


def reference_char_poly(a):
    """Faddeev-LeVerrier on Fraction rows: M_k = A M_(k-1) + c I, c = -tr(A M_k)/k."""
    n = len(a)
    a = [[F(x) for x in row] for row in a]

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    coeffs = [F(0)] * (n + 1)
    coeffs[n] = F(1)
    m = [[F(0)] * n for _ in range(n)]
    c = F(1)
    for k in range(1, n + 1):
        m = mul(a, m)
        for i in range(n):
            m[i][i] += c
        am = mul(a, m)
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
    return tuple(coeffs)


def assert_same_poly(a):
    got = char_poly(a)
    want = reference_char_poly(a.entries)
    assert got == want
    assert type(got) is tuple and all(type(c) is F for c in got)


_poly_entry = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(F, st.integers(-10**25, 10**25), st.integers(1, 10**15)),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(_poly_entry, min_size=n, max_size=n), min_size=n, max_size=n)))
@example([[0]])
@example([[0, 0], [0, 0]])
@example([[F(1, 2), 0, 0], [0, F(1, 3), 0], [0, 0, F(1, 5)]])
def test_char_poly_matches_fraction_reference(grid):
    assert_same_poly(SquareMatrix.from_rows(grid))


def test_char_poly_matches_fraction_reference_seeded():
    rng = random.Random(1503)
    for _ in range(300):
        n = rng.randint(1, 6)
        den = rng.choice([1, 2, 4, 6, 35, 10**9])
        grid = [[F(rng.randint(-20, 20), rng.randint(1, den)) for _ in range(n)] for _ in range(n)]
        assert_same_poly(SquareMatrix.from_rows(grid))
    for _ in range(30):
        assert_same_poly(random_sl(rng, rng.randint(2, 6)))


def test_char_poly_hostile_denominators():
    # 36 distinct 300-digit denominators: d is their 10800-digit lcm
    rng = random.Random(5)
    dens: set[int] = set()
    while len(dens) < 36:
        dens.add(rng.randrange(10**299, 10**300))
    dens = sorted(dens)
    a = SquareMatrix.from_rows(
        [[F(rng.randint(-10**6, 10**6), dens[6 * i + j]) for j in range(6)] for i in range(6)]
    )
    t0 = time.perf_counter()
    got = char_poly(a)
    elapsed = time.perf_counter() - t0
    assert got == reference_char_poly(a.entries)
    assert elapsed < 60


# ---------------------------------------------------------------------------
# the adjugate polynomial behind every eigenbasis


def adjugate_at(a, lam):
    """M(lam) = sum_k M_k lam^(n-k) / d^(k-1) from adjugate_poly, as Fraction rows."""
    _, d, mats = adjugate_poly(a)
    n = a.n
    return [
        [sum(F(m[i][j]) * lam ** (n - k) / F(d) ** (k - 1) for k, m in enumerate(mats, 1))
         for j in range(n)]
        for i in range(n)
    ]


def assert_adjugate_identity(a, lam):
    n = a.n
    f = char_poly(a)
    m = adjugate_at(a, lam)
    shifted = [[(lam if i == j else 0) - a[i, j] for j in range(n)] for i in range(n)]
    prod = [[sum(shifted[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert prod == [[poly_eval(f, lam) if i == j else 0 for j in range(n)] for i in range(n)]
    assert sum(m[i][i] for i in range(n)) == poly_eval(poly_deriv(f), lam)
    assert adjugate_poly(a)[0] == f


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(_poly_entry, min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    st.fractions(min_value=-20, max_value=20, max_denominator=50),
)
@example([[0]], F(0))
@example([[1, 1], [0, 1]], F(1))
def test_adjugate_poly_is_the_adjugate_of_the_shift(grid, lam):
    # (lam I - A) M(lam) = f(lam) I and tr M(lam) = f'(lam), at roots too
    assert_adjugate_identity(SquareMatrix.from_rows(grid), lam)


def test_adjugate_poly_at_the_eigenvalues():
    rng = random.Random(1601)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = random_sl(rng, n) if n > 1 else SquareMatrix.from_rows([[F(rng.randint(-5, 5), 3)]])
        values = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        d = SquareMatrix.from_rows([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])
        b = a * d * a.inverse()
        for lam in values:
            assert_adjugate_identity(b, lam)


def poly_mul(f, g):
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


_coeff = st.builds(F, st.integers(-20, 20), st.integers(1, 9))
_factor = st.lists(_coeff, min_size=2, max_size=3).filter(lambda c: c[-1] != 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(_factor, min_size=1, max_size=4), st.integers(0, 3), st.booleans())
def test_charpoly_is_squarefree_matches_the_squarefree_part(factors, square, monic):
    # the integer gcd's degree decides as the monic squarefree part in Fractions
    # did, on products with and without a repeated factor
    f = (F(1),)
    for g in factors:
        f = poly_mul(f, g)
    if square < len(factors):
        f = poly_mul(f, factors[square])
    if monic:
        f = tuple(c / f[-1] for c in f)
    f = poly_from(f)
    assert charpoly_is_squarefree(f) == (poly_degree(squarefree_part(f)) == poly_degree(f))
