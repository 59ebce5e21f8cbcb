import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthcert.errors import GrowthcertError, WordIndexError
from growthcert.exactnum import (
    ARCH,
    Place,
    PlaceSet,
    SquareMatrix,
    Word,
    abs_value,
    evaluate_word,
    factorize,
    format_rational,
    is_prime,
    padic_valuation,
    parse_rational,
    require_unimodular,
    row_reduce,
    s_support,
)

M = SquareMatrix.from_rows


def primes_of(s: PlaceSet) -> tuple[int, ...]:
    return tuple(v.prime for v in s if v.prime is not None)


def test_rational_round_trip():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert format_rational(F(22, 8)) == "11/4"
    assert format_rational(F(-5)) == "-5"
    rng = random.Random(11)
    for _ in range(200):
        x = F(rng.randint(-999, 999), rng.randint(1, 999))
        assert parse_rational(format_rational(x)) == x


@pytest.mark.parametrize("digits", [4299, 4301, 9000, 20000])
def test_format_rational_writes_any_size_in_full(digits):
    # str refuses ints past 4,300 digits; format_rational splits them
    x = F(-(10 ** (digits - 1)) - 12345, 10**digits + 7)
    text = format_rational(x)
    num, den = text.split("/")
    assert num == "-1" + "0" * (digits - 6) + "12345" and den == "1" + "0" * (digits - 1) + "7"
    assert format_rational(F(10**digits)) == "1" + "0" * digits


def test_parse_rational_rejects_junk():
    for text in ("", "1.5", "a/b", "1/0", "2 3"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rational(text)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_factorize_reconstructs():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 10**6)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


# a 59-digit semiprime: its factors are far beyond the Pollard rho budget
HARD_SEMIPRIME = 100000000000000000000000000319 * 300000000000000000000000000007


def test_factorize_splits_two_word_sized_primes():
    p, q = 2**31 - 1, 4294967291  # the largest prime below 2^32
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_gives_up_within_budget():
    with pytest.raises(GrowthcertError, match="Pollard rho steps"):
        factorize(HARD_SEMIPRIME)
    gens = [M([[F(1, HARD_SEMIPRIME), 0], [0, HARD_SEMIPRIME]])]
    with pytest.raises(GrowthcertError, match="^generator 0: "):
        s_support(gens)


def test_padic_valuation():
    assert padic_valuation(F(12), 2) == 2
    assert padic_valuation(F(12), 3) == 1
    assert padic_valuation(F(1, 8), 2) == -3
    assert padic_valuation(F(5, 7), 7) == -1
    with pytest.raises(ValueError):
        padic_valuation(F(0), 2)


def test_abs_value_examples():
    assert abs_value(F(-3, 4), ARCH) == F(3, 4)
    assert abs_value(F(12), Place.finite(2)) == F(1, 4)
    assert abs_value(F(1, 9), Place.finite(3)) == F(9)
    assert abs_value(F(0), Place.finite(5)) == 0


def test_product_formula():
    # |x|_inf * prod_p |x|_p = 1 over the support of x
    rng = random.Random(23)
    for _ in range(150):
        x = F(rng.randint(1, 5000), rng.randint(1, 5000))
        if rng.random() < 0.5:
            x = -x
        primes = set(factorize(x.numerator)) | set(factorize(x.denominator))
        prod = abs_value(x, ARCH)
        for p in primes:
            prod *= abs_value(x, Place.finite(p))
        assert prod == 1


def test_place_parse_and_order():
    assert Place.parse("archimedean") == ARCH
    assert Place.parse("finite:7") == Place.finite(7)
    with pytest.raises(ValueError):
        Place.parse("finite:4")
    with pytest.raises(ValueError):
        Place.parse("real")
    s = PlaceSet((Place.finite(5), Place.finite(2)))
    assert [str(v) for v in s] == ["archimedean", "finite:2", "finite:5"]


def test_place_set_always_has_arch():
    assert ARCH in PlaceSet(())
    assert len(PlaceSet.from_primes([2, 3])) == 3
    assert primes_of(PlaceSet.from_primes([3, 2, 3])) == (2, 3)


def test_matrix_basics():
    a = M([[1, 2], [3, 4]])
    assert a.det() == -2
    assert a[0, 1] == 2
    b = a.inverse()
    assert a * b == SquareMatrix.identity(2)
    assert (a + (-a)) == M([[0, 0], [0, 0]])
    assert a - a == M([[0, 0], [0, 0]])
    assert a**0 == SquareMatrix.identity(2)
    assert a**3 == a * a * a
    assert a**-1 == b


def test_matrix_pow_negative():
    a = M([[1, 1], [0, 1]])
    assert a**-2 == M([[1, -2], [0, 1]])


def test_matrix_inverse_exact_random():
    rng = random.Random(31)
    done = 0
    while done < 50:
        a = M([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        if a.det() == 0:
            continue
        assert a * a.inverse() == SquareMatrix.identity(3)
        done += 1


_entry = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def _square_pairs(draw):
    n = draw(st.integers(2, 4))
    square = st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return M(draw(square)), M(draw(square))


@settings(max_examples=60, deadline=None)
@given(_square_pairs())
def test_row_reduce_det_and_inverse(pair):
    a, b = pair
    assert (a * b).det() == a.det() * b.det()
    if a.det() != 0:
        assert a * a.inverse() == SquareMatrix.identity(a.n)
        assert a.inverse() * a == SquareMatrix.identity(a.n)


@settings(max_examples=60, deadline=None)
@given(_square_pairs(), st.lists(_entry, min_size=4, max_size=4))
def test_row_reduce_singular(pair, coeffs):
    # the last row is a combination of the others, so the matrix is singular
    rows = [list(r) for r in pair[0].entries]
    rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows[:-1])) for j in range(len(rows))]
    a = M(rows)
    assert a.det() == 0
    with pytest.raises(ZeroDivisionError):
        a.inverse()
    rref, pivots, det = row_reduce(rows)
    assert det == 0 and len(rref) == len(pivots) < a.n


def test_require_unimodular():
    require_unimodular(M([[1, 1], [0, 1]]))
    with pytest.raises(GrowthcertError):
        require_unimodular(M([[2, 0], [0, 1]]))


def test_word_algebra():
    w = Word.parse("0 1^-1 0")
    assert str(w) == "0 1^-1 0"
    assert len(w) == 3
    assert str(w.inverse()) == "0^-1 1 0^-1"
    assert str(w**2) == "0 1^-1 0 0 1^-1 0"
    assert (w * Word.parse("1")).letters[-1] == (1, 1)
    assert Word.parse(str(w)) == w
    assert str(Word.generator(3)) == "3"


def test_word_validation():
    with pytest.raises(ValueError):
        Word(((0, 2),))
    with pytest.raises(WordIndexError):
        Word(((-1, 1),))


def test_evaluate_word():
    g0 = M([[1, 2], [0, 1]])
    g1 = M([[1, 0], [2, 1]])
    assert evaluate_word(Word.parse("0 1"), [g0, g1]) == g0 * g1
    assert evaluate_word(Word.parse("0 0^-1"), [g0, g1]) == SquareMatrix.identity(2)
    with pytest.raises(WordIndexError):
        evaluate_word(Word.parse("2"), [g0, g1])


def test_word_inverse_evaluates_to_matrix_inverse():
    rng = random.Random(7)
    gens = [M([[1, 2], [0, 1]]), M([[1, 0], [2, 1]])]
    for _ in range(40):
        letters = tuple(
            (rng.randint(0, 1), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))
        )
        w = Word(letters)
        assert evaluate_word(w.inverse(), gens) == evaluate_word(w, gens).inverse()


@dataclass(frozen=True)
class NormProfile:
    """Max-entry norm of a matrix at each place of an S-set, plus the max."""

    per_place: tuple[tuple[Place, F], ...]

    def at(self, v: Place) -> F:
        for place, value in self.per_place:
            if place == v:
                return value
        raise KeyError(str(v))

    @property
    def global_norm(self) -> F:
        return max(value for _, value in self.per_place)


def matrix_norm(a: SquareMatrix, s: PlaceSet) -> NormProfile:
    """Entrywise-max norm at every place of s; exact rationals."""
    rows = []
    for v in s:
        rows.append((v, max(abs_value(x, v) for row in a.entries for x in row)))
    return NormProfile(tuple(rows))


def test_matrix_norm_per_place():
    a = M([[F(1, 2), 4], [0, F(1, 2)]])
    s = PlaceSet.from_primes([2])
    profile = matrix_norm(a, s)
    assert profile.at(ARCH) == 4
    assert profile.at(Place.finite(2)) == 2
    assert profile.global_norm == 4


def test_s_support():
    gens = [M([[F(1, 2), 0], [0, 2]]), M([[1, F(1, 15)], [0, 1]])]
    s = s_support(gens)
    assert primes_of(s) == (2, 3, 5)
    assert primes_of(s_support([M([[1, 1], [0, 1]])])) == ()


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction arithmetic it replaced


def test_integer_form_is_canonical():
    m = M([[F(1, 2), F(-1, 3)], [F(5, 6), 2]])
    assert (m.den, m.num) == (6, ((3, -2), (5, 12)))
    assert M([[F(x, m.den) for x in row] for row in m.num]) == m
    ident = SquareMatrix.identity(3)
    assert (ident.den, ident.num) == (1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def reference_matmul(a, b):
    """Entry-by-entry Fraction product."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def reference_row_reduce(rows):
    """Fraction Gauss-Jordan: (rref, pivots, det) as row_reduce documents them."""
    m = [[F(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    det = F(1)
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(m):
            break
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        lead = m[rank][col]
        det *= lead
        prow = [x / lead for x in m[rank][col:]]
        m[rank][col:] = prow
        for r, row in enumerate(m):
            f = row[col]
            if r != rank and f != 0:
                row[col:] = [a - f * b for a, b in zip(row[col:], prow)]
        pivots.append(col)
    if len(pivots) < len(m):
        det = F(0)
    return m[: len(pivots)], pivots, det


def _types(x):
    """The nested structure of x with every leaf replaced by its type."""
    if isinstance(x, (list, tuple)):
        return type(x), [_types(y) for y in x]
    return type(x)


def assert_identical(got, want):
    assert got == want
    assert _types(got) == _types(want)


def hostile_matrix(seed=5, n=6):
    """n x n with small numerators over n^2 distinct 300-digit denominators."""
    rng = random.Random(seed)
    dens: set[int] = set()
    while len(dens) < n * n:
        dens.add(rng.randrange(10**299, 10**300))
    dens = sorted(dens)
    return M([[F(rng.randint(-10**6, 10**6), dens[n * i + j]) for j in range(n)] for i in range(n)])


_kernel_entry = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**20)),
)


@st.composite
def _matrices(draw, rows=None, cols=None, zero_rows=True):
    """A rows x cols grid of ints and Fractions, with repeated and zero rows mixed in."""
    nr = draw(st.integers(1, 6)) if rows is None else rows
    nc = draw(st.integers(1, 6)) if cols is None else cols
    grid = []
    for _ in range(nr):
        kind = draw(st.sampled_from(["random", "random", "random", "zero", "combo"]))
        if kind == "zero" and zero_rows:
            grid.append([0] * nc)
        elif kind == "combo" and grid:
            # a rational combination of earlier rows: rank deficiency
            c1, c2 = draw(_kernel_entry), draw(_kernel_entry)
            r1, r2 = draw(st.sampled_from(grid)), draw(st.sampled_from(grid))
            grid.append([c1 * x + c2 * y for x, y in zip(r1, r2)])
        else:
            grid.append([draw(_kernel_entry) for _ in range(nc)])
    return grid


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(_matrices(n, n), _matrices(n, n))))
def test_matmul_matches_fraction_reference(pair):
    a, b = M(pair[0]), M(pair[1])
    assert_identical((a * b).entries, reference_matmul(a.entries, b.entries))


def test_matmul_matches_fraction_reference_seeded():
    rng = random.Random(1501)
    for _ in range(300):
        n = rng.randint(1, 6)
        den = rng.choice([1, 2, 6, 10**12])

        def grid():
            return [[F(rng.randint(-50, 50), rng.randint(1, den)) for _ in range(n)] for _ in range(n)]

        a, b = M(grid()), M(grid())
        assert_identical((a * b).entries, reference_matmul(a.entries, b.entries))


@settings(max_examples=300, deadline=None)
@given(_matrices())
@example([[0, 0], [0, 0]])
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
@example([[0, 1, 2], [0, 2, 4], [1, 0, 0]])
@example([[F(1, 2), 1], [1, 2], [3, 6]])
def test_row_reduce_matches_fraction_reference(grid):
    assert_identical(row_reduce(grid), reference_row_reduce(grid))


def test_row_reduce_matches_fraction_reference_seeded():
    rng = random.Random(1502)
    for _ in range(600):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        grid = [
            [F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 7])) if rng.random() < 0.7 else F(0) for _ in range(nc)]
            for _ in range(nr)
        ]
        if nr > 1 and rng.random() < 0.3:
            grid[-1] = [x - 2 * y for x, y in zip(grid[0], grid[1 % nr])]
        assert_identical(row_reduce(grid), reference_row_reduce(grid))


def test_row_reduce_empty_zero_and_generator_input():
    assert_identical(row_reduce([]), ([], [], F(1)))
    assert_identical(row_reduce([[]]), reference_row_reduce([[]]))
    assert_identical(row_reduce([[0, 0, 0]] * 3), ([], [], F(0)))
    grid = [[1, 2, 3], [F(1, 2), 5, 0], [0, 0, F(7, 3)]]
    assert_identical(row_reduce(tuple(row) for row in grid), reference_row_reduce(grid))
    assert_identical(row_reduce(iter(row) for row in grid), reference_row_reduce(grid))


def test_row_reduce_det_sign_follows_row_swaps():
    # one swap, then two swaps (a 3-cycle), then a swap below a pivot
    for grid, det in (
        ([[0, 1], [1, 0]], -1),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
        ([[2, 1, 1], [4, 2, 5], [6, 4, 3]], -6),
        ([[0, F(1, 2), 0], [F(3, 5), 0, 0], [0, 0, F(-2, 7)]], F(3, 35)),
    ):
        assert row_reduce(grid)[2] == det
        assert_identical(row_reduce(grid), reference_row_reduce(grid))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: _matrices(n, n, zero_rows=False)))
def test_inverse_round_trip_matches_fraction_reference(grid):
    a = M(grid)
    n = a.n
    ident = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    rref, pivots, det = reference_row_reduce([row + id_row for row, id_row in zip(grid, ident)])
    assert a.det() == reference_row_reduce(grid)[2]
    if pivots != list(range(n)):
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    inv = a.inverse()
    assert_identical(inv.entries, tuple(tuple(row[n:]) for row in rref))
    assert a * inv == inv * a == SquareMatrix.identity(n)
    assert inv.inverse() == a


def test_hostile_denominators_match_fraction_reference():
    # products of distinct 300-digit denominators grow the entries fast;
    # the kernel must still agree exactly and finish well inside the bound
    a = hostile_matrix()
    t0 = time.perf_counter()
    got = row_reduce(a.entries)
    inv = a.inverse()
    prod = inv * a
    elapsed = time.perf_counter() - t0
    assert_identical(got, reference_row_reduce(a.entries))
    n = a.n
    rref, _, _ = reference_row_reduce(
        [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a.entries)]
    )
    assert_identical(inv.entries, tuple(tuple(row[n:]) for row in rref))
    assert prod == SquareMatrix.identity(n)
    assert elapsed < 30


# ---------------------------------------------------------------------------
# the integer-held SquareMatrix against the Fraction matrix it replaced


@dataclass(frozen=True)
class ReferenceMatrix:
    """The Fraction SquareMatrix: entries as Fraction rows, arithmetic entry by entry."""

    entries: tuple[tuple[F, ...], ...]

    @staticmethod
    def from_rows(rows) -> "ReferenceMatrix":
        return ReferenceMatrix(tuple(tuple(F(x) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "ReferenceMatrix":
        return ReferenceMatrix(tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other):
        return ReferenceMatrix(reference_matmul(self.entries, other.entries))

    def __add__(self, other):
        return ReferenceMatrix(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        )

    def __sub__(self, other):
        return ReferenceMatrix(
            tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        )

    def __neg__(self):
        return self.scale(F(-1))

    def scale(self, c):
        c = F(c)
        return ReferenceMatrix(tuple(tuple(c * x for x in row) for row in self.entries))

    def det(self):
        return reference_row_reduce(self.entries)[2]

    def inverse(self):
        n = self.n
        rref, pivots, _ = reference_row_reduce(
            [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(self.entries)]
        )
        if pivots != list(range(n)):
            raise ZeroDivisionError("singular matrix")
        return ReferenceMatrix(tuple(tuple(row[n:]) for row in rref))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = ReferenceMatrix.identity(self.n)
        for _ in range(k):
            result = result * self
        return result

    def max_abs_entry(self):
        return max(abs(x) for row in self.entries for x in row)


def assert_same_matrix(got, want):
    """got is canonical (den, num) and holds exactly want's Fraction entries."""
    assert isinstance(got, SquareMatrix)
    d, num = got.den, got.num
    assert type(d) is int and d > 0
    assert all(type(x) is int for row in num for x in row)
    assert math.gcd(d, *(x for row in num for x in row)) == 1
    assert_identical(got.entries, want.entries)
    assert got == SquareMatrix.from_rows(want.entries)
    assert hash(got) == hash(SquareMatrix.from_rows(want.entries))


def _invertible_or_none(m):
    try:
        return m.inverse()
    except ZeroDivisionError:
        return None


@st.composite
def _matrix_cases(draw):
    n = draw(st.integers(1, 4))
    grids = [draw(_matrices(n, n)) for _ in range(2)]
    c = draw(_kernel_entry)
    k = draw(st.integers(-3, 3))
    return grids, F(c), k


@settings(max_examples=200, deadline=None)
@given(_matrix_cases())
@example(([[[F(1, 2), 0], [0, F(1, 2)]], [[F(-1, 2), 0], [0, F(1, 2)]]], F(0), -1))
@example(([[[0, 0], [0, 0]], [[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]], F(-2), 2))
def test_matrix_matches_fraction_reference(case):
    (ga, gb), c, k = case
    a, b = M(ga), M(gb)
    ra, rb = ReferenceMatrix.from_rows(ga), ReferenceMatrix.from_rows(gb)
    assert_same_matrix(a, ra)
    assert_same_matrix(a * b, ra * rb)
    assert_same_matrix(a + b, ra + rb)
    assert_same_matrix(a - b, ra - rb)
    assert_same_matrix(a - a, ra - ra)
    assert_same_matrix(a.scale(c), ra.scale(c))
    assert_same_matrix(-a, -ra)
    assert_identical(a.det(), ra.det())
    assert_identical(a.max_abs_entry(), ra.max_abs_entry())
    for i in range(a.n):
        for j in range(a.n):
            assert_identical(a[i, j], ra[i, j])
    inv, rinv = _invertible_or_none(a), _invertible_or_none(ra)
    assert (inv is None) == (rinv is None)
    if inv is not None:
        assert_same_matrix(inv, rinv)
    if k >= 0 or inv is not None:
        assert_same_matrix(a**k, ra**k)
    else:
        with pytest.raises(ZeroDivisionError):
            a**k


def test_matrix_equality_ignores_how_the_denominator_was_written():
    halves = SquareMatrix(4, [[2, -6], [0, 4]])
    assert (halves.den, halves.num) == (2, ((1, -3), (0, 2)))
    for same in (
        SquareMatrix(2, [[1, -3], [0, 2]]),
        SquareMatrix(-2, [[-1, 3], [0, -2]]),
        M([[F(2, 4), F(-3, 2)], [0, 1]]),
        M([[F(1, 2), F(-6, 4)], [F(0, 7), F(4, 4)]]),
        SquareMatrix.identity(2).scale(F(1, 2)) * SquareMatrix(1, [[1, -3], [0, 2]]),
    ):
        assert same == halves and hash(same) == hash(halves)
        assert (same.den, same.num) == (halves.den, halves.num)
    assert SquareMatrix(7, [[0, 0], [0, 0]]).den == 1
    assert halves != SquareMatrix(1, [[1, -3], [0, 2]])
    with pytest.raises(ZeroDivisionError):
        SquareMatrix(0, [[1]])
    with pytest.raises(ValueError):
        SquareMatrix(1, [[1, 2]])


def test_matrix_is_immutable():
    m = M([[F(1, 2), 1], [0, 2]])
    assert m.entries == ((F(1, 2), F(1)), (F(0), F(2)))
    for name, value in (("den", 1), ("num", ((1, 2), (0, 4))), ("entries", ()), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
    with pytest.raises(AttributeError):
        del m.den
    assert (m.den, m.num) == (2, ((1, 2), (0, 4)))
