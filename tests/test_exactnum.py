import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
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
