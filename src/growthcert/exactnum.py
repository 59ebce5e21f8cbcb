"""Exact arithmetic over Q with places.

Rationals are Fractions at the API and integers inside the kernel.  A
SquareMatrix is held as an integer matrix N over one denominator d, so
products, determinants, inverses and characteristic polynomials (in
spectra) are integer work, and its Fraction entries are built only when
something reads them.  Every exact elimination is bareiss, on integer
rows.  "p/q" strings are the only serialized form (never floats), and the
integers start at the file: rational_pair reads a plain literal into
(p, q) with int() alone, so a generator file becomes integer matrices
without a Fraction per entry.  A place is either the archimedean absolute value or a p-adic one; a PlaceSet
is a finite set of places containing the archimedean one, which is what all
product-formula style bounds range over.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import GrowthcertError, WordIndexError


# "p" or "p/q" in ASCII digits with no sign but "-" and no spaces or "_":
# what canonical output writes, and what int() reads as Fraction(str) would
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_pair(text: str) -> tuple[int, int]:
    """(p, q) with text = p/q and q > 0, not necessarily in lowest terms.

    Accepts and rejects what parse_rational does, with the same errors.  A
    plain literal is read by int() alone, without a Fraction: int() refuses
    more than 4,300 digits with the message Fraction(str) gives, and q = 0
    takes Fraction's path to its ZeroDivisionError.
    """
    m = _PLAIN_RATIONAL.fullmatch(text)
    if m is not None:
        p, q = int(m[1]), int(m[2] or 1)
        if q:
            return p, q
    x = _parse_fraction(text)
    return x.numerator, x.denominator


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction. Rejects floats and empty input."""
    return Fraction(*rational_pair(text))


def _parse_fraction(text: str) -> Fraction:
    """parse_rational for any literal, through Fraction's own parser."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if any(c in s for c in ".eE") and not s.lstrip("+-").isdigit():
        raise ValueError(f"rational literal must be p/q, got {text!r}")
    return Fraction(s)


def typed_field(obj: dict, key: str, kind: type):
    """obj[key], which must have exactly the JSON type kind (no coercion).

    bool is a subclass of int, so the exact type is tested: true is not 1.
    """
    x = obj[key]
    if type(x) is not kind:
        raise ValueError(f"{key} must be a JSON {kind.__name__}, got {x!r}")
    return x


def _decimal(n: int) -> str:
    """str(n) at any size: str refuses past 4,300 digits, so split n at 10^k."""
    if n.bit_length() <= 8192:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    hi, lo = divmod(n, 10 ** (k := n.bit_length() * 3 // 20))  # k: half of n's digits
    return _decimal(hi) + _decimal(lo).zfill(k)


def format_rational(x: Fraction) -> str:
    """Canonical "p/q" form, in full at any size; integers render without the slash."""
    x = Fraction(x)
    if x.denominator == 1:
        return _decimal(x.numerator)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


# ---------------------------------------------------------------------------
# primes and valuations


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set covers all n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Pollard rho steps one factorize call may spend: enough to split off
# primes up to about 2^32 (rho needs about sqrt(p) steps for a prime p),
# and about a second of pure Python on a 200-bit cofactor.
_RHO_STEPS = 1 << 17


def _pollard_rho(n: int, rng: random.Random, steps: int) -> tuple[int, int]:
    """A nontrivial factor of the odd composite n, and the steps left."""
    while True:
        x = rng.randrange(2, n)
        y, c, d = x, rng.randrange(1, n), 1
        while d == 1:
            if steps == 0:
                raise GrowthcertError(
                    f"could not factor a {n.bit_length()}-bit cofactor "
                    f"within {_RHO_STEPS} Pollard rho steps"
                )
            steps -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d, steps


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: multiplicity}; n must be nonzero.

    Raises GrowthcertError when Pollard rho exhausts its _RHO_STEPS budget.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    rng = random.Random(0xFAC7)
    steps = _RHO_STEPS
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, steps = _pollard_rho(m, rng, steps)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def padic_valuation(x: Fraction, p: int) -> int:
    """v_p(x) for nonzero rational x.

    v_p(a/b) = v_p(a) - v_p(b); raises on x = 0 (valuation is +infinity).
    """
    if x == 0:
        raise ValueError("v_p(0) is +infinity")
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# places


@dataclass(frozen=True, order=True)
class Place:
    """One absolute value on Q: archimedean, or p-adic for a prime p.

    Ordering puts the archimedean place first, then primes ascending, which
    fixes iteration order everywhere (deterministic output requirement).
    """

    sort_key: int
    prime: int | None = None

    @staticmethod
    def archimedean() -> "Place":
        return Place(0, None)

    @staticmethod
    def finite(p: int) -> "Place":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return Place(p, p)

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "archimedean" if self.prime is None else f"finite:{self.prime}"

    @staticmethod
    def parse(text: str) -> "Place":
        if text == "archimedean":
            return Place.archimedean()
        if text.startswith("finite:"):
            return Place.finite(int(text.split(":", 1)[1]))
        raise ValueError(f"bad place literal {text!r}")


ARCH = Place.archimedean()


@dataclass(frozen=True)
class PlaceSet:
    """Finite set of places, always containing the archimedean one."""

    places: tuple[Place, ...]

    def __post_init__(self):
        seen = sorted(set(self.places) | {ARCH})
        object.__setattr__(self, "places", tuple(seen))

    @staticmethod
    def from_primes(primes) -> "PlaceSet":
        return PlaceSet(tuple(Place.finite(p) for p in primes))

    def __iter__(self):
        return iter(self.places)

    def __len__(self):
        return len(self.places)

    def __contains__(self, v: Place) -> bool:
        return v in self.places

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in self.places) + "}"


def abs_value(x: Fraction, v: Place) -> Fraction:
    """|x|_v as an exact rational.

    Archimedean: ordinary absolute value.  p-adic: p^(-v_p(x)), |0| = 0.
    Both are genuinely rational-valued on rational input, so no rounding.
    """
    x = Fraction(x)
    if v.is_archimedean:
        return abs(x)
    if x == 0:
        return Fraction(0)
    val = padic_valuation(x, v.prime)
    return Fraction(1, v.prime**val) if val >= 0 else Fraction(v.prime ** (-val))


# ---------------------------------------------------------------------------
# matrices


def int_matmul(x, y) -> tuple[tuple[int, ...], ...]:
    """The product of two integer matrices given as rows."""
    cols = tuple(zip(*y))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in x)


def bareiss(m: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan on the integer rows m, in place.

    Returns (pivots, sign, prev): the pivot column of each of the first
    len(pivots) rows, the sign of the row swaps and the last pivot.  Every
    other row r becomes (p * r - r[col] * prow) / prev, p the new pivot and
    prev the one before, and each division is exact (Bareiss, Math. Comp. 22
    (1968)).  Afterwards every pivot entry equals prev, so the first
    len(pivots) rows are prev times the reduced row echelon form, the rows
    below are zero, and for a square m, sign * prev is its determinant when
    it has full rank.  This is the package's only exact elimination.
    """
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(m):
            break
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        prow = m[rank]
        p = prow[col]
        # entries left of col are zero in every row from rank down
        tail = prow[col:]
        for r, row in enumerate(m):
            f = row[col]
            if r < rank:
                m[r] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            elif r > rank and (f != 0 or p != prev):
                row[col:] = [(p * a - f * b) // prev for a, b in zip(row[col:], tail)]
        prev = p
        pivots.append(col)
    return pivots, sign, prev


class SquareMatrix:
    """Immutable square matrix over Q, held as an integer matrix over one denominator.

    M = num / den with den > 0 and gcd(den, num) = 1, so the pair (den,
    num) is unique: equality and hashing (the matrix is a BFS dictionary
    key) use it.  Products are integer matmuls, determinant and inverse
    integer eliminations; entries, the Fraction rows, are built only when
    read.  SquareMatrix(den, num) reduces any nonzero den and integer rows
    to that form; from_rows takes rows of ints and Fractions.
    """

    __slots__ = ("den", "num", "_entries")

    den: int
    num: tuple[tuple[int, ...], ...]

    def __init__(self, den: int, num) -> None:
        num = tuple(map(tuple, num))
        n = len(num)
        if n == 0 or any(len(r) != n for r in num):
            raise ValueError("matrix must be square and nonempty")
        if den == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        g = gcd(den, *(x for row in num for x in row))
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            num = tuple(tuple(x // g for x in row) for row in num)
        _set_den(self, den)
        _set_num(self, num)

    def __setattr__(self, name, value):
        raise AttributeError(f"SquareMatrix is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"SquareMatrix is immutable: cannot delete {name}")

    def __eq__(self, other):
        if other.__class__ is not SquareMatrix:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.den, self.num))

    def __repr__(self) -> str:
        return f"SquareMatrix({self.den}, {self.num})"

    @staticmethod
    def from_rows(rows) -> "SquareMatrix":
        rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        # the lcm d of the reduced denominators leaves no prime common to d and every entry
        d = lcm(*(x.denominator for row in rows for x in row))
        return _canonical(d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "SquareMatrix":
        return _canonical(1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.num)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The Fraction rows, built on first read."""
        try:
            return self._entries
        except AttributeError:
            d = self.den
            rows = tuple(tuple(Fraction(x, d) for x in row) for row in self.num)
            _set_entries(self, rows)
            return rows

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        num = int_matmul(self.num, other.num)
        d = self.den * other.den
        return _canonical(1, num) if d == 1 else SquareMatrix(d, num)

    def _combine(self, other: "SquareMatrix", sign: int) -> "SquareMatrix":
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, sign * (d // other.den)
        return SquareMatrix(
            d, [[fa * x + fb * y for x, y in zip(r1, r2)] for r1, r2 in zip(self.num, other.num)]
        )

    def __add__(self, other: "SquareMatrix") -> "SquareMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "SquareMatrix") -> "SquareMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "SquareMatrix":
        return _canonical(self.den, tuple(tuple(-x for x in row) for row in self.num))

    def scale(self, c: Fraction) -> "SquareMatrix":
        c = Fraction(c)
        return SquareMatrix(
            self.den * c.denominator, [[c.numerator * x for x in row] for row in self.num]
        )

    def _row_form(self) -> tuple[list[list[int]], list[int]]:
        """(R, e) with row i of M equal to R_i / e_i, e_i the least denominator of that row.

        Eliminations run on R rather than N, so a row's integers are as
        large as its own denominators need, not the whole matrix's:
        M = E^-1 R with E = diag(e).
        """
        d = self.den
        rows, dens = [], []
        for row in self.num:
            g = gcd(d, *row)
            rows.append([x // g for x in row] if g != 1 else list(row))
            dens.append(d // g)
        return rows, dens

    def det(self) -> Fraction:
        """Exact determinant: det(R) / prod(e) by integer elimination (see _row_form)."""
        rows, dens = self._row_form()
        pivots, sign, prev = bareiss(rows)
        if len(pivots) < self.n:
            return Fraction(0)
        return Fraction(sign * prev, prod(dens))

    def inverse(self) -> "SquareMatrix":
        """Exact inverse by integer Gauss-Jordan on [R | E]; raises on singular input.

        M^-1 = R^-1 E, and the elimination leaves [p I | p R^-1 E], so the
        inverse is the right block over the last pivot p.
        """
        n = self.n
        rows, dens = self._row_form()
        m = [row + [e if i == j else 0 for j in range(n)] for i, (row, e) in enumerate(zip(rows, dens))]
        pivots, _, prev = bareiss(m)
        if pivots != list(range(n)):
            raise ZeroDivisionError("singular matrix")
        return SquareMatrix(prev, [row[n:] for row in m])

    def __pow__(self, k: int) -> "SquareMatrix":
        """A^k by binary powering: floor(log2 k) squarings and one product per further set bit."""
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return SquareMatrix.identity(self.n)
        result, base = None, self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def max_abs_entry(self) -> Fraction:
        return Fraction(max(abs(x) for row in self.num for x in row), self.den)


# slot setters that bypass the immutability guard, for the constructors only
_set_den = SquareMatrix.den.__set__
_set_num = SquareMatrix.num.__set__
_set_entries = SquareMatrix._entries.__set__


def _canonical(den: int, num: tuple[tuple[int, ...], ...]) -> SquareMatrix:
    """The matrix num / den, for a pair already in canonical form."""
    m = object.__new__(SquareMatrix)
    _set_den(m, den)
    _set_num(m, num)
    return m


def require_unimodular(m: SquareMatrix) -> SquareMatrix:
    """Ingestion gate for group elements: det must be exactly 1."""
    d = m.det()
    if d != 1:
        raise GrowthcertError(f"determinant is {format_rational(d)}, expected 1")
    return m


# ---------------------------------------------------------------------------
# words


@dataclass(frozen=True)
class Word:
    """Word in the generators: a sequence of (index, sign) letters.

    Sign is +1 or -1 (inverse letter).  Token string form is space-separated
    indices with "^-1" marking inverses, e.g. "0 1 0^-1".
    """

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for idx, s in self.letters:
            if s not in (1, -1):
                raise ValueError("letter sign must be +1 or -1")
            if idx < 0:
                raise WordIndexError(f"negative generator index {idx}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((i, -s) for i, s in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        return Word(self.letters * k)

    def __str__(self) -> str:
        return " ".join(f"{i}" if s == 1 else f"{i}^-1" for i, s in self.letters)

    @staticmethod
    def parse(text: str) -> "Word":
        letters = []
        for tok in text.split():
            if tok.endswith("^-1"):
                letters.append((int(tok[:-3]), -1))
            else:
                letters.append((int(tok), 1))
        return Word(tuple(letters))

    @staticmethod
    def generator(i: int) -> "Word":
        return Word(((i, 1),))


def evaluate_word(word: Word, gens: list[SquareMatrix]) -> SquareMatrix:
    """Multiply out a word over the generator list (inverses exact)."""
    if not gens:
        raise ValueError("empty generator list")
    n = gens[0].n
    result = SquareMatrix.identity(n)
    for idx, sign in word.letters:
        if idx >= len(gens):
            raise WordIndexError(f"letter index {idx} out of range for {len(gens)} generators")
        g = gens[idx]
        result = result * (g if sign == 1 else g.inverse())
    return result


# ---------------------------------------------------------------------------
# support


def s_support(gens: list[SquareMatrix]) -> PlaceSet:
    """Places where some generator entry fails to be integral.

    Determinant-one matrices have adjugate inverses over the same
    denominators, so entry denominators of the generators alone determine
    the support; the archimedean place is always included.  Raises
    GrowthcertError naming the generator when a denominator cannot be
    factored within the Pollard rho step budget.
    """
    primes: set[int] = set()
    for idx, g in enumerate(gens):
        # entry (i, j) is num_ij / den in lowest terms over den / gcd(den, num_ij)
        for den in {g.den // gcd(g.den, x) for row in g.num for x in row} - {1}:
            try:
                primes.update(factorize(den))
            except GrowthcertError as exc:
                raise GrowthcertError(f"generator {idx}: {exc}") from exc
    return PlaceSet.from_primes(sorted(primes))
