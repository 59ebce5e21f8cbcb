"""Exact arithmetic over Q with places.

Rationals are Fractions at the API and integers inside the kernel: matrix
products, characteristic polynomials (in spectra) and row reduction run on
the integer form (d, N) of a matrix and build Fractions only for their
results.  "p/q" strings are the only serialized form (never floats).  A
place is either the archimedean absolute value or a p-adic one; a PlaceSet
is a finite set of places containing the archimedean one, which is what all
product-formula style bounds range over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import GrowthcertError, WordIndexError


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction. Rejects floats and empty input."""
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


def integer_form(m: "SquareMatrix") -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The unique (d, N) with m = N/d, N an integer matrix, d > 0, gcd(d, N) = 1.

    d is the least common denominator of the entries, so no prime of d
    divides every entry of N.
    """
    d = lcm(*(x.denominator for row in m.entries for x in row))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in m.entries)


def row_reduce(rows) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Reduced row echelon form over Q by fraction-free Gauss-Jordan.

    rows holds ints and Fractions.  Returns (rref, pivots, det): the nonzero
    rows of the reduced form, the pivot column of each, and the product of
    the pivots times the sign of the row swaps, which is 0 when the rows are
    linearly dependent.  For a square matrix det is its determinant.  This is the package's only exact
    elimination; rank, kernels, inverses and spans all read its output.

    Each row is scaled to integers by the lcm of its denominators, then
    eliminated by Bareiss's rule: every other row r becomes
    (p * r - r[col] * prow) / prev, p the new pivot and prev the one before,
    and each division is exact.  Afterwards every pivot entry equals the
    last pivot, so the reduced rows are the integer rows over it.
    """
    m = []
    scale = 1
    for row in rows:
        row = list(row)
        s = lcm(*(x.denominator for x in row))
        scale *= s
        m.append([x.numerator * (s // x.denominator) for x in row])
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
    rank = len(pivots)
    rref = [[Fraction(x, prev) for x in row] for row in m[:rank]]
    det = Fraction(sign * prev, scale) if rank == len(m) else Fraction(0)
    return rref, pivots, det


def _as_fraction_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    n = len(out)
    if n == 0 or any(len(r) != n for r in out):
        raise ValueError("matrix must be square and nonempty")
    return out


@dataclass(frozen=True)
class SquareMatrix:
    """Immutable square matrix over Q.

    Hashable (used as BFS dictionary key), with exact determinant, inverse
    via adjugate-free Gauss-Jordan, and integer powers including negatives.
    """

    entries: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows) -> "SquareMatrix":
        return SquareMatrix(_as_fraction_rows(rows))

    @staticmethod
    def identity(n: int) -> "SquareMatrix":
        return SquareMatrix(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i in range(n)
            )
        )

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        da, rows = integer_form(self)
        db, other_rows = integer_form(other)
        cols = tuple(zip(*other_rows))
        d = da * db
        if d == 1:
            return SquareMatrix(
                tuple(tuple(Fraction(sum(map(mul, row, col))) for col in cols) for row in rows)
            )
        return SquareMatrix(
            tuple(tuple(Fraction(sum(map(mul, row, col)), d) for col in cols) for row in rows)
        )

    def __add__(self, other: "SquareMatrix") -> "SquareMatrix":
        return SquareMatrix(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "SquareMatrix") -> "SquareMatrix":
        return SquareMatrix(
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "SquareMatrix":
        return self.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "SquareMatrix":
        c = Fraction(c)
        return SquareMatrix(tuple(tuple(c * x for x in row) for row in self.entries))

    def det(self) -> Fraction:
        """Exact determinant."""
        return row_reduce(self.entries)[2]

    def inverse(self) -> "SquareMatrix":
        """Exact inverse by Gauss-Jordan on [A | I]; raises on singular input."""
        n = self.n
        rref, pivots, _ = row_reduce(
            row + tuple(Fraction(1 if i == j else 0) for j in range(n))
            for i, row in enumerate(self.entries)
        )
        if pivots != list(range(n)):
            raise ZeroDivisionError("singular matrix")
        return SquareMatrix(tuple(tuple(row[n:]) for row in rref))

    def __pow__(self, k: int) -> "SquareMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        result = SquareMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def max_abs_entry(self) -> Fraction:
        return max(abs(x) for row in self.entries for x in row)


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
        for den in {x.denominator for row in g.entries for x in row} - {1}:
            try:
                primes.update(factorize(den))
            except GrowthcertError as exc:
                raise GrowthcertError(f"generator {idx}: {exc}") from exc
    return PlaceSet.from_primes(sorted(primes))
