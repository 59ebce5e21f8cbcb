"""Rational interval arithmetic with directed rounding.

Endpoints are exact Fractions, so containment claims are theorems, not
floating-point folklore.  The only irrational operation is square root,
handled by isqrt-based directed bounds; everything else is closed over Q.
Outward dyadic rounding keeps denominators from exploding along long
computation chains; it only ever widens an interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import SingularEnclosure


def dyadic_floor(x: Fraction, bits: int) -> Fraction:
    """Largest multiple of a power of two <= x, keeping ~bits significant bits."""
    if x == 0:
        return Fraction(0)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    shift = bits - e
    if shift <= 0:
        scaled = x / (1 << -shift)
        return Fraction(scaled.numerator // scaled.denominator) * (1 << -shift)
    scaled = x * (1 << shift)
    return Fraction(scaled.numerator // scaled.denominator, 1 << shift)


def dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    return -dyadic_floor(-x, bits)


def sqrt_lower(x: Fraction, bits: int = 64) -> Fraction:
    """Rational r with r*r <= x, within 2^-bits relative slack."""
    if x < 0:
        raise ValueError("sqrt of negative")
    if x == 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    # sqrt(num/den) = sqrt(num*den)/den; scale so isqrt sees ~2*bits bits
    scale = 1 << bits
    s = isqrt(num * den * scale * scale)
    return Fraction(s, den * scale)


def sqrt_upper(x: Fraction, bits: int = 64) -> Fraction:
    """Rational r with r*r >= x, within 2^-bits relative slack."""
    if x < 0:
        raise ValueError("sqrt of negative")
    if x == 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    scale = 1 << bits
    s = isqrt(num * den * scale * scale)
    if Fraction(s, den * scale) ** 2 == x:
        return Fraction(s, den * scale)
    return Fraction(s + 1, den * scale)


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", Fraction(self.lo))
        if not isinstance(self.hi, Fraction):
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x) -> "RationalInterval":
        x = Fraction(x)
        return RationalInterval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def __add__(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "RationalInterval":
        return RationalInterval(-self.hi, -self.lo)

    def __mul__(self, other: "RationalInterval") -> "RationalInterval":
        # exact endpoints make every shortcut return the four-product hull
        if self.lo == self.hi:
            if other.lo == other.hi:
                x = self.lo * other.lo
                return RationalInterval(x, x)
            return other.scale(self.lo)
        if other.lo == other.hi:
            return self.scale(other.lo)
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RationalInterval(min(cands), max(cands))

    def scale(self, c: Fraction) -> "RationalInterval":
        c = Fraction(c)
        if c >= 0:
            return RationalInterval(self.lo * c, self.hi * c)
        return RationalInterval(self.hi * c, self.lo * c)

    def square(self) -> "RationalInterval":
        if self.lo >= 0:
            return RationalInterval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return RationalInterval(self.hi * self.hi, self.lo * self.lo)
        return RationalInterval(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

    def recip(self) -> "RationalInterval":
        if self.contains_zero():
            raise SingularEnclosure("reciprocal of interval containing 0")
        return RationalInterval(1 / self.hi, 1 / self.lo)

    def pow_int(self, k: int) -> "RationalInterval":
        if k == 0:
            return RationalInterval.point(1)
        if k < 0:
            return self.pow_int(-k).recip()
        lo_k, hi_k = self.lo**k, self.hi**k
        if k % 2 == 1:
            return RationalInterval(lo_k, hi_k)
        if self.lo >= 0:
            return RationalInterval(lo_k, hi_k)
        if self.hi <= 0:
            return RationalInterval(hi_k, lo_k)
        return RationalInterval(Fraction(0), max(lo_k, hi_k))

    def abs_interval(self) -> "RationalInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RationalInterval(Fraction(0), max(-self.lo, self.hi))

    def round_out(self, bits: int) -> "RationalInterval":
        return RationalInterval(dyadic_floor(self.lo, bits), dyadic_ceil(self.hi, bits))


_RI_ZERO = RationalInterval.point(0)
_RI_ONE = RationalInterval.point(1)


@dataclass(frozen=True)
class ComplexInterval:
    """Axis-aligned box in C: re + i*im with rational interval components.

    Exact real numbers embed as point boxes with im = [0, 0]; arithmetic on
    such boxes never invents an imaginary part, so real chains stay real.
    """

    re: RationalInterval
    im: RationalInterval

    @staticmethod
    def point(re, im=0) -> "ComplexInterval":
        return ComplexInterval(RationalInterval.point(re), RationalInterval.point(im))

    @staticmethod
    def from_box(re_lo, re_hi, im_lo, im_hi) -> "ComplexInterval":
        return ComplexInterval(
            RationalInterval(Fraction(re_lo), Fraction(re_hi)),
            RationalInterval(Fraction(im_lo), Fraction(im_hi)),
        )

    def __add__(self, other: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexInterval") -> "ComplexInterval":
        return ComplexInterval(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexInterval":
        return ComplexInterval(-self.re, -self.im)

    def __mul__(self, other: "ComplexInterval") -> "ComplexInterval":
        # a zero imaginary part zeroes its cross terms exactly
        if self.im == _RI_ZERO:
            return ComplexInterval(self.re * other.re, self.re * other.im)
        if other.im == _RI_ZERO:
            return ComplexInterval(self.re * other.re, self.im * other.re)
        return ComplexInterval(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def scale(self, c: Fraction) -> "ComplexInterval":
        return ComplexInterval(self.re.scale(c), self.im.scale(c))

    def mag_sq(self) -> RationalInterval:
        return self.re.square() + self.im.square()

    def mag(self, bits: int = 64) -> RationalInterval:
        ms = self.mag_sq()
        return RationalInterval(sqrt_lower(ms.lo, bits), sqrt_upper(ms.hi, bits))

    def recip(self) -> "ComplexInterval":
        den = self.mag_sq()
        if den.contains_zero():
            raise SingularEnclosure("reciprocal of box containing 0")
        inv = den.recip()
        return ComplexInterval(self.re * inv, (-self.im) * inv)

    def pow_int(self, k: int, round_bits: int | None = None) -> "ComplexInterval":
        if k < 0:
            return self.pow_int(-k, round_bits).recip()
        result = ComplexInterval.point(1)
        base = self
        while k:
            if k & 1:
                result = result * base
                if round_bits:
                    result = result.round_out(round_bits)
            k >>= 1
            if k:
                base = base * base
                if round_bits:
                    base = base.round_out(round_bits)
        return result

    def contains(self, re: Fraction, im: Fraction = Fraction(0)) -> bool:
        return self.re.contains(re) and self.im.contains(im)

    def round_out(self, bits: int) -> "ComplexInterval":
        return ComplexInterval(self.re.round_out(bits), self.im.round_out(bits))

    @property
    def max_width(self) -> Fraction:
        return max(self.re.width, self.im.width)


CMatrix = tuple[tuple[ComplexInterval, ...], ...]


def cmat_from_exact(m) -> CMatrix:
    """Lift a SquareMatrix (or row iterable of Fractions) to point boxes."""
    rows = m.entries if hasattr(m, "entries") else m
    return tuple(tuple(ComplexInterval.point(x) for x in row) for row in rows)


def cmat_mul(a: CMatrix, b: CMatrix, round_bits: int | None = None) -> CMatrix:
    cols = tuple(zip(*b))
    out = []
    for row in a:
        new_row = []
        for col in cols:
            acc = ComplexInterval.point(0)
            for x, y in zip(row, col):
                acc = acc + x * y
            if round_bits:
                acc = acc.round_out(round_bits)
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def cmat_sub(a: CMatrix, b: CMatrix) -> CMatrix:
    return tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def cmat_det_small(a: CMatrix) -> ComplexInterval:
    """Cofactor-expansion determinant; fine for the small orders used here."""
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    acc = ComplexInterval.point(0)
    rest = a[1:]
    for j in range(n):
        minor = tuple(tuple(row[c] for c in range(n) if c != j) for row in rest)
        term = a[0][j] * cmat_det_small(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def cmat_inverse(a: CMatrix, round_bits: int | None = None) -> CMatrix:
    """Gauss-Jordan with certified-nonzero pivots.

    Pivot choice: row with the largest lower bound on |entry|; raises
    SingularEnclosure when no pivot is certified nonzero, which callers
    treat as "escalate precision and retry".  A library routine: eigenbases
    take P^-1 from the adjugate polynomial instead (wordforge.diagonalize).
    """
    n = len(a)
    aug = [list(row) + [ComplexInterval.point(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        best, best_low = None, Fraction(0)
        for r in range(col, n):
            low = aug[r][col].mag_sq().lo
            if low > best_low:
                best, best_low = r, low
        if best is None:
            raise SingularEnclosure(f"no certified pivot in column {col}")
        aug[col], aug[best] = aug[best], aug[col]
        inv = aug[col][col].recip()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        if round_bits:
            for r in range(n):
                aug[r] = [x.round_out(round_bits) for x in aug[r]]
    return tuple(tuple(row[n:]) for row in aug)

