"""Directed interval arithmetic: rational intervals and dyadic complex boxes.

RationalInterval has exact Fraction endpoints.  It serves the scalar
decisions, where exact rational points decide ties (eigenvalue moduli,
the (L1) gap test).

ComplexInterval is the root finder's output box (polyroots): four integer
endpoints over one power of two, [re_lo, re_hi] + i*[im_lo, im_hi] times
2^-k (ball arithmetic on integer mantissas, after van der Hoeven, "Ball
arithmetic", 2009, and Johansson's Arb).  Sums, differences and products
are exact integer operations; round_out(bits) is the one place precision
is dropped, an outward shift to `bits` significant bits (floor for lower
ends, ceiling for upper ends).  recip and mag round outward too, so every
box contains the exact result for every exact input it contains:
containment claims are theorems, not floating-point folklore, and every
endpoint is a rational.  No eigenbasis is built from boxes: wordforge
reads each root's midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import SingularEnclosure

# significant bits of a reciprocal where the caller names no precision
PREC = 256


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
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

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

    def abs_interval(self) -> "RationalInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RationalInterval(Fraction(0), max(-self.lo, self.hi))


# ---------------------------------------------------------------------------
# dyadic boxes


def _fraction(m: int, k: int) -> Fraction:
    """m * 2^-k as a Fraction."""
    return Fraction(m, 1 << k) if k >= 0 else Fraction(m << -k)


def _imul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """[a, b] * [c, d]: the hull of the four endpoint products, by sign cases."""
    if a >= 0:
        if c >= 0:
            return a * c, b * d
        if d <= 0:
            return b * c, a * d
        return b * c, b * d
    if b <= 0:
        if c >= 0:
            return a * d, b * c
        if d <= 0:
            return b * d, a * c
        return a * d, a * c
    if c >= 0:
        return a * d, b * d
    if d <= 0:
        return b * c, a * c
    return min(a * d, b * c), max(a * c, b * d)


def _isq(a: int, b: int) -> tuple[int, int]:
    """{x^2 : x in [a, b]}."""
    if a >= 0:
        return a * a, b * b
    if b <= 0:
        return b * b, a * a
    return 0, max(a * a, b * b)


class ComplexInterval:
    """Box ([rl, rh] + i*[il, ih]) * 2^-k in C with integer endpoints rl..ih.

    Immutable by convention.  Exact real numbers embed as boxes with
    il = ih = 0; arithmetic on such boxes never invents an imaginary part,
    so real chains stay real.  Equality and hashing go by the box's value,
    whatever power of two it is written over.
    """

    __slots__ = ("rl", "rh", "il", "ih", "k")

    def __init__(self, rl: int, rh: int, il: int = 0, ih: int = 0, k: int = 0):
        self.rl = rl
        self.rh = rh
        self.il = il
        self.ih = ih
        self.k = k

    @property
    def re(self) -> RationalInterval:
        return RationalInterval(_fraction(self.rl, self.k), _fraction(self.rh, self.k))

    @property
    def im(self) -> RationalInterval:
        return RationalInterval(_fraction(self.il, self.k), _fraction(self.ih, self.k))

    def __add__(self, other: "ComplexInterval") -> "ComplexInterval":
        s = self.k - other.k
        if s < 0:
            return other + self
        return ComplexInterval(
            self.rl + (other.rl << s),
            self.rh + (other.rh << s),
            self.il + (other.il << s),
            self.ih + (other.ih << s),
            self.k,
        )

    def __neg__(self) -> "ComplexInterval":
        return ComplexInterval(-self.rh, -self.rl, -self.ih, -self.il, self.k)

    def __sub__(self, other: "ComplexInterval") -> "ComplexInterval":
        return self + (-other)

    def __mul__(self, other: "ComplexInterval") -> "ComplexInterval":
        a, b, c, d = self.rl, self.rh, self.il, self.ih
        e, f, g, h = other.rl, other.rh, other.il, other.ih
        k = self.k + other.k
        # a zero imaginary part zeroes its cross terms exactly
        if c == 0 and d == 0:
            return ComplexInterval(*_imul(a, b, e, f), *_imul(a, b, g, h), k)
        if g == 0 and h == 0:
            return ComplexInterval(*_imul(a, b, e, f), *_imul(c, d, e, f), k)
        rr_lo, rr_hi = _imul(a, b, e, f)
        ii_lo, ii_hi = _imul(c, d, g, h)
        ri_lo, ri_hi = _imul(a, b, g, h)
        ir_lo, ir_hi = _imul(c, d, e, f)
        return ComplexInterval(rr_lo - ii_hi, rr_hi - ii_lo, ri_lo + ir_lo, ri_hi + ir_hi, k)

    def round_out(self, bits: int) -> "ComplexInterval":
        """Shift outward so the largest endpoint keeps `bits` significant bits."""
        s = max(self.rh, -self.rl, self.ih, -self.il).bit_length() - bits
        if s <= 0:
            return self
        return ComplexInterval(
            self.rl >> s, -(-self.rh >> s), self.il >> s, -(-self.ih >> s), self.k - s
        )

    def _mag_sq(self) -> tuple[int, int]:
        """Bounds on |z|^2 over the box, times 2^(2k)."""
        lo_re, hi_re = _isq(self.rl, self.rh)
        lo_im, hi_im = _isq(self.il, self.ih)
        return lo_re + lo_im, hi_re + hi_im

    def mag_sq(self) -> RationalInterval:
        lo, hi = self._mag_sq()
        return RationalInterval(_fraction(lo, 2 * self.k), _fraction(hi, 2 * self.k))

    def mag_mantissas(self, bits: int = 64) -> tuple[int, int, int]:
        """(lo, hi, t) with lo * 2^-t <= |z| <= hi * 2^-t over the box, by isqrt.

        The roots keep at least `bits` significant bits, and never fewer
        than the box's own grid gives.
        """
        lo, hi = self._mag_sq()
        s = max(0, bits - (hi.bit_length() >> 1))
        lo, hi = lo << 2 * s, hi << 2 * s
        r_lo, r_hi = isqrt(lo), isqrt(hi)
        if r_hi * r_hi < hi:
            r_hi += 1
        return r_lo, r_hi, self.k + s

    def mag(self, bits: int = 64) -> RationalInterval:
        """Bounds on |z| over the box: mag_mantissas as Fractions."""
        lo, hi, t = self.mag_mantissas(bits)
        return RationalInterval(_fraction(lo, t), _fraction(hi, t))

    def recip(self, bits: int = PREC) -> "ComplexInterval":
        """1/z = conj(z) / |z|^2, with 1/|z|^2 divided out to ~bits bits."""
        lo, hi = self._mag_sq()
        if lo <= 0:
            raise SingularEnclosure("reciprocal of box containing 0")
        # [lo, hi] * 2^-2k inverts to [2^s // hi, ceil(2^s / lo)] * 2^-(s - 2k)
        s = bits + lo.bit_length()
        inv = ComplexInterval((1 << s) // hi, -(-(1 << s) // lo), 0, 0, s - 2 * self.k)
        conj = ComplexInterval(self.rl, self.rh, -self.ih, -self.il, self.k)
        return (conj * inv).round_out(bits)

    def contains(self, re: Fraction, im: Fraction = Fraction(0)) -> bool:
        return self.re.contains(Fraction(re)) and self.im.contains(Fraction(im))

    @property
    def max_width(self) -> Fraction:
        return _fraction(max(self.rh - self.rl, self.ih - self.il), self.k)

    def _normal(self) -> tuple[int, int, int, int, int]:
        """The endpoints over the smallest power of two that writes them."""
        v = self.rl | self.rh | self.il | self.ih
        if v == 0:
            return (0, 0, 0, 0, 0)
        t = (v & -v).bit_length() - 1
        return (self.rl >> t, self.rh >> t, self.il >> t, self.ih >> t, self.k - t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexInterval):
            return NotImplemented
        return self._normal() == other._normal()

    def __hash__(self) -> int:
        return hash(self._normal())

    def __repr__(self) -> str:
        re, im = self.re, self.im
        return f"ComplexInterval([{re.lo}, {re.hi}] + i*[{im.lo}, {im.hi}])"


CMatrix = tuple[tuple[ComplexInterval, ...], ...]


def cmat_mul(a: CMatrix, b: CMatrix, round_bits: int | None = None) -> CMatrix:
    cols = tuple(zip(*b))
    out = []
    for row in a:
        new_row = []
        for col in cols:
            pairs = zip(row, col)
            x, y = next(pairs)
            acc = x * y
            for x, y in pairs:
                acc = acc + x * y
            if round_bits:
                acc = acc.round_out(round_bits)
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def cmat_inverse(a: CMatrix, round_bits: int | None = None) -> CMatrix:
    """Gauss-Jordan with certified-nonzero pivots.

    Pivot choice: row with the largest lower bound on |entry|; raises
    SingularEnclosure when no pivot is certified nonzero, which callers
    treat as "escalate precision and retry".  Pivot reciprocals keep
    round_bits (PREC when None) significant bits.  A library routine,
    like cmat_mul: no eigenbasis is enclosed any more, and
    wordforge.diagonalize inverts its rational basis exactly.
    """
    n = len(a)
    aug = [list(row) + [ComplexInterval(int(i == j), int(i == j)) for j in range(n)]
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
        inv = aug[col][col].recip(round_bits or PREC)
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        if round_bits:
            for r in range(n):
                aug[r] = [x.round_out(round_bits) for x in aug[r]]
    return tuple(tuple(row[n:]) for row in aug)
