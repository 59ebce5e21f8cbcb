"""Ping-pong cone certification and the exact freeness oracle.

The working set is the projective cone U_r around [e1]: points x with
max_{j>=2} |x_j|_v <= r |x_1|_v.  For matrices A and B the three facts B
U_r disjoint from U_r, A^e B U_r inside U_r, and A^2e B U_r inside U_r
make (A^e B, A^2e B) a ping-pong pair, hence a free semigroup: u = A^e B
and w = A^2e B map U_r into itself, and u(U_r) meets w(U_r) only inside
A^e (B U_r meet U_r), which is empty (Tits, J. Algebra 20, 1972).  This
holds in any invertible basis, so the checks need no eigenbasis: a good
one (wordforge.diagonalize) only makes them likely to pass.  All checks
are sound-but-incomplete: a False only means "not certified at this
radius".

Each matrix the checks read is exact, and gets one BoundTable: the
integers |x|_v over one common denominator.  The checks cross-multiply by
r = a/b and compare integers, so each decision is the rational one, at
every place.  A check on M decides as one on cM for any rational c != 0,
so the products run on integer rows.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .cayley import nth_root_floor
from .errors import BudgetExceeded, ExponentSearchExhausted
from .exactnum import (
    Place,
    SquareMatrix,
    Word,
    abs_value,
    bareiss,
    format_rational,
    int_matmul,
    is_prime,
    parse_rational,
    typed_field,
)


class BoundTable(NamedTuple):
    """The integers abs[i][j] = |M_ij|_v * den for one matrix M, over one common den.

    den is the lcm of the |x|_v denominators.  tail[i] is the sum
    (archimedean) or max (ultrametric) of abs[i][1:].
    """

    abs: tuple
    tail: tuple
    den: int


def bound_table(rows, v: Place) -> BoundTable:
    """The BoundTable of the matrix with these rows (ints or Fractions) at the place v."""
    if v.is_archimedean:
        # abs keeps the cone checks' integer rows in ints
        values = [list(map(abs, row)) for row in rows]
    else:
        values = [[abs_value(x, v) for x in row] for row in rows]
    den = lcm(*(x.denominator for row in values for x in row))
    table = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in values)
    if v.is_archimedean:
        tail = tuple(sum(row[1:]) for row in table)
    else:
        tail = tuple(max(row[1:], default=0) for row in table)
    return BoundTable(table, tail, den)


def _check_disjoint(t: BoundTable, r: Fraction, v: Place) -> bool:
    """Certify B U_r disjoint from U_r on B's bound table.

    Archimedean: some row i >= 2 has |(Bx)_i| >= |B_i1| - r*sum_j |B_ij|
    strictly above r*|(Bx)_1| <= r*(|B_11| + r*sum_j |B_1j|).  Ultrametric:
    strict dominance |B_i1| > r*max_j |B_ij| pins |(Bx)_i| = |B_i1| exactly.
    With r = a/b every test is multiplied by b^2 * den, so it compares
    integers and decides exactly as the rational test does.
    """
    a, b = r.numerator, r.denominator
    rows = zip(t.abs[1:], t.tail[1:])
    if v.is_archimedean:
        top = a * (b * t.abs[0][0] + a * t.tail[0])
        return any(b * (b * row[0] - a * tail) > top for row, tail in rows)
    top = a * max(b * t.abs[0][0], a * t.tail[0])
    return any(b * row[0] > a * tail and b * b * row[0] > top for row, tail in rows)


def _check_inclusion(t: BoundTable, r: Fraction, v: Place) -> bool:
    """Certify M U_r inside U_r by first-coordinate domination, on M's bound table.

    Archimedean: |(Mx)_1| >= |M_11| - r*sum_j |M_1j| > 0 and every other
    row has |M_i1| + r*sum_j |M_ij| <= r times that.  Ultrametric: strict
    dominance |M_11| > r*max_j |M_1j| pins |(Mx)_1| = |M_11|, and every
    other row has max(|M_i1|, r*max_j |M_ij|) <= r*|M_11|.  With r = a/b
    the tests are multiplied by b^2 * den (archimedean) or b * den.
    """
    a, b = r.numerator, r.denominator
    m11, rows = t.abs[0][0], zip(t.abs[1:], t.tail[1:])
    if v.is_archimedean:
        low = b * m11 - a * t.tail[0]
        return low > 0 and all(b * (b * row[0] + a * tail) <= a * low for row, tail in rows)
    return b * m11 > a * t.tail[0] and all(
        b * row[0] <= a * m11 and tail <= m11 for row, tail in rows
    )


def _integer_rows(m) -> tuple:
    """Integer rows N of m = N/d, for a SquareMatrix or rows of rationals.

    The cone checks decide on N as they do on m, since d > 0 is a scalar.
    """
    return (m if isinstance(m, SquareMatrix) else SquareMatrix.from_rows(m)).num


def _normalize_diag(a) -> tuple:
    """Diagonal entries from a SquareMatrix or an entry sequence."""
    if isinstance(a, SquareMatrix):
        for i in range(a.n):
            for j in range(a.n):
                if i != j and a.entries[i][j] != 0:
                    raise ValueError("matrix is not diagonal")
        return tuple(a.entries[i][i] for i in range(a.n))
    return tuple(a)


def _normalize_rows(b) -> tuple:
    return b.entries if isinstance(b, SquareMatrix) else tuple(tuple(row) for row in b)


def _pow_le(x: Fraction, c: Fraction, y: Fraction, d: Fraction) -> bool:
    """Exact test of x <= c * y**d for nonnegative x, y and rational d > 0."""
    num, den = d.numerator, d.denominator
    return (x / c) ** den <= y**num


@dataclass(frozen=True)
class LConditions:
    """Spectral-gap and size conditions for a diagonal A and a partner B.

    a_moduli are the |a_i|_v, largest first.  b11_lower is |B_11|_v and
    b_norm the max entry modulus of B, both in the same basis.  A library
    check (wordforge.ensure_l2 runs it); certification does not.
    """

    place: Place
    a_moduli: tuple
    c2: Fraction
    d2: Fraction
    c3: Fraction
    d3: Fraction
    l1: bool
    l2: bool
    l3: bool
    b11_lower: Fraction
    b_norm: Fraction

    @property
    def all_pass(self) -> bool:
        return self.l1 and self.l2 and self.l3


def check_l_conditions(
    a_diag,
    b,
    v: Place,
    constants=(Fraction(1), Fraction(1), Fraction(1), Fraction(2)),
) -> LConditions:
    """Decide the gap condition |a_1| >= max(2, 2|a_2|), the corner bounds
    1/|B_11| <= c2*|a_1|^d2 with B e1 not parallel to e1, and the norm bound
    max|B_ij| <= c3*|a_1|^d3, exactly.

    Certification does not run this check; the cone checks decide a
    certificate.
    """
    c2, d2, c3, d3 = (Fraction(c) for c in constants)
    if min(c2, d2, c3, d3) <= 0:
        raise ValueError("constants must be positive")
    diag = _normalize_diag(a_diag)
    rows = _normalize_rows(b)
    if len(diag) != len(rows):
        raise ValueError("dimension mismatch between A and B")
    if len(diag) < 2:
        raise ValueError("need dimension at least 2")

    a_moduli = tuple(sorted((abs_value(x, v) for x in diag), reverse=True))
    a1, a2 = a_moduli[0], a_moduli[1]
    b11 = abs_value(rows[0][0], v)
    b_norm = max(abs_value(x, v) for row in rows for x in row)
    return LConditions(
        place=v,
        a_moduli=a_moduli,
        c2=c2,
        d2=d2,
        c3=c3,
        d3=d3,
        l1=a1 >= 2 and a1 >= 2 * a2,
        l2=b11 > 0 and _pow_le(1 / b11, c2, a1, d2) and any(row[0] for row in rows[1:]),
        l3=_pow_le(b_norm, c3, a1, d3),
        b11_lower=b11,
        b_norm=b_norm,
    )


@dataclass(frozen=True)
class ConeChecks:
    disjoint: bool
    contracts: bool
    contracts_double: bool

    @property
    def all_pass(self) -> bool:
        return self.disjoint and self.contracts and self.contracts_double

    @property
    def failed(self) -> tuple[str, ...]:
        """The names of the checks that did not certify, in field order."""
        return tuple(
            name for name in ("disjoint", "contracts", "contracts_double") if not getattr(self, name)
        )


def verify_cone_inclusions(a, b, e: int, r: Fraction, v: Place) -> ConeChecks:
    """Certify the three ping-pong facts for A^e against B at radius r.

    a and b are exact matrices in one basis (SquareMatrix or rows of
    rationals), such as wordforge.wedge_pair's compounds.  The tables are
    those of B, A^e B and A^2e B = A^e (A^e B), by exact integer products.
    Sound-but-incomplete at every step, in any basis.
    """
    if e < 1:
        raise ValueError("exponent must be positive")
    r = Fraction(r)
    if r <= 0:
        raise ValueError("cone parameter must be positive")
    a, b = _integer_rows(a), _integer_rows(b)
    a_e = a
    for bit in bin(e)[3:]:
        a_e = int_matmul(a_e, a_e)
        if bit == "1":
            a_e = int_matmul(a_e, a)
    m1 = int_matmul(a_e, b)
    return ConeChecks(
        disjoint=_check_disjoint(bound_table(b, v), r, v),
        contracts=_check_inclusion(bound_table(m1, v), r, v),
        contracts_double=_check_inclusion(bound_table(int_matmul(a_e, m1), v), r, v),
    )


DEFAULT_RADII = (
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 4),
    Fraction(1, 16),
    Fraction(1, 64),
    Fraction(1, 256),
    Fraction(1, 1024),
    Fraction(1, 2**14),
    Fraction(1, 2**20),
)


def derive_exponent(a, b, v: Place, cap: int = 64) -> tuple[int, Fraction, ConeChecks]:
    """Smallest exponent (with its radius) certifying all three cone checks.

    Exponents ascend; for each exponent every radius is tried in
    DEFAULT_RADII order, which makes the outcome deterministic and means a
    certificate at (e, r) implies no radius worked at e-1.  The gap condition guarantees
    termination in principle: the top-row margin of A^e B grows like
    |a_1/a_2|^e against the fixed polynomial bounds on B.  The checks are
    verify_cone_inclusions', on one bound table for B and one per power
    A^k B, each one integer product after the last; the table for 2e
    serves again for e' = 2e.
    """
    a, b = _integer_rows(a), _integer_rows(b)
    b_table = bound_table(b, v)
    radii = [r for r in DEFAULT_RADII if _check_disjoint(b_table, r, v)]
    if not radii:
        raise ExponentSearchExhausted("no radius certifies B-cone disjointness")
    tables, power = [b_table], b
    for e in range(1, cap + 1):
        while len(tables) <= 2 * e:
            power = int_matmul(a, power)
            tables.append(bound_table(power, v))
        m1, m2 = tables[e], tables[2 * e]
        # no later exponent reads the table of A^e B
        tables[e] = None
        for r in radii:
            if _check_inclusion(m1, r, v) and _check_inclusion(m2, r, v):
                return e, r, ConeChecks(disjoint=True, contracts=True, contracts_double=True)
    raise ExponentSearchExhausted(f"no exponent up to {cap} certifies the cone inclusions")


# ---------------------------------------------------------------------------
# freeness oracle


def _prime_start(h: int) -> int:
    """Where the resolver's prime search starts for the input hash h."""
    return 2**61 + h % 2**60


def _screen_prime_start(h: int) -> int:
    """Where the screen's prime search starts for the input hash h."""
    return 2**27 + (h >> 128) % 2**27


def _fingerprint(
    u: SquareMatrix, w: SquareMatrix, screen: bool = False
) -> tuple[int, tuple[int, ...]]:
    """A prime and a row vector for the oracle, both drawn from the input.

    h is the SHA-256 of the numerators and denominators in lowest terms of
    the entries of u and w, read off (den, num) without a Fraction, as
    length-prefixed signed bytes (not decimal text, which Python refuses
    past 4300 digits).  The resolver's p is the least prime at or
    above _prime_start(h) that divides no entry denominator, and
    x = (1, r, ..., r^(n-1)) mod p with r taken from other bits of h.  With
    screen=True the same rule gives the screen's q from _screen_prime_start(h)
    in [2^27, 2^28), low enough for its Montgomery slots (_screen), and its
    row y from yet other bits of h.
    A fixed prime lets a crafted input make every word congruent (2^61 - 1
    is also the modulus of Python's int hash), and a fixed row such as e_n
    keys every word alike when u and w share a left fixed vector.
    """
    # hashlib loads OpenSSL, about 3.5 MB resident; only the oracle needs it
    import hashlib

    values, dens = [], set()
    for m in (u, w):
        d = m.den
        for x in (x for row in m.num for x in row):
            # the entry x / d in lowest terms is (x / g) / e
            g = gcd(x, d)
            e = d // g
            dens.add(e)
            values += (x // g, e)
    data = (v.to_bytes(v.bit_length() // 8 + 1, "big", signed=True) for v in values)
    digest = hashlib.sha256(b"".join(len(b).to_bytes(8, "big") + b for b in data))
    h = int.from_bytes(digest.digest(), "big")
    p = _screen_prime_start(h) if screen else _prime_start(h)
    while not is_prime(p) or any(d % p == 0 for d in dens):
        p += 1
    r = (h >> (160 if screen else 64)) % p
    return p, tuple(pow(r, k, p) for k in range(u.n))


def _residue_rows(m: SquareMatrix, p: int) -> tuple:
    """The rows of m = N/d mod p, N d^-1: p must not divide d."""
    inv = pow(m.den, -1, p)
    return tuple(tuple(x * inv % p for x in row) for row in m.num)


def _mul_mod(a, b, p: int) -> tuple:
    """The rows of a * b mod p, for matrices given as rows of ints."""
    return tuple(tuple(sum(map(mul, row, col)) % p for col in zip(*b)) for row in a)


def _key_basis(y: tuple[int, ...], q: int) -> tuple[tuple, tuple]:
    """Z and Z^-1 mod q, the basis whose first two columns key the screen.

    Z = (I + a e_1^T)(I + b e_2^T) with s = r^n for y = (1, r, ..., r^(n-1)),
    a = (0, s, ..., s^(n-1)) and b = (s^n, 0, s^(n+2), ..., s^(2n-1)).
    Both factors have determinant 1, and negating a or b inverts them, so Z
    is invertible mod q for every draw.  Its first column (1, s, ...,
    s^(n-1)) gives y * M * Z the coordinate sum_ij M_ij r^(i + n j), every
    entry of M at its own power of r; its second column, e_2 + b + s^n a,
    also moves with r in every coordinate.  Fixed key columns such as e_1
    and e_2 would key alike all words that share those columns.
    """
    n = len(y)
    powers = [pow(y[1], n * k, q) for k in range(2 * n)]
    a, b = [0, *powers[1:n]], [powers[n], 0, *powers[n + 2 :]]
    eye = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]

    def plus_key_columns(c1, c2) -> tuple:
        # I with c1 and c2 added to its first two columns, mod q
        return tuple(
            ((x + row[0]) % q, (z + row[1]) % q, *row[2:]) for x, z, row in zip(c1, c2, eye)
        )

    # multiplied out with b_1 = s^n and a_2 = s: Z = I + a e_1^T + (b + s^n a) e_2^T
    # and Z^-1 = (I - b e_2^T)(I - a e_1^T) = I + (s b - a) e_1^T - b e_2^T
    return (
        plus_key_columns(a, [x + b[0] * z for x, z in zip(b, a)]),
        plus_key_columns([a[1] * x - z for x, z in zip(b, a)], [-x for x in b]),
    )


def _montgomery_slots(cols: list[int], q: int, low: int) -> list[int]:
    """cols with each 64-bit slot x of every packed int replaced by (x + m q) / 2^32.

    low has 2^32 - 1 in the low half of each slot, q is odd and below 2^29, and
    every slot holds x < 2^32 q: Montgomery's reduction (Math. Comp. 44,
    1985), slot-wise.
    - m = (x mod 2^32) * (-q^-1) mod 2^32 makes x + m q a multiple of 2^32,
      so the result is congruent to x * 2^-32 mod q.
    - The product (x mod 2^32) * (-q^-1) < 2^64 fits its slot, and m < 2^32
      gives x + m q < 2^33 q < 2^62, so no slot carries into another.
    - The low 32 bits of every x + m q are zero, so the right shift brings
      down only zeros from the slot above, and gives x / 2^32 + m q / 2^32
      < 2q: no per-slot correction.
    """
    neg_inv = -pow(q, -1, 2**32) % 2**32
    return [x + ((x & low) * neg_inv & low) * q >> 32 for x in cols]


def _layer_keys(u: SquareMatrix, w: SquareMatrix, q: int, y: tuple[int, ...], depth: int):
    """Yield, layer by layer, the key of each word M up to depth as a C array of ints.

    The key is the first two coordinates c_1 + 2^32 c_2 of y * M * Z mod q,
    Z from _key_basis: a function of M mod q.  The letters are conjugated
    once to Z^-1 G Z mod q, times 2^32, and the state starts at y * Z, so
    layer 0 is the empty word's key, the identity's.  Layer k + 1 lists
    the words of layer k times the first letter, then times the second, so
    its first half holds the words ending in u and its second half those
    ending in w; the last layer computes only the two key columns.
    The layer is held column-wise: coordinate i of every word's row packed
    into one int, in 64-bit slots, so a letter costs n scalar products of
    big ints per column, and the two letters' blocks are joined by one
    shift.  With state slots below 2q and 2 n q < 2^32, a product slot is
    below n * 2q * q < 2^32 q, and _montgomery_slots brings it back below
    2q, congruent to the state times the letter.  Adding 2^30 - q to a key
    half below 2q < 2^30 sets its bit 30 exactly when it is at least q and
    carries out of neither half, so that bit subtracts q once.  The slot
    masks low (2^32 - 1), halves (bit 0 of each half) and lift (2^30 - q in
    each half) double with the layer by one shift each.
    """
    z, z_inv = _key_basis(y, q)
    z_mont = tuple(tuple(x << 32 for x in row) for row in z)
    letters = [
        tuple(zip(*_mul_mod(_mul_mod(z_inv, _residue_rows(g, q), q), z_mont, q))) for g in (u, w)
    ]
    cols = _mul_mod([y], z, q)[0]
    yield memoryview((cols[0] | cols[1] << 32).to_bytes(8, sys.byteorder)).cast("Q")
    low, halves = 2**32 - 1, 1 | 1 << 32
    lift = (2**30 - q) * halves
    for k in range(depth):
        if k == depth - 1:
            letters = [letter[:2] for letter in letters]
        first, second = ([sum(map(mul, cols, col)) for col in letter] for letter in letters)
        shift = 64 << k
        low |= low << shift
        halves |= halves << shift
        lift |= lift << shift
        cols = _montgomery_slots([a | b << shift for a, b in zip(first, second)], q, low)
        key = cols[0] | cols[1] << 32
        key -= ((key + lift) >> 30 & halves) * q
        yield memoryview(key.to_bytes(16 << k, sys.byteorder)).cast("Q")


def _screen(u: SquareMatrix, w: SquareMatrix, depth: int) -> bool:
    """True when the positive words up to depth are pairwise distinct mod q.

    The keys are _layer_keys', each a function of the word's matrix mod q.
    With u and w invertible mod q, cancel the longest common suffix of two
    distinct words of length <= depth that are equal mod q: what is left is
    X u = Y w with |Xu|, |Yw| <= depth, or a word V = I with 1 <= |V| <=
    depth - 1 (and then V u and u are a repeat).  So the keys of the words
    ending in u go into one set, those of the words ending in w are only
    looked up in it, and the identity's key (layer 0) is looked for among
    the words shorter than depth.  For n = 2 a key determines y * M mod q,
    which cancels alike, so the verdict is that of comparing all keys.
    False means a clash, a letter singular mod q, n = 1, or a q outside
    2 < q < 2^29 with 2 n q < 2^32, where -q^-1 mod 2^32 exists,
    _montgomery_slots' slots do not carry and stay below 2q, and key halves
    stay below 2^30.  The hashed q (from [2^27, 2^28)) passes for n <= 7,
    for n = 8 while q < 2^28, and for no n >= 16.
    """
    q, y = _fingerprint(u, w, screen=True)
    if u.n < 2 or not 2 < q < 2**29 or 2 * u.n * q >= 2**32:
        return False
    # g = N/d with q not dividing d, so det(g) = 0 mod q exactly when det(N mod q) is
    for g in (u, w):
        pivots, _, det = bareiss([[x % q for x in row] for row in g.num])
        if len(pivots) < g.n or det % q == 0:
            return False
    layers = _layer_keys(u, w, q, y, depth)
    (identity,) = next(layers)
    ends_u: set[int] = set()
    shorter_ends_w = []
    for k, keys in enumerate(layers, 1):
        half = len(keys) // 2
        # before the last layer joins, the set holds the u-words shorter than depth
        if k == depth and identity in ends_u:
            return False
        ends_u.update(keys[:half])
        if k < depth:
            shorter_ends_w.append(keys[half:])
        elif not ends_u.isdisjoint(keys[half:]):
            return False
    # the w-words shorter than depth are also looked up against the identity
    ends_u.add(identity)
    return all(map(ends_u.isdisjoint, shorter_ends_w))


def _resolve(u: SquareMatrix, w: SquareMatrix, depth: int, budget: int) -> tuple[str, str] | None:
    """The oracle word by word, in shortlex order ('u' before 'w').

    Each word is keyed by the row vector x * M_word mod p (see
    _fingerprint), one vector-times-letter product per word.  Only a key
    clash multiplies the words out exactly; a false clash is skipped, so
    the first exact collision is the one returned, whatever p and x are.
    """
    p, x = _fingerprint(u, w)
    letters = {"u": u, "w": w}
    gens = tuple((sym, tuple(zip(*_residue_rows(g, p)))) for sym, g in letters.items())
    exact = dict(letters)

    def value(word: str) -> SquareMatrix:
        # the longest cached prefix, then one product per letter after it
        k = len(word)
        while word[:k] not in exact:
            k -= 1
        m = exact[word[:k]]
        for i in range(k, len(word)):
            m = exact[word[: i + 1]] = m * letters[word[i]]
        return m

    # a key maps to its first word, and to a list only once words clash
    seen: dict[tuple, str | list[str]] = {}
    stored = 0
    layer = [("", x)]
    for _ in range(depth):
        nxt = []
        for label, vec in layer:
            for sym, cols in gens:
                word = label + sym
                key = tuple(sum(map(mul, vec, col)) % p for col in cols)
                bucket = seen.get(key, ())
                if isinstance(bucket, str):
                    bucket = [bucket]
                for earlier in bucket:
                    if value(earlier) == value(word):
                        return earlier, word
                if stored >= budget:
                    raise BudgetExceeded(f"oracle exceeded budget {budget}")
                seen[key] = [*bucket, word] if bucket else word
                stored += 1
                nxt.append((word, key))
        layer = nxt
    return None


def find_semigroup_collision(
    u: SquareMatrix, w: SquareMatrix, depth: int = 12, budget: int = 10**6
) -> tuple[str, str] | None:
    """First pair of distinct positive words in {u, w} with equal matrices.

    Returns None when all words up to the depth are pairwise distinct.
    Reduction mod a prime is a ring map on the rationals whose denominators
    it does not divide, so words with distinct keys mod that prime have
    distinct matrices.  The screen (_screen) reduces whole packed layers
    modulo a 28-bit prime q by Montgomery's step, keys each word by one int
    read from them, and by suffix cancellation looks up only the words
    ending in w among those ending in u, and the identity among the words
    shorter than depth.  It returns None when nothing clashes and the
    2^(depth+1) - 2 words fit the budget.  Otherwise the resolver
    (_resolve) walks the words in shortlex order modulo a 62-bit prime p,
    multiplies out only the words whose keys clash, and returns the first
    exact collision or raises BudgetExceeded at the same word as without
    the screen.  A letter singular mod q, or an input built so that q
    divides every entry of u - w, only hands the words over to the
    resolver.
    """
    # the bit-length test keeps a huge depth from building 2^depth
    if depth <= budget.bit_length() and 2 ** (depth + 1) - 2 <= budget and _screen(u, w, depth):
        return None
    return _resolve(u, w, depth, budget)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class PingPongCertificate:
    """Everything a verifier needs to replay the freeness proof.

    Words are in the original generators; the basis, wedge, and cone data
    say where the inclusion checks live; growth_bound is the certified
    rational with growth_bound^ell <= 2 for ell the longer word length.
    """

    n: int
    word_a: Word
    word_b: Word
    place: Place
    wedge_m: int
    exponent: int
    cone_param: Fraction
    checks: ConeChecks
    growth_bound: Fraction
    oracle_depth_validated: int

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("exponent must be positive")
        if self.oracle_depth_validated < 1:
            raise ValueError("oracle_depth_validated must be at least 1")
        if not self.checks.all_pass:
            raise ValueError("certificate requires all three checks")
        if not self.growth_bound > 1:
            raise ValueError("growth bound must exceed 1")

    @property
    def word_u(self) -> Word:
        """A^e B in the generators."""
        return (self.word_a**self.exponent) * self.word_b

    @property
    def word_w(self) -> Word:
        """A^2e B in the generators."""
        return (self.word_a ** (2 * self.exponent)) * self.word_b

    def to_json_dict(self) -> dict:
        return {
            "schema": "growthcert.certificate.v1",
            "n": self.n,
            "word_A": str(self.word_a),
            "word_B": str(self.word_b),
            "place": str(self.place),
            "wedge_m": self.wedge_m,
            "exponent": self.exponent,
            "cone_param": format_rational(self.cone_param),
            "checks": {
                "disjoint": self.checks.disjoint,
                "contracts": self.checks.contracts,
                "contracts_double": self.checks.contracts_double,
            },
            "growth_bound": format_rational(self.growth_bound),
            "oracle_depth_validated": self.oracle_depth_validated,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def from_json_dict(d: dict) -> "PingPongCertificate":
        """Strict parse: each field must have its JSON type (no int() coercion)."""
        checks = typed_field(d, "checks", dict)
        return PingPongCertificate(
            n=typed_field(d, "n", int),
            word_a=Word.parse(typed_field(d, "word_A", str)),
            word_b=Word.parse(typed_field(d, "word_B", str)),
            place=Place.parse(typed_field(d, "place", str)),
            wedge_m=typed_field(d, "wedge_m", int),
            exponent=typed_field(d, "exponent", int),
            cone_param=parse_rational(typed_field(d, "cone_param", str)),
            checks=ConeChecks(
                disjoint=typed_field(checks, "disjoint", bool),
                contracts=typed_field(checks, "contracts", bool),
                contracts_double=typed_field(checks, "contracts_double", bool),
            ),
            growth_bound=parse_rational(typed_field(d, "growth_bound", str)),
            oracle_depth_validated=typed_field(d, "oracle_depth_validated", int),
        )


def growth_bound_from_length(ell: int) -> Fraction:
    """Largest q on nth_root_floor's dyadic grid with q^ell <= 2.

    A free semigroup on two words of S-length <= ell forces the ball of
    radius ell*k to hold at least 2^k elements, so the rate is at least
    2^(1/ell); q is its certified dyadic approximation from below.
    """
    if ell < 1:
        raise ValueError("length must be positive")
    return nth_root_floor(2, ell)
