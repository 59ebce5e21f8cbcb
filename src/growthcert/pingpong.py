"""Ping-pong cone certification and the exact freeness oracle.

The working set is the projective cone U_r around [e1]: points x with
max_{j>=2} |x_j|_v <= r |x_1|_v.  For a diagonalized A and a partner B the
three certified facts B U_r disjoint from U_r, A^e B U_r inside U_r, and
A^2e B U_r inside U_r make (A^e B, A^2e B) a ping-pong pair, hence a free
semigroup.  All checks are sound-but-incomplete: a False only means "not
certified at this precision and radius".

Entry bounds dispatch on the entry type: exact Fractions work at any place;
ComplexInterval entries (irrational diagonalizations) only at the
archimedean place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul

from .errors import BudgetExceeded, ExponentSearchExhausted, Inconclusive
from .exactnum import (
    Place,
    SquareMatrix,
    Word,
    abs_value,
    format_rational,
    is_prime,
    parse_rational,
)
from .intervals import ComplexInterval, RationalInterval


def entry_bounds(x, v: Place, bits: int = 96) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds on |x|_v; exact entries give equal bounds."""
    if isinstance(x, ComplexInterval):
        if not v.is_archimedean:
            raise ValueError("interval entries are archimedean-only")
        m = x.mag(bits)
        return m.lo, m.hi
    a = abs_value(Fraction(x), v)
    return a, a


def _is_exact(rows) -> bool:
    return not isinstance(rows[0][0], ComplexInterval)


def _row_tail_upper(row, v, bits) -> Fraction:
    """Sum (archimedean) or max (ultrametric) of |row[j]| upper bounds, j >= 1."""
    uppers = [entry_bounds(x, v, bits)[1] for x in row[1:]]
    if not uppers:
        return Fraction(0)
    return sum(uppers) if v.is_archimedean else max(uppers)


def _check_disjoint(b_rows, r: Fraction, v: Place, bits: int) -> bool:
    """Certify B U_r disjoint from U_r.

    Archimedean: some row i >= 2 has |(Bx)_i| >= |B_i1| - r*sum_j |B_ij|
    strictly above r*|(Bx)_1|.  Ultrametric: strict dominance
    |B_i1| > r*max_j |B_ij| pins |(Bx)_i| = |B_i1| exactly.
    """
    top_tail = _row_tail_upper(b_rows[0], v, bits)
    b11_lo, b11_hi = entry_bounds(b_rows[0][0], v, bits)
    if v.is_archimedean:
        upper1 = b11_hi + r * top_tail
        for row in b_rows[1:]:
            lo_i = entry_bounds(row[0], v, bits)[0] - r * _row_tail_upper(row, v, bits)
            if lo_i > r * upper1:
                return True
        return False
    upper1 = max(b11_hi, r * top_tail)
    for row in b_rows[1:]:
        lead = entry_bounds(row[0], v, bits)[0]
        if lead > r * _row_tail_upper(row, v, bits) and lead > r * upper1:
            return True
    return False


def _check_inclusion(m_rows, r: Fraction, v: Place, bits: int) -> bool:
    """Certify M U_r inside U_r by first-coordinate domination."""
    top_tail = _row_tail_upper(m_rows[0], v, bits)
    m11_lo = entry_bounds(m_rows[0][0], v, bits)[0]
    if v.is_archimedean:
        lower1 = m11_lo - r * top_tail
    else:
        # strict dominance needed for the ultrametric equality |(Mx)_1| = |M_11|
        if not m11_lo > r * top_tail:
            return False
        lower1 = m11_lo
    if lower1 <= 0:
        return False
    for row in m_rows[1:]:
        lead_hi = entry_bounds(row[0], v, bits)[1]
        tail = _row_tail_upper(row, v, bits)
        upper_i = lead_hi + r * tail if v.is_archimedean else max(lead_hi, r * tail)
        if not upper_i <= r * lower1:
            return False
    return True


def _scale_rows_by_diag_power(a_diag, b_rows, e: int, bits: int):
    """Rows of diag(a)^e * B without forming the product matrix."""
    out = []
    for ai, row in zip(a_diag, b_rows):
        if isinstance(ai, ComplexInterval):
            p = ai.pow_int(e, round_bits=4 * bits)
            out.append(tuple(p * x for x in row))
        else:
            p = Fraction(ai) ** e
            out.append(tuple(p * Fraction(x) for x in row))
    return tuple(out)


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


def _tri_all(flags):
    """Collapse per-part tri-states: False wins, then None, then True."""
    if any(f is False for f in flags):
        return False
    if any(f is None for f in flags):
        return None
    return True


@dataclass(frozen=True)
class LConditions:
    """Certified spectral-gap and size conditions for a diagonalized pair.

    a_moduli are eigenvalue moduli of A at the place, largest first: exact
    Fractions at finite places, RationalIntervals at the archimedean one.
    b11_lower is a certified lower bound on |B_11| and b_norm a certified
    upper bound on the max entry modulus of B, both in the eigenbasis.
    A library check (wordforge.ensure_l2 runs it); certification does not.
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
    bits: int = 96,
) -> LConditions:
    """Certify the gap condition |a_1| >= max(2, 2|a_2|), the corner bounds
    1/|B_11| <= c2*|a_1|^d2 with B e1 not parallel to e1, and the norm bound
    max|B_ij| <= c3*|a_1|^d3.

    Each flag is True only when certified; exact data always decides, while
    interval data that straddles a threshold raises Inconclusive so the
    caller can rebuild the basis at higher precision.  Certification does
    not run this check; the cone checks decide a certificate.
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

    mod_bounds = sorted(
        (entry_bounds(x, v, bits) for x in diag), key=lambda p: p[0] + p[1], reverse=True
    )
    if v.is_archimedean:
        a_moduli = tuple(RationalInterval(lo, hi) for lo, hi in mod_bounds)
    else:
        a_moduli = tuple(lo for lo, _ in mod_bounds)
    (a1_lo, a1_hi), (a2_lo, a2_hi) = mod_bounds[0], mod_bounds[1]

    def tri_ge(lo_x, hi_x, bound_lo, bound_hi):
        if lo_x >= bound_hi:
            return True
        if hi_x < bound_lo:
            return False
        return None

    l1 = _tri_all(
        [tri_ge(a1_lo, a1_hi, Fraction(2), Fraction(2)), tri_ge(a1_lo, a1_hi, 2 * a2_lo, 2 * a2_hi)]
    )

    b11_lo, b11_hi = entry_bounds(rows[0][0], v, bits)
    col_states = [entry_bounds(row[0], v, bits) for row in rows[1:]]
    if any(lo > 0 for lo, _ in col_states):
        not_parallel = True
    elif all(hi == 0 for _, hi in col_states):
        not_parallel = False
    else:
        not_parallel = None
    if b11_lo > 0 and _pow_le(1 / b11_lo, c2, a1_lo, d2):
        corner = True
    elif b11_hi == 0 or not _pow_le(1 / b11_hi, c2, a1_hi, d2):
        corner = False
    else:
        corner = None
    l2 = _tri_all([corner, not_parallel])

    ent_bounds_all = [entry_bounds(x, v, bits) for row in rows for x in row]
    bn_lo = max(lo for lo, _ in ent_bounds_all)
    bn_hi = max(hi for _, hi in ent_bounds_all)
    if _pow_le(bn_hi, c3, a1_lo, d3):
        l3 = True
    elif not _pow_le(bn_lo, c3, a1_hi, d3):
        l3 = False
    else:
        l3 = None

    for name, flag in (("l1", l1), ("l2", l2), ("l3", l3)):
        if flag is None:
            raise Inconclusive(f"{name} straddles its threshold at the current precision")
    return LConditions(
        place=v,
        a_moduli=a_moduli,
        c2=c2,
        d2=d2,
        c3=c3,
        d3=d3,
        l1=l1,
        l2=l2,
        l3=l3,
        b11_lower=b11_lo,
        b_norm=bn_hi,
    )


@dataclass(frozen=True)
class ConeChecks:
    disjoint: bool
    contracts: bool
    contracts_double: bool

    @property
    def all_pass(self) -> bool:
        return self.disjoint and self.contracts and self.contracts_double


def verify_cone_inclusions(
    a_diag,
    b_rows,
    e: int,
    r: Fraction,
    v: Place,
    bits: int = 96,
) -> ConeChecks:
    """Certify the three ping-pong facts for diag(a)^e against B at radius r.

    a_diag: diagonal entries of A in the eigenbasis (Fractions or
    ComplexIntervals, modulus-descending).  b_rows: B in the same basis.
    Sound-but-incomplete at every step.
    """
    if e < 1:
        raise ValueError("exponent must be positive")
    r = Fraction(r)
    if r <= 0:
        raise ValueError("cone parameter must be positive")
    if not _is_exact(b_rows) and not v.is_archimedean:
        raise ValueError("interval basis data cannot certify finite places")
    disjoint = _check_disjoint(b_rows, r, v, bits)
    m1 = _scale_rows_by_diag_power(a_diag, b_rows, e, bits)
    m2 = _scale_rows_by_diag_power(a_diag, b_rows, 2 * e, bits)
    return ConeChecks(
        disjoint=disjoint,
        contracts=_check_inclusion(m1, r, v, bits),
        contracts_double=_check_inclusion(m2, r, v, bits),
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


def derive_exponent(
    a_diag,
    b_rows,
    v: Place,
    radii=DEFAULT_RADII,
    cap: int = 64,
    bits: int = 96,
) -> tuple[int, Fraction, ConeChecks]:
    """Smallest exponent (with its radius) certifying all three cone checks.

    Exponents ascend; for each exponent every radius is tried in the given
    order, which makes the outcome deterministic and means a certificate at
    (e, r) implies no radius worked at e-1.  The gap condition guarantees
    termination in principle: the top-row margin of diag(a)^e B grows like
    |a_1/a_2|^e against the fixed polynomial bounds on B.
    """
    radii = tuple(Fraction(r) for r in radii)
    disjoint_cache = {r: _check_disjoint(b_rows, r, v, bits) for r in radii}
    if not any(disjoint_cache.values()):
        raise ExponentSearchExhausted("no radius certifies B-cone disjointness")
    for e in range(1, cap + 1):
        for r in radii:
            if not disjoint_cache[r]:
                continue
            checks = verify_cone_inclusions(a_diag, b_rows, e, r, v, bits)
            if checks.all_pass:
                return e, r, checks
    raise ExponentSearchExhausted(f"no exponent up to {cap} certifies the cone inclusions")


# ---------------------------------------------------------------------------
# freeness oracle


# The oracle works modulo the least prime at or above this Mersenne prime
# that divides no entry denominator of its two matrices.
_RESIDUE_PRIME = 2**61 - 1


def _residue_prime(mats) -> int:
    dens = {x.denominator for m in mats for row in m.entries for x in row}
    p = _RESIDUE_PRIME
    while not is_prime(p) or any(d % p == 0 for d in dens):
        p += 1
    return p


def _residue_rows(m: SquareMatrix, p: int) -> tuple:
    return tuple(
        tuple(x.numerator * pow(x.denominator, -1, p) % p for x in row) for row in m.entries
    )


def find_semigroup_collision(
    u: SquareMatrix, w: SquareMatrix, depth: int = 12, budget: int = 10**6
) -> tuple[str, str] | None:
    """First pair of distinct positive words in {u, w} with equal matrices.

    Words are explored in shortlex order ('u' before 'w'); each word costs
    one matrix multiplication modulo a prime p that divides no entry
    denominator.  Reduction mod p is a ring map on the rationals whose
    denominators p does not divide, so words with distinct residues have
    distinct matrices.  Only a residue clash multiplies the words out
    exactly; a false clash is skipped, so the first exact collision is
    still the one returned.  Returns None when all words up to the depth
    are pairwise distinct.
    """
    p = _residue_prime((u, w))
    gens = tuple((sym, tuple(zip(*_residue_rows(g, p)))) for sym, g in (("u", u), ("w", w)))
    exact: dict[str, SquareMatrix] = {}

    def value(word: str) -> SquareMatrix:
        if word not in exact:
            exact[word] = reduce(mul, (u if sym == "u" else w for sym in word))
        return exact[word]

    # a residue maps to its first word, and to a list only once words clash
    seen: dict[tuple, str | list[str]] = {}
    stored = 0
    layer = [("", _residue_rows(SquareMatrix.identity(u.n), p))]
    for _ in range(depth):
        nxt = []
        for label, rows in layer:
            for sym, cols in gens:
                word = label + sym
                m = tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in rows)
                bucket = seen.get(m, ())
                if isinstance(bucket, str):
                    bucket = [bucket]
                for earlier in bucket:
                    if value(earlier) == value(word):
                        return earlier, word
                if stored >= budget:
                    raise BudgetExceeded(f"oracle exceeded budget {budget}")
                seen[m] = [*bucket, word] if bucket else word
                stored += 1
                nxt.append((word, m))
        layer = nxt
    return None


def freeness_oracle(
    u: SquareMatrix, w: SquareMatrix, depth: int = 12, budget: int = 10**6
) -> bool:
    """Exact check that all positive words up to the depth are distinct."""
    return find_semigroup_collision(u, w, depth, budget) is None


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

        def typed(obj: dict, key: str, kind: type):
            x = obj[key]
            # bool is a subclass of int, so test the exact type
            if type(x) is not kind:
                raise ValueError(f"{key} must be a JSON {kind.__name__}, got {x!r}")
            return x

        checks = typed(d, "checks", dict)
        return PingPongCertificate(
            n=typed(d, "n", int),
            word_a=Word.parse(typed(d, "word_A", str)),
            word_b=Word.parse(typed(d, "word_B", str)),
            place=Place.parse(typed(d, "place", str)),
            wedge_m=typed(d, "wedge_m", int),
            exponent=typed(d, "exponent", int),
            cone_param=parse_rational(typed(d, "cone_param", str)),
            checks=ConeChecks(
                disjoint=typed(checks, "disjoint", bool),
                contracts=typed(checks, "contracts", bool),
                contracts_double=typed(checks, "contracts_double", bool),
            ),
            growth_bound=parse_rational(typed(d, "growth_bound", str)),
            oracle_depth_validated=typed(d, "oracle_depth_validated", int),
        )

    @staticmethod
    def from_json(text: str) -> "PingPongCertificate":
        return PingPongCertificate.from_json_dict(json.loads(text))


def growth_bound_from_length(ell: int, grid_bits: int = 20) -> Fraction:
    """Largest multiple of 2^-grid_bits with q^ell <= 2.

    A free semigroup on two words of S-length <= ell forces the ball of
    radius ell*k to hold at least 2^k elements, so the rate is at least
    2^(1/ell); q is its certified dyadic approximation from below.
    """
    if ell < 1:
        raise ValueError("length must be positive")
    scale = 1 << grid_bits
    # binary search the integer k with (k/scale)^ell <= 2 < ((k+1)/scale)^ell
    lo, hi = scale, 2 * scale  # q in [1, 2]
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**ell <= 2 * scale**ell:
            lo = mid
        else:
            hi = mid - 1
    q = Fraction(lo, scale)
    assert q**ell <= 2 < (q + Fraction(1, scale)) ** ell
    return q
