"""Spectral data of rational matrices, certified at every place.

Characteristic polynomials come from the Faddeev-LeVerrier recurrence run
in integers on the integer form of the matrix; its intermediate matrices
are the coefficients of adj(xI - A), from which eigenbases are read.
Eigenvalue separation comes from the discriminant of the squarefree part,
p-adic eigenvalue moduli from Newton polygons, and archimedean moduli from
certified root enclosures.
The (L1) gap grid reports, for each place and wedge degree, whether the top
eigenvalue modulus of the wedge power certifiably dominates both the
constant 2 and twice the second largest modulus; gap_cells orders its
certified-true cells for certify's search.
A SpectralMemo holds the adjugate polynomial of each matrix, the
squarefree test of each charpoly and the root structure of each
squarefree charpoly at each width, computed once; certify and verify make
one per call and hand it to every stage that reads a spectrum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul

from .errors import BadExponent, Inconclusive, RamifiedSlopes, ZeroDiscriminant
from .exactnum import (
    ARCH,
    Place,
    PlaceSet,
    SquareMatrix,
    abs_value,
    padic_valuation,
)
from .intervals import RationalInterval
from .polyroots import (
    Poly,
    cauchy_bound,
    certified_root_structure,
    modulus_enclosures,
    poly_degree,
    poly_deriv,
    squarefree_part,
)


def adjugate_poly(a: SquareMatrix) -> tuple[Poly, int, tuple]:
    """A's charpoly f with the coefficients of its adjugate, by Faddeev-LeVerrier.

    The recurrence runs in integers on A = N/d as the matrix holds it:
    M_1 = I, M_k = N M_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(N M_k)/k, a
    division that is exact because N's charpoly has integer coefficients.
    Returns (f, d, (M_1, ..., M_n)) with f monic, coefficients ascending,
    coefficient i being c_i / d^(n-i).  The M_k are integer row tuples with
    adj(xI - N) = sum_k M_k x^(n-k), so adj(xI - A) = sum_k M_k x^(n-k) / d^(k-1)
    (Gantmacher, The Theory of Matrices I, ch. IV).
    """
    n = a.n
    d, rows = a.den, a.num
    coeffs = [1] * (n + 1)
    mats = []
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(map(mul, row, col)) for col in zip(*m)] for row in rows]
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        mats.append(tuple(map(tuple, m)))
        c, rem = divmod(-sum(sum(map(mul, row, col)) for row, col in zip(rows, zip(*m))), k)
        assert rem == 0
        coeffs[n - k] = c
    return tuple(Fraction(c, d ** (n - i)) for i, c in enumerate(coeffs)), d, tuple(mats)


def char_poly(a: SquareMatrix, memo: SpectralMemo | None = None) -> Poly:
    """Monic det(xI - A), coefficients ascending; exact over Q (see adjugate_poly).

    With memo, the adjugate polynomial it comes from stays there for
    diagonalize.
    """
    return (memo.adjugate(a) if memo else adjugate_poly(a))[0]


def charpoly_is_squarefree(f: Poly) -> bool:
    """Distinct eigenvalues, i.e. a matrix with charpoly f is regular semisimple."""
    return poly_degree(squarefree_part(f)) == poly_degree(f)


class SpectralMemo:
    """The spectral results of one run, each computed at most once.

    adjugate(a) is adjugate_poly(a), squarefree(f) is
    charpoly_is_squarefree(f), and roots(f, width) is
    certified_root_structure(f, width) for a squarefree f.  Matrices that
    share a charpoly share its test and its enclosures.  certify_generators
    and verify_certificate each make one memo per call and hand it to every
    stage that reads a spectrum; the memo goes when the call returns, so no
    result outlives the call, and a second identical call computes the same
    things again.
    """

    __slots__ = ("_adjugates", "_squarefree", "_roots")

    def __init__(self) -> None:
        self._adjugates: dict = {}
        self._squarefree: dict = {}
        self._roots: dict = {}

    def adjugate(self, a: SquareMatrix) -> tuple[Poly, int, tuple]:
        found = self._adjugates.get(a)
        if found is None:
            found = self._adjugates[a] = adjugate_poly(a)
        return found

    def squarefree(self, f: Poly) -> bool:
        found = self._squarefree.get(f)
        if found is None:
            found = self._squarefree[f] = charpoly_is_squarefree(f)
        return found

    def roots(self, f: Poly, width: Fraction):
        key = (f, width)
        found = self._roots.get(key)
        if found is None:
            found = self._roots[key] = certified_root_structure(f, width)
        return found


def _sylvester_resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g) as the determinant of the Sylvester matrix."""
    df, dg = poly_degree(f), poly_degree(g)
    if df < 0 or dg < 0:
        raise ValueError("resultant of zero polynomial")
    size = df + dg
    if size == 0:
        return Fraction(1)
    rows = []
    fr = list(reversed(f))
    gr = list(reversed(g))
    for i in range(dg):
        rows.append([Fraction(0)] * i + fr + [Fraction(0)] * (size - df - 1 - i))
    for i in range(df):
        rows.append([Fraction(0)] * i + gr + [Fraction(0)] * (size - dg - 1 - i))
    return SquareMatrix.from_rows(rows).det()


def discriminant(f: Poly) -> Fraction:
    """disc(f) for monic f: (-1)^(d(d-1)/2) Res(f, f')."""
    d = poly_degree(f)
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    if d == 1:
        return Fraction(1)
    res = _sylvester_resultant(f, poly_deriv(f))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res


# ---------------------------------------------------------------------------
# eigenvalue separation


@dataclass(frozen=True)
class SeparationReport:
    """Certified lower bounds on pairwise eigenvalue distances over S.

    product_over_s multiplies |disc|_v over the place set; it is at least 1
    whenever the matrix is S-integral, because the pairwise-difference
    product is a nonzero rational that is integral outside S.
    """

    distinct_count: int
    disc: Fraction
    product_over_s: Fraction
    passes: bool
    per_place_lower: tuple[tuple[Place, Fraction], ...]


def _newton_max_modulus_bound(f: Poly, p: int) -> Fraction:
    """Rational upper bound for max |root|_p (integral power of p)."""
    vals = newton_polygon_valuations(f, p)
    vmin = min(vals)
    # modulus p^(-v); round the exponent up so the bound stays rational
    exp = math.ceil(-vmin)
    return Fraction(p) ** exp


def check_separation(a: SquareMatrix, s: PlaceSet) -> SeparationReport:
    """Separation of distinct eigenvalues, certified place by place."""
    f = char_poly(a)
    g = squarefree_part(f)
    r = poly_degree(g)
    if r <= 1:
        ones = tuple((v, Fraction(1)) for v in s)
        return SeparationReport(r, Fraction(1), Fraction(1), True, ones)
    disc = discriminant(g)
    if disc == 0:
        raise ZeroDiscriminant("squarefree part has zero discriminant")
    product = reduce(lambda acc, v: acc * abs_value(disc, v), s, Fraction(1))
    pair_count = r * (r - 1)
    lowers = []
    for v in s:
        if v.is_archimedean:
            d_v = 2 * cauchy_bound(g)
        else:
            d_v = _newton_max_modulus_bound(g, v.prime)
        lower = abs_value(disc, v) / d_v ** (pair_count - 1)
        lowers.append((v, lower))
    return SeparationReport(r, disc, product, product >= 1, tuple(lowers))


# ---------------------------------------------------------------------------
# Newton polygons


def newton_polygon_valuations(f: Poly, p: int) -> tuple[Fraction, ...]:
    """p-adic valuations of all roots of f (with multiplicity), ascending.

    Lower convex hull of (i, v_p(c_i)); a segment of slope s and horizontal
    span l contributes l roots of valuation -s.  Exact Fractions throughout,
    including ramified (non-integral) valuations.
    """
    if not f or f[0] == 0:
        raise ValueError("need nonzero constant term (no zero roots)")
    pts = [(i, Fraction(padic_valuation(c, p))) for i, c in enumerate(f) if c != 0]
    hull: list[tuple[int, Fraction]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    vals: list[Fraction] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = (y2 - y1) / (x2 - x1)
        vals.extend([-slope] * (x2 - x1))
    vals.sort()
    return tuple(vals)


def newton_polygon_moduli(a: SquareMatrix, v: Place) -> tuple[Fraction, ...]:
    """|eigenvalue|_p multiset (descending) as exact rationals.

    Raises RamifiedSlopes when a hull slope is non-integral (the modulus
    p^(u/w) is then irrational); gap checks avoid this by comparing
    valuations directly.
    """
    if v.is_archimedean:
        raise ValueError("Newton polygons are for finite places")
    vals = newton_polygon_valuations(char_poly(a), v.prime)
    moduli = []
    for val in vals:
        if val.denominator != 1:
            raise RamifiedSlopes(f"valuation {val} at p={v.prime} is not integral")
        moduli.append(Fraction(v.prime) ** (-val))
    return tuple(sorted(moduli, reverse=True))


# ---------------------------------------------------------------------------
# wedge powers


def _subsets(n: int, m: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(n), m))


def _cofactor_det(rows, zero):
    """Determinant by cofactor expansion along the first row; sums of order >= 3 start at zero."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = zero
    rest = rows[1:]
    for j, x in enumerate(rows[0]):
        term = x * _cofactor_det(tuple(row[:j] + row[j + 1 :] for row in rest), zero)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def compound(rows, m: int, zero) -> tuple[tuple, ...]:
    """m-th compound of an entry grid: its m x m minors on the lex-ordered m-subset basis.

    Generic over the entry type (ints, Fractions, ComplexIntervals): every
    minor is a cofactor expansion, fine for the small orders used here.
    zero is the additive identity the longer sums start from, so boxes
    keep the exponents of that start.
    """
    subs = _subsets(len(rows), m)
    return tuple(
        tuple(_cofactor_det(tuple(tuple(rows[i][j] for j in cset) for i in rset), zero) for cset in subs)
        for rset in subs
    )


def wedge_power(a: SquareMatrix, m: int) -> SquareMatrix:
    """m-th compound matrix on the lex-ordered m-subset basis.

    Entries are m x m minors; the map is multiplicative (Cauchy-Binet), so
    it is a representation with det = det(a)^C(n-1, m-1) = 1 for SL input.
    The minors of A = N/d are those of N over d^m.
    """
    if not 1 <= m <= a.n:
        raise BadExponent(f"wedge degree {m} outside 1..{a.n}")
    return SquareMatrix(a.den**m, compound(a.num, m, 0))


def wedge_diag(values: list, m: int) -> list:
    """Diagonal of the wedge of a diagonal matrix: subset products, lex order.

    Works for any value type with multiplication (Fraction, intervals).
    """
    n = len(values)
    out = []
    for sub in _subsets(n, m):
        prod = values[sub[0]]
        for i in sub[1:]:
            prod = prod * values[i]
        out.append(prod)
    return out


# ---------------------------------------------------------------------------
# eigenvalue modulus data and the (L1) gap grid


# archimedean enclosure precision: arch_moduli defaults to the first level,
# and the (L1) grid doubles it up to the cap
ARCH_BITS = 64
ARCH_BITS_CAP = 512


def arch_width(a: SquareMatrix, bits: int) -> Fraction:
    """2^-bits * max(1, norm): the width A's root enclosures at bits are asked for."""
    return max(Fraction(1), a.max_abs_entry()) / (Fraction(2) ** bits)


def arch_moduli(
    a: SquareMatrix, f: Poly, bits: int = ARCH_BITS, roots=None
) -> tuple[RationalInterval, ...]:
    """|eigenvalue| enclosures of A (charpoly f), descending, to arch_width(a, bits).

    One per eigenvalue, multiplicity included; exact rational eigenvalues
    give point intervals.  roots, when given, is the root structure of a
    squarefree f at that width (see modulus_enclosures).
    """
    return tuple(modulus_enclosures(f, arch_width(a, bits), roots))


def _pow_ge(p: int, s: Fraction, c: int) -> bool:
    """Exact test p^s >= c for rational s and integers p >= 2, c >= 1."""
    u, w = s.numerator, s.denominator
    return Fraction(p) ** u >= Fraction(c) ** w


def l1_arch_decision(moduli: tuple[RationalInterval, ...], m: int) -> bool | None:
    """Tri-state (L1) for the m-th wedge from archimedean modulus enclosures.

    None means the enclosures are too wide to decide either way.
    """
    prods = wedge_diag(list(moduli), m)
    his = sorted((u.hi for u in prods), reverse=True)
    los = sorted((u.lo for u in prods), reverse=True)
    top_lo, top_hi = los[0], his[0]
    if len(prods) == 1:
        if top_lo >= 2:
            return True
        if top_hi < 2:
            return False
        return None
    if top_lo >= 2 and top_lo >= 2 * his[1]:
        return True
    if top_hi < 2 or 2 * los[1] > top_hi:
        return False
    return None


def l1_finite_decision(valuations: tuple[Fraction, ...], p: int, m: int) -> bool:
    """Exact (L1) for the m-th wedge at a finite place via subset sums."""
    sums = sorted(
        sum((valuations[i] for i in sub), Fraction(0))
        for sub in _subsets(len(valuations), m)
    )
    top = sums[0]
    if not _pow_ge(p, -top, 2):
        return False
    if len(sums) == 1:
        return True
    return _pow_ge(p, sums[1] - top, 2)


def l1_gap_report(
    a: SquareMatrix, s: PlaceSet, f: Poly, memo: SpectralMemo | None = None
) -> dict[tuple[Place, int], bool]:
    """(L1) verdict for every place in S and wedge degree 1..n-1, from A's charpoly f.

    Finite places are decided from f's Newton polygon valuations, the
    archimedean place from arch_moduli at ARCH_BITS, recomputed at doubled
    precision while a wedge degree stays undecided.  A squarefree f's
    root structures come from memo, which keeps them for later stages.
    Raises Inconclusive only if ARCH_BITS_CAP is hit (exact ties at finite
    places cannot occur: those comparisons are integer power comparisons).
    """
    memo = memo or SpectralMemo()
    n = a.n
    out: dict[tuple[Place, int], bool] = {}
    for v in s:
        if not v.is_archimedean:
            vals = newton_polygon_valuations(f, v.prime)
            for m in range(1, n):
                out[(v, m)] = l1_finite_decision(vals, v.prime, m)
    pending = set(range(1, n))
    bits, squarefree = ARCH_BITS, memo.squarefree(f)
    while True:
        roots = memo.roots(f, arch_width(a, bits)) if squarefree else None
        moduli = arch_moduli(a, f, bits, roots)
        for m in sorted(pending):
            verdict = l1_arch_decision(moduli, m)
            if verdict is not None:
                out[(ARCH, m)] = verdict
                pending.discard(m)
        if not pending:
            return out
        if bits >= ARCH_BITS_CAP:
            m = min(pending)
            raise Inconclusive(f"(L1) undecidable at archimedean place, wedge {m}")
        bits *= 2


def gap_cells(grid: dict, a_diag, exact: bool) -> list[tuple[Place, int]]:
    """The certified-true (place, wedge degree) cells of a gap grid, in search order.

    a_diag holds A's eigenvalue points and exact says they are all
    rational; then places go by the exact max |a_i|_v, largest first, ties
    in place order.  A rounded basis, whose eigenvalues need not be
    rational, gets the archimedean place only.  Wedge degrees ascend.
    """
    places = [ARCH]
    if exact:
        places = sorted(
            {v for v, _ in grid}, key=lambda v: (-max(abs_value(x, v) for x in a_diag), v.sort_key)
        )
    return [(v, m) for v in places for m in range(1, len(a_diag)) if grid.get((v, m))]
