"""Basis preparation for the cone checks, and the EMO word-length stages.

diagonalized_pair builds A's canonical basis X from its adjugate
polynomial (diagonalize), conjugates B into it once, and wedge_pair reads
the compounds of X^-1 A X and X^-1 B X off that ConjugatedPair; certify's
search and verify's replay run exactly these two.  The adjugate
polynomial, squarefree test and root structure come from the run's
SpectralMemo, which the pair search has already filled for A.  X is
rational: exact when A's eigenvalues are rational, otherwise eigenvectors
at the roots' dyadic midpoints rounded to the first of BASIS_BITS at which
X is invertible.  So X is a pure function of (A, sort place), and certify
and verify build the same X.  The cone checks are sound in any invertible
basis; X only makes them likely to pass.  The order of its eigenvalues, wedge
coordinates and places comes from exact keys (_modulus_key).
The stages Eskin-Mozes-Oh use to bound word length uniformly over all
generating sets, balance_or_trace (norm balancing and the trace route),
swap_roles and select_place_and_wedge, are library functions that
certification does not run, as are the corner check (ensure_l2), corner
amplification and the almost-algebra builder.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .errors import (
    BalanceFailed,
    Inconclusive,
    L2Unreachable,
    NoGap,
    NoStabilization,
    NotConnected,
    SingularEnclosure,
    SwapFailed,
)
from .exactnum import ARCH, Place, PlaceSet, SquareMatrix, Word, abs_value
from .intervals import _fraction, sqrt_upper
from .pingpong import LConditions, bound_table, check_l_conditions
from .spectra import SpectralMemo, arch_width, char_poly, compound, gap_cells, wedge_diag

SYM_A = Word.generator(0)
SYM_B = Word.generator(1)


# ---------------------------------------------------------------------------
# diagonalization


def _modulus_key(z, v: Place = ARCH) -> Fraction:
    """|z|_v^2 of an eigenvalue point: a Fraction, or (re, im) off the real axis.

    Exact at every magnitude.  Points off the real axis occur only in a
    rounded basis, which the archimedean place alone reads.
    """
    if isinstance(z, tuple):
        return z[0] ** 2 + z[1] ** 2
    return (z if v.is_archimedean else abs_value(z, v)) ** 2


def _adjugate_at(d: int, mats, re: Fraction, im: Fraction):
    """Real and imaginary rows of q^(n-1) adj(mu I - N) at mu = d * (re + i im).

    Homogeneous Horner in Gaussian integers over adjugate_poly's (d, mats),
    adj(x I - N) = sum_k M_k x^(n-k), with q the common denominator of re
    and im.
    """
    q = lcm(re.denominator, im.denominator)
    x = d * re.numerator * (q // re.denominator)
    y = d * im.numerator * (q // im.denominator)
    hr, hi, s = mats[0], [[0] * len(row) for row in mats[0]], 1
    for m in mats[1:]:
        s *= q
        hr, hi = (
            [[a * x - b * y + s * c for a, b, c in zip(*rows)] for rows in zip(hr, hi, m)],
            [[a * y + b * x for a, b in zip(*rows)] for rows in zip(hr, hi)],
        )
    return hr, hi


def _eigenvector(hr, hi, first_nonzero: bool, bits: int | None):
    """The pinned column of an adjugate at a root: (den, real parts, imaginary parts).

    The parts are integers over den > 0, 2^bits when rounded.

    At a simple root the adjugate has rank 1, so each nonzero column is an
    eigenvector.  With first_nonzero (A's eigenvalues all rational) the
    first nonzero column is pinned to 1 at its last nonzero coordinate;
    otherwise the column of largest modulus is pinned to 1 at its first
    coordinate of that modulus.  With bits, each part rounds to the
    nearest multiple of 2^-bits, and a modulus within a factor 1 - 2^-(bits/2)
    of the largest counts as tied with it: the adjugate is taken at a point
    near the root, so coordinates of equal modulus in the eigenvector differ
    by rounding noise, which must not move the pin.  Without bits the
    column is exact.
    """
    cols = [[(a * a + b * b, a, b) for a, b in zip(rc, ic)] for rc, ic in zip(zip(*hr), zip(*hi))]
    if first_nonzero:
        col = next(c for c in cols if any(sq for sq, _, _ in c))
        q = max(i for i, (sq, _, _) in enumerate(col) if sq)
    else:
        col = max(cols, key=lambda c: max(sq for sq, _, _ in c))
        best = max(sq for sq, _, _ in col)
        if not best:
            raise SingularEnclosure("no adjugate column is nonzero")
        slack = 0 if bits is None else best >> bits // 2
        q = next(i for i, (sq, _, _) in enumerate(col) if best - sq <= slack)
    den, c, d = col[q]
    # (a + ib) / (c + id) = ((ac + bd) + i(bc - ad)) / (c^2 + d^2)
    parts = ([a * c + b * d for _, a, b in col], [b * c - a * d for _, a, b in col])
    if bits is None:
        return den, *parts
    return 1 << bits, *([((x << bits + 1) // den + 1) >> 1 for x in part] for part in parts)


def diagonalize(
    a: SquareMatrix, sort_place: Place = ARCH, bits: int = 128, memo: SpectralMemo | None = None
):
    """(points, X, X^-1, exact) for A's canonical basis X, from one adjugate_poly.

    certified_root_structure gives each root at arch_width(a, bits); its
    point is the root itself when rational, and the dyadic midpoint of its
    interval or box otherwise.  Points sort by modulus descending at sort_place: a
    charpoly that splits over Q (exact) breaks ties by value ascending;
    otherwise the sort needs the archimedean place and breaks ties by the
    real, then the imaginary part, descending, so each conjugate pair sits
    together, +Im first.  Each column of X is the pinned adjugate column
    at its point (_eigenvector), exact at a rational root and rounded to
    `bits` bits otherwise; a conjugate pair gives the real and the
    imaginary part of its +Im eigenvector as two real columns.  A point
    off the real axis is (re, im), every other point a Fraction.  A
    rounded X that is singular raises SingularEnclosure (diagonalized_pair
    then tries the next of BASIS_BITS).  The adjugate polynomial, the
    squarefree test and the root structure come from memo, so a run that
    shares one computes each once for A.
    """
    memo = memo or SpectralMemo()
    f, d, mats = memo.adjugate(a)
    if not memo.squarefree(f):
        raise ValueError("A must have a squarefree characteristic polynomial")
    real_ivs, boxes = memo.roots(f, arch_width(a, bits))
    exact = not boxes and all(iv.lo == iv.hi for iv in real_ivs)
    if exact:
        points = sorted(
            ((iv.lo, Fraction(0)) for iv in real_ivs),
            key=lambda z: (-_modulus_key(z[0], sort_place), z[0]),
        )
    elif not sort_place.is_archimedean:
        raise Inconclusive("finite sort place needs a rational eigenbasis")
    else:
        points = [((iv.lo + iv.hi) / 2, Fraction(0)) for iv in real_ivs]
        points += [
            (_fraction(b.rl + b.rh, b.k + 1), _fraction(b.il + b.ih, b.k + 1)) for b in boxes
        ]
        points.sort(key=lambda z: (_modulus_key(z), *z), reverse=True)
    rational = {iv.lo for iv in real_ivs if iv.lo == iv.hi}
    # each column as (den, integer parts), its entries the parts over den
    columns = []
    for re, im in points:
        if im < 0:
            # the conjugate's eigenvector, found for the column before
            columns.append((vector[0], vector[2]))
            continue
        # the columns at rational roots are exact, the others rounded
        rounded = not exact and (im != 0 or re not in rational)
        vector = _eigenvector(*_adjugate_at(d, mats, re, im), exact, bits if rounded else None)
        columns.append((vector[0], vector[1]))
    den = lcm(*(e for e, _ in columns))
    x = SquareMatrix(den, list(zip(*([v * (den // e) for v in col] for e, col in columns))))
    try:
        x_inv = x.inverse()
    except ZeroDivisionError:
        raise SingularEnclosure("rounded eigenbasis is singular") from None
    diag = tuple(re if im == 0 else (re, im) for re, im in points)
    return diag, x, x_inv, exact


def _norm_sq(values, places) -> Fraction:
    """The largest |x|_v^2 over the values and the places (see _modulus_key)."""
    return max(_modulus_key(x, v) for v in places for x in values)


def _entries(rows):
    return [x for row in rows for x in row]


@dataclass(frozen=True)
class ConjugatedPair:
    """The pair in A's canonical basis X, with the certified relation.

    Every pair is the one diagonalized_pair builds at sort_place; bits is
    the precision its X was rounded to (the first of BASIS_BITS, 64, on an
    exact basis).  The stages after it record a relation and never change
    the basis.
    orig_a and orig_b stay in the input basis, so spectral data (charpoly,
    gap grid) never depends on X.  Everything is exact: basis and
    basis_inv are X and X^-1, b_conj is X^-1 B X, and a_diag holds A's
    eigenvalue points in X's column order (see diagonalize).  exact says
    A's eigenvalues are rational, so that X^-1 A X is diag(a_diag);
    otherwise X is rounded, and the stages read the points and B's rows
    at the archimedean place only.  constants records the
    (c1, c2) with norm(B) <= c1 * norm(A)^c2 when norm_relation is
    B_prec_A or swapped: a fact about X, which no certificate carries.
    """

    orig_a: SquareMatrix
    orig_b: SquareMatrix
    word_a: Word
    word_b: Word
    basis: SquareMatrix
    basis_inv: SquareMatrix
    a_diag: tuple
    b_conj: SquareMatrix
    exact: bool
    sort_place: Place
    bits: int
    norm_relation: str
    constants: tuple
    trace_m: int | None = None

    @property
    def n(self) -> int:
        return len(self.a_diag)

    @property
    def balanced(self) -> bool:
        return self.norm_relation in ("B_prec_A", "swapped")

    def places(self, s: PlaceSet) -> list[Place]:
        """The places whose norms the stages compare: S on an exact basis, else archimedean."""
        return list(s) if self.exact else [ARCH]


def _certify_b_prec_a(an_sq, bn_sq, candidates=((1, 1), (1, 2))):
    """First (c1, c2) with norm(B) <= c1*norm(A)^c2, compared in squares, or None."""
    for c1, c2 in candidates:
        if bn_sq <= c1 * c1 * an_sq**c2:
            return Fraction(c1), Fraction(c2)
    return None


def _balance_exponents(b_rows, v: Place) -> tuple[int, ...]:
    """Integer log-2 scales minimizing the largest conjugated entry, greedily.

    Conjugating by diag(2^k_i) scales entry (i, j) by 2^(k_j - k_i).  Each
    step compares the largest scaled entry exactly, on the integers of B's
    bound table shifted left by s >= 0; the choice only needs to be a good
    heuristic, never a certificate.
    """
    hi = bound_table(b_rows, v).abs
    n = len(hi)
    entries = [(i, j, h) for i, row in enumerate(hi) for j, h in enumerate(row) if h]
    k = [0] * n
    if not entries:
        return tuple(k)

    def cost(ks, s):
        return max(h << (s + ks[j] - ks[i]) for i, j, h in entries)

    for _ in range(4096):
        # a trial moves one k_i by 1, so no shift goes below 0
        s = 2 * max(map(abs, k)) + 2
        improved = False
        for i in range(n):
            for delta in (1, -1):
                trial = list(k)
                trial[i] += delta
                if cost(trial, s) < cost(k, s):
                    k = trial
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return tuple(k)


def _balanced_rows(pair: ConjugatedPair):
    """B's rows conjugated by the power-of-2 diagonal of _balance_exponents.

    The diagonal centralizes diag(A), so the norm checks may read these
    rows in place of b_rows; the pair itself keeps its canonical rows.
    """
    b_rows = pair.b_conj.entries
    k = _balance_exponents(b_rows, ARCH)
    if not any(k):
        return b_rows
    n = len(b_rows)
    d = [Fraction(2) ** ki for ki in k]
    return tuple(tuple(b_rows[i][j] * d[j] / d[i] for j in range(n)) for i in range(n))


# the bits a rounded basis keeps: the first at which it is invertible
BASIS_BITS = (64, 128, 256)


def diagonalized_pair(
    a: SquareMatrix,
    b: SquareMatrix,
    word_a: Word,
    word_b: Word,
    sort_place: Place = ARCH,
    memo: SpectralMemo | None = None,
) -> ConjugatedPair:
    """The pair in A's canonical basis X: B becomes X^-1 * B * X.

    A pure function of its inputs: points sort by modulus at sort_place and
    eigenvectors carry pinned normalizations (see diagonalize), so a
    verifier replaying from the words alone lands in the same X.  X is
    exact when A's charpoly splits into distinct rationals; otherwise it
    is rounded to the first of BASIS_BITS at which it is invertible, and a
    basis singular at the last raises SingularEnclosure.  Finite sort
    places need the exact basis.  The result has norm_relation "none" and
    feeds wedge_pair and the cone checks directly.  memo passes on to
    diagonalize, so each precision tried reuses A's adjugate polynomial.
    """
    memo = memo or SpectralMemo()
    for bits in BASIS_BITS:
        try:
            a_diag, x, x_inv, exact = diagonalize(a, sort_place, bits, memo)
            break
        except SingularEnclosure as exc:
            singular = exc
    else:
        raise SingularEnclosure(f"{singular} at {bits} bits")
    return ConjugatedPair(
        orig_a=a,
        orig_b=b,
        word_a=word_a,
        word_b=word_b,
        basis=x,
        basis_inv=x_inv,
        a_diag=a_diag,
        b_conj=x_inv * b * x,
        exact=exact,
        sort_place=sort_place,
        bits=bits,
        norm_relation="none",
        constants=(Fraction(1), Fraction(1)),
    )


# largest m the trace route tries in norm(A)^m * max |tr B| >= norm(B)
TRACE_EXPONENT_CAP = 8


def balance_or_trace(pair: ConjugatedPair, s: PlaceSet) -> ConjugatedPair:
    """Certify a norm or trace relation for B on a pair from diagonalized_pair.

    Tries, in order: the direct norm comparison after a centralizer
    rebalancing, then the trace route (norm(A)^m * max |tr B| >= norm(B)
    for m up to TRACE_EXPONENT_CAP).  norm(A) is the largest eigenvalue
    point's modulus and norm(B) the largest entry of B in X, compared
    exactly in squares at pair.places(s).  B itself must pass; it is never
    replaced by a word.  The centralizer element is a power-of-2 diagonal
    that only rescales the rows the checks read; a global scalar acts
    trivially under conjugation, so no determinant normalization is
    applied.  The returned pair keeps the canonical basis and rows.
    Certification does not run it.
    """
    places = pair.places(s)
    b_rows = _balanced_rows(pair)
    an_sq = _norm_sq(pair.a_diag, places)
    bn_sq = _norm_sq(_entries(b_rows), places)
    certified = _certify_b_prec_a(an_sq, bn_sq)
    if certified is not None:
        return replace(pair, norm_relation="B_prec_A", constants=certified)
    tr_sq = _norm_sq([sum(b_rows[i][i] for i in range(pair.n))], places)
    for m in range(TRACE_EXPONENT_CAP + 1):
        if an_sq**m * tr_sq >= bn_sq:
            return replace(pair, norm_relation="trace_big", trace_m=m)
    raise BalanceFailed(
        f"no norm relation and no trace relation with exponent up to {TRACE_EXPONENT_CAP} "
        "certified for B"
    )


def swap_roles(
    pair: ConjugatedPair, s: PlaceSet, memo: SpectralMemo | None = None
) -> ConjugatedPair:
    """Interchange A and B after the trace route, rediagonalizing around B.

    Requires norm(A)^m <= sqrt(norm(B)) for the recorded trace exponent
    (checked as a squared inequality on the rebalanced rows
    balance_or_trace read) and the conditioning bound
    max(norm(C), norm(C^-1)) <= max(2, norm(A'))^n on the new basis C,
    which is B's canonical basis.  B's spectral data goes into memo.  Certification does not run it: its search tries both roles.
    """
    if pair.norm_relation != "trace_big":
        raise ValueError("swap applies only after the trace route")
    places = pair.places(s)
    an_sq = _norm_sq(pair.a_diag, places)
    bn_sq = _norm_sq(_entries(_balanced_rows(pair)), places)
    m = pair.trace_m or 0
    if not an_sq ** (2 * m) <= bn_sq:
        raise SwapFailed("norm(A)^m exceeds sqrt(norm(B)): swap inequality not certified")

    memo = memo or SpectralMemo()
    if not memo.squarefree(char_poly(pair.orig_b, memo)):
        raise SwapFailed("B has repeated eigenvalues: no certified eigenbasis")
    new = diagonalized_pair(pair.orig_b, pair.orig_a, pair.word_b, pair.word_a, ARCH, memo)

    places = new.places(s)
    new_an_sq = _norm_sq(new.a_diag, places)
    cond_bound = max(Fraction(4), new_an_sq) ** new.n
    for x in (new.basis, new.basis_inv):
        if not _norm_sq(_entries(x.entries), places) <= cond_bound:
            raise SwapFailed("eigenbasis conditioning bound not certified")

    certified = _certify_b_prec_a(new_an_sq, _norm_sq(_entries(new.b_conj.entries), places))
    if certified is None:
        raise SwapFailed("swapped pair does not certify the norm relation")
    return replace(new, norm_relation="swapped", constants=certified)


def select_place_and_wedge(
    pair: ConjugatedPair, grid: dict[tuple[Place, int], bool]
) -> tuple[Place, int]:
    """Place of maximal norm(A) and the smallest wedge degree with a gap.

    grid is the (L1) gap grid of the exact original A (l1_gap_report):
    the first of spectra.gap_cells, the order certify's search tries.
    Certification does not run it.
    """
    if not pair.balanced:
        raise ValueError("pair must certify the norm relation before selection")
    cells = gap_cells(grid, pair.a_diag, pair.exact)
    if cells:
        return cells[0]
    summary = ", ".join(
        f"{v}/m={m}:{'T' if ok else 'F'}"
        for (v, m), ok in sorted(grid.items(), key=lambda kv: (kv[0][0].sort_key, kv[0][1]))
    )
    raise NoGap(f"no certified spectral gap; grid: {summary}")


# ---------------------------------------------------------------------------
# wedge-level data


def wedge_pair(pair: ConjugatedPair, v: Place, m: int) -> tuple[SquareMatrix, SquareMatrix]:
    """The exact m-th compounds of A' = X^-1 A X and B' = X^-1 B X, in the canonical order at v.

    Coordinates go by the product of their points' _modulus_key,
    descending, ties in subset order.  On an exact basis the first compound
    is diag(a_diag) itself.  Only the top coordinate's place matters to a
    certificate: the cone checks treat coordinates 2..n symmetrically, so a
    tie below the top can move no verdict.
    """
    if not pair.exact and not v.is_archimedean:
        raise ValueError("a rounded basis cannot certify finite places")
    keys = wedge_diag([_modulus_key(z, v) for z in pair.a_diag], m)
    order = sorted(range(len(keys)), key=lambda i: (-keys[i], i))

    def wedge(c: SquareMatrix) -> SquareMatrix:
        rows = compound(c.num, m, 0)
        return SquareMatrix(c.den**m, [[rows[i][j] for j in order] for i in order])

    return wedge(pair.basis_inv * pair.orig_a * pair.basis), wedge(pair.b_conj)


# ---------------------------------------------------------------------------
# corner amplification


@dataclass(frozen=True)
class AmplifyResult:
    """A word over {A, B} with a certified lower bound on one target entry.

    The recorded (p, k, ell) satisfy: the entry modulus is at least
    p * norm(A)^(-k) * norm(B)^ell for the true norms at the place, with
    k the total A-exponent and ell the number of B factors in the word.
    """

    word: Word
    path: tuple
    entry_lower: Fraction
    p: Fraction
    k: int
    ell: int


def amplify_entry(
    a_diag,
    b_rows,
    target: tuple[int, int],
    c: Fraction,
    v: Place,
) -> AmplifyResult:
    """Bounded word in {A, B} whose target entry is certifiably large.

    a_diag is A's rational diagonal and b_rows B in the same basis.
    Entries with |B_st| > c * norm(B) form a digraph; a walk i -> ... -> j
    is folded one hop at a time, each hop choosing the power k in 0..n-1
    maximizing the exact entry of W * A^k * B.  The n powers cannot all
    give small entries: the hop coefficients solve a Vandermonde system
    with one large component and determinant bounded away from zero for
    distinct eigenvalues.
    """
    n = len(a_diag)
    i, j = target
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("target out of range")
    bn = max(abs_value(x, v) for x in _entries(b_rows))
    an = max(abs_value(x, v) for x in a_diag)

    def large(s, t):
        return abs_value(b_rows[s][t], v) > c * bn

    def result(word, path, lower, total_k, total_ell):
        p = lower * an**total_k / bn**total_ell
        return AmplifyResult(word, tuple(path), lower, p, total_k, total_ell)

    if large(i, j):
        return result(SYM_B, (i, j), abs_value(b_rows[i][j], v), 0, 1)

    # shortest walk with >= 2 edges: BFS seeded from the out-neighbors of i
    edges = {s: [t for t in range(n) if large(s, t)] for s in range(n)}
    parent: dict[int, int] = {}
    queue = deque()
    for t in edges[i]:
        parent[t] = i
        queue.append(t)
    while queue:
        node = queue.popleft()
        if node == j:
            break
        for t in edges[node]:
            if t not in parent:
                parent[t] = node
                queue.append(t)
    if j not in parent:
        raise NotConnected(f"no large-entry walk from {i} to {j} at level {c}")
    # take at least one parent step: when i == j the walk is a cycle
    walk = [j, parent[j]]
    while walk[-1] != i:
        walk.append(parent[walk[-1]])
    walk.reverse()

    word = SYM_B
    b = SquareMatrix.from_rows(b_rows)
    rows = b
    total_k, total_ell = 0, 1
    for hop in range(1, len(walk) - 1):
        target_col = walk[hop + 1]
        best = None
        for kpow in range(n):
            powers = [Fraction(x) ** kpow for x in a_diag]
            mid = SquareMatrix.from_rows(
                [[x if r == s else 0 for s in range(n)] for r, x in enumerate(powers)]
            )
            cand = rows * mid * b
            lower = abs_value(cand[i, target_col], v)
            if best is None or lower > best[0]:
                best = (lower, kpow, cand)
        lower, kpow, rows = best
        word = word * SYM_A**kpow * SYM_B
        total_k += kpow
        total_ell += 1
    final_lower = abs_value(rows[i, j], v)
    if final_lower == 0:
        raise Inconclusive("amplification walk ended on a zero entry")
    return result(word, walk, final_lower, total_k, total_ell)


def ensure_l2(
    pair: ConjugatedPair,
    v: Place,
    m: int,
    constants=(Fraction(1), Fraction(1), Fraction(1), Fraction(2)),
) -> LConditions:
    """Certify the corner conditions for B itself at the place and wedge degree.

    The size constant c3 may grow by powers of 16 up to 2^32 (recorded in
    the returned conditions).  Raises L2Unreachable when B fails them; B
    is never replaced by a word.  Needs an exact basis, where the wedge of
    A is diagonal (check_l_conditions raises ValueError otherwise).  A
    library function: certification does not run it, since the cone
    checks in the canonical basis decide a certificate on their own.
    """
    wa, wb = wedge_pair(pair, v, m)
    c2, d2, c3, d3 = (Fraction(x) for x in constants)
    for t in range(0, 33, 4):
        cond = check_l_conditions(wa, wb, v, (c2, d2, c3 * 2**t, d3))
        if cond.l3:
            break
    if not cond.all_pass:
        raise L2Unreachable(
            f"B fails the corner conditions (l1={cond.l1}, l2={cond.l2}, l3={cond.l3}, "
            f"c3 up to {cond.c3})"
        )
    return cond


# ---------------------------------------------------------------------------
# almost-algebras


def _rows_mul(x, y):
    return (SquareMatrix.from_rows(x) * SquareMatrix.from_rows(y)).entries


def _frob(x_rows, y_rows) -> Fraction:
    return sum(a * b for rx, ry in zip(x_rows, y_rows) for a, b in zip(rx, ry))


def _mat_sub(x, y):
    return tuple(tuple(a - b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def _mat_scale(x, c: Fraction):
    return tuple(tuple(c * a for a in row) for row in x)


def _project_residual(x, ortho):
    """x minus its projection onto the span; exact, plus the coefficients."""
    coeffs = []
    res = x
    for o in ortho:
        c = _frob(res, o) / _frob(o, o)
        coeffs.append(c)
        res = _mat_sub(res, _mat_scale(o, c))
    return res, coeffs


@dataclass(frozen=True)
class AlmostAlgebra:
    """Stabilized product-closed span with certified closure defect.

    ortho_basis holds exact orthogonal (unnormalized) representatives;
    basis_matrices are their normalizations to within 2^-64, orthonormal
    to that tolerance.  closure_defect bounds the distance from the span
    of any product of normalized basis elements; defect_sq is the exact
    square backing it.
    """

    basis_matrices: tuple
    ortho_basis: tuple
    epsilon: Fraction
    epsilon_ladder: tuple
    dimension: int
    stabilized_k: int
    closure_defect: Fraction
    defect_sq: Fraction


def build_almost_algebra(blocks, epsilon: Fraction) -> AlmostAlgebra:
    """Grow the span of the blocks until products stay epsilon-close.

    A product of normalized basis elements at distance > epsilon from the
    current span is admitted as a new direction; when a full pass admits
    nothing, the span has stabilized.  Inputs with tr(X X^t) > 1 are
    rescaled by powers of 2 (the span and all normalized quantities are
    scale invariant).  Distance comparisons are exact via squares.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rows_list = []
    for blk in blocks:
        rows = (
            blk.entries
            if isinstance(blk, SquareMatrix)
            else tuple(tuple(Fraction(x) for x in row) for row in blk)
        )
        while _frob(rows, rows) > 1:
            rows = _mat_scale(rows, Fraction(1, 2))
        rows_list.append(rows)
    if not rows_list:
        raise ValueError("need at least one block")
    cap = len(rows_list[0]) ** 2

    ortho: list = []
    for rows in rows_list:
        res, _ = _project_residual(rows, ortho)
        if _frob(res, res) > 0:
            ortho.append(res)

    ladder = []
    k = 1
    while True:
        if k > cap + 1:
            raise NoStabilization("span kept growing past the dimension bound")
        ladder.append(epsilon)
        admitted = False
        dim = len(ortho)
        for ii in range(dim):
            for jj in range(dim):
                prod = _rows_mul(ortho[ii], ortho[jj])
                res, _ = _project_residual(prod, ortho)
                scale = _frob(ortho[ii], ortho[ii]) * _frob(ortho[jj], ortho[jj])
                if _frob(res, res) > epsilon**2 * scale:
                    ortho.append(res)
                    admitted = True
        if not admitted or len(ortho) >= cap:
            # a full matrix space cannot grow further; products stay inside
            break
        k += 1

    defect_sq = Fraction(0)
    dim = len(ortho)
    for ii in range(dim):
        for jj in range(dim):
            prod = _rows_mul(ortho[ii], ortho[jj])
            res, _ = _project_residual(prod, ortho)
            scale = _frob(ortho[ii], ortho[ii]) * _frob(ortho[jj], ortho[jj])
            defect_sq = max(defect_sq, _frob(res, res) / scale)
    assert defect_sq <= epsilon**2
    defect = Fraction(0) if defect_sq == 0 else min(sqrt_upper(defect_sq, 64), epsilon)

    normalized = []
    for o in ortho:
        nsq = _frob(o, o)
        normalized.append(_mat_scale(o, Fraction(1) if nsq == 1 else 1 / sqrt_upper(nsq, 64)))
    return AlmostAlgebra(
        basis_matrices=tuple(normalized),
        ortho_basis=tuple(ortho),
        epsilon=epsilon,
        epsilon_ladder=tuple(ladder),
        dimension=dim,
        stabilized_k=k,
        closure_defect=defect,
        defect_sq=defect_sq,
    )

