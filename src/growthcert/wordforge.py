"""Basis preparation between pair selection and cone certification.

diagonalized_pair diagonalizes A from its adjugate polynomial (exact when
the charpoly splits over Q, certified enclosures otherwise) into the
canonical ConjugatedPair, and every later stage hands that pair on.  The
order of its eigenvalues, wedge coordinates and places comes from exact
keys (_modulus_key), so certify and verify agree on it on every machine.
The norm balancing reads B's rows after a centralizer conjugation but
keeps the canonical ones, the trace route records a relation, and the
role swap builds B's canonical pair the same way.  The place and wedge
degree with a certified spectral gap come from the gap grid the pair
search already holds.  Every stage checks the seed pair itself; none
replaces B by a longer word.  The corner check (ensure_l2), corner
amplification and the almost-algebra builder are library functions;
certification does not run them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction

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
from .intervals import ComplexInterval, _fraction, cmat_from_exact, cmat_mul, sqrt_upper
from .pingpong import LConditions, bound_table, check_l_conditions, entry_bounds
from .polyroots import certified_root_structure, squarefree_part
from .spectra import adjugate_poly, char_poly, compound, wedge_diag

SYM_A = Word.generator(0)
SYM_B = Word.generator(1)


# ---------------------------------------------------------------------------
# diagonalization


def _modulus_key(x, v: Place = ARCH) -> Fraction:
    """The canonical order's key: |x|_v for an exact x, the midpoint of |x|^2's bounds for a box.

    The midpoint is (lo + hi) / 2^(2k + 1) from the integer bounds of
    _mag_sq, exact at every magnitude.  One sort never mixes the two kinds.
    """
    if isinstance(x, ComplexInterval):
        lo, hi = x._mag_sq()
        return _fraction(lo + hi, 2 * x.k + 1)
    return abs_value(x, v)


def _root_boxes(real_ivs, boxes, bits: int) -> list[ComplexInterval]:
    """Root boxes from certified_root_structure's result in the canonical order.

    Descending by _modulus_key, ties broken by the real and then the
    imaginary midpoint, descending.  A rational point that is not dyadic
    rounds out at 4 * bits, the eigenbasis precision, so its box tightens
    as bits escalates.
    """
    lambdas = [ComplexInterval.from_box(iv.lo, iv.hi, 0, 0, 4 * bits) for iv in real_ivs]
    lambdas += boxes
    lambdas.sort(
        key=lambda z: (
            _modulus_key(z),
            _fraction(z.rl + z.rh, z.k + 1),
            _fraction(z.il + z.ih, z.k + 1),
        ),
        reverse=True,
    )
    return lambdas


def _eigenbasis(d: int, mats, lambdas, bits: int):
    """Rows of P and of P^-1 from adjugate_poly's (d, mats) at each root in lambdas.

    Horner gives X = sum_k M_k mu^(n-k) = adj(mu I - N) with mu = d * lambda.
    At a simple root X has rank 1 and X^2 = tr(X) X, so a nonzero column
    pinned to 1 at coordinate q is the eigenvector and row q over tr(X) the
    matching row of P^-1.  Exact roots pin the first nonzero column at its
    last nonzero coordinate.  Boxes take the column of largest certified
    modulus, then the first coordinate certified nonzero whose modulus can
    reach that column's certified largest, so rounding noise cannot move
    the pin between coordinates of equal modulus; every step rounds out at
    4 * bits.
    """
    n = len(lambdas)
    exact = not isinstance(lambdas[0], ComplexInterval)
    prec = 4 * bits
    if not exact:
        mats = [[[ComplexInterval.point(x) for x in row] for row in m] for m in mats]
    columns, inv_rows = [], []
    for lam in lambdas:
        mu = lam * d if exact else lam.scale(d)
        adj = mats[0]
        for m in mats[1:]:
            adj = [[x * mu + y for x, y in zip(row, mrow)] for row, mrow in zip(adj, m)]
            if not exact:
                adj = [[x.round_out(prec) for x in row] for row in adj]
        tr = sum((adj[i][i] for i in range(1, n)), adj[0][0])
        if exact:
            col = next(c for c in zip(*adj) if any(c))
            q = max(i for i in range(n) if col[i])
            pin, scale = 1 / Fraction(col[q]), 1 / Fraction(tr)
            col = [x * pin for x in col]
            row = [x * scale for x in adj[q]]
        else:
            col, sq, best_lo = None, None, Fraction(0)
            for c in zip(*adj):
                c_sq = [x.mag_sq() for x in c]
                lo = max(v.lo for v in c_sq)
                if lo > best_lo:
                    col, sq, best_lo = c, c_sq, lo
            if col is None:
                raise SingularEnclosure("no adjugate column certified nonzero")
            q = next(i for i, v in enumerate(sq) if v.lo > 0 and v.hi >= best_lo)
            pin, scale = col[q].recip(prec), tr.recip(prec)
            col = [(x * pin).round_out(prec) for x in col]
            col[q] = ComplexInterval.point(1)
            row = [(x * scale).round_out(prec) for x in adj[q]]
        columns.append(col)
        inv_rows.append(tuple(row))
    return tuple(zip(*columns)), tuple(inv_rows)


def diagonalize(a: SquareMatrix, sort_place: Place = ARCH, bits: int = 128):
    """(diag, P rows, P^-1 rows) with A = P diag P^-1, from one adjugate_poly.

    Eigenvalues sort by modulus descending at sort_place.  A charpoly that
    splits over Q gives exact Fractions, ties broken by value; otherwise
    eigenvalues are certified boxes at 2^-bits and P, P^-1 enclosures,
    which needs the archimedean sort place; too wide a box raises
    SingularEnclosure or PrecisionExhausted, and callers escalate bits.
    """
    f, d, mats = adjugate_poly(a)
    if squarefree_part(f) != f:
        raise ValueError("A must have a squarefree characteristic polynomial")
    width = Fraction(1, 2**bits) * max(Fraction(1), a.max_abs_entry())
    real_ivs, boxes = certified_root_structure(f, width)
    if not boxes and all(iv.lo == iv.hi for iv in real_ivs):
        lambdas = sorted(
            (iv.lo for iv in real_ivs), key=lambda lam: (-_modulus_key(lam, sort_place), lam)
        )
    elif not sort_place.is_archimedean:
        raise Inconclusive("finite sort place needs a rational eigenbasis")
    else:
        lambdas = _root_boxes(real_ivs, boxes, bits)
    p, p_inv = _eigenbasis(d, mats, lambdas, bits)
    return tuple(lambdas), p, p_inv


def _rows_mul(x, y, exact: bool, bits: int = 128):
    if exact:
        return (SquareMatrix.from_rows(x) * SquareMatrix.from_rows(y)).entries
    return cmat_mul(x, y, round_bits=4 * bits)


def _diag_rows(diag, exact: bool):
    n = len(diag)
    zero = Fraction(0) if exact else ComplexInterval.point(0)
    return tuple(tuple(diag[i] if i == j else zero for j in range(n)) for i in range(n))


def _norm_bounds(rows, v: Place, bits: int = 96) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds on the max entry modulus at the place."""
    t = bound_table(rows, v, bits)
    return Fraction(max(map(max, t.lo)), t.den), Fraction(max(map(max, t.hi)), t.den)


def _global_norm_bounds(rows, s: PlaceSet, exact: bool, bits: int = 96):
    """Max over the places of S; interval data restricts to the archimedean one."""
    places = list(s) if exact else [ARCH]
    pairs = [_norm_bounds(rows, v, bits) for v in places]
    return max(lo for lo, _ in pairs), max(hi for _, hi in pairs)


@dataclass(frozen=True)
class ConjugatedPair:
    """The pair in A's canonical eigenbasis, with the certified relation.

    Every pair is the one diagonalized_pair builds at sort_place and bits;
    the stages after it record a relation and never change the basis, so
    a later stage at the same place and bits reuses it.  orig_a and orig_b
    stay exact in the input basis so spectral data (charpoly, gap grid)
    never depends on enclosures.  basis and basis_inv are the rows of P
    and P^-1 with A = P diag P^-1; a_diag and b_rows = P^-1 B P live in the
    eigenbasis: Fractions on the exact path, ComplexIntervals otherwise.
    constants records the (c1, c2) certifying norm(B) <= c1 * norm(A)^c2
    when norm_relation is B_prec_A or swapped.
    """

    orig_a: SquareMatrix
    orig_b: SquareMatrix
    word_a: Word
    word_b: Word
    basis: tuple
    basis_inv: tuple
    a_diag: tuple
    b_rows: tuple
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


def _certify_b_prec_a(a_diag, b_rows, s, exact, bits, candidates=((1, 1), (1, 2))):
    """First (c1, c2) with norm(B) <= c1*norm(A)^c2 certified, or None."""
    an_lo, _ = _global_norm_bounds(_diag_rows(a_diag, exact), s, exact, bits)
    _, bn_hi = _global_norm_bounds(b_rows, s, exact, bits)
    for c1, c2 in candidates:
        if bn_hi <= Fraction(c1) * an_lo ** int(c2):
            return Fraction(c1), Fraction(c2)
    return None


def _trace_abs_bounds(b_rows, s, exact, bits):
    """Bounds on max over S of |tr B|; interval path is archimedean-only."""
    n = len(b_rows)
    if exact:
        tr = sum(b_rows[i][i] for i in range(n))
        vals = [abs_value(tr, v) for v in s]
        return max(vals), max(vals)
    tr = b_rows[0][0]
    for i in range(1, n):
        tr = tr + b_rows[i][i]
    m = tr.mag(bits)
    return m.lo, m.hi


def _balance_exponents(b_rows, v: Place, bits: int) -> tuple[int, ...]:
    """Integer log-2 scales minimizing the largest conjugated entry, greedily.

    Conjugating by diag(2^k_i) scales entry (i, j) by 2^(k_j - k_i).  Each
    step compares the largest scaled upper bound exactly, on the integers
    of B's bound table shifted left by s >= 0; the choice only needs to be
    a good heuristic, never a certificate.
    """
    hi = bound_table(b_rows, v, bits).hi
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
    b_rows = pair.b_rows
    k = _balance_exponents(b_rows, ARCH, 96)
    if not any(k):
        return b_rows
    n = len(b_rows)
    d = [Fraction(2) ** ki for ki in k]
    if pair.exact:
        return tuple(tuple(b_rows[i][j] * d[j] / d[i] for j in range(n)) for i in range(n))
    return tuple(
        tuple(b_rows[i][j] * ComplexInterval.point(d[j] / d[i]) for j in range(n))
        for i in range(n)
    )


def diagonalized_pair(
    a: SquareMatrix,
    b: SquareMatrix,
    word_a: Word,
    word_b: Word,
    sort_place: Place = ARCH,
    bits: int = 128,
) -> ConjugatedPair:
    """The pair in A's canonical eigenbasis: B becomes P^-1 * B * P.

    Deterministic in its inputs: eigenvalues sort by modulus at sort_place,
    eigenvectors carry pinned normalizations, so a verifier replaying from
    the words alone lands in the same basis.  The basis is exact when A's
    charpoly splits into distinct rationals and enclosed otherwise; finite
    sort places need the exact one (see diagonalize).  The result has
    norm_relation "none"; balance_or_trace and swap_roles record a relation
    on it without changing the basis, and it feeds wedge_pair and the cone
    checks directly.
    """
    a_diag, p, p_inv = diagonalize(a, sort_place, bits)
    exact = not isinstance(a_diag[0], ComplexInterval)
    b_rows = b.entries if exact else cmat_from_exact(b, 4 * bits)
    b_rows = _rows_mul(_rows_mul(p_inv, b_rows, exact, bits), p, exact, bits)
    return ConjugatedPair(
        orig_a=a,
        orig_b=b,
        word_a=word_a,
        word_b=word_b,
        basis=p,
        basis_inv=p_inv,
        a_diag=a_diag,
        b_rows=b_rows,
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
    for m up to TRACE_EXPONENT_CAP).  B itself must pass; it is never
    replaced by a word.  The centralizer element is a power-of-2 diagonal
    that only rescales the rows the checks read; a global scalar acts
    trivially under conjugation, so no determinant normalization is
    applied.  The returned pair keeps the canonical basis and rows.
    """
    exact, bits = pair.exact, pair.bits
    b_rows = _balanced_rows(pair)
    certified = _certify_b_prec_a(pair.a_diag, b_rows, s, exact, bits)
    if certified is not None:
        return replace(pair, norm_relation="B_prec_A", constants=certified)
    an_lo, _ = _global_norm_bounds(_diag_rows(pair.a_diag, exact), s, exact, bits)
    _, bn_hi = _global_norm_bounds(b_rows, s, exact, bits)
    tr_lo, _ = _trace_abs_bounds(b_rows, s, exact, bits)
    for m in range(TRACE_EXPONENT_CAP + 1):
        if an_lo**m * tr_lo >= bn_hi:
            return replace(pair, norm_relation="trace_big", trace_m=m)
    raise BalanceFailed(
        f"no norm relation and no trace relation with exponent up to {TRACE_EXPONENT_CAP} "
        "certified for B"
    )


def swap_roles(pair: ConjugatedPair, s: PlaceSet, bits: int = 128) -> ConjugatedPair:
    """Interchange A and B after the trace route, rediagonalizing around B.

    Requires norm(A)^m <= sqrt(norm(B)) for the recorded trace exponent
    (checked as a squared inequality on the rebalanced rows
    balance_or_trace read) and a certified conditioning bound
    max(norm(C), norm(C^-1)) <= max(2, norm(A'))^n on the new basis, which
    is B's canonical eigenbasis at bits.
    """
    if pair.norm_relation != "trace_big":
        raise ValueError("swap applies only after the trace route")
    an_hi = _global_norm_bounds(_diag_rows(pair.a_diag, pair.exact), s, pair.exact)[1]
    bn_lo = _global_norm_bounds(_balanced_rows(pair), s, pair.exact)[0]
    m = pair.trace_m or 0
    if not an_hi ** (2 * m) <= bn_lo:
        raise SwapFailed("norm(A)^m exceeds sqrt(norm(B)): swap inequality not certified")

    f = char_poly(pair.orig_b)
    if squarefree_part(f) != f:
        raise SwapFailed("B has repeated eigenvalues: no certified eigenbasis")
    new = diagonalized_pair(pair.orig_b, pair.orig_a, pair.word_b, pair.word_a, ARCH, bits)

    cn_hi = _global_norm_bounds(new.basis, s, new.exact)[1]
    ci_hi = _global_norm_bounds(new.basis_inv, s, new.exact)[1]
    new_an_lo = _global_norm_bounds(_diag_rows(new.a_diag, new.exact), s, new.exact)[0]
    cond_bound = max(Fraction(2), new_an_lo) ** new.n
    if not (cn_hi <= cond_bound and ci_hi <= cond_bound):
        raise SwapFailed("eigenbasis conditioning bound not certified")

    certified = _certify_b_prec_a(new.a_diag, new.b_rows, s, new.exact, bits)
    if certified is None:
        raise SwapFailed("swapped pair does not certify the norm relation")
    return replace(new, norm_relation="swapped", constants=certified)


def select_place_and_wedge(
    pair: ConjugatedPair, grid: dict[tuple[Place, int], bool]
) -> tuple[Place, int]:
    """Place of maximal norm(A) and the smallest wedge degree with a gap.

    grid is the (L1) gap grid of the exact original A (l1_gap_report);
    its keys give the places.  On an exact basis every eigenvalue is
    rational, so places are ordered by the exact max |a_i|_v over a_diag,
    largest first, ties in place order; wedge degrees run 1..n-1.
    Interval-basis pairs, which cannot certify ultrametric cone bounds,
    get the archimedean place only.
    """
    if not pair.balanced:
        raise ValueError("pair must certify the norm relation before selection")
    if pair.exact:
        places = sorted(
            {v for v, _ in grid},
            key=lambda v: (-max(abs_value(x, v) for x in pair.a_diag), v.sort_key),
        )
    else:
        places = [ARCH]
    for v in places:
        for m in range(1, pair.n):
            if grid.get((v, m)):
                return v, m
    summary = ", ".join(
        f"{v}/m={m}:{'T' if ok else 'F'}"
        for (v, m), ok in sorted(grid.items(), key=lambda kv: (kv[0][0].sort_key, kv[0][1]))
    )
    raise NoGap(f"no certified spectral gap; grid: {summary}")


# ---------------------------------------------------------------------------
# wedge-level data


def wedge_pair(pair: ConjugatedPair, v: Place, m: int, bits: int = 96):
    """Wedge images (diag of A, rows of B) in the canonical order at v.

    Coordinates go by _modulus_key descending, ties in subset order.  Only
    the top coordinate's place matters to a certificate: the cone checks
    treat coordinates 2..n symmetrically, so a tie below the top can move
    no verdict.
    """
    if not pair.exact and not v.is_archimedean:
        raise ValueError("interval basis data cannot certify finite places")
    wa = wedge_diag(list(pair.a_diag), m)
    wb = compound(pair.b_rows, m, Fraction(0) if pair.exact else ComplexInterval(0, 0))
    order = sorted(range(len(wa)), key=lambda i: (-_modulus_key(wa[i], v), i))
    wa_sorted = tuple(wa[i] for i in order)
    wb_sorted = tuple(tuple(wb[i][j] for j in order) for i in order)
    return wa_sorted, wb_sorted


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


def _diag_power(diag, k: int, exact: bool, bits: int):
    if exact:
        return [Fraction(x) ** k for x in diag]
    return [x.pow_int(k, round_bits=4 * bits) for x in diag]


def amplify_entry(
    a_diag,
    b_rows,
    target: tuple[int, int],
    c: Fraction,
    v: Place,
    bits: int = 96,
) -> AmplifyResult:
    """Bounded word in {A, B} whose target entry is certifiably large.

    Entries with |B_st| > c * norm(B) form a digraph; a walk i -> ... -> j
    is folded one hop at a time, each hop choosing the power k in 0..n-1
    maximizing the certified entry bound of W * A^k * B.  The n powers
    cannot all give small entries: the hop coefficients solve a Vandermonde
    system with one large component and determinant bounded away from zero
    for distinct eigenvalues.
    """
    exact = not isinstance(a_diag[0], ComplexInterval)
    n = len(a_diag)
    i, j = target
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("target out of range")
    bn_hi = _norm_bounds(b_rows, v, bits)[1]
    an_lo = _norm_bounds(_diag_rows(a_diag, exact), v, bits)[0]

    def large(s, t):
        return entry_bounds(b_rows[s][t], v, bits)[0] > c * bn_hi

    def result(word, path, lower, total_k, total_ell):
        p = lower * an_lo**total_k / bn_hi**total_ell
        return AmplifyResult(word, tuple(path), lower, p, total_k, total_ell)

    if large(i, j):
        return result(SYM_B, (i, j), entry_bounds(b_rows[i][j], v, bits)[0], 0, 1)

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
    rows = b_rows
    total_k, total_ell = 0, 1
    for hop in range(1, len(walk) - 1):
        target_col = walk[hop + 1]
        best = None
        for kpow in range(n):
            mid = _diag_rows(_diag_power(a_diag, kpow, exact, bits), exact)
            cand = _rows_mul(_rows_mul(rows, mid, exact, bits), b_rows, exact, bits)
            lower = entry_bounds(cand[i][target_col], v, bits)[0]
            if best is None or lower > best[0]:
                best = (lower, kpow, cand)
        lower, kpow, rows = best
        word = word * SYM_A**kpow * SYM_B
        total_k += kpow
        total_ell += 1
    final_lower = entry_bounds(rows[i][j], v, bits)[0]
    if final_lower == 0:
        raise Inconclusive("amplification walk degraded to an uncertified entry")
    return result(word, walk, final_lower, total_k, total_ell)


def ensure_l2(
    pair: ConjugatedPair,
    v: Place,
    m: int,
    constants=(Fraction(1), Fraction(1), Fraction(1), Fraction(2)),
    bits: int = 96,
) -> LConditions:
    """Certify the corner conditions for B itself at the place and wedge degree.

    The size constant c3 may grow by powers of 16 up to 2^32 (recorded in
    the returned conditions).  Raises L2Unreachable when B fails them; B
    is never replaced by a word.  A library function: certification does
    not run it, since the cone checks in the canonical eigenbasis decide a
    certificate on their own.
    """
    wa, wb = wedge_pair(pair, v, m, bits)
    c2, d2, c3, d3 = (Fraction(x) for x in constants)
    for t in range(0, 33, 4):
        cond = check_l_conditions(wa, wb, v, (c2, d2, c3 * 2**t, d3), bits)
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
                prod = _rows_mul(ortho[ii], ortho[jj], True)
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
            prod = _rows_mul(ortho[ii], ortho[jj], True)
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

