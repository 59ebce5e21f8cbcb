"""Cayley ball enumeration, growth estimation, and regular pair search.

Balls are enumerated breadth-first with exact deduplication.  A ball element
M is held as the pair (d, N) with N an integer matrix, d > 0 and
gcd(d, entries of N) = 1, so that M = N/d.  Each rational matrix has exactly
one such form, so two words are identified exactly when they are equal in
the group, never because floats or residues collided; products are integer
matmuls, with one gcd only when a denominator appears.  Growth estimates
derived from counts are certified dyadic lower bounds; the exponential-vs-
polynomial verdict and the degree fit are float heuristics, clearly labeled,
and never feed a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import BudgetExceeded, Inconclusive, InsufficientData, PairNotFound
from .exactnum import PlaceSet, SquareMatrix, Word, row_reduce, s_support
from .polyroots import poly_degree, squarefree_part
from .spectra import char_poly, discriminant, l1_gap_report


def charpoly_is_squarefree(mat: SquareMatrix) -> bool:
    """Distinct eigenvalues, i.e. the matrix is regular semisimple."""
    f = char_poly(mat).poly
    return poly_degree(squarefree_part(f)) == poly_degree(f)


def _integer_form(mat: SquareMatrix) -> tuple[int, tuple]:
    """The unique (d, N) with mat = N/d, N an integer matrix, d > 0, gcd(d, N) = 1.

    d is the least common denominator of the entries, so no prime of d
    divides every entry of N.
    """
    d = math.lcm(*(x.denominator for row in mat.entries for x in row))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in mat.entries)


def _as_matrix(key: tuple[int, tuple]) -> SquareMatrix:
    d, rows = key
    return SquareMatrix(tuple(tuple(Fraction(x, d) for x in row) for row in rows))


def _alphabet(gens: list[SquareMatrix]) -> list[tuple[Word, tuple[int, tuple]]]:
    """Generators then inverses, as (letter word, (d, N)); exact duplicates dropped."""
    letters = []
    seen = set()
    for sign, mats in ((1, gens), (-1, [g.inverse() for g in gens])):
        for i, g in enumerate(mats):
            key = _integer_form(g)
            if key not in seen:
                seen.add(key)
                letters.append((Word(((i, sign),)), key))
    return letters


def _bfs_ball(gens, radius, budget, want_words):
    """Breadth-first ball with exact dedup on the (d, N) form of _integer_form.

    A product (d1, N1)(d2, N2) is (d1 d2, N1 N2) divided by the gcd of d1 d2
    and the entries of N1 N2, which keeps it in that unique form; over
    integer generators d stays 1 and each step is one integer matmul.

    Returns (counts, exhausted, elements) where counts[k] = |B(k)| and
    elements is the shortlex-ordered list of (word, (d, N)) excluding the
    identity (only populated when want_words).  Raises BudgetExceeded with
    the completed-radius counts attached.
    """
    if not gens:
        raise ValueError("empty generator list")
    n = gens[0].n
    letters = [(word, d, tuple(zip(*rows))) for word, (d, rows) in _alphabet(gens)]
    ident = (1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    ball = {ident}
    frontier = [(Word(), ident)]
    counts = [1]
    elements: list[tuple[Word, tuple[int, tuple]]] = []
    exhausted = False
    for _ in range(radius):
        new_frontier = []
        for word, (d, rows) in frontier:
            for lw, ld, cols in letters:
                prod = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in rows)
                dd = d * ld
                if dd != 1:
                    g = math.gcd(dd, *(x for row in prod for x in row))
                    if g != 1:
                        dd //= g
                        prod = tuple(tuple(x // g for x in row) for row in prod)
                key = (dd, prod)
                if key in ball:
                    continue
                if len(ball) >= budget:
                    raise BudgetExceeded(
                        f"ball exceeded budget {budget}", partial=list(counts)
                    )
                ball.add(key)
                entry = (word * lw if want_words else None, key)
                new_frontier.append(entry)
                if want_words:
                    elements.append(entry)
        counts.append(len(ball))
        frontier = new_frontier
        if not frontier:
            exhausted = True
            break
    return counts, exhausted, elements


def integer_nth_root(x: int, n: int) -> int:
    """floor(x^(1/n)) for x >= 0, n >= 1, in exact integer arithmetic."""
    if x < 0 or n < 1:
        raise ValueError("need x >= 0, n >= 1")
    if x == 0:
        return 0
    if n == 1:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r**n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def nth_root_floor(count: int, n: int, grid_bits: int = 20) -> Fraction:
    """Largest multiple of 2^-grid_bits whose n-th power is <= count.

    Certified by integer comparison; this is the exact dyadic lower bound
    on count^(1/n) used in growth estimates.
    """
    scale = 1 << grid_bits
    k = integer_nth_root(count * scale**n, n)
    assert k**n <= count * scale**n < (k + 1) ** n
    return Fraction(k, scale)


@dataclass(frozen=True)
class GrowthReport:
    """Ball sizes plus certified estimates and labeled heuristics.

    ball_sizes: (radius, size) pairs from radius 0.  omega_estimates:
    certified dyadic lower bounds size^(1/n).  poly_fit_degree and verdict
    are float-fit heuristics for human triage, never certificates.
    """

    ball_sizes: tuple[tuple[int, int], ...]
    alphabet_size: int
    exhausted: bool
    omega_estimates: tuple[tuple[int, Fraction], ...]
    poly_fit_degree: int | None
    verdict: str

    def csv(self) -> str:
        lines = ["n,count"]
        lines.extend(f"{n},{c}" for n, c in self.ball_sizes)
        return "\n".join(lines) + "\n"


def _poly_fit_degree(sizes: list[tuple[int, int]]) -> int | None:
    """Rounded log-log slope over the tail half of the data."""
    pts = [(n, c) for n, c in sizes if n >= 1 and c >= 1]
    if len(pts) < 4:
        return None
    tail = pts[len(pts) // 2 :]
    if len(tail) < 2:
        return None
    xs = [math.log(n) for n, _ in tail]
    ys = [math.log(c) for _, c in tail]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return None
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
    return round(slope)


def _sse(xs: list[float], ys: list[float]) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    denom = sum((x - mx) ** 2 for x in xs)
    if denom == 0:
        return float("inf")
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
    inter = my - slope * mx
    return sum((y - (slope * x + inter)) ** 2 for x, y in zip(xs, ys))


def _verdict(sizes: list[tuple[int, int]], exhausted: bool) -> str:
    if exhausted:
        # a stabilized ball means a finite group: constant growth
        return "polynomial-evidence"
    pts = [(n, c) for n, c in sizes if n >= 1 and c >= 1]
    if len(pts) < 4:
        return "insufficient-data"
    ns = [float(n) for n, _ in pts]
    logn = [math.log(n) for n, _ in pts]
    logc = [math.log(c) for _, c in pts]
    sse_exp = _sse(ns, logc)
    sse_poly = _sse(logn, logc)
    return "exponential-evidence" if sse_exp < sse_poly else "polynomial-evidence"


def _build_report(counts: list[int], exhausted: bool, alphabet_size: int) -> GrowthReport:
    sizes = tuple(enumerate(counts))
    estimates = tuple(
        (n, nth_root_floor(c, n)) for n, c in sizes if n >= 1
    )
    return GrowthReport(
        ball_sizes=sizes,
        alphabet_size=alphabet_size,
        exhausted=exhausted,
        omega_estimates=estimates,
        poly_fit_degree=0 if exhausted else _poly_fit_degree(list(sizes)),
        verdict=_verdict(list(sizes), exhausted),
    )


def enumerate_ball(
    gens: list[SquareMatrix], radius: int, budget: int = 10**6
) -> GrowthReport:
    """Exact |B_S(n)| for n = 0..radius over the symmetrized alphabet.

    BudgetExceeded carries the completed-radius counts in .partial as a
    GrowthReport so callers can still write a table.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    letters = _alphabet(gens)
    try:
        counts, exhausted, _ = _bfs_ball(gens, radius, budget, want_words=False)
    except BudgetExceeded as exc:
        exc.partial = _build_report(exc.partial, False, len(letters))
        raise
    return _build_report(counts, exhausted, len(letters))


def estimate_omega(report: GrowthReport) -> Fraction:
    """Empirical growth estimate from sampled radii.

    Exactly 1 when the ball stabilized (the group is finite); otherwise the
    certified dyadic root bound at the largest sampled radius.  Ball sizes
    are submultiplicative, so per-radius roots decrease toward the true
    rate: the deepest sample is the meaningful one.  Empirical only; a
    certified lower bound for the rate itself needs a freeness certificate.
    """
    if report.exhausted:
        return Fraction(1)
    if len(report.omega_estimates) < 2:
        raise InsufficientData("need at least two ball radii")
    return report.omega_estimates[-1][1]


# ---------------------------------------------------------------------------
# regular pair search


def shemesh_no_common_eigenvector(a: SquareMatrix, b: SquareMatrix) -> bool:
    """True when A and B share no eigenvector over the algebraic closure.

    The intersection of the kernels of all commutators [A^k, B^l]
    (1 <= k, l < n) is nonzero exactly when a common eigenvector exists;
    ranks over Q equal ranks over any extension, so the rational kernel
    computation decides the closure question.
    """
    n = a.n
    a_pows = [a]
    b_pows = [b]
    for _ in range(n - 2):
        a_pows.append(a_pows[-1] * a)
        b_pows.append(b_pows[-1] * b)
    stacked: list[list[Fraction]] = []
    for ak in a_pows:
        for bl in b_pows:
            comm = ak * bl - bl * ak
            stacked.extend([list(row) for row in comm.entries])
    return len(row_reduce(stacked)[1]) == n


def generated_algebra_dimension(a: SquareMatrix, b: SquareMatrix) -> int:
    """Dimension of the unital algebra generated by A and B inside n x n.

    Row-reduces span{I} together with A and B times the basis until the
    rank stops growing or reaches n^2; the span is then closed under left
    multiplication by A and B, so it holds every word.  Only the rows with
    a new pivot column need multiplying: with the old span they span the
    new one.
    """
    n = a.n
    rref = [[x for row in SquareMatrix.identity(n).entries for x in row]]
    pivots = [0]
    fresh = rref
    while fresh and len(rref) < n * n:
        rows = [SquareMatrix(tuple(tuple(r[i : i + n]) for i in range(0, n * n, n))) for r in fresh]
        products = [[x for row in (g * m).entries for x in row] for g in (a, b) for m in rows]
        old = set(pivots)
        rref, pivots, _ = row_reduce(rref + products)
        fresh = [r for r, col in zip(rref, pivots) if col not in old]
    return len(rref)


@dataclass(frozen=True)
class RegularPair:
    """First BFS pair passing regularity and genericity gates.

    word_a/word_b are shortlex-first words over the symmetrized alphabet;
    l1_grid is the per-(place, wedge) gap verdict for A; genericity records
    the Shemesh and Burnside outcomes for the pair itself.
    """

    word_a: Word
    word_b: Word
    matrix_a: SquareMatrix
    matrix_b: SquareMatrix
    disc: Fraction
    l1_grid: dict
    genericity: dict


def find_regular_pair(
    gens: list[SquareMatrix],
    depth: int = 4,
    s: PlaceSet | None = None,
    budget: int = 10**6,
) -> RegularPair:
    """Scan the ball in shortlex order for a certified (A, B) seed pair.

    A: first element with squarefree characteristic polynomial whose (L1)
    gap grid has at least one certified-true entry.  B: first element
    sharing no eigenvector with A (Shemesh) such that A, B generate the
    full matrix algebra (Burnside).
    """
    if s is None:
        s = s_support(gens)
    n = gens[0].n
    _, _, elements = _bfs_ball(gens, depth, budget, want_words=True)
    a_choice = None
    for word, key in elements:
        mat = _as_matrix(key)
        if not charpoly_is_squarefree(mat):
            continue
        try:
            grid = l1_gap_report(mat, s)
        except Inconclusive:
            continue
        if any(grid.values()):
            a_choice = (word, key, mat, grid)
            break
    if a_choice is None:
        raise PairNotFound(f"no regular (L1)-capable element within radius {depth}")
    word_a, key_a, mat_a, grid = a_choice
    for word_b, key_b in elements:
        if key_b == key_a:
            continue
        mat_b = _as_matrix(key_b)
        if not shemesh_no_common_eigenvector(mat_a, mat_b):
            continue
        dim = generated_algebra_dimension(mat_a, mat_b)
        if dim != n * n:
            continue
        return RegularPair(
            word_a=word_a,
            word_b=word_b,
            matrix_a=mat_a,
            matrix_b=mat_b,
            disc=discriminant(squarefree_part(char_poly(mat_a).poly)),
            l1_grid=grid,
            genericity={"shemesh": True, "burnside_dim": dim},
        )
    raise PairNotFound(f"no generic partner for A within radius {depth}")
