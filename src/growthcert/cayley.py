"""Cayley ball enumeration, growth estimation, and regular pair search.

Balls are built lazily, sphere by sphere in shortlex order, so the pair
search stops at its first pair; exact dedup keeps three spheres.  A ball
element M is held as its integer form exactnum.integer_form(M) = (d, N),
with M = N/d.  Each rational matrix has exactly one such form, so two words
are identified exactly when they are equal in the group, never because
floats or residues collided; products are integer matmuls, with one gcd
only when a denominator appears.  An element is never multiplied by the
inverse of its own last letter, since that product is its parent.  Growth
estimates derived from counts are certified dyadic lower bounds; the
exponential-vs-polynomial verdict and the degree fit are float heuristics,
clearly labeled, and never feed a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import BudgetExceeded, Inconclusive, InsufficientData, PairNotFound
from .exactnum import PlaceSet, SquareMatrix, Word, integer_form, row_reduce, s_support
from .polyroots import Poly, poly_degree, squarefree_part
from .spectra import char_poly, discriminant, l1_gap_report


def charpoly_is_squarefree(f: Poly) -> bool:
    """Distinct eigenvalues, i.e. a matrix with charpoly f is regular semisimple."""
    return poly_degree(squarefree_part(f)) == poly_degree(f)


def _as_matrix(key: tuple[int, tuple]) -> SquareMatrix:
    d, rows = key
    return SquareMatrix(tuple(tuple(Fraction(x, d) for x in row) for row in rows))


def _alphabet(gens: list[SquareMatrix]) -> list[tuple[Word, tuple[int, tuple], int]]:
    """Generators then inverses, as (letter word, (d, N), index of the inverse letter).

    Exact duplicates are dropped, so an involution is its own inverse and
    the inverse of a dropped letter is the letter kept in its place.
    """
    pairs = [(integer_form(g), integer_form(g.inverse())) for g in gens]
    inverse_key = {}
    for key, inv in pairs:
        inverse_key[key], inverse_key[inv] = inv, key
    index: dict[tuple, int] = {}
    letters = []
    for sign, side in ((1, 0), (-1, 1)):
        for i, pair in enumerate(pairs):
            key = pair[side]
            if key not in index:
                index[key] = len(letters)
                letters.append((Word(((i, sign),)), key))
    return [(word, key, index[inverse_key[key]]) for word, key in letters]


def _spheres(letters, radius, budget):
    """Shortlex spheres S(1), S(2), ... of the ball over letters = _alphabet(gens).

    Each is a list of (parent, letter, (d, N)): parent indexes the previous
    sphere (S(0) is the identity), letter indexes letters, and dividing
    N1 N2 and d1 d2 by their gcd keeps the product an integer form.  An
    element is never multiplied by the inverse of its last letter: that
    product is its parent, which is still in the dedup set.  Stops after
    radius spheres or an empty one; raises BudgetExceeded at the first new
    element past budget elements, the identity included.
    """
    if not letters:
        raise ValueError("empty generator list")
    n = len(letters[0][1][1])
    mats = list(enumerate((d, tuple(zip(*rows))) for _, (d, rows), _ in letters))
    # the letters that may follow each letter
    after = [[(j, mat) for j, mat in mats if j != inv] for _, _, inv in letters]
    ident = (1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    older, sphere = [], [(None, None, ident)]
    seen = {ident}
    total = 1
    for _ in range(radius):
        new = []
        for parent, (_, last, (d, rows)) in enumerate(sphere):
            for letter, (ld, cols) in mats if last is None else after[last]:
                prod = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in rows)
                dd = d * ld
                if dd != 1:
                    g = math.gcd(dd, *(x for row in prod for x in row))
                    if g != 1:
                        dd //= g
                        prod = tuple(tuple(x // g for x in row) for row in prod)
                key = (dd, prod)
                if key in seen:
                    continue
                if total >= budget:
                    raise BudgetExceeded(f"ball exceeded budget {budget}")
                total += 1
                seen.add(key)
                new.append((parent, letter, key))
        # the alphabet is symmetric: a letter moves S(k+1) only into S(k), S(k+1), S(k+2)
        seen.difference_update(key for _, _, key in older)
        yield new
        if not new:
            return
        older, sphere = sphere, new


def _ball_words(letters, radius, budget):
    """The ball without the identity as shortlex (word, (d, N)), words built per sphere reached."""
    words = [Word()]
    for sphere in _spheres(letters, radius, budget):
        words = [words[parent] * letters[letter][0] for parent, letter, _ in sphere]
        yield from zip(words, (key for _, _, key in sphere))


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


# the dyadic grid 2^-GRID_BITS of every growth estimate and certificate bound
GRID_BITS = 20


def nth_root_floor(count: int, n: int) -> Fraction:
    """Largest multiple of 2^-GRID_BITS whose n-th power is <= count.

    Certified by integer comparison; this is the exact dyadic lower bound
    on count^(1/n) used in growth estimates and certificate bounds, so
    verify's exact bound equality rests on this one grid.
    """
    scale = 1 << GRID_BITS
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
    counts = [1]
    try:
        for sphere in _spheres(letters, radius, budget):
            counts.append(counts[-1] + len(sphere))
    except BudgetExceeded as exc:
        exc.partial = _build_report(counts, False, len(letters))
        raise
    return _build_report(counts, len(counts) > 1 and counts[-1] == counts[-2], len(letters))


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
    letters = _alphabet(gens)
    for word_a, key_a in _ball_words(letters, depth, budget):
        mat_a = _as_matrix(key_a)
        f = char_poly(mat_a)
        if not charpoly_is_squarefree(f):
            continue
        try:
            grid = l1_gap_report(mat_a, s, f)
        except Inconclusive:
            continue
        if any(grid.values()):
            break
    else:
        raise PairNotFound(f"no regular (L1)-capable element within radius {depth}")
    # B is the first partner in shortlex order, so its scan starts over
    for word_b, key_b in _ball_words(letters, depth, budget):
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
            # A passed the squarefree gate, so its charpoly is its squarefree part
            disc=discriminant(f),
            l1_grid=grid,
            genericity={"shemesh": True, "burnside_dim": dim},
        )
    raise PairNotFound(f"no generic partner for A within radius {depth}")
