"""Cayley ball enumeration, growth estimation, and regular pair search.

Balls are built lazily, sphere by sphere in shortlex order, so the pair
search stops at its first pair; exact dedup keeps three spheres.  The
letters are integer matrices A = D*L over one common scale D, the lcm of
their denominators, so sphere k holds the integer matrices X = D^k*M: one
per group element, compared without a gcd.  A sphere travels as big ints
with one fixed-width slot per entry, and each letter multiplies the whole
sphere with a few scalar-by-packed products; an element's key is its slot
bytes, exact because every slot is wide enough for its entry.  So two words
are identified exactly when they are equal in the group, never because
floats or residues collided.  An element is never multiplied by the
inverse of its own last letter, since that product is its parent.  The
pair search decodes each element straight from its slots to an integer
matrix over the sphere's scale, and its Shemesh and Burnside gates
eliminate integer rows of the numerators.  Growth estimates derived from
counts are certified dyadic lower bounds; the exponential-vs-polynomial
verdict and the degree fit are float heuristics, clearly labeled, and
never feed a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import BudgetExceeded, Inconclusive, InsufficientData, PairNotFound
from .exactnum import PlaceSet, SquareMatrix, Word, bareiss, int_matmul, s_support
from .polyroots import Poly, poly_degree, squarefree_part
from .spectra import char_poly, discriminant, l1_gap_report


def charpoly_is_squarefree(f: Poly) -> bool:
    """Distinct eigenvalues, i.e. a matrix with charpoly f is regular semisimple."""
    return poly_degree(squarefree_part(f)) == poly_degree(f)


def _alphabet(gens: list[SquareMatrix]) -> list[tuple[Word, tuple[int, tuple], int]]:
    """Generators then inverses, as (letter word, (d, N), index of the inverse letter).

    Exact duplicates are dropped, so an involution is its own inverse and
    the inverse of a dropped letter is the letter kept in its place.
    """
    pairs = [((g.den, g.num), (h.den, h.num)) for g, h in zip(gens, map(SquareMatrix.inverse, gens))]
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


# slot widths are whole 8-byte words, so slots move between layouts as 'Q' items
WORD_BITS = 64
# bytes of one letter's products formed at once, for a chunk of parents
CHUNK_BYTES = 1 << 16


def _spread(c: int, slots: int, width: int) -> int:
    """c, 0 <= c < 2^width, in each of slots slots of width bits, built from bytes in linear time."""
    return int.from_bytes(c.to_bytes(width // 8, "little") * slots, "little")


def _pack(z: int, slots: int, width: int) -> bytes:
    """Slot bytes of the packed int z = sum_s v_s 2^(width*s), -2^(width-1) <= v_s < 2^(width-1).

    Each slot is stored as v_s + 2^(width-1), little-endian: the slot's two's
    complement with its sign bit flipped.  That lies in [0, 2^width), so
    adding it to every slot carries into no neighbour, and the bytes give
    each v_s back exactly.
    """
    return (z + _spread(1 << width - 1, slots, width)).to_bytes(slots * width // 8, "little")


def _unpack(buf, width: int, new_width: int) -> int:
    """The packed int of the slot bytes buf of width bits, in slots of new_width >= width bits."""
    if new_width != width:
        w, nw = width // WORD_BITS, new_width // WORD_BITS
        wide = bytearray(len(buf) // w * nw)
        src, dst = memoryview(buf).cast("Q"), memoryview(wide).cast("Q")
        for t in range(w):
            dst[t::nw] = src[t::w]
        buf = wide
    # a copied slot keeps its old offset 2^(width-1), in any new width
    half = _spread(1 << width - 1, len(buf) * 8 // new_width, new_width)
    return int.from_bytes(buf, "little") - half


def _fits(buf, width: int, bits: int) -> bool:
    """Whether every slot of the slot bytes buf holds a value in [-2^(bits-1), 2^(bits-1))."""
    if bits >= width:
        return True
    if bits < 1:
        return False
    slots = len(buf) * 8 // width
    # re-offset every slot by 2^(bits-1): a slot fits exactly when it lands in
    # [0, 2^bits); the lowest one that does not sets a bit at or above bits,
    # since every slot below it fits and lends it no borrow
    z = int.from_bytes(buf, "little") - _spread((1 << width - 1) - (1 << bits - 1), slots, width)
    return not z & _spread((1 << width) - (1 << bits), slots, width)


def _as_matrix(key: bytes, d: int, width: int) -> SquareMatrix:
    """The matrix M whose key at scale d is key: d*M in n^2 row-major slots of width bits."""
    step = width // 8
    half = 1 << width - 1
    vals = [int.from_bytes(key[i : i + step], "little") - half for i in range(0, len(key), step)]
    n = math.isqrt(len(vals))
    return SquareMatrix(d, [vals[i : i + n] for i in range(0, n * n, n)])


def _products(buf, width: int, columns) -> list[bytes]:
    """Slot bytes of X*A for every element X of the sphere buf and every letter A.

    buf holds the sphere's elements one after another, each as n^2
    row-major slots of width bits: the rows of the tall matrix S that
    stacks them, so S*A stacks the products X*A.  Each column of S is
    packed into one int, a slot per row, and column j of S*A is
    sum_k S_k * a_kj, n scalar-by-packed products.  Its slots are
    interleaved back into rows.  columns[letter][j] is A's column j.
    """
    n = len(columns[0])
    w = width // WORD_BITS
    stride = n * w
    src = memoryview(buf).cast("Q")
    size = len(buf) // n
    half = _spread(1 << width - 1, len(src) // stride, width)
    col = bytearray(size)
    dst = memoryview(col).cast("Q")
    cols = []
    for k in range(n):
        for t in range(w):
            dst[t::w] = src[k * w + t :: stride]
        cols.append(int.from_bytes(col, "little") - half)
    out = []
    step = size // 8
    for letter in columns:
        ys = b"".join([(sum(map(mul, cols, a)) + half).to_bytes(size, "little") for a in letter])
        ys = memoryview(ys).cast("Q")
        prod = bytearray(len(buf))
        dst = memoryview(prod).cast("Q")
        for j in range(n):
            for t in range(w):
                dst[j * w + t :: stride] = ys[j * step + t : (j + 1) * step : w]
        out.append(bytes(prod))
    return out


def _width(window, width: int) -> int:
    """Least width + whole words whose slots hold f*v for every (buf, own, f) of window, v in buf.

    buf is a sphere's slot bytes, own their width, and f > 0 bounds how
    much its entries may grow.  With g = f.bit_length(), every v fitting
    in width' - g bits has |f*v| < 2^(width'-1).  Every v fits in own <=
    width bits, so width + ceil(max g / WORD_BITS) words always does.
    """
    bits = [(buf, own, f.bit_length()) for buf, own, f in window]
    lo, hi = 0, -(-max(g for _, _, g in bits) // WORD_BITS)
    while lo < hi:
        mid = (lo + hi) // 2
        if all(_fits(buf, own, width + mid * WORD_BITS - g) for buf, own, g in bits):
            hi = mid
        else:
            lo = mid + 1
    return width + lo * WORD_BITS


def _rescaled(sphere, width: int, factor: int) -> bytes:
    """Slot bytes at width bits of factor times each element of sphere = (slot bytes, own width)."""
    buf, own = sphere
    return _pack(_unpack(buf, own, width) * factor, len(buf) * 8 // own, width)


def _split(buf: bytes, size: int) -> list[bytes]:
    return [buf[i : i + size] for i in range(0, len(buf), size)]


def _spheres(letters, radius, budget):
    """Shortlex spheres S(1), S(2), ... of the ball over letters = _alphabet(gens).

    Yields (d, width, sphere) per sphere: sphere is a list of (parent,
    letter, key), parent indexing the previous sphere (S(0) is the
    identity) and letter indexing letters, and key is the element M as the
    slot bytes of d*M (see _pack and _as_matrix).  d = D^k for sphere k,
    D the lcm of the letters' denominators, so d*M is an integer matrix;
    each letter L is the integer matrix A = D*L, and X*A is the key's
    matrix in sphere k + 1 for X in sphere k.  An integer matrix at a fixed
    scale is one group element, so two keys of a sphere are equal exactly
    when the elements are.

    A letter moves S(k) only into S(k-1), S(k) and S(k+1), so the dedup set
    holds those three spheres.  Before S(k+1) is built, the width is chosen
    so that every entry of X*A fits, as do S(k) and S(k-1) rescaled to
    D^(k+1), with D and D^2; when the scale or the width changed, their keys
    are re-encoded so.  The width only grows, by whole 64-bit words.

    An element is never multiplied by the inverse of its last letter: that
    product is its parent, which is still in the dedup set.  Stops after
    radius spheres or an empty one; raises BudgetExceeded at the first new
    element past budget elements, the identity included.
    """
    if not letters:
        raise ValueError("empty generator list")
    n = len(letters[0][1][1])
    scale = math.lcm(*(d for _, (d, _), _ in letters))
    # each letter's columns, as integers at the common scale
    columns = [
        [tuple(x * (scale // d) for x in col) for col in zip(*rows)] for _, (d, rows), _ in letters
    ]
    # an entry of X*A is at most max|X| times A's largest absolute column
    # sum; S(k) is also rescaled by D for the dedup set, S(k-1) by D^2
    grow = max(scale, *(sum(map(abs, col)) for letter in columns for col in letter))
    follow = [[j for j in range(len(letters)) if j != inv] for _, _, inv in letters]
    width = WORD_BITS
    ident = _pack(sum(1 << width * (n + 1) * i for i in range(n)), n * n, width)
    # slot bytes and width of S(k-1) and S(k), each at its own scale D^(k-1), D^k
    prev, cur = None, (ident, width)
    prev_keys, sphere = [], [(None, None, ident)]
    seen = {ident}
    total, d = 1, 1
    for _ in range(radius):
        window = [(*cur, grow)]
        if prev and scale != 1:
            window.append((*prev, scale * scale))
        new_width = _width(window, width)
        size = n * n * new_width // 8
        if new_width != width or scale != 1:
            width = new_width
            prev_keys = _split(_rescaled(prev, width, scale * scale), size) if prev else []
            cur_keys = _split(_rescaled(cur, width, scale), size)
            seen = set(prev_keys)
            seen.update(cur_keys)
        else:
            cur_keys = [key for _, _, key in sphere]
        view = memoryview(cur[0] if cur[1] == width else _rescaled(cur, width, 1))
        d *= scale
        new = []
        # a chunk of parents at a time keeps the products' memory small
        step = max(1, CHUNK_BYTES // size)
        for start in range(0, len(sphere), step):
            chunk = view[start * size : (start + step) * size]
            products = list(enumerate(_products(chunk, width, columns)))
            after = [[products[j] for j in js] for js in follow]
            for parent, (_, last, _) in enumerate(sphere[start : start + step], start):
                lo = (parent - start) * size
                hi = lo + size
                for letter, prod in products if last is None else after[last]:
                    key = prod[lo:hi]
                    if key in seen:
                        continue
                    if total >= budget:
                        raise BudgetExceeded(f"ball exceeded budget {budget}")
                    total += 1
                    seen.add(key)
                    new.append((parent, letter, key))
        seen.difference_update(prev_keys)
        yield d, width, new
        if not new:
            return
        prev, cur = cur, (b"".join([key for _, _, key in new]), width)
        prev_keys, sphere = cur_keys, new


def _ball_words(letters, radius, budget):
    """The ball without the identity as shortlex (word, matrix), words built per sphere reached."""
    words = [Word()]
    for d, width, sphere in _spheres(letters, radius, budget):
        words = [words[parent] * letters[letter][0] for parent, letter, _ in sphere]
        yield from zip(words, (_as_matrix(key, d, width) for _, _, key in sphere))


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
        for _, _, sphere in _spheres(letters, radius, budget):
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


# The gates work on the integer matrices N_A = d_A A and N_B = d_B B: a word
# in N_A and N_B is a positive multiple of the same word in A and B, so
# every span, rank and dimension below is the rational one.


def _span(rows) -> tuple[list[list[int]], list[int]]:
    """The span over Q of integer rows: the primitive rows of its reduced echelon form, and their pivots.

    Each reduced row is divided by the gcd of its entries, so the basis
    depends, up to sign, on the span alone, and its entries do not grow
    from one call on the basis to the next.
    """
    m = [list(row) for row in rows]
    pivots, _, _ = bareiss(m)
    basis = []
    for row in m[: len(pivots)]:
        g = math.gcd(*row)
        basis.append([x // g for x in row] if g != 1 else row)
    return basis, pivots


def _power(pows: list, k: int):
    """X^k for pows = [X, X^2, ...], extending the list as needed."""
    while len(pows) < k:
        pows.append(int_matmul(pows[-1], pows[0]))
    return pows[k - 1]


def shemesh_no_common_eigenvector(a: SquareMatrix, b: SquareMatrix) -> bool:
    """True when A and B share no eigenvector over the algebraic closure.

    The intersection of the kernels of all commutators [A^k, B^l]
    (1 <= k, l < n) is nonzero exactly when a common eigenvector exists
    (Shemesh, Linear Algebra Appl. 62 (1984)); ranks over Q equal ranks
    over any extension, so the rational kernel computation decides the
    closure question.  The commutators are stacked one at a time, and the
    scan stops once their rows reach rank n.
    """
    n = a.n
    a_pows, b_pows = [a.num], [b.num]
    basis: list[list[int]] = []
    for k in range(1, n):
        for l in range(1, n):
            ak, bl = _power(a_pows, k), _power(b_pows, l)
            comm = zip(int_matmul(ak, bl), int_matmul(bl, ak))
            basis, pivots = _span(basis + [[x - y for x, y in zip(r, s)] for r, s in comm])
            if len(pivots) == n:
                return True
    return False


def generated_algebra_dimension(a: SquareMatrix, b: SquareMatrix) -> int:
    """Dimension of the unital algebra generated by A and B inside n x n.

    Row-reduces span{I} together with A and B times the basis until the
    rank stops growing or reaches n^2; the span is then closed under left
    multiplication by A and B, so it holds every word.  Only the rows with
    a new pivot column need multiplying: with the old span they span the
    new one.  Matrices are flattened row-major into rows of n^2 integers.
    """
    n = a.n
    basis = [[int(i == j) for i in range(n) for j in range(n)]]
    pivots = [0]
    fresh = basis
    while fresh and len(basis) < n * n:
        mats = [[r[i : i + n] for i in range(0, n * n, n)] for r in fresh]
        products = [[x for row in int_matmul(g, m) for x in row] for g in (a.num, b.num) for m in mats]
        old = set(pivots)
        basis, pivots = _span(basis + products)
        fresh = [r for r, col in zip(basis, pivots) if col not in old]
    return len(basis)


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
    for word_a, mat_a in _ball_words(letters, depth, budget):
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
    for word_b, mat_b in _ball_words(letters, depth, budget):
        if mat_b == mat_a:
            continue
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
