"""Cayley ball enumeration, growth estimation, and regular pair search.

Balls are built lazily, sphere by sphere in shortlex order, so the pair
search stops at its first pair; exact dedup keeps three spheres.  The
letters are integer matrices A = D*L over one common scale D, the lcm of
their denominators, so sphere k holds the integer matrices X = D^k*M: one
per group element, compared without a gcd.  A sphere travels as big ints
with one fixed-width slot per entry, 32 bits wide until an entry needs
more and whole 64-bit words after; an element's key is its slot bytes,
exact because every slot is wide enough, so two words are identified
exactly when they are equal in the group.  Each letter multiplies sphere k
on the left with a few scalar-by-packed products, so the candidates come
in shortlex order; one set lookup per candidate, run in C, keeps the new
ones, and the block a letter sends back to sphere k - 1 is skipped.  The
pair search decodes each element straight from its slots to an integer
matrix, and its Shemesh and Burnside gates eliminate integer rows; where
the generators' algebra already rules out every A or every B (a
unipotent or a reducible group), it drains the spheres without decoding
them.  Growth estimates from counts are certified dyadic lower bounds;
the growth verdict and the degree fit are labeled float heuristics that
never feed a certificate.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import mul, not_

from .errors import BudgetExceeded, Inconclusive, InsufficientData, PairNotFound
from .exactnum import PlaceSet, SquareMatrix, Word, bareiss, int_matmul, s_support
# charpoly_is_squarefree is the pair search's regularity gate, which
# SpectralMemo.squarefree runs once per charpoly
from .spectra import SpectralMemo, char_poly, charpoly_is_squarefree, discriminant, l1_gap_report  # noqa: F401


def _alphabet(gens: list[SquareMatrix]) -> tuple[list[tuple[Word, tuple[int, tuple]]], list[int]]:
    """Generators then inverses, as (letter word, (d, N)), and each letter's inverse's index.

    Exact duplicates are dropped, so an involution is its own inverse.
    """
    pairs = [(g.den, g.num) for g in gens], [(g.den, g.num) for g in map(SquareMatrix.inverse, gens)]
    index, letters = {}, []
    for sign, keys in zip((1, -1), pairs):
        for i, key in enumerate(keys):
            if key not in index:
                index[key] = len(letters)
                letters.append((Word(((i, sign),)), key))
    # letter i^sign inverts to i^-sign, or to the letter kept for its matrix
    return letters, [index[pairs[sign == 1][i]] for word, _ in letters for i, sign in word.letters]


# slots start 32 bits wide and widen to whole 8-byte words, so they move
# between layouts as 'I' items at the first width and as 'Q' items after it
FIRST_WIDTH = 32
WORD_BITS = 64
# bytes of one letter's products formed at once, for a chunk of parents
CHUNK_BYTES = 1 << 16


def _items(width: int) -> tuple[str, int]:
    """The memoryview format and bit size of the items that slots of width bits are copied as."""
    return ("I", FIRST_WIDTH) if width == FIRST_WIDTH else ("Q", WORD_BITS)


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
        fmt, item = _items(width)
        w, nw = width // item, new_width // item
        wide = bytearray(len(buf) // w * nw)
        src, dst = memoryview(buf).cast(fmt), memoryview(wide).cast(fmt)
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
    """The matrix M whose key at scale d is key: (d*M)^T in n^2 row-major slots of width bits."""
    step = width // 8
    half = 1 << width - 1
    vals = [int.from_bytes(key[i : i + step], "little") - half for i in range(0, len(key), step)]
    n = math.isqrt(len(vals))
    return SquareMatrix(d, [vals[i::n] for i in range(n)])


def _columns(buf, width: int, n: int) -> tuple[list[int], int, int]:
    """(cols, half, size) for the tall matrix S that stacks the n x n elements in the slot bytes buf.

    cols[k] is column k of S in one int of size bytes, a slot per row, and
    half has 2^(width-1) in each slot; slots move as 'I' items at the first
    width and as 'Q' items at whole words.
    """
    fmt, item = _items(width)
    w = width // item
    stride = n * w
    src = memoryview(buf).cast(fmt)
    size = len(buf) // n
    half = _spread(1 << width - 1, len(src) // stride, width)
    col = bytearray(size)
    dst = memoryview(col).cast(fmt)
    cols = []
    for k in range(n):
        for t in range(w):
            dst[t::w] = src[k * w + t :: stride]
        cols.append(int.from_bytes(col, "little") - half)
    return cols, half, size


def _products(columns, width: int, letter) -> bytearray:
    """Slot bytes of S*A, for columns = _columns(S) and letter[j] the column j of A.

    S*A stacks the products X*A.  Its column j is sum_k S_k * a_kj, n
    scalar-by-packed products, and its slots are interleaved back into rows.
    """
    cols, half, size = columns
    n = len(cols)
    fmt, item = _items(width)
    w = width // item
    stride = n * w
    step = size * 8 // item
    ys = b"".join([(sum(map(mul, cols, a)) + half).to_bytes(size, "little") for a in letter])
    ys = memoryview(ys).cast(fmt)
    prod = bytearray(n * size)
    dst = memoryview(prod).cast(fmt)
    for j in range(n):
        for t in range(w):
            dst[j * w + t :: stride] = ys[j * step + t : (j + 1) * step : w]
    return prod


def _width(window, width: int) -> int:
    """Least slot width holding f*v for every (buf, own, f) of window and v in buf.

    The widths tried are width itself, then whole words above it.  buf is
    a sphere's slot bytes, own their width, and f > 0 bounds how much its
    entries may grow.  With g = f.bit_length(), every v fitting in
    width' - g bits has |f*v| < 2^(width'-1).  Every v fits in own <= width
    bits, so the first whole-word width at or past width + max g does.
    """
    bits = [(buf, own, f.bit_length()) for buf, own, f in window]
    words = width // WORD_BITS

    def wide(k):
        return width if k == 0 else (words + k) * WORD_BITS

    lo, hi = 0, -(-(width + max(g for _, _, g in bits)) // WORD_BITS) - words
    while lo < hi:
        mid = (lo + hi) // 2
        if all(_fits(buf, own, wide(mid) - g) for buf, own, g in bits):
            hi = mid
        else:
            lo = mid + 1
    return wide(lo)


def _rescaled(sphere, width: int, factor: int) -> bytes:
    """Slot bytes at width bits of factor times each element of sphere = (slot bytes, own width)."""
    buf, own = sphere
    if factor == 1 and own == width:
        return buf
    return _pack(_unpack(buf, own, width) * factor, len(buf) * 8 // own, width)


def _split(buf, size: int) -> list[bytes]:
    """The keys of the slot bytes buf, size bytes each, cut CHUNK_BYTES at a time (struct keeps formats)."""
    step = max(1, CHUNK_BYTES // size) * size
    view = memoryview(buf)
    parts = (view[i : i + step] for i in range(0, len(buf), step))
    return list(chain.from_iterable(struct.unpack(f"{size}s" * (len(p) // size), p) for p in parts))


def _spheres(alphabet, radius, budget):
    """Shortlex spheres S(1), S(2), ... of the ball over alphabet = _alphabet(gens).

    Yields (d, width, tags, keys) per sphere S(k+1): keys are its elements
    M in shortlex order, each the slot bytes of (d*M)^T (see _pack and
    _as_matrix), and tag = letter * len(S(k)) + parent for M = letter *
    parent, parent indexing S(k) (S(0) is the identity).  d = D^(k+1), D
    the lcm of the letters' denominators, and each letter L is the integer
    matrix A = D*L, so d*M = A*X for X in S(k): one matrix per group
    element at a fixed scale, so equal keys are equal elements.

    Each letter in turn multiplies S(k) on the left, in S(k)'s order, as
    the right product X^T * A^T of _products.  The candidates come in
    shortlex order, first letter most significant, so the first to reach M
    spells its least word: the least L with L^-1*M in S(k), then the least
    word of L^-1*M.  A letter moves S(k) only to S(k-1), S(k) and S(k+1);
    one set holds those keys, and since a letter's left product is
    injective, its candidates repeat no key: each is new exactly when the
    set lacks it.  The elements of S(k) whose words start with L^-1, one
    block by S(k)'s per-letter counts, land in S(k-1) and are skipped.

    The width, 32 bits and then whole 64-bit words, holds every entry of
    S(k+1) and of S(k) and S(k-1) rescaled by D and D^2; it only grows, and
    the window's keys are re-encoded when the scale or the width changed.
    _width runs only when a carried bound on the entries' bits passes it.
    Stops after radius spheres or an empty one; raises BudgetExceeded at
    the first new element past budget elements, the identity included.
    """
    letters, inverse = alphabet
    if not letters:
        raise ValueError("empty generator list")
    n = len(letters[0][1][1])
    scale = math.lcm(*(d for _, (d, _) in letters))
    # each letter's rows, as integers at the common scale
    rows = [[tuple(x * (scale // d) for x in row) for row in num] for _, (d, num) in letters]
    # an element of S(k+1) is also X*A for an X in S(k), so its entries are at most max|X|
    # times A's largest absolute column sum; the window rescales S(k) by D, S(k-1) by D^2
    grow = max(scale, *(sum(map(abs, col)) for letter in rows for col in zip(*letter)))
    lift = grow.bit_length()
    width = FIRST_WIDTH
    ident = _pack(sum(1 << width * (n + 1) * i for i in range(n)), n * n, width)
    # slot bytes and width of S(k-1) and S(k), each at its own scale D^(k-1), D^k
    prev, cur = None, (ident, width)
    prev_keys, cur_keys, window = [], [ident], {ident}
    # every entry of S(k) fits in bits = 2 + k * lift signed bits; D^2 has at
    # most 2 * lift bits, so bits + lift also bounds S(k-1) rescaled by D^2
    bits = 2
    # the words of S(k) starting with letter a: S(k)[starts[a] : starts[a + 1]]
    starts = [0] * (len(letters) + 1)
    total, d = 1, 1
    for _ in range(radius):
        older = [(*prev, scale * scale)] if prev and scale != 1 else []
        new_width = _width([(*cur, grow), *older], width) if bits + lift > width else width
        size = n * n * new_width // 8
        if new_width != width or scale != 1:
            cur, width = (_rescaled(cur, new_width, 1), new_width), new_width
            prev_keys = _split(_rescaled(prev, width, scale * scale), size) if prev else []
            cur_keys = _split(_rescaled(cur, width, scale), size)
            window = {*prev_keys, *cur_keys}
        d *= scale
        parents = len(cur_keys)
        # a chunk of parents at a time keeps each letter's products small
        step = max(1, CHUNK_BYTES // size)
        view = memoryview(cur[0])
        chunks = [(i, _columns(view[i * size : (i + step) * size], width, n)) for i in range(0, parents, step)]
        tags, keys, ends = [], [], [0]
        for a, letter in enumerate(rows):
            lo, hi = starts[inverse[a]], starts[inverse[a] + 1]
            for start, columns in chunks:
                stop = min(start + step, parents)
                # the chunk's parents before and after the inverse block
                parts = [(p, q) for p, q in ((start, min(stop, lo)), (max(start, hi), stop)) if p < q]
                prod = memoryview(_products(columns, width, letter)) if parts else None
                for p, q in parts:
                    cut = prod[(p - start) * size : (q - start) * size]
                    candidates = struct.unpack(f"{size}s" * (q - p), cut)
                    old = list(map(window.__contains__, candidates))
                    found, tag = candidates, range(a * parents + p, a * parents + q)
                    if any(old):
                        new = list(map(not_, old))
                        found, tag = list(compress(found, new)), compress(tag, new)
                    total += len(found)
                    if total > budget:
                        raise BudgetExceeded(f"ball exceeded budget {budget}")
                    window.update(found)
                    keys += found
                    tags += tag
            ends.append(len(keys))
        del chunks  # one sphere's columns at a time
        window.difference_update(prev_keys)  # S(k-1) leaves the window
        yield d, width, tags, keys
        if not keys:
            return
        prev, cur = cur, (b"".join(keys), width)
        prev_keys, cur_keys = cur_keys, keys
        starts = ends
        bits += lift


def _ball_words(letters, spheres):
    """The ball without the identity as shortlex (word, matrix), decoded from spheres = _spheres(...).

    letters is the alphabet's letter list; words are built per sphere
    reached, and each matrix when it is read.
    """
    words = [Word()]
    for d, width, tags, keys in spheres:
        steps = map(divmod, tags, repeat(len(words)))
        words = [letters[letter][0] * words[parent] for letter, parent in steps]
        yield from zip(words, (_as_matrix(key, d, width) for key in keys))


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
    (n, x) pairs with x a certified dyadic lower bound on |B_n|^(1/n), the
    n-th root of the ball size, not a bound on the growth rate omega.
    poly_fit_degree and verdict are float-fit heuristics for human triage,
    never certificates.
    """

    ball_sizes: tuple[tuple[int, int], ...]
    alphabet_size: int
    exhausted: bool
    omega_estimates: tuple[tuple[int, Fraction], ...]
    poly_fit_degree: int | None
    verdict: str

    def csv(self) -> str:
        return "n,count\n" + "".join(f"{n},{c}\n" for n, c in self.ball_sizes)


def _poly_fit_degree(sizes: list[tuple[int, int]]) -> int | None:
    """Rounded log-log slope over the tail half of the data."""
    pts = [(n, c) for n, c in sizes if n >= 1 and c >= 1]
    if len(pts) < 4:
        return None
    tail = pts[len(pts) // 2 :]
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
    logc = [math.log(c) for _, c in pts]
    exponential = _sse([float(n) for n, _ in pts], logc) < _sse([math.log(n) for n, _ in pts], logc)
    return "exponential-evidence" if exponential else "polynomial-evidence"


def _build_report(counts: list[int], exhausted: bool, alphabet_size: int) -> GrowthReport:
    sizes = tuple(enumerate(counts))
    estimates = tuple((n, nth_root_floor(c, n)) for n, c in sizes if n >= 1)
    return GrowthReport(
        ball_sizes=sizes,
        alphabet_size=alphabet_size,
        exhausted=exhausted,
        omega_estimates=estimates,
        poly_fit_degree=0 if exhausted else _poly_fit_degree(list(sizes)),
        verdict=_verdict(list(sizes), exhausted),
    )


def enumerate_ball(gens: list[SquareMatrix], radius: int, budget: int = 10**6) -> GrowthReport:
    """Exact |B_S(n)| for n = 0..radius over the symmetrized alphabet.

    BudgetExceeded carries the completed-radius counts in .partial as a
    GrowthReport so callers can still write a table.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    alphabet = _alphabet(gens)
    fan = len(alphabet[0])
    counts = [1]
    try:
        for _, _, _, keys in _spheres(alphabet, radius, budget):
            counts.append(counts[-1] + len(keys))
    except BudgetExceeded as exc:
        exc.partial = _build_report(counts, False, fan)
        raise
    return _build_report(counts, len(counts) > 1 and counts[-1] == counts[-2], fan)


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
    return _no_common_eigenvector(a.num, b.num)


def _no_common_eigenvector(a, b) -> bool:
    """shemesh_no_common_eigenvector on integer matrices a and b given as rows: no SquareMatrix is built."""
    n = len(a)
    a_pows, b_pows = [a], [b]
    basis: list[list[int]] = []
    for k in range(1, n):
        for l in range(1, n):
            ak, bl = _power(a_pows, k), _power(b_pows, l)
            comm = zip(int_matmul(ak, bl), int_matmul(bl, ak))
            basis, pivots = _span(basis + [[x - y for x, y in zip(r, s)] for r, s in comm])
            if len(pivots) == n:
                return True
    return False


def generated_algebra_dimension(*gens: SquareMatrix) -> int:
    """Dimension of the unital algebra generated by the matrices gens inside n x n.

    Row-reduces span{I} together with each generator times the basis until
    the rank stops growing or reaches n^2; the span is then closed under
    left multiplication by every generator, so it holds every word.  Only
    the rows with a new pivot column need multiplying: with the old span
    they span the new one.  Matrices are flattened row-major into rows of
    n^2 integers.
    """
    n = gens[0].n
    basis = [[int(i == j) for i in range(n) for j in range(n)]]
    pivots = [0]
    fresh = basis
    while fresh and len(basis) < n * n:
        mats = [[r[i : i + n] for i in range(0, n * n, n)] for r in fresh]
        products = [[x for row in int_matmul(g.num, m) for x in row] for g in gens for m in mats]
        old = set(pivots)
        basis, pivots = _span(basis + products)
        fresh = [r for r, col in zip(basis, pivots) if col not in old]
    return len(basis)


def generates_full_algebra(a: SquareMatrix, b: SquareMatrix) -> bool:
    """Whether A and B generate the full matrix algebra, all of n x n: the pair search's gate.

    By Burnside's theorem they do exactly when they leave no proper
    nonzero subspace over the algebraic closure invariant, and the
    dimension of the algebra is the same over Q and over its closure.  A
    common eigenvector spans an invariant line, so Shemesh runs first; at n
    = 2 every proper subspace is a line, so Shemesh decides.  At n = 3 the
    rest are planes, and W is invariant under A and B exactly when its
    annihilator, a line, is invariant under A^T and B^T, so Shemesh on the
    transposes decides.  From n = 4 on, generated_algebra_dimension closes
    the algebra.
    """
    n = a.n
    if not shemesh_no_common_eigenvector(a, b):
        return False
    if n == 3:
        return _no_common_eigenvector(list(zip(*a.num)), list(zip(*b.num)))
    return n <= 2 or generated_algebra_dimension(a, b) == n * n


def generates_unipotent_group(*gens: SquareMatrix) -> bool:
    """Whether every element of the group the matrices gens generate is unipotent.

    A unipotent matrix has trace n, so a generator of any other trace
    answers at once, before any elimination.  Otherwise, with row vectors,
    R_0 = Q^n and R_(k+1) = span{r (g - I) : r in R_k, g in gens} (on the
    integer rows of N_g - d_g I = d_g (g - I)).  By induction each R_k
    contains the next and every generator maps it into itself, acting as
    the identity on R_k / R_(k+1); so when R reaches 0, every group element
    is unitriangular in a basis adapted to the flag, and its charpoly is
    (x - 1)^n.  Conversely a unipotent group is unitriangular in some basis
    (Kolchin), where every product of n factors g - I vanishes, so R
    reaches 0; when the rank stops falling first, the group is not
    unipotent.  At most n eliminations of n columns.
    """
    n = gens[0].n
    if any(sum(g.num[i][i] for i in range(n)) != n * g.den for g in gens):
        return False
    steps = [[[x - g.den * (i == j) for j, x in enumerate(row)] for i, row in enumerate(g.num)] for g in gens]
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    while basis:
        below, _ = _span([row for step in steps for row in int_matmul(basis, step)])
        if len(below) == len(basis):
            return False
        basis = below
    return True


@dataclass(frozen=True)
class RegularPair:
    """First BFS pair passing regularity and genericity gates.

    word_a/word_b are shortlex-first words over the symmetrized alphabet;
    l1_grid is the per-(place, wedge) gap verdict for A.  A and B generate
    the full matrix algebra (generates_full_algebra), so the pair passes
    Shemesh's test and its Burnside dimension is n^2.
    """

    word_a: Word
    word_b: Word
    matrix_a: SquareMatrix
    matrix_b: SquareMatrix
    disc: Fraction
    l1_grid: dict


def find_regular_pair(
    gens: list[SquareMatrix],
    depth: int = 4,
    s: PlaceSet | None = None,
    budget: int = 10**6,
    memo: SpectralMemo | None = None,
) -> RegularPair:
    """Scan the ball in shortlex order for a certified (A, B) seed pair.

    A: first element with squarefree characteristic polynomial whose (L1)
    gap grid has at least one certified-true entry.  Every element's
    adjugate polynomial, each distinct charpoly's squarefree test and each
    root structure the grids read go into memo, where the later stages of
    the same run find them.  B: first element such that A and B generate
    the full matrix algebra (generates_full_algebra: Shemesh, then
    Burnside).

    Two refusals are settled by algebra instead of by the walk.  When the
    generators generate a unipotent group, every element has charpoly
    (x - 1)^n and no A exists.  Once a candidate B fails, the algebra of
    all the generators is measured once: it holds their inverses
    (Cayley-Hamilton), so every alg(A, B) lies inside it, and when it is
    smaller than n x n no B exists.  Either way the rest of the ball is
    drained without decoding an element, so the refusal and its budget
    behave as a full walk's: BudgetExceeded comes at the same element.
    """
    if s is None:
        s = s_support(gens)
    memo = memo or SpectralMemo()
    n = gens[0].n
    alphabet = _alphabet(gens)
    spheres = _spheres(alphabet, depth, budget)
    if generates_unipotent_group(*gens):
        deque(spheres, maxlen=0)
        raise PairNotFound(f"no regular (L1)-capable element within radius {depth}")
    walk = _ball_words(alphabet[0], spheres)
    scanned = []
    for word_a, mat_a in walk:
        scanned.append((word_a, mat_a))
        f = char_poly(mat_a, memo)
        if not memo.squarefree(f):
            continue
        try:
            grid = l1_gap_report(mat_a, s, f, memo)
        except Inconclusive:
            continue
        if any(grid.values()):
            break
    else:
        raise PairNotFound(f"no regular (L1)-capable element within radius {depth}")
    # B is the first partner in shortlex order: its scan rereads the words up
    # to A, then walks on through the same ball
    checked = False
    for word_b, mat_b in chain(scanned, walk):
        if mat_b == mat_a:
            continue
        if not generates_full_algebra(mat_a, mat_b):
            if not checked and generated_algebra_dimension(*gens) < n * n:
                deque(spheres, maxlen=0)
                break
            checked = True
            continue
        return RegularPair(
            word_a=word_a,
            word_b=word_b,
            matrix_a=mat_a,
            matrix_b=mat_b,
            # A passed the squarefree gate, so its charpoly is its squarefree part
            disc=discriminant(f),
            l1_grid=grid,
        )
    raise PairNotFound(f"no generic partner for A within radius {depth}")
