"""Exact polynomial arithmetic over Q and certified root enclosures.

Polynomials are tuples of Fractions (ascending, trimmed) at the module
boundary and integer lists inside.  One signed primitive remainder sequence
over Z (Collins 1967; Brown and Traub 1971) gives the Sturm chain and gcds,
so squarefree parts and Yun factors by exact integer division; one integer
Horner gives every sign.  Real roots are isolated by bisection on integer
mantissas over 2^k; a refined root's cell and a rational root on the grid
j/a are both found by safeguarded Newton steps on the grid index.
Non-real roots get dyadic boxes, after MPSolve (Bini and Robol, J. Comput.
Appl. Math. 272 (2014)): Aberth-Ehrlich seeds (Aberth, Math. Comp. 27
(1973)) started on the Newton polygon's circles and polished by Newton,
all in complex integers over 2^k, give Weierstrass inclusion disks of
radius n|W_i| whose k-disk components hold exactly k roots; a component's
hull rounds outward to a box, and the precision doubles until the boxes
separate.  No floating point is used, and every containment
decision below is an exact comparison.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, islice, zip_longest
from math import gcd, isqrt, lcm

from .errors import PrecisionExhausted
from .intervals import ComplexInterval, RationalInterval, dyadic_form

Poly = tuple[Fraction, ...]


def poly_from(coeffs) -> Poly:
    """Ascending coefficients, trimmed of leading zeros."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_degree(f: Poly) -> int:
    return len(f) - 1


def poly_deriv(f: Poly) -> Poly:
    return poly_from(i * c for i, c in enumerate(f) if i > 0)


def poly_monic(f: Poly) -> Poly:
    return tuple(c / f[-1] for c in f)


def cauchy_bound(f: Poly) -> Fraction:
    """Strict bound: every root z has |z| < the returned value."""
    if poly_degree(f) < 1:
        raise ValueError("need degree >= 1")
    lead = abs(f[-1])
    return 1 + max(abs(c) / lead for c in f[:-1])


# ---------------------------------------------------------------------------
# the integer kernel: lists of ints, ascending degree, trimmed


def _integer_coeffs(f: Poly) -> list[int]:
    """f times the lcm of its denominators: same roots, same signs."""
    den = lcm(*(c.denominator for c in f))
    return [c.numerator * (den // c.denominator) for c in f]


def _trim(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f.pop()
    return f


def _primitive(f: list[int]) -> list[int]:
    """f over the gcd of its coefficients: same roots, same signs."""
    g = gcd(*f)
    return [c // g for c in f] if g > 1 else f


def _deriv(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _prem(f: list[int], g: list[int]) -> list[int]:
    """The pseudo-remainder lc(g)^(deg f - deg g + 1) f mod g, in Z[x]."""
    r, lead, dg = list(f), g[-1], len(g) - 1
    for i in range(len(f) - len(g), -1, -1):
        c = r.pop()
        r = [x * lead for x in r]
        if c:
            for j in range(dg):
                r[i + j] -= c * g[j]
    return _trim(r)


def _remainder_sequence(f: list[int], g: list[int]) -> list[list[int]]:
    """f, g, then the primitive part of each next -prem, signed as -rem over Q.

    -prem(a, b) = -lc(b)^(deg a - deg b + 1) rem(a, b), so the sign of that
    power is divided out: every member is a positive multiple of the
    rational remainder sequence's, which keeps every Sturm sign.  It stops
    at a constant or at an exact division, so for nonzero f its last
    nonzero member is gcd(f, g) up to a rational factor.
    """
    seq = [f, g]
    while len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        r = _prem(a, b)
        if not r:
            break
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-c for c in r]
        seq.append(_primitive(r))
    return seq


def _gcd(f: list[int], g: list[int]) -> list[int]:
    """gcd(f, g) for nonzero f, primitive: it divides f and g in Z[x] (Gauss)."""
    return _primitive([r for r in _remainder_sequence(f, g) if r][-1])


def _divide(f: list[int], g: list[int]) -> list[int]:
    """f / g for an exact division in Z[x]."""
    r, lead, dg = list(f), g[-1], len(g) - 1
    q = [0] * (len(f) - dg)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + dg] // lead
        for j, y in enumerate(g):
            r[i + j] -= c * y
    assert not any(r), "division is not exact"
    return q


def squarefree_part(f: Poly) -> Poly:
    """f / gcd(f, f'), monic; same distinct roots, all simple."""
    if poly_degree(f) <= 0:
        return poly_monic(f)
    ints = _integer_coeffs(f)
    return poly_monic(poly_from(_divide(ints, _gcd(ints, _deriv(ints)))))


def yun_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Squarefree factorization f = lc(f) prod a_i^i, a_i monic (Yun's algorithm).

    Over Z: every gcd is primitive, so each quotient is exact in Z[x], and
    any scaling of a gcd divides c and w alike, which Yun's recurrence
    w <- w/a - (c/a)' allows.
    """
    if poly_degree(f) <= 0:
        return []
    c = _integer_coeffs(f)
    d = _deriv(c)
    g = _gcd(c, d)
    c, w = _divide(c, g), _divide(d, g)
    out = []
    for i in count(1):
        if len(c) == 1:
            return out
        w = _trim([x - y for x, y in zip_longest(w, _deriv(c), fillvalue=0)])
        a = _gcd(c, w)
        if len(a) > 1:
            out.append((poly_monic(poly_from(a)), i))
        c, w = _divide(c, a), _divide(w, a)


# ---------------------------------------------------------------------------
# real roots, on integer points over a common denominator


def _horner(f: list[int], p: int, q: int) -> int:
    """q^deg(f) f(p/q), by homogeneous Horner in integers."""
    acc, q_pow = 0, 1
    for c in reversed(f):
        acc = acc * p + c * q_pow
        q_pow *= q
    return acc


def _sign_at(f: list[int], p: int, q: int) -> int:
    """Sign of f(p/q) for q > 0."""
    v = _horner(f, p, q)
    return (v > 0) - (v < 0)


def _variations(chain: list[list[int]], p: int, q: int) -> int:
    """Sign changes of the chain at p/q, q > 0, zeros skipped."""
    signs = [s for s in (_sign_at(g, p, q) for g in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _nonroot_point(f: list[int], a: int, b: int, k: int) -> tuple[int, int, int]:
    """(m, j, sign f(m/2^j)) with m/2^j strictly inside (a/2^k, b/2^k), f(m/2^j) != 0.

    The candidates are a + (b - a) t for t = 1/2, 1/4, 3/4, 1/8, ..., so
    the midpoint comes first; f has at most deg f roots, so deg f + 1
    candidates suffice.
    """
    steps = ((s, t) for s in count(1) for t in range(1, 1 << s, 2))
    for s, t in islice(steps, len(f)):
        m = (a << s) + (b - a) * t
        sign = _sign_at(f, m, 1 << (k + s))
        if sign:
            return m, k + s, sign
    raise AssertionError("polynomial vanished at more points than its degree")


def isolate_real_roots(f: Poly) -> list[RationalInterval]:
    """Disjoint dyadic intervals (lo, hi], one simple real root each, for squarefree f.

    The search runs on integer mantissas over 2^k from (-m, m], m the
    integer ceiling of cauchy_bound(f), and each split point comes from
    _nonroot_point, so f(lo) is never 0, as refine_real_root requires.  The
    left half is split first, so the intervals come out sorted.
    """
    if poly_degree(f) < 1:
        return []
    ints = _integer_coeffs(f)
    chain = _remainder_sequence(ints, _deriv(ints))
    m = 1 - max(abs(c) for c in ints[:-1]) // -abs(ints[-1])
    out, todo = [], [(-m, m, 0, _variations(chain, -m, 1), _variations(chain, m, 1))]
    while todo:
        a, b, k, v_a, v_b = todo.pop()
        if v_a - v_b == 1:
            out.append(RationalInterval(Fraction(a, 1 << k), Fraction(b, 1 << k)))
        elif v_a - v_b > 1:
            mid, j, _ = _nonroot_point(ints, a, b, k)
            v_mid = _variations(chain, mid, 1 << j)
            todo += [(mid, b << (j - k), j, v_mid, v_b), (a << (j - k), mid, j, v_a, v_mid)]
    return out


def refine_real_root(f: Poly, iv: RationalInterval, width: Fraction) -> RationalInterval:
    """The cell below the width target that bisecting an isolating interval ends in.

    Precondition: f is squarefree, (iv.lo, iv.hi] holds exactly one root r
    of f, f(iv.lo) != 0 and both ends are dyadic, as isolate_real_roots
    gives them (a non-dyadic end raises ValueError).  Then a point of
    (lo, hi) where f is not 0 lies above r exactly when f's sign there
    differs from its sign at lo.  Bisection L times splits (lo, hi] into the
    2^L cells of the grid lo + j (hi - lo) / 2^L, and unless one of the
    grid points is r, it ends in the cell that holds r; _grid_search finds
    that cell by safeguarded Newton steps on j, every one decided by an
    exact sign.  Where a grid point is r, bisection meets r as a midpoint
    and steps around it by _nonroot_point; this function does the same,
    then searches the interval that bisection goes on with.
    """
    ends = [dyadic_form(x) for x in (iv.lo, iv.hi)]
    if None in ends:
        raise ValueError(f"isolating interval {iv} has a non-dyadic end")
    k = max(e for _, e in ends)
    a, b = (m << (k - e) for m, e in ends)
    ints = _integer_coeffs(f)
    sign_lo = _sign_at(ints, a, 1 << k)
    if not sign_lo:
        raise ValueError(f"f vanishes at the interval's left end {iv.lo}")
    w_num, w_den = width.numerator, width.denominator
    while True:
        # the bisection depth: the least L with (b - a) / 2^(k + L) <= width
        over, under = (b - a) * w_den, w_num << k
        levels = max(0, over.bit_length() - under.bit_length())
        levels += over > under << levels
        step, q = b - a, 1 << (k + levels)
        j, hit = _grid_search(ints, a << levels, step, q, 1, (1 << levels) - 1, sign_lo)
        x = (a << levels) + j * step
        if not hit:
            return RationalInterval(Fraction(x - step, q), Fraction(x, q))
        # the root x_j is the midpoint of the cell (x_(j - 2^t), x_(j + 2^t)],
        # 2^t the largest power of two dividing j: bisection reaches that
        # cell and steps around its midpoint
        half = (j & -j) * step
        k += levels
        m, j, sign = _nonroot_point(ints, x - half, x + half, k)
        a, b, k = x - half << j - k, x + half << j - k, j
        if sign == sign_lo:
            a = m
        else:
            b = m


def _split_point(lo: int, hi: int) -> int:
    """A point of [lo, hi] that halves it: 0 across zero, a power of two across many binades."""
    if lo <= 0 <= hi:
        return 0
    if hi < 0:
        return -_split_point(-hi, -lo)
    if hi.bit_length() > lo.bit_length() + 1:
        return 1 << (lo.bit_length() + hi.bit_length() >> 1)
    return lo + hi >> 1


def _grid_search(
    f: list[int], base: int, step: int, q: int, lo: int, hi: int, sign_lo: int
) -> tuple[int, bool]:
    """Place a root among the grid points x_j = (base + j step)/q, step > 0, j in [lo, hi].

    Precondition: x_lo, ..., x_hi lie in an interval that holds one simple
    root r of f, with f of sign sign_lo below r.  So x_j lies below r
    exactly when f(x_j) has sign_lo, the undecided points form a bracket,
    and each evaluation shrinks it.  Returns (j, True) where f(x_j) = 0,
    and otherwise (j, False) once the bracket is empty, j the least index
    in [lo, hi] whose point lies above r, or hi + 1 if none does.  The
    next j is the rounded Newton step j - f/(f' step/q) = j - _horner(f) /
    (_horner(f') step); one step past the bracket is clamped to it, and
    otherwise a step out of it, or longer than half the step before last,
    splits it at _split_point instead (safeguarded Newton, as in rtsafe).
    """
    if lo > hi:
        return lo, False
    deriv = _deriv(f)

    def split(lo: int, hi: int) -> int:
        return (_split_point(base + lo * step, base + hi * step) - base) // step

    j, last, span, clamped = split(lo, hi), hi - lo, hi - lo, False
    while True:
        x = base + j * step
        v = _horner(f, x, q)
        if not v:
            return j, True
        if (v > 0) - (v < 0) == sign_lo:
            lo = j + 1
        else:
            hi = j - 1
        if lo > hi:
            return lo, False
        w = _horner(deriv, x, q) * step
        t = j - (2 * v + w) // (2 * w) if w else None
        if t is not None and not lo <= t <= hi and not clamped:
            t, clamped = min(max(t, lo), hi), True
        elif t is None or not lo <= t <= hi or 2 * abs(j - t) > last:
            t, clamped = split(lo, hi), False
        else:
            clamped = False
        last, span, j = span, abs(j - t), t


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of squarefree f, each an exact zero of f.

    Scaled to primitive integer coefficients with leading coefficient +-a,
    f can only have rational roots j/a with j an integer (rational root
    theorem).  On each isolating interval (lo, hi] the grid points j/a run
    over floor(a lo) < j <= floor(a hi), and _grid_search finds the one
    where f vanishes, if any.
    """
    if poly_degree(f) < 1:
        return []
    ints = _primitive(_integer_coeffs(f))
    a = abs(ints[-1])
    roots = []
    for iv in isolate_real_roots(f):
        (lo, k), (hi, e) = dyadic_form(iv.lo), dyadic_form(iv.hi)
        sign_lo = _sign_at(ints, lo, 1 << k)
        j, hit = _grid_search(ints, 0, 1, a, (a * lo >> k) + 1, a * hi >> e, sign_lo)
        if hit:
            roots.append(Fraction(j, a))
    return roots


# ---------------------------------------------------------------------------
# complex enclosures: Aberth seeds and Weierstrass inclusion disks, all on
# complex integer mantissas (x + iy) over a power of two 2^k


def _chorner(f: list[int], x: int, y: int, k: int) -> tuple[int, int]:
    """2^(k deg f) f((x + iy)/2^k), by homogeneous Horner in integers."""
    re = im = s = 0
    for c in reversed(f):
        re, im = re * x - im * y + (c << s), re * y + im * x
        s += k
    return re, im


def _cdiv(a: int, b: int, c: int, d: int, s: int) -> tuple[int, int]:
    """(a + ib) / (c + id) times 2^s, each part rounded down."""
    den = c * c + d * d
    return ((a * c + b * d) << s) // den, ((b * c - a * d) << s) // den


# 2 pi 2^64, rounded
_TAU_64 = 115904311329233965478


@lru_cache(maxsize=1024)
def _unit(num: int, den: int) -> tuple[int, int]:
    """cos and sin of 2 pi num/den + 0.7, times 2^64, to a few units.

    The Taylor series of exp(i theta/16) in 64-bit fixed point, 16 terms
    for |theta/16| < 0.45, then squared four times.
    """
    t = (_TAU_64 * (num % den) // den + (7 << 64) // 10) >> 4
    re, im = term_re, term_im = 1 << 64, 0
    for j in range(1, 17):
        term_re, term_im = -(term_im * t >> 64) // j, (term_re * t >> 64) // j
        re, im = re + term_re, im + term_im
    for _ in range(4):
        re, im = (re * re - im * im) >> 64, (re * im) >> 63
    return re, im


def _newton_polygon_starts(f: list[int]) -> list[tuple[int, int, int]]:
    """Aberth starting points (e, u, v), each (u + iv) 2^(e - 64), for f with f(0) != 0.

    Each edge from i to j of the upper convex hull of the points
    (i, bit length of a_i) stands for j - i roots of modulus about
    2^s, s = (l_i - l_j)/(j - i), so that many points go on that circle, at
    angles turned off the axes (Bini, Numer. Algorithms 13 (1996)).  The
    radius 2^floor(s) (1 + s - floor(s)) is within 7% of 2^s and grows
    strictly with s; the hull's slopes strictly decrease, so no two edges
    share a circle and no two starting points meet.
    """
    n = len(f) - 1
    hull: list[tuple[int, int]] = []
    for i, c in enumerate(f):
        if not c:
            continue
        p = (i, abs(c).bit_length())
        # drop the last hull point while it lies on or below the chord to p
        while len(hull) > 1 and (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0]) <= (
            p[1] - hull[-2][1]
        ) * (hull[-1][0] - hull[-2][0]):
            hull.pop()
        hull.append(p)
    starts = []
    for (i, li), (j, lj) in zip(hull, hull[1:]):
        d = j - i
        e, p = divmod(li - lj, d)
        c = (d + p << 64) // d
        for m in range(d):
            u, v = _unit(m * n + i * d, d * n)
            starts.append((e, c * u >> 64, c * v >> 64))
    return starts


def _aberth(f: list[int], w: int) -> tuple[list[list[int]], int]:
    """Approximations [x, y] over 2^k to all roots of f, f(0) != 0, and k.

    The grid gives the smallest predicted root about w bits.  Gauss-Seidel
    sweeps of the Aberth-Ehrlich correction 1 / (f'/f(z_i) - sum_j
    1/(z_i - z_j)), in fixed point 2^g with g w bits past the largest
    mantissa, run until none moves its root by 2^(-w/2) of its modulus.
    Seeds in a cluster of close roots gain about two bits a sweep until
    they resolve it, so w + 32 sweeps are allowed.  Raises
    PrecisionExhausted if the sweeps run out or two seeds meet.
    """
    starts = _newton_polygon_starts(f)
    k = max(0, w + 8 - min(e for e, _, _ in starts))
    zs = [[u << (k + e) >> 64, v << (k + e) >> 64] for e, u, v in starts]
    deriv = _deriv(f)
    for _ in range(w + 32):
        g = w + 8 + max(max(abs(x), abs(y)) for x, y in zs).bit_length()
        moving = False
        for i, z in enumerate(zs):
            x, y = z
            hr, hi = _chorner(f, x, y, k)
            if not hr and not hi:
                continue
            tr, ti = _cdiv(*_chorner(deriv, x, y, k), hr, hi, g)
            for j, (u, v) in enumerate(zs):
                if j != i:
                    if u == x and v == y:
                        raise PrecisionExhausted("coincident root seeds")
                    dr, di = _cdiv(1, 0, x - u, y - v, g)
                    tr, ti = tr - dr, ti - di
            if not tr and not ti:
                continue
            cr, ci = _cdiv(1, 0, tr, ti, g)
            z[0], z[1] = x - cr, y - ci
            if (cr * cr + ci * ci) << w > x * x + y * y:
                moving = True
        if not moving:
            return zs, k
    raise PrecisionExhausted(f"Aberth seeds did not settle at {w} bits")


def _polish(
    f: list[int], deriv: list[int], z: list[int], k: int, bits: int, target: int
) -> tuple[int, int, int]:
    """Newton steps from z/2^k, right to about `bits` bits, with doubling precision.

    Each step runs on the grid that gives the root `bits` + 8 bits, until
    `target`; returns (x, y, k) on the last grid.
    """
    x, y = z
    while bits < target:
        bits = min(2 * bits, target)
        kk = max(0, bits + 8 + k - max(abs(x), abs(y)).bit_length())
        x, y = (x << kk - k, y << kk - k) if kk >= k else (x >> k - kk, y >> k - kk)
        k = kk
        dr, di = _chorner(deriv, x, y, k)
        if dr or di:
            cr, ci = _cdiv(*_chorner(f, x, y, k), dr, di, 0)
            x, y = x - cr, y - ci
    return x, y, k


def _weierstrass_disks(f: list[int], bits: int) -> tuple[list[tuple[int, int, int]], int]:
    """Disks (x, y, r) over 2^k whose union holds every root of f, f(0) != 0, and k.

    The centres are Aberth seeds, run at w = max(64, bits/2) bits and
    polished by Newton to bits + 64 bits.  The radius is n|W_i| with the
    Weierstrass correction W_i = f(z_i) / (lc prod_(j != i) (z_i - z_j)),
    so the inclusion holds whatever the seeds' quality (bad seeds give fat
    disks).  On the common grid, |W_i| 2^k = |N_i| / (|lc| |D_i|) with
    N_i = 2^(kn) f(z_i) and D_i = prod_(j != i) (X_i - X_j), and r is n
    times its isqrt rounded up.
    """
    n, w, deriv = len(f) - 1, max(64, bits // 2), _deriv(f)
    zs, k = _aberth(f, w)
    polished = [_polish(f, deriv, z, k, w // 2, bits + 64) for z in zs]
    k = max(kk for _, _, kk in polished)
    zs = [(x << k - kk, y << k - kk) for x, y, kk in polished]
    lc_sq = f[-1] * f[-1]
    disks = []
    for i, (x, y) in enumerate(zs):
        nr, ni = _chorner(f, x, y, k)
        dr, di = 1, 0
        for j, (u, v) in enumerate(zs):
            if j != i:
                dr, di = dr * (x - u) - di * (y - v), dr * (y - v) + di * (x - u)
        d_sq = dr * dr + di * di
        if not d_sq:
            raise PrecisionExhausted("coincident root seeds")
        q = -(-(nr * nr + ni * ni) // (lc_sq * d_sq))
        r = isqrt(q)
        disks.append((x, y, n * (r + (r * r < q))))
    return disks, k


def _disk_components(disks) -> list[list[int]]:
    """Indices of the connected components of touching disks, by first index."""
    n = len(disks)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            (xr, xi, r1), (yr, yi, r2) = disks[i], disks[j]
            if (xr - yr) ** 2 + (xi - yi) ** 2 <= (r1 + r2) ** 2:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def _upper_boxes(f: list[int], bits: int) -> list[ComplexInterval]:
    """Certified boxes in the upper half plane, one per root they hold.

    A component of k touching disks holds exactly k roots, and its hull,
    rounded out to `bits` significant bits, is reported k times when it
    lies above the real axis.
    """
    disks, k = _weierstrass_disks(f, bits)
    boxes = []
    for group in _disk_components(disks):
        hull = ComplexInterval(
            min(disks[i][0] - disks[i][2] for i in group),
            max(disks[i][0] + disks[i][2] for i in group),
            min(disks[i][1] - disks[i][2] for i in group),
            max(disks[i][1] + disks[i][2] for i in group),
            k,
        ).round_out(bits)
        if hull.il > 0:
            boxes.extend([hull] * len(group))
    return boxes


# box precision doublings certified_root_structure tries, from 120 bits
_BOX_ATTEMPTS = 10


def certified_root_structure(
    f: Poly, width: Fraction
) -> tuple[list[RationalInterval], list[ComplexInterval]]:
    """Split roots of squarefree f into real intervals and off-axis boxes.

    Real count is exact (Sturm).  f has real coefficients, so the non-real
    roots are the upper half plane's and their conjugates: once the boxes
    above the axis hold (deg f - real count)/2 roots, they and their mirror
    images enclose every non-real root.  Escalation doubles the box
    precision, at most _BOX_ATTEMPTS times, until that holds and every box
    meets the width target.
    """
    n = poly_degree(f)
    real_ivs = [refine_real_root(f, iv, width) for iv in isolate_real_roots(f)]
    rho = len(real_ivs)
    if rho == n:
        return real_ivs, []
    ints = _primitive(_integer_coeffs(f))
    # a root at 0 is real: the non-real roots are those of f / x
    ints = ints[1:] if not ints[0] else ints
    bits = 120
    for _ in range(_BOX_ATTEMPTS):
        try:
            upper = _upper_boxes(ints, bits)
        except PrecisionExhausted:
            upper = []
        if 2 * len(upper) == n - rho and all(b.max_width <= width for b in upper):
            return real_ivs, upper + [ComplexInterval(b.rl, b.rh, -b.ih, -b.il, b.k) for b in upper]
        bits *= 2
    raise PrecisionExhausted(f"could not certify root structure at width {width}")


def modulus_enclosures(f: Poly, width: Fraction) -> list[RationalInterval]:
    """Absolute values of all roots of f (with multiplicity), sorted descending.

    Rational roots yield exact point intervals; everything else is a
    certified enclosure no wider than the target.
    """
    out: list[RationalInterval] = []
    for factor, mult in yun_decomposition(f):
        if poly_degree(factor) == 0:
            continue
        exact = {r: None for r in rational_roots(factor)}
        if len(exact) == poly_degree(factor):
            for r in exact:
                out.extend([RationalInterval.point(abs(r))] * mult)
            continue
        real_ivs, boxes = certified_root_structure(factor, width)
        for iv in real_ivs:
            out.extend([iv.abs_interval()] * mult)
        for b in boxes:
            out.extend([b.mag(96)] * mult)
    out.sort(key=lambda iv: (iv.mid, iv.lo), reverse=True)
    return out
