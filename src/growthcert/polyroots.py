"""Exact polynomial arithmetic over Q and certified root enclosures.

Polynomials are tuples of Fractions (ascending, trimmed) at the module
boundary and integer lists inside.  A primitive remainder sequence over Z
(Collins 1967; Brown and Traub 1971) gives gcds, so squarefree parts and
Yun factors by exact integer division.  Every root comes from one
Weierstrass (Durand-Kerner) iteration in complex integers over 2^k,
started on the Newton polygon's circles after MPSolve (Bini and Robol,
J. Comput. Appl. Math. 272 (2014)): the correction W_i that moves each
centre also bounds its disk, of radius n|W_i|, and a component of k such
disks holds exactly k roots (Carstensen, Numer. Math. 59 (1991)).  A
lone disk whose mirror image meets no other disk holds a real root, exact
as j/a when an integer Horner says so, and the components above the axis
round outward to boxes; the precision doubles until every component is
classified.  No floating point is used, and every containment decision
below is an exact comparison.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, zip_longest
from math import gcd, isqrt, lcm

from .errors import PrecisionExhausted
from .intervals import ComplexInterval, RationalInterval

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


def _gcd(f: list[int], g: list[int]) -> list[int]:
    """gcd(f, g) for nonzero f, primitive: it divides f and g in Z[x] (Gauss).

    A primitive remainder sequence (Collins 1967; Brown and Traub 1971):
    each pseudo-remainder, made primitive, is the rational remainder up to
    a rational factor, so the last nonzero member is the gcd up to one.
    """
    while len(g) > 1:
        f, g = g, _primitive(_prem(f, g))
    return _primitive(f) if not g else [1]


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


def _horner(f: list[int], p: int, q: int) -> int:
    """q^deg(f) f(p/q), by homogeneous Horner in integers."""
    acc, q_pow = 0, 1
    for c in reversed(f):
        acc = acc * p + c * q_pow
        q_pow *= q
    return acc


# ---------------------------------------------------------------------------
# complex enclosures: Weierstrass inclusion disks, found and bounded by one
# iteration on complex integer mantissas (x + iy) over a power of two 2^k


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
    """Starting centres (e, u, v), each (u + iv) 2^(e - 64), for f with f(0) != 0.

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


def _bits(x: int, y: int) -> int:
    """The bit length of max(|x|, |y|): log2 |x + iy| to within one."""
    return max(abs(x), abs(y)).bit_length()


def _weierstrass_disks(f: list[int], w: int, bits: int) -> tuple[list[tuple[int, int, int]], int]:
    """Disks (x, y, r) over 2^k whose union holds every root of f, f(0) != 0, and k.

    One Weierstrass (Durand-Kerner) iteration both finds the centres and
    bounds the disks.  On a grid that gives the smallest predicted root p +
    8 bits, each Jacobi sweep takes, at the current centres X_i,
    N_i = 2^(kn) f(X_i/2^k) and D_i = lc prod_(j != i) (X_i - X_j), so that
    N_i/D_i is the Weierstrass correction W_i = f(z_i) / (lc prod_(j != i)
    (z_i - z_j)) times 2^k.  A sweep is settled when every |W_i| is below
    2^(-p/2) |z_i|, read off bit lengths; that only steers the iteration.
    The centres start on the Newton polygon's circles with p = w and move
    by X_i -= N_i/D_i; a settled sweep doubles p, to at most bits + 64, and
    its step lands on the finer grid, 2^s X_i - 2^s N_i/D_i.  The settled
    sweep at bits + 64 returns its own centres with radius n|W_i|, n
    times the isqrt of |N_i|^2/|D_i|^2, both rounded up, so the inclusion
    holds whatever the centres' quality (bad centres give fat disks).
    Raises PrecisionExhausted if w + 32 sweeps at one precision do not
    settle, or two centres meet.
    """
    n, lc, top = len(f) - 1, f[-1], bits + 64
    starts = _newton_polygon_starts(f)
    low = 8 - min(e for e, _, _ in starts)
    p, k = w, max(0, w + low)
    zs = [(u << (k + e) >> 64, v << (k + e) >> 64) for e, u, v in starts]
    sweeps = 0
    while True:
        sweep, settled = [], True
        for i, (x, y) in enumerate(zs):
            dr, di = lc, 0
            for j, (u, v) in enumerate(zs):
                if j != i:
                    dr, di = dr * (x - u) - di * (y - v), dr * (y - v) + di * (x - u)
            if not dr and not di:
                raise PrecisionExhausted("coincident root centres")
            nr, ni = _chorner(f, x, y, k)
            settled = settled and _bits(nr, ni) + p // 2 < _bits(x, y) + _bits(dr, di)
            sweep.append((nr, ni, dr, di))
        if settled and p == top:
            disks = []
            for (x, y), (nr, ni, dr, di) in zip(zs, sweep):
                q = -(-(nr * nr + ni * ni) // (dr * dr + di * di))
                r = isqrt(q)
                disks.append((x, y, n * (r + (r * r < q))))
            return disks, k
        s = 0
        if settled:
            p, sweeps = min(2 * p, top), 0
            s = max(0, p + low) - k
            k += s
        elif sweeps == w + 32:
            raise PrecisionExhausted(f"Weierstrass sweeps did not settle at {p} bits")
        sweeps += 1
        steps = [_cdiv(*ws, s) for ws in sweep]
        zs = [((x << s) - cr, (y << s) - ci) for (x, y), (cr, ci) in zip(zs, steps)]


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


def _classify(
    f: list[int], a: int, disks, k: int, bits: int, width: Fraction
) -> tuple[list[RationalInterval], list[ComplexInterval]] | None:
    """Real intervals and upper boxes from one pass of disks over 2^k, or None to refine.

    f has real coefficients, so a root's conjugate is a root too.  A
    one-disk component that meets the real axis, and whose mirror image
    meets no other disk, therefore holds a real root: the conjugate lies in
    the mirror image, so in no other disk, so in this one, which holds only
    one root.  Every rational root of f is j/a (rational root theorem, a =
    |lc| of primitive f), and only the j nearest the centre times a can lie
    in the disk once its diameter is below 1/a: the root is j/a, a point,
    when the disk holds j/a and f(j/a) = 0 exactly, and otherwise, below
    that diameter, it is irrational, enclosed by the real part of the
    disk's hull.  Every other component must lie strictly above or below
    the axis; the hull of one above is reported once per disk.  Hulls round
    out to `bits` significant bits.  Returns None while a component is
    undecided or an enclosure exceeds the width.
    """
    one, reals, upper = 1 << k, [], []
    for group in _disk_components(disks):
        x, y, r = disks[group[0]]
        real = (
            len(group) == 1
            and abs(y) <= r
            and all(
                (x - u) ** 2 + (y + v) ** 2 > (r + s) ** 2
                for i, (u, v, s) in enumerate(disks)
                if i != group[0]
            )
        )
        if real:
            j = (2 * x * a + one) >> (k + 1)
            if (j * one - x * a) ** 2 + (y * a) ** 2 <= (r * a) ** 2 and not _horner(f, j, a):
                reals.append(RationalInterval.point(Fraction(j, a)))
                continue
            if 2 * r * a >= one:
                return None
        hull = ComplexInterval(
            min(disks[i][0] - disks[i][2] for i in group),
            max(disks[i][0] + disks[i][2] for i in group),
            min(disks[i][1] - disks[i][2] for i in group),
            max(disks[i][1] + disks[i][2] for i in group),
            k,
        ).round_out(bits)
        # hull.max_width <= width, in integers
        span = max(hull.rh - hull.rl, hull.ih - hull.il) * width.denominator
        narrow = span << max(-hull.k, 0) <= width.numerator << max(hull.k, 0)
        if real:
            if not narrow:
                return None
            reals.append(hull.re)
        elif hull.il > 0 and narrow:
            upper.extend([hull] * len(group))
        elif hull.ih >= 0:
            return None
    return reals, upper


# precision doublings certified_root_structure tries past its first pass
_ATTEMPTS = 10


def certified_root_structure(
    f: Poly, width: Fraction
) -> tuple[list[RationalInterval], list[ComplexInterval]]:
    """Real root intervals, ascending, and off-axis boxes of squarefree f, none wider than width.

    Every root comes from one pass of _weierstrass_disks, classified by
    _classify: a rational root is a point interval, an irrational real
    root an interval of the real axis, and the boxes above the axis with
    their mirror images enclose the non-real roots.  A root at 0 is split
    off first.  The first pass's box precision is the width target's bits
    plus the root bound's bits plus 8, enough for a root of modulus up to
    the bound to meet the width, and never below 120 bits, the precision
    that recorded spectrum reports pin for coarse targets.  Its centres
    start at 64 bits, where they only need to separate the roots, and the
    iteration carries them to 64 bits past the box precision.  Both
    precisions double, at most _ATTEMPTS times, until every root is
    classified within the width.  A pass that fails on an f with a
    repeated root raises ValueError: no precision separates its copies.
    """
    ints = _primitive(_integer_coeffs(f))
    # f is squarefree, so 0 is at most a simple root; the others are f / x's
    reals = [] if ints[0] else [RationalInterval.point(0)]
    ints = ints if ints[0] else ints[1:]
    if len(ints) < 2:
        return reals, []
    a = abs(ints[-1])
    bits = max(0, width.denominator.bit_length() - width.numerator.bit_length())
    bits = max(120, bits + (max(map(abs, ints[:-1])) // a).bit_length() + 8)
    w = 64
    for _ in range(_ATTEMPTS):
        try:
            found = _classify(ints, a, *_weierstrass_disks(ints, w, bits), bits, width)
        except PrecisionExhausted:
            found = None
        if found is not None:
            real_ivs, upper = found
            lower = [ComplexInterval(b.rl, b.rh, -b.ih, -b.il, b.k) for b in upper]
            return sorted(reals + real_ivs, key=lambda iv: iv.lo), upper + lower
        if poly_degree(squarefree_part(f)) < poly_degree(f):
            raise ValueError("f has a repeated root: no root structure to certify")
        w, bits = 2 * w, 2 * bits
    raise PrecisionExhausted(f"could not certify root structure at width {width}")


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of squarefree f, ascending, each an exact zero of f.

    They are the point intervals of certified_root_structure.  Width 1 asks
    little more than that needs: a root is certified irrational only once
    its disk is narrower than 1/a <= 1.
    """
    if poly_degree(f) < 1:
        return []
    return [iv.lo for iv in certified_root_structure(f, Fraction(1))[0] if iv.lo == iv.hi]


def modulus_enclosures(f: Poly, width: Fraction, roots=None) -> list[RationalInterval]:
    """Absolute values of all roots of f (with multiplicity), sorted descending.

    Rational roots yield exact point intervals; everything else is a
    certified enclosure no wider than the target.  roots, when given, is
    certified_root_structure(f, width) of a squarefree f, which is then
    its own Yun decomposition.
    """
    if roots is None:
        parts = [(certified_root_structure(g, width), m) for g, m in yun_decomposition(f)]
    else:
        parts = [(roots, 1)]
    out: list[RationalInterval] = []
    for (real_ivs, boxes), mult in parts:
        for iv in real_ivs:
            out.extend([iv.abs_interval()] * mult)
        for b in boxes:
            out.extend([b.mag(96)] * mult)
    out.sort(key=lambda iv: (iv.mid, iv.lo), reverse=True)
    return out
