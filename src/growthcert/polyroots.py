"""Exact polynomial arithmetic over Q and certified root enclosures.

Polynomials are tuples of Fractions, ascending degree, trimmed.  Real roots
are isolated with exact Sturm sequences on dyadic intervals, then refined
by bisection on integer mantissas over a power of two, deciding each half
by the exact sign of f from integer Horner; refine_real_root states the
precondition under which that sign alone picks each half.  Non-real roots
get axis-aligned dyadic boxes: floating seeds from mpmath.polyroots are
promoted to exact rational centers, then Weierstrass correction terms W_i
computed in exact arithmetic give inclusion disks of radius n|W_i| whose
union contains every root, with k-disk connected components containing
exactly k roots; the hull of a component rounds outward to a dyadic box.
Every containment decision below is an exact rational comparison.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import ceil, floor, gcd, lcm

import mpmath

from .errors import PrecisionExhausted
from .intervals import ComplexInterval, RationalInterval, dyadic_form, sqrt_upper

Poly = tuple[Fraction, ...]


def poly_from(coeffs) -> Poly:
    """Ascending coefficients, trimmed of leading zeros."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_degree(f: Poly) -> int:
    return len(f) - 1


def poly_eval(f: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_eval_complex(f: Poly, z: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """Horner over exact complex rationals represented as (re, im)."""
    re, im = Fraction(0), Fraction(0)
    zr, zi = z
    for c in reversed(f):
        re, im = re * zr - im * zi + c, re * zi + im * zr
    return re, im


def poly_deriv(f: Poly) -> Poly:
    return poly_from(i * c for i, c in enumerate(f) if i > 0)


def poly_add(f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    fs = list(f) + [Fraction(0)] * (n - len(f))
    gs = list(g) + [Fraction(0)] * (n - len(g))
    return poly_from(a + b for a, b in zip(fs, gs))


def poly_neg(f: Poly) -> Poly:
    return tuple(-c for c in f)


def poly_scale(f: Poly, c: Fraction) -> Poly:
    return poly_from(Fraction(c) * x for x in f)


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    quo = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    dg, lead = len(g) - 1, g[-1]
    while len(rem) - 1 >= dg and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dg:
            break
        shift = len(rem) - 1 - dg
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(g):
            rem[shift + i] -= factor * c
    return poly_from(quo), poly_from(rem)


def poly_div_exact(f: Poly, g: Poly) -> Poly:
    q, r = poly_divmod(f, g)
    if r:
        raise ValueError("division is not exact")
    return q


def poly_monic(f: Poly) -> Poly:
    if not f:
        return f
    return poly_scale(f, 1 / f[-1])


def poly_gcd(f: Poly, g: Poly) -> Poly:
    a, b = f, g
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    return poly_monic(a)


def squarefree_part(f: Poly) -> Poly:
    """f / gcd(f, f'), monic; same distinct roots, all simple."""
    if poly_degree(f) <= 0:
        return poly_monic(f)
    g = poly_gcd(f, poly_deriv(f))
    if poly_degree(g) == 0:
        return poly_monic(f)
    return poly_monic(poly_div_exact(f, g))


def yun_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Squarefree factorization f = prod a_i^i (char 0, Yun's algorithm)."""
    f = poly_monic(f)
    if poly_degree(f) <= 0:
        return []
    d = poly_deriv(f)
    g = poly_gcd(f, d)
    if poly_degree(g) == 0:
        return [(f, 1)]
    out = []
    c = poly_div_exact(f, g)
    w = poly_add(poly_div_exact(d, g), poly_neg(poly_deriv(c)))
    i = 1
    while poly_degree(c) > 0:
        a = poly_gcd(c, w)
        if poly_degree(a) > 0:
            out.append((poly_monic(a), i))
        c = poly_div_exact(c, a)
        w = poly_add(poly_div_exact(w, a), poly_neg(poly_deriv(c)))
        i += 1
        if i > poly_degree(f) + 1:
            raise AssertionError("Yun decomposition failed to terminate")
    return out


def cauchy_bound(f: Poly) -> Fraction:
    """Strict bound: every root z has |z| < the returned value."""
    if poly_degree(f) < 1:
        raise ValueError("need degree >= 1")
    lead = abs(f[-1])
    return 1 + max(abs(c) / lead for c in f[:-1])


# ---------------------------------------------------------------------------
# Sturm sequences (real roots, exact)


def sturm_chain(f: Poly) -> list[Poly]:
    chain = [f, poly_deriv(f)]
    while poly_degree(chain[-1]) > 0:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(poly_neg(rem))
    return [c for c in chain if c]


def _sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for g in chain:
        v = poly_eval(g, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _integer_coeffs(f: Poly) -> list[int]:
    """f times the lcm of its denominators: same roots, same signs."""
    den = lcm(*(c.denominator for c in f))
    return [c.numerator * (den // c.denominator) for c in f]


def _sign_at(ints: list[int], p: int, q: int) -> int:
    """Sign of f(p/q), q > 0, for f with integer coefficients ints (ascending).

    q^d f(p/q) = sum c_i p^i q^(d-i) has the sign of f(p/q); homogeneous
    Horner computes it in integers.
    """
    acc, q_pow = 0, 1
    for c in reversed(ints):
        acc = acc * p + c * q_pow
        q_pow *= q
    return (acc > 0) - (acc < 0)


def _dyadic_steps():
    """1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, 1/16, ..."""
    s = 1
    while True:
        yield from (Fraction(j, 1 << s) for j in range(1, 1 << s, 2))
        s += 1


def _nonroot_point(ints: list[int], a: Fraction, b: Fraction) -> tuple[Fraction, int]:
    """A point m strictly inside (a, b) where f does not vanish, and sign f(m).

    f is given by its integer coefficients ints; the candidates are
    a + (b - a) * t for t = 1/2, 1/4, 3/4, 1/8, ..., so the midpoint comes
    first and every candidate between dyadic ends is dyadic.  f has at most
    deg f roots, so deg f + 1 candidates suffice.
    """
    span = b - a
    for t in islice(_dyadic_steps(), len(ints)):
        m = a + span * t
        sign = _sign_at(ints, m.numerator, m.denominator)
        if sign:
            return m, sign
    raise AssertionError("polynomial vanished at more points than its degree")


def isolate_real_roots(f: Poly) -> list[RationalInterval]:
    """Disjoint intervals (lo, hi], one simple real root each, for squarefree f.

    The search starts from (-m, m] with m the integer ceiling of
    cauchy_bound(f), and each split point comes from _nonroot_point, so
    every endpoint is dyadic and f(lo) is never 0, as refine_real_root
    requires.
    """
    if poly_degree(f) < 1:
        return []
    chain = sturm_chain(f)
    ints = _integer_coeffs(f)
    m = Fraction(ceil(cauchy_bound(f)))
    out: list[RationalInterval] = []

    def split(lo, hi, v_lo, v_hi):
        cnt = v_lo - v_hi
        if cnt == 0:
            return
        if cnt == 1:
            out.append(RationalInterval(lo, hi))
            return
        mid, _ = _nonroot_point(ints, lo, hi)
        v_mid = _sign_variations(chain, mid)
        split(lo, mid, v_lo, v_mid)
        split(mid, hi, v_mid, v_hi)

    split(-m, m, _sign_variations(chain, -m), _sign_variations(chain, m))
    out.sort(key=lambda iv: iv.lo)
    return out


def refine_real_root(f: Poly, iv: RationalInterval, width: Fraction) -> RationalInterval:
    """Shrink an isolating interval below the width target by dyadic bisection.

    Precondition: f is squarefree, (iv.lo, iv.hi] holds exactly one root of
    f, and f(iv.lo) != 0; every interval from isolate_real_roots meets it.
    Then a point x of (lo, hi) with f(x) != 0 lies above the root exactly
    when the sign of f at x differs from its sign at lo, so the sign of f
    alone picks each half.

    The interval is snapped outward to a grid 2^-k (exactly, when its ends
    are dyadic, as isolate_real_roots makes them) and bisected on integer
    mantissas a, b over 2^k, so each midpoint (a + b) / 2^(k+1) is dyadic
    and its sign comes from integer Horner.  A midpoint where f vanishes is
    stepped around by _nonroot_point; one at or past lo or hi, left by the
    snap, is placed by comparison with that end.  The result contains the
    root, lies inside iv and is at most width wide.
    """
    ints = _integer_coeffs(f)
    lo, hi = iv.lo, iv.hi
    sign_lo = _sign_at(ints, lo.numerator, lo.denominator)
    if not sign_lo:
        raise ValueError(f"f vanishes at the interval's left end {lo}")
    lo_num, lo_den = lo.numerator, lo.denominator
    hi_num, hi_den = hi.numerator, hi.denominator

    def above_root(m: int, k: int) -> bool | None:
        """Whether m / 2^k lies at or above the root; None where f vanishes."""
        sign = _sign_at(ints, m, 1 << k)
        if not sign:
            return None
        if m * hi_den >= hi_num << k:
            return True
        if m * lo_den <= lo_num << k:
            return False
        return sign != sign_lo

    ends = [dyadic_form(x) for x in (lo, hi)]
    if None in ends:
        # a grid step at most a quarter of the span
        span = hi - lo
        k = max(0, span.denominator.bit_length() - span.numerator.bit_length() + 2)
        a, b = (lo_num << k) // lo_den, -((-hi_num << k) // hi_den)
    else:
        k = max(e for _, e in ends)
        a, b = (m << (k - e) for m, e in ends)
    w_num, w_den = width.numerator, width.denominator
    while (b - a) * w_den > w_num << k:
        m, a, b, k = a + b, a << 1, b << 1, k + 1
        above = above_root(m, k)
        if above is None:
            x, _ = _nonroot_point(ints, Fraction(a, 1 << k), Fraction(b, 1 << k))
            e = x.denominator.bit_length() - 1
            if e > k:
                a, b, k = a << (e - k), b << (e - k), e
            m = x.numerator << (k - e)
            above = above_root(m, k)
        if above:
            b = m
        else:
            a = m
    # a non-dyadic end snaps outward, so clip the result back into iv
    return RationalInterval(max(lo, Fraction(a, 1 << k)), min(hi, Fraction(b, 1 << k)))


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of squarefree f, each verified by exact evaluation.

    Scaled to primitive integer coefficients with leading coefficient a, f
    can only have rational roots k/a with k an integer (rational root
    theorem).  Each isolating interval (lo, hi] is refined to width <= 1/a,
    which leaves one candidate, k = floor(a*lo) + 1, decided by evaluation.
    """
    if poly_degree(f) < 1:
        return []
    ints = _integer_coeffs(f)
    a = abs(ints[-1]) // gcd(*ints)
    roots = []
    for iv in isolate_real_roots(f):
        iv = refine_real_root(f, iv, Fraction(1, a))
        cand = Fraction(floor(a * iv.lo) + 1, a)
        if cand <= iv.hi and _sign_at(ints, cand.numerator, cand.denominator) == 0:
            roots.append(cand)
    return roots


# ---------------------------------------------------------------------------
# complex enclosures (Weierstrass inclusion disks)


def _mpf_to_fraction(x) -> Fraction:
    if not mpmath.isfinite(x):
        raise PrecisionExhausted("non-finite root seed")
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man) * (Fraction(2) ** exp)
    return -v if sign else v


def _weierstrass_disks(f: Poly, dps: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(center_re, center_im, radius) disks whose union contains all roots.

    Requires distinct seed points; radius n|W_i| with W_i computed exactly
    from the rationalized seeds, so the inclusion is certified regardless
    of seed quality (bad seeds just give useless fat disks).
    """
    n = poly_degree(f)
    if n == 1:
        return [(-f[0] / f[1], Fraction(0), Fraction(0))]
    monic = poly_monic(f)
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator) for c in reversed(monic)]
        approx = mpmath.polyroots(coeffs, maxsteps=100 + 10 * n, extraprec=4 * dps)
        seeds = [(_mpf_to_fraction(r.real), _mpf_to_fraction(r.imag)) for r in approx]
    if len({s for s in seeds}) != n:
        raise PrecisionExhausted("coincident root seeds")
    disks = []
    for i, z in enumerate(seeds):
        num = poly_eval_complex(monic, z)
        den = (Fraction(1), Fraction(0))
        for j, w in enumerate(seeds):
            if j == i:
                continue
            dr, di = z[0] - w[0], z[1] - w[1]
            den = (den[0] * dr - den[1] * di, den[0] * di + den[1] * dr)
        dd = den[0] * den[0] + den[1] * den[1]
        wsq = (num[0] * num[0] + num[1] * num[1]) / dd
        radius = n * sqrt_upper(wsq, 96)
        disks.append((z[0], z[1], radius))
    return disks


def _disk_components(disks) -> list[list[int]]:
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
            dist_sq = (xr - yr) ** 2 + (xi - yi) ** 2
            if dist_sq <= (r1 + r2) ** 2:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def weierstrass_boxes(f: Poly, dps: int) -> list[ComplexInterval]:
    """One certified box per root (with multiplicity of overlap components).

    A component of k mutually overlapping disks contains exactly k roots;
    its hull box is reported k times, which is sound for every consumer
    that treats the result as a multiset of per-root enclosures.
    """
    disks = _weierstrass_disks(f, dps)
    boxes = []
    for group in _disk_components(disks):
        re_lo = min(disks[i][0] - disks[i][2] for i in group)
        re_hi = max(disks[i][0] + disks[i][2] for i in group)
        im_lo = min(disks[i][1] - disks[i][2] for i in group)
        im_hi = max(disks[i][1] + disks[i][2] for i in group)
        # edges round outward a little finer than the seeds (~3.32 bits a digit)
        hull = ComplexInterval.from_box(re_lo, re_hi, im_lo, im_hi, 4 * dps)
        boxes.extend([hull] * len(group))
    return boxes


# mpmath precision doublings certified_root_structure tries, from 30 digits
_BOX_ATTEMPTS = 10


def certified_root_structure(
    f: Poly, width: Fraction
) -> tuple[list[RationalInterval], list[ComplexInterval]]:
    """Split roots of squarefree f into real intervals and off-axis boxes.

    Real count is exact (Sturm); escalation doubles mpmath precision, at
    most _BOX_ATTEMPTS times, until exactly degree-minus-real boxes are
    certified off the real axis and all enclosures meet the width target.
    """
    n = poly_degree(f)
    real_ivs = [refine_real_root(f, iv, width) for iv in isolate_real_roots(f)]
    rho = len(real_ivs)
    if rho == n:
        return real_ivs, []
    dps = 30
    for _ in range(_BOX_ATTEMPTS):
        try:
            boxes = weierstrass_boxes(f, dps)
        except PrecisionExhausted:
            dps *= 2
            continue
        off_axis = [b for b in boxes if not b.im.contains_zero()]
        if len(off_axis) == n - rho and all(b.max_width <= width for b in off_axis):
            return real_ivs, off_axis
        dps *= 2
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
