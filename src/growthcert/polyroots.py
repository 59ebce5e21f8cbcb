"""Exact polynomial arithmetic over Q and certified root enclosures.

Polynomials are tuples of Fractions (ascending, trimmed) at the module
boundary and integer lists inside.  One signed primitive remainder sequence
over Z (Collins 1967; Brown and Traub 1971) gives the Sturm chain and gcds,
so squarefree parts and Yun factors by exact integer division; one integer
Horner gives every sign.  Real roots are isolated and refined by bisection
on integer mantissas over 2^k; rational roots are found on the grid j/a by
Newton steps on j.  Non-real roots get dyadic boxes: mpmath seeds, made
exact, give Weierstrass inclusion disks of radius n|W_i| whose k-disk
components hold exactly k roots; a component's hull rounds outward to a
box.  Every containment decision below is an exact rational comparison.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice, zip_longest
from math import gcd, lcm

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


def poly_eval_complex(f: Poly, z: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """Horner over exact complex rationals represented as (re, im)."""
    re, im = Fraction(0), Fraction(0)
    zr, zi = z
    for c in reversed(f):
        re, im = re * zr - im * zi + c, re * zi + im * zr
    return re, im


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
    """Shrink an isolating interval below the width target by dyadic bisection.

    Precondition: f is squarefree, (iv.lo, iv.hi] holds exactly one root of
    f, f(iv.lo) != 0 and both ends are dyadic, as isolate_real_roots gives
    them (a non-dyadic end raises ValueError).  Then a point of (lo, hi)
    where f is not 0 lies above the root exactly when f's sign there differs
    from its sign at lo.  The ends are integer mantissas over 2^k, and a
    midpoint where f vanishes is stepped around by _nonroot_point.
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
    while (b - a) * w_den > w_num << k:
        m, j = a + b, k + 1
        sign = _sign_at(ints, m, 1 << j)
        if not sign:
            m, j, sign = _nonroot_point(ints, a, b, k)
        a, b, k = a << (j - k), b << (j - k), j
        if sign == sign_lo:
            a = m
        else:
            b = m
    return RationalInterval(Fraction(a, 1 << k), Fraction(b, 1 << k))


def _split_point(lo: int, hi: int) -> int:
    """A point of [lo, hi] that halves it: 0 across zero, a power of two across many binades."""
    if lo <= 0 <= hi:
        return 0
    if hi < 0:
        return -_split_point(-hi, -lo)
    if hi.bit_length() > lo.bit_length() + 1:
        return 1 << (lo.bit_length() + hi.bit_length() >> 1)
    return lo + hi >> 1


def _grid_root(f: list[int], a: int, lo: int, hi: int, sign_lo: int) -> int | None:
    """The integer j in [lo, hi] with f(j/a) = 0, or None (also for lo > hi).

    Precondition: f has one simple root r among the points j/a, j in
    [lo, hi], and the sign sign_lo below r.  So j lies below r exactly when
    f(j/a) has sign_lo, the undecided points form a bracket, and each
    evaluation shrinks it.  The next j is the rounded Newton step
    j - a f/f' = j - _horner(f) / _horner(f'); one step past the bracket is
    clamped to it, and otherwise a step out of it, or longer than half the
    step before last, bisects it instead (safeguarded Newton, as in rtsafe).
    """
    deriv = _deriv(f)
    j, last, step, clamped = _split_point(lo, hi), hi - lo, hi - lo, False
    while lo <= hi:
        v = _horner(f, j, a)
        if not v:
            return j
        if (v > 0) - (v < 0) == sign_lo:
            lo = j + 1
        else:
            hi = j - 1
        if lo > hi:
            return None
        w = _horner(deriv, j, a)
        t = j - (2 * v + w) // (2 * w) if w else None
        if t is not None and not lo <= t <= hi and not clamped:
            t, clamped = min(max(t, lo), hi), True
        elif t is None or not lo <= t <= hi or 2 * abs(j - t) > last:
            t, clamped = _split_point(lo, hi), False
        else:
            clamped = False
        last, step, j = step, abs(j - t), t
    return None


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of squarefree f, each an exact zero of f.

    Scaled to primitive integer coefficients with leading coefficient +-a,
    f can only have rational roots j/a with j an integer (rational root
    theorem).  On each isolating interval (lo, hi] the grid points j/a run
    over floor(a lo) < j <= floor(a hi), and _grid_root finds the one where
    f vanishes, if any.
    """
    if poly_degree(f) < 1:
        return []
    ints = _primitive(_integer_coeffs(f))
    a = abs(ints[-1])
    roots = []
    for iv in isolate_real_roots(f):
        (lo, k), (hi, e) = dyadic_form(iv.lo), dyadic_form(iv.hi)
        j = _grid_root(ints, a, (a * lo >> k) + 1, a * hi >> e, _sign_at(ints, lo, 1 << k))
        if j is not None:
            roots.append(Fraction(j, a))
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
