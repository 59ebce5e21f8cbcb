"""Polynomial kernel tests.

The Fraction kernel below (long division, Fraction Sturm sign variations,
bisection to the rational-root grid) is the reference for polyroots: the
integer gcd kernel must give exactly its answers, and the disk engine its
real root count and rational roots, with every real interval holding one
of its roots.
"""

import random
import time
from fractions import Fraction as F
from itertools import zip_longest
from math import ceil, floor, gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthcert import polyroots
from growthcert.errors import PrecisionExhausted
from growthcert.intervals import ComplexInterval, RationalInterval, sqrt_upper
from growthcert.polyroots import (
    _disk_components,
    _gcd,
    _integer_coeffs,
    cauchy_bound,
    certified_root_structure,
    modulus_enclosures,
    poly_degree,
    poly_deriv,
    poly_from,
    poly_monic,
    rational_roots,
    squarefree_part,
    yun_decomposition,
)


def poly_mul(f, g):
    if not f or not g:
        return ()
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly_from(out)


# ---------------------------------------------------------------------------
# the Fraction reference kernel


def poly_eval(f, x):
    acc = F(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_sub(f, g):
    return poly_from(a - b for a, b in zip_longest(f, g, fillvalue=F(0)))


def poly_divmod(f, g):
    rem = list(f)
    quo = [F(0)] * max(0, len(f) - len(g) + 1)
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


def poly_div_exact(f, g):
    q, r = poly_divmod(f, g)
    if r:
        raise ValueError("division is not exact")
    return q


def poly_gcd(f, g):
    while g:
        f, g = g, poly_divmod(f, g)[1]
    return poly_monic(f)


def reference_squarefree_part(f):
    if poly_degree(f) <= 0:
        return poly_monic(f)
    return poly_monic(poly_div_exact(f, poly_gcd(f, poly_deriv(f))))


def reference_yun(f):
    f = poly_monic(f)
    if poly_degree(f) <= 0:
        return []
    d = poly_deriv(f)
    g = poly_gcd(f, d)
    c = poly_div_exact(f, g)
    w = poly_sub(poly_div_exact(d, g), poly_deriv(c))
    out, i = [], 1
    while poly_degree(c) > 0:
        a = poly_gcd(c, w)
        if poly_degree(a) > 0:
            out.append((a, i))
        c = poly_div_exact(c, a)
        w = poly_sub(poly_div_exact(w, a), poly_deriv(c))
        i += 1
    return out


def sturm_chain(f):
    chain = [f, poly_deriv(f)]
    while poly_degree(chain[-1]) > 0:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(tuple(-c for c in rem))
    return chain


def sign_variations(chain, x):
    signs = [v > 0 for v in (poly_eval(g, x) for g in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_real_roots(f, a, b, chain=None) -> int:
    """Distinct real roots of squarefree f in the half-open interval (a, b]."""
    chain = chain or sturm_chain(f)
    return sign_variations(chain, a) - sign_variations(chain, b)


def _dyadic_fractions():
    """1/2, 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, 1/16, ..."""
    s = 1
    while True:
        for j in range(1, 2**s, 2):
            yield F(j, 2**s)
        s += 1


def _reference_nonroot_point(f, a, b):
    for _, t in zip(range(len(f) + 1), _dyadic_fractions()):
        m = a + (b - a) * t
        if poly_eval(f, m) != 0:
            return m
    raise AssertionError("polynomial vanished at more points than its degree")


def reference_isolate_real_roots(f):
    """Sturm bisection in Fractions from (-m, m], m the ceiling of the Cauchy bound."""
    if poly_degree(f) < 1:
        return []
    chain = sturm_chain(f)
    m = F(ceil(cauchy_bound(f)))
    out, todo = [], [(-m, m)]
    while todo:
        lo, hi = todo.pop()
        cnt = count_real_roots(f, lo, hi, chain)
        if cnt == 1:
            out.append(RationalInterval(lo, hi))
        elif cnt > 1:
            mid = _reference_nonroot_point(f, lo, hi)
            todo += [(mid, hi), (lo, mid)]
    return out


def reference_rational_roots(f):
    """Bisect each isolating interval by sign to width 1/a; test the one grid point left."""
    if poly_degree(f) < 1:
        return []
    den = lcm(*(c.denominator for c in f))
    ints = [int(c * den) for c in f]
    a = abs(ints[-1]) // gcd(*ints)
    roots = []
    for iv in reference_isolate_real_roots(f):
        lo, hi = iv.lo, iv.hi
        below = poly_eval(f, lo) > 0
        while hi - lo > F(1, a):
            mid = _reference_nonroot_point(f, lo, hi)
            if (poly_eval(f, mid) > 0) == below:
                lo = mid
            else:
                hi = mid
        cand = F(floor(a * lo) + 1, a)
        if cand <= hi and poly_eval(f, cand) == 0:
            roots.append(cand)
    return roots


def _poly_with_roots(roots):
    f = poly_from([F(1)])
    for r in roots:
        f = poly_mul(f, poly_from([-r, F(1)]))
    return f


def test_poly_eval_and_div():
    f = poly_from([F(1), F(-3), F(2)])  # 2x^2 - 3x + 1
    assert poly_eval(f, F(1)) == 0
    assert poly_eval(f, F(1, 2)) == 0
    assert poly_eval(f, F(0)) == 1
    g = poly_from([F(-1), F(1)])  # x - 1
    q = poly_div_exact(f, g)
    assert poly_mul(q, g) == f


def test_gcd_and_squarefree():
    f = _poly_with_roots([F(1), F(1), F(2)])
    g = _poly_with_roots([F(1), F(3)])
    common = poly_from(_gcd(_integer_coeffs(f), _integer_coeffs(g)))
    assert poly_monic(common) == poly_gcd(f, g) == _poly_with_roots([F(1)])
    sf = squarefree_part(f)
    assert sorted(rational_roots(sf)) == [F(1), F(2)]
    assert squarefree_part(sf) == sf


def test_yun_decomposition_reconstructs():
    rng = random.Random(13)
    for _ in range(25):
        roots = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
        mults = [rng.randint(1, 3) for _ in roots]
        f = poly_from([F(1)])
        for r, m in zip(roots, mults):
            for _ in range(m):
                f = poly_mul(f, poly_from([-r, F(1)]))
        prod = poly_from([F(1)])
        for part, mult in yun_decomposition(f):
            for _ in range(mult):
                prod = poly_mul(prod, part)
        assert prod == f


def test_rational_roots_exhaustive():
    rng = random.Random(37)
    for _ in range(50):
        roots = sorted(
            set(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
        )
        f = _poly_with_roots(roots)
        # scale by an integer: roots must be unchanged
        f = tuple(3 * c for c in f)
        assert sorted(rational_roots(f)) == roots


def test_rational_roots_large_denominator():
    # the grid j/a has a = 3^200, so the root 5 is certified only once its
    # disk is narrower than 3^-200
    f = poly_mul(
        poly_mul(poly_from([-1, 3**200]), poly_from([-5, 1])), poly_from([-2, 0, 1])
    )
    assert rational_roots(f) == [F(1, 3**200), F(5)]


def _divisors(k):
    k = abs(k)
    return [d for d in range(1, k + 1) if k % d == 0]


def _brute_force_rational_roots(ints):
    """Rational root theorem by enumeration: roots p/q, p | trailing, q | leading."""
    low = next(i for i, c in enumerate(ints) if c != 0)
    cands = {F(0)} if low > 0 else set()
    for p in _divisors(ints[low]):
        for q in _divisors(ints[-1]):
            cands |= {F(p, q), F(-p, q)}
    return sorted(c for c in cands if poly_eval(poly_from(ints), c) == 0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 6)), max_size=3),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(lambda cs: cs[-1] != 0),
)
def test_rational_roots_match_rational_root_theorem(linear, extra):
    ints = extra
    for p, q in linear:
        ints = [int(c) for c in poly_mul(poly_from(ints), poly_from([-p, q]))]
    if len(ints) < 2:
        return
    assert rational_roots(squarefree_part(poly_from(ints))) == _brute_force_rational_roots(ints)


def test_rational_roots_skips_irrational():
    f = poly_from([F(-2), F(0), F(1)])  # x^2 - 2
    assert rational_roots(f) == []
    # x^3 - 10x^2 + x: 0 is a root, and also the grid point nearest the
    # irrational root 5 - sqrt(24); it is reported once
    f = poly_from([0, 1, -10, 1])
    assert rational_roots(f) == [F(0)]


def test_cauchy_bound_dominates_roots():
    roots = [F(5), F(-7), F(1, 2)]
    f = _poly_with_roots(roots)
    bound = cauchy_bound(f)
    assert all(abs(r) <= bound for r in roots)


def test_sturm_counts():
    f = _poly_with_roots([F(-1), F(0), F(3)])
    chain = sturm_chain(f)
    assert count_real_roots(f, F(-10), F(10), chain) == 3
    assert count_real_roots(f, F(1, 2), F(10), chain) == 1
    assert count_real_roots(f, F(4), F(10), chain) == 0


def test_isolate_and_refine():
    # two rational roots come out as points, the irrational ones as
    # intervals below the width, all ascending
    f = poly_mul(_poly_with_roots([F(-3, 2), F(1, 3)]), poly_from([-2, 0, 1]))
    real_ivs, boxes = certified_root_structure(f, F(1, 2**30))
    assert boxes == []
    assert [iv.lo for iv in real_ivs if iv.lo == iv.hi] == [F(-3, 2), F(1, 3)]
    irrational = [iv for iv in real_ivs if iv.lo < iv.hi]
    assert len(irrational) == 2
    for iv in irrational:
        assert iv.hi - iv.lo <= F(1, 2**30)
        assert count_real_roots(f, iv.lo, iv.hi) == 1
    assert real_ivs == sorted(real_ivs, key=lambda iv: iv.lo)


def test_certified_root_structure_real_only():
    roots = [F(-2), F(1, 2), F(4)]
    f = _poly_with_roots(roots)
    real_ivs, boxes = certified_root_structure(f, F(1, 2**20))
    assert boxes == []
    assert len(real_ivs) == 3
    for iv, r in zip(sorted(real_ivs, key=lambda i: i.lo), roots):
        assert iv.contains(r)


def test_certified_root_structure_complex():
    # (x^2 + 1)(x - 2): one real root, one conjugate pair
    f = poly_mul(poly_from([F(1), F(0), F(1)]), poly_from([F(-2), F(1)]))
    real_ivs, boxes = certified_root_structure(f, F(1, 2**16))
    assert len(real_ivs) == 1 and real_ivs[0].contains(F(2))
    assert len(boxes) == 2
    assert any(b.contains(F(0), F(1)) for b in boxes)
    assert any(b.contains(F(0), F(-1)) for b in boxes)


def test_certified_root_structure_roots_far_from_the_unit_circle():
    # (a x^2 + 2x + 3)(x + d), a and -d near 10^200: roots of moduli 10^200
    # and 10^-100, which the Newton polygon's starting circles predict (an
    # iteration started near the unit circle runs out of steps on them)
    a, d = 10**200 + 7, -(10**200) + 3
    f = poly_mul(poly_from([F(3), F(2), F(a)]), poly_from([F(d), F(1)]))
    start = time.perf_counter()
    real_ivs, boxes = certified_root_structure(f, F(1, 2**200))
    assert time.perf_counter() - start < 10
    assert len(real_ivs) == 1 and real_ivs[0].contains(F(-d))
    assert len(boxes) == 2
    # the conjugate pair has |z|^2 = 3/a
    assert all(b.mag_sq().lo <= F(3, a) <= b.mag_sq().hi for b in boxes)


def test_certified_root_structure_roots_near_ten_to_the_300():
    # the same polynomial with a and -d near 10^300: roots of moduli 10^300
    # and 10^-150, on one grid fine enough for the smaller
    a, d = 10**300 + 7, -(10**300) + 3
    f = poly_mul(poly_from([F(3), F(2), F(a)]), poly_from([F(d), F(1)]))
    start = time.perf_counter()
    real_ivs, boxes = certified_root_structure(f, F(1, 2**200))
    assert time.perf_counter() - start < 10
    assert len(real_ivs) == 1 and real_ivs[0].contains(F(-d))
    assert len(boxes) == 2
    assert all(b.mag_sq().lo <= F(3, a) <= b.mag_sq().hi for b in boxes)


def test_certified_root_structure_refuses_a_repeated_root_quickly():
    # (x - 2)^2 (x - 1/4), the charpoly of diag(2, 2, 1/4): no precision
    # separates the copies of 2, so the first failed pass ends the search
    f = poly_mul(poly_mul(poly_from([-2, 1]), poly_from([-2, 1])), poly_from([F(-1, 4), 1]))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="repeated root"):
        certified_root_structure(f, F(1, 2**64))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "factors, n_real, roots",
    [
        # hull points (0, 1), (2, 2), (3, 2), (4, 1): two edges whose slopes
        # round to the same circle
        ([[1, 1, 2, 3, 1]], 2, []),
        # two conjugate pairs 10^-40 apart: the centres resolve the cluster
        # only once the grid does
        ([[1, 0, 1], [1 + F(1, 10**40), 0, 1]], 0, [(0, 1), (0, -1)]),
        # a conjugate pair 2^-150 off the axis
        ([[1 + F(1, 2**300), -2, 1], [5, 1]], 1, []),
    ],
    ids=["shared-circle", "close-pairs", "near-axis"],
)
def test_certified_root_structure_on_hard_seeds(factors, n_real, roots):
    f = poly_from([1])
    for factor in factors:
        f = poly_mul(f, poly_from(factor))
    start = time.perf_counter()
    real_ivs, boxes = certified_root_structure(f, F(1, 2**64))
    assert time.perf_counter() - start < 10
    assert len(real_ivs) == n_real and len(boxes) == poly_degree(f) - n_real
    assert all(any(b.contains(F(x), F(y)) for b in boxes) for x, y in roots)


def test_modulus_enclosures_contain_true_moduli():
    f = poly_mul(poly_from([F(1), F(0), F(1)]), poly_from([F(-3), F(1)]))
    encls = modulus_enclosures(f, F(1, 2**12))
    assert len(encls) == 3
    hits_one = sum(1 for e in encls if e.contains(F(1)))
    hits_three = sum(1 for e in encls if e.contains(F(3)))
    assert hits_one == 2 and hits_three == 1


def test_modulus_enclosures_random_rational_roots():
    rng = random.Random(71)
    for _ in range(20):
        roots = sorted(set(F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(3)))
        f = _poly_with_roots(roots)
        encls = modulus_enclosures(f, F(1, 2**16))
        assert len(encls) == len(roots)
        moduli = sorted(abs(r) for r in roots)
        for enc, m in zip(sorted(encls, key=lambda e: e.lo), moduli):
            assert enc.contains(m)


def test_a_lone_disk_whose_mirror_meets_another_disk_is_not_real():
    # x^2 + x + 1 has roots -1/2 +- i sqrt(3)/2.  A sloppy first pass, over
    # 2^7: a disk that holds the upper root and meets the axis, and a thin
    # one around the lower root that its mirror image meets.  The first
    # disk's component is then undecided, and the next pass decides it.
    f = poly_from([1, 1, 1])
    real_disks = polyroots._weierstrass_disks
    passes = []

    def sloppy_first(ints, w, bits):
        passes.append(bits)
        if len(passes) == 1:
            return [(-64, 54, 60), (-64, -111, 8)], 7
        return real_disks(ints, w, bits)

    with mock.patch.object(polyroots, "_weierstrass_disks", sloppy_first):
        real_ivs, boxes = certified_root_structure(f, F(1))
    assert len(passes) == 2
    assert real_ivs == [] and len(boxes) == 2
    # both roots have real part -1/2 and modulus 1
    assert all(b.re.contains(F(-1, 2)) and b.mag_sq().contains(F(1)) for b in boxes)


def test_rational_roots_far_apart_in_scale():
    # the grid j/a has a = 10^600, so each root's disk must come below
    # 10^-600 before it is decided
    f = poly_mul(poly_from([-(10**600), 1]), poly_from([-1, 10**600]))
    assert rational_roots(f) == [F(1, 10**600), F(10**600)]
    g = poly_mul(poly_from([-(10**600) - 1, 1]), poly_from([-2, 0, 1]))
    assert rational_roots(g) == [F(10**600 + 1)]


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction reference, on random rational
# polynomials with repeated factors, degree <= 8, small and 200-digit
# coefficients


BIG = 10**200
# a factor's coefficients are all small or all of 200 digits, so its roots
# stay within a few binades of 1 and the mpmath reference below converges
FACTORS = st.one_of(
    st.lists(st.integers(-9, 9), min_size=2, max_size=3),
    st.lists(
        st.one_of(st.integers(BIG // 10, BIG), st.integers(-BIG, -BIG // 10)),
        min_size=2,
        max_size=3,
    ),
)


@st.composite
def rational_polys(draw):
    """(f, its squarefree part), f a rational multiple of a product of repeated factors."""
    f = poly_from([draw(st.fractions(-9, 9, max_denominator=12).filter(bool))])
    for _ in range(draw(st.integers(1, 4))):
        factor = poly_from(draw(FACTORS))
        mult = draw(st.integers(1, 3))
        if poly_degree(factor) < 1 or poly_degree(f) + mult * poly_degree(factor) > 8:
            continue
        for _ in range(mult):
            f = poly_mul(f, factor)
    return f


@settings(max_examples=60, deadline=None)
@given(rational_polys())
def test_squarefree_part_and_yun_match_the_fraction_reference(f):
    assert squarefree_part(f) == reference_squarefree_part(f)
    assert yun_decomposition(f) == reference_yun(f)


def assert_matches_the_fraction_reference(g, width):
    """The disk engine on squarefree g against the Sturm reference.

    The real count and the rational roots must be the reference's, the
    rational roots as points; every other real interval holds exactly one
    root by Sturm's count, and the intervals are disjoint, so no root is
    reported twice.
    """
    ref_real = reference_isolate_real_roots(g)
    ref_rational = reference_rational_roots(g)
    real_ivs, boxes = certified_root_structure(g, width)
    assert len(real_ivs) == len(ref_real)
    assert len(boxes) == poly_degree(g) - len(ref_real)
    assert all(b.max_width <= width for b in boxes)
    assert [iv.lo for iv in real_ivs if iv.lo == iv.hi] == ref_rational
    assert rational_roots(g) == ref_rational
    for iv in real_ivs:
        assert iv.hi - iv.lo <= width
        assert iv.lo == iv.hi or count_real_roots(g, iv.lo, iv.hi) == 1
    assert all(x.hi < y.lo for x, y in zip(real_ivs, real_ivs[1:]))


@settings(max_examples=40, deadline=None)
@given(rational_polys(), st.integers(1, 300))
def test_real_roots_match_the_fraction_reference(f, k):
    assert_matches_the_fraction_reference(reference_squarefree_part(f), F(1, 2**k))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-40, 40), min_size=2, max_size=7).filter(lambda cs: cs[-1] != 0),
    st.integers(1, 300),
)
def test_sign_bisection_matches_sturm_bisection(ints, k):
    # squarefree integer polynomials: the real cells located by the sign
    # tests of the disk engine against Sturm's count and bisection
    f = poly_from(ints)
    assume(poly_degree(poly_gcd(f, poly_deriv(f))) == 0)
    assert_matches_the_fraction_reference(f, F(1, 2**k))


# squarefree products whose roots are hard to find or to classify
HARD_CASES = [
    # 1 +- i 2^-150 and -5
    pytest.param([[1 + F(1, 2**300), -2, 1], [5, 1]], id="near-axis-pair"),
    # two conjugate pairs, and two pairs of real roots, 10^-40 apart
    pytest.param([[1, 0, 1], [1 + F(1, 10**40), 0, 1]], id="close-conjugate-pairs"),
    pytest.param([[-2, 0, 1], [-2 - F(1, 10**40), 0, 1]], id="close-real-pairs"),
    pytest.param([[-(10**300), 1], [-F(1, 10**300), 1], [1, 1, 1]], id="ten-to-the-300"),
    # -10^-120 and 10^120 + 10^-120, near the integers 0 and 10^120
    pytest.param([[-1, -(10**120), 1]], id="irrational-near-integers"),
    # 1/3 +- 10^-60/3 on the grid j/a, a = 3 10^120
    pytest.param([[1 - F(1, 10**120), -6, 9], [-2, 1]], id="irrational-near-one-third"),
    # a rational root on a grid of spacing 1/a, a near 3 10^200
    pytest.param([[-(10**200 + 1), 3 * 10**200 - 1], [-2, 0, 1]], id="huge-denominator"),
    pytest.param([[0, 1], [-2, 0, 1], [1, 0, 1]], id="root-at-zero"),
    # the grid point nearest sqrt 2 is the root 1
    pytest.param([[-1, 1], [-2, 0, 1]], id="rational-nearest-an-irrational"),
    # rational roots on dyadic midpoints of bisection
    pytest.param([[-1, 2], [-3, 1], [5, 1]], id="dyadic-midpoint-root"),
    pytest.param([[F(-1, 2), 1], [-2, 0, 1]], id="half-and-root-two"),
    pytest.param([[F(-3, 4), 1], [F(5, 8), 1], [-3, 0, 1]], id="dyadic-rationals-and-root-three"),
]


def product(factors):
    f = poly_from([1])
    for factor in factors:
        f = poly_mul(f, poly_from(factor))
    return f


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("factors", HARD_CASES)
def test_hard_cases_match_the_fraction_reference(factors, bits):
    f = product(factors)
    start = time.perf_counter()
    assert_matches_the_fraction_reference(f, F(1, 2**bits))
    assert time.perf_counter() - start < 10


NEWTON_POLYGON_STARTS = polyroots._newton_polygon_starts


def starts_on_one_wrong_circle(f):
    # every start on the circle of radius 2^7, whatever the roots' moduli
    n = len(f) - 1
    return [(7, *polyroots._unit(m, n)) for m in range(n)]


def starts_shifted(f):
    # the Newton polygon's starts, each moved by three times its circle's radius
    return [(e, u + (3 << 64), v) for e, u, v in NEWTON_POLYGON_STARTS(f)]


@pytest.mark.parametrize("bad_starts", [starts_on_one_wrong_circle, starts_shifted])
@pytest.mark.parametrize("factors", HARD_CASES)
def test_bad_starts_give_the_reference_answer_or_precision_exhausted(factors, bad_starts):
    # the starts only propose centres: whatever they are, the disks either
    # certify the reference's answer or the engine gives up
    f = product(factors)
    with mock.patch.object(polyroots, "_newton_polygon_starts", bad_starts):
        try:
            assert_matches_the_fraction_reference(f, F(1, 2**64))
        except PrecisionExhausted:
            pass


@pytest.mark.parametrize("factors", HARD_CASES)
def test_each_radius_is_n_times_the_correction_at_its_own_centre(factors):
    # r/2^k is n |W_i| at the returned centres, rounded up by less than n/2^k,
    # with W_i = f(z_i) / (lc prod_(j != i) (z_i - z_j)) in Fractions
    ints = polyroots._primitive(_integer_coeffs(product(factors)))
    ints = ints if ints[0] else ints[1:]
    n, lc = len(ints) - 1, ints[-1]
    disks, k = polyroots._weierstrass_disks(ints, 64, 120)
    zs = [(F(x, 2**k), F(y, 2**k)) for x, y, _ in disks]
    for i, (z, (_, _, r)) in enumerate(zip(zs, disks)):
        den = (F(lc), F(0))
        for u, v in zs[:i] + zs[i + 1 :]:
            a, b = z[0] - u, z[1] - v
            den = (den[0] * a - den[1] * b, den[0] * b + den[1] * a)
        num = _complex_horner(poly_from(ints), z)
        w_sq = (num[0] ** 2 + num[1] ** 2) / (den[0] ** 2 + den[1] ** 2) * 4**k
        assert F(r, n) ** 2 >= w_sq
        assert r < n or F(r - n, n) ** 2 < w_sq


# ---------------------------------------------------------------------------
# off-axis boxes against a reference with mpmath seeds (the reference needs
# mpmath, which growthcert does not; without it the test is skipped)


def _mpf_to_fraction(x):
    sign, man, exp, _ = x._mpf_
    v = F(man) * F(2) ** exp
    return -v if sign else v


def _complex_horner(f, z):
    re, im = F(0), F(0)
    for c in reversed(f):
        re, im = re * z[0] - im * z[1] + c, re * z[1] + im * z[0]
    return re, im


def _overlap(x: ComplexInterval, y: ComplexInterval) -> bool:
    return (
        x.re.lo <= y.re.hi and y.re.lo <= x.re.hi and x.im.lo <= y.im.hi and y.im.lo <= x.im.hi
    )


def reference_weierstrass_boxes(f, dps):
    """Hulls of Weierstrass disks n|W_i| around mpmath's seeds at dps digits, in Fractions."""
    import mpmath

    n = poly_degree(f)
    monic = poly_monic(f)
    with mpmath.workdps(dps):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(monic)]
        approx = mpmath.polyroots(coeffs, maxsteps=100 + 10 * n, extraprec=4 * dps)
        seeds = [(_mpf_to_fraction(r.real), _mpf_to_fraction(r.imag)) for r in approx]
    disks = []
    for i, z in enumerate(seeds):
        num = _complex_horner(monic, z)
        den = (F(1), F(0))
        for j, w in enumerate(seeds):
            if j != i:
                dr, di = z[0] - w[0], z[1] - w[1]
                den = (den[0] * dr - den[1] * di, den[0] * di + den[1] * dr)
        wsq = (num[0] ** 2 + num[1] ** 2) / (den[0] ** 2 + den[1] ** 2)
        disks.append((z[0], z[1], n * sqrt_upper(wsq, 96)))
    boxes = []
    for group in _disk_components(disks):
        edges = [
            min(disks[i][0] - disks[i][2] for i in group),
            max(disks[i][0] + disks[i][2] for i in group),
            min(disks[i][1] - disks[i][2] for i in group),
            max(disks[i][1] + disks[i][2] for i in group),
        ]
        # rounded outward to 2^-(4 dps)
        k = 4 * dps
        ends = [floor(x * 2**k) if i % 2 == 0 else ceil(x * 2**k) for i, x in enumerate(edges)]
        boxes.extend([ComplexInterval(*ends, k)] * len(group))
    return boxes


def reference_off_axis_boxes(f, width):
    """The off-axis boxes of the mpmath route, doubling the digits from 30."""
    import mpmath

    n_complex = poly_degree(f) - len(reference_isolate_real_roots(f))
    dps = 30
    for _ in range(10):
        try:
            boxes = [b for b in reference_weierstrass_boxes(f, dps) if not b.im.contains_zero()]
        except mpmath.libmp.NoConvergence:
            boxes = []
        if len(boxes) == n_complex and all(b.max_width <= width for b in boxes):
            return boxes
        dps *= 2
    raise PrecisionExhausted("reference boxes")


@st.composite
def polys_with_a_nonreal_root(draw):
    """A draw of rational_polys times x^2 + bx + c with b^2 < 4c, whose roots are not real."""
    b = draw(st.integers(-9, 9))
    c = b * b // 4 + draw(st.integers(1, 20))
    return poly_mul(draw(rational_polys()), poly_from([c, b, 1]))


@settings(max_examples=40, deadline=None)
@given(polys_with_a_nonreal_root(), st.integers(1, 200))
def test_off_axis_boxes_match_the_mpmath_reference(f, k):
    mpmath = pytest.importorskip("mpmath")
    g = reference_squarefree_part(f)
    assert len(reference_isolate_real_roots(g)) < poly_degree(g)
    width = F(1, 2**k)
    _, boxes = certified_root_structure(g, width)
    ref = reference_off_axis_boxes(g, width)
    assert len(boxes) == len(ref)
    coeffs = _integer_coeffs(g)
    # the roots must be good to well below the width, and a root's error
    # grows with the height of the coefficients
    prec = 300 + 2 * (k + max(abs(c).bit_length() for c in coeffs))
    with mpmath.workprec(prec):
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=2 * prec)
        roots = [(_mpf_to_fraction(r.real), _mpf_to_fraction(r.imag)) for r in roots]
    for b in boxes:
        inside = [r for r in roots if b.contains(*r)]
        assert inside
        assert any(_overlap(b, rb) for rb in ref if rb.contains(*inside[0]))

