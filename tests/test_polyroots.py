"""Polynomial kernel tests.

The Fraction kernel below (long division, Fraction Sturm sign variations,
bisection to the rational-root grid) is the reference for the integer
kernel in polyroots: every integer routine must give exactly its answers.
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
    _deriv,
    _disk_components,
    _gcd,
    _integer_coeffs,
    _nonroot_point,
    _remainder_sequence,
    cauchy_bound,
    certified_root_structure,
    isolate_real_roots,
    modulus_enclosures,
    poly_degree,
    poly_deriv,
    poly_from,
    poly_monic,
    rational_roots,
    refine_real_root,
    squarefree_part,
    yun_decomposition,
)
from test_wordforge import _overlap


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


def reference_refine_real_root(f, iv, width):
    """Dyadic bisection that counts Sturm sign variations at every step (the reference).

    It takes the dyadic isolating intervals that isolate_real_roots gives.
    """
    assert all(x.denominator & (x.denominator - 1) == 0 for x in (iv.lo, iv.hi))
    chain = sturm_chain(f)
    lo, hi = iv.lo, iv.hi
    v_lo = sign_variations(chain, lo)
    while hi - lo > width:
        mid = _reference_nonroot_point(f, lo, hi)
        v_mid = sign_variations(chain, mid)
        if v_lo - v_mid == 1:
            hi = mid
        else:
            lo, v_lo = mid, v_mid
    return RationalInterval(lo, hi)


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


def _outcome(fn, *args):
    """fn's result, or the type of the exception with which it gives up."""
    try:
        return fn(*args)
    except PrecisionExhausted as exc:
        return type(exc)


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
    # 1/3^200 lies far inside any fixed-width bisection interval around it
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
    # x^3 - 10x^2 + x: (11/256, 11/64] isolates 5 - sqrt(24) and holds no
    # point of the grid Z, so no point is tested there (not even 0, a root)
    f = poly_from([0, 1, -10, 1])
    assert isolate_real_roots(f)[1] == RationalInterval(F(11, 256), F(11, 64))
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
    roots = [F(-3, 2), F(1, 3), F(2)]
    f = _poly_with_roots(roots)
    ivs = isolate_real_roots(f)
    assert len(ivs) == 3
    for iv, r in zip(sorted(ivs, key=lambda i: i.lo), roots):
        tight = refine_real_root(f, iv, F(1, 2**30))
        assert tight.contains(r)
        assert tight.hi - tight.lo <= F(1, 2**30)


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
    # and 10^-150, each polished on its own grid
    a, d = 10**300 + 7, -(10**300) + 3
    f = poly_mul(poly_from([F(3), F(2), F(a)]), poly_from([F(d), F(1)]))
    start = time.perf_counter()
    real_ivs, boxes = certified_root_structure(f, F(1, 2**200))
    assert time.perf_counter() - start < 10
    assert len(real_ivs) == 1 and real_ivs[0].contains(F(-d))
    assert len(boxes) == 2
    assert all(b.mag_sq().lo <= F(3, a) <= b.mag_sq().hi for b in boxes)


@pytest.mark.parametrize(
    "factors, n_real, roots",
    [
        # hull points (0, 1), (2, 2), (3, 2), (4, 1): two edges whose slopes
        # round to the same circle
        ([[1, 1, 2, 3, 1]], 2, []),
        # two conjugate pairs 10^-40 apart: the seeds resolve the cluster
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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-40, 40), min_size=2, max_size=7).filter(lambda cs: cs[-1] != 0),
    st.integers(1, 300),
)
def test_sign_bisection_matches_sturm_bisection(ints, k):
    f = poly_from(ints)
    assume(poly_degree(poly_gcd(f, poly_deriv(f))) == 0)
    width = F(1, 2**k)
    for iv in isolate_real_roots(f):
        assert refine_real_root(f, iv, width) == reference_refine_real_root(f, iv, width)
    new = _outcome(certified_root_structure, f, width)
    with mock.patch.object(polyroots, "refine_real_root", reference_refine_real_root):
        ref = _outcome(certified_root_structure, f, width)
    assert new == ref


def test_refine_takes_fallback_when_midpoint_is_the_root():
    # (2x - 1)(x - 3)(x + 5): (0, 1] isolates 1/2, its midpoint
    f = poly_mul(poly_mul(poly_from([-1, 2]), poly_from([-3, 1])), poly_from([5, 1]))
    assert poly_eval(f, F(1, 2)) == 0
    # 1/4 = 1/2^2, where f > 0
    assert _nonroot_point(_integer_coeffs(f), 0, 1, 0) == (1, 2, 1)
    iv = RationalInterval(F(0), F(1))
    for width in (F(1, 2), F(1, 2**20), F(1, 2**200)):
        tight = refine_real_root(f, iv, width)
        assert tight == reference_refine_real_root(f, iv, width)
        assert tight.lo < F(1, 2) <= tight.hi
    with pytest.raises(ValueError):
        refine_real_root(f, RationalInterval(F(1, 2), F(1)), F(1, 2**10))


@pytest.mark.parametrize(
    "factors, rational",
    [
        ([[F(-1, 2), 1], [-2, 0, 1]], [F(1, 2)]),
        ([[F(-3, 4), 1], [F(5, 8), 1], [-3, 0, 1]], [F(-5, 8), F(3, 4)]),
    ],
    ids=["(x-1/2)(x^2-2)", "(x-3/4)(x+5/8)(x^2-3)"],
)
def test_refine_steps_around_rational_roots_on_dyadic_midpoints(factors, rational):
    f = poly_from([1])
    for factor in factors:
        f = poly_mul(f, poly_from(factor))
    assert rational_roots(f) == rational
    ints = _integer_coeffs(f)
    for width in (F(1, 2), F(1, 2**20), F(1, 2**64), F(1, 2**256)):
        for iv in isolate_real_roots(f):
            tight = refine_real_root(f, iv, width)
            assert tight == reference_refine_real_root(f, iv, width)
            assert tight.hi - tight.lo <= width
            assert all(x.denominator & (x.denominator - 1) == 0 for x in (tight.lo, tight.hi))
            assert iv.lo <= tight.lo and tight.hi <= iv.hi
            assert count_real_roots(f, tight.lo, tight.hi) == 1
    # where the midpoint 1/2 of (0, 1] is a root, the next candidate is 1/4
    m, j, _ = _nonroot_point(ints, 0, 1, 0)
    assert F(m, 2**j) == (F(1, 4) if F(1, 2) in rational else F(1, 2))


def test_refine_keeps_an_interval_already_below_the_width():
    # x - 10x^2: (-1/16, 1/32] isolates 0 across zero, so no grid is searched
    f = poly_from([0, 1, -10])
    assert isolate_real_roots(f)[0] == RationalInterval(F(-1, 16), F(1, 32))
    for iv in isolate_real_roots(f):
        for width in (iv.hi - iv.lo, F(1, 2)):
            assert refine_real_root(f, iv, width) == iv


def test_refine_rejects_a_non_dyadic_end():
    # (x - 1/3)(x - 3/7): (34/100, 1/2] isolates 3/7, but 34/100 is no
    # integer over a power of two
    f = poly_mul(poly_from([F(-1, 3), 1]), poly_from([F(-3, 7), 1]))
    for iv in (RationalInterval(F(34, 100), F(1, 2)), RationalInterval(F(3, 8), F(3, 7))):
        with pytest.raises(ValueError, match="non-dyadic"):
            refine_real_root(f, iv, F(1, 2**10))
    assert refine_real_root(f, RationalInterval(F(3, 8), F(1, 2)), F(1, 2**10)).contains(F(3, 7))


def test_remainder_sequence_is_the_sturm_chain_up_to_positive_factors():
    f = _poly_with_roots([F(-1), F(1, 3), F(2), F(5, 2)])
    f = poly_mul(f, poly_from([F(1, 7), F(-3), F(-2)]))  # -2x^2 - 3x + 1/7
    ints = _integer_coeffs(f)
    chain = sturm_chain(f)
    seq = _remainder_sequence(ints, _deriv(ints))
    assert len(seq) == len(chain)
    for member, ref in zip(seq, chain):
        scale = member[-1] / ref[-1]
        assert scale > 0 and poly_from(member) == tuple(scale * c for c in ref)


def test_rational_roots_far_apart_in_scale():
    # the grid j/a has a = 10^600: bisection down to width 1/a took about
    # 4,000 steps per root, the Newton bracket a few dozen
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


@settings(max_examples=40, deadline=None)
@given(rational_polys(), st.integers(1, 200))
def test_real_roots_match_the_fraction_reference(f, k):
    g = reference_squarefree_part(f)
    width = F(1, 2**k)
    assert isolate_real_roots(g) == reference_isolate_real_roots(g)
    assert rational_roots(g) == reference_rational_roots(g)
    new = _outcome(certified_root_structure, g, width)
    with mock.patch.multiple(
        polyroots,
        isolate_real_roots=reference_isolate_real_roots,
        refine_real_root=reference_refine_real_root,
    ):
        ref = _outcome(certified_root_structure, g, width)
    assert new == ref


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
        boxes.extend([ComplexInterval.from_box(*edges, 4 * dps)] * len(group))
    return boxes


def reference_off_axis_boxes(f, width):
    """The off-axis boxes of the mpmath route, doubling the digits from 30."""
    import mpmath

    n_complex = poly_degree(f) - len(isolate_real_roots(f))
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


@settings(max_examples=40, deadline=None)
@given(rational_polys(), st.integers(1, 200))
def test_off_axis_boxes_match_the_mpmath_reference(f, k):
    mpmath = pytest.importorskip("mpmath")
    g = reference_squarefree_part(f)
    assume(len(isolate_real_roots(g)) < poly_degree(g))
    width = F(1, 2**k)
    _, boxes = certified_root_structure(g, width)
    ref = reference_off_axis_boxes(g, width)
    assert len(boxes) == len(ref)
    with mpmath.workprec(300):
        roots = mpmath.polyroots(_integer_coeffs(g)[::-1], maxsteps=200, extraprec=600)
        roots = [(_mpf_to_fraction(r.real), _mpf_to_fraction(r.imag)) for r in roots]
    for b in boxes:
        inside = [r for r in roots if b.contains(*r)]
        assert inside
        assert any(_overlap(b, rb) for rb in ref if rb.contains(*inside[0]))

