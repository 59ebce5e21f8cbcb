import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthcert import polyroots
from growthcert.errors import PrecisionExhausted
from growthcert.intervals import RationalInterval
from growthcert.polyroots import (
    _integer_coeffs,
    _nonroot_point,
    _sign_variations,
    cauchy_bound,
    certified_root_structure,
    isolate_real_roots,
    modulus_enclosures,
    poly_degree,
    poly_deriv,
    poly_div_exact,
    poly_eval,
    poly_from,
    poly_gcd,
    rational_roots,
    refine_real_root,
    squarefree_part,
    sturm_chain,
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


def count_real_roots(f, a, b, chain=None) -> int:
    """Distinct real roots of squarefree f in the half-open interval (a, b]."""
    chain = chain or sturm_chain(f)
    return _sign_variations(chain, a) - _sign_variations(chain, b)


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


def reference_refine_real_root(f, iv, width):
    """Dyadic bisection that counts Sturm sign variations at every step (the reference).

    It takes the dyadic isolating intervals that isolate_real_roots gives.
    """
    assert all(x.denominator & (x.denominator - 1) == 0 for x in (iv.lo, iv.hi))
    chain = sturm_chain(f)
    lo, hi = iv.lo, iv.hi
    v_lo = _sign_variations(chain, lo)
    while hi - lo > width:
        mid = _reference_nonroot_point(f, lo, hi)
        v_mid = _sign_variations(chain, mid)
        if v_lo - v_mid == 1:
            hi = mid
        else:
            lo, v_lo = mid, v_mid
    return RationalInterval(lo, hi)


def _outcome(fn, *args):
    """fn's result, or the type of PrecisionExhausted when it gives up."""
    try:
        return fn(*args)
    except PrecisionExhausted:
        return PrecisionExhausted


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
    gcd = poly_gcd(f, g)
    assert rational_roots(gcd) == [F(1)]
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
    new = (rational_roots(f), _outcome(certified_root_structure, f, width))
    with mock.patch.object(polyroots, "refine_real_root", reference_refine_real_root):
        ref = (rational_roots(f), _outcome(certified_root_structure, f, width))
    assert new == ref


def test_refine_takes_fallback_when_midpoint_is_the_root():
    # (2x - 1)(x - 3)(x + 5): (0, 1] isolates 1/2, its midpoint
    f = poly_mul(poly_mul(poly_from([-1, 2]), poly_from([-3, 1])), poly_from([5, 1]))
    assert poly_eval(f, F(1, 2)) == 0
    assert _nonroot_point(_integer_coeffs(f), F(0), F(1)) == (F(1, 4), 1)
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
    assert _nonroot_point(ints, F(0), F(1))[0] == (F(1, 4) if F(1, 2) in rational else F(1, 2))


def test_refine_snaps_non_dyadic_ends_without_catching_a_neighbor():
    # (x - 1/3)(x - 3/7): (34/100, 1/2] isolates 3/7, and its outward snap to
    # sixteenths reaches 5/16 < 1/3, past the other root
    f = poly_mul(poly_from([F(-1, 3), 1]), poly_from([F(-3, 7), 1]))
    iv = RationalInterval(F(34, 100), F(1, 2))
    for width in (F(1, 4), F(1, 2**10), F(1, 2**100)):
        tight = refine_real_root(f, iv, width)
        assert tight.lo < F(3, 7) <= tight.hi and tight.hi - tight.lo <= width
        assert iv.lo <= tight.lo and tight.hi <= iv.hi
        assert not tight.contains(F(1, 3))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-40, 40), min_size=2, max_size=6).filter(lambda cs: cs[-1] != 0),
    st.integers(1, 200),
)
def test_refine_contains_the_root_of_non_dyadic_intervals(ints, k):
    # shrink each isolating interval to non-dyadic ends a third of the way in
    f = poly_from(ints)
    assume(poly_degree(poly_gcd(f, poly_deriv(f))) == 0)
    width = F(1, 2**k)
    chain = sturm_chain(f)
    for iv in isolate_real_roots(f):
        near = refine_real_root(f, iv, (iv.hi - iv.lo) / 64)
        lo = near.lo - (near.lo - iv.lo) / 3 if near.lo > iv.lo else near.lo
        hi = near.hi + (iv.hi - near.hi) / 3
        assume(poly_eval(f, lo) != 0)
        tight = refine_real_root(f, RationalInterval(lo, hi), width)
        assert tight.hi - tight.lo <= width
        assert lo <= tight.lo and tight.hi <= hi
        assert count_real_roots(f, tight.lo, tight.hi, chain) == 1
