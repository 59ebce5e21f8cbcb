import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthcert.errors import SingularEnclosure
from growthcert.exactnum import SquareMatrix
from growthcert.intervals import (
    ComplexInterval,
    RationalInterval,
    cmat_det_small,
    cmat_from_exact,
    cmat_inverse,
    cmat_mul,
    cmat_sub,
    dyadic_ceil,
    dyadic_floor,
    sqrt_lower,
    sqrt_upper,
)
from growthcert.spectra import adjugate_poly
from growthcert.wordforge import _eigenbasis, _root_boxes, diagonalize

M = SquareMatrix.from_rows


def cmat_contains_exact(a, m) -> bool:
    """True when every exact entry of m lies in the corresponding box."""
    rows = m.entries if hasattr(m, "entries") else m
    return all(
        box.contains(F(x)) for brow, mrow in zip(a, rows) for box, x in zip(brow, mrow)
    )


def reference_mul(a, b):
    """General interval product: the hull of the four endpoint products."""
    cands = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return RationalInterval(min(cands), max(cands))


def reference_cmul(z, w):
    """Box product with all four real-interval terms multiplied out."""
    return ComplexInterval(
        reference_mul(z.re, w.re) - reference_mul(z.im, w.im),
        reference_mul(z.re, w.im) + reference_mul(z.im, w.re),
    )


ZERO = RationalInterval.point(0)
RATIONALS = st.one_of(st.just(F(0)), st.fractions(-9, 9, max_denominator=8))
POINTS = RATIONALS.map(RationalInterval.point)
SPANS = (
    st.tuples(RATIONALS, RATIONALS)
    .filter(lambda t: t[0] != t[1])
    .map(lambda t: RationalInterval(min(t), max(t)))
)
NONZERO_IMS = st.one_of(POINTS, SPANS).filter(lambda iv: iv != ZERO)


def cmat_identity(n: int):
    return tuple(
        tuple(ComplexInterval.point(1 if i == j else 0) for j in range(n))
        for i in range(n)
    )


def test_dyadic_bracketing():
    rng = random.Random(3)
    for _ in range(200):
        x = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        lo, hi = dyadic_floor(x, 20), dyadic_ceil(x, 20)
        assert lo <= x <= hi
        assert hi - lo <= 4 * abs(x) * F(1, 2**20)  # ~20 significant bits
        assert lo.denominator & (lo.denominator - 1) == 0  # power of two


def test_sqrt_bounds():
    assert sqrt_lower(F(4)) == 2
    assert sqrt_upper(F(4)) == 2
    rng = random.Random(17)
    for _ in range(100):
        x = F(rng.randint(0, 10**8), rng.randint(1, 10**4))
        lo, hi = sqrt_lower(x, 48), sqrt_upper(x, 48)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= F(1, 2**40)


def test_rational_interval_arithmetic():
    a = RationalInterval(F(1), F(2))
    b = RationalInterval(F(-3), F(-1))
    assert (a + b) == RationalInterval(F(-2), F(1))
    assert (a * b) == RationalInterval(F(-6), F(-1))
    assert a.contains(F(3, 2))
    assert not a.contains(F(3))
    assert RationalInterval(F(-1), F(1)).contains_zero()
    with pytest.raises(ValueError):
        RationalInterval(F(2), F(1))


def test_rational_interval_containment_is_preserved():
    # interval arithmetic must contain the corresponding exact arithmetic
    rng = random.Random(29)
    for _ in range(150):
        x = F(rng.randint(-50, 50), rng.randint(1, 20))
        y = F(rng.randint(-50, 50), rng.randint(1, 20))
        ix = RationalInterval(x - F(1, 64), x + F(1, 64))
        iy = RationalInterval(y - F(1, 64), y + F(1, 64))
        assert (ix + iy).contains(x + y)
        assert (ix * iy).contains(x * y)
        assert ix.pow_int(3).contains(x**3)


@pytest.mark.parametrize(
    "left, right",
    [(POINTS, POINTS), (POINTS, SPANS), (SPANS, POINTS), (SPANS, SPANS)],
    ids=["point-point", "point-interval", "interval-point", "interval-interval"],
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_interval_product_matches_four_products(left, right, data):
    a, b = data.draw(left), data.draw(right)
    prod = a * b
    assert prod == reference_mul(a, b)
    assert type(prod.lo) is F and type(prod.hi) is F


@pytest.mark.parametrize("self_im_zero", [True, False], ids=["z_real", "z_box"])
@pytest.mark.parametrize("other_im_zero", [True, False], ids=["w_real", "w_box"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_box_product_matches_four_terms(self_im_zero, other_im_zero, data):
    def box(im_zero):
        re = data.draw(st.one_of(POINTS, SPANS))
        return ComplexInterval(re, ZERO if im_zero else data.draw(NONZERO_IMS))

    z, w = box(self_im_zero), box(other_im_zero)
    assert z * w == reference_cmul(z, w)


def test_complex_interval_mag():
    z = ComplexInterval.point(F(3), F(4))
    m = z.mag(64)
    assert m.contains(F(5))
    assert m.hi - m.lo <= F(1, 2**48)
    zero = ComplexInterval.point(F(0))
    assert zero.mag().lo == 0


def test_complex_interval_products_contain_truth():
    rng = random.Random(41)
    for _ in range(100):
        a_re, a_im = F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 4)
        b_re, b_im = F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 4)
        za = ComplexInterval.point(a_re, a_im)
        zb = ComplexInterval.point(b_re, b_im)
        prod = za * zb
        assert prod.contains(a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re)
        assert (za + zb).contains(a_re + b_re, a_im + b_im)
        assert za.pow_int(4).contains(
            (a_re**2 - a_im**2) ** 2 - (2 * a_re * a_im) ** 2,
            2 * (a_re**2 - a_im**2) * (2 * a_re * a_im),
        )


def test_cmat_mul_matches_exact():
    rng = random.Random(53)
    for _ in range(30):
        a = M([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        b = M([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        prod = cmat_mul(cmat_from_exact(a), cmat_from_exact(b))
        assert cmat_contains_exact(prod, a * b)


def test_cmat_det_small_contains_exact_det():
    rng = random.Random(59)
    for _ in range(30):
        a = M([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        det = cmat_det_small(cmat_from_exact(a))
        assert det.contains(a.det())


def test_cmat_inverse_contains_exact_inverse():
    rng = random.Random(61)
    done = 0
    while done < 20:
        a = M([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        if a.det() == 0:
            continue
        inv = cmat_inverse(cmat_from_exact(a), round_bits=256)
        assert cmat_contains_exact(inv, a.inverse())
        prod = cmat_mul(cmat_from_exact(a), inv)
        assert cmat_contains_exact(prod, SquareMatrix.identity(3))
        done += 1


def test_cmat_inverse_rejects_singular():
    singular = M([[1, 2], [2, 4]])
    with pytest.raises(SingularEnclosure):
        cmat_inverse(cmat_from_exact(singular))


def test_cmat_sub_identity():
    a = cmat_from_exact(M([[1, 2], [3, 4]]))
    z = cmat_sub(a, a)
    assert cmat_contains_exact(z, M([[0, 0], [0, 0]]))
    assert cmat_contains_exact(cmat_identity(2), SquareMatrix.identity(2))


@pytest.mark.parametrize(
    "p_rows, lambdas",
    [
        ([[1, 2], [1, 3]], [F(5, 2), F(-1, 3)]),
        ([[1, 1, 0], [0, 1, 2], [1, 0, 1]], [F(-4), F(3, 2), F(1, 5)]),
    ],
)
@pytest.mark.parametrize("bits", [64, 128])
def test_enclosed_eigenbasis_contains_exact_eigenbasis(p_rows, lambdas, bits):
    # A = P diag(lambda) P^-1 with distinct moduli: exact roots and root boxes
    # sort alike; the boxes run the interval evaluation that diagonalize
    # keeps for spectra that do not split over Q
    def diag(values):
        return [[x if i == j else 0 for j in range(len(values))] for i, x in enumerate(values)]

    p = M(p_rows)
    a = p * M(diag(lambdas)) * p.inverse()
    exact, _, _ = diagonalize(a)
    f, d, mats = adjugate_poly(a)
    boxes = _root_boxes(f, a, bits)
    p_enc, p_inv_enc = _eigenbasis(d, mats, boxes, bits)
    assert list(exact) == sorted(lambdas, key=lambda lam: -abs(lam))
    assert len(boxes) == len(exact)
    assert all(box.contains(lam) for box, lam in zip(boxes, exact))
    conj = cmat_mul(p_inv_enc, cmat_mul(cmat_from_exact(a), p_enc))
    assert cmat_contains_exact(conj, diag(exact))
