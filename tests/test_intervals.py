import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthcert.errors import SingularEnclosure
from growthcert.exactnum import SquareMatrix
from growthcert.intervals import (
    ComplexInterval,
    RationalInterval,
    cmat_inverse,
    cmat_mul,
    sqrt_upper,
)
from growthcert.spectra import compound

M = SquareMatrix.from_rows


def enclosing_box(re_lo, re_hi, im_lo, im_hi, k: int) -> ComplexInterval:
    """The box over 2^-k with the ends floor(lo * 2^k) and ceil(hi * 2^k): exact on dyadic edges."""
    lo, hi = (lambda x: math.floor(x * 2**k)), (lambda x: math.ceil(x * 2**k))
    return ComplexInterval(lo(re_lo), hi(re_hi), lo(im_lo), hi(im_hi), k)


def integer_boxes(m: SquareMatrix):
    """An integer matrix as point boxes."""
    return tuple(tuple(ComplexInterval(x, x) for x in row) for row in m.num)


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
    rr, ii = reference_mul(z.re, w.re), reference_mul(z.im, w.im)
    ri, ir = reference_mul(z.re, w.im), reference_mul(z.im, w.re)
    return enclosing_box(rr.lo - ii.hi, rr.hi - ii.lo, ri.lo + ir.lo, ri.hi + ir.hi, z.k + w.k)


ZERO = RationalInterval.point(0)
RATIONALS = st.one_of(st.just(F(0)), st.fractions(-9, 9, max_denominator=8))
POINTS = RATIONALS.map(RationalInterval.point)
SPANS = (
    st.tuples(RATIONALS, RATIONALS)
    .filter(lambda t: t[0] != t[1])
    .map(lambda t: RationalInterval(min(t), max(t)))
)
NONZERO_IMS = st.one_of(POINTS, SPANS).filter(lambda iv: iv != ZERO)


def test_sqrt_bounds():
    assert sqrt_upper(F(4)) == 2
    rng = random.Random(17)
    for _ in range(100):
        x = F(rng.randint(0, 10**8), rng.randint(1, 10**4))
        hi = sqrt_upper(x, 48)
        lo = max(F(0), hi - F(1, 2**40))
        assert lo * lo <= x <= hi * hi


def test_rational_interval_arithmetic():
    a = RationalInterval(F(1), F(2))
    b = RationalInterval(F(-3), F(-1))
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
        assert (ix * iy).contains(x * y)
        assert (-ix).contains(-x)
        assert ix.abs_interval().contains(abs(x))


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
        im = ZERO if im_zero else data.draw(NONZERO_IMS)
        return enclosing_box(re.lo, re.hi, im.lo, im.hi, data.draw(st.integers(0, 12)))

    z, w = box(self_im_zero), box(other_im_zero)
    assert z * w == reference_cmul(z, w)


def test_complex_interval_mag():
    z = ComplexInterval(3, 3, 4, 4)
    m = z.mag(64)
    assert m.contains(F(5))
    assert m.hi - m.lo <= F(1, 2**48)
    zero = ComplexInterval(0, 0)
    assert zero.mag().lo == 0


def test_complex_interval_products_contain_truth():
    rng = random.Random(41)
    for _ in range(100):
        a_re, a_im = F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 4)
        b_re, b_im = F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 4)
        za = enclosing_box(a_re, a_re, a_im, a_im, 2)
        zb = enclosing_box(b_re, b_re, b_im, b_im, 2)
        prod = za * zb
        assert prod.contains(a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re)
        assert (za + zb).contains(a_re + b_re, a_im + b_im)


def test_cmat_mul_matches_exact():
    rng = random.Random(53)
    for _ in range(30):
        a = M([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        b = M([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        prod = cmat_mul(integer_boxes(a), integer_boxes(b))
        assert cmat_contains_exact(prod, a * b)


def test_compound_of_boxes_contains_exact_det():
    rng = random.Random(59)
    for _ in range(30):
        a = M([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        (det,), = compound(integer_boxes(a), 3, ComplexInterval(0, 0))
        assert det.contains(a.det())


def test_cmat_inverse_contains_exact_inverse():
    rng = random.Random(61)
    done = 0
    while done < 20:
        a = M([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        if a.det() == 0:
            continue
        inv = cmat_inverse(integer_boxes(a), round_bits=256)
        assert cmat_contains_exact(inv, a.inverse())
        prod = cmat_mul(integer_boxes(a), inv)
        assert cmat_contains_exact(prod, SquareMatrix.identity(3))
        done += 1


def test_cmat_inverse_rejects_singular():
    singular = M([[1, 2], [2, 4]])
    with pytest.raises(SingularEnclosure):
        cmat_inverse(integer_boxes(singular))


# ---------------------------------------------------------------------------
# containment: for exact rationals inside the input boxes, the exact
# Fraction result lies inside the dyadic result


EXACT = st.fractions(-9, 9, max_denominator=12)
RADII = st.one_of(st.just(F(0)), st.fractions(0, 1, max_denominator=16))


@st.composite
def boxes(draw, nonzero: bool = False):
    """(box, (re, im)): a rational box around an exact point, entered at a drawn precision.

    Non-dyadic edges round outward, so the point stays inside.
    """
    re = draw(EXACT)
    im = draw(st.one_of(st.just(F(0)), EXACT))
    if nonzero:
        assume(re or im)
    edges = (re - draw(RADII), re + draw(RADII), im - draw(RADII), im + draw(RADII))
    box = enclosing_box(*edges, draw(st.integers(4, 80)))
    assert box.contains(re, im)
    return box, (re, im)


def cmul(z, w):
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def cinv(z):
    den = z[0] ** 2 + z[1] ** 2
    return (z[0] / den, -z[1] / den)


def nonsingular(box) -> bool:
    return box.mag_sq().lo > 0


@settings(max_examples=150, deadline=None)
@given(boxes(), boxes())
def test_box_sum_difference_and_product_contain_the_exact_results(x, y):
    (zb, z), (wb, w) = x, y
    assert (zb + wb).contains(z[0] + w[0], z[1] + w[1])
    assert (zb - wb).contains(z[0] - w[0], z[1] - w[1])
    assert (-zb).contains(-z[0], -z[1])
    assert (zb * wb).contains(*cmul(z, w))


@settings(max_examples=150, deadline=None)
@given(boxes(nonzero=True), st.integers(8, 300))
def test_box_recip_contains_the_exact_result(x, bits):
    zb, z = x
    assume(nonsingular(zb))
    assert zb.recip(bits).contains(*cinv(z))


def test_box_recip_rejects_a_box_around_zero():
    with pytest.raises(SingularEnclosure):
        enclosing_box(F(-1, 3), F(1, 2), 0, 0, 8).recip()


@settings(max_examples=150, deadline=None)
@given(boxes(), st.integers(1, 128))
def test_box_mag_contains_the_exact_modulus(x, bits):
    zb, z = x
    m = zb.mag(bits)
    lo, hi = m.lo, m.hi
    sq = z[0] ** 2 + z[1] ** 2
    assert 0 <= lo and lo * lo <= sq <= hi * hi
    assert zb.mag_sq().contains(sq)


@settings(max_examples=150, deadline=None)
@given(boxes(), st.integers(1, 64))
def test_box_round_out_contains_the_box_and_keeps_its_bits(x, bits):
    zb, z = x
    rounded = zb.round_out(bits)
    assert rounded.contains(*z)
    for part, wider in ((zb.re, rounded.re), (zb.im, rounded.im)):
        assert wider.lo <= part.lo and part.hi <= wider.hi
    # an upper end rounded up may carry into one more bit
    if rounded is not zb:
        ends = (rounded.rl, rounded.rh, rounded.il, rounded.ih)
        assert max(abs(v) for v in ends).bit_length() <= bits + 1


@st.composite
def box_matrices(draw, n):
    cells = [[draw(boxes()) for _ in range(n)] for _ in range(n)]
    return (
        tuple(tuple(box for box, _ in row) for row in cells),
        [[z for _, z in row] for row in cells],
    )


def exact_cmat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = (F(0), F(0))
            for t in range(n):
                p = cmul(a[i][t], b[t][j])
                acc = (acc[0] + p[0], acc[1] + p[1])
            row.append(acc)
        out.append(row)
    return out


def exact_cdet(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    acc = (F(0), F(0))
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in a[1:]]
        term = cmul(a[0][j], exact_cdet(minor))
        sign = 1 if j % 2 == 0 else -1
        acc = (acc[0] + sign * term[0], acc[1] + sign * term[1])
    return acc


def all_contained(boxes_rows, exact_rows) -> bool:
    return all(b.contains(*z) for br, zr in zip(boxes_rows, exact_rows) for b, z in zip(br, zr))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(box_matrices(n), box_matrices(n))),
       st.sampled_from([None, 16, 256]))
def test_cmat_mul_contains_the_exact_product(pair, round_bits):
    (ab, a), (bb, b) = pair
    assert all_contained(cmat_mul(ab, bb, round_bits), exact_cmat_mul(a, b))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(box_matrices))
def test_compound_of_boxes_contains_the_exact_minors(mat):
    ab, a = mat
    n = len(a)
    for m in range(1, n + 1):
        subs = list(itertools.combinations(range(n), m))
        exact = [[exact_cdet([[a[i][j] for j in c] for i in r]) for c in subs] for r in subs]
        assert all_contained(compound(ab, m, ComplexInterval(0, 0)), exact)


@st.composite
def raw_boxes(draw):
    """A box straight from its mantissas, over 2^-k for k from -20 to 20."""
    re = sorted(draw(st.lists(st.integers(-(2**40), 2**40), min_size=2, max_size=2)))
    im = sorted(draw(st.lists(st.integers(-(2**40), 2**40), min_size=2, max_size=2)))
    return ComplexInterval(*re, *im, draw(st.integers(-20, 20)))


def box_fields(x):
    return x.rl, x.rh, x.il, x.ih, x.k


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(raw_boxes(), min_size=3, max_size=3), min_size=3, max_size=3))
def test_compound_of_boxes_sums_from_zero(a):
    # an order-3 sum starts from zero, so a box over a coarse power of two
    # (k < 0) comes out over zero's 2^0, as the written-out expansion does
    zero = ComplexInterval(0, 0)

    def det2(i, j):
        return a[1][i] * a[2][j] - a[1][j] * a[2][i]

    want = zero + a[0][0] * det2(1, 2) - a[0][1] * det2(0, 2) + a[0][2] * det2(0, 1)
    (got,), = compound(a, 3, zero)
    assert box_fields(got) == box_fields(want)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(box_matrices), st.sampled_from([None, 64, 256]))
def test_cmat_inverse_contains_the_exact_inverse(mat, round_bits):
    ab, a = mat
    n = len(a)
    det = exact_cdet(a)
    assume(det != (0, 0))
    try:
        inv = cmat_inverse(ab, round_bits)
    except SingularEnclosure:
        assume(False)
    # the exact inverse is adj(a) / det(a), from cofactors
    exact = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[a[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = exact_cdet(minor) if n > 1 else (F(1), F(0))
            sign = 1 if (i + j) % 2 == 0 else -1
            exact[j][i] = cmul((sign * cof[0], sign * cof[1]), cinv(det))
    assert all_contained(inv, exact)
