"""Basis building: balancing, role swaps, wedges, amplification, algebras."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthcert import pipeline, wordforge
from growthcert.errors import (
    BalanceFailed,
    Inconclusive,
    L2Unreachable,
    NoGap,
    NotConnected,
    PipelineFailure,
    SingularEnclosure,
    SwapFailed,
)
from growthcert.exactnum import (
    ARCH,
    Place,
    PlaceSet,
    SquareMatrix,
    Word,
    abs_value,
    evaluate_word,
    s_support,
)
from growthcert.intervals import sqrt_upper
from growthcert.polyroots import certified_root_structure, rational_roots, squarefree_part
from growthcert.spectra import (
    arch_moduli,
    char_poly,
    l1_gap_report,
    newton_polygon_valuations,
)
from growthcert.wordforge import (
    AlmostAlgebra,
    ConjugatedPair,
    _frob,
    _modulus_key,
    _project_residual,
    _rows_mul,
    amplify_entry,
    balance_or_trace,
    build_almost_algebra,
    diagonalize,
    diagonalized_pair,
    ensure_l2,
    select_place_and_wedge,
    swap_roles,
    wedge_pair,
)
from test_exactnum import reference_row_reduce

M = SquareMatrix.from_rows
S0 = PlaceSet(())
WA, WB = Word.parse("0"), Word.parse("1")


def algebra_defect(aa: AlmostAlgebra, assoc_cap: int = 8) -> F:
    """Largest normalized product-to-span distance, with associativity folded in.

    Exactly zero if and only if the span is closed under products (a
    subspace closed under matrix multiplication is automatically an
    associative algebra).  The structure-constant associativity defect is
    computed only up to assoc_cap dimensions; beyond that the product part
    already decides exactness.
    """
    ortho = aa.ortho_basis
    dim = len(ortho)
    norms = [_frob(o, o) for o in ortho]
    worst_sq = F(0)
    coeff = {}
    for ii in range(dim):
        for jj in range(dim):
            prod = _rows_mul(ortho[ii], ortho[jj])
            res, cs = _project_residual(prod, ortho)
            coeff[(ii, jj)] = cs
            worst_sq = max(worst_sq, _frob(res, res) / (norms[ii] * norms[jj]))
    if dim <= assoc_cap:
        for ii in range(dim):
            for jj in range(dim):
                for kk in range(dim):
                    delta_sq = F(0)
                    for ll in range(dim):
                        lhs = sum(coeff[(ii, jj)][mm] * coeff[(mm, kk)][ll] for mm in range(dim))
                        rhs = sum(coeff[(jj, kk)][mm] * coeff[(ii, mm)][ll] for mm in range(dim))
                        delta_sq += (lhs - rhs) ** 2 * norms[ll]
                    worst_sq = max(worst_sq, delta_sq / (norms[ii] * norms[jj] * norms[kk]))
    return F(0) if worst_sq == 0 else sqrt_upper(worst_sq, 64)


def diag(*entries):
    n = len(entries)
    return M([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def manual_pair(a, exact=True, relation="B_prec_A", trace_m=None, b=None):
    b = b if b is not None else SquareMatrix.identity(a.n)
    ident = SquareMatrix.identity(a.n)
    return ConjugatedPair(
        orig_a=a,
        orig_b=b,
        word_a=WA,
        word_b=WB,
        basis=ident,
        basis_inv=ident,
        a_diag=tuple(a.entries[i][i] for i in range(a.n)),
        b_conj=b,
        exact=exact,
        sort_place=ARCH,
        bits=128,
        norm_relation=relation,
        constants=(F(1), F(1)),
        trace_m=trace_m,
    )


def balance(a, b):
    """balance_or_trace on the canonical pair of (A, B) = (a, b)."""
    return balance_or_trace(diagonalized_pair(a, b, WA, WB), S0)


def test_balance_direct_norm_relation():
    pair = balance(diag(4, F(1, 4)), M([[1, 1], [1, 2]]))
    assert pair.norm_relation == "B_prec_A"
    assert pair.constants == (F(1), F(1))
    assert pair.exact and pair.balanced
    assert pair.a_diag == (F(4), F(1, 4))
    assert pair.b_conj == M([[1, 1], [1, 2]])
    assert str(pair.word_b) == "1"


def test_balance_centralizer_rescale():
    # a power-of-2 diagonal conjugation tames the huge corner entry for the
    # norm check (65536 > 4^2 without it); the pair keeps the canonical rows
    canon = diagonalized_pair(diag(4, F(1, 4)), M([[1, 65536], [0, 1]]), WA, WB)
    pair = balance_or_trace(canon, S0)
    assert pair == replace(canon, norm_relation="B_prec_A", constants=(F(1), F(1)))
    assert pair.b_conj == M([[1, 65536], [0, 1]])
    assert pair.basis == pair.basis_inv == SquareMatrix.identity(2)


def test_balance_trace_route_and_swap():
    pair = balance(diag(4, F(1, 4)), diag(1024, F(1, 1024)))
    assert pair.norm_relation == "trace_big"
    assert pair.trace_m == 0
    assert not pair.balanced
    swapped = swap_roles(pair, S0)
    assert swapped.norm_relation == "swapped" and swapped.balanced
    assert swapped.a_diag == (F(1024), F(1, 1024))
    assert swapped.b_conj == diag(4, F(1, 4))
    assert (str(swapped.word_a), str(swapped.word_b)) == ("1", "0")
    # B's canonical pair
    assert swapped == replace(
        diagonalized_pair(diag(1024, F(1, 1024)), diag(4, F(1, 4)), WB, WA),
        norm_relation="swapped",
        constants=(F(1), F(1)),
    )


def test_balance_word_replacement():
    # zero trace and diagonal entries no conjugation can shrink: B itself
    # fails, and B is never replaced by a word such as A B
    with pytest.raises(BalanceFailed):
        balance(diag(4, F(1, 4)), M([[64, 1], [1, -64]]))


def test_balance_failure():
    # tr B = 0: no trace exponent can certify
    cyc = M([[0, 256, 0], [0, 0, 256], [256, 0, 0]])
    with pytest.raises(BalanceFailed):
        balance(diag(4, 1, F(1, 4)), cyc)


def test_balance_rejects_repeated_eigenvalues():
    with pytest.raises(ValueError):
        balance(SquareMatrix.identity(2), M([[1, 1], [1, 2]]))


def test_swap_requires_trace_route():
    pair = balance(diag(4, F(1, 4)), M([[1, 1], [1, 2]]))
    with pytest.raises(ValueError):
        swap_roles(pair, S0)


def test_swap_inequality_gate():
    # trace exponent 1 needs norm(A)^2 <= norm(B): 16 > 2 fails
    pair = manual_pair(diag(4, F(1, 4)), relation="trace_big", trace_m=1, b=diag(2, 2))
    with pytest.raises(SwapFailed):
        swap_roles(pair, S0)


def test_swap_rejects_repeated_eigenvalues():
    # a parabolic B has no eigenbasis: a SwapFailed refusal, not a ValueError
    pair = manual_pair(diag(4, F(1, 4)), relation="trace_big", trace_m=0, b=M([[1, 1], [0, 1]]))
    with pytest.raises(SwapFailed):
        swap_roles(pair, S0)


def test_select_place_and_wedge():
    # 2-adic eigenvalue moduli (4, 1/2, 1/2) beat the archimedean top 2
    a = diag(2, 2, F(1, 4))
    assert select_place_and_wedge(manual_pair(a), l1_gap_report(a, S0, char_poly(a))) == (ARCH, 2)
    s2 = PlaceSet.from_primes([2])
    grid = l1_gap_report(a, s2, char_poly(a))
    assert select_place_and_wedge(manual_pair(a), grid) == (Place.finite(2), 1)
    # an interval basis cannot certify ultrametric bounds: finite is skipped
    assert select_place_and_wedge(manual_pair(a, exact=False), grid) == (ARCH, 2)


def test_select_requires_balanced_pair():
    a = diag(4, F(1, 4))
    grid = l1_gap_report(a, S0, char_poly(a))
    with pytest.raises(ValueError):
        select_place_and_wedge(manual_pair(a, relation="none"), grid)


def test_select_no_gap():
    rot = M([[0, -1], [1, 0]])
    with pytest.raises(NoGap):
        select_place_and_wedge(manual_pair(rot), l1_gap_report(rot, S0, char_poly(rot)))


def reference_place_order(a, s):
    """Places by the top eigenvalue modulus from A's charpoly, largest first.

    The order selection used before it read the moduli off the eigenbasis:
    the midpoint of the top arch_moduli enclosure, and p^(-min v) over the
    Newton polygon valuations at each prime.
    """
    f = char_poly(a)

    def key(v):
        if v.is_archimedean:
            top = arch_moduli(a, f)[0]
            return (-(top.lo + top.hi) / 2, v.sort_key)
        return (-F(v.prime) ** -min(newton_polygon_valuations(f, v.prime)), v.sort_key)

    return sorted(s, key=key)


def reference_select(pair, s):
    """First (place, wedge degree) with a gap in the reference order, or None."""
    grid = l1_gap_report(pair.orig_a, s, char_poly(pair.orig_a))
    for v in reference_place_order(pair.orig_a, s):
        if pair.exact or v.is_archimedean:
            for m in range(1, pair.n):
                if grid.get((v, m)):
                    return v, m
    return None


def _random_pair(rng, n, eigenvalues):
    """A = P diag(eigenvalues) P^-1 with P a product of elementary matrices, and a partner B."""
    p = SquareMatrix.identity(n)
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        e = [[F(int(r == c)) for c in range(n)] for r in range(n)]
        e[i][j] = F(rng.choice([-2, -1, 1, 2]))
        p = p * M(e)
    a = p * diag(*eigenvalues) * p.inverse()
    b = M([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
    return a, b


def _selection_input(a, b):
    """A balanced pair in A's eigenbasis and the places {2, 3, 5} plus A's support."""
    pair = replace(diagonalized_pair(a, b, WA, WB), norm_relation="B_prec_A")
    return pair, PlaceSet(s_support([a]).places + PlaceSet.from_primes([2, 3, 5]).places)


def test_select_matches_the_charpoly_order_on_exact_pairs():
    # rational spectra: the a_diag moduli equal the charpoly's at every place,
    # so the selection is the one the full spectral data would give
    rng = random.Random(1313)
    primes = [2, 3, 5, 7]
    values = [
        F(sign * rng.choice(primes) ** rng.randint(0, 3), rng.choice(primes) ** rng.randint(0, 2))
        for sign in (1, -1)
        for _ in range(20)
    ]
    checked = 0
    for _ in range(150):
        n = rng.randint(2, 3)
        a, b = _random_pair(rng, n, rng.sample(sorted(set(values)), n))
        pair, s = _selection_input(a, b)
        assert pair.exact
        want = reference_select(pair, s)
        if want is None:
            with pytest.raises(NoGap):
                select_place_and_wedge(pair, l1_gap_report(a, s, char_poly(a)))
        else:
            assert select_place_and_wedge(pair, l1_gap_report(a, s, char_poly(a))) == want
            checked += 1
    assert checked > 100


def test_select_gives_interval_pairs_the_archimedean_place():
    rng = random.Random(1314)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 3)
        a = M([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        f = char_poly(a)
        if f[0] == 0 or squarefree_part(f) != f:
            continue
        pair, s = _selection_input(a, SquareMatrix.identity(n))
        if pair.exact:
            continue
        try:
            grid = l1_gap_report(a, s, f)
        except Inconclusive:
            continue
        want = reference_select(pair, s)
        if want is None:
            with pytest.raises(NoGap):
                select_place_and_wedge(pair, grid)
        else:
            assert want[0] == ARCH
            assert select_place_and_wedge(pair, grid) == want
            checked += 1
    assert checked > 5


def test_wedge_pair_sorts_by_modulus():
    # lex subset order is not modulus order here: (0,3) gives 10 but (1,2) 18
    pair = balance(diag(10, 9, 2, 1), SquareMatrix.identity(4))
    wa, wb = wedge_pair(pair, ARCH, 2)
    assert wa == diag(90, 20, 18, 10, 9, 2)
    assert wb == SquareMatrix.identity(6)


def test_sort_keys_past_the_float_range_keep_the_exact_order():
    values = [F(10**100), F(0), F(10**400), F(1, 10**100), F(3, 2) * 10**300, F(10**300)]
    by_value = sorted(range(len(values)), key=lambda i: -values[i])
    for lift in (lambda v: v, lambda v: -v, lambda v: (F(0), v), lambda v: (-v, F(0))):
        keys = [_modulus_key(lift(v)) for v in values]
        assert sorted(range(len(values)), key=lambda i: -keys[i]) == by_value


def test_wedge_pair_rejects_interval_finite():
    pair = manual_pair(diag(4, F(1, 4)), exact=False)
    with pytest.raises(ValueError):
        wedge_pair(pair, Place.finite(2), 1)


def test_ensure_l2_direct():
    pair = balance(diag(4, F(1, 4)), M([[1, 1], [1, 2]]))
    cond = ensure_l2(pair, ARCH, 1)
    assert cond.all_pass
    assert cond.b11_lower == 1 and cond.b_norm == 2
    assert cond.c3 == 1


def test_ensure_l2_unreachable():
    # every word in a diagonal A and an antidiagonal B is diagonal or
    # antidiagonal: the corner entry and the off-axis column never coexist
    pair = balance(diag(4, F(1, 4)), M([[0, 1], [-1, 0]]))
    with pytest.raises(L2Unreachable):
        ensure_l2(pair, ARCH, 1)


def test_amplify_direct_entry():
    amp = amplify_entry((F(4), F(1, 4)), ((F(1), F(1)), (F(1), F(2))), (1, 1), F(1, 4), ARCH)
    assert str(amp.word) == "1"
    assert amp.path == (1, 1)
    assert (amp.entry_lower, amp.p, amp.k, amp.ell) == (F(2), F(1), 0, 1)


def test_amplify_cycle_walk():
    # (0,0) itself is small; the walk 0 -> 1 -> 0 must fold at least once
    amp = amplify_entry((F(4), F(1, 4)), ((F(0), F(1)), (F(1), F(0))), (0, 0), F(1, 2), ARCH)
    assert str(amp.word) == "1 1"
    assert amp.path == (0, 1, 0)
    assert (amp.entry_lower, amp.k, amp.ell) == (F(1), 0, 2)


def test_amplify_not_connected():
    with pytest.raises(NotConnected):
        amplify_entry((F(4), F(1, 4)), ((F(1), F(1)), (F(0), F(1))), (1, 0), F(1, 2), ARCH)
    with pytest.raises(ValueError):
        amplify_entry((F(4), F(1, 4)), ((F(1), F(1)), (F(0), F(1))), (2, 0), F(1, 2), ARCH)


def test_amplify_folds_pick_best_power():
    # planted large entries force the walk 0 -> t -> 0; the chosen power
    # must beat every k by brute force, and the recorded bound is exact
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(2, 4)
        vals = rng.sample([F(2) ** e for e in range(-4, 5)], n)
        a = diag(*vals)
        t = rng.randrange(1, n)
        rows = [[F(rng.randint(-1, 1), 8) for _ in range(n)] for _ in range(n)]
        rows[0][0] = F(0)
        for j in range(1, n):
            rows[0][j] = F(0)
        rows[0][t] = F(rng.choice([-4, 4]))
        rows[t][0] = F(rng.choice([-4, 4]))
        b = M(rows)
        amp = amplify_entry(tuple(vals), b.entries, (0, 0), F(1, 2), ARCH)
        assert amp.path == (0, t, 0)
        assert len(amp.word.letters) <= 1 + (n - 1) * n
        got = evaluate_word(amp.word, [a, b])
        assert abs(got[0, 0]) == amp.entry_lower > 0
        best = max(abs((b * a**k * b)[0, 0]) for k in range(n))
        assert amp.entry_lower == best
        # the recorded (p, k, ell) reproduce the bound exactly
        an = max(abs(x) for x in vals)
        bn = max(abs(x) for row in b.entries for x in row)
        assert amp.p == amp.entry_lower * an**amp.k / bn**amp.ell


def test_almost_algebra_exact_cases():
    e11, e12 = M([[1, 0], [0, 0]]), M([[0, 1], [0, 0]])
    e21, e22 = M([[0, 0], [1, 0]]), M([[0, 0], [0, 1]])
    eps = F(1, 1024)
    aa = build_almost_algebra([e11, e22], eps)
    assert (aa.dimension, aa.closure_defect) == (2, 0)
    aa = build_almost_algebra([e11, e12, e22], eps)
    assert (aa.dimension, aa.closure_defect) == (3, 0)
    # e21 * e12 = e22 gets admitted: the full algebra from three corners
    aa = build_almost_algebra([e11, e12, e21], eps)
    assert (aa.dimension, aa.closure_defect) == (4, 0)
    assert algebra_defect(aa) == 0


def test_almost_algebra_from_group_elements():
    a, b = M([[1, 2], [0, 1]]), M([[1, 0], [2, 1]])
    aa = build_almost_algebra([a, b, a * b], F(1, 1024))
    assert aa.dimension == 4
    assert aa.closure_defect == 0
    assert algebra_defect(aa) == 0


def test_almost_algebra_perturbed():
    # a 2^-20 leak below epsilon = 2^-10 stays unadmitted but measurable
    x = M([[1, 0], [F(1, 2**20), 0]])
    e22 = M([[0, 0], [0, 1]])
    aa = build_almost_algebra([x, e22], F(1, 1024))
    assert aa.dimension == 2
    assert 0 < aa.closure_defect <= F(1, 1024)
    assert aa.defect_sq > 0
    assert algebra_defect(aa) > 0


def test_almost_algebra_validation():
    with pytest.raises(ValueError):
        build_almost_algebra([SquareMatrix.identity(2)], F(0))
    with pytest.raises(ValueError):
        build_almost_algebra([], F(1, 2))


def test_diagonalize_exact_round_trip():
    a = M([[2, 3], [0, F(1, 2)]])
    d, x, x_inv, exact = diagonalize(a)
    assert exact and d == (F(2), F(1, 2))
    assert x * diag(*d) * x_inv == a
    # an irrational spectrum gets a rounded basis; a repeated one no basis at all
    d, x, x_inv, exact = diagonalize(M([[0, 2], [1, 0]]))
    assert not exact and x * x_inv == SquareMatrix.identity(2)
    with pytest.raises(ValueError):
        diagonalize(M([[1, 1], [0, 1]]))


def test_diagonalize_exact_sort_place():
    a = diag(F(1, 4), 4)
    assert diagonalize(a)[0] == (F(4), F(1, 4))
    assert diagonalize(a, sort_place=Place.finite(2))[0] == (F(1, 4), F(4))


@pytest.mark.parametrize("bits", [64, 128])
def test_diagonalize_points_lie_within_the_width_of_the_roots(bits):
    # the roots 3 +- 2 sqrt(2) lie in intervals at most 5 * 2^-bits wide, so
    # each midpoint is within half that of its root
    (l0, l1), _, _, _ = diagonalize(M([[5, 2], [2, 1]]), ARCH, bits)
    width = F(5, 2**bits)
    assert l0 > l1 > 0
    assert abs(l0 + l1 - 6) <= width
    assert abs(l0 * l1 - 1) <= 4 * width
    assert all(z.denominator & (z.denominator - 1) == 0 for z in (l0, l1))


@pytest.mark.parametrize("bits", [64, 512])
def test_diagonalize_keeps_a_rational_eigenvalue_among_irrational_ones_exact(bits):
    # charpoly (x - 1/3)(x^2 - 2): 1/3 is an exact point of the root engine,
    # and its eigenvector e_1 stays exact while the others are rounded
    a = M([[F(1, 3), 0, 0], [0, 0, 2], [0, 1, 0]])
    points, x, _, exact = diagonalize(a, bits=bits)
    assert not exact and points[2] == F(1, 3)
    assert [row[2] for row in x.entries] == [1, 0, 0]
    assert x.den & (x.den - 1) == 0 and x.den <= 2**bits


def test_diagonalized_pair_deterministic():
    a, b = M([[5, 2], [2, 1]]), M([[1, 2], [0, 1]])
    p1 = diagonalized_pair(a, b, Word.parse("0 1"), WA)
    p2 = diagonalized_pair(a, b, Word.parse("0 1"), WA)
    assert p1 == p2
    assert p1.norm_relation == "none" and not p1.balanced
    assert not p1.exact


def test_diagonalized_pair_exact_case():
    a, b = M([[2, 3], [0, F(1, 2)]]), M([[1, 1], [1, 2]])
    pair = diagonalized_pair(a, b, WA, WB)
    assert pair.exact
    assert pair.a_diag == (F(2), F(1, 2))
    assert pair.basis * pair.b_conj * pair.basis_inv == b


def test_diagonalized_pair_finite_sort_needs_rational_basis():
    a = M([[5, 2], [2, 1]])
    with pytest.raises(Inconclusive):
        diagonalized_pair(a, SquareMatrix.identity(2), WA, WB, sort_place=Place.finite(2))
    with pytest.raises(ValueError):
        diagonalized_pair(SquareMatrix.identity(2), a, WA, WB)


# eigenvalues 1 +- 2^-70 (1 + 2^-142)^(1/2): the eigenvectors (1, +-2^-70...)
# round to the same column at 64 bits and to distinct ones at 128
NEAR_PARABOLIC = M([[1 + F(1, 2**140), 1], [F(1, 2**140), 1]])


def test_a_rounded_basis_that_is_singular_raises_singular_enclosure():
    with pytest.raises(SingularEnclosure):
        diagonalize(NEAR_PARABOLIC, ARCH, 64)
    _, x, x_inv, exact = diagonalize(NEAR_PARABOLIC, ARCH, 128)
    assert not exact and x * x_inv == SquareMatrix.identity(2)


def test_diagonalized_pair_rounds_to_the_first_precision_that_inverts():
    # NEAR_PARABOLIC's basis is built at 128 bits, an exact basis at 64, and
    # one singular at every precision names the last
    pair = diagonalized_pair(NEAR_PARABOLIC, M([[1, 0], [2, 1]]), WA, WB)
    assert pair.bits == 128 and pair.basis == diagonalize(NEAR_PARABOLIC, ARCH, 128)[1]
    assert diagonalized_pair(diag(4, F(1, 4)), M([[1, 1], [1, 2]]), WA, WB).bits == 64
    eps = F(1, 2**600)
    with pytest.raises(SingularEnclosure, match="^rounded eigenbasis is singular at 256 bits$"):
        diagonalized_pair(M([[1 + eps, 1], [eps, 1]]), M([[1, 0], [2, 1]]), WA, WB)


def test_certify_moves_past_a_singular_rounded_basis(monkeypatch):
    # the singular basis at 64 bits is built again at 128 instead of failing
    built = []

    def recording(a, sort_place=ARCH, bits=128, memo=None):
        try:
            result = diagonalize(a, sort_place, bits, memo)
        except SingularEnclosure:
            built.append((bits, "singular"))
            raise
        built.append((bits, "ok"))
        return result

    monkeypatch.setattr(wordforge, "diagonalize", recording)
    # A's only gap is 2-adic, which its rounded basis cannot read, and
    # B = [[1, 0], [2, 1]] has a repeated eigenvalue: a refusal that no
    # precision changes, and not the singular basis met on the way
    with pytest.raises(PipelineFailure) as info:
        pipeline.certify_generators([NEAR_PARABOLIC, M([[1, 0], [2, 1]])])
    assert str(info.value) == (
        "derive_exponent: ExponentSearchExhausted: no certified gap at a place the basis reads"
    )
    assert built == [(64, "singular"), (128, "ok")]


# ---------------------------------------------------------------------------
# the adjugate-polynomial basis against the kernel route and the eigenvalues


def _kernel_vector(m: SquareMatrix) -> tuple[F, ...]:
    """One nonzero kernel vector of a singular matrix: the first free column set to 1."""
    rref, pivots, _ = reference_row_reduce(m.entries)
    free = next(c for c in range(m.n) if c not in pivots)
    vec = [F(0)] * m.n
    vec[free] = F(1)
    for row, col in zip(rref, pivots):
        vec[col] = -row[free]
    return tuple(vec)


def reference_diagonalize_exact(a: SquareMatrix, poly, sort_place: Place = ARCH):
    """Exact eigenbasis from a kernel solve per root and an exact inverse, or None."""
    roots = rational_roots(poly)
    if len(roots) != a.n or len(set(roots)) != a.n:
        return None
    order = sorted(roots, key=lambda lam: (-abs_value(lam, sort_place), lam))
    columns = [_kernel_vector(a - SquareMatrix.identity(a.n).scale(lam)) for lam in order]
    p = SquareMatrix.from_rows([[columns[j][i] for j in range(a.n)] for i in range(a.n)])
    return tuple(order), p.entries, p.inverse().entries


def block_diagonal(points) -> SquareMatrix:
    """diag of the real points, with [[x, y], [-y, x]] for a conjugate pair x +- iy.

    A sends the columns Re v and Im v of a +Im eigenvector v to x Re v - y Im v
    and y Re v + x Im v, so this is X^-1 A X for an exact such basis.
    """
    n = len(points)
    rows = [[F(0)] * n for _ in range(n)]
    for i, z in enumerate(points):
        if not isinstance(z, tuple):
            rows[i][i] = z
        elif z[1] > 0:
            (x, y), j = z, i + 1
            rows[i][i], rows[i][j], rows[j][i], rows[j][j] = x, y, -y, x
    return M(rows)


def _pins(x: SquareMatrix) -> list[list[int]]:
    """Per column, the rows holding an exact 1."""
    return [[i for i, v in enumerate(col) if v == 1] for col in zip(*x.entries)]


def assert_nearly_diagonalizes(a, points, x, x_inv, bits):
    """X^-1 A X is within 2^-(bits/2) of block_diagonal(points), and X pins its columns.

    A column from a real point or the real part of a pair holds an exact 1;
    the imaginary part of a pair is 0 at that coordinate.
    """
    off = x_inv * a * x - block_diagonal(points)
    assert off.max_abs_entry() <= F(1, 2 ** (bits // 2))
    pins = _pins(x)
    for j, z in enumerate(points):
        if isinstance(z, tuple) and z[1] < 0:
            assert x.entries[pins[j - 1][0]][j] == 0
        else:
            assert pins[j]


_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_diagonalize_matches_the_kernel_route_on_rational_spectra(n, data):
    values = data.draw(st.lists(_small, min_size=n, max_size=n, unique=True))
    p_rows = data.draw(st.lists(st.lists(_small, min_size=n, max_size=n), min_size=n, max_size=n))
    p = M(p_rows)
    assume(p.det() != 0)
    a = p * diag(*values) * p.inverse()
    for v in (ARCH, Place.finite(2), Place.finite(3)):
        points, x, x_inv, exact = diagonalize(a, v)
        assert exact
        assert (points, x.entries, x_inv.entries) == reference_diagonalize_exact(a, char_poly(a), v)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.sampled_from([64, 128]), st.data())
def test_rounded_basis_nearly_diagonalizes_a(n, bits, data):
    # eigenvalues that do not all lie in Q, a tie such as the sqrt(2)
    # eigenvector (-sqrt(2), 1, sqrt(2), 0) of [[1, -2, 1, 0], [0, 0, 1, 0],
    # [0, 2, 0, 0], [0, 0, 0, 0]] among them
    rows = data.draw(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    a = M(rows)
    f = char_poly(a)
    assume(squarefree_part(f) == f and len(rational_roots(f)) < n)
    try:
        points, x, x_inv, exact = diagonalize(a, ARCH, bits)
    except SingularEnclosure:
        assume(False)
    assert not exact
    assert_nearly_diagonalizes(a, points, x, x_inv, bits)
    assert diagonalize(a, ARCH, bits) == (points, x, x_inv, exact)


def test_diagonalize_with_a_modulus_tie():
    a = M([[1, -2, 1, 0], [0, 0, 1, 0], [0, 2, 0, 0], [0, 0, 0, 0]])
    for bits in (64, 128):
        points, x, x_inv, _ = diagonalize(a, ARCH, bits)
        assert_nearly_diagonalizes(a, points, x, x_inv, bits)


@pytest.mark.parametrize("engine_order", ["as listed", "reversed"])
def test_diagonalize_breaks_modulus_ties_by_real_then_imaginary_part(monkeypatch, engine_order):
    # sqrt(2) and -sqrt(2) tie in |x|^2 at their midpoints, and the real part
    # decides; 1 + i and 1 - i tie in both, so the imaginary part does, and
    # the pair's |x|^2 lies above 2.  The order must not depend on the
    # order the root engine lists the roots in.
    if engine_order == "reversed":
        monkeypatch.setattr(
            "growthcert.spectra.certified_root_structure",
            lambda f, width: tuple(part[::-1] for part in certified_root_structure(f, width)),
        )
    a = M([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]])
    points, x, x_inv, _ = diagonalize(a, ARCH, 64)
    (re, im), conj = points[0], points[1]
    assert conj == (re, -im) and im > 0
    assert abs(re - 1) <= F(1, 2**60) and abs(im - 1) <= F(1, 2**60)
    assert points[2] > 0 > points[3]
    assert all(abs(_modulus_key(z) - 2) <= F(1, 2**60) for z in points[2:])
    assert_nearly_diagonalizes(a, points, x, x_inv, 64)


@pytest.mark.parametrize(
    "rows, pins",
    [
        ([[1, -2, 1, 0], [0, 0, 1, 0], [0, 2, 0, 0], [0, 0, 0, 0]], [[0], [0], [0], [3]]),
        ([[-1, -2, -1], [-1, 2, 0], [-1, 2, -1]], [[1], [0], [0]]),
    ],
)
def test_a_modulus_tie_pins_the_first_tied_coordinate_at_every_precision(rows, pins):
    # the sqrt(2) eigenvector of the first matrix ties coordinates 0 and 2, as
    # does the third eigenvector of the second; at the rounded point the
    # two moduli differ by noise, which a rule that took the exact largest
    # alone would follow from one precision to the next
    for bits in (64, 128, 256):
        assert _pins(diagonalize(M(rows), ARCH, bits)[1]) == pins


_entry = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_kernel_vector_is_nonzero_kernel_element(n, data):
    # the reference's kernel solve: n - 1 free rows plus one combination of them
    vec = st.lists(_entry, min_size=n, max_size=n)
    rows = data.draw(st.lists(vec, min_size=n - 1, max_size=n - 1))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    last = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
    m = SquareMatrix.from_rows(rows + [last])
    v = _kernel_vector(m)
    assert any(v)
    assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m.entries)
