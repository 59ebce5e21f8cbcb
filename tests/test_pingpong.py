"""Cone checks, exponent search, freeness oracle, certificates."""

import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthcert import pingpong, pipeline
from growthcert.errors import BudgetExceeded, ExponentSearchExhausted
from growthcert.exactnum import (
    ARCH,
    Place,
    SquareMatrix,
    Word,
    abs_value,
    evaluate_word,
    is_prime,
)
from growthcert.pingpong import (
    DEFAULT_RADII,
    ConeChecks,
    PingPongCertificate,
    bound_table,
    check_l_conditions,
    derive_exponent,
    find_semigroup_collision,
    growth_bound_from_length,
    verify_cone_inclusions,
)

P2 = Place.parse("finite:2")
P3 = Place.parse("finite:3")
ROOT = Path(__file__).resolve().parent.parent
B_ROWS = ((F(1), F(1)), (F(1), F(2)))


def diag(*values):
    n = len(values)
    return SquareMatrix.from_rows(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
    )


def test_l_conditions_archimedean_pass():
    cond = check_l_conditions((F(4), F(1, 4)), B_ROWS, ARCH)
    assert cond.all_pass
    assert cond.b11_lower == 1
    assert cond.b_norm == 2
    assert cond.a_moduli == (F(4), F(1, 4))


def test_l_conditions_gap_failure():
    # top modulus 3/2 < 2 fails the spectral gap
    cond = check_l_conditions((F(3, 2), F(2, 3)), B_ROWS, ARCH)
    assert cond.l1 is False and not cond.all_pass


def test_l_conditions_parallel_column_fails_l2():
    cond = check_l_conditions((F(4), F(1, 4)), ((F(1), F(0)), (F(0), F(1))), ARCH)
    assert cond.l2 is False


def test_l_conditions_finite_place():
    # 2-adic moduli of (1/4, 4) are (4, 1/4); entries of B are 2-integral
    cond = check_l_conditions((F(1, 4), F(4)), B_ROWS, P2)
    assert cond.all_pass
    assert cond.a_moduli == (F(4), F(1, 4))
    assert cond.b_norm == 1


def test_l_conditions_read_a_diagonal_matrix_only():
    b = SquareMatrix.from_rows(B_ROWS)
    assert check_l_conditions(diag(F(4), F(1, 4)), b, ARCH).all_pass
    with pytest.raises(ValueError):
        check_l_conditions(SquareMatrix.from_rows([[4, 1], [0, F(1, 4)]]), b, ARCH)


def test_l_conditions_input_validation():
    with pytest.raises(ValueError):
        check_l_conditions((F(4), F(1, 4)), B_ROWS, ARCH, constants=(0, 1, 1, 2))
    with pytest.raises(ValueError):
        check_l_conditions((F(4),), ((F(1),),), ARCH)
    with pytest.raises(ValueError):
        check_l_conditions((F(4), F(1, 4)), ((F(1),),), ARCH)


def test_cone_checks_archimedean():
    # by hand: at r=1/2 the second row margin 1 - r*2 = 0 cannot beat
    # r*(1 + r) > 0, so disjointness fails; at r=1/4 all three pass
    a = diag(F(4), F(1, 4))
    half = verify_cone_inclusions(a, B_ROWS, 1, F(1, 2), ARCH)
    assert not half.disjoint
    assert not half.all_pass
    quarter = verify_cone_inclusions(a, B_ROWS, 1, F(1, 4), ARCH)
    assert quarter == ConeChecks(disjoint=True, contracts=True, contracts_double=True)
    assert quarter.all_pass


def test_cone_checks_finite_place():
    checks = verify_cone_inclusions(diag(F(1, 4), F(4)), B_ROWS, 1, F(1, 2), P2)
    assert checks.all_pass


def test_cone_checks_input_validation():
    a = diag(F(4), F(1, 4))
    with pytest.raises(ValueError):
        verify_cone_inclusions(a, B_ROWS, 0, F(1, 4), ARCH)
    with pytest.raises(ValueError):
        verify_cone_inclusions(a, B_ROWS, 1, F(0), ARCH)


def test_cone_checks_ignore_a_scalar():
    # the checks run on integer rows N of M = N/d: any nonzero rational
    # multiple of A or B decides alike, at every place
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(2, 3)
        a, b = (
            SquareMatrix.from_rows(
                [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
            )
            for _ in range(2)
        )
        c = F(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 50))
        for v in (ARCH, P2, P3):
            for e, r in ((1, F(1, 4)), (2, F(1, 16)), (3, F(3, 7))):
                want = verify_cone_inclusions(a, b, e, r, v)
                assert verify_cone_inclusions(a.scale(c), b, e, r, v) == want
                assert verify_cone_inclusions(a.entries, b.scale(c).entries, e, r, v) == want


def test_derive_exponent_archimedean():
    e, r, checks = derive_exponent(diag(F(4), F(1, 4)), B_ROWS, ARCH)
    assert (e, r) == (1, F(1, 4))
    assert checks.all_pass


def test_derive_exponent_finite():
    e, r, checks = derive_exponent(diag(F(1, 4), F(4)), B_ROWS, P2)
    assert (e, r) == (1, F(1, 2))
    assert checks.all_pass


def test_derive_exponent_is_minimal():
    # weaker gap needs two powers of A; every earlier (e, r) must fail,
    # which is what makes an exponent tamper detectable
    a = diag(F(2), F(1, 2))
    e, r, _ = derive_exponent(a, B_ROWS, ARCH)
    assert (e, r) == (2, F(1, 4))
    for rr in DEFAULT_RADII:
        assert not verify_cone_inclusions(a, B_ROWS, 1, rr, ARCH).all_pass
    for rr in DEFAULT_RADII:
        if rr == r:
            break
        assert not verify_cone_inclusions(a, B_ROWS, 2, rr, ARCH).all_pass


def test_derive_exponent_no_disjoint_radius():
    # zero lower-left entry: B maps the cone back across it at any radius
    with pytest.raises(ExponentSearchExhausted):
        derive_exponent(diag(F(4), F(1, 4)), ((F(1), F(1)), (F(0), F(1))), ARCH)


def test_derive_exponent_cap():
    # |a1/a2| = 1 never contracts, so the cap is reached
    with pytest.raises(ExponentSearchExhausted):
        derive_exponent(diag(F(1), F(1)), B_ROWS, ARCH, cap=3)


def test_derive_exponent_agrees_with_verify_cone_inclusions():
    # the search's running products and the checks' powers by squaring read
    # the same matrices: the found (e, r) passes, and every earlier pair fails
    rng = random.Random(73)
    found = 0
    for _ in range(80):
        n = rng.randint(2, 3)
        a = SquareMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        a = a * a + SquareMatrix.identity(n).scale(rng.randint(-3, 3))
        b = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        try:
            e, r, _ = derive_exponent(a, b, ARCH, cap=6)
        except ExponentSearchExhausted:
            continue
        found += 1
        assert verify_cone_inclusions(a, b, e, r, ARCH).all_pass
        earlier = [(k, rr) for k in range(1, e + 1) for rr in DEFAULT_RADII]
        for k, rr in earlier[: earlier.index((e, r))]:
            assert not verify_cone_inclusions(a, b, k, rr, ARCH).all_pass
    assert found >= 5


def reference_bounds(x, v):
    """|x|_v twice, as a (lower, upper) pair."""
    a = abs_value(x, v)
    return a, a


def reference_row_tail_upper(row, v):
    """Sum (archimedean) or max (ultrametric) of |row[j]|, j >= 1."""
    uppers = [reference_bounds(x, v)[1] for x in row[1:]]
    if not uppers:
        return F(0)
    return sum(uppers) if v.is_archimedean else max(uppers)


def reference_disjoint(b_rows, r, v):
    """B U_r disjoint from U_r on Fractions (the reference for the integer check)."""
    top_tail = reference_row_tail_upper(b_rows[0], v)
    b11_hi = reference_bounds(b_rows[0][0], v)[1]
    if v.is_archimedean:
        upper1 = b11_hi + r * top_tail
        for row in b_rows[1:]:
            lo_i = reference_bounds(row[0], v)[0] - r * reference_row_tail_upper(row, v)
            if lo_i > r * upper1:
                return True
        return False
    upper1 = max(b11_hi, r * top_tail)
    for row in b_rows[1:]:
        lead = reference_bounds(row[0], v)[0]
        if lead > r * reference_row_tail_upper(row, v) and lead > r * upper1:
            return True
    return False


def reference_inclusion(m_rows, r, v):
    """M U_r inside U_r on Fractions (the reference for the integer check)."""
    top_tail = reference_row_tail_upper(m_rows[0], v)
    m11_lo = reference_bounds(m_rows[0][0], v)[0]
    if v.is_archimedean:
        lower1 = m11_lo - r * top_tail
    else:
        if not m11_lo > r * top_tail:
            return False
        lower1 = m11_lo
    if lower1 <= 0:
        return False
    for row in m_rows[1:]:
        lead_hi = reference_bounds(row[0], v)[1]
        tail = reference_row_tail_upper(row, v)
        upper_i = lead_hi + r * tail if v.is_archimedean else max(lead_hi, r * tail)
        if not upper_i <= r * lower1:
            return False
    return True


def assert_checks_match_reference(rows, r, v):
    """The integer checks on the rows' integer form decide as the Fraction checks on the rows."""
    table = bound_table(pingpong._integer_rows(rows), v)
    assert pingpong._check_disjoint(table, r, v) == reference_disjoint(rows, r, v)
    assert pingpong._check_inclusion(table, r, v) == reference_inclusion(rows, r, v)


@st.composite
def _exact(draw, p):
    # small multiples of powers of p: ties between the largest entries of a
    # row, where a sum and a max part, and ties with the radius are common
    x = F(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return x * F(p) ** draw(st.integers(-4, 4))


@st.composite
def _cone_case(draw):
    n = draw(st.integers(2, 4))
    v = draw(st.sampled_from([ARCH, P2, P3]))
    if v.is_archimedean and draw(st.booleans()):
        # integers up to 2^100, as the products of a rounded basis carry
        entry = st.integers(-(2**100), 2**100)
    else:
        entry = _exact(2 if v.is_archimedean else v.prime)
    rows = tuple(tuple(F(draw(entry)) for _ in range(n)) for _ in range(n))
    return rows, v


# the bench radii, a non-dyadic one, and 300-digit ones like the
# cone_param tampers
_RADII = st.one_of(
    st.sampled_from(DEFAULT_RADII + (F(3, 7),)),
    st.builds(F, st.integers(10**299, 10**300), st.integers(10**299, 10**300)),
    st.builds(lambda r, k: r * F(2) ** k, st.sampled_from(DEFAULT_RADII), st.integers(-40, 40)),
)


@settings(max_examples=400, deadline=None)
@given(case=_cone_case(), r=_RADII)
# the r^2 of disjointness at both kinds of place, and an ultrametric row
# whose tail max and tail sum fall on either side of the threshold
@example(case=(((F(1), F(0)), (F(1), F(0))), ARCH), r=F(1, 2))
@example(case=(((F(1), F(1)), (F(1), F(1))), P2), r=F(1, 2))
@example(case=(((F(1), F(1), F(1)), (F(2), F(2), F(2)), (F(2), F(2), F(2))), P2), r=F(1, 2))
def test_cone_checks_match_the_fraction_reference(case, r):
    rows, v = case
    assert_checks_match_reference(rows, r, v)
    table = bound_table(rows, v)
    assert [F(x, table.den) for row in table.abs for x in row] == [
        abs_value(x, v) for row in rows for x in row
    ]


@st.composite
def _permuted_cone_case(draw):
    # A with its first diagonal entry boosted by 2^12 (p^12 at p) over small
    # entries elsewhere, so some cases certify, B's rows, and a permutation
    # fixing coordinate 1
    n = draw(st.integers(3, 5))
    v = draw(st.sampled_from([ARCH, ARCH, P2, P3, Place.finite(5)]))
    t = draw(st.integers(0, 12))
    if v.is_archimedean:
        entry, boost = _exact(2), F(2) ** t
    else:
        entry, boost = _exact(v.prime), F(v.prime) ** -t
    a = [[draw(entry) if draw(st.integers(0, 3)) == 0 or i == j else F(0) for j in range(n)]
         for i in range(n)]
    a[0][0] = a[0][0] * boost
    rows = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    order = (0, *draw(st.permutations(range(1, n))))
    return tuple(map(tuple, a)), rows, v, order


def cone_outcomes(a, b_rows, v):
    """The cone checks at several (e, r), and derive_exponent's answer or refusal."""
    checks = [
        verify_cone_inclusions(a, b_rows, e, r, v)
        for e in (1, 2, 3)
        for r in (F(1), F(1, 4), F(3, 7), F(1, 64))
    ]
    try:
        found = derive_exponent(a, b_rows, v, cap=4)
    except ExponentSearchExhausted as exc:
        found = str(exc)
    return checks, found


@settings(max_examples=200, deadline=None)
@given(case=_permuted_cone_case())
def test_cone_checks_ignore_the_order_of_coordinates_two_to_n(case):
    # the canonical order may reorder coordinates whose moduli tie, but only
    # below the top one, whose gap is certified: one permutation of 2..n,
    # applied to the rows and columns of A and of B, moves no verdict
    a, rows, v, order = case

    def permuted(m):
        return tuple(tuple(m[i][j] for j in order) for i in order)

    assert cone_outcomes(permuted(a), permuted(rows), v) == cone_outcomes(a, rows, v)


def test_cone_checks_match_the_fraction_reference_on_the_corpus(monkeypatch):
    # every (e, r) the exponent search tries while certifying the 14 corpus
    # certificates decides as the Fraction checks do on the exact compounds
    corpus = json.loads((ROOT / "bench/data/corpus.json").read_text())
    searches = []
    derive = pipeline.derive_exponent

    def recording(a, b, v, cap):
        searches.append((a, b, v, cap))
        return derive(a, b, v, cap)

    monkeypatch.setattr(pipeline, "derive_exponent", recording)
    for item in corpus["inputs"]:
        if "certificate" in item["certify"]:
            gens = [SquareMatrix.from_rows(g) for g in item["generators"]]
            pipeline.certify_generators(gens)
    assert len(searches) >= 14
    decisions = set()
    for a, b, v, cap in searches:
        try:
            last = derive(a, b, v, cap)[0]
        except ExponentSearchExhausted:
            last = cap
        for r in DEFAULT_RADII:
            assert_checks_match_reference(b.entries, r, v)
        for e in range(1, last + 1):
            for rows in ((a**e * b).entries, (a ** (2 * e) * b).entries):
                for r in DEFAULT_RADII:
                    assert_checks_match_reference(rows, r, v)
                    decisions.add(reference_inclusion(rows, r, v))
    assert decisions == {False, True}


def test_collision_for_commuting_pair():
    u = SquareMatrix.from_rows([[2, 0], [0, F(1, 2)]])
    w = SquareMatrix.from_rows([[3, 0], [0, F(1, 3)]])
    assert find_semigroup_collision(u, w) == ("uw", "wu")


def test_collision_for_equal_generators():
    u = SquareMatrix.from_rows([[1, 2], [0, 1]])
    assert find_semigroup_collision(u, u, depth=2) == ("u", "w")


def test_collision_in_finite_group():
    rot = SquareMatrix.from_rows([[0, -1], [1, 0]])
    got = find_semigroup_collision(rot, rot.inverse())
    assert got == ("uw", "wu")


def test_oracle_free_pair():
    u = SquareMatrix.from_rows([[1, 2], [0, 1]])
    w = SquareMatrix.from_rows([[1, 0], [2, 1]])
    assert find_semigroup_collision(u, w, depth=10) is None


def test_oracle_on_entries_past_the_int_to_str_limit():
    # the fingerprint hashes entry bytes: 5001-digit entries have no decimal text
    big = 10**5000
    u = SquareMatrix.from_rows([[1, big], [0, 1]])
    w = SquareMatrix.from_rows([[1, 0], [big, 1]])
    assert find_semigroup_collision(u, w) is None


def test_oracle_budget():
    u = SquareMatrix.from_rows([[1, 2], [0, 1]])
    w = SquareMatrix.from_rows([[1, 0], [2, 1]])
    with pytest.raises(BudgetExceeded):
        find_semigroup_collision(u, w, depth=12, budget=5)


def reference_collision(u, w, depth=12, budget=10**6):
    """The exact Fraction oracle the residue oracle must agree with."""
    seen = {}
    layer = [("", SquareMatrix.identity(u.n))]
    for _ in range(depth):
        nxt = []
        for label, mat in layer:
            for sym, g in (("u", u), ("w", w)):
                word = label + sym
                m = mat * g
                if m.entries in seen:
                    return seen[m.entries], word
                if len(seen) >= budget:
                    raise BudgetExceeded(f"oracle exceeded budget {budget}")
                seen[m.entries] = word
                nxt.append((word, m))
        layer = nxt
    return None


def outcome(oracle, *args):
    try:
        return oracle(*args)
    except BudgetExceeded as exc:
        return ("BudgetExceeded", str(exc))


SANOV_U = SquareMatrix.from_rows([[1, 2], [0, 1]])
SANOV_W = SquareMatrix.from_rows([[1, 0], [2, 1]])
ROT = SquareMatrix.from_rows([[0, -1], [1, 0]])
CYCLE = SquareMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
PLANTED = [
    (SANOV_U, SANOV_U, ("u", "w")),
    (SANOV_U, SANOV_U * SANOV_U, ("w", "uu")),
    (
        SquareMatrix.from_rows([[2, 0], [0, F(1, 2)]]),
        SquareMatrix.from_rows([[F(-1, 3), 0], [0, -3]]),
        ("uw", "wu"),
    ),
    (ROT, ROT * ROT, ("w", "uu")),
    (ROT, ROT.inverse(), ("uw", "wu")),
    (CYCLE, CYCLE * CYCLE, ("w", "uu")),
]


def force_prime(mp, prime):
    """Start the resolver's prime search at `prime` instead of the hashed point."""
    mp.setattr(pingpong, "_prime_start", lambda h: prime)


def force_screen_prime(mp, prime):
    """Start the screen's prime search at `prime` instead of the hashed point."""
    mp.setattr(pingpong, "_screen_prime_start", lambda h: prime)


def resolve(u, w, depth=12, budget=10**6):
    """The word-by-word resolver alone, with no screen in front of it."""
    return pingpong._resolve(u, w, depth, budget)


def row_key(x, m, p):
    """The oracle's key for the matrix m: x * m mod p."""
    rows = pingpong._residue_rows(m, p)
    return tuple(sum(xi * row[j] for xi, row in zip(x, rows)) % p for j in range(m.n))


def sanov_words(depth):
    mats = layer = [SquareMatrix.identity(2)]
    for _ in range(depth):
        layer = [m * g for m in layer for g in (SANOV_U, SANOV_W)]
        mats = mats + layer
    return mats[1:]


@pytest.mark.parametrize("prime", [None, 7])
@pytest.mark.parametrize("u, w, words", PLANTED)
def test_oracle_finds_planted_relation(monkeypatch, prime, u, w, words):
    if prime is not None:
        force_prime(monkeypatch, prime)
    assert reference_collision(u, w) == words
    assert find_semigroup_collision(u, w) == words


@pytest.mark.parametrize("prime", [7, 101])
def test_oracle_skips_false_clashes(monkeypatch, prime):
    force_prime(monkeypatch, prime)
    p, x = pingpong._fingerprint(SANOV_U, SANOV_W)
    assert p == prime
    keys = {row_key(x, m, p) for m in sanov_words(10)}
    # the 2^11 - 2 free Sanov words clash modulo the prime ...
    assert len(keys) < 2**11 - 2
    # ... and the resolver still proves them distinct
    assert resolve(SANOV_U, SANOV_W, depth=10) is None
    rng = random.Random(prime)
    for _ in range(12):
        u, w = (
            SquareMatrix.from_rows(
                [[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2)] for _ in range(2)]
            )
            for _ in range(2)
        )
        assert resolve(u, w, depth=9) == reference_collision(u, w, depth=9)


def test_row_keys_clash_where_residues_do_not(monkeypatch):
    force_prime(monkeypatch, 7)
    p, x = pingpong._fingerprint(SANOV_U, SANOV_W)
    residues_by_key = {}
    for m in sanov_words(6):
        residues_by_key.setdefault(row_key(x, m, p), set()).add(pingpong._residue_rows(m, p))
    # one row key covers several residue matrices ...
    assert any(len(residues) > 1 for residues in residues_by_key.values())
    # ... and the answer is still the exact one
    assert resolve(SANOV_U, SANOV_W, depth=8) is None
    assert reference_collision(SANOV_U, SANOV_W, depth=8) is None
    for u, w, words in PLANTED:
        assert resolve(u, w) == words


# a free-looking pair in SL_3(Z[1/3]) whose words all fix the row e_3: a
# fixed fingerprint row e_3 would key every word alike
AFFINE_U = SquareMatrix.from_rows([[3, 0, 1], [0, F(1, 3), 0], [0, 0, 1]])
AFFINE_W = SquareMatrix.from_rows([[3, 0, 0], [0, F(1, 3), 1], [0, 0, 1]])


def test_oracle_on_pair_with_common_fixed_row():
    for depth in range(1, 10):
        assert find_semigroup_collision(AFFINE_U, AFFINE_W, depth) == reference_collision(
            AFFINE_U, AFFINE_W, depth
        )
    start = time.perf_counter()
    outcome(find_semigroup_collision, AFFINE_U, AFFINE_W, 12)
    assert time.perf_counter() - start < 2


def first_prime_from(start):
    p = start
    while not is_prime(p):
        p += 1
    return p


def test_fingerprint_prime_comes_from_the_input():
    u = SquareMatrix.from_rows([[1, F(2, 3)], [F(-1, 5), F(13, 15)]])
    p, x = pingpong._fingerprint(u, SANOV_W)
    assert is_prime(p) and 2**61 < p < 2**61 + 2**60 + 10**4
    assert all(d % p for d in (3, 5, 15))
    assert len(x) == 2 and x[0] == 1 and 0 <= x[1] < p
    # deterministic, and a function of the values alone
    same = SquareMatrix.from_rows([[F(4, 4), F(4, 6)], [F(2, -10), F(26, 30)]])
    assert pingpong._fingerprint(same, SquareMatrix.from_rows([[1, 0], [2, 1]])) == (p, x)
    # another input starts elsewhere
    assert pingpong._fingerprint(SANOV_W, u)[0] != p
    assert pingpong._fingerprint(SANOV_U, SANOV_W)[0] != p


@pytest.mark.parametrize("prime", [None, 7])
def test_oracle_skips_prime_dividing_a_denominator(monkeypatch, prime):
    big = prime or first_prime_from(2**61)
    force_prime(monkeypatch, big)
    u = SquareMatrix.from_rows([[1, F(1, big)], [0, 1]])
    w = SquareMatrix.from_rows([[1, 0], [2, 1]])
    p, _ = pingpong._fingerprint(u, w)
    assert p > big and is_prime(p)
    assert resolve(u, w, depth=8) == reference_collision(u, w, depth=8)
    diag = SquareMatrix.from_rows([[big, 0], [0, F(1, big)]])
    assert pingpong._fingerprint(diag, diag * diag)[0] > big
    assert resolve(diag, diag * diag) == ("w", "uu")
    # the screen's prime search skips the same denominators
    force_screen_prime(monkeypatch, big)
    q, _ = pingpong._fingerprint(u, w, screen=True)
    assert q > big and is_prime(q)
    assert find_semigroup_collision(u, w, depth=8) == reference_collision(u, w, depth=8)


_entry = st.builds(F, st.integers(-3, 3), st.integers(1, 7))


@st.composite
def _oracle_case(draw, n=None):
    # the screen's slot bound 2 n q < 2^32 depends on n and is tightest at n = 6;
    # shallower words for n >= 4 keep the Fraction reference quick
    n = draw(st.integers(2, 6)) if n is None else n
    row = st.lists(_entry, min_size=n, max_size=n)
    u, w = (
        SquareMatrix.from_rows(draw(st.lists(row, min_size=n, max_size=n))) for _ in range(2)
    )
    return u, w, draw(st.integers(1, 7 if n <= 3 else 4)), draw(st.integers(1, 300))


def largest_slot_prime(n):
    """The largest prime q with 2 n q < 2^32 and q < 2^29, the screen's slot bound."""
    q = min(2**29 - 1, (2**31 - 1) // n)
    while not is_prime(q):
        q -= 1
    return q


@pytest.mark.parametrize(
    "prime, screen",
    [(None, None), (7, None), (None, 7), (7, 7), (None, "largest")],
    ids=["None", "7", "None-screen7", "7-screen7", "None-screen-largest"],
)
@settings(max_examples=60, deadline=None)
@given(case=_oracle_case())
def test_oracle_matches_fraction_reference(prime, screen, case):
    with pytest.MonkeyPatch.context() as mp:
        if prime is not None:
            force_prime(mp, prime)
        if screen is not None:
            force_screen_prime(mp, largest_slot_prime(case[0].n) if screen == "largest" else screen)
        assert outcome(find_semigroup_collision, *case) == outcome(reference_collision, *case)


def reference_fingerprint(u, w, screen=False):
    """_fingerprint as it read the Fraction entries of u and w."""
    import hashlib

    digest = hashlib.sha256()
    for x in (x for m in (u, w) for row in m.entries for x in row):
        for v in (x.numerator, x.denominator):
            data = v.to_bytes(v.bit_length() // 8 + 1, "big", signed=True)
            digest.update(len(data).to_bytes(8, "big") + data)
    h = int.from_bytes(digest.digest(), "big")
    dens = {x.denominator for m in (u, w) for row in m.entries for x in row}
    p = pingpong._screen_prime_start(h) if screen else pingpong._prime_start(h)
    while not is_prime(p) or any(d % p == 0 for d in dens):
        p += 1
    r = (h >> (160 if screen else 64)) % p
    return p, tuple(pow(r, k, p) for k in range(u.n))


def reference_residue_rows(m, p):
    """m mod p from its Fraction entries."""
    return tuple(
        tuple(x.numerator * pow(x.denominator, -1, p) % p for x in row) for row in m.entries
    )


def reference_key_basis(y, q):
    """_key_basis as the products of its two shears mod q."""
    n = len(y)
    powers = [pow(y[1], n * k, q) for k in range(2 * n)]

    def shear(j, sign):
        # I + sign * v e_j^T with v_i = s^(jn + i) for i != j and v_j = 0
        return tuple(
            tuple(int(i == c) + sign * powers[j * n + i] * (c == j != i) for c in range(n))
            for i in range(n)
        )

    mul_mod = pingpong._mul_mod
    return mul_mod(shear(0, 1), shear(1, 1), q), mul_mod(shear(1, -1), shear(0, -1), q)


def reference_layer_keys(u, w, q, y, depth):
    """_layer_keys with the reference residues and basis, and the slot masks
    multiplied out from the packed ones on every layer."""
    mul_mod = pingpong._mul_mod
    z, z_inv = reference_key_basis(y, q)
    z_mont = tuple(tuple(x << 32 for x in row) for row in z)
    letters = [
        tuple(zip(*mul_mod(mul_mod(z_inv, reference_residue_rows(g, q), q), z_mont, q)))
        for g in (u, w)
    ]
    cols, ones = mul_mod([y], z, q)[0], 1
    neg_inv = -pow(q, -1, 2**32) % 2**32
    layers = [[cols[0] | cols[1] << 32]]
    for k in range(depth):
        if k == depth - 1:
            letters = [letter[:2] for letter in letters]
        first, second = ([sum(v * c for v, c in zip(cols, col)) for col in letter] for letter in letters)
        ones |= ones << (64 << k)
        low = ones * (2**32 - 1)
        cols = [
            x + ((x & low) * neg_inv & low) * q >> 32
            for x in (a | b << (64 << k) for a, b in zip(first, second))
        ]
        halves, key = ones | ones << 32, cols[0] | cols[1] << 32
        key -= ((key + (2**30 - q) * halves) >> 30 & halves) * q
        layers.append([key >> 64 * i & 2**64 - 1 for i in range(2 << k)])
    return layers


_wide_entry = st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**6)) | _entry


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.lists(_wide_entry, min_size=n, max_size=n), min_size=n, max_size=n),
            min_size=2,
            max_size=2,
        )
    ),
    st.booleans(),
)
def test_fingerprint_matches_the_fraction_reference(grids, screen):
    # the lowest-terms entries hashed from (den, num) are those of the Fraction
    # entries, so the prime and the row are the same
    u, w = (SquareMatrix.from_rows(g) for g in grids)
    p, x = pingpong._fingerprint(u, w, screen)
    assert (p, x) == reference_fingerprint(u, w, screen)
    for m in (u, w, u * w):
        assert pingpong._residue_rows(m, p) == reference_residue_rows(m, p)


def test_key_basis_matches_the_shear_products():
    rng = random.Random(5)
    for n in range(2, 9):
        for q in (3, 5, LOW_SCREEN_PRIME, MID_SCREEN_PRIME, largest_slot_prime(n)):
            for r in (0, 1, 2, q - 1, rng.randrange(q), rng.randrange(q)):
                y = tuple(pow(r, k, q) for k in range(n))
                assert pingpong._key_basis(y, q) == reference_key_basis(y, q)


def corpus_oracle_pairs():
    """(u, w) of each corpus certificate, the pair verify's oracle reads."""
    corpus = json.loads((ROOT / "bench/data/corpus.json").read_text())
    pairs = []
    for item in corpus["inputs"]:
        if "certificate" in item["certify"]:
            cert = PingPongCertificate.from_json_dict(item["certify"]["certificate"])
            gens = [SquareMatrix.from_rows(g) for g in item["generators"]]
            pairs.append((evaluate_word(cert.word_u, gens), evaluate_word(cert.word_w, gens)))
    return pairs


def test_layer_keys_match_the_reference_on_the_corpus_pairs():
    pairs = corpus_oracle_pairs()
    assert len(pairs) == 14
    for u, w in pairs:
        q, y = pingpong._fingerprint(u, w, screen=True)
        assert [list(keys) for keys in pingpong._layer_keys(u, w, q, y, 12)] == (
            reference_layer_keys(u, w, q, y, 12)
        )


def screen_keys(u, w, depth):
    """The screen's keys, layer by layer, as _layer_keys yields them."""
    q, y = pingpong._fingerprint(u, w, screen=True)
    return [list(keys) for keys in pingpong._layer_keys(u, w, q, y, depth)]


def word_keys(u, w, depth):
    """The same keys one word at a time, from the empty word: y * M_word * Z mod q, its first
    two coordinates packed."""
    q, y = pingpong._fingerprint(u, w, screen=True)
    z, _ = pingpong._key_basis(y, q)
    layers, layer = [], [SquareMatrix.identity(u.n)]
    for k in range(depth + 1):
        if k:
            layer = [m * g for g in (u, w) for m in layer]
        rows = [row_key(y, m, q) for m in layer]
        layers.append(
            [
                sum(sum(v * z[i][j] for i, v in enumerate(row)) % q << 32 * j for j in range(2))
                for row in rows
            ]
        )
    return layers


# a screen prime far below the hashed range [2^27, 2^28)
LOW_SCREEN_PRIME = 67
# a prime inside it
MID_SCREEN_PRIME = 3 * 2**26 + 29


@pytest.mark.parametrize("screen", [None, "low", "largest"])
def test_screen_keys_match_word_keys(monkeypatch, screen):
    rng = random.Random(11)
    cases = [(SANOV_U, SANOV_W, 8)]
    for _ in range(9):
        n = rng.randint(2, 4)
        u, w = (
            SquareMatrix.from_rows(
                [[F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
            )
            for _ in range(2)
        )
        cases.append((u, w, rng.randint(1, 8 if n == 2 else 6)))
    for u, w, depth in cases:
        if screen is not None:
            prime = largest_slot_prime(u.n) if screen == "largest" else LOW_SCREEN_PRIME
            force_screen_prime(monkeypatch, prime)
        assert screen_keys(u, w, depth) == word_keys(u, w, depth)


def test_key_basis_is_invertible_and_hashed():
    for n in range(2, 7):
        for q in (LOW_SCREEN_PRIME, MID_SCREEN_PRIME, largest_slot_prime(n)):
            for r in (0, 1, 2, q - 1, random.Random(n * q).randrange(q)):
                y = tuple(pow(r, k, q) for k in range(n))
                z, z_inv = pingpong._key_basis(y, q)
                eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
                assert pingpong._mul_mod(z, z_inv, q) == eye
                # the first key column reads every entry of M at its own power of r
                assert [row[0] for row in z] == [pow(r, n * j, q) for j in range(n)]
    # another row y moves every entry of the two key columns but Z_11 = 1
    q = LOW_SCREEN_PRIME
    z2, _ = pingpong._key_basis((1, 2, 4), q)
    z3, _ = pingpong._key_basis((1, 3, 9), q)
    moved = [(i, j) for i in range(3) for j in range(2) if z2[i][j] != z3[i][j]]
    assert moved == [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_hashed_key_columns_tell_apart_words_sharing_their_first_columns(monkeypatch):
    # every word of length k in AFFINE_U, AFFINE_W has the first two columns
    # of diag(3^k, 3^-k, 1): hashed key columns still see the third column
    assert pingpong._screen(AFFINE_U, AFFINE_W, 10)
    eye = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    monkeypatch.setattr(pingpong, "_key_basis", lambda y, q: (eye, eye))
    assert not pingpong._screen(AFFINE_U, AFFINE_W, 10)


def tuple_key_screen(u, w, depth):
    """The screen's verdict from tuple keys y * M mod q, a vector-times-letter product per word."""
    q, y = pingpong._fingerprint(u, w, screen=True)
    if 2 * u.n * q >= 2**32:
        return False
    letters = [pingpong._residue_rows(g, q) for g in (u, w)]
    seen, layer, words = set(), [y], 0
    for k in range(1, depth + 1):
        layer = [
            tuple(sum(v * g[i][j] for i, v in enumerate(row)) % q for j in range(u.n))
            for g in letters
            for row in layer
        ]
        seen.update(layer)
        words += 2**k
        if len(seen) != words:
            return False
    return True


def invertible_mod_screen_prime(u, w):
    """det(u) det(w) != 0 mod the screen's q, from the exact determinants."""
    q, _ = pingpong._fingerprint(u, w, screen=True)
    return (u.det() * w.det()).numerator % q != 0


@pytest.mark.parametrize("screen", [None, "low"])
def test_two_by_two_screen_verdict_matches_tuple_keys(monkeypatch, screen):
    # for n = 2 the key determines y * M mod q, so with both letters
    # invertible mod q suffix cancellation gives the tuple keys' verdict;
    # a letter singular mod q hands the words to the resolver
    if screen is not None:
        force_screen_prime(monkeypatch, LOW_SCREEN_PRIME)
    rng = random.Random(23)
    cases = [(u, w, 9) for u, w, _ in PLANTED if u.n == 2] + [(SANOV_U, SANOV_W, 10)]
    for _ in range(20):
        u, w = (
            SquareMatrix.from_rows(
                [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)]
            )
            for _ in range(2)
        )
        cases.append((u, w, rng.randint(1, 9)))
    verdicts = []
    for u, w, depth in cases:
        verdict = pingpong._screen(u, w, depth)
        if invertible_mod_screen_prime(u, w):
            assert verdict == tuple_key_screen(u, w, depth)
        else:
            assert not verdict
        verdicts.append(verdict)
    assert len(set(verdicts)) == 2


# a rotation of order 3, and a partner sharing no relation with it
ROT3 = SquareMatrix.from_rows([[0, -1], [1, -1]])
PARTNER = SquareMatrix.from_rows([[2, 1], [1, 1]])


@pytest.mark.parametrize("u, order", [(ROT3, 3), (ROT, 4)], ids=["order3", "order4"])
def test_identity_check_stops_below_depth(u, order):
    # u^order = I is a word of length depth, and no repeat: the identity's
    # key is looked for among shorter words only.  (ROT^2 = -I is central,
    # so ROT already has uuw = wuu at depth 3.)
    assert pingpong._screen(u, PARTNER, order) == tuple_key_screen(u, PARTNER, order)
    assert pingpong._screen(u, PARTNER, order) == (order == 3)
    assert find_semigroup_collision(u, PARTNER, order) == reference_collision(u, PARTNER, order)
    # one layer deeper, u^(order+1) = u
    assert not pingpong._screen(u, PARTNER, order + 1)
    want = reference_collision(u, PARTNER, order + 1)
    assert find_semigroup_collision(u, PARTNER, order + 1) == want
    assert want == (("u", "uuuu") if order == 3 else ("uuw", "wuu"))


def test_identity_check_sees_a_word_fixing_the_key_row(monkeypatch):
    # mod 67 the drawn row y is fixed by u, which is not I mod 67: y u = y,
    # so the keys of u and uu equal the identity's, while no word ending in
    # u shares a key with one ending in w; only the identity check gives the
    # tuple keys' verdict on the repeat y u = y u u
    force_screen_prime(monkeypatch, LOW_SCREEN_PRIME)
    u = SquareMatrix.from_rows([[1, 2], [0, -2]])
    w = SquareMatrix.from_rows([[-2, -2], [0, -2]])
    q, y = pingpong._fingerprint(u, w, screen=True)
    assert row_key(y, u, q) == y and pingpong._residue_rows(u, q) != ((1, 0), (0, 1))
    assert invertible_mod_screen_prime(u, w)
    assert not tuple_key_screen(u, w, 2)
    assert not pingpong._screen(u, w, 2)
    assert find_semigroup_collision(u, w, 8) == reference_collision(u, w, 8)


IDEMPOTENT = SquareMatrix.from_rows([[1, 0], [0, 0]])


@pytest.mark.parametrize("screen", [None, "low"])
def test_letter_singular_mod_q_hands_over_to_resolver(monkeypatch, screen):
    # u = uu is a repeat of two words ending in u, which the screen never
    # compares: cancelling the common suffix needs u invertible mod q
    if screen is not None:
        force_screen_prime(monkeypatch, LOW_SCREEN_PRIME)
    cases = [(IDEMPOTENT, SANOV_W), (SANOV_U, IDEMPOTENT), (IDEMPOTENT, PARTNER)]
    if screen is not None:
        # invertible over Q, singular mod the forced q
        cases.append((SquareMatrix.from_rows([[LOW_SCREEN_PRIME, 1], [0, 1]]), SANOV_W))
    for u, w in cases:
        assert not invertible_mod_screen_prime(u, w)
        for depth in (1, 2, 6):
            assert not pingpong._screen(u, w, depth)
            assert find_semigroup_collision(u, w, depth) == reference_collision(u, w, depth)
    assert find_semigroup_collision(IDEMPOTENT, SANOV_W, 6) == ("u", "uu")


@pytest.mark.parametrize("screen", [None, 7, "low"])
@settings(max_examples=80, deadline=None)
@given(case=_oracle_case(n=3))
# commuting letters: uw = wu, a word ending in w equal to one ending in u
@example(case=(diag(2, 1, 1), diag(1, 3, 1), 2, 1))
def test_three_by_three_screen_is_sound(screen, case):
    # for n = 3 a key is a projection of y * M, so two words may share one;
    # the cancellation runs on the matrices mod q, and a clear screen means
    # no repeat at all
    u, w, depth, _ = case
    with pytest.MonkeyPatch.context() as mp:
        if screen is not None:
            force_screen_prime(mp, LOW_SCREEN_PRIME if screen == "low" else screen)
        if pingpong._screen(u, w, depth):
            assert reference_collision(u, w, depth) is None


def packed(values):
    return sum(v << 64 * i for i, v in enumerate(values))


def slot_values(x, slots):
    return [x >> 64 * i & 2**64 - 1 for i in range(slots)]


def montgomery_step(x, q):
    """(x + m q) / 2^32 for one int x, m = (x mod 2^32) * (-q^-1) mod 2^32."""
    return (x + (x % 2**32) * (-pow(q, -1, 2**32)) % 2**32 * q) // 2**32


@pytest.mark.parametrize("n", range(1, 7))
def test_montgomery_slots_match_the_scalar_step(n):
    rng = random.Random(n)
    for q in (LOW_SCREEN_PRIME, MID_SCREEN_PRIME, largest_slot_prime(n)):
        # the largest product slot a layer makes, and the largest the step accepts
        top, limit = n * (2 * q - 1) * (q - 1), 2**32 * q - 1
        edges = [0, q - 1, q, 2 * q - 1, top, limit]
        for slots in (1, 2, 3, 8, 63, 64, 65, 256, 511, 512, 513):
            values = [
                rng.choice(edges) if rng.random() < 0.5 else rng.randint(0, limit)
                for _ in range(slots)
            ]
            values[0], values[-1] = rng.choice(edges), rng.choice(edges)
            low = packed([2**32 - 1] * slots)
            reduced = pingpong._montgomery_slots([packed(values), packed(values[::-1])], q, low)
            want = [[montgomery_step(v, q) for v in vs] for vs in (values, values[::-1])]
            assert [slot_values(x, slots) for x in reduced] == want
            # every slot is below 2q and congruent to x / 2^32 mod q
            inv = pow(2, -32, q)
            assert all(r < 2 * q and (r - v * inv) % q == 0 for r, v in zip(want[0], values))


def refuse(*args):
    raise AssertionError("this stage should not run here")


def test_screen_clears_free_sanov_pair(monkeypatch):
    monkeypatch.setattr(pingpong, "_resolve", refuse)
    assert find_semigroup_collision(SANOV_U, SANOV_W, depth=10) is None


def count_resolver_calls(mp):
    calls = []
    resolver = pingpong._resolve

    def counted(*args):
        calls.append(args)
        return resolver(*args)

    mp.setattr(pingpong, "_resolve", counted)
    return calls


def test_tiny_screen_prime_hands_over_to_resolver(monkeypatch):
    force_screen_prime(monkeypatch, 7)
    calls = count_resolver_calls(monkeypatch)
    # 49 keys modulo 7 cannot tell 2^11 - 2 words apart
    assert find_semigroup_collision(SANOV_U, SANOV_W, depth=10) is None
    assert len(calls) == 1
    for u, w, words in PLANTED:
        assert find_semigroup_collision(u, w) == words


def sanov_block(n):
    """The Sanov pair as the top-left block of two n x n matrices, identity below."""
    return (
        SquareMatrix.from_rows(
            [[g.entries[i][j] if i < 2 and j < 2 else int(i == j) for j in range(n)] for i in range(n)]
        )
        for g in (SANOV_U, SANOV_W)
    )


@pytest.mark.parametrize("n", [2, 4, 6])
def test_slot_bound_skips_screen(monkeypatch, n):
    u, w = sanov_block(n)
    largest = largest_slot_prime(n)
    force_screen_prime(monkeypatch, largest)
    assert pingpong._fingerprint(u, w, screen=True)[0] == largest
    assert pingpong._screen(u, w, 6)
    force_screen_prime(monkeypatch, largest + 1)
    q, _ = pingpong._fingerprint(u, w, screen=True)
    assert 2 * n * q >= 2**32 or q >= 2**29
    assert not pingpong._screen(u, w, 6)
    calls = count_resolver_calls(monkeypatch)
    assert find_semigroup_collision(u, w, depth=6) is None
    assert len(calls) == 1


def test_screen_runs_only_within_budget(monkeypatch):
    monkeypatch.setattr(pingpong, "_screen", refuse)
    # 2^13 - 2 words exceed the budget, so the resolver raises at the same word
    with pytest.raises(BudgetExceeded):
        find_semigroup_collision(SANOV_U, SANOV_W, depth=12, budget=2**13 - 3)
    assert find_semigroup_collision(SANOV_U, SANOV_U, depth=12, budget=5) == ("u", "w")


def test_growth_bound_examples():
    assert growth_bound_from_length(1) == 2
    assert growth_bound_from_length(3) == F(660561, 524288)
    with pytest.raises(ValueError):
        growth_bound_from_length(0)


def test_growth_bound_is_certified_dyadic():
    step = F(1, 2**20)
    for ell in range(1, 41):
        q = growth_bound_from_length(ell)
        assert 1 < q <= 2
        assert q**ell <= 2 < (q + step) ** ell
        assert (2**20) % q.denominator == 0


def reference_growth_bound(ell: int, grid_bits: int = 20) -> F:
    """Binary search for the integer k with (k/scale)^ell <= 2 < ((k+1)/scale)^ell."""
    scale = 1 << grid_bits
    lo, hi = scale, 2 * scale  # q in [1, 2]
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**ell <= 2 * scale**ell:
            lo = mid
        else:
            hi = mid - 1
    return F(lo, scale)


def test_growth_bound_matches_binary_search():
    for ell in range(1, 400):
        assert growth_bound_from_length(ell) == reference_growth_bound(ell)


def certificate():
    return PingPongCertificate(
        n=2,
        word_a=Word.parse("0 1"),
        word_b=Word.parse("0"),
        place=ARCH,
        wedge_m=1,
        exponent=1,
        cone_param=F(1, 16),
        checks=ConeChecks(True, True, True),
        growth_bound=growth_bound_from_length(3),
        oracle_depth_validated=12,
    )


def test_certificate_word_properties():
    cert = certificate()
    assert str(cert.word_u) == "0 1 0"
    assert str(cert.word_w) == "0 1 0 1 0"


def test_certificate_json_round_trip():
    cert = certificate()
    text = cert.to_json()
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["schema"] == "growthcert.certificate.v1"
    assert data["cone_param"] == "1/16"
    assert PingPongCertificate.from_json_dict(json.loads(text)) == cert
    # canonical form: sorted keys, no spaces
    assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def test_certificate_validation():
    good = certificate()
    with pytest.raises(ValueError):
        PingPongCertificate(
            n=2,
            word_a=good.word_a,
            word_b=good.word_b,
            place=ARCH,
            wedge_m=1,
            exponent=0,
            cone_param=F(1, 16),
            checks=ConeChecks(True, True, True),
            growth_bound=F(3, 2),
            oracle_depth_validated=12,
        )
    with pytest.raises(ValueError):
        PingPongCertificate(
            n=2,
            word_a=good.word_a,
            word_b=good.word_b,
            place=ARCH,
            wedge_m=1,
            exponent=1,
            cone_param=F(1, 16),
            checks=ConeChecks(True, False, True),
            growth_bound=F(3, 2),
            oracle_depth_validated=12,
        )
    with pytest.raises(ValueError):
        PingPongCertificate(
            n=2,
            word_a=good.word_a,
            word_b=good.word_b,
            place=ARCH,
            wedge_m=1,
            exponent=1,
            cone_param=F(1, 16),
            checks=ConeChecks(True, True, True),
            growth_bound=F(1),
            oracle_depth_validated=12,
        )


def test_cone_soundness_against_oracle():
    # whenever the cones certify, words A^e B and A^2e B must generate a
    # free semigroup; the depth-8 oracle cross-checks that on random pairs
    rng = random.Random(52)
    tried = 0
    for _ in range(200):
        if tried >= 12:
            break
        k = rng.randint(2, 5)
        b = SquareMatrix.from_rows(
            [[rng.randint(1, 3), rng.randint(1, 3)] for _ in range(2)]
        )
        if b.entries[0][0] * b.entries[1][1] == b.entries[0][1] * b.entries[1][0]:
            continue
        try:
            e, r, checks = derive_exponent(diag(F(k), F(1, k)), b, ARCH, cap=8)
        except ExponentSearchExhausted:
            continue
        assert checks.all_pass
        tried += 1
        a = SquareMatrix.from_rows([[k, 0], [0, F(1, k)]])
        u = a**e * b
        w = a ** (2 * e) * b
        assert find_semigroup_collision(u, w, depth=8) is None
    assert tried >= 12


def _random_sl(rng, n):
    """A product of 3 to 6 elementary integer matrices: an element of SL_n(Z)."""
    m = SquareMatrix.identity(n)
    for _ in range(rng.randint(3, 6)):
        i, j = rng.sample(range(n), 2)
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        e[i][j] = rng.choice([-3, -2, -1, 1, 2, 3])
        m = m * SquareMatrix.from_rows(e)
    return m


def test_cone_checks_are_sound_in_an_arbitrary_basis():
    # the ping-pong argument needs no eigenbasis: wherever the three checks
    # pass on X^-1 A X and X^-1 B X for a random invertible integer X, A^e B
    # and A^2e B generate a free semigroup, which the oracle confirms to
    # depth 10.  A has |tr A| > n + 2, so that some of them pass at all.
    rng = random.Random(2023)
    passed = {2: 0, 3: 0}
    for _ in range(1500):
        n = rng.choice([2, 3])
        a, b = _random_sl(rng, n), _random_sl(rng, n)
        if abs(sum(a.entries[i][i] for i in range(n))) <= n + 2:
            continue
        x = SquareMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if x.det() == 0:
            continue
        x_inv = x.inverse()
        a_x, b_x = x_inv * a * x, x_inv * b * x
        for e in range(1, 5):
            if any(verify_cone_inclusions(a_x, b_x, e, r, ARCH).all_pass for r in DEFAULT_RADII):
                passed[n] += 1
                assert find_semigroup_collision(a**e * b, a ** (2 * e) * b, depth=10) is None
                break
    assert passed[2] >= 15 and passed[3] >= 1
