"""The benchmark corpus: seeded generator families plus fixed known answers.

The corpus is a fixed number of draws per family, never "draw until k
certify", so it does not depend on what the program under test can do.
The two seeded families are the generators of the acceptance battery; the
draws keep their seeds (411 and 17) so the inputs are the same attempts.

The answers recorded in data/corpus.json (certificates, refusal stages,
ball sizes) belong to these exact generator files: a certificate's cone
parameter is taken in an eigenbasis fixed by the file's coordinates, so
even a conjugated file may need another one.  A run's --seed therefore
keeps the inputs and shuffles the call order.

This module uses only the standard library: inputs are built without the
program under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

# family -> (draw seed, number of draws, why the family is in the corpus).
# The draw counts keep one certify pass well inside a single run of the
# benchmark; they still include every refusal stage the corpus exercises.
FAMILIES = {
    "sl2_hyperbolic": (
        411,
        9,
        "acceptance draws over Z[1/2], n=2; draw 8 is refused at swap_roles",
    ),
    "sl3_product": (
        17,
        7,
        "acceptance draws over Z, n=3; draws 0 and 5 are refused at "
        "find_regular_pair, draw 6 at swap_roles",
    ),
    "sl4_product": (
        23,
        1,
        "n=4 with large entries: bigint matmul and the almost-algebra diagnostic",
    ),
}

FIXED_WHY = {
    "sanov": "free group: ball sizes are 2*3^n-1 and bound a certified rate",
    "heisenberg": "nilpotent, polynomial growth: certify must refuse it",
}

# Ball radius per family for the growth workload.
GROWTH_RADIUS = {"sl2_hyperbolic": 6, "sl3_product": 6, "sl4_product": 6, "sanov": 8, "heisenberg": 12}


def _identity(n):
    return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _elem(n, i, j, s):
    m = _identity(n)
    m[i][j] = Fraction(s)
    return m


def sl2_hyperbolic(rng):
    """E12(a) * diag(2^k, 2^-k) * E21(b): the trace grows with k, entries in Z[1/2]."""
    a = rng.randint(-2, 2)
    b = rng.randint(-2, 2)
    k = rng.randint(1, 2)
    diag = [[Fraction(2**k), Fraction(0)], [Fraction(0), Fraction(1, 2**k)]]
    return _matmul(_matmul(_elem(2, 0, 1, a), diag), _elem(2, 1, 0, b))


def elementary_product(rng, n, factors):
    """Product of elementary matrices E_ij(c) with c in {+-2, +-3}."""
    m = _identity(n)
    for _ in range(factors):
        i, j = rng.sample(range(n), 2)
        m = _matmul(m, _elem(n, i, j, rng.choice([-3, -2, 2, 3])))
    return m


def _draw(family, rng):
    if family == "sl2_hyperbolic":
        return [sl2_hyperbolic(rng), sl2_hyperbolic(rng)]
    if family == "sl3_product":
        return [elementary_product(rng, 3, 4), elementary_product(rng, 3, 4)]
    if family == "sl4_product":
        return [elementary_product(rng, 4, 5), elementary_product(rng, 4, 5)]
    raise ValueError(f"unknown family {family}")


def base_corpus(seed_offset=0):
    """[(input id, family, why, generators)] with generators as Fraction grids.

    seed_offset shifts every family's draw seed; 0 gives the recorded corpus.
    """
    out = []
    for family, (seed, draws, why) in FAMILIES.items():
        rng = random.Random(seed + seed_offset)
        for k in range(draws):
            out.append((f"{family}/{k}", family, why, _draw(family, rng)))
    sanov = [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]
    heisenberg = [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
    ]
    for name, gens in (("sanov", sanov), ("heisenberg", heisenberg)):
        grids = [[[Fraction(x) for x in row] for row in g] for g in gens]
        out.append((name, name, FIXED_WHY[name], grids))
    return out


def to_strings(grid):
    return [[format_fraction(x) for x in row] for row in grid]


def format_fraction(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
