"""Certify across Nielsen orbits: the same groups under other generating sets.

The theorem is uniform in the generating set, so each corpus group should
stay certifiable after Nielsen moves.  A move replaces g_i by g_i h or
h g_i, with h = g_j or g_j^-1 (j != i); it keeps the group and changes the
generating set.  The draws are seeded: for each input and s = 0, 1, 2,
rng = random.Random(1000 k + s) makes K moves.

tests/data/nielsen_answers.json holds the answer certify gave each draw
when it was recorded.  The test is a ratchet: a draw that was certified
stays certified, its bound never gets weaker, and every certificate
verifies.  A change that improves an answer re-records the file:

    PYTHONPATH=src python tests/test_nielsen.py --record
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from growthcert.errors import PipelineFailure
from growthcert.exactnum import SquareMatrix
from growthcert.pingpong import PingPongCertificate
from growthcert.pipeline import certify_generators, verify_certificate

ROOT = Path(__file__).resolve().parent.parent
ANSWERS_PATH = ROOT / "tests/data/nielsen_answers.json"
CORPUS = {item["id"]: item for item in json.loads((ROOT / "bench/data/corpus.json").read_text())["inputs"]}
INPUTS = ["sanov", "sl2_hyperbolic/0", "sl2_hyperbolic/5", "sl3_product/1", "sl3_product/4", "sl4_product/0"]
K = 12
DRAWS = [f"{input_id}/s={s}" for input_id in INPUTS for s in range(3)]


def nielsen_draw(draw: str) -> list[SquareMatrix]:
    """The generators of a draw "<input>/s=<seed>" after K seeded Nielsen moves."""
    input_id, seed = draw.rsplit("/s=", 1)
    gens = [SquareMatrix.from_rows(g) for g in CORPUS[input_id]["generators"]]
    rng = random.Random(1000 * K + int(seed))
    for _ in range(K):
        i, j = rng.sample(range(2), 2)
        h = gens[j] if rng.random() < 0.5 else gens[j].inverse()
        gens[i] = gens[i] * h if rng.random() < 0.5 else h * gens[i]
    return gens


def answer(gens: list[SquareMatrix]) -> dict:
    """certify's certificate as JSON, or the stage at which it refused."""
    try:
        return {"certificate": certify_generators(gens).certificate.to_json_dict()}
    except PipelineFailure as exc:
        return {"failed_stage": exc.stage}


@pytest.mark.parametrize("draw", DRAWS)
def test_a_nielsen_draw_keeps_its_recorded_certificate_and_bound(draw):
    recorded = json.loads(ANSWERS_PATH.read_text())[draw]
    gens = nielsen_draw(draw)
    got = answer(gens)
    if "certificate" in recorded:
        assert "certificate" in got, got
        bound = Fraction(got["certificate"]["growth_bound"])
        assert bound >= Fraction(recorded["certificate"]["growth_bound"])
    if "certificate" in got:
        cert = PingPongCertificate.from_json_dict(got["certificate"])
        assert verify_certificate(cert, gens) == (True, "ok")


def test_the_draws_are_the_recorded_ones():
    assert sorted(json.loads(ANSWERS_PATH.read_text())) == sorted(DRAWS)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    answers = {draw: answer(nielsen_draw(draw)) for draw in DRAWS}
    ANSWERS_PATH.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
