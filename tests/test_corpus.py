"""The recorded benchmark corpus as a regression test.

bench/data/corpus.json holds 19 generator files with the certificate or
refusal stage certify gave each, their exact ball sizes, and 15 tampered
certificates.  Every kernel change must reproduce these answers exactly;
a change that alters certificates on purpose re-records the corpus.  The
file is only read here.

tests/data/corpus_traces.json holds certify's --trace JSONL for each input,
so the stage records (words, constants, places, exponents, refusal details)
are pinned byte for byte as well.  A change that alters a trace on purpose
re-records that file as a named spec change:

    PYTHONPATH=src python tests/test_corpus.py --record

tests/data/tamper_reasons.json holds the reason verify gave for each
tamper when it was recorded, so every tamper keeps failing at the same
check, not merely failing.
"""

import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from growthcert import cli, wordforge
from growthcert.intervals import ComplexInterval

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((ROOT / "bench/data/corpus.json").read_text())
TRACES_PATH = ROOT / "tests/data/corpus_traces.json"
TAMPER_REASONS = json.loads((ROOT / "tests/data/tamper_reasons.json").read_text())
INPUTS = {item["id"]: item for item in CORPUS["inputs"]}
CERTIFIED = [i for i, item in INPUTS.items() if "certificate" in item["certify"]]


def run(capsys, argv):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def generator_file(tmp_path, input_id):
    item = INPUTS[input_id]
    return write(tmp_path, "gens.json", {"n": item["n"], "generators": item["generators"]})


def test_corpus_shape():
    assert len(INPUTS) == 19
    assert len(CERTIFIED) == 14
    assert len(CORPUS["tampers"]) == 15


@pytest.mark.parametrize("input_id", list(INPUTS))
def test_certify_gives_the_recorded_answer(tmp_path, capsys, input_id):
    want = INPUTS[input_id]["certify"]
    code, doc = run(capsys, ["certify", generator_file(tmp_path, input_id), "--trace",
                             str(tmp_path / "trace.jsonl")])
    assert code == want["exit"]
    if code == 0:
        assert doc == want["certificate"]
    else:
        assert doc["failed_stage"] == want["failed_stage"]
    traces = json.loads(TRACES_PATH.read_text())
    assert (tmp_path / "trace.jsonl").read_text() == traces[input_id]


@pytest.mark.parametrize("input_id", list(INPUTS))
def test_growth_gives_the_recorded_ball_sizes(tmp_path, capsys, input_id):
    want = INPUTS[input_id]["growth"]
    argv = ["growth", generator_file(tmp_path, input_id), "--radius", str(want["radius"])]
    code, doc = run(capsys, argv)
    assert code == 0
    assert doc["ball_sizes"] == want["ball_sizes"]


@pytest.mark.parametrize("input_id", CERTIFIED)
def test_verify_accepts_the_recorded_certificate(tmp_path, capsys, input_id):
    cert = write(tmp_path, "cert.json", INPUTS[input_id]["certify"]["certificate"])
    code, doc = run(capsys, ["verify", cert, generator_file(tmp_path, input_id)])
    assert (code, doc["valid"]) == (0, True)


@pytest.mark.parametrize("tamper", CORPUS["tampers"], ids=lambda t: t["id"])
def test_verify_rejects_the_recorded_tamper(tmp_path, capsys, tamper):
    cert = write(tmp_path, "cert.json", tamper["certificate"])
    code, doc = run(capsys, ["verify", cert, generator_file(tmp_path, tamper["of"])])
    assert (code, doc["valid"]) == (5, False)
    assert doc["reason"] == TAMPER_REASONS[tamper["id"]]


def fraction_interval_mid(x):
    """The box sort key from the Fraction bounds of |x|^2 (the reference)."""
    m = x.mag_sq()
    mid = (m.lo + m.hi) / 2
    return math.sqrt(float(mid)) if mid <= Fraction(sys.float_info.max) else mid


def test_box_sort_keys_match_the_fraction_reference(tmp_path, capsys):
    # every box that certify or verify sorts over the corpus gets the same key
    # from the integer bounds of |x|^2 as from their Fractions, so no order moves
    boxes = []
    key = wordforge._interval_mid

    def recording_key(x):
        if isinstance(x, ComplexInterval):
            boxes.append(x)
        return key(x)

    with mock.patch.object(wordforge, "_interval_mid", recording_key):
        for input_id in INPUTS:
            gens = generator_file(tmp_path, input_id)
            run(capsys, ["certify", gens])
            if input_id in CERTIFIED:
                cert = write(tmp_path, "cert.json", INPUTS[input_id]["certify"]["certificate"])
                run(capsys, ["verify", cert, gens])
    assert len(boxes) > 100
    assert all(key(x) == fraction_interval_mid(x) for x in boxes)
    huge = ComplexInterval(2**600, 2**600, 0, 0, -1000)
    assert key(huge) == fraction_interval_mid(huge) == Fraction(2**3200)


def record_traces() -> None:
    """Write certify's trace of every corpus input to tests/data/corpus_traces.json."""
    traces = {}
    for input_id in INPUTS:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp)
            cli.main(["certify", generator_file(path, input_id), "--trace", str(path / "trace.jsonl")])
            traces[input_id] = (path / "trace.jsonl").read_text()
    TRACES_PATH.parent.mkdir(exist_ok=True)
    TRACES_PATH.write_text(json.dumps(traces, indent=1) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record_traces()
