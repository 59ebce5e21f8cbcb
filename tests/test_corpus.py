"""The recorded benchmark corpus as a regression test.

bench/data/corpus.json holds 19 generator files with the certificate or
refusal stage certify gave each, their exact ball sizes, and 15 tampered
certificates.  Every kernel change must reproduce these answers exactly;
a change that alters certificates on purpose re-records the corpus.  The
file is only read here.
"""

import json
from pathlib import Path

import pytest

from growthcert import cli

CORPUS = json.loads((Path(__file__).resolve().parent.parent / "bench/data/corpus.json").read_text())
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
    code, doc = run(capsys, ["certify", generator_file(tmp_path, input_id)])
    assert code == want["exit"]
    if code == 0:
        assert doc == want["certificate"]
    else:
        assert doc["failed_stage"] == want["failed_stage"]


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
