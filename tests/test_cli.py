"""Command line interface: subcommands, exit codes, file formats."""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from growthcert import cli, pingpong
from growthcert.exactnum import format_rational, is_prime
from growthcert.pingpong import growth_bound_from_length
from test_cayley import heisenberg_gens, reference_ball

REPO = Path(__file__).resolve().parents[1]
ENV_WITHOUT_PYTHONPATH = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def sanov_file(tmp_path):
    return write_json(
        tmp_path / "sanov.json",
        {
            "n": 2,
            "generators": [[[1, 2], [0, 1]], [[1, 0], [2, 1]]],
            "labels": ["a", "b"],
        },
    )


def heisenberg_file(tmp_path):
    return write_json(
        tmp_path / "heis.json",
        {
            "n": 3,
            "generators": [
                [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
            ],
        },
    )


SANOV_CERT = {
    "schema": "growthcert.certificate.v1",
    "n": 2,
    "word_A": "0 1",
    "word_B": "0",
    "place": "archimedean",
    "wedge_m": 1,
    "exponent": 1,
    "cone_param": "1/16",
    "checks": {"disjoint": True, "contracts": True, "contracts_double": True},
    "growth_bound": "1204497/1048576",
    "oracle_depth_validated": 12,
}


def sanov_cert_file(tmp_path, **fields):
    cert = {**SANOV_CERT, **fields}
    return write_json(tmp_path / "cert.json", cert)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_growth_sanov(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    code, out, _ = run(capsys, ["growth", gens, "--radius", "6"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "growthcert.growth.v1"
    assert data["ball_sizes"] == [[0, 1], [1, 5], [2, 17], [3, 53], [4, 161], [5, 485], [6, 1457]]
    assert data["alphabet_size"] == 4
    assert data["omega_estimate"] == "882639/262144"
    assert data["omega_estimates"][-1] == [6, "882639/262144"]
    assert data["verdict"] == "exponential-evidence"
    assert data["exhausted"] is False and data["budget_exceeded"] is False


def test_growth_csv_output(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    csv_path = tmp_path / "table.csv"
    code, _, _ = run(capsys, ["growth", gens, "--radius", "2", "--csv", str(csv_path)])
    assert code == 0
    assert csv_path.read_text() == "n,count\n0,1\n1,5\n2,17\n"


def test_growth_budget_exit(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    code, out, _ = run(capsys, ["growth", gens, "--radius", "10", "--budget", "30"])
    assert code == 3
    data = json.loads(out)
    assert data["budget_exceeded"] is True
    # completed radii stay exact
    assert data["ball_sizes"][0] == [0, 1]
    for radius, count in data["ball_sizes"][1:3]:
        assert count == [1, 5, 17][radius]


def test_growth_pretty_adds_float_keys(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    code, out, _ = run(capsys, ["growth", gens, "--radius", "3", "--pretty"])
    assert code == 0
    data = json.loads(out)
    assert abs(data["omega_estimate~"] - 53 ** (1 / 3)) < 0.001
    assert data["omega_estimate"] == "3938751/1048576"


def test_heisenberg_growth_verdict(capsys, tmp_path):
    gens = heisenberg_file(tmp_path)
    code, out, _ = run(capsys, ["growth", gens, "--radius", "12"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "polynomial-evidence"
    assert data["poly_fit_degree"] == 4
    assert data["ball_sizes"][-1] == [12, 8871]


def test_find_pair_sanov(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    code, out, _ = run(capsys, ["find-pair", gens])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "growthcert.pair.v1"
    assert data["word_A"] == "0 1" and data["word_B"] == "0"
    assert data["disc"] == "32"
    assert data["l1_grid"] == {"archimedean/m=1": True}
    assert data["genericity"]["shemesh"] is True
    assert data["genericity"]["burnside_dim"] == 4


def test_find_pair_reports_wedge_genericity(capsys, tmp_path):
    # n = 4 has one wedge degree in 2..n/2; find-pair reports it, certify does not need it
    gens = write_json(
        tmp_path / "sl4.json",
        {
            "n": 4,
            "generators": [
                [[1, 0, 0, 0], [0, 1, 3, 0], [-5, 0, 1, 0], [0, 0, 0, 1]],
                [[37, 18, -36, -3], [2, 1, -2, 0], [0, 0, 1, 0], [-12, -6, 12, 1]],
            ],
        },
    )
    code, out, _ = run(capsys, ["find-pair", gens])
    assert code == 0
    data = json.loads(out)
    assert data["genericity"]["burnside_dim"] == 16
    assert data["genericity"]["wedges"] == {"2": {"burnside_dim": 36, "shemesh": True}}


def test_find_pair_failure(capsys, tmp_path):
    gens = heisenberg_file(tmp_path)
    code, out, _ = run(capsys, ["find-pair", gens])
    assert code == 4
    data = json.loads(out)
    assert data["schema"] == "growthcert.failure.v1"
    assert data["failed_stage"] == "find_regular_pair"


def test_find_pair_over_budget_emits_failure(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    code, out, _ = run(capsys, ["find-pair", gens, "--budget", "5"])
    assert code == 3
    data = json.loads(out)
    assert data["schema"] == "growthcert.failure.v1"
    assert data["failed_stage"] == "find_regular_pair"
    assert "budget 5" in data["reason"]


def test_certify_verify_round_trip(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    cert_path = tmp_path / "cert.json"
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run(
        capsys,
        ["certify", gens, "--out", str(cert_path), "--trace", str(trace_path)],
    )
    assert code == 0
    stdout_cert = json.loads(out)
    file_cert = json.loads(cert_path.read_text())
    assert stdout_cert == file_cert
    assert file_cert["schema"] == "growthcert.certificate.v1"
    assert file_cert["word_A"] == "0 1" and file_cert["word_B"] == "0"
    assert file_cert["exponent"] == 1 and file_cert["cone_param"] == "1/16"
    assert file_cert["growth_bound"] == "1204497/1048576"
    lines = trace_path.read_text().splitlines()
    assert len(lines) == 4
    assert json.loads(lines[-1])["stage"] == "certificate"

    code, out, _ = run(capsys, ["verify", str(cert_path), gens])
    assert code == 0
    verdict = json.loads(out)
    assert verdict == {"schema": "growthcert.verdict.v1", "valid": True, "reason": "ok"}


# generating sets that certify on a rounded basis at wedge degree m >= 3,
# which no corpus input reaches: the points' canonical order feeds
# wedge_pair's sort of C(n, m) coordinates.  Recorded stdout and --trace;
# a change that moves them on purpose re-records them.  n4-m3's A has a
# conjugate pair, which gives the basis two real columns.
ENCLOSED_WEDGE_CASES = {
    "n4-m3": (
        [
            [[1, 0, -2, 0], [0, 3, 5, -2], [0, -2, -3, 2], [0, -1, -2, 1]],
            [[1, 0, 0, -2], [-1, 1, -1, 0], [1, 0, 1, 0], [-1, -1, -1, 1]],
        ],
        '{"checks":{"contracts":true,"contracts_double":true,"disjoint":true},'
        '"cone_param":"1/4","exponent":3,"growth_bound":"1157721/1048576","n":4,'
        '"oracle_depth_validated":12,"place":"archimedean","schema":'
        '"growthcert.certificate.v1","wedge_m":3,"word_A":"0","word_B":"1"}\n',
        [
            '{"burnside_dim":16,"disc":"-304","ok":true,"stage":"find_regular_pair",'
            '"word_A":"0","word_B":"1"}',
            '{"bits":64,"candidates":2,"cone_param":"1/4","exponent":3,"ok":true,'
            '"place":"archimedean","stage":"derive_exponent","wedge_m":3,"word_A":"0",'
            '"word_B":"1"}',
            '{"depth":12,"ok":true,"stage":"freeness_oracle"}',
            '{"growth_bound":"1157721/1048576","max_word_length":7,"ok":true,'
            '"stage":"certificate"}',
        ],
    ),
    "n5-m4": (
        [
            [[1, 0, 0, 0, 0], [-3, 1, 0, 0, 2], [0, 0, 1, 0, 0], [-3, 2, 0, 1, 0],
             [-1, 0, 0, 0, 1]],
            [[1, 0, -2, 0, 0], [2, 1, 0, -2, -1], [0, -2, 1, 0, 0], [0, 0, 0, 1, 0],
             [-2, 0, 0, 2, 1]],
        ],
        '{"checks":{"contracts":true,"contracts_double":true,"disjoint":true},'
        '"cone_param":"1/64","exponent":3,"growth_bound":"1157721/1048576","n":5,'
        '"oracle_depth_validated":12,"place":"archimedean","schema":'
        '"growthcert.certificate.v1","wedge_m":4,"word_A":"1","word_B":"0"}\n',
        [
            '{"burnside_dim":25,"disc":"-15466496","ok":true,"stage":"find_regular_pair",'
            '"word_A":"1","word_B":"0"}',
            '{"bits":64,"candidates":1,"cone_param":"1/64","exponent":3,"ok":true,'
            '"place":"archimedean","stage":"derive_exponent","wedge_m":4,"word_A":"1",'
            '"word_B":"0"}',
            '{"depth":12,"ok":true,"stage":"freeness_oracle"}',
            '{"growth_bound":"1157721/1048576","max_word_length":7,"ok":true,'
            '"stage":"certificate"}',
        ],
    ),
}


@pytest.mark.parametrize("case", list(ENCLOSED_WEDGE_CASES))
def test_enclosed_basis_at_wedge_degree_three_and_up_gives_the_recorded_certificate(
    capsys, tmp_path, case
):
    generators, want_out, want_trace = ENCLOSED_WEDGE_CASES[case]
    n = len(generators[0])
    gens = write_json(tmp_path / "gens.json", {"n": n, "generators": generators})
    cert_path, trace_path = tmp_path / "cert.json", tmp_path / "trace.jsonl"
    argv = ["certify", gens, "--out", str(cert_path), "--trace", str(trace_path)]
    assert run(capsys, argv)[:2] == (0, want_out)
    assert trace_path.read_text() == "".join(line + "\n" for line in want_trace)
    code, out, _ = run(capsys, ["verify", str(cert_path), gens])
    assert (code, json.loads(out)["valid"]) == (0, True)


def test_certify_failure_writes_partial_trace(capsys, tmp_path):
    gens = heisenberg_file(tmp_path)
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run(capsys, ["certify", gens, "--trace", str(trace_path)])
    assert code == 4
    data = json.loads(out)
    assert data["failed_stage"] == "find_regular_pair"
    lines = trace_path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["ok"] is False


def test_verify_rejects_tampered_certificate(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    cert_path = tmp_path / "cert.json"
    assert run(capsys, ["certify", gens, "--out", str(cert_path)])[0] == 0
    cert = json.loads(cert_path.read_text())
    cert["exponent"] += 1
    tampered = write_json(tmp_path / "tampered.json", cert)
    code, out, _ = run(capsys, ["verify", tampered, gens])
    assert code == 5
    verdict = json.loads(out)
    assert verdict["valid"] is False
    assert "growth bound" in verdict["reason"]


def test_verify_schema_gate(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    bogus = write_json(tmp_path / "bogus.json", {"schema": "something.else"})
    code, out, _ = run(capsys, ["verify", bogus, gens])
    assert code == 5
    assert "unknown certificate schema" in json.loads(out)["reason"]


def test_verify_malformed_certificate(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    broken = write_json(
        tmp_path / "broken.json", {"schema": "growthcert.certificate.v1", "n": 2}
    )
    code, out, _ = run(capsys, ["verify", broken, gens])
    assert code == 5
    assert "malformed certificate" in json.loads(out)["reason"]


def test_verify_rejects_oracle_depth_over_budget(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    # depth 25 means 2^26 - 2 oracle words, past the default budget of 10^6
    cert = sanov_cert_file(tmp_path, oracle_depth_validated=25)
    code, out, _ = run(capsys, ["verify", cert, gens])
    assert code == 5
    verdict = json.loads(out)
    assert verdict["valid"] is False
    assert "oracle_depth_validated" in verdict["reason"] and "budget" in verdict["reason"]


def test_verify_rejects_oracle_depth_over_config_quickly(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    # depth 16 fits the budget, but no default certify run validates past 12
    cert = sanov_cert_file(tmp_path, oracle_depth_validated=16)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify", cert, gens])
    assert time.perf_counter() - start < 1
    assert code == 5
    verdict = json.loads(out)
    assert verdict["valid"] is False
    assert "oracle_depth_validated 16 exceeds oracle_depth 12" in verdict["reason"]


def test_verify_oracle_depth_flag_admits_deeper_certificate(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    cert = sanov_cert_file(tmp_path, oracle_depth_validated=13)
    code, out, _ = run(capsys, ["verify", cert, gens])
    assert code == 5 and "oracle_depth 12" in json.loads(out)["reason"]
    code, out, _ = run(capsys, ["verify", cert, gens, "--oracle-depth", "13"])
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_verify_rejects_huge_exponent_quickly(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    cert = sanov_cert_file(tmp_path, exponent=10**5)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify", cert, gens])
    assert time.perf_counter() - start < 1
    assert code == 5
    verdict = json.loads(out)
    assert verdict["valid"] is False and "exponent_cap" in verdict["reason"]


def test_verify_rejects_long_word_quickly(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    cert = sanov_cert_file(tmp_path, word_A=" ".join(["0"] * 10**5))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify", cert, gens])
    assert time.perf_counter() - start < 1
    assert code == 5
    verdict = json.loads(out)
    assert verdict["valid"] is False
    assert verdict["reason"] == "word_A has 100000 letters, over the cap search_depth = 4"


def test_verify_caps_words_at_search_depth(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    # a sound certificate whose word_A has search_depth + 1 = 5 letters
    cert = sanov_cert_file(tmp_path, word_A="0 1 0 1 0", growth_bound="139597/131072")
    code, out, _ = run(capsys, ["verify", cert, gens])
    assert code == 5
    assert json.loads(out)["reason"] == "word_A has 5 letters, over the cap search_depth = 4"
    code, out, _ = run(capsys, ["verify", cert, gens, "--search-depth", "5"])
    assert code == 0 and json.loads(out)["valid"] is True


def test_certify_entries_past_the_float_range(capsys, tmp_path):
    # eigenvalue moduli near 10^300 square past the float range in sort keys
    big = 10**300
    gens = write_json(
        tmp_path / "big.json",
        {"n": 2, "generators": [[[big + 1, big], [1, 1]], [[1, 0], [big, 1]]]},
    )
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["certify", gens, "--out", str(cert_path)])
    assert code in (0, 4)
    if code == 0:
        code, out, _ = run(capsys, ["verify", str(cert_path), gens])
        assert code == 0 and json.loads(out)["valid"] is True


def test_pretty_skips_values_past_the_float_range():
    huge = f"{10**400}/3"
    obj = {"a": huge, "b": [{"c": f"-{10**400}", "d": "1/4"}]}
    assert cli._with_approx(obj) == {"a": huge, "b": [{"c": f"-{10**400}", "d": "1/4", "d~": 0.25}]}


def test_certify_sixteen_generators_stops_at_the_first_pair(capsys, tmp_path):
    # the depth-4 ball of 16 generators has about 9 * 10^5 elements; the
    # pair lies in sphere 1 or 2, and only the spheres scanned are built
    rng = random.Random(5)
    gens = []
    for _ in range(16):
        m = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(3):
            # m * E_ij(c): column j gains c times column i
            i, j = rng.sample(range(3), 2)
            c = rng.choice([1, -1, 2, -2])
            for row in m:
                row[j] += c * row[i]
        gens.append(m)
    path = write_json(tmp_path / "wide.json", {"n": 3, "generators": gens})
    cert_path = tmp_path / "cert.json"
    start = time.perf_counter()
    code, _, _ = run(capsys, ["certify", path, "--out", str(cert_path)])
    assert time.perf_counter() - start < 10
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert len(cert["word_A"].split()) <= 2 and len(cert["word_B"].split()) <= 2
    code, out, _ = run(capsys, ["verify", str(cert_path), path])
    assert code == 0 and json.loads(out)["valid"] is True


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("word_A", 5, "word_A"),
        ("word_B", ["0"], "word_B"),
        ("place", None, "place"),
        ("cone_param", 0.5, "cone_param"),
        ("growth_bound", 1, "growth_bound"),
        ("n", 2.0, "n must be"),
        ("exponent", 1.5, "exponent"),
        ("exponent", True, "exponent"),
        ("wedge_m", "1", "wedge_m"),
        ("oracle_depth_validated", "12", "oracle_depth_validated"),
        ("oracle_depth_validated", -5, "oracle_depth_validated"),
        ("oracle_depth_validated", 0, "oracle_depth_validated"),
        ("checks", {"disjoint": 1, "contracts": True, "contracts_double": True}, "disjoint"),
    ],
)
def test_verify_rejects_mistyped_field(capsys, tmp_path, field, value, needle):
    gens = sanov_file(tmp_path)
    cert = sanov_cert_file(tmp_path, **{field: value})
    code, out, _ = run(capsys, ["verify", cert, gens])
    assert code == 5
    verdict = json.loads(out)
    assert verdict["valid"] is False
    assert verdict["reason"].startswith("malformed certificate") and needle in verdict["reason"]


_JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(sorted(SANOV_CERT)), junk=_JSON_JUNK)
def test_verify_rejects_junk_field_quickly(capsys, tmp_path, field, junk):
    # a junk value of the field's own type is made unparsable: an "x" in
    # front breaks every word, place, rational and the schema name
    if type(junk) is type(SANOV_CERT[field]):
        junk = "x" + json.dumps(junk)
    gens = sanov_file(tmp_path)
    cert = sanov_cert_file(tmp_path, **{field: junk})
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify", cert, gens])
    assert time.perf_counter() - start < 2
    assert code == 5 and json.loads(out)["valid"] is False


def test_hard_denominator_ends_quickly(capsys, tmp_path):
    n = 100000000000000000000000000319 * 300000000000000000000000000007
    gens = write_json(
        tmp_path / "semiprime.json",
        {"n": 2, "generators": [[[f"1/{n}", 0], [0, str(n)]], [[1, 0], [2, 1]]]},
    )
    cert = sanov_cert_file(tmp_path)
    for argv, expected in (
        (["certify", gens], 2),
        (["find-pair", gens], 2),
        (["spectrum", gens, "--word", "0"], 2),
        (["verify", cert, gens], 5),
    ):
        start = time.perf_counter()
        code, _, err = run(capsys, argv)
        assert time.perf_counter() - start < 5, argv[0]
        assert code == expected, argv[0]
        if expected == 2:
            assert err.startswith("error: generator 0: could not factor"), err


def test_generators_congruent_to_identity_mod_hash_prime_certify_quickly(capsys, tmp_path):
    # both generators are the identity modulo 2^61 - 1, Python's int hash
    # modulus; an oracle working modulo that prime sees every word alike
    p = 2**61 - 1
    g = [[1 + p, p * p], [p, 1 + (p - 1) * p]]
    gens = write_json(
        tmp_path / "flood.json", {"n": 2, "generators": [g, [list(c) for c in zip(*g)]]}
    )
    cert_path = tmp_path / "cert.json"
    start = time.perf_counter()
    code, _, _ = run(capsys, ["certify", gens, "--out", str(cert_path)])
    assert time.perf_counter() - start < 5
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert (cert["word_A"], cert["word_B"], cert["exponent"]) == ("0", "1", 1)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify", str(cert_path), gens])
    assert time.perf_counter() - start < 5
    assert code == 0 and json.loads(out)["valid"] is True


def test_generators_congruent_to_identity_mod_screen_prime_certify_quickly(
    capsys, tmp_path, monkeypatch
):
    # both generators are the identity modulo the oracle's screen prime, so
    # the screen keys every word alike and hands the words to the resolver
    q = 2**27
    while not is_prime(q):
        q += 1
    monkeypatch.setattr(pingpong, "_screen_prime_start", lambda h: q)
    resolver, calls = pingpong._resolve, []
    monkeypatch.setattr(pingpong, "_resolve", lambda *args: calls.append(1) or resolver(*args))
    g = [[1 + q, q * q], [q, 1 + (q - 1) * q]]
    gens = write_json(
        tmp_path / "flood.json", {"n": 2, "generators": [g, [list(c) for c in zip(*g)]]}
    )
    cert_path = tmp_path / "cert.json"
    start = time.perf_counter()
    code, _, _ = run(capsys, ["certify", gens, "--out", str(cert_path)])
    assert time.perf_counter() - start < 5
    assert code == 0 and len(calls) == 1
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify", str(cert_path), gens])
    assert time.perf_counter() - start < 5
    assert code == 0 and json.loads(out)["valid"] is True
    assert len(calls) == 2


def huge_entry_file(tmp_path):
    """[[1, 10^4000], [0, 1]] and its transpose: 4,001-digit entries, under the parse limit."""
    huge = str(10**4000)
    return write_json(
        tmp_path / "huge.json", {"n": 2, "generators": [[[1, huge], [0, 1]], [[1, 0], [huge, 1]]]}
    )


@pytest.mark.parametrize(
    "argv, want",
    [
        (["certify", "HUGE"], 4),
        (["find-pair", "HUGE"], 0),
        (["find-pair", "HUGE", "--pretty"], 0),
        (["spectrum", "HUGE", "--word", "0 1"], 0),
        (["spectrum", "SANOV", "--word", " ".join(["0 1"] * 8000)], 0),
    ],
    ids=["certify", "find-pair", "find-pair-pretty", "spectrum", "spectrum-16000-letters"],
)
def test_outputs_past_the_int_to_str_limit_end_quickly(capsys, tmp_path, argv, want):
    files = {"HUGE": huge_entry_file(tmp_path), "SANOV": sanov_file(tmp_path)}
    start = time.perf_counter()
    code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
    assert time.perf_counter() - start < 10
    assert code == want and not err
    doc = json.loads(out)
    if code == 0:
        # an exact rational past str's 4,300 digits, written in full
        assert max(len(x) for x in re.findall(r"-?\d+", out)) > 4300
    else:
        assert doc["failed_stage"] == "derive_exponent"


def test_growth_on_huge_entries_ends_quickly(capsys, tmp_path):
    # the slots widen from 32 bits straight to 64-bit words past 13,000 bits;
    # the group is free, so the balls are the rank-2 free group's
    start = time.perf_counter()
    code, out, err = run(capsys, ["growth", huge_entry_file(tmp_path), "--radius", "5"])
    assert time.perf_counter() - start < 10
    assert code == 0 and not err
    assert [c for _, c in json.loads(out)["ball_sizes"]] == [1, 5, 17, 53, 161, 485]


def sl4_file(tmp_path, big):
    """g = [[0, -1], [1, -1]] + diag(big, 1/big) and h = [[1, 1], [0, 1]] + I_2."""
    g = [[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, big, 0], [0, 0, 0, f"1/{big}"]]
    h = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    return write_json(tmp_path / "sl4.json", {"n": 4, "generators": [g, h]})


@pytest.mark.parametrize(
    "argv, want",
    [(["certify", "SL4"], 4), (["spectrum", "SL4", "--word", "0"], 0)],
    ids=["certify", "spectrum"],
)
def test_root_seeds_that_do_not_converge_escalate(capsys, tmp_path, argv, want):
    # g = [[0, -1], [1, -1]] + diag(10^150, 10^-150): root seeds that do not
    # converge on its charpoly at the first precisions must escalate instead
    # of escaping as a traceback
    gens = sl4_file(tmp_path, 10**150)
    start = time.perf_counter()
    code, out, err = run(capsys, [gens if arg == "SL4" else arg for arg in argv])
    assert time.perf_counter() - start < 30
    assert code == want and not err
    if code == 4:
        assert json.loads(out)["schema"] == "growthcert.failure.v1"


def test_the_ten_to_the_300_sl4_file_ends_quickly(capsys, tmp_path):
    # 10^300 and 10^-300 are exact points among g's eigenvalues, so the gap
    # grid decides g at once, and the pair search ends in finding no generic
    # partner for it
    gens = sl4_file(tmp_path, 10**300)
    start = time.perf_counter()
    code, out, err = run(capsys, ["certify", gens])
    assert time.perf_counter() - start < 10
    assert (code, err) == (4, "")
    assert json.loads(out)["failed_stage"] == "find_regular_pair"
    start = time.perf_counter()
    code, out, err = run(capsys, ["spectrum", gens, "--word", "0"])
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    moduli = json.loads(out)["arch_moduli"]
    assert moduli[0] == [str(10**300)] * 2 and moduli[-1] == [f"1/{10**300}"] * 2


def test_a_basis_singular_at_every_precision_ends_in_documented_exit_codes(capsys, tmp_path):
    # A = [[1 + 2^-600, 1], [2^-600, 1]] has eigenvalues 1 +- about 2^-300,
    # whose eigenvectors round to one column at 64, 128 and 256 bits:
    # certify refuses with exit 4 and verify rejects with exit 5, both
    # naming the last precision, and neither ends in a traceback
    eps = Fraction(1, 2**600)
    a = [[str(1 + eps), "1"], [str(eps), "1"]]
    gens = write_json(tmp_path / "near.json", {"n": 2, "generators": [a, [[1, 0], [2, 1]]]})
    code, out, err = run(capsys, ["certify", gens])
    assert (code, err) == (4, "")
    assert json.loads(out)["reason"] == "SingularEnclosure: rounded eigenbasis is singular at 256 bits"
    cert = {
        "schema": "growthcert.certificate.v1",
        "n": 2,
        "word_A": "0",
        "word_B": "1",
        "place": "archimedean",
        "wedge_m": 1,
        "exponent": 1,
        "cone_param": "1/4",
        "checks": {"disjoint": True, "contracts": True, "contracts_double": True},
        "growth_bound": format_rational(growth_bound_from_length(3)),
        "oracle_depth_validated": 12,
    }
    code, out, err = run(capsys, ["verify", write_json(tmp_path / "cert.json", cert), gens])
    assert (code, err) == (5, "")
    assert json.loads(out)["reason"] == (
        "cone checks did not certify: rounded eigenbasis is singular at 256 bits"
    )


def test_a_json_number_past_the_digit_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "bignum.json"
    path.write_text('{"n": 2, "generators": [[[1, 1%s], [0, 1]]]}' % ("0" * 4400))
    code, _, err = run(capsys, ["growth", str(path), "--radius", "2"])
    assert code == 2 and "not valid JSON" in err
    grid = [[1, "1" + "0" * 4400], [0, 1]]
    entry = write_json(tmp_path / "bigstr.json", {"n": 2, "generators": [grid]})
    code, _, err = run(capsys, ["growth", entry, "--radius", "2"])
    assert code == 2 and "bad entry" in err


def test_parse_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, ["growth", str(tmp_path / "missing.json"), "--radius", "2"])
    assert code == 2 and "cannot read" in err

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, ["growth", str(notjson), "--radius", "2"])
    assert code == 2 and "not valid JSON" in err

    bad_det = write_json(tmp_path / "bad.json", {"n": 2, "generators": [[[1, 1], [1, 1]]]})
    code, _, err = run(capsys, ["growth", bad_det, "--radius", "2"])
    assert code == 2 and "determinant" in err
    assert "generator 0:" in err

    bad_n = write_json(tmp_path / "badn.json", {"n": 1, "generators": [[[1]]]})
    code, _, err = run(capsys, ["growth", bad_n, "--radius", "2"])
    assert code == 2 and "dimension" in err

    bad_entry = write_json(
        tmp_path / "bade.json", {"n": 2, "generators": [[[1, "x"], [0, 1]]]}
    )
    code, _, err = run(capsys, ["growth", bad_entry, "--radius", "2"])
    assert code == 2 and "bad entry" in err

    bad_labels = write_json(
        tmp_path / "badl.json",
        {"n": 2, "generators": [[[1, 2], [0, 1]]], "labels": ["a", "b"]},
    )
    code, _, err = run(capsys, ["growth", bad_labels, "--radius", "2"])
    assert code == 2 and "labels" in err


def test_invalid_flag_value_exits_2(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    code, _, err = run(capsys, ["growth", gens, "--radius", "2", "--budget", "0"])
    assert code == 2 and "budget" in err
    code, out, err = run(capsys, ["growth", gens, "--radius", "-1"])
    assert code == 2 and out == ""
    assert err == "error: radius must be >= 0\n"


def test_growth_hostile_radius_stops_at_budget(capsys, tmp_path):
    gens = heisenberg_file(tmp_path)
    start = time.perf_counter()
    code, out, _ = run(capsys, ["growth", gens, "--radius", "1000", "--budget", "20000"])
    assert time.perf_counter() - start < 5
    assert code == 3
    data = json.loads(out)
    assert data["budget_exceeded"] is True
    radius = data["ball_sizes"][-1][0]
    counts, _, _ = reference_ball(heisenberg_gens(), radius)
    assert data["ball_sizes"] == [[r, c] for r, c in enumerate(counts)]


def test_spectrum(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    code, out, _ = run(capsys, ["spectrum", gens, "--word", "0 1"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "growthcert.spectrum.v1"
    assert data["charpoly"] == ["1", "-6", "1"]
    assert data["finite_valuations"] == {}
    sep = data["separation"]
    assert sep["disc"] == "32" and sep["passes"] is True
    assert sep["per_place_lower"] == {"archimedean": "16/7"}
    # top eigenvalue is 3 + 2*sqrt(2) = 5.82842712...
    lo, hi = data["arch_moduli"][0]
    from fractions import Fraction

    assert Fraction(5828, 1000) < Fraction(lo) <= Fraction(hi) < Fraction(5829, 1000)

    code, _, err = run(capsys, ["spectrum", gens, "--word", "9"])
    assert code == 2 and "bad word" in err


def test_report(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    trace_path = tmp_path / "trace.jsonl"
    run(capsys, ["certify", gens, "--trace", str(trace_path)])
    code, out, _ = run(capsys, ["report", str(trace_path)])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "growthcert.tracereport.v1"
    assert data["records"] == 4
    assert data["ok"] is True and data["failed_stage"] is None

    gens_h = heisenberg_file(tmp_path)
    run(capsys, ["certify", gens_h, "--trace", str(trace_path)])
    code, out, _ = run(capsys, ["report", str(trace_path)])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is False and data["failed_stage"] == "find_regular_pair"


def test_report_rejects_non_object_line(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text('{"stage": "find_regular_pair", "ok": true}\n[1, 2]\n', encoding="utf-8")
    code, out, err = run(capsys, ["report", str(trace_path)])
    assert code == 2 and out == ""
    assert "record 2 is not a JSON object" in err


def test_config_file_sets_oracle_depth(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    cfg = write_json(tmp_path / "cfg.json", {"oracle_depth": 5})
    code, out, _ = run(capsys, ["certify", gens, "--config", cfg])
    assert code == 0
    assert json.loads(out)["oracle_depth_validated"] == 5


def test_config_env_and_flag_override(capsys, tmp_path, monkeypatch):
    gens = sanov_file(tmp_path)
    cfg = write_json(tmp_path / "cfg.json", {"budget": 30})
    # no environment variable configures a run
    monkeypatch.setenv("GROWTHCERT_CONFIG", cfg)
    code, out, _ = run(capsys, ["growth", gens, "--radius", "6"])
    assert code == 0
    assert json.loads(out)["ball_sizes"][-1] == [6, 1457]
    code, out, _ = run(capsys, ["growth", gens, "--radius", "6", "--config", cfg])
    assert code == 3
    # an explicit flag beats the config file
    argv = ["growth", gens, "--radius", "6", "--config", cfg, "--budget", "1000000"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["ball_sizes"][-1] == [6, 1457]


def test_config_file_ignores_retired_keys(capsys, tmp_path):
    gens = sanov_file(tmp_path)
    retired = {
        "word_cap": 8,
        "bits_schedule": [64, 128, 256],
        "radii": ["1/16"],
        "constants": ["1", "1", "1", "2"],
        "epsilon": "1/64",
    }
    cfg = write_json(tmp_path / "cfg.json", {"budget": 30, **retired})
    code, _, _ = run(capsys, ["growth", gens, "--radius", "6", "--config", cfg])
    assert code == 3


@pytest.mark.parametrize(
    "content, needle",
    [
        ([1, 2], "config must be a JSON object"),
        ({"budget": True}, "budget must be a JSON int, got True"),
        ({"budget": 30.9}, "budget must be a JSON int, got 30.9"),
        ({"budget": "30"}, "budget must be a JSON int, got '30'"),
    ],
)
def test_config_file_needs_json_integers(capsys, tmp_path, content, needle):
    gens = sanov_file(tmp_path)
    cfg = write_json(tmp_path / "cfg.json", content)
    code, out, err = run(capsys, ["growth", gens, "--radius", "6", "--config", cfg])
    assert code == 2 and out == ""
    assert f"bad config {cfg}: {needle}" in err


@pytest.mark.parametrize("n", [2.9, "2"])
def test_generator_file_needs_integer_n(capsys, tmp_path, n):
    gens = write_json(tmp_path / "g.json", {"n": n, "generators": [[[1, 2], [0, 1]]]})
    code, out, err = run(capsys, ["growth", gens, "--radius", "6"])
    assert code == 2 and out == ""
    assert f"n must be a JSON int, got {n!r}" in err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("growth", "--oracle-depth"),
        ("growth", "--search-depth"),
        ("growth", "--exponent-cap"),
        ("find-pair", "--exponent-cap"),
        ("find-pair", "--oracle-depth"),
        ("certify", "--word-cap"),
        ("verify", "--word-cap"),
        ("spectrum", "--budget"),
        ("spectrum", "--oracle-depth"),
        ("spectrum", "--config"),
        ("report", "--budget"),
        ("report", "--config"),
    ],
)
def test_flag_the_subcommand_does_not_read_exits_2(capsys, tmp_path, command, flag):
    gens = sanov_file(tmp_path)
    operands = {
        "growth": [gens, "--radius", "2"],
        "find-pair": [gens],
        "certify": [gens],
        "verify": [sanov_cert_file(tmp_path), gens],
        "spectrum": [gens, "--word", "0"],
        "report": [write_json(tmp_path / "trace.jsonl", {"stage": "x", "ok": True})],
    }[command]
    value = str(tmp_path / "f.json") if flag == "--config" else "5"
    with pytest.raises(SystemExit) as info:
        cli.main([command, *operands, flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_one_parser_serves_every_call_in_a_process(capsys, tmp_path):
    # the parser is built once; a parse error leaves nothing behind for the next call
    gens = sanov_file(tmp_path)
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as info:
        cli.main(["growth", gens, "--radius", "2", "--search-depth", "3"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err
    code, out, err = run(capsys, ["growth", gens, "--radius", "2"])
    assert code == 0 and err == ""
    assert json.loads(out)["ball_sizes"] == [[0, 1], [1, 5], [2, 17]]
    code, out, err = run(capsys, ["spectrum", gens, "--word", "9"])
    assert code == 2 and out == "" and err.startswith("error: bad word")
    code, out, _ = run(capsys, ["growth", gens, "--radius", "1"])
    assert code == 0 and json.loads(out)["ball_sizes"] == [[0, 1], [1, 5]]


def throwaway_install(tmp_path):
    """Install this checkout into a fresh venv under tmp_path; return its scripts dir.

    Uses setuptools' `develop` command, which writes the `[project.scripts]`
    console script offline and without the `wheel` package.  The venv sees
    only the base interpreter's site-packages, so a `.pth` file adds the
    directory that holds this interpreter's setuptools, which may live in a
    venv of its own.
    """
    src = tmp_path / "checkout"
    src.mkdir()
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(REPO / name, src / name)
    shutil.copytree(
        REPO / "src", src / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    venv = tmp_path / "venv"
    subprocess.run(
        [sys.executable, "-m", "venv", "--system-site-packages", "--without-pip", str(venv)],
        check=True,
    )
    scripts = venv / ("Scripts" if os.name == "nt" else "bin")
    site_packages = subprocess.run(
        [str(scripts / "python"), "-c", "import sysconfig; print(sysconfig.get_path('purelib'))"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()
    import setuptools

    setuptools_dir = Path(setuptools.__file__).parents[1]
    (Path(site_packages) / "growthcert_test_deps.pth").write_text(f"{setuptools_dir}\n")
    proc = subprocess.run(
        [
            str(scripts / "python"),
            "-c",
            "from setuptools import setup; setup()",
            "develop",
            "--no-deps",
        ],
        cwd=src,
        env=ENV_WITHOUT_PYTHONPATH,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"develop failed:\n{proc.stdout}\n{proc.stderr}"
    return scripts


def test_console_entry_point(tmp_path):
    pytest.importorskip("setuptools")
    gens = sanov_file(tmp_path)
    exe = shutil.which("growthcert", path=str(throwaway_install(tmp_path)))
    assert exe is not None
    # PYTHONPATH=src would shadow the installed copy with the working tree
    proc = subprocess.run(
        [exe, "growth", gens, "--radius", "2"],
        capture_output=True,
        text=True,
        env=ENV_WITHOUT_PYTHONPATH,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ball_sizes"] == [[0, 1], [1, 5], [2, 17]]


def test_module_invocation(tmp_path):
    gens = sanov_file(tmp_path)
    # the child imports the working tree, as the tests do; pytest's
    # pythonpath setting reaches only this process, not its children
    proc = subprocess.run(
        [sys.executable, "-m", "growthcert.cli", "growth", gens, "--radius", "1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    )
    assert proc.returncode == 0


def test_the_cli_runs_without_mpmath(tmp_path):
    # an entry of None in sys.modules makes `import mpmath` raise ImportError
    elliptic = write_json(
        tmp_path / "elliptic.json", {"n": 2, "generators": [[[0, -1], [1, -1]], [[1, 1], [0, 1]]]}
    )
    runs = [
        ["certify", sanov_file(tmp_path)],
        ["spectrum", sanov_file(tmp_path), "--word", "0 1"],
        ["spectrum", elliptic, "--word", "0"],
    ]
    code = (
        "import sys; sys.modules['mpmath'] = None; "
        "from growthcert import cli; sys.exit(cli.main(sys.argv[1:]))"
    )
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        )
        assert proc.returncode == 0, proc.stderr
    # the elliptic generator's eigenvalues are the primitive cube roots of unity
    moduli = json.loads(proc.stdout)["arch_moduli"]
    assert len(moduli) == 2
    assert all(Fraction(lo) <= 1 <= Fraction(hi) for lo, hi in moduli)

