"""The recorded benchmark corpus as a regression test.

bench/data/corpus.json holds 19 generator files with the certificate or
refusal stage certify gave each when the benchmark was recorded, their
exact ball sizes, and 15 tampered certificates.  The file is only read
here.  Ball sizes and verify's answers on its certificates and tampers must
be reproduced exactly; certify is held to a ratchet against it, the one
the benchmark's checker applies: no refusal where it recorded a
certificate, no weaker bound, every new certificate verifies, and
Heisenberg is refused at the pair search.

tests/data/corpus_reports.json holds, for each input, the exit code and
JSON of certify, of find-pair, of spectrum on the words "0 1" and "0", and
of growth at the input's recorded radius, so the certificates and refusal
stages, the pair search, its wedge genericity (m = 2 on the n = 4 input),
the spectral report and growth's estimates, verdict and exhausted flag are
pinned byte for byte.  tests/data/corpus_traces.json holds certify's
--trace JSONL for each input, so the stage records (words, places,
exponents, candidates tried, refusal details) are pinned as well.  A change
that alters either file on purpose re-records both as a named spec change:

    PYTHONPATH=src python tests/test_corpus.py --record

tests/data/tamper_reasons.json holds the reason verify gave for each
tamper when it was recorded, so every tamper keeps failing at the same
check, not merely failing.
"""

import contextlib
import io
import json
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from growthcert import cli, intervals, pingpong, pipeline, polyroots, spectra, wordforge
from growthcert.errors import PipelineFailure
from growthcert.exactnum import ARCH, SquareMatrix, Word, evaluate_word

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((ROOT / "bench/data/corpus.json").read_text())
TRACES_PATH = ROOT / "tests/data/corpus_traces.json"
REPORTS_PATH = ROOT / "tests/data/corpus_reports.json"
TAMPER_REASONS = json.loads((ROOT / "tests/data/tamper_reasons.json").read_text())
INPUTS = {item["id"]: item for item in CORPUS["inputs"]}
# the certificates the benchmark recorded, and the certify answers pinned here
RECORDED = {i: item["certify"]["certificate"] for i, item in INPUTS.items() if item["certify"]["exit"] == 0}
PINNED = {i: report["certify"] for i, report in json.loads(REPORTS_PATH.read_text()).items()}
CERTIFIED = [i for i in INPUTS if PINNED[i][0] == 0]


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
    assert len(RECORDED) == 14
    assert len(CERTIFIED) == 15
    assert len(CORPUS["tampers"]) == 15


@pytest.mark.parametrize("input_id", list(INPUTS))
def test_certify_gives_the_pinned_answer(tmp_path, capsys, input_id):
    code, doc = run(capsys, ["certify", generator_file(tmp_path, input_id), "--trace",
                             str(tmp_path / "trace.jsonl")])
    assert [code, doc] == PINNED[input_id]
    traces = json.loads(TRACES_PATH.read_text())
    assert (tmp_path / "trace.jsonl").read_text() == traces[input_id]


@pytest.mark.parametrize("input_id", list(INPUTS))
def test_certify_keeps_every_answer_the_benchmark_recorded(tmp_path, capsys, input_id):
    # the benchmark checker's ratchet: certify may gain certificates and
    # bounds over the recorded ones, never lose them
    recorded = INPUTS[input_id]["certify"]
    gens = generator_file(tmp_path, input_id)
    code, doc = run(capsys, ["certify", gens])
    if input_id == "heisenberg":
        assert (code, doc["failed_stage"]) == (4, "find_regular_pair")
    if recorded["exit"] == 0:
        assert code == 0
        assert Fraction(doc["growth_bound"]) >= Fraction(recorded["certificate"]["growth_bound"])
    if code == 0 and doc != recorded.get("certificate"):
        code, verdict = run(capsys, ["verify", write(tmp_path, "cert.json", doc), gens])
        assert (code, verdict["valid"]) == (0, True)


@pytest.mark.parametrize("input_id", list(INPUTS))
def test_growth_gives_the_recorded_ball_sizes(tmp_path, capsys, input_id):
    want = INPUTS[input_id]["growth"]
    argv = ["growth", generator_file(tmp_path, input_id), "--radius", str(want["radius"])]
    code, doc = run(capsys, argv)
    assert code == 0
    assert doc["ball_sizes"] == want["ball_sizes"]


@pytest.mark.parametrize("input_id", list(RECORDED))
def test_verify_accepts_the_recorded_certificate(tmp_path, capsys, input_id):
    cert = write(tmp_path, "cert.json", RECORDED[input_id])
    code, doc = run(capsys, ["verify", cert, generator_file(tmp_path, input_id)])
    assert (code, doc["valid"]) == (0, True)


@pytest.mark.parametrize("tamper", CORPUS["tampers"], ids=lambda t: t["id"])
def test_verify_rejects_the_recorded_tamper(tmp_path, capsys, tamper):
    cert = write(tmp_path, "cert.json", tamper["certificate"])
    code, doc = run(capsys, ["verify", cert, generator_file(tmp_path, tamper["of"])])
    assert (code, doc["valid"]) == (5, False)
    assert doc["reason"] == TAMPER_REASONS[tamper["id"]]


def test_the_screen_alone_clears_every_corpus_oracle(tmp_path, capsys, monkeypatch):
    # every depth-12 oracle of the corpus ends in the screen: a guard or a
    # prime range that handed the words to the resolver fails here, not
    # only in the bench
    def refuse(*args):
        raise AssertionError("the resolver should not run on the corpus")

    monkeypatch.setattr(pingpong, "_resolve", refuse)
    for input_id in INPUTS:
        assert [*run(capsys, ["certify", generator_file(tmp_path, input_id)])] == PINNED[input_id]
    for input_id, doc in list(RECORDED.items()) + [(i, PINNED[i][1]) for i in CERTIFIED]:
        cert = write(tmp_path, "cert.json", doc)
        code, doc = run(capsys, ["verify", cert, generator_file(tmp_path, input_id)])
        assert (code, doc["valid"]) == (0, True), input_id


@pytest.mark.parametrize(
    "cone_param, failed",
    [
        ("1/" + "7" * 4200, "contracts, contracts_double"),
        ("7" * 4200 + "/3", "disjoint, contracts, contracts_double"),
    ],
)
def test_verify_rejects_a_huge_cone_param_quickly(tmp_path, capsys, cone_param, failed):
    # the cone checks cross-multiply by the numerator and denominator of r:
    # a 4200-digit one must stay cheap
    cert = dict(RECORDED["sl4_product/0"], cone_param=cone_param)
    argv = ["verify", write(tmp_path, "cert.json", cert), generator_file(tmp_path, "sl4_product/0")]
    start = time.perf_counter()
    code, doc = run(capsys, argv)
    assert time.perf_counter() - start < 5
    assert (code, doc["valid"]) == (5, False)
    assert doc["reason"] == f"cone checks did not certify: {failed} failed at 64 bits"


@pytest.mark.parametrize("input_id", CERTIFIED)
def test_certify_and_verify_read_the_same_basis(monkeypatch, input_id):
    # at every precision of the schedule, certify's search tries the
    # certificate's role, place and wedge degree once, and there builds the
    # same X as the replay in verify_certificate and reads the same
    # compounds of X^-1 A X and X^-1 B X
    gens = [SquareMatrix.from_rows(g) for g in INPUTS[input_id]["generators"]]
    cert = pingpong.PingPongCertificate.from_json_dict(PINNED[input_id][1])
    reads = []
    wedge_pair = pipeline.wedge_pair

    def recording(pair, v, m):
        wa, wb = wedge_pair(pair, v, m)
        reads.append((pair.word_a, pair.basis, pair.basis_inv, pair.b_conj, v, m, wa, wb))
        return wa, wb

    monkeypatch.setattr(pipeline, "wedge_pair", recording)
    pipeline.certify_generators(gens)
    certified = [r for r in reads if r[0] == cert.word_a and r[4:6] == (cert.place, cert.wedge_m)]
    reads.clear()
    pipeline.verify_certificate(cert, gens)
    assert len(certified) == 1
    assert reads == certified


# the commands corpus_reports.json pins, keyed as there
REPORT_COMMANDS = {
    "find-pair": ["find-pair"],
    "spectrum 0 1": ["spectrum", "--word", "0 1"],
    "spectrum 0": ["spectrum", "--word", "0"],
    "growth": ["growth", "--radius"],
}


def report_argv(command, gens, input_id):
    head, *rest = REPORT_COMMANDS[command]
    if head == "growth":
        rest.append(str(INPUTS[input_id]["growth"]["radius"]))
    return [head, gens, *rest]


@pytest.mark.parametrize("input_id", list(INPUTS))
def test_find_pair_spectrum_and_growth_give_the_recorded_reports(tmp_path, capsys, input_id):
    want = json.loads(REPORTS_PATH.read_text())[input_id]
    gens = generator_file(tmp_path, input_id)
    for command in REPORT_COMMANDS:
        assert list(run(capsys, report_argv(command, gens, input_id))) == want[command], command


def reference_box_order(real_ivs, boxes):
    """The roots in the order the boxed eigenbasis used, as (re, im) midpoints.

    Descending by the midpoint of the bounds of |x|^2 over each interval or
    box, then by the real, then by the imaginary midpoint.
    """

    def sq_bounds(lo, hi):
        if lo >= 0:
            return lo * lo, hi * hi
        if hi <= 0:
            return hi * hi, lo * lo
        return Fraction(0), max(lo * lo, hi * hi)

    edges = [(iv.lo, iv.hi, Fraction(0), Fraction(0)) for iv in real_ivs]
    edges += [(b.re.lo, b.re.hi, b.im.lo, b.im.hi) for b in boxes]

    def key(e):
        (a, b), (c, d) = sq_bounds(e[0], e[1]), sq_bounds(e[2], e[3])
        return (a + b + c + d) / 2, (e[0] + e[1]) / 2, (e[2] + e[3]) / 2

    return [((e[0] + e[1]) / 2, (e[2] + e[3]) / 2) for e in sorted(edges, key=key, reverse=True)]


def test_point_order_matches_the_box_order_on_the_corpus(tmp_path, capsys):
    # every rounded basis that certify or verify builds over the corpus puts
    # its exact points in the order the boxes of the enclosed eigenbasis
    # had, each conjugate pair +Im first
    built = []
    diagonalize = wordforge.diagonalize

    def recording(a, sort_place=ARCH, bits=128, memo=None):
        result = diagonalize(a, sort_place, bits, memo)
        built.append((a, bits, result))
        return result

    with mock.patch.object(wordforge, "diagonalize", recording):
        for input_id in INPUTS:
            gens = generator_file(tmp_path, input_id)
            run(capsys, ["certify", gens])
            if input_id in CERTIFIED:
                cert = write(tmp_path, "cert.json", PINNED[input_id][1])
                run(capsys, ["verify", cert, gens])
    rounded = [(a, bits, points) for a, bits, (points, _, _, exact) in built if not exact]
    assert len(rounded) > 20
    assert any(isinstance(z, tuple) for _, _, points in rounded for z in points)
    for a, bits, points in rounded:
        f = spectra.char_poly(a)
        width = Fraction(1, 2**bits) * max(Fraction(1), a.max_abs_entry())
        want = reference_box_order(*polyroots.certified_root_structure(f, width))
        assert [z if isinstance(z, tuple) else (z, Fraction(0)) for z in points] == want
        for i, z in enumerate(points):
            if isinstance(z, tuple) and z[1] < 0:
                assert points[i - 1] == (z[0], -z[1])


# the polyroots functions verify may enter: the exact gcd kernel that
# squarefree_part needs, and the disk engine behind certified_root_structure
DISK_ENGINE = {
    "poly_from",
    "poly_degree",
    "poly_monic",
    "_integer_coeffs",
    "_trim",
    "_primitive",
    "_deriv",
    "_prem",
    "_gcd",
    "_divide",
    "squarefree_part",
    "_horner",
    "_chorner",
    "_cdiv",
    "_unit",
    "_newton_polygon_starts",
    "_bits",
    "_weierstrass_disks",
    "_disk_components",
    "_classify",
    "certified_root_structure",
}


# the intervals members the disk engine calls: the boxes and intervals it
# builds, rounds and reads off, and the rational points it reports
DISK_ENGINE_INTERVALS = {
    "ComplexInterval.__init__",
    "ComplexInterval.round_out",
    "ComplexInterval.re",
    "RationalInterval.__post_init__",
    "RationalInterval.point",
    "_fraction",
}


@contextlib.contextmanager
def entering(entered: dict):
    """Add to entered[file] the qualified name of every function called in that file.

    Under sys.settrace; nested code counts as its enclosing function or method.
    """

    def tracer(frame, event, arg):
        names = entered.get(frame.f_code.co_filename)
        if event == "call" and names is not None:
            names.add(frame.f_code.co_qualname.split(".<locals>")[0])

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        yield entered
    finally:
        sys.settrace(previous)


@pytest.fixture(scope="module")
def verify_entered(tmp_path_factory):
    """Per module file, the top-level functions and class members verify enters.

    Over the recorded and the pinned certificates and the tampers.
    """
    tmp_path = tmp_path_factory.mktemp("verify")
    entered = {polyroots.__file__: set(), intervals.__file__: set(), wordforge.__file__: set()}
    jobs = list(RECORDED.items()) + [(i, PINNED[i][1]) for i in CERTIFIED]
    jobs += [(t["of"], t["certificate"]) for t in CORPUS["tampers"]]
    for input_id, cert in jobs:
        argv = ["verify", write(tmp_path, "cert.json", cert), generator_file(tmp_path, input_id)]
        with entering(entered), contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    return entered


def test_verify_enters_only_the_disk_engine_in_polyroots(verify_entered):
    # the trusted path: every polyroots function that verify runs on the
    # certificates and the tampers is on the allowlist
    entered = {name.split(".")[0] for name in verify_entered[polyroots.__file__]}
    assert "certified_root_structure" in entered
    assert entered <= DISK_ENGINE, sorted(entered - DISK_ENGINE)


def test_verify_enters_only_the_disk_engine_in_intervals(verify_entered):
    # no box arithmetic on the trusted path: verify reads the root boxes and
    # intervals the disk engine builds, and nothing else of intervals
    entered = verify_entered[intervals.__file__]
    assert "ComplexInterval.round_out" in entered
    assert entered <= DISK_ENGINE_INTERVALS, sorted(entered - DISK_ENGINE_INTERVALS)


def test_certify_runs_only_what_verify_runs_in_wordforge(monkeypatch, verify_entered):
    # the search is verify's replay: no retired stage runs, certify enters no
    # wordforge function that verify does not, no (A, sort place, bits) is
    # diagonalized twice in a call, no candidate (role, place, wedge degree)
    # is searched twice, and the seed's gap grid is never recomputed
    def retired(*args):
        raise AssertionError("certify ran a retired stage")

    for name in ("balance_or_trace", "swap_roles", "select_place_and_wedge"):
        monkeypatch.setattr(wordforge, name, retired)
    bases, grids, tried = [], [], []
    diagonalize, l1_gap_report = wordforge.diagonalize, pipeline.l1_gap_report
    wedge_pair = pipeline.wedge_pair
    monkeypatch.setattr(
        pipeline, "wedge_pair", lambda pair, v, m: tried.append((pair.word_a, v, m)) or wedge_pair(pair, v, m)
    )
    monkeypatch.setattr(
        wordforge, "diagonalize", lambda a, *rest, **kw: bases.append((a, *rest)) or diagonalize(a, *rest, **kw)
    )
    monkeypatch.setattr(pipeline, "l1_gap_report", lambda a, *rest: grids.append(a) or l1_gap_report(a, *rest))
    entered = {wordforge.__file__: set()}
    for input_id, item in INPUTS.items():
        gens = [SquareMatrix.from_rows(g) for g in item["generators"]]
        bases.clear()
        grids.clear()
        tried.clear()
        try:
            with entering(entered):
                trace = pipeline.certify_generators(gens).trace
        except PipelineFailure as exc:
            trace = exc.trace
        assert len(set(bases)) == len(bases), input_id
        assert len(set(tried)) == len(tried), input_id
        if trace[0]["ok"]:
            assert evaluate_word(Word.parse(trace[0]["word_A"]), gens) not in grids, input_id
    certify_only = entered[wordforge.__file__] - verify_entered[wordforge.__file__]
    assert "wedge_pair" in entered[wordforge.__file__] and certify_only == set()


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


def record_reports() -> None:
    """Write certify, find-pair, spectrum and growth of every corpus input to tests/data/corpus_reports.json."""
    reports = {}
    for input_id in INPUTS:
        with tempfile.TemporaryDirectory() as tmp:
            gens = generator_file(Path(tmp), input_id)
            reports[input_id] = {}
            for command in ["certify", *REPORT_COMMANDS]:
                argv = ["certify", gens] if command == "certify" else report_argv(command, gens, input_id)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                reports[input_id][command] = [code, json.loads(out.getvalue())]
    REPORTS_PATH.write_text(json.dumps(reports, indent=1) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record_traces()
    record_reports()
