"""End-to-end certification runs, verification, and tamper rejection."""

import ast
import dataclasses
import json
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import pytest

from growthcert import cayley, cli, pingpong, pipeline, polyroots, spectra, wordforge
from growthcert.errors import BudgetExceeded, Inconclusive, PipelineFailure, SingularEnclosure
from growthcert.exactnum import ARCH, Place, SquareMatrix, Word
from growthcert.pingpong import PingPongCertificate, growth_bound_from_length
from growthcert.pipeline import RunConfig, certify_generators, verify_certificate

M = SquareMatrix.from_rows

SANOV_CERT_JSON = (
    '{"checks":{"contracts":true,"contracts_double":true,"disjoint":true},'
    '"cone_param":"1/16","exponent":1,"growth_bound":"1204497/1048576","n":2,'
    '"oracle_depth_validated":12,"place":"archimedean","schema":'
    '"growthcert.certificate.v1","wedge_m":1,"word_A":"0 1","word_B":"0"}\n'
)

STAGES = ["find_regular_pair", "derive_exponent", "freeness_oracle", "certificate"]


def sanov():
    return [M([[1, 2], [0, 1]]), M([[1, 0], [2, 1]])]


def role_two():
    """The corpus file sl2_hyperbolic/7: role 1 certifies at e = 2, role 2 at e = 1.

    Both A = "0" and B = "1" have eigenvalues 2 and 1/2, so both bases are
    exact, and 2-adic cells follow the archimedean ones.
    """
    return [M([[2, F(1, 2)], [0, F(1, 2)]]), M([[2, 0], [F(-1, 2), F(1, 2)]])]


def seed_wins():
    """The corpus file sl2_hyperbolic/3: role 1 certifies a 3-letter word at e = 1."""
    return [M([[2, 0], [1, F(1, 2)]]), M([[F(9, 2), F(-1, 2)], [F(-1, 4), F(1, 4)]])]


def exact_only():
    """A = diag(2, 1/2) on an exact basis; B's charpoly (x - 1)^2 rules out role 2.

    The archimedean search runs out at exponent_cap; the 2-adic one
    certifies at e = 2.
    """
    return [M([[2, 0], [0, F(1, 2)]]), M([[0, 1], [-1, 2]])]


def heisenberg():
    return [
        M([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        M([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
    ]


def test_certify_sanov():
    res = certify_generators(sanov())
    cert = res.certificate
    assert cert.to_json() == SANOV_CERT_JSON
    # A^e B and A^2e B have generator lengths 3 and 5
    assert str(cert.word_u) == "0 1 0"
    assert str(cert.word_w) == "0 1 0 1 0"
    assert cert.growth_bound == growth_bound_from_length(5)


def test_certify_trace_stages():
    res = certify_generators(sanov())
    assert [rec["stage"] for rec in res.trace] == STAGES
    assert all(rec["ok"] for rec in res.trace)
    lines = res.trace_jsonl().splitlines()
    assert len(lines) == len(STAGES)
    first = json.loads(lines[0])
    assert first["word_A"] == "0 1" and first["disc"] == "32"


def test_certify_is_deterministic():
    a = certify_generators(sanov())
    b = certify_generators(sanov())
    assert a.certificate.to_json() == b.certificate.to_json()
    assert a.trace == b.trace


def test_verify_round_trip():
    gens = sanov()
    cert = certify_generators(gens).certificate
    assert verify_certificate(cert, gens) == (True, "ok")


def test_verify_rejects_tampered_exponent():
    gens = sanov()
    cert = certify_generators(gens).certificate
    bad = dataclasses.replace(cert, exponent=cert.exponent + 1)
    ok, reason = verify_certificate(bad, gens)
    assert not ok
    assert "growth bound" in reason


def test_verify_rejects_huge_cone_param():
    gens = sanov()
    cert = certify_generators(gens).certificate
    bad = dataclasses.replace(cert, cone_param=cert.cone_param * 2**1000)
    ok, reason = verify_certificate(bad, gens)
    assert not ok
    assert "cone checks" in reason


def count_wedge_pairs(mp):
    """The pair's bits in every wedge_pair call the exponent search or the cone replay makes."""
    calls = []
    wedge_pair = pipeline.wedge_pair
    mp.setattr(pipeline, "wedge_pair", lambda *a: calls.append(a[0].bits) or wedge_pair(*a))
    return calls


def count_diagonalizations(mp):
    """(sort place, bits) of every eigenbasis built."""
    calls = []
    diagonalize = wordforge.diagonalize
    mp.setattr(wordforge, "diagonalize", lambda *a, **k: calls.append(a[1:3]) or diagonalize(*a, **k))
    return calls


def test_certify_builds_each_eigenbasis_once(monkeypatch):
    # Sanov's B has a repeated eigenvalue, so only the seed role runs: A is
    # diagonalized once, and every wedge degree reads that basis
    calls = count_diagonalizations(monkeypatch)
    assert certify_generators(sanov()).certificate.to_json() == SANOV_CERT_JSON
    assert calls == [(ARCH, 64)]
    # role 1 reads A's archimedean and 2-adic bases, role 2 B's archimedean one
    calls.clear()
    res = certify_generators(role_two())
    assert str(res.certificate.word_a) == "1"
    assert calls == [(ARCH, 64), (Place.finite(2), 64), (ARCH, 64)]
    assert res.trace[1]["candidates"] == 3


ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((ROOT / "bench/data/corpus.json").read_text())["inputs"]
# the spectral computations a certify call must not repeat, by defining module
SPECTRAL = {
    "adjugate_poly": spectra,
    "squarefree_part": polyroots,
    "certified_root_structure": polyroots,
}


def count_spectral_calls(mp):
    """(name, args) of every SPECTRAL call, wherever the package names the function."""
    calls = []
    for name, home in SPECTRAL.items():
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original):
            calls.append((_name, args))
            return _original(*args)

        for module in (cayley, polyroots, spectra, wordforge, pipeline):
            if vars(module).get(name) is original:
                mp.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("item", CORPUS, ids=[item["id"] for item in CORPUS])
def test_certify_computes_each_spectrum_once_per_call(monkeypatch, item):
    # one certify call builds each matrix's adjugate polynomial once, tests
    # each charpoly once and encloses its roots once per width, and keeps
    # nothing for the next call: a second call on freshly parsed generators
    # makes exactly the same calls
    calls = count_spectral_calls(monkeypatch)
    runs = []
    for _ in range(2):
        doc = {"n": item["n"], "generators": item["generators"]}
        gens = list(cli.GeneratorFile.from_json_dict(doc).generators)
        calls.clear()
        try:
            certify_generators(gens)
        except PipelineFailure:
            pass
        runs.append(list(calls))
        for name in SPECTRAL:
            args = [a for n, a in calls if n == name]
            assert len(set(args)) == len(args), name
    assert runs[0] == runs[1]


FINITE_CERT_JSON = (
    '{"checks":{"contracts":true,"contracts_double":true,"disjoint":true},'
    '"cone_param":"1/4","exponent":1,"growth_bound":"660561/524288","n":3,'
    '"oracle_depth_validated":12,"place":"finite:2","schema":'
    '"growthcert.certificate.v1","wedge_m":1,"word_A":"0","word_B":"1"}\n'
)


def test_certify_and_verify_at_a_finite_place(monkeypatch):
    # A's largest eigenvalue modulus is 16, at the 2-adic place, so the
    # exponent search diagonalizes A again with the 2-adic sort
    a = M([[F(1, 16), 0, 0], [0, 2, 0], [0, 0, 8]])
    b = M([[1, 1, 0], [0, 1, 1], [0, 0, 1]]) * M([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    calls = count_diagonalizations(monkeypatch)
    cert = certify_generators([a, b]).certificate
    assert cert.to_json() == FINITE_CERT_JSON
    assert calls == [(ARCH, 64), (Place.finite(2), 64)]
    assert verify_certificate(cert, [a, b]) == (True, "ok")


def count_pairs(mp):
    """The bits of every pair pipeline.diagonalized_pair builds."""
    calls = []
    diagonalized_pair = pipeline.diagonalized_pair

    def counted(*args):
        pair = diagonalized_pair(*args)
        calls.append(pair.bits)
        return pair

    mp.setattr(pipeline, "diagonalized_pair", counted)
    return calls


def test_verify_replays_a_tamper_once(monkeypatch):
    # one basis, one replay: a cone_param tamper fails at the precision its
    # basis was built at, on an exact basis and on a rounded one alike, and
    # A's spectral data is computed once
    pairs = count_pairs(monkeypatch)
    calls = count_spectral_calls(monkeypatch)
    for gens in (exact_only(), sanov()):
        cert = certify_generators(gens).certificate
        bad = dataclasses.replace(cert, cone_param=cert.cone_param * 2**1000)
        pairs.clear()
        calls.clear()
        assert verify_certificate(bad, gens) == (
            False,
            "cone checks did not certify: disjoint, contracts, contracts_double failed at 64 bits",
        )
        assert pairs == [64]
        assert sorted(name for name, _ in calls) == sorted(SPECTRAL)


def close_eigenvalues():
    """A with two eigenvalues about 2^-70 apart, whose rounded basis is singular at 64 bits.

    A is the companion matrix of (x - 8)(x^2 - s x + 1/8); B is unipotent,
    so role 2 has no candidate.  Both have determinant 1.
    """
    s = F(isqrt(2**279) + 1, 2**140)
    a = M([[0, 0, 1], [1, 0, -(8 * s + F(1, 8))], [0, 1, 8 + s]])
    return [a, M([[1, 1, 0], [0, 1, 0], [1, 1, 1]])]


CLOSE_CERT_JSON = (
    '{"checks":{"contracts":true,"contracts_double":true,"disjoint":true},'
    '"cone_param":"1/16","exponent":18,"growth_bound":"267101/262144","n":3,'
    '"oracle_depth_validated":12,"place":"archimedean","schema":'
    '"growthcert.certificate.v1","wedge_m":1,"word_A":"0","word_B":"1"}\n'
)


def test_verify_names_the_precision_of_its_basis(monkeypatch):
    # an exception in the replay is the reason, with the basis' bits, and a
    # radius too wide for disjointness that still contracts names only the
    # check that failed
    gens = sanov()
    cert = certify_generators(gens).certificate
    assert verify_certificate(dataclasses.replace(cert, cone_param=F(1, 4)), gens) == (
        False,
        "cone checks did not certify: disjoint failed at 64 bits",
    )

    def no_enclosure(*args):
        raise Inconclusive("no enclosure")

    monkeypatch.setattr(pipeline, "wedge_pair", no_enclosure)
    assert verify_certificate(cert, gens) == (
        False,
        "cone checks did not certify: no enclosure at 64 bits",
    )
    # a basis singular at 64 bits is replayed at 128
    monkeypatch.undo()
    gens = close_eigenvalues()
    cert = PingPongCertificate.from_json_dict(json.loads(CLOSE_CERT_JSON))
    bad = dataclasses.replace(cert, cone_param=cert.cone_param * 2**1000)
    assert verify_certificate(bad, gens) == (
        False,
        "cone checks did not certify: disjoint, contracts, contracts_double failed at 128 bits",
    )


def test_certify_builds_a_basis_singular_at_64_bits_at_128():
    # the one precision escalation left: X rounded to 64 bits is singular,
    # so diagonalized_pair builds it at 128, where the search certifies
    gens = close_eigenvalues()
    with pytest.raises(SingularEnclosure):
        wordforge.diagonalize(gens[0], ARCH, 64)
    res = certify_generators(gens)
    assert res.certificate.to_json() == CLOSE_CERT_JSON
    assert res.trace[1] == {
        "stage": "derive_exponent",
        "ok": True,
        "word_A": "0",
        "word_B": "1",
        "place": "archimedean",
        "wedge_m": 1,
        "bits": 128,
        "candidates": 1,
        "exponent": 18,
        "cone_param": "1/16",
    }
    assert verify_certificate(res.certificate, gens) == (True, "ok")


def test_certify_stops_the_exponent_search_on_an_exact_basis(monkeypatch):
    # each of the two candidates runs once, on the exact basis built at
    # the first precision
    gens = exact_only()
    calls = count_wedge_pairs(monkeypatch)
    with pytest.raises(PipelineFailure) as info:
        certify_generators(gens, RunConfig(exponent_cap=1))
    assert calls == [64] * 2
    assert info.value.stage == "derive_exponent"
    detail = "no exponent up to 1 certifies the cone inclusions"
    assert str(info.value) == f"derive_exponent: ExponentSearchExhausted: {detail}"
    assert info.value.trace[-1] == {
        "stage": "derive_exponent",
        "ok": False,
        "error": "ExponentSearchExhausted",
        "detail": detail,
    }


def test_exponent_search_builds_each_power_once(monkeypatch):
    # SL2(Z)'s torsion generators: A = "0 1 0 1^-1" has no exponent, so the
    # search runs to exponent_cap; B = "0" has no gap, so role 2 has no
    # candidate.  Each power A^k B, k up to 2 * exponent_cap, is one integer
    # product after the last, built once and not once per radius
    gens = [M([[0, -1], [1, 0]]), M([[0, -1], [1, 1]])]
    products = []
    matmul = pingpong.int_matmul
    monkeypatch.setattr(pingpong, "int_matmul", lambda x, y: products.append(1) or matmul(x, y))
    with pytest.raises(PipelineFailure) as info:
        certify_generators(gens)
    cap = RunConfig().exponent_cap
    assert len(products) == 2 * cap
    detail = "no exponent up to 64 certifies the cone inclusions"
    assert str(info.value) == f"derive_exponent: ExponentSearchExhausted: {detail}"
    assert list(info.value.trace) == [
        {
            "stage": "find_regular_pair",
            "ok": True,
            "word_A": "0 1 0 1^-1",
            "word_B": "0",
            "disc": "5",
            "burnside_dim": 4,
        },
        {
            "stage": "derive_exponent",
            "ok": False,
            "error": "ExponentSearchExhausted",
            "detail": detail,
        },
    ]


def test_certify_selects_from_the_seed_grid(monkeypatch):
    def recompute(*args):
        raise AssertionError("the seed's gap grid was recomputed")

    monkeypatch.setattr(pipeline, "l1_gap_report", recompute)
    assert certify_generators(sanov()).certificate.to_json() == SANOV_CERT_JSON


def test_certify_computes_the_role_two_grid_once_and_only_when_it_could_win(monkeypatch):
    # role 1 certifies at e = 2 (5 letters), so role 2 could still give a
    # 3-letter word: B's gap grid is computed once, and role 2 wins
    gens = role_two()
    calls = []
    grid = pipeline.l1_gap_report
    monkeypatch.setattr(pipeline, "l1_gap_report", lambda a, *rest: calls.append(a) or grid(a, *rest))
    assert str(certify_generators(gens).certificate.word_a) == "1"
    assert calls == [gens[1]]
    # role 1 certifies a 3-letter word, which no word of role 2 beats
    calls.clear()
    assert str(certify_generators(seed_wins()).certificate.word_a) == "0"
    assert calls == []


def test_verify_rejects_out_of_range_letter():
    gens = sanov()
    cert = certify_generators(gens).certificate
    bad = dataclasses.replace(cert, word_b=Word.parse("7"))
    ok, reason = verify_certificate(bad, gens)
    assert not ok
    assert "word evaluation failed" in reason


def test_verify_rejects_sign_flip():
    gens = sanov()
    cert = certify_generators(gens).certificate
    bad = dataclasses.replace(cert, word_a=Word.parse("0 1^-1"))
    ok, reason = verify_certificate(bad, gens)
    assert not ok


def test_verify_turns_oracle_budget_overrun_into_rejection(monkeypatch):
    gens = sanov()
    cert = PingPongCertificate.from_json_dict(json.loads(SANOV_CERT_JSON))

    def over_budget(*args):
        raise BudgetExceeded("oracle exceeded budget 5")

    monkeypatch.setattr(pipeline, "find_semigroup_collision", over_budget)
    ok, reason = verify_certificate(cert, gens)
    assert not ok and "budget 5" in reason


def test_verify_dimension_and_input_gates():
    gens = sanov()
    cert = certify_generators(gens).certificate
    assert verify_certificate(cert, [])[0] is False
    ok, reason = verify_certificate(cert, heisenberg())
    assert not ok and "dimension" in reason
    bad = dataclasses.replace(cert, wedge_m=2)
    ok, reason = verify_certificate(bad, gens)
    assert not ok and "wedge degree" in reason


def test_zero_exponent_is_unrepresentable():
    cert = certify_generators(sanov()).certificate
    d = cert.to_json_dict()
    d["exponent"] = 0
    with pytest.raises(ValueError):
        PingPongCertificate.from_json_dict(d)


def test_heisenberg_fails_at_pair_search():
    with pytest.raises(PipelineFailure) as info:
        certify_generators(heisenberg())
    trace = info.value.trace
    assert trace[-1]["stage"] == "find_regular_pair"
    assert trace[-1]["ok"] is False
    assert trace[-1]["error"] == "PairNotFound"


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(search_depth=0)
    with pytest.raises(ValueError):
        RunConfig(budget=0)
    with pytest.raises(ValueError, match="oracle_depth must be positive"):
        RunConfig.from_json_dict({"oracle_depth": -1})


def test_certify_passes_b_failing_the_corner_check():
    # sl2_hyperbolic pair 28 under seed 411 (drawn as in test_acceptance):
    # B fails the corner condition l2 in the rebalanced basis, yet the cone
    # checks in the canonical eigenbasis certify the pair.  The archimedean
    # place needs e = 4; the 2-adic place, tried next, certifies at e = 1
    gens = [M([[2, F(-1, 2)], [0, F(1, 2)]]), M([[0, -1], [1, F(1, 2)]])]
    res = certify_generators(gens)
    assert [rec["stage"] for rec in res.trace] == STAGES
    cert = res.certificate
    assert (cert.place, cert.exponent, cert.cone_param) == (Place.finite(2), 1, F(1, 2))
    assert cert.growth_bound == F(660561, 524288)
    assert verify_certificate(cert, gens) == (True, "ok")


def test_runconfig_ignores_retired_constants():
    cfg = RunConfig(search_depth=3)
    retired = {
        "word_cap": 5,
        "bits_schedule": [64],
        "radii": ["1/2", "1/8"],
        "constants": ["1", "1", "1", "2"],
        "epsilon": "1/64",
    }
    assert RunConfig.from_json_dict({"search_depth": 3, **retired}) == cfg


def test_runconfig_json_round_trip():
    cfg = RunConfig(search_depth=3, oracle_depth=5, exponent_cap=16, budget=99)
    assert RunConfig.from_json_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg
    # partial dicts fall back to defaults
    assert RunConfig.from_json_dict({"budget": 99}) == RunConfig(budget=99)


SRC = Path(__file__).resolve().parent.parent / "src/growthcert"
FLOAT_MATH = {"sqrt", "log", "log2", "log10", "exp"}
# the modules certify and verify run, and where the others may name a float:
# cayley's labelled growth heuristics and cli's --pretty approximations
FLOAT_FREE = ["exactnum", "intervals", "polyroots", "spectra", "pingpong", "wordforge", "pipeline"]
FLOAT_ALLOWED_IN = {"cayley": {"_poly_fit_degree", "_sse", "_verdict"}, "cli": {"_with_approx"}}


def _names_a_float(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Attribute):
        math_call = isinstance(node.value, ast.Name) and node.value.id == "math"
        return node.attr == "float_info" or (math_call and node.attr in FLOAT_MATH)
    if isinstance(node, ast.ImportFrom):
        return node.module == "math" and any(a.name in FLOAT_MATH for a in node.names)
    return False


def _float_sites(module: str, allowed=frozenset()) -> list[str]:
    """(function or <module>, line) of every float the module names outside `allowed`."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    sites = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in allowed:
            continue
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        sites += [f"{owner}:{n.lineno}" for n in ast.walk(top) if _names_a_float(n)]
    return sites


@pytest.mark.parametrize("module", FLOAT_FREE + list(FLOAT_ALLOWED_IN))
def test_certify_and_verify_name_no_float(module):
    # the canonical order and every check certify and verify share must come
    # from exact values: a float key or a libm log could differ between machines
    assert _float_sites(module, FLOAT_ALLOWED_IN.get(module, frozenset())) == []


def test_the_float_scan_sees_the_heuristics_it_allows():
    assert {site.split(":")[0] for site in _float_sites("cayley")} == FLOAT_ALLOWED_IN["cayley"]
    assert {site.split(":")[0] for site in _float_sites("cli")} == FLOAT_ALLOWED_IN["cli"]


# the only caches that may outlive a call: cli's argument parser and the
# unit points polyroots starts its root search from, both fixed by the code
CACHES_ALLOWED = {("cli", "_build_parser"), ("polyroots", "_unit")}
MUTABLE_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _is_cache(decorator) -> bool:
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("cache", "lru_cache")


def _is_mutable(value) -> bool:
    """A list, dict or set display or comprehension, or a list(), dict() or set() call."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in ("list", "dict", "set")
    return isinstance(value, MUTABLE_NODES)


def _cross_call_state(module: str) -> tuple[set, list[str]]:
    """The module's cached functions, and its global statements and module-level containers."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    cached, sites = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(map(_is_cache, node.decorator_list)):
                cached.add((module, node.name))
        elif isinstance(node, ast.Global):
            sites.append(f"global:{node.lineno}")
    for top in tree.body:
        if isinstance(top, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and _is_mutable(top.value):
            sites.append(f"<module>:{top.lineno}")
    return cached, sites


MODULES = sorted(p.stem for p in SRC.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_state_outlives_a_call(module):
    # certify and verify give the same answer on every call in one process
    # only if nothing a call computes is kept for the next: a new cache, a
    # global statement or a module-level container must be reviewed first
    cached, sites = _cross_call_state(module)
    assert cached <= CACHES_ALLOWED
    assert sites == []


def test_the_state_scan_sees_the_caches_it_allows():
    found = set().union(*(_cross_call_state(m)[0] for m in MODULES))
    assert found == CACHES_ALLOWED
    tree = "import functools\nX = {}\n@functools.lru_cache(8)\ndef f():\n    global X\n"
    assert _is_mutable(ast.parse(tree).body[1].value)
    assert _is_cache(ast.parse(tree).body[2].decorator_list[0])
