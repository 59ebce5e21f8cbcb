"""The benchmark's trace targets resolve against the package and still fit it.

bench/run.py --trace 1 wraps every (module, attribute path) in its
TRACE_TARGETS, and one missing name stops the run; an info callback reads
its target's arguments or result, so a changed signature breaks it too.
The script is loaded read-only here: no bytecode is written next to it,
its main does not run, and the helper modules it imports from bench/ are
dropped afterwards.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from growthcert import cli
from test_cli import sanov_file, write_json

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def load_bench_run(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        for name in ("corpus", "tracer"):
            if name not in before:
                sys.modules.pop(name, None)
    return module


def test_every_trace_target_resolves(monkeypatch):
    targets = load_bench_run(monkeypatch).TRACE_TARGETS
    assert targets
    for span, module, path, _ in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{span}: {module}.{path} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), span


def test_traced_cli_runs_fire_every_info_callback(monkeypatch, tmp_path, capsys):
    bench = load_bench_run(monkeypatch)
    ran, errors = set(), []

    def checked(span, info):
        # records a failing callback instead of raising it into the program
        def call(args, result, exc):
            try:
                value = info(args, result, exc)
            except Exception as err:
                errors.append((span, repr(err)))
                return None
            ran.add(span)
            return value

        return call

    targets = [
        (span, mod, path, info and checked(span, info)) for span, mod, path, info in bench.TRACE_TARGETS
    ]
    for _, mod, _, _ in targets:
        importlib.import_module(mod)
    sanov = sanov_file(tmp_path)
    # both generators fix e_1, so the pair search refuses them
    reducible = write_json(
        tmp_path / "reducible.json",
        {
            "n": 3,
            "generators": [[[1, 2, -1], [0, 7, -2], [0, 11, -3]], [[1, 0, 3], [0, 1, 0], [0, 5, 1]]],
        },
    )
    cert = str(tmp_path / "cert.json")
    tracer = bench.Tracer()
    tracer.install(targets, bench.PACKAGE)
    try:
        codes = [
            cli.main(["certify", sanov, "--out", cert]),
            cli.main(["verify", cert, sanov]),
            cli.main(["certify", reducible]),
            cli.main(["growth", sanov, "--radius", "3"]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_PIPELINE, cli.EXIT_OK]
    assert errors == []
    assert ran == {span for span, _, _, info in targets if info is not None}
    spans = {name for name, *_ in tracer.spans}
    assert {"pingpong.oracle", "cayley.find_regular_pair"} <= spans
