"""The benchmark's trace targets resolve against the package.

bench/run.py --trace 1 wraps every (module, attribute path) in its
TRACE_TARGETS, and one missing name stops the run.  The script is loaded
read-only here: no bytecode is written next to it, its main does not run,
and the helper modules it imports from bench/ are dropped afterwards.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
