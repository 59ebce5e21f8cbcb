#!/usr/bin/env python3
"""growthcert benchmark: certify, verify and growth over a seeded corpus.

Run from the root of a checkout:

    python3 bench/run.py --workload certify_corpus --seed 1 --seconds 30 --trace 0

Every call goes through `growthcert.cli.main` in this process, the way a
user runs the command line tool.  The run is a closed loop with one caller:
the next call starts when the previous one returned.

Workloads (see data/corpus.json for every input and why it is there):
  certify_corpus  `certify` on every input.  The only workload that runs the
                  pair search, the spectral stages and the word surgery.
  verify_corpus   `verify` on every recorded certificate (accepted) and on
                  single-field tampers plus a hostile exponent (rejected).
                  No pair search, no word surgery.
  growth_balls    `growth` on every input: Cayley BFS, matmul and hashing
                  only.  No spectra, no oracle.

With --trace 0 the run times calls for --seconds (at least one full pass)
and prints the end-to-end metrics.  With --trace 1 it makes one untraced
and one traced pass and prints the per-layer metrics; the spans are written
to .bench_out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Outputs are checked against the
answers recorded in data/corpus.json, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(BENCH_DIR, "data", "corpus.json")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
PACKAGE = "growthcert"
WORKLOADS = ("certify_corpus", "verify_corpus", "growth_balls")
SETUP_REPS = 5
# probe_unit takes about this long on a quiet 2-vCPU Xeon VM
REF_UNIT_S = 0.0005
BRACKET_UNITS = 20
PROBE_INTERVAL_S = 0.05
# the call-time percentile reported is the highest with this many calls beyond it
TAIL_BEYOND = 10

sys.path.insert(0, BENCH_DIR)
import corpus as corpus_mod  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def pin_environment() -> None:
    """Re-execute with a fixed hash seed and without a user config file.

    The CLI reads GROWTHCERT_CONFIG, so a user's config would silently
    change every workload; str hashing decides set iteration order.
    """
    if os.environ.get("PYTHONHASHSEED") == "0" and "GROWTHCERT_CONFIG" not in os.environ:
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("GROWTHCERT_CONFIG", None)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(sys.argv[0])] + sys.argv[1:], env)


def provenance() -> dict:
    import platform

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        from importlib.metadata import version

        mpmath_version = version("mpmath")
    except Exception:  # provenance is informational; a missing record is not a failure
        mpmath_version = None
    return {
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _git_commit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def _git_commit():
    """HEAD of ROOT read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# corpus and calls


class Call(NamedTuple):
    """One command line invocation and the answer it must give."""

    input_id: str
    argv: list
    expect: dict | None


class Result(NamedTuple):
    call: Call
    ref_s: float  # reference seconds, see Timer
    raw_s: float
    outcome: tuple  # (exit code, stdout, traceback or None)


def load_data(path=DATA) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def build_calls(data: dict, workload: str, seed: int, workdir: str):
    """Write the input files and return (calls in seeded order, warm-up call)."""
    os.makedirs(workdir, exist_ok=True)
    gens_path = {}
    for idx, item in enumerate(data["inputs"]):
        path = os.path.join(workdir, f"gens{idx}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": item["n"], "generators": item["generators"]}, fh)
        gens_path[item["id"]] = path

    def cert_file(name, cert):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cert, fh)
        return path

    calls = []
    if workload == "certify_corpus":
        for item in data["inputs"]:
            calls.append(Call(item["id"], ["certify", gens_path[item["id"]]], item))
        warm = Call("heisenberg", ["certify", gens_path["heisenberg"]], None)
    elif workload == "verify_corpus":
        for idx, item in enumerate(data["inputs"]):
            cert = item["certify"].get("certificate")
            if cert is not None:
                argv = ["verify", cert_file(f"cert{idx}", cert), gens_path[item["id"]]]
                calls.append(Call(item["id"], argv, {"valid": True}))
        for idx, tamper in enumerate(data["tampers"]):
            argv = ["verify", cert_file(f"tamper{idx}", tamper["certificate"]), gens_path[tamper["of"]]]
            calls.append(Call(tamper["id"], argv, {"valid": False}))
        sanov = next(item for item in data["inputs"] if item["id"] == "sanov")
        bad = dict(sanov["certify"]["certificate"], word_B="7")
        warm = Call("sanov", ["verify", cert_file("warm", bad), gens_path["sanov"]], None)
    elif workload == "growth_balls":
        for item in data["inputs"]:
            radius = str(item["growth"]["radius"])
            calls.append(Call(item["id"], ["growth", gens_path[item["id"]], "--radius", radius], item))
        warm = Call("heisenberg", ["growth", gens_path["heisenberg"], "--radius", "2"], None)
    else:
        raise ValueError(f"unknown workload {workload}")
    random.Random(seed).shuffle(calls)
    return calls, warm


def import_cli():
    """Fresh import of the program; earlier imports are dropped first."""
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE + ".cli")


def call_cli(cli, argv):
    """(exit code, stdout, traceback or None) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), None


def probe_unit():
    """Fixed pure-Python work, independent of the program under test.

    Fraction arithmetic and tuple hashing, the operations the program spends
    its time in; about 0.5 ms.
    """
    acc = Fraction(0)
    for i in range(1, 20):
        acc += Fraction(i, i + 1) * Fraction(3, 7 + i)
    seen = {}
    for i in range(200):
        seen[(i, i * i, acc)] = i
    return len(seen)


def probe(units: int) -> list[float]:
    """Seconds taken by each of `units` runs of probe_unit."""
    times = []
    for _ in range(units):
        t0 = perf_counter()
        probe_unit()
        times.append(perf_counter() - t0)
    return times


class Timer:
    """Times work in reference seconds.

    On a shared VM the speed at which this process runs Python swings by up
    to 2x within seconds.  The timer measures that speed with probe_unit:
    BRACKET_UNITS runs of it before and after each timed piece of work, and
    one run every PROBE_INTERVAL_S during it, from a SIGALRM handler.  The
    work's wall time, less the probes inside it, is scaled by REF_UNIT_S
    over the median probe time, taken over the probes inside the work when
    there are at least three and over the ones around it otherwise: the
    time the work takes on a machine that runs probe_unit in REF_UNIT_S.
    With sample=False only the probes around the work run, so that none
    lands inside a traced span.
    """

    def __init__(self, sample=True):
        self._interval = PROBE_INTERVAL_S if sample else 0
        self._before = probe(BRACKET_UNITS)
        self._samples: list[float] = []

    def _on_alarm(self, signum, frame):
        self._samples += probe(1)

    def time(self, fn, *args):
        """(reference seconds, raw seconds, fn's result)."""
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        after = probe(BRACKET_UNITS)
        units = self._samples if len(self._samples) >= 3 else self._before + after
        unit = statistics.median(units)
        self._before = after
        raw = elapsed - sum(self._samples)
        return raw * REF_UNIT_S / unit, raw, result


def setup(data, workload, seed, workdir):
    """Import, corpus load and one warm-up call, SETUP_REPS times.

    Returns (cli module, calls, median set-up reference seconds).
    """
    timer = Timer()
    times = []

    def once():
        cli = import_cli()
        calls, warm = build_calls(data, workload, seed, workdir)
        call_cli(cli, warm.argv)
        return cli, calls

    for _ in range(SETUP_REPS):
        ref, _, (cli, calls) = timer.time(once)
        times.append(ref)
    return cli, calls, statistics.median(times)


def run_passes(cli, calls, seconds, tracer=None):
    """Call round robin until `seconds` passed and one pass is complete.

    Returns a Result per call.  The heap is collected before each call,
    untimed: a user's process starts with a clean one.
    """
    results = []
    timer = Timer(sample=tracer is None)
    deadline = perf_counter() + seconds
    i = 0
    while i < len(calls) or perf_counter() < deadline:
        call = calls[i % len(calls)]
        if tracer is not None:
            tracer.input_id = call.input_id
        gc.collect()
        ref, raw, outcome = timer.time(call_cli, cli, call.argv)
        results.append(Result(call, ref, raw, outcome))
        i += 1
    return results


# ---------------------------------------------------------------------------
# answer checks (outside the timed region)


def word_length(text: str) -> int:
    return len(text.split())


def max_word_length(cert: dict) -> int:
    """Length of A^2e B, the longer certified word."""
    return 2 * int(cert["exponent"]) * word_length(cert["word_A"]) + word_length(cert["word_B"])


def sanov_sizes(radius):
    return [1] + [2 * 3**n - 1 for n in range(1, radius + 1)]


class Checker:
    """Checks each call's answer; the reason for a failure, or None."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir

    def __call__(self, call, outcome):
        code, out, tb = outcome
        if tb is not None:
            return "traceback: " + tb.strip().splitlines()[-1]
        try:
            return self._check(call, code, json.loads(out))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return f"exit {code} with malformed output: {exc!r}"

    def _check(self, call, code, doc):
        cmd = call.argv[0]
        if cmd == "certify":
            return self._certify(call, code, doc)
        if cmd == "verify":
            want_code, want_valid = (0, True) if call.expect["valid"] else (5, False)
            if code != want_code or doc.get("valid") is not want_valid:
                return f"verify gave exit {code}, valid={doc.get('valid')}"
            return None
        return self._growth(call, code, doc)

    def _certify(self, call, code, doc):
        item = call.expect
        recorded = item["certify"]
        if code == 4:
            if recorded["exit"] == 0:
                return f"refused at {doc.get('failed_stage')}; recorded a certificate"
            if item["id"] == "heisenberg" and doc.get("failed_stage") != "find_regular_pair":
                return f"Heisenberg refused at {doc.get('failed_stage')}"
            return None
        if code != 0:
            return f"certify exit {code}"
        if item["id"] == "heisenberg":
            return "certified a nilpotent group"
        q = Fraction(doc["growth_bound"])
        ell = max_word_length(doc)
        if not (q > 1 and q**ell <= 2):
            return f"bound {doc['growth_bound']} fails q^ell <= 2 at ell={ell}"
        if item["id"] == "sanov":
            for n, count in enumerate(sanov_sizes(corpus_mod.GROWTH_RADIUS["sanov"])):
                qn = q**n
                if count < qn.numerator // qn.denominator:
                    return f"Sanov ball {n} has {count} < bound^n"
        cert = recorded.get("certificate")
        if cert is not None and q < Fraction(cert["growth_bound"]):
            return f"bound {doc['growth_bound']} weaker than recorded {cert['growth_bound']}"
        if doc == cert:
            # verified on this generator file when the data was recorded,
            # and replayed by every verify_corpus run
            return None
        return self._reverify(call, doc)

    def _reverify(self, call, doc):
        path = os.path.join(self.workdir, "reverify.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, tb = call_cli(self.cli, ["verify", path, call.argv[1]])
        if tb is None and code == 0 and json.loads(out).get("valid") is True:
            return None
        return "emitted certificate does not re-verify"

    def _growth(self, call, code, doc):
        if code != 0:
            return f"growth exit {code}"
        sizes = [count for _, count in doc["ball_sizes"]]
        want = [count for _, count in call.expect["growth"]["ball_sizes"]]
        if call.expect["id"] == "sanov" and sizes != sanov_sizes(len(sizes) - 1):
            return "Sanov ball sizes are not 2*3^n-1"
        if sizes != want:
            return f"ball sizes {sizes} != recorded {want}"
        return None


def check_all(checker, results):
    """Failure reasons per call; identical outcomes are checked once."""
    seen: dict = {}
    failures = []
    for r in results:
        key = (id(r.call), r.outcome)
        if key not in seen:
            seen[key] = checker(r.call, r.outcome)
        if seen[key] is not None:
            failures.append((r.call.input_id, seen[key]))
    return failures


# ---------------------------------------------------------------------------
# metrics


def per_input_medians(results):
    times: dict[str, list[float]] = {}
    for r in results:
        times.setdefault(r.call.input_id, []).append(r.ref_s)
    return {k: statistics.median(v) for k, v in times.items()}


def tail(values):
    """Highest percentile with at least TAIL_BEYOND values beyond it."""
    vals = sorted(values)
    return vals[max(len(vals) - TAIL_BEYOND - 1, 0)]


def end_to_end(results, setup_s):
    """Times are per-input medians in reference seconds (see Timer)."""
    vals = list(per_input_medians(results).values())
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(vals), "s"),
        "call_geomean_s": (statistics.geometric_mean(vals), "s"),
        "call_tail_s": (tail(vals), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _stage_info(args, result, exc):
    if exc is None:
        return "ok"
    return getattr(exc, "stage", type(exc).__name__)


TRACE_TARGETS = [
    # (span name, module, attribute path, info)
    ("cli.main", "growthcert.cli", "main", None),
    ("pipeline.certify", "growthcert.pipeline", "certify_generators", _stage_info),
    ("pipeline.verify", "growthcert.pipeline", "verify_certificate", None),
    ("exactnum.matmul", "growthcert.exactnum", "SquareMatrix.__mul__", None),
    ("exactnum.inverse", "growthcert.exactnum", "SquareMatrix.inverse", None),
    ("exactnum.det", "growthcert.exactnum", "SquareMatrix.det", None),
    ("pingpong.oracle", "growthcert.pingpong", "find_semigroup_collision", None),
    ("pingpong.derive_exponent", "growthcert.pingpong", "derive_exponent", None),
    (
        "pingpong.cone_checks",
        "growthcert.pingpong",
        "verify_cone_inclusions",
        lambda a, r, e: r is not None and r.all_pass,
    ),
    ("pingpong.growth_bound", "growthcert.pingpong", "growth_bound_from_length", None),
    (
        "cayley.enumerate_ball",
        "growthcert.cayley",
        "enumerate_ball",
        lambda a, r, e: r.ball_sizes[-1][1] if r is not None else 0,
    ),
    ("cayley.find_regular_pair", "growthcert.cayley", "find_regular_pair", lambda a, r, e: a[0][0].n),
    ("cayley.charpoly_is_squarefree", "growthcert.cayley", "charpoly_is_squarefree", None),
    ("cayley.shemesh", "growthcert.cayley", "shemesh_no_common_eigenvector", lambda a, r, e: a[0].n),
    ("cayley.generated_algebra_dimension", "growthcert.cayley", "generated_algebra_dimension", None),
    ("polyroots.rational_roots", "growthcert.polyroots", "rational_roots", None),
    ("polyroots.certified_root_structure", "growthcert.polyroots", "certified_root_structure", None),
    ("spectra.char_poly", "growthcert.spectra", "char_poly", lambda a, r, e: a[0].entries),
    ("spectra.l1_gap_report", "growthcert.spectra", "l1_gap_report", None),
    ("intervals.cmat_mul", "growthcert.intervals", "cmat_mul", None),
    ("intervals.cmat_inverse", "growthcert.intervals", "cmat_inverse", None),
    ("wordforge.balance_or_trace", "growthcert.wordforge", "balance_or_trace", None),
    ("wordforge.swap_roles", "growthcert.wordforge", "swap_roles", None),
    ("wordforge.select_place_and_wedge", "growthcert.wordforge", "select_place_and_wedge", None),
    ("wordforge.ensure_l2", "growthcert.wordforge", "ensure_l2", None),
    ("wordforge.build_almost_algebra", "growthcert.wordforge", "build_almost_algebra", None),
    ("wordforge.diagonalized_pair", "growthcert.wordforge", "diagonalized_pair", None),
]

TOTAL_S = [
    "pingpong.oracle",
    "cayley.enumerate_ball",
    "cayley.find_regular_pair",
    "cayley.generated_algebra_dimension",
    "spectra.l1_gap_report",
    "wordforge.balance_or_trace",
    "wordforge.swap_roles",
    "wordforge.select_place_and_wedge",
    "wordforge.ensure_l2",
    "wordforge.build_almost_algebra",
    "wordforge.diagonalized_pair",
    "pingpong.derive_exponent",
    "pingpong.growth_bound",
    "pipeline.certify",
    "pipeline.verify",
]
SELF_S = [
    "exactnum.matmul",
    "polyroots.rational_roots",
    "polyroots.certified_root_structure",
    "intervals.cmat_mul",
    "intervals.cmat_inverse",
    "cli.main",
]
CALLS = [
    "exactnum.matmul",
    "exactnum.inverse",
    "exactnum.det",
    "pingpong.oracle",
    "polyroots.rational_roots",
    "spectra.char_poly",
    "pingpong.cone_checks",
]
REFUSAL_STAGES = [
    "find_regular_pair",
    "balance_or_trace",
    "swap_roles",
    "select_place_and_wedge",
    "ensure_l2",
    "derive_exponent",
    "freeness_oracle",
]
# stages a pipeline call re-runs at the next precision when one fails
ESCALATED = {"wordforge.balance_or_trace", "wordforge.swap_roles", "wordforge.ensure_l2", "wordforge.diagonalized_pair"}


def per_layer(spans, untraced, traced):
    """Per-layer metrics of one traced pass, from its spans and outputs.

    Span times are raw; they are scaled to reference seconds by the traced
    pass's overall reference/raw ratio.
    """
    raw_wall = sum(r.raw_s for r in traced)
    speed = sum(r.ref_s for r in traced) / raw_wall
    agg = {k: [c, total * speed, own * speed] for k, (c, total, own) in summarize(spans).items()}

    def get(name):
        return agg.get(name, [0, 0.0, 0.0])

    m = {}
    for name in TOTAL_S:
        m[name + ".total_s"] = (get(name)[1], "s")
    for name in SELF_S:
        m[name + ".self_s"] = (get(name)[2], "s")
    for name in CALLS:
        m[name + ".calls"] = (get(name)[0], "count")
    calls, total, _ = get("exactnum.matmul")
    m["exactnum.matmul.us_per_call"] = (1e6 * total / calls if calls else 0.0, "us")

    in_oracle = [False] * len(spans)
    products = elements = a_cand = b_cand = cone_pass = 0
    refused = dict.fromkeys(REFUSAL_STAGES, 0)
    char_keys = set()
    child_counts: dict[tuple[int, str], int] = {}
    for idx, (name, _, _, parent, _, info) in enumerate(spans):
        in_oracle[idx] = name == "pingpong.oracle" or (parent >= 0 and in_oracle[parent])
        pname = spans[parent][0] if parent >= 0 else None
        if name == "exactnum.matmul" and in_oracle[idx]:
            products += 1
        elif name == "cayley.enumerate_ball":
            elements += info
        elif name == "cayley.charpoly_is_squarefree" and pname == "cayley.find_regular_pair":
            a_cand += 1
        elif name == "cayley.shemesh" and pname == "cayley.find_regular_pair" and info == spans[parent][5]:
            b_cand += 1
        elif name == "spectra.char_poly":
            char_keys.add(info)
        elif name == "pingpong.cone_checks":
            cone_pass += bool(info)
        elif name == "pipeline.certify" and info != "ok":
            refused[info] = refused.get(info, 0) + 1
        if name in ESCALATED and pname in ("pipeline.certify", "pipeline.verify"):
            key = (parent, name)
            child_counts[key] = child_counts.get(key, 0) + 1
    escalations = sum(c - 1 for c in child_counts.values())

    m["pingpong.oracle.products"] = (products, "count")
    enum_s = get("cayley.enumerate_ball")[1]
    m["cayley.ball_elements"] = (elements, "count")
    m["cayley.elements_per_s"] = (elements / enum_s if enum_s else 0.0, "1/s")
    m["cayley.a_candidates"] = (a_cand, "count")
    m["cayley.b_candidates"] = (b_cand, "count")
    char_calls = get("spectra.char_poly")[0]
    m["spectra.char_poly.distinct"] = (len(char_keys), "count")
    m["spectra.char_poly.distinct_ratio"] = (len(char_keys) / char_calls if char_calls else 0.0, "ratio")
    cone_calls = get("pingpong.cone_checks")[0]
    m["pingpong.cone_checks.useful_ratio"] = (cone_pass / cone_calls if cone_calls else 0.0, "ratio")
    for stage, count in refused.items():
        m[f"pipeline.refused.{stage}"] = (count, "count")
    m["pipeline.escalations"] = (escalations, "count")

    quality = certificate_quality(traced)
    m["pipeline.certified"] = (quality[0], "count")
    m["pipeline.bound_log2_sum"] = (quality[1], "log2")
    m["pipeline.longest_word_max"] = (quality[2], "letters")

    traced_wall = sum(r.ref_s for r in traced)
    untraced_wall = sum(r.ref_s for r in untraced)
    top = sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)
    m["cli.reject_wall_s"] = (sum(r.ref_s for r in untraced if r.outcome[0] not in (0, None)), "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    m["trace.coverage"] = (top / raw_wall, "ratio")
    return m


def certificate_quality(results):
    """(certified inputs, sum of log2 growth bounds, longest certified word)."""
    best: dict[str, dict] = {}
    for r in results:
        code, out, _ = r.outcome
        if r.call.argv[0] == "certify" and code == 0:
            best[r.call.input_id] = json.loads(out)
    log2_sum = sum(math.log2(Fraction(c["growth_bound"])) for c in best.values())
    longest = max((max_word_length(c) for c in best.values()), default=0)
    return len(best), log2_sum, longest


# ---------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, data=None, out_dir=OUT):
    """Set up, measure and check one workload; returns the result object."""
    data = data if data is not None else load_data()
    workdir = os.path.join(WORK, f"{workload}-{seed}")
    cli, calls, setup_s = setup(data, workload, seed, workdir)
    checker = Checker(cli, workdir)
    if trace:
        untraced = run_passes(cli, calls, 0)
        tracer = Tracer()
        tracer.install(TRACE_TARGETS, PACKAGE)
        try:
            traced = run_passes(cli, calls, 0, tracer=tracer)
        finally:
            tracer.uninstall()
        results = untraced + traced
        metrics = per_layer(tracer.spans, untraced, traced)
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl"))
    else:
        results = run_passes(cli, calls, seconds)
        metrics = end_to_end(results, setup_s)
    failures = check_all(checker, results)
    return {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures,
        "inputs": len(calls),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, SRC)
    prov = provenance()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"provenance": prov, "workload": args.workload, "seed": args.seed}))
    for input_id, reason in result.pop("failures"):
        print(f"FAILED {input_id}: {reason}")
    inputs = result.pop("inputs")
    print(f"calls per pass: {inputs}; calls made: {result['attempted']}")
    if not args.trace:
        rank = max(inputs - TAIL_BEYOND, 1)
        print(f"times are per-input medians; call_tail_s is number {rank} of {inputs} in ascending order")
    for name, rec in result["metrics"].items():
        print(f"{name} {rec['value']:.6g} {rec['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
