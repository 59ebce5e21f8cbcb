"""Command-line surface: generator files in, certified reports out.

Subcommands: growth (exact ball sizes), find-pair (regular pair search),
certify (full pipeline to a ping-pong certificate), verify (third-party
recheck of a certificate), spectrum (eigenvalue data for one word), and
report (trace log summary).  Exit codes: 0 success, 2 parse error,
3 budget exceeded, 4 pipeline failure, 5 certificate rejected.

Canonical output is deterministic JSON with rationals as "p/q" strings
and no timestamps; --pretty indents and adds float approximations under
"<key>~" side keys.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .cayley import (
    enumerate_ball,
    estimate_omega,
    find_regular_pair,
    generated_algebra_dimension,
    shemesh_no_common_eigenvector,
)
from .errors import (
    BudgetExceeded,
    GrowthcertError,
    InsufficientData,
    PairNotFound,
    PipelineFailure,
    ZeroDiscriminant,
)
from .exactnum import (
    SquareMatrix,
    Word,
    evaluate_word,
    format_rational,
    parse_rational,
    require_unimodular,
    s_support,
)
from .pingpong import PingPongCertificate
from .pipeline import RunConfig, certify_generators, verify_certificate
from .spectra import check_separation, eigen_report, wedge_power

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_PIPELINE = 4
EXIT_VERIFY = 5

CONFIG_ENV = "GROWTHCERT_CONFIG"

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


class _ParseError(Exception):
    """Input file or flag content that cannot be used; maps to exit 2."""


@dataclass(frozen=True)
class GeneratorFile:
    """Parsed and validated generating set.

    Schema: {"n": int, "generators": [[["p/q", ...], ...], ...],
    "labels": [str, ...]?}.  Every matrix must be n x n with determinant
    exactly 1; the count and dimension caps keep runs desk-scale.
    """

    n: int
    generators: tuple[SquareMatrix, ...]
    labels: tuple[str, ...]

    @staticmethod
    def from_json_dict(d: dict, max_count: int = 16, max_n: int = 6) -> "GeneratorFile":
        if not isinstance(d, dict):
            raise _ParseError("generator file must be a JSON object")
        try:
            n = int(d["n"])
            grids = d["generators"]
        except (KeyError, TypeError, ValueError) as exc:
            raise _ParseError(f"missing or bad field: {exc}") from exc
        if not 2 <= n <= max_n:
            raise _ParseError(f"dimension must be in 2..{max_n}, got {n}")
        if not isinstance(grids, list) or not 1 <= len(grids) <= max_count:
            raise _ParseError(f"generator count must be in 1..{max_count}")
        mats = []
        for idx, grid in enumerate(grids):
            if not isinstance(grid, list) or len(grid) != n:
                raise _ParseError(f"generator {idx} is not an {n}x{n} grid")
            rows = []
            for row in grid:
                if not isinstance(row, list) or len(row) != n:
                    raise _ParseError(f"generator {idx} is not an {n}x{n} grid")
                try:
                    rows.append([parse_rational(str(x)) for x in row])
                except (ValueError, ZeroDivisionError) as exc:
                    raise _ParseError(f"generator {idx}: bad entry: {exc}") from exc
            try:
                mats.append(require_unimodular(SquareMatrix.from_rows(rows)))
            except GrowthcertError as exc:
                raise _ParseError(f"generator {idx}: {exc}") from exc
        labels = d.get("labels")
        if labels is None:
            labels = [f"g{i}" for i in range(len(mats))]
        if not isinstance(labels, list) or len(labels) != len(mats):
            raise _ParseError("labels must match the generator count")
        return GeneratorFile(
            n=n, generators=tuple(mats), labels=tuple(str(x) for x in labels)
        )


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ParseError(f"{path} is not valid JSON: {exc}") from exc


def _load_generators(path: str) -> GeneratorFile:
    return GeneratorFile.from_json_dict(_load_json(path))


def _support(gfile: GeneratorFile):
    """The generators' S-support; a denominator too hard to factor is unusable input."""
    try:
        return s_support(list(gfile.generators))
    except GrowthcertError as exc:
        raise _ParseError(str(exc)) from exc


def _load_config(args) -> RunConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if path:
        try:
            config = RunConfig.from_json_dict(_load_json(path))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise _ParseError(f"bad config {path}: {exc}") from exc
    else:
        config = RunConfig()
    overrides = {}
    for flag, field in (
        ("search_depth", "search_depth"),
        ("oracle_depth", "oracle_depth"),
        ("exponent_cap", "exponent_cap"),
        ("budget", "budget"),
        ("word_cap", "word_cap"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    if overrides:
        try:
            config = dataclasses.replace(config, **overrides)
        except ValueError as exc:
            raise _ParseError(str(exc)) from exc
    return config


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _with_approx(obj):
    """Copy with float side values next to every "p/q" string field."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out[k] = _with_approx(v)
            if isinstance(v, str) and _RATIONAL_RE.fullmatch(v):
                out[k + "~"] = float(Fraction(v))
        return out
    if isinstance(obj, list):
        return [_with_approx(x) for x in obj]
    return obj


def _emit(obj, pretty: bool) -> None:
    if pretty:
        sys.stdout.write(json.dumps(_with_approx(obj), sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(_canonical(obj))


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_growth(args) -> int:
    gfile = _load_generators(args.generators)
    config = _load_config(args)
    if args.radius < 0:
        raise _ParseError("radius must be >= 0")
    budget_hit = False
    try:
        report = enumerate_ball(list(gfile.generators), args.radius, config.budget)
    except BudgetExceeded as exc:
        report = exc.partial
        budget_hit = True
    try:
        omega = format_rational(estimate_omega(report))
    except InsufficientData:
        omega = None
    out = {
        "schema": "growthcert.growth.v1",
        "n": gfile.n,
        "alphabet_size": report.alphabet_size,
        "ball_sizes": [[radius, count] for radius, count in report.ball_sizes],
        "omega_estimates": [
            [radius, format_rational(q)] for radius, q in report.omega_estimates
        ],
        "omega_estimate": omega,
        "poly_fit_degree": report.poly_fit_degree,
        "verdict": report.verdict,
        "exhausted": report.exhausted,
        "budget_exceeded": budget_hit,
    }
    if args.csv:
        _write_atomic(args.csv, report.csv())
    _emit(out, args.pretty)
    return EXIT_BUDGET if budget_hit else EXIT_OK


def cmd_find_pair(args) -> int:
    gfile = _load_generators(args.generators)
    config = _load_config(args)
    s = _support(gfile)
    try:
        pair = find_regular_pair(
            list(gfile.generators), config.search_depth, s, config.budget
        )
    except (BudgetExceeded, PairNotFound) as exc:
        _emit(
            {
                "schema": "growthcert.failure.v1",
                "failed_stage": "find_regular_pair",
                "reason": str(exc),
            },
            args.pretty,
        )
        return EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_PIPELINE
    # informational only: certify needs no wedge-level genericity
    wedges = {}
    for m in range(2, gfile.n // 2 + 1):
        wa, wb = wedge_power(pair.matrix_a, m), wedge_power(pair.matrix_b, m)
        wedges[str(m)] = {
            "shemesh": shemesh_no_common_eigenvector(wa, wb),
            "burnside_dim": generated_algebra_dimension(wa, wb),
        }
    out = {
        "schema": "growthcert.pair.v1",
        "word_A": str(pair.word_a),
        "word_B": str(pair.word_b),
        "disc": format_rational(pair.disc),
        "l1_grid": {f"{v}/m={m}": ok for (v, m), ok in sorted(
            pair.l1_grid.items(), key=lambda kv: (kv[0][0].sort_key, kv[0][1])
        )},
        "genericity": {
            "shemesh": pair.genericity["shemesh"],
            "burnside_dim": pair.genericity["burnside_dim"],
            "wedges": wedges,
        },
    }
    _emit(out, args.pretty)
    return EXIT_OK


def cmd_certify(args) -> int:
    gfile = _load_generators(args.generators)
    config = _load_config(args)
    s = _support(gfile)
    try:
        result = certify_generators(list(gfile.generators), config, s)
    except PipelineFailure as exc:
        if args.trace:
            trace = getattr(exc, "trace", ())
            _write_atomic(args.trace, "".join(_canonical(rec) for rec in trace))
        _emit(
            {
                "schema": "growthcert.failure.v1",
                "failed_stage": exc.stage,
                "reason": exc.detail,
            },
            args.pretty,
        )
        return EXIT_PIPELINE
    if args.out:
        _write_atomic(args.out, result.certificate.to_json())
    if args.trace:
        _write_atomic(args.trace, result.trace_jsonl())
    _emit(result.certificate.to_json_dict(), args.pretty)
    return EXIT_OK


def cmd_verify(args) -> int:
    cert_dict = _load_json(args.certificate)

    def reject(reason: str) -> int:
        _emit(
            {"schema": "growthcert.verdict.v1", "valid": False, "reason": reason},
            args.pretty,
        )
        return EXIT_VERIFY

    if not isinstance(cert_dict, dict):
        return reject("certificate file must be a JSON object")
    if cert_dict.get("schema") != "growthcert.certificate.v1":
        return reject(f"unknown certificate schema {cert_dict.get('schema')!r}")
    try:
        cert = PingPongCertificate.from_json_dict(cert_dict)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return reject(f"malformed certificate: {exc}")
    gfile = _load_generators(args.generators)
    config = _load_config(args)
    ok, reason = verify_certificate(cert, list(gfile.generators), config)
    _emit(
        {"schema": "growthcert.verdict.v1", "valid": ok, "reason": reason},
        args.pretty,
    )
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_spectrum(args) -> int:
    gfile = _load_generators(args.generators)
    try:
        word = Word.parse(args.word)
        mat = evaluate_word(word, list(gfile.generators))
    except (GrowthcertError, ValueError) as exc:
        raise _ParseError(f"bad word {args.word!r}: {exc}") from exc
    s = _support(gfile)
    report = eigen_report(mat, s)
    try:
        sep = check_separation(mat, s)
        separation = {
            "distinct_count": sep.distinct_count,
            "disc": format_rational(sep.disc),
            "product_over_S": format_rational(sep.product_over_s),
            "passes": sep.passes,
            "per_place_lower": {
                str(v): format_rational(q) for v, q in sep.per_place_lower
            },
        }
    except ZeroDiscriminant:
        separation = None
    out = {
        "schema": "growthcert.spectrum.v1",
        "word": str(word),
        "charpoly": [format_rational(c) for c in report.charpoly],
        "arch_moduli": [
            [format_rational(iv.lo), format_rational(iv.hi)]
            for iv in report.arch_moduli
        ],
        "finite_valuations": {
            str(v): [format_rational(x) for x in vals]
            for v, vals in report.finite_valuations
        },
        "separation": separation,
    }
    _emit(out, args.pretty)
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        with open(args.trace, encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        records = [json.loads(line) for line in lines]
    except OSError as exc:
        raise _ParseError(f"cannot read {args.trace}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ParseError(f"{args.trace} is not JSONL: {exc}") from exc
    bad = next((i for i, rec in enumerate(records) if not isinstance(rec, dict)), None)
    if bad is not None:
        raise _ParseError(f"{args.trace}: record {bad + 1} is not a JSON object")
    stages = [
        {"stage": rec.get("stage"), "ok": bool(rec.get("ok"))} for rec in records
    ]
    failed = next((rec["stage"] for rec in stages if not rec["ok"]), None)
    out = {
        "schema": "growthcert.tracereport.v1",
        "records": len(records),
        "stages": stages,
        "ok": failed is None,
        "failed_stage": failed,
    }
    _emit(out, args.pretty)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub) -> None:
    sub.add_argument("--config", help=f"config JSON path (default: ${CONFIG_ENV})")
    sub.add_argument("--pretty", action="store_true", help="indent and add float approximations")
    sub.add_argument("--search-depth", dest="search_depth", type=int)
    sub.add_argument("--oracle-depth", dest="oracle_depth", type=int)
    sub.add_argument("--exponent-cap", dest="exponent_cap", type=int)
    sub.add_argument("--budget", type=int)
    sub.add_argument("--word-cap", dest="word_cap", type=int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthcert",
        description="Exact growth estimates and freeness certificates for rational matrix groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", help="enumerate exact Cayley ball sizes")
    p.add_argument("generators", help="generator file (JSON)")
    p.add_argument("--radius", type=int, required=True, help="largest ball radius")
    p.add_argument("--csv", help="write the n,count table to this path")
    _add_common(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("find-pair", help="search the ball for a regular seed pair")
    p.add_argument("generators", help="generator file (JSON)")
    _add_common(p)
    p.set_defaults(func=cmd_find_pair)

    p = sub.add_parser("certify", help="run the full pipeline to a certificate")
    p.add_argument("generators", help="generator file (JSON)")
    p.add_argument("--out", help="write the certificate JSON to this path")
    p.add_argument("--trace", help="write the stage trace (JSONL) to this path")
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="recheck a certificate from scratch")
    p.add_argument("certificate", help="certificate file (JSON)")
    p.add_argument("generators", help="generator file (JSON)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="eigenvalue and separation data for one word")
    p.add_argument("generators", help="generator file (JSON)")
    p.add_argument("--word", required=True, help='word over the generators, e.g. "0 1^-1"')
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("report", help="summarize a certify trace log")
    p.add_argument("trace", help="trace file (JSONL)")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
