"""End-to-end certification: generators in, verified certificate out.

Orchestrates the regular-pair search, norm balancing, place and wedge
selection, exponent derivation, and the freeness oracle.  Every stage works
on the seed words; none replaces them by longer ones.  The stages hand on
one ConjugatedPair, in the canonical basis diagonalized_pair derives from
the certified words alone; the exponent search runs in it, and
verify_certificate rebuilds the same basis from the certificate and the
generator file to replay the cone checks.  The checks are sound in any
basis, so the basis is rational and needs no enclosure: precision only
sets how many bits a rounded one keeps, and the norm relations the stages
record are facts about it, not part of the certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction

from .cayley import find_regular_pair
from .errors import (
    BudgetExceeded,
    ExponentSearchExhausted,
    GrowthcertError,
    Inconclusive,
    PipelineFailure,
    PrecisionExhausted,
    SingularEnclosure,
)
from .exactnum import (
    SquareMatrix,
    Word,
    evaluate_word,
    format_rational,
    s_support,
    typed_field,
)
from .pingpong import (
    PingPongCertificate,
    derive_exponent,
    find_semigroup_collision,
    growth_bound_from_length,
    verify_cone_inclusions,
)
from .spectra import SpectralMemo, char_poly, l1_gap_report
from .wordforge import (
    balance_or_trace,
    diagonalized_pair,
    select_place_and_wedge,
    swap_roles,
    wedge_pair,
)

_PRECISION_ERRORS = (Inconclusive, PrecisionExhausted, SingularEnclosure)


# the bits a rounded basis keeps, doubled on each retry
BITS_SCHEDULE = (64, 128, 256)


@dataclass(frozen=True)
class RunConfig:
    """Caps for one certification or verification run.

    search_depth bounds the regular-pair search, so every certificate word
    has at most search_depth letters, and verification rejects longer ones.
    exponent_cap and oracle_depth bound the exponent search and the oracle;
    budget bounds the elements any one enumeration may store.
    """

    search_depth: int = 4
    oracle_depth: int = 12
    exponent_cap: int = 64
    budget: int = 10**6

    def __post_init__(self):
        for field in fields(self):
            if getattr(self, field.name) < 1:
                raise ValueError(f"{field.name} must be positive")

    @staticmethod
    def from_json_dict(d: dict) -> "RunConfig":
        """Strict parse: a JSON object whose settings are JSON integers.

        Absent settings keep their defaults; other keys, such as the
        retired word_cap, bits_schedule, radii, constants and epsilon, are
        ignored.
        """
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        return RunConfig(
            **{f.name: typed_field(d, f.name, int) for f in fields(RunConfig) if f.name in d}
        )


@dataclass(frozen=True)
class CertifyResult:
    """A validated certificate plus the per-stage trace that produced it."""

    certificate: PingPongCertificate
    trace: tuple[dict, ...]

    def trace_jsonl(self) -> str:
        return "".join(
            json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n" for rec in self.trace
        )


def _escalate(fn, retry=_PRECISION_ERRORS):
    """Run fn(bits) over BITS_SCHEDULE, re-raising the last failure."""
    last = None
    for bits in BITS_SCHEDULE:
        try:
            return fn(bits)
        except retry as exc:
            last = exc
    raise last


def _word_lengths(word_a: Word, word_b: Word, e: int) -> tuple[int, int]:
    """Generator lengths of A^e B and A^2e B."""
    return (
        e * len(word_a) + len(word_b),
        2 * e * len(word_a) + len(word_b),
    )


def certify_generators(
    gens: list[SquareMatrix],
    config: RunConfig | None = None,
    s=None,
) -> CertifyResult:
    """Produce an oracle-validated freeness certificate or a staged failure.

    Stage order: regular-pair search, norm balancing (with a role swap
    when only the trace route certifies), place and wedge selection,
    exponent derivation in the canonical basis of the words (the replay
    verify_certificate runs), freeness oracle.  The basis is built once
    per role and handed from stage to stage; the exponent search builds it
    again only at another sort place or precision.  One SpectralMemo serves
    every stage of the call, so each matrix's adjugate polynomial, each
    charpoly's squarefree test and each root structure at a width is
    computed once; it goes when the call returns.
    Failures raise PipelineFailure carrying the stage name, with the trace
    so far on the .trace attribute.  A certificate is returned only after
    the oracle confirms zero collisions.
    """
    config = config or RunConfig()
    if not gens:
        raise ValueError("empty generator list")
    if s is None:
        s = s_support(gens)
    trace: list[dict] = []
    memo = SpectralMemo()

    def fail(stage: str, exc: Exception):
        trace.append(
            {"stage": stage, "ok": False, "error": type(exc).__name__, "detail": str(exc)}
        )
        failure = PipelineFailure(stage, f"{type(exc).__name__}: {exc}")
        failure.trace = tuple(trace)
        raise failure from exc

    try:
        seed = find_regular_pair(gens, config.search_depth, s, config.budget, memo)
    except GrowthcertError as exc:
        fail("find_regular_pair", exc)
    trace.append(
        {
            "stage": "find_regular_pair",
            "ok": True,
            "word_A": str(seed.word_a),
            "word_B": str(seed.word_b),
            "disc": format_rational(seed.disc),
            "burnside_dim": seed.genericity["burnside_dim"],
        }
    )

    try:
        pair = _escalate(
            lambda bits: balance_or_trace(
                diagonalized_pair(
                    seed.matrix_a, seed.matrix_b, seed.word_a, seed.word_b, bits=bits, memo=memo
                ),
                s,
            )
        )
    except GrowthcertError as exc:
        fail("balance_or_trace", exc)
    trace.append(
        {
            "stage": "balance_or_trace",
            "ok": True,
            "relation": pair.norm_relation,
            "constants": [format_rational(Fraction(c)) for c in pair.constants],
            "exact_basis": pair.exact,
            "word_B": str(pair.word_b),
        }
    )

    if pair.norm_relation == "trace_big":
        try:
            pair = _escalate(lambda bits: swap_roles(pair, s, bits, memo))
        except GrowthcertError as exc:
            fail("swap_roles", exc)
        trace.append(
            {
                "stage": "swap_roles",
                "ok": True,
                "word_A": str(pair.word_a),
                "word_B": str(pair.word_b),
            }
        )

    try:
        # the seed's grid belongs to A unless the roles were swapped
        grid = seed.l1_grid
        if pair.norm_relation == "swapped":
            grid = l1_gap_report(pair.orig_a, s, char_poly(pair.orig_a, memo), memo)
        v, m = select_place_and_wedge(pair, grid)
    except GrowthcertError as exc:
        fail("select_place_and_wedge", exc)
    trace.append({"stage": "select_place_and_wedge", "ok": True, "place": str(v), "wedge_m": m})

    word_a_final, word_b_final = pair.word_a, pair.word_b
    a_mat, b_mat = pair.orig_a, pair.orig_b

    def canonical(bits: int):
        canon = pair
        if (pair.sort_place, pair.bits) != (v, bits):
            canon = diagonalized_pair(a_mat, b_mat, word_a_final, word_b_final, v, bits, memo)
        wa, wb = wedge_pair(canon, v, m)
        return derive_exponent(wa, wb, v, cap=config.exponent_cap)

    # A's basis is exact at every place exactly when pair's is, and an
    # exact basis is the same at every precision: no retry
    retry = _PRECISION_ERRORS if pair.exact else _PRECISION_ERRORS + (ExponentSearchExhausted,)
    try:
        e, r, checks = _escalate(canonical, retry=retry)
    except GrowthcertError as exc:
        fail("derive_exponent", exc)
    trace.append(
        {
            "stage": "derive_exponent",
            "ok": True,
            "exponent": e,
            "cone_param": format_rational(r),
        }
    )

    a_pow = a_mat**e
    u = a_pow * b_mat
    w = a_pow * u
    try:
        collision = find_semigroup_collision(u, w, config.oracle_depth, config.budget)
    except GrowthcertError as exc:
        fail("freeness_oracle", exc)
    if collision is not None:
        # the cone proof and the oracle disagree: refuse to emit anything
        fail(
            "freeness_oracle",
            GrowthcertError(f"collision {collision[0]!r} = {collision[1]!r}"),
        )
    trace.append({"stage": "freeness_oracle", "ok": True, "depth": config.oracle_depth})

    len_u, len_w = _word_lengths(word_a_final, word_b_final, e)
    bound = growth_bound_from_length(max(len_u, len_w))
    cert = PingPongCertificate(
        n=gens[0].n,
        word_a=word_a_final,
        word_b=word_b_final,
        place=v,
        wedge_m=m,
        exponent=e,
        cone_param=r,
        checks=checks,
        growth_bound=bound,
        oracle_depth_validated=config.oracle_depth,
    )
    trace.append(
        {
            "stage": "certificate",
            "ok": True,
            "growth_bound": format_rational(bound),
            "max_word_length": max(len_u, len_w),
        }
    )
    return CertifyResult(certificate=cert, trace=tuple(trace))


def verify_certificate(
    cert: PingPongCertificate,
    gens: list[SquareMatrix],
    config: RunConfig | None = None,
) -> tuple[bool, str]:
    """Re-derive every certified fact of a certificate from scratch.

    Checks, in order: dimension agreement, the word-length, exponent and
    oracle-depth caps, word evaluation, the growth bound recomputation
    (exact equality), the cone inclusions in the canonical basis of
    diagonalized_pair over the precision schedule, and the freeness
    oracle at the recorded depth.  Returns (False, reason) at the first
    failure and never raises on tampered input.  A cone failure names the
    last precision tried: its exception, or the checks that failed there.
    """
    config = config or RunConfig()
    if not gens:
        return False, "empty generator list"
    if cert.n != gens[0].n:
        return False, f"certificate dimension {cert.n} != generator dimension {gens[0].n}"
    if len(cert.word_a) < 1 or len(cert.word_b) < 1:
        return False, "certificate words must be nonempty"
    # certify emits only ball words of at most search_depth letters
    for name, word in (("word_A", cert.word_a), ("word_B", cert.word_b)):
        if len(word) > config.search_depth:
            return False, (
                f"{name} has {len(word)} letters, over the cap "
                f"search_depth = {config.search_depth}"
            )
    if not 1 <= cert.wedge_m < cert.n:
        return False, f"wedge degree {cert.wedge_m} out of range for n={cert.n}"
    if cert.exponent > config.exponent_cap:
        return False, f"exponent {cert.exponent} exceeds exponent_cap {config.exponent_cap}"
    depth = cert.oracle_depth_validated
    # the oracle multiplies out all 2^(depth+1) - 2 positive words; the
    # bit-length test keeps a huge tampered depth from building 2^depth
    if depth >= config.budget.bit_length() or 2 ** (depth + 1) - 2 > config.budget:
        return False, (
            f"oracle_depth_validated {depth} needs more words than budget {config.budget}"
        )
    # like the other caps: no certify run under this config validates deeper
    if depth > config.oracle_depth:
        return False, (
            f"oracle_depth_validated {depth} exceeds oracle_depth {config.oracle_depth}"
        )
    try:
        a_mat = evaluate_word(cert.word_a, gens)
        b_mat = evaluate_word(cert.word_b, gens)
    except GrowthcertError as exc:
        return False, f"word evaluation failed: {exc}"

    len_u, len_w = _word_lengths(cert.word_a, cert.word_b, cert.exponent)
    if cert.growth_bound != growth_bound_from_length(max(len_u, len_w)):
        return False, "growth bound does not match the word lengths"

    passed, reason = False, ""
    for bits in BITS_SCHEDULE:
        try:
            pair = diagonalized_pair(a_mat, b_mat, cert.word_a, cert.word_b, cert.place, bits)
            wa, wb = wedge_pair(pair, cert.place, cert.wedge_m)
            checks = verify_cone_inclusions(wa, wb, cert.exponent, cert.cone_param, cert.place)
        except (GrowthcertError, ValueError) as exc:
            reason = f"{exc} at {bits} bits"
            continue
        passed = checks.all_pass
        reason = f"{', '.join(checks.failed)} failed at {bits} bits"
        # an exact basis is the same at every precision
        if passed or pair.exact:
            break
    if not passed:
        return False, f"cone checks did not certify: {reason}"

    a_pow = a_mat**cert.exponent
    u = a_pow * b_mat
    w = a_pow * u
    try:
        collision = find_semigroup_collision(u, w, depth, config.budget)
    except BudgetExceeded as exc:
        return False, f"oracle did not finish: {exc}"
    if collision is not None:
        return False, f"oracle collision: {collision[0]!r} = {collision[1]!r}"
    return True, "ok"
