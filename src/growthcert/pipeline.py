"""End-to-end certification: generators in, verified certificate out.

certify_generators searches verify_certificate's own replay (the canonical
basis diagonalized_pair derives from the words alone, wedge_pair's
compounds in it, the cone checks) over the seed's two role orders and the
places and wedge degrees of each role's gap grid; the oracle then runs on
the shortest certified word.  Every candidate is the seed words, never a
longer word.  The checks are sound in any basis, so the basis is rational
and needs no enclosure, and its precision is wordforge's function of A,
not a search dimension.  Eskin-Mozes-Oh's uniform word-length bounds need
norm balancing, a role swap and a place choice (wordforge's library
stages); a certificate for one generating set does not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .cayley import find_regular_pair
from .errors import (
    BudgetExceeded,
    ExponentSearchExhausted,
    GrowthcertError,
    Inconclusive,
    PipelineFailure,
)
from .exactnum import (
    ARCH,
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
from .spectra import SpectralMemo, char_poly, gap_cells, l1_gap_report
from .wordforge import diagonalized_pair, wedge_pair


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

    After the regular-pair search, candidates (role, place v, wedge
    degree m) are tested exactly as verify_certificate tests a certificate.
    Role 1 is the seed (A, B) with the seed's gap grid; role 2 is (B, A)
    when B's charpoly is squarefree, its grid computed only once role 2
    could still give a shorter word.  Cells go in spectra.gap_cells'
    order, role 1 first, and each is tried once; one basis per (role,
    place) serves every m.  The winner has the least length
    2e|word_A| + |word_B|, ties to the earlier candidate, since each later
    one searches only exponents that give a shorter word; the oracle runs
    once, on it.  One SpectralMemo serves the whole call, so each matrix's
    adjugate polynomial, each charpoly's squarefree test and each root
    structure at a width is computed once; it goes when the call returns.
    Failures raise PipelineFailure carrying the stage name, with the trace
    so far on the .trace attribute; when no candidate certifies, the stage
    is derive_exponent and the error the last candidate's, else the first
    role's whose basis failed.  A certificate is returned only after the
    oracle confirms zero collisions.
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
            # the pair generates the full matrix algebra
            "burnside_dim": gens[0].n ** 2,
        }
    )

    roles = [
        (seed.matrix_a, seed.matrix_b, seed.word_a, seed.word_b),
        (seed.matrix_b, seed.matrix_a, seed.word_b, seed.word_a),
    ]
    grids = {0: seed.l1_grid}
    pairs = {}
    best, attempts, last, basis_error = None, 0, None, None

    def pair_at(k: int, v):
        if (k, v) not in pairs:
            pairs[k, v] = diagonalized_pair(*roles[k], v, memo)
        return pairs[k, v]

    for k, (a_mat, _, word_a, word_b) in enumerate(roles):
        # the largest exponent whose word is shorter than the best so far
        cap = config.exponent_cap
        if best is not None:
            cap = min(cap, (best[0] - len(word_b) - 1) // (2 * len(word_a)))
        if cap < 1:
            continue
        if k not in grids:
            # a repeated eigenvalue leaves no eigenbasis to search in
            f = char_poly(a_mat, memo)
            try:
                grids[k] = l1_gap_report(a_mat, s, f, memo) if memo.squarefree(f) else {}
            except Inconclusive:
                grids[k] = {}
        if not any(grids[k].values()):
            continue
        try:
            arch = pair_at(k, ARCH)
        except GrowthcertError as exc:
            basis_error = basis_error or exc
            continue
        for v, m in gap_cells(grids[k], arch.a_diag, arch.exact):
            if cap < 1:
                break
            attempts += 1
            try:
                pair = pair_at(k, v)
                e, r, checks = derive_exponent(*wedge_pair(pair, v, m), v, cap=cap)
            except GrowthcertError as exc:
                last = exc
                continue
            best = (2 * e * len(word_a) + len(word_b), k, v, m, pair.bits, e, r, checks)
            cap = e - 1
    if best is None:
        none = ExponentSearchExhausted("no certified gap at a place the basis reads")
        fail("derive_exponent", last or basis_error or none)
    _, k, v, m, bits, e, r, checks = best
    a_mat, b_mat, word_a_final, word_b_final = roles[k]
    trace.append(
        {
            "stage": "derive_exponent",
            "ok": True,
            "word_A": str(word_a_final),
            "word_B": str(word_b_final),
            "place": str(v),
            "wedge_m": m,
            "bits": bits,
            "candidates": attempts,
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
    diagonalized_pair, and the freeness oracle at the recorded depth.
    Returns (False, reason) at the first failure and never raises on
    tampered input.  A cone failure names the precision of the basis
    replayed: its exception, or the checks that failed there.
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

    try:
        pair = diagonalized_pair(a_mat, b_mat, cert.word_a, cert.word_b, cert.place)
    except (GrowthcertError, ValueError) as exc:
        # a rounded basis singular at every precision names the last one
        return False, f"cone checks did not certify: {exc}"
    try:
        wa, wb = wedge_pair(pair, cert.place, cert.wedge_m)
        checks = verify_cone_inclusions(wa, wb, cert.exponent, cert.cone_param, cert.place)
        passed, reason = checks.all_pass, f"{', '.join(checks.failed)} failed"
    except (GrowthcertError, ValueError) as exc:
        passed, reason = False, str(exc)
    if not passed:
        return False, f"cone checks did not certify: {reason} at {pair.bits} bits"

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
