#!/usr/bin/env python3
"""Record the benchmark corpus and its answers from the current code.

    python3 bench/gen_data.py [--seed-offset 0] [--out bench/data/corpus.json]

Draws the corpus (corpus.FAMILIES plus Sanov and Heisenberg), runs
`certify` and `growth` on each input, and stores the generators, the exit
code, the certificate or refusal stage and the ball sizes.  It then makes
the verify tampers: one single-field tamper per certificate, cycling
exponent+1, cone_param*2^1000 and word_B="7", plus a hostile exponent of
10^4 on the Sanov certificate.  Before writing, it checks that every
certificate verifies and every tamper is rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import run
from corpus import GROWTH_RADIUS, base_corpus, format_fraction, to_strings


def tampers(inputs):
    out = []
    certified = [item for item in inputs if item["certify"]["exit"] == 0]
    for idx, item in enumerate(certified):
        cert = dict(item["certify"]["certificate"])
        kind = ("exponent", "cone_param", "word_B")[idx % 3]
        if kind == "exponent":
            cert["exponent"] += 1
        elif kind == "cone_param":
            cert["cone_param"] = format_fraction(Fraction(cert["cone_param"]) * 2**1000)
        else:
            cert["word_B"] = "7"
        out.append({"id": f"tamper/{item['id']}/{kind}", "of": item["id"], "certificate": cert})
    sanov = next(item for item in inputs if item["id"] == "sanov")
    cert = dict(sanov["certify"]["certificate"], exponent=10**4)
    out.append({"id": "tamper/sanov/exponent_10^4", "of": "sanov", "certificate": cert})
    return out


def record(cli, workdir, seed_offset):
    inputs = []
    for input_id, family, why, grids in base_corpus(seed_offset):
        gens = [to_strings(g) for g in grids]
        path = os.path.join(workdir, "gens.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": len(grids[0]), "generators": gens}, fh)
        code, out, tb = run.call_cli(cli, ["certify", path])
        if tb is not None:
            raise SystemExit(f"certify {input_id} crashed:\n{tb}")
        doc = json.loads(out)
        certify = {"exit": code}
        if code == 0:
            certify["certificate"] = doc
        else:
            certify["failed_stage"] = doc["failed_stage"]
        radius = GROWTH_RADIUS[family]
        code, out, tb = run.call_cli(cli, ["growth", path, "--radius", str(radius)])
        if tb is not None or code != 0:
            raise SystemExit(f"growth {input_id} failed: exit {code}\n{tb}")
        inputs.append(
            {
                "id": input_id,
                "family": family,
                "why": why,
                "n": len(grids[0]),
                "generators": gens,
                "certify": certify,
                "growth": {"radius": radius, "ball_sizes": json.loads(out)["ball_sizes"]},
            }
        )
        print(input_id, certify.get("failed_stage", "certified"), file=sys.stderr)
    return inputs


def check_verify(cli, data, workdir):
    """Every certificate verifies and every tamper is rejected."""
    by_id = {item["id"]: item for item in data["inputs"]}
    cases = [(item["id"], item["certify"]["certificate"], 0) for item in data["inputs"] if item["certify"]["exit"] == 0]
    cases += [(t["of"], t["certificate"], 5) for t in data["tampers"]]
    for of, cert, want in cases:
        item = by_id[of]
        cert_path = os.path.join(workdir, "cert.json")
        with open(cert_path, "w", encoding="utf-8") as fh:
            json.dump(cert, fh)
        gens_path = os.path.join(workdir, "gens.json")
        with open(gens_path, "w", encoding="utf-8") as fh:
            json.dump({"n": item["n"], "generators": item["generators"]}, fh)
        code, _, tb = run.call_cli(cli, ["verify", cert_path, gens_path])
        if code != want:
            raise SystemExit(f"verify of {of} gave exit {code}, expected {want}\n{tb or ''}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record the benchmark corpus")
    parser.add_argument("--seed-offset", type=int, default=0, help="shift every family's draw seed")
    parser.add_argument("--out", default=run.DATA)
    args = parser.parse_args(argv)
    run.pin_environment()
    sys.path.insert(0, run.SRC)
    cli = run.import_cli()
    workdir = os.path.join(run.WORK, "gen_data")
    os.makedirs(workdir, exist_ok=True)
    inputs = record(cli, workdir, args.seed_offset)
    data = {
        "schema": "growthcert-bench.corpus.v1",
        "seed_offset": args.seed_offset,
        "provenance": run.provenance(),
        "inputs": inputs,
        "tampers": tampers(inputs),
    }
    check_verify(cli, data, workdir)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
