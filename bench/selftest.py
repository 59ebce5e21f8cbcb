#!/usr/bin/env python3
"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload untraced and traced on the first input of each family
and checks that each run emits exactly the metrics BENCHMARK.json names,
with their units, and is correct.  Traced runs must count 8190 oracle
products per oracle call, and their top-level spans must cover the traced
call time.  It then plants a wrong expected ball size and checks that the
answer check reports the call as failed.  Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import run


def small_corpus(data):
    first = {}
    for item in data["inputs"]:
        first.setdefault(item["family"], item)
    keep = set(item["id"] for item in first.values())
    return dict(
        data,
        inputs=[item for item in data["inputs"] if item["id"] in keep],
        tampers=[t for t in data["tampers"] if t["of"] in keep],
    )


def trace_problems(workload, metrics):
    value = {k: v["value"] for k, v in metrics.items()}
    out = []
    # each depth-12 oracle call multiplies 2 + 4 + ... + 2^12 = 8190 times
    if value["pingpong.oracle.products"] != 8190 * value["pingpong.oracle.calls"]:
        out.append(f"{workload}: oracle products are not 8190 per oracle call")
    if not 0.99 <= value["trace.coverage"] <= 1:
        out.append(f"{workload}: top-level spans cover {value['trace.coverage']:.3f} of traced time")
    return out


def main() -> int:
    run.pin_environment()
    sys.path.insert(0, run.SRC)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    data = small_corpus(run.load_data())
    out_dir = os.path.join(run.OUT, "selftest")
    problems = []
    for workload in run.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run.run_workload(workload, 0, 0, trace, data=data, out_dir=out_dir)
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: failures {result['failures']}")
            if trace:
                problems += trace_problems(workload, result["metrics"])
            print(f"{workload} trace={trace}: {result['attempted']} calls, {result['failed']} failed")

    planted = copy.deepcopy(data)
    planted["inputs"][0]["growth"]["ball_sizes"][-1][1] += 1
    result = run.run_workload("growth_balls", 0, 0, 0, data=planted, out_dir=out_dir)
    if result["correct"] or result["failed"] / result["attempted"] <= 0:
        problems.append("a planted wrong ball size was not reported as a failed call")
    print(f"planted wrong ball size: {result['failed']}/{result['attempted']} calls failed")

    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
