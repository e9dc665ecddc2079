#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

It checks the benchmark's own 10-adic and speed-bound helpers against the
package, that a corrupted op result is counted as failed, the oracle-pass
counts of hand-computed cases, that BENCHMARK.json names what run.py
reports, and it runs every workload once at tiny size.  Exits 1 on the
first failed check.
"""
from __future__ import annotations

import json
import sys

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
from tetrastable import cli  # noqa: E402
from tetrastable.decadic import AlphaTag, alpha_digits  # noqa: E402
from tetrastable.speed import speed_bound  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"PASS {what}")


def output(op) -> str:
    rc, out = run.run_in_process(cli, op)
    expect(rc == 0 and workloads.check(op, rc, out) is None, f"{' '.join(op)} runs and passes its check")
    return out


def corrupted(out: str, edit) -> str:
    report = json.loads(out)
    edit(report["result"])
    return json.dumps(report)


def main() -> None:
    expect(workloads.e5(6) == 890625 and workloads.t2(6) == 186432, "e5 and t2 tails")
    expect(workloads.alpha("51", 12) == 163574218751, "alpha_51 to 12 digits")
    expect(all(workloads.alpha(t, 40) == alpha_digits(AlphaTag.from_label(t), 40).value for t in workloads.ALPHA),
           "all fifteen truncations match the package at 40 digits")
    expect(all(workloads.speed_bound(a) == speed_bound(a) for a in range(2, 5000) if a % 10),
           "speed_bound matches the package on 2..5000")

    seq = ("sequence", "51", "--max-b", "6", "--json")
    alpha = ("alpha", "57", "30", "--json")
    verify = ("verify", "--range", "57..57", "--json")
    speed = ("speed", "163574218751", "--json")

    def bump_entry(r):
        r["entries"][2] += 1

    def flip_digit(r):
        d = r["digits"]
        r["digits"] = d[:10] + str((int(d[10]) + 1) % 10) + d[11:]

    def fail_verify(r):
        r["failures"].append({"a": "57", "check": "tier", "expected": "V=2", "got": "V=1"})

    def disagree(r):
        r["agreement"] = False

    for op, edit in ((seq, bump_entry), (alpha, flip_digit), (verify, fail_verify), (speed, disagree)):
        bad = workloads.check(op, 0, corrupted(output(op), edit))
        expect(bad is not None and bad[0] == "wrong", f"corrupted {op[0]} result counted as failed ({bad})")
    expect(workloads.check(alpha, 2, "") == ("error", "exit code 2"), "non-zero exit counted as failed")

    for a, height, want in ((3, 40, 1), (163574218751, 25, 4)):
        out = output(("sequence", str(a), "--max-b", str(height), "--json"))
        top = max(json.loads(out)["result"]["cumulative"])
        expect(spans.passes(top) == want, f"sequence {a} to height {height}: {top} digits, "
                                          f"{spans.final_digits(top)}-digit pass, {want} pass(es)")

    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json workloads")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS,
           "BENCHMARK.json end-to-end metrics and units")
    expect({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
           == {k: v[:2] for k, v in spans.LAYER_METRICS.items()}, "BENCHMARK.json per-layer metrics")

    for name in workloads.WORKLOADS:
        for trace in (False, True) if name in ("tall-towers", "deep-alpha") else (False,):
            result, _ = run.run(name, seed=1, seconds=1.0, trace=trace, tiny=True)
            expect(result["correct"] and result["failed"] == 0 and set(result["metrics"]) == set(
                spans.LAYER_METRICS if trace else run.END_TO_END_UNITS),
                f"tiny {name} trace={int(trace)}: {result['attempted']} ops, {result['failed']} failed")
    # no workload goes past the int<->str limit; an op that does is an error, not a wrong answer
    op = ("speed", "7" * (workloads.STR_DIGITS_LIMIT + 100), "--json")
    outcome = workloads.check(op, *run.run_cold(op, run.child_env(), False)[:2])
    expect(outcome is None or outcome[0] == "error",
           f"speed on {len(op[1])} digits, past the {workloads.STR_DIGITS_LIMIT}-digit limit: {outcome or 'ok'}")

if __name__ == "__main__":
    main()
