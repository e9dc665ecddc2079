"""Command-line front end and bulk verification harness.

Every subcommand returns its inputs, its result and its text lines; main
alone builds the report from them and prints the text lines by default, or
the report as deterministic JSON with --json (stable key order, each base
turned into a string once, in the inputs, so arbitrary-precision inputs
survive the round trip and the text lines reuse that string).

Exit codes: 0 ok, 1 verification failure or violated invariant, 2
usage/parse error or an unwritable --out path, 3 budget exhausted.

Only arith and decadic are imported here; each command imports the other
layers it runs, so a cold alpha call loads neither the oracle nor stability.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .arith import DEFAULT_BUDGET, InvariantError, NeedsLargerBudget, _no_str_digits_limit
from .decadic import AlphaTag, alpha_digits

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _nonneg_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return value


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _range_arg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like LO..HI")
    lo_v, hi_v = _nonneg_int(lo), _nonneg_int(hi)
    if hi_v < lo_v:
        raise argparse.ArgumentTypeError("empty range")
    return lo_v, hi_v


def _tag(text: str) -> AlphaTag:
    try:
        return AlphaTag.from_label(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def cmd_speed(args) -> tuple[dict, dict, list[str]]:
    from . import speed

    a = args.a
    inputs = {"a": str(a)}
    exact = speed.speed_exact(a)
    by100 = speed.speed_mod100(a)
    by20 = speed.speed_mod20(a)
    agreement = exact.speed == by100.speed == by20.speed
    bound = None
    if a >= 2 and a % 10 != 0:
        bound = speed.speed_bound(a)
    result = {
        "speed": exact.speed,
        "rule": exact.rule,
        "speed_bound": bound,
        "mod100_map": by100.speed,
        "mod20_map": by20.speed,
        "agreement": agreement,
    }
    shown = "undefined" if exact.speed is None else str(exact.speed)
    lines = [
        f"V({inputs['a']}) = {shown}",
        f"rule: {exact.rule}",
        f"speed bound: {'-' if bound is None else bound}",
        f"cross-checks: mod-100 map = {by100.speed}, mod-20 map = {by20.speed}"
        f" ({'agree' if agreement else 'DISAGREE'})",
    ]
    return inputs, result, lines


def cmd_sequence(args) -> tuple[dict, dict, list[str]]:
    from . import oracle

    seq = oracle.speed_sequence(args.a, args.max_b, args.budget)
    result = {
        "entries": seq.entries,
        "cumulative": seq.frozen_prefix,
        "stabilized_at": seq.stabilized_at,
        "speed": seq.speed,
    }
    inputs = {"a": str(args.a), "max_b": args.max_b, "budget": args.budget}
    lines = [
        f"V({inputs['a']}, b) for b = 1..{args.max_b}: {seq.entries}",
        f"cumulative stable digits: {seq.frozen_prefix}",
        f"stabilized at: {seq.stabilized_at if seq.stabilized_at is not None else 'not certified in this window'}",
    ]
    return inputs, result, lines


def cmd_stable(args) -> tuple[dict, dict, list[str]]:
    from . import stability

    count = stability.stable_count(args.a, args.b)
    result = {
        "kind": count.kind,
        "value": count.value,
        "lower": count.lower,
        "upper": count.upper,
        "formula": count.formula_id,
    }
    inputs = {"a": str(args.a), "b": args.b}
    lines = [f"stable digits of the height-{args.b} tower of {inputs['a']}: {count.value}", f"formula: {count.formula_id}"]
    return inputs, result, lines


def cmd_ratio(args) -> tuple[dict, dict, list[str]]:
    from . import stability

    ratio = stability.stable_ratio(args.a, args.b)
    result = {"numerator": ratio.numerator, "denominator": ratio.denominator, "ratio": float(ratio)}
    lines = [f"stable digit ratio at height {args.b}: {ratio} ({float(ratio):.6f})"]
    return {"a": str(args.a), "b": args.b}, result, lines


def cmd_min_height(args) -> tuple[dict, dict, list[str]]:
    from . import stability

    plan = stability.min_height(args.a, args.target)
    lines = [f"least height with >= {args.target} stable digits: {plan.height}"]
    return {"a": str(args.a), "target": args.target}, {"target": plan.target, "height": plan.height}, lines


def cmd_classify(args) -> tuple[dict, dict, list[str]]:
    from . import speed

    inputs = {"a": str(args.a)}
    tier = speed.classify_tier(args.a)
    return inputs, {"tier": tier.value}, [f"tier of {inputs['a']}: {tier.value}"]


def cmd_alpha(args) -> tuple[dict, dict, list[str]]:
    digits = alpha_digits(args.tag, args.n).digits
    return {"tag": args.tag.label, "n": args.n}, {"digits": digits}, [digits]


def _verify_base(a: int, max_b: int, budget: int) -> tuple[int, list[dict]]:
    """Run every cross-check for one base; returns (checks run, failures)."""
    from . import oracle, speed, stability

    failures: list[dict] = []
    checks = 0

    def check(name: str, ok: bool, expected, got) -> None:
        nonlocal checks
        checks += 1
        if not ok:
            failures.append({"a": str(a), "check": name, "expected": str(expected), "got": str(got)})

    seq = oracle.speed_sequence(a, max(oracle._certified_height(a) + 1, max_b), budget)
    measured = seq.speed
    for name, row in (("exact", speed.speed_exact(a)), ("mod-100 map", speed.speed_mod100(a)),
                      ("mod-20 map", speed.speed_mod20(a))):
        check(f"speed: {name} vs oracle", row.speed == measured, measured, f"{row.speed} ({row.rule})")
    check("tier", speed.classify_tier(a) == speed.tier_of(measured), speed.tier_of(measured), speed.classify_tier(a))
    if a >= 2:
        bound = stability.stabilization_bound(a)
        ok = seq.stabilized_at is not None and seq.stabilized_at <= bound
        check("stabilization height bound", ok, f"<= {bound}", seq.stabilized_at)
        for b in range(2, max_b + 1):
            measured_count = seq.frozen_prefix[b - 1]
            if a % 10 in (2, 4, 5, 6, 8):
                formula = stability.stable_exact(a, b)
                check(f"exact count at b={b}", formula.value == measured_count, measured_count, formula.value)
            else:
                bounds = stability.stable_bounds(a, b)
                ok = bounds.lower <= measured_count <= bounds.upper
                check(f"count bounds at b={b}", ok, f"[{bounds.lower}, {bounds.upper}]", measured_count)
                limit = None if measured is None else measured + 1
                width_ok = limit is not None and bounds.upper - bounds.lower <= limit
                check(f"bound width at b={b}", width_ok, f"<= V+1 = {limit}", bounds.upper - bounds.lower)
    return checks, failures


def _verify_chunk(chunk: tuple[int, int, int, int]) -> tuple[int, int, list[dict]]:
    lo, hi, max_b, budget = chunk
    bases = 0
    checks = 0
    failures: list[dict] = []
    for a in range(lo, hi + 1):
        if a % 10 == 0:
            continue
        bases += 1
        c, f = _verify_base(a, max_b, budget)
        checks += c
        failures.extend(f)
    return bases, checks, failures


def cmd_verify(args) -> tuple[dict, dict, list[str]]:
    lo, hi = args.range
    workers = min(args.workers, os.cpu_count() or 1)  # the report is the same for any count
    chunk_size = max(64, (hi - lo + 1) // (8 * workers) + 1)
    chunks = [(start, min(start + chunk_size - 1, hi), args.max_b, args.budget)
              for start in range(lo, hi + 1, chunk_size)]
    workers = min(workers, len(chunks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_chunk, chunks))
    else:
        results = [_verify_chunk(c) for c in chunks]
    bases = sum(r[0] for r in results)
    checks = sum(r[1] for r in results)
    failures = [f for r in results for f in r[2]]
    failures.sort(key=lambda f: (int(f["a"]), f["check"]))
    inputs = {"range": f"{lo}..{hi}", "max_b": args.max_b, "budget": args.budget}
    lines = [f"verified {bases} bases in {inputs['range']} ({checks} checks): {len(failures)} failure(s)"]
    for f in failures[:20]:
        lines.append(f"  a={f['a']}: {f['check']}: expected {f['expected']}, got {f['got']}")
    return inputs, {"bases_checked": bases, "checks": checks, "failures": failures}, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetrastable",
        description="Constant congruence speed and stable trailing digits of integer tetrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, budget: bool):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--out", metavar="PATH", help="also write the JSON report to PATH")
        if budget:  # only the commands that run the oracle
            p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                           help="largest precision, in digits, the oracle may double up to "
                                "(it bounds digits, not time)")

    p = sub.add_parser("speed", help="constant congruence speed of a base")
    p.add_argument("a", type=_nonneg_int)
    add_common(p, budget=False)
    p.set_defaults(func=cmd_speed)

    p = sub.add_parser("sequence", help="measured V(a,b) for b = 1..max_b")
    p.add_argument("a", type=_nonneg_int)
    p.add_argument("--max-b", type=_positive_int, default=8)
    add_common(p, budget=True)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("stable", help="stable digits of the height-b tower")
    p.add_argument("a", type=_nonneg_int)
    p.add_argument("b", type=_positive_int)
    add_common(p, budget=False)
    p.set_defaults(func=cmd_stable)

    p = sub.add_parser("ratio", help="stable digits as a fraction of the tower's length")
    p.add_argument("a", type=_nonneg_int)
    p.add_argument("b", type=_positive_int)
    add_common(p, budget=False)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("min-height", help="least height reaching a target stable-digit count")
    p.add_argument("a", type=_nonneg_int)
    p.add_argument("target", type=_nonneg_int)
    add_common(p, budget=False)
    p.set_defaults(func=cmd_min_height)

    p = sub.add_parser("classify", help="tier of the constant congruence speed")
    p.add_argument("a", type=_positive_int)
    add_common(p, budget=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("alpha", help="trailing digits of a 10-adic solution of y^5 = y")
    p.add_argument("tag", type=_tag, help="two-digit tag, e.g. 51 or 07")
    p.add_argument("n", type=_positive_int)
    add_common(p, budget=False)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("verify", help="scan a range: closed forms vs the tower oracle")
    p.add_argument("--range", type=_range_arg, required=True, metavar="LO..HI")
    p.add_argument("--max-b", type=_positive_int, default=6)
    p.add_argument("--workers", type=_positive_int, default=1)
    add_common(p, budget=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # bases and digit strings of any length: lift the int<->str limit for this call only
    with _no_str_digits_limit():
        try:
            args = parser.parse_args(argv)
            inputs, result, lines = args.func(args)
            failed = bool(result.get("failures"))  # only verify's result has a failures list
            status = "failed" if failed else "ok"
            report = {"command": args.command, "inputs": inputs, "result": result, "status": status}
            print(json.dumps(report, sort_keys=True) if args.json else "\n".join(lines))
            if args.out:
                try:
                    with open(args.out, "w") as fh:
                        json.dump(report, fh, sort_keys=True, indent=2)
                        fh.write("\n")
                except OSError as exc:
                    raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
            return EXIT_VERIFY_FAILED if failed else EXIT_OK
        except InvariantError as exc:
            print(f"error: invariant violated: {exc}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
        except NeedsLargerBudget as exc:
            print(f"error: needs-larger-budget: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except ValueError as exc:  # TowerNotRepresentable among them
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
