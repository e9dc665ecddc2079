"""Spans around the package's public functions, and the per-layer metrics.

Spans come only from wrappers this module installs around each layer's
public functions; nothing inside src/ is traced.  Every call into a wrapped
function records one span: its op id, its parent (the innermost open span,
the op's cli.main span at the top), layer, function, start, end and, for the
oracle and decadic, the sizes it worked at.  Spans stay in memory until the
run writes them out.

Run as a script, this module executes one CLI command in its fresh
interpreter with tracing on, and prints the exit code, the command's output
and the spans as one JSON object:

    python3 bench/spans.py alpha 51 1200 --json
"""
from __future__ import annotations

import functools
import importlib
import io
import json
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# the public functions the ops reach, per layer; arith is reached only through
# private helpers, so arith.tower_s is measured by replaying the oracle's final
# pass through tetration_mod_pow10 (see arith_replay)
LAYERS = {
    "cli": ("main",),
    "oracle": ("speed_sequence", "stable_digit_count", "certified_sequence",
               "measure_stabilization", "measured_speed"),
    "speed": ("speed_exact", "speed_mod100", "speed_mod20", "speed_bound", "classify_tier"),
    "stability": ("stabilization_bound", "stable_exact", "stable_bounds"),
    "decadic": ("alpha_digits", "alpha_value", "alpha_digit_at", "idempotent_e5",
                "two_tower_t2", "key_digit"),
}

# per-layer metric -> (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "arith.tower_s": ("s", "lower", "ops_per_s and latency_p90_ms on scan-small; flat on scan-long"),
    "arith.tower_calls": ("count", "lower", "ops_per_s and latency_p90_ms on scan-small; flat on scan-long"),
    "oracle.sequence_s": ("s", "lower", "latency_p50_ms and latency_p90_ms on tall-towers"),
    "oracle.passes": ("count", "lower", "latency_p90_ms on tall-towers; 1 pass on scan-long"),
    "oracle.useful_pass_ratio": ("1", "higher", "latency_p90_ms on tall-towers"),
    "oracle.final_digits": ("digits", "lower", "latency_p90_ms on tall-towers"),
    "oracle.digits_certified": ("digits", "higher", "latency_p90_ms on tall-towers (a fixed property of the inputs)"),
    "decadic.alpha_s": ("s", "lower", "latency_p50_ms and latency_p90_ms on deep-alpha"),
    "decadic.depth_digits": ("digits", "higher", "latency_p50_ms and latency_p90_ms on deep-alpha"),
    "decadic.key_digit_s": ("s", "lower", "ops_per_s on scan-long"),
    "speed.closed_forms_s": ("s", "lower", "ops_per_s on scan-long"),
    "speed.calls": ("count", "lower", "ops_per_s on scan-long"),
    "stability.checks_s": ("s", "lower", "ops_per_s on scan-long"),
    "stability.calls": ("count", "lower", "ops_per_s on scan-long"),
    "cli.self_s": ("s", "lower", "ops_per_s on scan-long; setup_s everywhere"),
    "cli.shard_efficiency_2w": ("1", "higher", "verify --workers 2 wall time over scan-small bases"),
    "trace.overhead_ratio": ("1", "higher", "a check on the tracing, not a target"),
}

START_DIGITS = 64  # the oracle's first precision; it doubles from there


def final_digits(max_count: int) -> int:
    """The precision the oracle certified at: the least 64*2^k above every count."""
    n = START_DIGITS
    while n <= max_count:
        n *= 2
    return n


def passes(max_count: int) -> int:
    return final_digits(max_count).bit_length() - START_DIGITS.bit_length() + 1


class Tracer:
    """Wraps the layers' public functions and keeps one span per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [op, parent, layer, name, t0, t1, info]
        self.op: int | None = None
        self._stack: list[int] = []
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"tetrastable.{layer}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        # every module namespace that bound a wrapped function under any name
        self._targets = []
        for modname, module in list(sys.modules.items()):
            if modname == "tetrastable" or modname.startswith("tetrastable."):
                for attr, value in vars(module).items():
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._targets.append((module, attr, value, hit[1]))

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [self.op, stack[-1] if stack else None, layer, name, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if name == "speed_sequence":
                span[6] = {"a": args[0], "max_b": args[1], "max_count": max(result.frozen_prefix)}
            elif layer == "decadic" and name != "key_digit":  # key_digit's depths show in its alpha calls
                span[6] = {"depth": args[0] if name in ("idempotent_e5", "two_tower_t2") else args[1]}
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._targets:
            setattr(module, attr, original)


def oracle_calls(spans: list[list]) -> list[dict]:
    return [s[6] for s in spans if s[3] == "speed_sequence"]


def arith_replay(tetration_mod_pow10, calls: list[dict]) -> tuple[float, int]:
    """Seconds and calls to redo each oracle run's final pass through the public
    tetration_mod_pow10, at heights 1..H+1 and the certified precision."""
    seconds, count = 0.0, 0
    for call in calls:
        n = final_digits(call["max_count"])
        memo: dict = {}
        t0 = time.perf_counter()
        for b in range(1, call["max_b"] + 2):
            tetration_mod_pow10(call["a"], b, n, memo)
        seconds += time.perf_counter() - t0
        count += call["max_b"] + 1
    return seconds, count


def layer_metrics(spans: list[list], n_ops: int, arith_s: float, arith_calls: int) -> dict[str, float]:
    """Per-op means over n_ops traced ops.

    A span's self time is its duration minus that of its children.  Each self
    time is charged to the span that entered the layer (its nearest ancestor,
    or itself, whose parent lies in another layer), so decadic work done for a
    key-digit lookup counts as key_digit time.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] is not None:
            child[s[1]] += s[5] - s[4]
    entry = list(range(len(spans)))
    for i, s in enumerate(spans):  # a parent always precedes its children
        if s[1] is not None and spans[s[1]][2] == s[2]:
            entry[i] = entry[s[1]]
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        layer, name = spans[entry[i]][2], spans[entry[i]][3]
        key = ("decadic.key_digit" if name == "key_digit" else "decadic.alpha") if layer == "decadic" else layer
        seconds[key] += (s[5] - s[4]) - child[i]
        calls[s[2]] += 1

    runs = oracle_calls(spans)
    depth_by_op: dict = defaultdict(int)
    for s in spans:
        if s[2] == "decadic" and s[6] is not None:
            depth_by_op[s[0]] = max(depth_by_op[s[0]], s[6]["depth"])

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    per_op = 1.0 / max(n_ops, 1)
    return {
        "arith.tower_s": arith_s * per_op,
        "arith.tower_calls": arith_calls * per_op,
        "oracle.sequence_s": seconds["oracle"] * per_op,
        "oracle.passes": mean(passes(r["max_count"]) for r in runs),
        "oracle.useful_pass_ratio": mean(1 / passes(r["max_count"]) for r in runs),
        "oracle.final_digits": mean(final_digits(r["max_count"]) for r in runs),
        "oracle.digits_certified": mean(r["max_count"] for r in runs),
        "decadic.alpha_s": seconds["decadic.alpha"] * per_op,
        "decadic.depth_digits": mean(depth_by_op.values()),
        "decadic.key_digit_s": seconds["decadic.key_digit"] * per_op,
        "speed.closed_forms_s": seconds["speed"] * per_op,
        "speed.calls": calls["speed"] * per_op,
        "stability.checks_s": seconds["stability"] * per_op,
        "stability.calls": calls["stability"] * per_op,
        "cli.self_s": seconds["cli"] * per_op,
    }


def _json_safe(spans: list[list]) -> list[list]:
    """Spans with big ints as strings, for writing out."""
    safe = []
    for s in spans:
        info = s[6]
        if info is not None and "a" in info:
            info = dict(info, a=str(info["a"]))
        safe.append(s[:6] + [info])
    return safe


def write_spans(path: Path, spans: list[list]) -> None:
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        for s in _json_safe(spans):
            fh.write(json.dumps(s) + "\n")


def _run_traced_command(argv: list[str]) -> dict:
    from tetrastable import cli

    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported to the parent as a failed op
        rc = 70
    finally:
        tracer.uninstall()
    return {"rc": rc, "stdout": out.getvalue(), "spans": _json_safe(tracer.spans)}


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps(_run_traced_command(sys.argv[1:])))
