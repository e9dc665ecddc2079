#!/usr/bin/env python3
"""Benchmark for tetrastable: one workload, one seed, one time-boxed run.

    python3 bench/run.py --workload scan-small --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from src/.  It
runs the workload's seeded ops as a closed loop (one client, one op in
flight) for the given seconds, checks every op's output, and prints the
metrics by name with their units.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each op of the
same stream twice, untraced and then traced (see spans.py), and reports the
per-layer metrics, writing the spans to .bench_out/.  bench/README.md
describes the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 15
# keeps a run with one hung cold op, or a hung set-up, inside 180 s
OP_TIMEOUT_S = 100
SETUP_TIMEOUT_S = 10
# a seed kept out of every run made while building the benchmark, for confirming claims
HELD_OUT_SEED = 7219
DEFAULT_INT_MAX_STR_DIGITS = sys.get_int_max_str_digits()

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import mpmath, tetrastable
from tetrastable.cli import build_parser
build_parser()
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ratio": "1",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Record:
    op: tuple[str, ...]
    seconds: float
    outcome: tuple[str, str] | None  # None, or (kind, detail) from workloads.check
    traced_seconds: float | None = None  # the same op run again with tracing on


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "int_max_str_digits": DEFAULT_INT_MAX_STR_DIGITS,
        "git_commit": git_commit(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "setup_repeats": SETUP_REPEATS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_sample(env: dict) -> float:
    """Time for a fresh interpreter to import the package and build the parser."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                          text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"importing tetrastable failed:\n{proc.stderr}")
    return float(proc.stdout)


def run_in_process(cli, op) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(op))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an op that raises is a failed op, not a crashed run
        return 70, ""
    return rc, out.getvalue()


def run_cold(op, env: dict, traced: bool) -> tuple[int, str, list]:
    """One CLI call in a fresh interpreter; with traced, also its spans."""
    cmd = [sys.executable, str(BENCH / "spans.py")] if traced else [sys.executable, "-m", "tetrastable.cli"]
    try:
        proc = subprocess.run(cmd + list(op), env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -9, "", []
    if not traced:
        return proc.returncode, proc.stdout, []
    try:
        payload = json.loads(proc.stdout)
    except ValueError:
        return proc.returncode or 70, "", []
    return payload["rc"], payload["stdout"], payload["spans"]


def closed_loop(stream, seconds: float, do_op, setup=None) -> tuple[list[Record], float, list[float]]:
    """Run ops one at a time for `seconds` of op time; the last op finishes.

    With `setup`, also take SETUP_REPEATS set-up samples spread evenly over
    the run, between ops and outside its op time, so that their median sees
    the machine as the ops do.  Returns the records, the op time and the samples.
    """
    records: list[Record] = []
    samples: list[float] = []
    paused = 0.0
    start = time.perf_counter()
    while True:
        ran = time.perf_counter() - start - paused
        if setup and len(samples) < SETUP_REPEATS and ran >= len(samples) * seconds / SETUP_REPEATS:
            t0 = time.perf_counter()
            samples.append(setup())
            paused += time.perf_counter() - t0
        elif ran < seconds:
            records.append(do_op(len(records), next(stream)))
        else:
            break
    return records, time.perf_counter() - start - paused, samples


def nearest_rank(sorted_values: list[float], percentile: float) -> tuple[float, int]:
    """The nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the lines to print before it."""
    if not (SRC / "tetrastable" / "__init__.py").is_file():
        raise BenchError(f"no tetrastable package under {SRC}; run from the root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        from tetrastable import arith, cli
    except ImportError as exc:
        raise BenchError(f"cannot import tetrastable: {exc}")
    workload = workloads.WORKLOADS[name]
    env = child_env()
    lines = [f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}",
             "env " + json.dumps(environment(seed), sort_keys=True)]
    setup_sample(env)  # checks the import, and leaves compiled modules for the timed samples
    stream = workloads.ops(workload, seed, tiny)
    tracer = spans.Tracer() if trace else None
    replay = [0.0, 0]  # arith seconds and calls over the traced ops

    def execute(op, op_id: int | None) -> tuple[float, tuple[str, str] | None]:
        """Run one op, traced under op_id unless it is None; its seconds and outcome."""
        traced = op_id is not None
        first = len(tracer.spans) if traced else 0
        if workload.cold:
            t0 = time.perf_counter()
            rc, out, child_spans = run_cold(op, env, traced)
            elapsed = time.perf_counter() - t0
            for span in child_spans:  # renumbered into this process's span list
                span[0], span[1] = op_id, None if span[1] is None else span[1] + first
                if span[6] is not None and "a" in span[6]:
                    span[6]["a"] = int(span[6]["a"])
            if traced:
                tracer.spans.extend(child_spans)
        else:
            if traced:
                tracer.op = op_id
                tracer.install()
            t0 = time.perf_counter()
            try:
                rc, out = run_in_process(cli, op)
            finally:
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
        if traced:
            seconds_, calls = spans.arith_replay(arith.tetration_mod_pow10, spans.oracle_calls(tracer.spans[first:]))
            replay[0] += seconds_
            replay[1] += calls
        return elapsed, workloads.check(op, rc, out)

    def do_op(i: int, op) -> Record:
        elapsed, outcome = execute(op, None)
        if not trace:
            return Record(op, elapsed, outcome)
        # the same op again, traced, so the overhead compares like with like
        traced_elapsed, traced_outcome = execute(op, i)
        return Record(op, elapsed, outcome or traced_outcome, traced_elapsed)

    records, elapsed, setups = closed_loop(stream, seconds, do_op, None if trace else lambda: setup_sample(env))
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN if workload.cold else resource.RUSAGE_SELF).ru_maxrss
    lines.append("inputs " + json.dumps({"fingerprint": workloads.fingerprint(workload, seed, tiny),
                                         "fingerprint_ops": workloads.FINGERPRINT_OPS,
                                         "ops_used": len(records)}))

    if trace:
        metrics = spans.layer_metrics(tracer.spans, len(records), replay[0], replay[1])
        metrics["trace.overhead_ratio"] = sum(r.seconds for r in records) / sum(r.traced_seconds for r in records)
        metrics["cli.shard_efficiency_2w"], shard = shard_efficiency(cli, seed)
        records.append(shard)
        spans.write_spans(OUT_DIR / f"spans-{name}-{seed}.jsonl", tracer.spans)
        units = {k: v[0] for k, v in spans.LAYER_METRICS.items()}
        notes = {k: "should move " + v[2] for k, v in spans.LAYER_METRICS.items()}
    else:
        latencies = sorted(r.seconds for r in records)
        ok = sum(r.outcome is None for r in records)
        tail, beyond = nearest_rank(latencies, workload.tail_percentile)
        metrics = {
            "ops_per_s": ok / elapsed,
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p90_ms": 1000 * tail,
            "ok_ratio": ok / len(records),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kib / 1024,
        }
        units = END_TO_END_UNITS
        n = len(records)
        notes = {
            "latency_p50_ms": f"{n} samples",
            "latency_p90_ms": f"p{workload.tail_percentile} of {n} samples, {beyond} beyond it",
            "ok_ratio": f"{n - ok} of {n} ops failed (fail_ratio {(n - ok) / n:.4f})",
            "setup_s": f"median of {SETUP_REPEATS} fresh interpreters spread over the run",
        }

    for key, value in metrics.items():
        lines.append(f"metric {key} = {value:.6g} {units[key]}" + (f"  ({notes[key]})" if key in notes else ""))
    for r in [r for r in records if r.outcome is not None][:5]:
        shown = " ".join(a if len(a) <= 24 else f"<{len(a)} digits>" for a in r.op)
        lines.append(f"failed op: {shown}: {r.outcome[0]}: {r.outcome[1]}")
    result = {
        "correct": bool(records) and all(r.outcome is None or r.outcome[0] != "wrong" for r in records),
        "attempted": len(records),
        "failed": sum(r.outcome is not None for r in records),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def shard_efficiency(cli, seed: int) -> tuple[float, Record]:
    """t(workers=1) / (2 t(workers=2)) for verify over 128 scan-small bases,
    and the pair of runs as one op that fails unless both reports agree."""
    lo = random.Random(f"shard/{seed}").randrange(300, 700)
    op = ("verify", "--range", f"{lo}..{lo + 127}", "--json")
    times, outcome, outputs = [], None, []
    for workers in ("1", "2"):
        t0 = time.perf_counter()
        rc, out = run_in_process(cli, op + ("--workers", workers))
        times.append(time.perf_counter() - t0)
        outcome = outcome or workloads.check(op, rc, out)
        outputs.append(out)
    if outputs[0] != outputs[1]:
        outcome = outcome or ("wrong", "verify reports differ between 1 and 2 workers")
    return times[0] / (2 * times[1]), Record(op, sum(times), outcome)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
