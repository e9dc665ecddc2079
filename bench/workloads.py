"""Seeded inputs, operations and output checks for the benchmark workloads.

Every input is made here from the seed alone.  Values that depend on the
10-adic constants (the alpha truncations) and the speed bound used to pick
heights are computed by the small helpers below, never through the package,
so a change to tetrastable cannot change the inputs.

Streams are stratified: each block of consecutive ops takes one input from
every stratum (base range, digit length, or a slot of a fixed cost class),
and bases and tags come from shuffled decks.  Any long prefix of a stream
therefore has nearly the same mix of costs for every seed, which keeps the
medians of a time-boxed run steady while the inputs themselves differ.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

Op = tuple[str, ...]

# alpha = c1 + ce*e5 + ct*t2 for each solution of y^5 = y, keyed by its last two digits
ALPHA = {
    "00": (0, 0, 0), "01": (1, 0, 0), "51": (1, -2, 0), "32": (0, 0, 1), "93": (0, 1, -1),
    "43": (0, -1, -1), "24": (-1, 1, 0), "25": (0, 1, 0), "75": (0, -1, 0), "76": (1, -1, 0),
    "07": (0, -1, 1), "57": (0, 1, 1), "68": (0, 0, -1), "49": (-1, 2, 0), "99": (-1, 0, 0),
}

# CPython refuses int<->str conversions past this many digits by default.
STR_DIGITS_LIMIT = 4300


def _crt(r2: int, r5: int, n: int) -> int:
    m2, m5 = 1 << n, 5**n
    return r5 + m5 * ((r2 - r5) * pow(m5, -1, m2) % m2)


def e5(n: int) -> int:
    """e5 mod 10^n: 1 mod 2^n and 0 mod 5^n."""
    return _crt(1, 0, n)


def t2(n: int) -> int:
    """t2 mod 10^n: 0 mod 2^n, and the Teichmueller lift of 2 mod 5^n."""
    return _crt(0, pow(2, 5 ** (n - 1), 5**n), n)


def alpha(tag: str, n: int) -> int:
    """The n-digit truncation of the solution ending in `tag`."""
    c1, ce, ct = ALPHA[tag]
    return (c1 + ce * e5(n) + ct * t2(n)) % 10**n


def _v(p: int, d: int) -> int:
    q = 0
    while d % p == 0:
        d //= p
        q += 1
    return q


def speed_bound(a: int) -> int:
    """The 2-adic/5-adic upper bound for V(a), for a >= 2 not a multiple of 10."""
    r5 = a % 5
    if r5 == 1:
        return _v(5, a - 1)
    if r5 in (2, 3):
        return _v(5, a * a + 1)
    if r5 == 4:
        return _v(5, a + 1)
    return _v(2, a * a - 1) - 1


class Deck:
    """Draws items in shuffled rounds, so each item appears once per round."""

    def __init__(self, rng: random.Random, items) -> None:
        self._rng = rng
        self._items = list(items)
        self._left: list = []

    def draw(self):
        if not self._left:
            self._left = self._rng.sample(self._items, len(self._items))
        return self._left.pop()


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi - 1, int(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _log_bands(lo: int, hi: int, k: int) -> list[tuple[int, int]]:
    edges = [round(lo * (hi / lo) ** (i / k)) for i in range(k + 1)]
    return list(zip(edges, edges[1:]))


def _digits(rng: random.Random, length: int) -> str:
    """A random decimal of `length` digits that is not a multiple of 10."""
    return rng.choice("123456789") + "".join(rng.choices("0123456789", k=length - 2)) + rng.choice("123456789")


def _verify(a: str) -> Op:
    return ("verify", "--range", f"{a}..{a}", "--json")


def _sequence(a: int, height: int) -> Op:
    return ("sequence", str(a), "--max-b", str(height), "--json")


SMALL_BASES = [a for a in range(2, 2001) if a % 10]


def scan_small(rng: random.Random, tiny: bool) -> Iterator[Op]:
    """verify on bases 2..2000, 18 strata of 100 bases, no base repeated per pass."""
    pool = SMALL_BASES[:36] if tiny else SMALL_BASES
    strata = [Deck(rng, pool[i * len(pool) // 18:(i + 1) * len(pool) // 18]) for i in range(18)]
    while True:
        for stratum in strata:
            yield _verify(str(stratum.draw()))


def scan_long(rng: random.Random, tiny: bool) -> Iterator[Op]:
    """verify on bases of 5..1000 digits, log-uniform lengths in 8 bands."""
    bands = _log_bands(5, 40 if tiny else 1001, 8)
    while True:
        for lo, hi in bands:
            yield _verify(_digits(rng, _log_uniform(rng, lo, hi)))


# The cost of an op is set mostly by how many precisions the oracle tries, so
# every slot of a tall-towers block aims its height at one precision class;
# a speed-1 base certifies about b digits at height b, an alpha truncation
# about (speed_bound + 1/2) * b.  Truncations ending in 5 cost a tenth of the
# others at the same precision, so they get a slot of their own.  Speed-2 and
# speed-3 small bases are left out: near height 120 they take 5-50 s per op.
SPEED_ONE_BASES = [a for a in range(3, 100) if a % 10 and speed_bound(a) == 1]
FIVE_TAGS = ["25", "75"]
HIGH_SPEED_TAGS = [t for t in ALPHA if t not in ("00", "01", *FIVE_TAGS)]


def _high_speed(rng: random.Random, tags: Deck, lengths: tuple[int, int], digits: tuple[int, int]) -> Op:
    """An alpha truncation of seeded length, at a height in speed_bound+3..+12
    whose certified digit count should fall in `digits`."""
    while True:
        a = alpha(tags.draw(), rng.randint(*lengths))
        sb = speed_bound(a)
        heights = [h for h in range(sb + 3, sb + 13) if digits[0] <= (sb + 0.5) * h <= digits[1]]
        if heights:
            return _sequence(a, rng.choice(heights))


def tall_towers(rng: random.Random, tiny: bool) -> Iterator[Op]:
    """sequence on small bases at heights 40..120 and on 6-14-digit alpha truncations.

    A block of fifteen, in cost plateaus of its own so that the median and
    the tail percentile fall inside one: five cheap ops (certified at 64 or
    128 digits, or ending in 5), four 12-14-digit truncations certified at
    256 digits, five speed-1 towers near height 100 (128 digits, two passes)
    and one truncation at 512 digits (four passes).
    """
    small = Deck(rng, SPEED_ONE_BASES)
    tags = Deck(rng, HIGH_SPEED_TAGS)
    fives = Deck(rng, FIVE_TAGS)

    def tower(heights: tuple[int, int]) -> Op:
        return _sequence(small.draw(), rng.randrange(*heights))

    if tiny:
        while True:
            yield tower((12, 20))
            yield _high_speed(rng, tags, (4, 5), (20, 60))
    cheap, two_passes = (40, 56), (95, 106)
    while True:
        yield tower(two_passes)
        yield _high_speed(rng, tags, (12, 14), (180, 230))
        yield tower(cheap)
        yield tower(two_passes)
        yield _high_speed(rng, tags, (6, 8), (70, 120))
        yield _high_speed(rng, tags, (12, 14), (180, 230))
        yield tower(two_passes)
        yield _high_speed(rng, tags, (12, 14), (300, 450))
        yield tower(cheap)
        yield tower(two_passes)
        yield _high_speed(rng, tags, (12, 14), (180, 230))
        yield _high_speed(rng, fives, (6, 14), (70, 450))
        yield tower(two_passes)
        yield _high_speed(rng, tags, (12, 14), (180, 230))
        yield tower(cheap)


# A deep-alpha block holds three cost plateaus of three ops each: cold
# starts that do little decadic work (about 0.2 s), e5 near 2000 digits
# (about 0.5 s), and e5 near 4100 or t2 near 2600 digits (about 2.5 s).
# With about two dozen ops a run, the median and the tail percentile both
# fall inside the middle plateau.  Each slot fixes a cost class (which of e5
# and t2 a tag needs) and a narrow depth band; the seed picks the tag within
# the class, the depth and the base's digits.  Every depth stays within the
# int<->str limit: ops past it fail today, and a run must have no failing op
# for its time to mean the same thing across commits.  t2 tags stop at 2700
# digits, since a t2 tag near the limit costs 7-14 s per op, up to half a run.
E5_TAGS = [t for t, (c1, ce, ct) in ALPHA.items() if ce and not ct]
T2_TAGS = [t for t, (c1, ce, ct) in ALPHA.items() if ct]
PLAIN_TAGS = [t for t, (c1, ce, ct) in ALPHA.items() if not ce and not ct]
WITHIN_LIMIT = (1000, STR_DIGITS_LIMIT + 1)

# last two digits of a base by the key-digit work speed_exact does for it:
# none (even, 5, or compared against 01 or 99), e5 only (51, 49), e5 and t2
ENDINGS = {
    "plain": [f"{t}{u}" for t in "0123456789" for u in "24568"] + [f"{t}1" for t in "02468"] + [f"{t}9" for t in "13579"],
    "e5": [f"{t}1" for t in "13579"] + [f"{t}9" for t in "02468"],
    "t2": [f"{t}{u}" for t in "0123456789" for u in "37"],
}


def _base(rng: random.Random, depth: tuple[int, int], kind: str) -> str:
    length = _log_uniform(rng, *depth)
    return rng.choice("123456789") + "".join(rng.choices("0123456789", k=length - 3)) + rng.choice(ENDINGS[kind])


def deep_alpha(rng: random.Random, tiny: bool) -> Iterator[Op]:
    """alpha TAG n and speed A in cold processes, depths 1000..4300 digits."""
    decks = {"plain": Deck(rng, PLAIN_TAGS), "e5": Deck(rng, E5_TAGS), "t2": Deck(rng, T2_TAGS)}

    def alpha_op(kind: str, depth: tuple[int, int]) -> Op:
        return ("alpha", decks[kind].draw(), str(_log_uniform(rng, *depth)), "--json")

    def speed_op(kind: str, depth: tuple[int, int]) -> Op:
        return ("speed", _base(rng, depth, kind), "--json")

    if tiny:
        while True:
            yield alpha_op("t2", (40, 80))
            yield alpha_op("e5", (80, 160))
            yield speed_op("t2", (40, 160))
            yield speed_op("plain", (40, 160))
    while True:
        yield alpha_op("t2", (2500, 2700))
        yield alpha_op("plain", WITHIN_LIMIT)
        yield alpha_op("e5", (1950, 2050))
        yield alpha_op("e5", (3900, STR_DIGITS_LIMIT + 1))
        yield speed_op("plain", WITHIN_LIMIT)
        yield speed_op("e5", (1950, 2050))
        yield alpha_op("e5", (3900, STR_DIGITS_LIMIT + 1))
        yield speed_op("plain", WITHIN_LIMIT)
        yield alpha_op("e5", (1950, 2050))


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[random.Random, bool], Iterator[Op]]
    cold: bool  # every op in a fresh interpreter, paying one CLI call's cold cost
    tail_percentile: int  # the percentile reported as latency_p90_ms


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-small", scan_small, cold=False, tail_percentile=90),
        Workload("scan-long", scan_long, cold=False, tail_percentile=90),
        Workload("tall-towers", tall_towers, cold=False, tail_percentile=70),
        Workload("deep-alpha", deep_alpha, cold=True, tail_percentile=40),
    )
}

FINGERPRINT_OPS = 256


def ops(workload: Workload, seed: int, tiny: bool = False) -> Iterator[Op]:
    return workload.stream(random.Random(f"{workload.name}/{seed}"), tiny)


def fingerprint(workload: Workload, seed: int, tiny: bool = False) -> str:
    """Hash of the first FINGERPRINT_OPS ops, equal for runs with identical inputs."""
    h = hashlib.sha256()
    for op in itertools.islice(ops(workload, seed, tiny), FINGERPRINT_OPS):
        h.update(" ".join(op).encode() + b"\n")
    return h.hexdigest()[:16]


@contextmanager
def _no_str_digits_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _check_verify(op: Op, report: dict) -> str | None:
    lo, hi = (int(x) for x in op[2].split(".."))
    bases = (hi + 1) - lo - ((hi // 10) - ((lo - 1) // 10))  # multiples of 10 are skipped
    result = report["result"]
    if report["status"] != "ok" or result["failures"]:
        return f"verify reported failures: {result['failures'][:3]}"
    if result["bases_checked"] != bases:
        return f"bases_checked = {result['bases_checked']}, expected {bases}"
    return None


def _check_sequence(op: Op, report: dict) -> str | None:
    from tetrastable.speed import speed_mod20  # src/ is on the path only once a run starts

    a, height = int(op[1]), int(op[3])
    result = report["result"]
    entries, cumulative = result["entries"], result["cumulative"]
    stable_at, v, closed_form = result["stabilized_at"], result["speed"], speed_mod20(a).speed
    if len(entries) != height or len(cumulative) != height:
        return f"{len(entries)} entries for {height} heights"
    if any(e < 0 for e in entries):
        return "negative entry"
    if list(itertools.accumulate(entries)) != cumulative:
        return "cumulative is not the running sum of entries"
    if stable_at is None or v != closed_form:
        return f"certified speed {v} at {stable_at}, the mod-20 form gives {closed_form}"
    base = cumulative[stable_at - 1]
    if any(cumulative[b - 1] != base + (b - stable_at) * v for b in range(stable_at, height + 1)):
        return "counts past stabilized_at do not follow n(bbar) + (b - bbar)V"
    return None


def _check_alpha(op: Op, report: dict) -> str | None:
    tag, n = op[1], int(op[2])
    digits = report["result"]["digits"]
    if len(digits) != n or not digits.isdigit():
        return f"{len(digits)} characters for {n} digits"
    if digits[-2:] != tag:
        return f"ends in {digits[-2:]}, not {tag}"
    with _no_str_digits_limit():
        y = int(digits)
    if pow(y, 5, 10**n) != y:
        return "y^5 != y mod 10^n"
    # mod 2^n only 0 and +-1 lift to 10-adic solutions; 1 + 2^(n-1) and kin do not
    if y % (1 << n) not in (0, 1, (1 << n) - 1):
        return "not the truncation of a 10-adic solution"
    return None


def _check_speed(op: Op, report: dict) -> str | None:
    if report["result"]["agreement"] is not True:
        return f"closed forms disagree: {report['result']}"
    return None


CHECKS = {"verify": _check_verify, "sequence": _check_sequence, "alpha": _check_alpha, "speed": _check_speed}


def check(op: Op, rc: int, stdout: str) -> tuple[str, str] | None:
    """None for a good op, else (kind, detail): kind "wrong" for an output that
    fails its check, "error" for a non-zero exit without a wrong output."""
    if stdout.strip():
        try:
            report = json.loads(stdout)
            problem = CHECKS[op[0]](op, report)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"malformed report: {type(exc).__name__}: {exc}"
        if problem:
            return "wrong", problem
    if rc != 0:
        return "error", f"exit code {rc}"
    if not stdout.strip():
        return "wrong", "no output"
    return None
