"""Ground-truth measurement of congruence speed by direct tower computation.

The number of stable digits of the height-b tower is the number of trailing
digits it shares with the height-(b+1) tower, capped by its own decimal
length (a short tower cannot freeze more digits than it has: the height-2
tower of 5 agrees with all taller towers modulo 10^5, but 3125 only has four
digits, so four digits are stable).  Every count is measured, never
predicted; the closed forms elsewhere are validated against this module.
The valuation lines (arith._difference_valuation) decide only which precision
a run takes, and speed_bound from which height a speed is certified constant.
"""
from __future__ import annotations

from collections import namedtuple

from .arith import (
    DEFAULT_BUDGET,
    InvariantError,
    NeedsLargerBudget,
    TowerNotRepresentable,
    _difference_valuation,
    _tower_of,
    _tower_walk,
    _v10,
    decimal_length,
    speed_bound,
    tower_value_capped,
)

_START_DIGITS = 64
_MACHINE_RANGE = 1 << 63


class SpeedSequence(namedtuple("SpeedSequence", "a entries frozen_prefix stabilized_at")):
    """Measured V(a,b) for b = 1..max_b with cumulative stable-digit counts."""

    __slots__ = ()

    @property
    def speed(self) -> int | None:
        """The stabilized congruence speed, when certified within the run."""
        if self.stabilized_at is None:
            return None
        return self.entries[self.stabilized_at - 1]


def _trailing_zero_count(a: int, b: int) -> int:
    # multiples of 10: stable digits = trailing zeros of the height-b tower
    e = tower_value_capped(a, b - 1, _MACHINE_RANGE)
    if e is None:
        raise TowerNotRepresentable(f"{_tower_of(a, b)} has too many digits to count")
    return e * int(_v10(a))


def _counts_at_precision(a: int, heights: int, ndigits: int) -> list[int] | None:
    """Capped stable-digit counts for b = 1..heights, or None if ndigits is too small.

    One walk up heights 1..heights+1 modulo 2^ndigits and 5^ndigits: the
    count at height b is the smaller valuation of T_(b+1) - T_b at the two
    primes, capped at ndigits, which the walk yields with height b+1.  A
    count n < ndigits is also capped at the length of T_b, which the walk
    yields exactly whenever that length can be at most n.
    """
    counts = []
    walk = _tower_walk(a, ndigits)
    *_, t = next(walk)
    for _, (_, _, v2, v5, t_next) in zip(range(heights), walk):
        n = min(ndigits, v2, v5)
        if n >= ndigits:
            return None
        if t is not None:
            n = min(n, decimal_length(t))
        counts.append(n)
        t = t_next
    return counts


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError(f"budget must be at least 1 digit, got {budget}")


def _stable_counts(a: int, heights: int, budget: int) -> list[int]:
    """Counts for b = 1..H, H = heights, from one pass at the least ladder
    value n = 64, 128, 256, ... above the floor v10(D_(H+1)), D_b = T_b -
    T_(b-1) (arith._difference_valuation).  A pass at n fails exactly when
    v10(D_(b+1)) >= n for some b <= H, and v10(D_b) never falls in b, so with
    the floor exact that pass certifies every count; a failed one is an
    InvariantError.  Read exact up to budget and infinite above, the floor
    raises NeedsLargerBudget before any pass, as doubling from 64 would.
    """
    _check_budget(budget)
    if a == 0:
        return [0] * heights
    if a == 1:
        return [1] * heights
    if a % 10 == 0:
        return [_trailing_zero_count(a, b) for b in range(1, heights + 1)]
    floor = _difference_valuation(a, heights + 1, budget)
    ndigits = _START_DIGITS
    while ndigits <= min(floor, budget):
        ndigits *= 2
    if ndigits > budget:
        raise NeedsLargerBudget(a, heights, budget)
    counts = _counts_at_precision(a, heights, ndigits)
    if counts is None:
        raise InvariantError(f"the {ndigits}-digit pass for {a} to height {heights} failed above its floor {floor}")
    return counts


def stable_digit_count(a: int, b: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of stable digits of the height-b tower of a."""
    if a < 0 or b < 1:
        raise ValueError("need a >= 0 and b >= 1")
    _check_budget(budget)
    if a % 10 == 0 and a > 0:
        return _trailing_zero_count(a, b)
    return _stable_counts(a, b, budget)[-1]


def speed_sequence(a: int, max_b: int, budget: int = DEFAULT_BUDGET) -> SpeedSequence:
    """Measure V(a,b) for b = 1..max_b.

    Every entry is a measured count difference.  stabilized_at is reported
    only when the run reaches _certified_height(a).
    """
    if a < 0 or max_b < 1:
        raise ValueError("need a >= 0 and max_b >= 1")
    counts = _stable_counts(a, max_b, budget)
    entries = [counts[0]] + [counts[i] - counts[i - 1] for i in range(1, max_b)]
    if any(v < 0 for v in entries):
        raise InvariantError(f"stable digit count decreased for a={a}: {counts}")
    stabilized = None
    if (a == 0 or a % 10 != 0) and max_b >= _certified_height(a):
        i = max_b
        while i > 1 and entries[i - 2] == entries[max_b - 1]:
            i -= 1
        stabilized = i
    return SpeedSequence(a=a, entries=entries, frozen_prefix=counts, stabilized_at=stabilized)


def _certified_height(a: int) -> int:
    """The height from which the paper proves V(a, b) constant: 1 and 2 for
    a = 0 and 1, else speed_bound(a) + 2, with speed_bound(a) the walk's
    slope at 5, or at 2 when 5 divides a."""
    return 1 if a == 0 else (2 if a == 1 else speed_bound(a) + 2)


def certified_sequence(a: int, budget: int = DEFAULT_BUDGET) -> SpeedSequence:
    """speed_sequence run one height past _certified_height(a), for every
    base whose speed is defined.

    stabilized_at is never None and never above _certified_height(a), from
    which the paper proves V(a, b) constant: a run that breaks either raises
    InvariantError.
    """
    if a < 0 or (a % 10 == 0 and a != 0):
        raise ValueError("defined for a >= 0 not a positive multiple of 10")
    height = _certified_height(a)
    seq = speed_sequence(a, height + 1, budget)
    if seq.stabilized_at is None or seq.stabilized_at > height:
        raise InvariantError(f"stabilization of {a} not certified by height {height}, got {seq.stabilized_at}")
    return seq


def measure_stabilization(a: int, budget: int = DEFAULT_BUDGET) -> int:
    """The least height from which the congruence speed stays constant."""
    if a < 1 or a % 10 == 0:
        raise ValueError("defined for a >= 1 not a multiple of 10")
    return certified_sequence(a, budget).stabilized_at


def measured_speed(a: int, budget: int = DEFAULT_BUDGET) -> int:
    """V(a) as measured by the tower oracle: a measured count difference,
    certified constant from _certified_height(a)."""
    return certified_sequence(a, budget).speed
