"""Closed-form stable-digit counts, bounds, ratio and height planning.

For bases sharing a factor with 10 the count has an exact linear form in the
height.  For coprime bases the paper pins it between two linear forms at most
V(a)+1 apart (stable_bounds).  stable_count, its inverse min_height and
stable_shape read the oracle's certified run n instead, n(L) + (b-L)V past its
top height L.  That is exact: L = _certified_height(a) + 1 lies past the
stabilization height bbar, from which every count already rises by V.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from decimal import Context, Decimal
from enum import Enum
from fractions import Fraction

from .arith import (
    DEFAULT_BUDGET, InvariantError, TowerNotRepresentable, _tower_of, decimal_length, speed_bound,
    tower_value_capped,
)
from .oracle import _check_budget, certified_sequence, stable_digit_count
from .speed import speed_exact


class FormulaRangeError(ValueError):
    """The requested height is below the stated range of the matching formula."""


class StableCount(namedtuple("StableCount", "kind value lower upper formula_id")):
    """Exact count or a bracketing interval, with the formula that produced it.

    kind is "exact" (value == lower == upper), as from stable_count, or
    "bounded" (value is None), as from stable_bounds.
    """

    __slots__ = ()

    @classmethod
    def exact(cls, value: int, formula_id: str) -> "StableCount":
        return cls("exact", value, value, value, formula_id)

    @classmethod
    def bounded(cls, lower: int, upper: int, formula_id: str) -> "StableCount":
        return cls("bounded", None, lower, upper, formula_id)


class StableShape(Enum):
    B_MINUS_1_V = "(b-1)*V"
    B_V = "b*V"
    B_V_PLUS_1 = "b*V+1"
    B_PLUS_1_V = "(b+1)*V"

    def count_at(self, b: int, v: int) -> int:
        if self is StableShape.B_MINUS_1_V:
            return (b - 1) * v
        if self is StableShape.B_V:
            return b * v
        if self is StableShape.B_V_PLUS_1:
            return b * v + 1
        return (b + 1) * v


HeightPlan = namedtuple("HeightPlan", "target height")


def stable_exact(a: int, b: int) -> StableCount:
    """Exact count for bases in the classes {2,4,5,6,8} mod 10.

    Raises FormulaRangeError when b is below the stated range of the class
    formula (callers fall back to the oracle there).
    """
    if b < 1:
        raise ValueError("height starts at 1")
    r10 = a % 10
    if a < 2 or r10 not in (2, 4, 5, 6, 8):
        raise ValueError("defined for a >= 2 with a mod 10 in {2,4,5,6,8}")
    r20 = a % 20
    v = speed_bound(a)  # V(a) on these classes
    if r10 in (2, 8):
        if r20 in (2, 18):
            value = 0 if b == 1 else (b - 2) * v
            return StableCount.exact(value, "mod20 in {2,18}: 0 then (b-2)V")
        return StableCount.exact((b - 1) * v, "mod20 in {8,12}: (b-1)V")
    if r10 == 4:
        return StableCount.exact((b - 1) * v, "mod10=4: (b-1)V")
    if r10 == 6:
        if b < 2:
            raise FormulaRangeError("the mod10=6 formula starts at b=2")
        return StableCount.exact((b + 1) * v, "mod10=6: (b+1)V")
    if a == 5:
        value = 1 if b == 1 else (4 if b == 2 else 8 + 2 * (b - 3))
        return StableCount.exact(value, "a=5: 1, 4, 8+2(b-3)")
    if b < 2:
        raise FormulaRangeError("the mod10=5 formulas start at b=2")
    if r20 == 15:
        return StableCount.exact(b * v + 1, "mod20=15: bV+1")
    return StableCount.exact((b + 1) * v, "mod20=5: (b+1)V")


def stable_bounds(a: int, b: int) -> StableCount:
    """Bracket for coprime bases: width V(a)+1 on {3,7} mod 20, V(a) elsewhere."""
    if a < 3 or a % 2 == 0 or a % 5 == 0:
        raise ValueError("defined for a >= 3 coprime to 10")
    if b < 2:
        raise ValueError("bounds are stated for b >= 2")
    v = speed_exact(a).speed
    if v is None:
        raise InvariantError(f"no closed-form speed for the coprime base {a}")
    if a % 20 in (3, 7):
        return StableCount.bounded((b - 1) * v, b * v + 1, "mod20 in {3,7}: [(b-1)V, bV+1]")
    return StableCount.bounded(b * v, (b + 1) * v, "coprime: [bV, (b+1)V]")


def stable_shape(a: int, budget: int = DEFAULT_BUDGET) -> StableShape:
    """Measured linear shape of the count at stabilized heights.

    The shape is the candidate form that matches the measured count at the
    run's top height L; from bbar on every count rises by V, as every form
    does.  On {3,7} mod 20 it is checked against the paper's rule:
    (b-1)V exactly when V(a,2) equals V(a), and bV+1 otherwise.  For speed 1
    the forms bV+1 and (b+1)V coincide; bV+1 is reported.
    """
    if a < 3 or a % 2 == 0 or a % 5 == 0:
        raise ValueError("defined for a >= 3 coprime to 10")
    seq = certified_sequence(a, budget)
    top, v = len(seq.frozen_prefix), seq.speed
    shape = next((s for s in StableShape if s.count_at(top, v) == seq.frozen_prefix[-1]), None)
    if shape is None:
        raise InvariantError(f"no linear shape matches measured counts for a={a}")
    rule = StableShape.B_MINUS_1_V if seq.entries[1] == v else StableShape.B_V_PLUS_1
    if a % 20 in (3, 7) and shape is not rule:
        raise InvariantError(f"shape rule disagrees with measured counts for a={a}")
    return shape


def stable_count(a: int, b: int, budget: int = DEFAULT_BUDGET) -> StableCount:
    """Exact count: a class formula, or the oracle's certified run n, measured
    up to its top height L and n(L) + (b-L)V above; bbar names the formula."""
    if a < 0 or b < 1:
        raise ValueError("need a >= 0 and b >= 1")
    _check_budget(budget)
    if a == 0:
        return StableCount.exact(0, "a=0: no stable digits")
    if a == 1:
        return StableCount.exact(1, "a=1: the single digit")
    if a % 10 == 0:
        return StableCount.exact(stable_digit_count(a, b, budget), "multiple of 10: trailing zeros")
    if a % 10 in (2, 4, 5, 6, 8):
        try:
            return stable_exact(a, b)
        except FormulaRangeError:
            return StableCount.exact(stable_digit_count(a, b, budget), "oracle (below formula range)")
    seq = certified_sequence(a, budget)
    n, top = seq.frozen_prefix, len(seq.frozen_prefix)
    value = n[b - 1] if b <= top else n[-1] + (b - top) * seq.speed
    if b < seq.stabilized_at:
        return StableCount.exact(value, "oracle prefix (b < bbar)")
    return StableCount.exact(value, "stabilized tail: n(bbar) + (b-bbar)V")


def _certified_digit_count(a: int, e: int) -> int:
    # digits of a^e = floor(e*log10(a)) + 1.  A long a comes only with e = 1,
    # where its log could need as many digits as a has, so it is counted as
    # it is.  Decimal's log10 is correctly rounded, so log10(a) is within one
    # ulp of the prec-digit L, and the floors of e*(L -/+ ulp) in exact
    # Fractions bracket the exact floor.  a is never a power of ten here, so
    # e*log10(a) is never an integer, and the floors agree once prec is large.
    if e == 1:
        return decimal_length(a)
    prec = 20
    while prec <= 1 << 16:
        log = Decimal(a).log10(Context(prec=prec))
        ulp = Fraction(10) ** (log.adjusted() - prec + 1)
        lo, hi = math.floor(e * (Fraction(log) - ulp)), math.floor(e * (Fraction(log) + ulp))
        if lo == hi:
            return lo + 1
        prec *= 2
    raise TowerNotRepresentable("could not certify the digit count")


def stable_ratio(a: int, b: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Fraction of the height-b tower's digits that are stable: the oracle's
    measured count over the tower's certified digit count.  The tower has at
    most 10^18 digits, so b <= 5 for every a >= 2."""
    if a < 1 or a % 10 == 0:
        raise ValueError("defined for a >= 1 not a multiple of 10")
    if b < 1:
        raise ValueError("height starts at 1")
    _check_budget(budget)
    if a == 1:
        return Fraction(1, 1)
    e = tower_value_capped(a, b - 1, 10**18)
    if e is None:
        raise TowerNotRepresentable(f"{_tower_of(a, b)} has too many digits to count")
    return Fraction(stable_digit_count(a, b, budget), _certified_digit_count(a, e))


def min_height(a: int, target: int, budget: int = DEFAULT_BUDGET) -> HeightPlan:
    """Least height whose tower carries at least `target` stable digits: the
    inverse of stable_count's rule, exact past the run's top height L because
    every count from the stabilization height bbar on rises by V."""
    if a < 2 or a % 10 == 0:
        raise ValueError("defined for a >= 2 not a multiple of 10")
    if target < 0:
        raise ValueError("target must be nonnegative")
    _check_budget(budget)
    if target == 0:
        return HeightPlan(target=0, height=1)
    seq = certified_sequence(a, budget)
    n, v = seq.frozen_prefix, seq.speed
    if target <= n[-1]:
        return HeightPlan(target=target, height=bisect_left(n, target) + 1)
    return HeightPlan(target=target, height=len(n) + (target - n[-1] + v - 1) // v)


def stabilization_bound(a: int) -> int:
    """Closed-form upper bound for the stabilization height.

    speed_bound(a)+2 on the classes whose second step can overshoot the
    constant speed ({3,7} mod 20, {2,18} mod 20 and 6 mod 10), and
    speed_bound(a)+1 elsewhere; the base 5 is the lone +2 exception in its
    class.  The bound is attained: planted_base(7, 10, True) and (3, 10, True)
    from tests/support.py stabilize at 13, and planted_base(7, 20, True) at 23.
    """
    if a < 2 or a % 10 == 0:
        raise ValueError("defined for a >= 2 not a multiple of 10")
    if a == 5:
        return 4
    r20 = a % 20
    if r20 in (3, 7) or r20 in (2, 18) or a % 10 == 6:
        return speed_bound(a) + 2
    return speed_bound(a) + 1
