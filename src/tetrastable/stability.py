"""Closed-form stable-digit counts, bounds, ratio and height planning.

For bases sharing a factor with 10 the count has an exact linear form in the
height.  For coprime bases the paper pins it between two linear forms at most
V(a)+1 apart (stable_bounds).  stable_count, its inverse min_height,
stable_shape and stable_ratio read the exact count instead (_count): two
valuation lines in b (arith._difference_valuation) capped at the length of
the tower, a few integer operations at any height, with no oracle run.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from decimal import Context, Decimal
from enum import Enum
from fractions import Fraction

from .arith import (
    InvariantError, TowerNotRepresentable, _difference_valuation, _tower_of, decimal_length, speed_bound,
    tower_value_capped,
)
from .oracle import _certified_height, stable_digit_count
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
    formula (stable_count reads the valuation lines there).
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


def _count(a: int, b: int) -> int:
    """Stable digits of the height-b tower of a >= 2 not a multiple of 10:
    n = v10(T_(b+1) - T_b), capped at the length of T_b = a^e, which exceeds
    n once e > 4n (a^e >= 2^e > 10^(e/4))."""
    n = _difference_valuation(a, b + 1)
    e = tower_value_capped(a, b - 1, 4 * n)
    return n if e is None else min(n, _certified_digit_count(a, e))


def _step(a: int, b: int) -> int:
    """V(a, b): the rise of the count at height b."""
    return _count(a, b) - (_count(a, b - 1) if b > 1 else 0)


def stable_shape(a: int) -> StableShape:
    """Linear shape of the count at stabilized heights: the candidate form
    that matches the count at L = _certified_height(a) + 1, past bbar, from
    which every count rises by V, as every form does.  On {3,7} mod 20 it is
    checked against the paper's rule: (b-1)V exactly when V(a,2) equals V(a),
    and bV+1 otherwise.  For speed 1 the forms bV+1 and (b+1)V coincide;
    bV+1 is reported."""
    if a < 3 or a % 2 == 0 or a % 5 == 0:
        raise ValueError("defined for a >= 3 coprime to 10")
    top = _certified_height(a) + 1
    v = _step(a, top)
    shape = next((s for s in StableShape if s.count_at(top, v) == _count(a, top)), None)
    if shape is None:
        raise InvariantError(f"no linear shape matches measured counts for a={a}")
    rule = StableShape.B_MINUS_1_V if _step(a, 2) == v else StableShape.B_V_PLUS_1
    if a % 20 in (3, 7) and shape is not rule:
        raise InvariantError(f"shape rule disagrees with measured counts for a={a}")
    return shape


def stable_count(a: int, b: int) -> StableCount:
    """Exact count: a class formula, or the valuation lines (_count).

    From height 3 on a coprime count is the least of two lines with slopes at
    least V (T_b is too long for its length to bind), so its steps from
    height 4 on never rise or fall below V: b is at or past bbar, which names
    the formula, when the steps at heights b..max(b, 4) all equal V.
    """
    if a < 0 or b < 1:
        raise ValueError("need a >= 0 and b >= 1")
    if a == 0:
        return StableCount.exact(0, "a=0: no stable digits")
    if a == 1:
        return StableCount.exact(1, "a=1: the single digit")
    if a % 10 == 0:
        return StableCount.exact(stable_digit_count(a, b), "multiple of 10: trailing zeros")
    if a % 10 in (2, 4, 5, 6, 8):
        try:
            return stable_exact(a, b)
        except FormulaRangeError:
            return StableCount.exact(_count(a, b), "valuation lines (below formula range)")
    v = _step(a, _certified_height(a) + 1)
    past = all(_step(a, j) == v for j in range(b, max(b, 4) + 1))
    return StableCount.exact(_count(a, b), "stabilized tail: n(bbar) + (b-bbar)V" if past else "valuation lines (b < bbar)")


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


def stable_ratio(a: int, b: int) -> Fraction:
    """Fraction of the height-b tower's digits that are stable: the exact
    count over the tower's certified digit count.  The tower has at most
    10^18 digits, so b <= 5 for every a >= 2."""
    if a < 1 or a % 10 == 0:
        raise ValueError("defined for a >= 1 not a multiple of 10")
    if b < 1:
        raise ValueError("height starts at 1")
    if a == 1:
        return Fraction(1, 1)
    e = tower_value_capped(a, b - 1, 10**18)
    if e is None:
        raise TowerNotRepresentable(f"{_tower_of(a, b)} has too many digits to count")
    return Fraction(_count(a, b), _certified_digit_count(a, e))


def min_height(a: int, target: int) -> HeightPlan:
    """Least height with `target` stable digits: the counts never fall, so a
    bisection up to L = _certified_height(a) + 1, past which each rises by V."""
    if a < 2 or a % 10 == 0:
        raise ValueError("defined for a >= 2 not a multiple of 10")
    if target < 0:
        raise ValueError("target must be nonnegative")
    top = _certified_height(a) + 1
    over = target - _count(a, top)
    if over > 0:
        return HeightPlan(target=target, height=top - (-over // _step(a, top)))
    return HeightPlan(target=target, height=bisect_left(range(1, top + 1), target, key=lambda b: _count(a, b)) + 1)


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
