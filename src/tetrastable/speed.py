"""Closed forms for the constant congruence speed V(a).

Three maps form a chain, exact -> mod 20 -> mod 100: each refines the next
on some classes and hands it every other base.  speed_mod100 is the paper's
case split on a mod 100 / mod 10; speed_mod20 refines its odd classes; and
speed_exact refines the coprime classes by the key-digit map.  The
verification harness scans all three against the modular tower oracle.

The valuations the rules name are the slopes of the tower walk
(arith._slope), w2 = v2(a^2 - 1) - 1 and w5 = v5(a^4 - 1), by lifting the
exponent.  At 2, for odd a, one of a -/+ 1 is 2 (mod 4): w2 is v2(a - 1)
when a == 1 (mod 4) and v2(a + 1) when a == 3.  At 5, a^4 - 1 =
(a - 1)(a + 1)(a^2 + 1) has one factor that is not a unit: w5 is v5(a - 1),
v5(a^2 + 1), v5(a^2 + 1) or v5(a + 1) as a == 1, 2, 3 or 4 (mod 5).  So
speed_bound (in arith) is w5, or w2 when 5 divides a, and _names reads the
mod-20 split off a mod 4 and a mod 5: V(a) is the least slope at a prime
not dividing a, and for a coprime base the key-digit map tells which one.
Each rule is a label and the names of its valuations, and _VALUATIONS
computes what each name says; v5(a^2 + 1) is read as w5 and
v2(a^2 - 1) - 1 as w2, so a long base is never squared.

speed_exact compares a coprime base with the solution alpha of y^5 = y
that is a mod 20 (decadic derives the fifteen from their roots mod 4 and
mod 5).  2-adically a - alpha is the a -/+ 1 that w2 names; 5-adically it
is the one factor a - z of a^4 - 1 = prod(a - z : z^4 = 1) that is not a
unit, so its v5 is w5.
"""
from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .arith import _slope, _v2, _v5, speed_bound  # speed_bound: bench/ and tests/ import it from here
from .decadic import _TAG_MOD20, key_digit

# valuation name -> its value; v5(a^2+1) is only named at a == 2, 3 (mod 5)
_VALUATIONS = {
    "v2(a-1)": lambda a: _v2(a - 1),
    "v2(a+1)": lambda a: _v2(a + 1),
    "v5(a-1)": lambda a: _v5(a - 1),
    "v5(a+1)": lambda a: _v5(a + 1),
    "v5(a^2+1)": lambda a: _slope(a, 5),
    "v2(a^2-1)-1": lambda a: _slope(a, 2),
}


SpeedResult = namedtuple("SpeedResult", "speed rule")
SpeedResult.__doc__ = "V(a) plus the rule that produced it; speed is None when undefined."


class Tier(Enum):
    V0 = "V=0"
    V1 = "V=1"
    V2 = "V=2"
    V3_PLUS = "V>=3"
    UNDEFINED = "undefined"


def tier_of(speed: int | None) -> Tier:
    if speed is None:
        return Tier.UNDEFINED
    if speed >= 3:
        return Tier.V3_PLUS
    return {0: Tier.V0, 1: Tier.V1, 2: Tier.V2}[speed]


def _names(a: int) -> tuple[str, ...]:
    """The valuations whose least is V(a) for odd a: a mod 4 picks w2's, a mod 5 w5's."""
    two = "v2(a-1)" if a % 4 == 1 else "v2(a+1)"
    if a % 5 == 0:
        return (two,)
    return two, ("v5(a-1)", "v5(a^2+1)", "v5(a^2+1)", "v5(a+1)")[a % 5 - 1]


def _rule(a: int, label: str, *names: str) -> SpeedResult:
    """The least of the named valuations of a, with the rule as printed."""
    text = names[0] if len(names) == 1 else f"min({', '.join(names)})"
    return SpeedResult(min(_VALUATIONS[name](a) for name in names), f"{label}: {text}")


def speed_mod100(a: int) -> SpeedResult:
    """V(a) from the case split on a mod 100 / mod 10."""
    if a < 0:
        raise ValueError("base must be nonnegative")
    if a in (0, 1):
        return SpeedResult(0, "a in {0,1}: 0")
    r10 = a % 10
    if r10 == 0:
        return SpeedResult(None, "positive multiple of 10: undefined")
    r100 = a % 100
    if r100 == 1:
        return _rule(a, "mod100=1", "v2(a-1)", "v5(a-1)")
    if r100 == 51:
        return _rule(a, "mod100=51", "v2(a+1)", "v5(a-1)")
    if r10 in (2, 8):
        return _rule(a, "mod10 in {2,8}", "v5(a^2+1)")
    if r100 in (7, 43):
        return _rule(a, "mod100 in {7,43}", "v2(a+1)", "v5(a^2+1)")
    if r100 in (57, 93):
        return _rule(a, "mod100 in {57,93}", "v2(a-1)", "v5(a^2+1)")
    if r10 == 4:
        return _rule(a, "mod10=4", "v5(a+1)")
    if r10 == 5:
        return _rule(a, "mod10=5", "v2(a^2-1)-1")
    if r10 == 6:
        return _rule(a, "mod10=6", "v5(a-1)")
    if r100 == 49:
        return _rule(a, "mod100=49", "v2(a-1)", "v5(a+1)")
    if r100 == 99:
        return _rule(a, "mod100=99", "v2(a+1)", "v5(a+1)")
    return SpeedResult(1, "default: 1")


def speed_mod20(a: int) -> SpeedResult:
    """V(a) from the case split on a mod 20 for odd a >= 3; speed_mod100's
    rows, which this split does not refine, for the other bases."""
    if a < 2 or a % 2 == 0:
        return speed_mod100(a)
    return _rule(a, f"mod20={a % 20}", *_names(a))


def speed_exact(a: int) -> SpeedResult:
    """V(a) from the exact key-digit map; total on the nonnegative integers.

    Off the coprime classes it hands the base to speed_mod20, whose rows are
    exact there.
    """
    if a < 2 or a % 2 == 0 or a % 5 == 0:
        return speed_mod20(a)
    r20 = a % 20
    tag = _TAG_MOD20[r20]
    report = key_digit(a, tag)
    two_rule, five_rule = _names(a)
    if abs(report.diff) == 5:
        return _rule(a, f"mod20={r20}, l={report.l}, |s_l-{tag}[l]|=5", two_rule)
    return _rule(a, f"mod20={r20}, l={report.l}, |s_l-{tag}[l]|={abs(report.diff)}!=5", five_rule)


def classify_tier(a: int) -> Tier:
    """Tier of V(a) in {0, 1, 2, >=3} from a mod 25, 125 and 8.

    V(a) is w5 for even a, w2 for odd multiples of 5 and min(w2, w5) for a
    coprime to 10 (the maps above).  By Fermat 5 divides a^4 - 1, so w5 = 1
    exactly when a^4 != 1 (mod 25), and w5 >= 3 exactly when a^4 == 1
    (mod 125).  An odd square is 1 mod 8, so w2 = v2(a^2 - 1) - 1 >= 2, and
    w2 = 2 exactly when a^2 != 1 (mod 16), that is a == +-3 (mod 8).  So
    V = 1 iff 5 does not divide a and a^4 != 1 (mod 25); V >= 3 iff a^4 == 1
    (mod 125), or 5 divides a, and also a == +-1 (mod 8) when a is odd.
    """
    if a < 1:
        raise ValueError("base must be >= 1")
    if a % 10 == 0:
        return Tier.UNDEFINED
    if a == 1:
        return Tier.V0
    r = a % 1000  # 1000 = 8 * 125: each test below reads r, never the long base
    if r % 5 and pow(r, 4, 25) != 1:
        return Tier.V1
    if (r % 5 == 0 or pow(r, 4, 125) == 1) and (r % 2 == 0 or r % 8 in (1, 7)):
        return Tier.V3_PLUS
    return Tier.V2
