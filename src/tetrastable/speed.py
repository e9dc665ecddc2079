"""Closed forms for the constant congruence speed V(a).

Three independent maps are kept side by side on purpose: the mod-100 case
split, its mod-20 refinement, and the exact key-digit map.  All three must
agree everywhere; the verification harness scans them against the modular
tower oracle.
"""
from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .arith import INFINITY, InvariantError, _v2, _v5
from .decadic import AlphaTag, key_digit

# mod-20 residue of the base -> the constant its digits are compared against
TAG_BY_MOD20 = {
    1: AlphaTag(0, 1),
    11: AlphaTag(5, 1),
    3: AlphaTag(4, 3),
    13: AlphaTag(9, 3),
    7: AlphaTag(0, 7),
    17: AlphaTag(5, 7),
    9: AlphaTag(4, 9),
    19: AlphaTag(9, 9),
}

# mod-20 residue -> (5-adic rule, 2-adic rule); each rule is (prime, shift, square)
# meaning v_prime(a^2+1) when square else v_prime(a+shift).
_COPRIME_RULES = {
    1: ((5, -1, False), (2, -1, False)),
    11: ((5, -1, False), (2, +1, False)),
    3: ((5, 0, True), (2, +1, False)),
    13: ((5, 0, True), (2, -1, False)),
    7: ((5, 0, True), (2, +1, False)),
    17: ((5, 0, True), (2, -1, False)),
    9: ((5, +1, False), (2, -1, False)),
    19: ((5, +1, False), (2, +1, False)),
}


class SpeedResult(namedtuple("SpeedResult", "speed rule")):
    """V(a) plus the rule that produced it; speed is None when undefined."""

    __slots__ = ()

    @property
    def is_undefined(self) -> bool:
        return self.speed is None


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


def _v5_square_plus_one(a: int) -> int:
    """v5(a^2 + 1) from a modulo 5^k, k doubling until the valuation falls
    below k, so that a long base is never squared."""
    k = 32
    while True:
        m = 5**k
        r = a % m
        v = _v5((r * r + 1) % m)
        if v < k:
            return v
        k *= 2


def _apply(rule: tuple[int, int, bool], a: int) -> int:
    p, shift, square = rule
    if square:  # every squared rule is 5-adic
        v = _v5_square_plus_one(a)
    else:
        v = _v2(a + shift) if p == 2 else _v5(a + shift)
    if v == INFINITY:
        raise InvariantError(f"{_rule_text(rule)} is infinite at a={a}")
    return int(v)


def _rule_text(rule: tuple[int, int, bool]) -> str:
    p, shift, square = rule
    if square:
        return f"v{p}(a^2+1)"
    return f"v{p}(a{'+' if shift > 0 else '-'}1)"


def speed_bound(a: int) -> int:
    """Least 2-adic/5-adic upper bound for V(a) (equals V(a) off the key-digit cases)."""
    if a < 2 or a % 10 == 0:
        raise ValueError("defined for a >= 2 with a not a multiple of 10")
    r5 = a % 5
    if r5 == 1:
        return int(_v5(a - 1))
    if r5 in (2, 3):
        return _v5_square_plus_one(a)
    if r5 == 4:
        return int(_v5(a + 1))
    return _v2(a - 1) + _v2(a + 1) - 1  # v2(a^2 - 1)


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
        return SpeedResult(min(int(_v2(a - 1)), int(_v5(a - 1))), "mod100=1: min(v2(a-1), v5(a-1))")
    if r100 == 51:
        return SpeedResult(min(int(_v2(a + 1)), int(_v5(a - 1))), "mod100=51: min(v2(a+1), v5(a-1))")
    if r10 in (2, 8):
        return SpeedResult(_v5_square_plus_one(a), "mod10 in {2,8}: v5(a^2+1)")
    if r100 in (7, 43):
        return SpeedResult(min(int(_v2(a + 1)), _v5_square_plus_one(a)), "mod100 in {7,43}: min(v2(a+1), v5(a^2+1))")
    if r100 in (57, 93):
        return SpeedResult(min(int(_v2(a - 1)), _v5_square_plus_one(a)), "mod100 in {57,93}: min(v2(a-1), v5(a^2+1))")
    if r10 == 4:
        return SpeedResult(int(_v5(a + 1)), "mod10=4: v5(a+1)")
    if r10 == 5:
        return SpeedResult(_v2(a - 1) + _v2(a + 1) - 1, "mod10=5: v2(a^2-1)-1")
    if r10 == 6:
        return SpeedResult(int(_v5(a - 1)), "mod10=6: v5(a-1)")
    if r100 == 49:
        return SpeedResult(min(int(_v2(a - 1)), int(_v5(a + 1))), "mod100=49: min(v2(a-1), v5(a+1))")
    if r100 == 99:
        return SpeedResult(min(int(_v2(a + 1)), int(_v5(a + 1))), "mod100=99: min(v2(a+1), v5(a+1))")
    return SpeedResult(1, "default: 1")


def speed_mod20(a: int) -> SpeedResult:
    """V(a) from the refined case split on a mod 20 / mod 10."""
    if a < 0:
        raise ValueError("base must be nonnegative")
    if a in (0, 1):
        return SpeedResult(0, "a in {0,1}: 0")
    r10 = a % 10
    if r10 == 0:
        return SpeedResult(None, "positive multiple of 10: undefined")
    if r10 in (2, 8):
        return SpeedResult(_v5_square_plus_one(a), "mod10 in {2,8}: v5(a^2+1)")
    if r10 == 4:
        return SpeedResult(int(_v5(a + 1)), "mod10=4: v5(a+1)")
    if r10 == 6:
        return SpeedResult(int(_v5(a - 1)), "mod10=6: v5(a-1)")
    r20 = a % 20
    if r20 == 5:
        return SpeedResult(int(_v2(a - 1)), "mod20=5: v2(a-1)")
    if r20 == 15:
        return SpeedResult(int(_v2(a + 1)), "mod20=15: v2(a+1)")
    five_rule, two_rule = _COPRIME_RULES[r20]
    v5v = _apply(five_rule, a)
    v2v = _apply(two_rule, a)
    return SpeedResult(min(v2v, v5v), f"mod20={r20}: min({_rule_text(two_rule)}, {_rule_text(five_rule)})")


def speed_exact(a: int) -> SpeedResult:
    """V(a) from the exact key-digit map; total on the nonnegative integers.

    Off the coprime classes it is the mod-20 split, which is exact there.
    """
    if a < 2 or a % 2 == 0 or a % 5 == 0:
        return speed_mod20(a)
    r20 = a % 20
    tag = TAG_BY_MOD20[r20]
    report = key_digit(a, tag)
    five_rule, two_rule = _COPRIME_RULES[r20]
    if abs(report.diff) == 5:
        rule = two_rule
        cond = f"|s_l-{tag}[l]|=5"
    else:
        rule = five_rule
        cond = f"|s_l-{tag}[l]|={abs(report.diff)}!=5"
    return SpeedResult(_apply(rule, a), f"mod20={r20}, l={report.l}, {cond}: {_rule_text(rule)}")


# residues mod 25 with V(a) = 1, and the mod-1000 residues with V(a) >= 3
# among bases whose mod-25 residue lies in {1, 7, 18, 24}
C_COMPLEMENT = frozenset({2, 3, 4, 6, 8, 9, 11, 12, 13, 14, 16, 17, 19, 21, 22, 23})
Q_COMPLEMENT = frozenset(
    {1, 57, 68, 124, 126, 182, 193, 249, 318, 374, 376, 432, 568,
     624, 626, 682, 751, 807, 818, 874, 876, 932, 943, 999}
)


def classify_tier(a: int) -> Tier:
    """Tier of V(a) in {0, 1, 2, >=3} from residues mod 25 / 40 / 1000."""
    if a < 1:
        raise ValueError("base must be >= 1")
    if a % 10 == 0:
        return Tier.UNDEFINED
    if a == 1:
        return Tier.V0
    if a % 25 in C_COMPLEMENT:
        return Tier.V1
    r40 = a % 40
    if r40 in (5, 35):
        return Tier.V2
    if r40 in (15, 25) or a % 1000 in Q_COMPLEMENT:
        return Tier.V3_PLUS
    return Tier.V2


__all__ = [
    "SpeedResult",
    "Tier",
    "TAG_BY_MOD20",
    "C_COMPLEMENT",
    "Q_COMPLEMENT",
    "tier_of",
    "speed_bound",
    "speed_mod100",
    "speed_mod20",
    "speed_exact",
    "classify_tier",
]
