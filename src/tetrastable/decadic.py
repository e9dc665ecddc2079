"""The fifteen 10-adic solutions of y^5 = y and key-digit location.

Two primitive limits generate everything:

    e5 = lim 5^(2^n)   (the nontrivial idempotent, tail ...890625)
    t2 = lim 2^(5^n)   (tail ...186432)

Every solution of y^5 = y in the 10-adic integers is an integer combination
of 1, e5 and t2; the table below lists all fifteen, indexed by their last
two digits.  Note the combination for alpha_51 is 1 - 2*e5 (its printed
tail ...218751 confirms this; 1 - 2*t2 does not solve y^5 = y).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

from .arith import InvariantError, digit

# (x2, x1) -> coefficients (c1, ce, ct) with alpha = c1 + ce*e5 + ct*t2
_COMBINATIONS = {
    (0, 0): (0, 0, 0),
    (0, 1): (1, 0, 0),
    (5, 1): (1, -2, 0),
    (3, 2): (0, 0, 1),
    (9, 3): (0, 1, -1),
    (4, 3): (0, -1, -1),
    (2, 4): (-1, 1, 0),
    (2, 5): (0, 1, 0),
    (7, 5): (0, -1, 0),
    (7, 6): (1, -1, 0),
    (0, 7): (0, -1, 1),
    (5, 7): (0, 1, 1),
    (6, 8): (0, 0, -1),
    (4, 9): (-1, 2, 0),
    (9, 9): (-1, 0, 0),
}


@dataclass(frozen=True)
class AlphaTag:
    """One of the fifteen solutions, identified by its last two digits."""

    x2: int
    x1: int

    def __post_init__(self) -> None:
        if (self.x2, self.x1) not in _COMBINATIONS:
            raise ValueError(f"no 10-adic solution of y^5=y ends in ...{self.x2}{self.x1}")

    @classmethod
    def from_label(cls, label: str) -> "AlphaTag":
        if len(label) != 2 or not label.isdigit():
            raise ValueError(f"tag must be two digits, got {label!r}")
        return cls(int(label[0]), int(label[1]))

    @property
    def label(self) -> str:
        return f"{self.x2}{self.x1}"

    def __str__(self) -> str:
        return f"alpha_{self.label}"


ALPHA_TAGS = tuple(AlphaTag(x2, x1) for (x2, x1) in sorted(_COMBINATIONS, key=lambda t: (t[1], t[0])))


@dataclass(frozen=True)
class AlphaDigits:
    """n trailing digits (most significant left) of one solution."""

    tag: AlphaTag
    n: int
    digits: str

    @property
    def value(self) -> int:
        return int(self.digits)


@dataclass(frozen=True)
class KeyDigitReport:
    """First position where a base departs from its associated constant."""

    l: int
    s_l: int
    diff: int
    matched_prefix_len: int


_lock = threading.Lock()
_e5_state: tuple[int, int] = (1, 5)  # (depth, value)
_t2_state: tuple[int, int] = (1, 2)


def _fixed_point(start: int, power: int, n: int) -> int:
    m = 10**n
    x = start % m
    for _ in range(n + 8):
        y = pow(x, power, m)
        if y == x:
            return x
        x = y
    raise InvariantError("fixed-point iteration failed to settle")


def _primitive(n: int, which: str) -> int:
    global _e5_state, _t2_state
    with _lock:
        depth, value = _e5_state if which == "e5" else _t2_state
        if n <= depth:
            return value % 10**n
        target = max(n, 2 * depth)
        if which == "e5":
            fresh = _fixed_point(5, 2, target)
            _e5_state = (target, fresh)
        else:
            fresh = _fixed_point(2, 5, target)
            _t2_state = (target, fresh)
        return fresh % 10**n


def _e5(n: int) -> int:
    return _primitive(n, "e5")


def _t2(n: int) -> int:
    return _primitive(n, "t2")


def idempotent_e5(n: int) -> str:
    """n trailing digits of lim 5^(2^n), the solution of x^2 = x ending in 5.

    Satisfies e5 == 1 (mod 2^n) and e5 == 0 (mod 5^n).
    """
    if n < 1:
        raise ValueError("depth must be >= 1")
    return str(_e5(n)).rjust(n, "0")


def two_tower_t2(n: int) -> str:
    """n trailing digits of lim 2^(5^n)."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    return str(_t2(n)).rjust(n, "0")


def alpha_value(tag: AlphaTag, n: int) -> int:
    if n < 1:
        raise ValueError("depth must be >= 1")
    c1, ce, ct = _COMBINATIONS[(tag.x2, tag.x1)]
    m = 10**n
    v = c1
    if ce:
        v += ce * _e5(n)
    if ct:
        v += ct * _t2(n)
    return v % m


def alpha_digits(tag: AlphaTag, n: int) -> AlphaDigits:
    """n trailing digits of the chosen solution, most significant left."""
    return AlphaDigits(tag=tag, n=n, digits=str(alpha_value(tag, n)).rjust(n, "0"))


def alpha_digit_at(tag: AlphaTag, l: int) -> int:
    """The l-th rightmost digit of the chosen solution."""
    if l < 1:
        raise ValueError("digit index starts at 1")
    return digit(alpha_value(tag, l), l)


def key_digit(a: int, tag: AlphaTag) -> KeyDigitReport:
    """Locate the first digit (position >= 2) where a differs from the constant.

    The base is read with implied leading zeros, so when a agrees with the
    constant through its full length the search continues until one of the
    implied zeros meets a nonzero digit of the constant.
    """
    if a < 2:
        raise ValueError("base must be >= 2")
    if a % 10 != tag.x1:
        raise ValueError(f"base ends in {a % 10}, {tag} ends in {tag.x1}")
    s = str(a)
    depth = len(s) + 2
    while depth <= 4 * len(s) + 64:
        alpha = alpha_digits(tag, depth).digits
        for l in range(2, depth + 1):
            s_l = int(s[-l]) if l <= len(s) else 0
            a_l = int(alpha[-l])
            if s_l != a_l:
                return KeyDigitReport(l=l, s_l=s_l, diff=s_l - a_l, matched_prefix_len=l - 1)
        depth *= 2
    raise InvariantError(f"no key digit found for {a} against {tag}")
