"""The fifteen 10-adic solutions of y^5 = y and key-digit location.

Two primitive limits generate everything:

    e5 = lim 5^(2^k)   (the nontrivial idempotent, tail ...890625)
    t2 = lim 2^(5^k)   (tail ...186432)

Modulo 10^n each is fixed by its residues modulo 2^n and 5^n, which
arith._crt recombines:

* e5 is 1 mod 2^n and 0 mod 5^n.  Once 2^k >= n, 5^(2^k) is 0 mod 5^n; once
  k >= n-2 it is 1 mod 2^n, because the order of 5 modulo 2^n divides
  2^max(n-2, 0).  So the sequence is constant mod 10^n from there on.
* t2 is 0 mod 2^n, and mod 5^n it is the root y of y^4 = 1 that is 2 mod 5,
  the Teichmueller lift of 2.  Once 5^k >= n, 2^(5^k) is 0 mod 2^n.
  Mod 5^(k+1), x = 2^(5^k) has x^4 = 2^(4*5^k) = 1 (Euler) and x = 2 mod 5
  (Fermat).  The derivative 4y^3 of y^4 - 1 is a unit mod 5, so by Hensel's
  lemma that root is unique mod every 5^j, and x is it mod 5^(k+1).
  Newton's step y -> y - y*(y^4 - 1)/4 finds it: y stands for y^-3, which
  it equals wherever y^4 = 1, so each step doubles the digits.

Every solution of y^5 = y in the 10-adic integers is an integer combination
c1 + ce*e5 + ct*t2; the table below lists all fifteen, indexed by their last
two digits.  Their fifteen residues mod 20 differ, since mod 4 each is 0
or +-1 (its 2-adic root) and mod 5 it is 0 or a distinct Teichmueller lift
(its 5-adic root), so speed reads a coprime base's constant off a mod 20.
Such a combination is c1 + ce mod 2^n and c1 + ct*y mod 5^n, so
alpha_value builds any of them, e5 (alpha_25) and t2 (alpha_32) included,
with one CRT, and lifts y only when ct is not 0.  Nothing is computed at
import.  Note the combination for alpha_51 is 1 - 2*e5 (its printed tail
...218751 confirms this; 1 - 2*t2 does not solve y^5 = y).

A base agrees with a constant in its last j digits exactly when 10^j divides
their difference, so key_digit reads the first disagreement off a valuation.
"""
from __future__ import annotations

from collections import namedtuple

from .arith import _crt, _no_str_digits_limit, _v2, _v5, digit

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


class AlphaTag(namedtuple("AlphaTag", "x2 x1")):
    """One of the fifteen solutions, identified by its last two digits."""

    __slots__ = ()

    def __new__(cls, x2: int, x1: int) -> "AlphaTag":
        if (x2, x1) not in _COMBINATIONS:
            raise ValueError(f"no 10-adic solution of y^5=y ends in ...{x2}{x1}")
        return super().__new__(cls, x2, x1)

    @classmethod
    def _make(cls, iterable) -> "AlphaTag":  # so _replace checks the tag too
        return cls(*iterable)

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


class AlphaDigits(namedtuple("AlphaDigits", "tag n digits")):
    """n trailing digits (most significant left) of one solution."""

    __slots__ = ()

    @property
    def value(self) -> int:
        with _no_str_digits_limit():
            return int(self.digits)


KeyDigitReport = namedtuple("KeyDigitReport", "l s_l diff")
KeyDigitReport.__doc__ = "First position where a base departs from its associated constant."


def _digits(x: int, n: int) -> str:
    with _no_str_digits_limit():
        return str(x).rjust(n, "0")


def idempotent_e5(n: int) -> str:
    """n trailing digits of lim 5^(2^n), the solution of x^2 = x ending in 5.

    Satisfies e5 == 1 (mod 2^n) and e5 == 0 (mod 5^n).
    """
    return alpha_digits(AlphaTag(2, 5), n).digits


def two_tower_t2(n: int) -> str:
    """n trailing digits of lim 2^(5^n)."""
    return alpha_digits(AlphaTag(3, 2), n).digits


def alpha_value(tag: AlphaTag, n: int) -> int:
    if n < 1:
        raise ValueError("depth must be >= 1")
    c1, ce, ct = _COMBINATIONS[tag]
    y = 0
    if ct:  # Newton for y^4 = 1 from y = 2 (mod 5); y^-3 = y wherever y^4 = 1
        y, k = 2, 1
        while k < n:
            k = min(2 * k, n)
            m = 5**k
            y = (y - y * (pow(y, 4, m) - 1) * pow(4, -1, m)) % m
    return _crt(c1 + ce, c1 + ct * y, n)


def alpha_digits(tag: AlphaTag, n: int) -> AlphaDigits:
    """n trailing digits of the chosen solution, most significant left."""
    return AlphaDigits(tag=tag, n=n, digits=_digits(alpha_value(tag, n), n))


def alpha_digit_at(tag: AlphaTag, l: int) -> int:
    """The l-th rightmost digit of the chosen solution."""
    if l < 1:
        raise ValueError("digit index starts at 1")
    return digit(alpha_value(tag, l), l)


def key_digit(a: int, tag: AlphaTag) -> KeyDigitReport:
    """Locate the first digit (position >= 2) where a differs from the constant.

    The base is read with implied leading zeros, so when a agrees with the
    constant through its full length the search continues until one of the
    implied zeros meets a nonzero digit of the constant.  At 2 the constant
    is the integer c1 + ce, one of -1, 0, 1, so v2 of the difference is
    v2(a - c1 - ce), finite for a >= 2.  v5 is read at depths k = 32, 64, ...
    until it falls below k or k passes v2; then l = min(v2, v5) + 1 <= k.
    """
    if a < 2:
        raise ValueError("base must be >= 2")
    if a % 10 != tag.x1:
        raise ValueError(f"base ends in {a % 10}, {tag} ends in {tag.x1}")
    c1, ce, _ = _COMBINATIONS[tag]
    v2 = _v2(a - c1 - ce)
    k = 32
    while True:
        alpha = alpha_value(tag, k)
        v5 = _v5((a - alpha) % 5**k)
        if v5 < k or k > v2:
            break
        k *= 2
    l = min(v2, v5) + 1
    s_l = digit(a, l)
    return KeyDigitReport(l=l, s_l=s_l, diff=s_l - digit(alpha, l))
