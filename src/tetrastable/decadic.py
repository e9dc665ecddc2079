"""The fifteen 10-adic solutions of y^5 = y and key-digit location.

A solution is fixed by its 2-adic root and its 5-adic root, which
arith._crt joins modulo 10^n.  Over the 2-adic integers y^5 = y has the
roots 0, 1 and -1; over the 5-adic integers, 0 and the Teichmueller lifts
1, y, -y and -1 of 1..4 mod 5, with y the root of y^4 = 1 that is 2 mod 5.
Each root is its own residue mod 4 or mod 5, so the fifteen solutions have
the fifteen residues r mod 20 with r != 2 (mod 4), and _root(r, n) reads
the 2-adic root off r mod 4 and the 5-adic one off r mod 5, each taken
nearest 0 (+-2 mod 5 stands for +-y).  Their last two digits, the tags,
are computed at import (one CRT each at n = 2, 13 us for all fifteen);
deeper digits only when asked for.  A coprime base is a unit mod 20, so
speed reads its constant off a mod 20.

y is found by Newton's step y -> y - y*(y^4 - 1)/4 from y = 2, which
doubles the digits each time: y stands for y^-3, which it equals wherever
y^4 = 1, and the derivative 4y^3 is a unit mod 5, so by Hensel's lemma the
root is unique mod every 5^j.  Only the six solutions that are 2 or 3 mod 5
need it.  Two solutions are the limits

    e5 = lim 5^(2^k)   (r = 5, tail ...890625)
    t2 = lim 2^(5^k)   (r = 12, tail ...186432)

e5 is 0 mod 5^n once 2^k >= n, and 1 mod 2^n once k >= n-2, as the order
of 5 modulo 2^n divides 2^max(n-2, 0).  t2 is 0 mod 2^n once 5^k >= n, and
x = 2^(5^k) has x^4 = 1 (Euler) and x = 2 mod 5 (Fermat) mod 5^(k+1), so it
is y there.

A base agrees with a constant in its last j digits exactly when 10^j divides
their difference, so key_digit reads the first disagreement off a valuation.
"""
from __future__ import annotations

from collections import namedtuple

from .arith import _crt, _no_str_digits_limit, _v2, _v5, digit


def _centered(r: int, m: int) -> int:
    """The residue of r mod m nearest 0."""
    return (r + m // 2) % m - m // 2


def _root(r: int, n: int) -> int:
    """The solution of y^5 = y that is r mod 20 (r != 2 mod 4), modulo 10^n."""
    five = _centered(r, 5)
    if abs(five) == 2:  # r == 2, 3 (mod 5): the root is +-y
        y, k = 2, 1
        while k < n:
            k = min(2 * k, n)
            m = 5**k
            y = (y - y * (pow(y, 4, m) - 1) * pow(4, -1, m)) % m
        five = five // 2 * y
    return _crt(_centered(r, 4), five, n)


# (x2, x1) -> the residue mod 20 of the solution ending in x2x1
_RESIDUE = {divmod(_root(r, 2), 10): r for r in range(20) if r % 4 != 2}


class AlphaTag(namedtuple("AlphaTag", "x2 x1")):
    """One of the fifteen solutions, identified by its last two digits."""

    __slots__ = ()

    def __new__(cls, x2: int, x1: int) -> "AlphaTag":
        if (x2, x1) not in _RESIDUE:
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


ALPHA_TAGS = tuple(AlphaTag(x2, x1) for (x2, x1) in sorted(_RESIDUE, key=lambda t: (t[1], t[0])))
# residue mod 20 -> the tag of the solution that is congruent to it
_TAG_MOD20 = {_RESIDUE[tag]: tag for tag in ALPHA_TAGS}


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
    return _root(_RESIDUE[tag], n)


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
    is its 2-adic root, one of -1, 0, 1, so v2 of the difference is
    v2(a - root), finite for a >= 2.  v5 is read at depths k = 32, 64, ...
    until it falls below k or k passes v2; then l = min(v2, v5) + 1 <= k.
    """
    if a < 2:
        raise ValueError("base must be >= 2")
    if a % 10 != tag.x1:
        raise ValueError(f"base ends in {a % 10}, {tag} ends in {tag.x1}")
    v2 = _v2(a - _centered(_RESIDUE[tag], 4))
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
