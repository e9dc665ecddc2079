"""Exact integer arithmetic under 10^N: p-adic valuations and power towers.

Everything in this module is pure and exact.  Tetration residues are the
ground truth the closed forms elsewhere in the package are checked against.
A tower is walked bottom-up, one height at a time, modulo 2^d and 5^d
separately, with one pow() per prime per height (_tower_step).  The
residues of one height fix the exponent of the next, because
lambda(2^d) = 2^max(d-2, 1) and lambda(5^d) = 4*5^(d-1).  Two certificates
make the walk exact:

* generalized Euler: an exponent above p^d (tower_value_capped says when)
  may be replaced by any exponent of at least d congruent to it modulo
  lambda(p^d), whether or not p divides the base (_tower_step);
* fixed point: at d = 2 every step is a function of the two residues, so
  once they repeat they hold at every greater height (tetration_mod_pow10).

On the way up to its target height, tetration_mod_pow10 gains one power
of 5 and two powers of 2 per height, as much as lambda loses.
"""
from __future__ import annotations

import math

INFINITY = math.inf


class InvariantError(RuntimeError):
    """An internal invariant of the package failed: a bug, not a bad input."""


class TowerNotRepresentable(ValueError):
    """The tower is too tall for an exact digit count to be certified."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def padic_valuation(d: int, p: int) -> int | float:
    """Largest q with p^q dividing |d|; INFINITY when d = 0.

    Raises ValueError unless p is prime.
    """
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if d == 0:
        return INFINITY
    d = abs(d)
    if p == 2:
        return ((d & -d).bit_length()) - 1
    q = 0
    while d % p == 0:
        d //= p
        q += 1
    return q


def _v2(d: int) -> int | float:
    if d == 0:
        return INFINITY
    d = abs(d)
    return (d & -d).bit_length() - 1


def _v5(d: int) -> int | float:
    if d == 0:
        return INFINITY
    d = abs(d)
    q = 0
    while d % 5 == 0:
        d //= 5
        q += 1
    return q


def _v10(d: int) -> int | float:
    return min(_v2(d), _v5(d))


def digit(a: int, j: int) -> int:
    """j-th rightmost decimal digit of a (j >= 1); 0 past the most significant."""
    if j < 1:
        raise ValueError("digit index starts at 1")
    return (a // 10 ** (j - 1)) % 10


def decimal_length(n: int) -> int:
    """Number of decimal digits of n >= 0 (1 for n = 0), without str().

    2^(bits-1) <= n gives the estimate k <= log10(n); powers of ten correct it.
    """
    if n < 10:
        return 1
    k = int((n.bit_length() - 1) * 0.30102999566398120)
    p = 10**k
    while p > n:
        k, p = k - 1, p // 10
    while p * 10 <= n:
        k, p = k + 1, p * 10
    return k + 1


def tower_value_capped(a: int, b: int, cap: int) -> int | None:
    """Exact value of the height-b tower of a when it is <= cap, else None.

    Height 0 is the empty tower (= 1).  The zero base follows the limit
    convention: height-b tower of 0 is 1 for even b and 0 for odd b.
    """
    if a < 0 or b < 0 or cap < 0:
        raise ValueError("nonnegative arguments required")
    if b == 0:
        return 1 if cap >= 1 else None
    if a == 0:
        v = 1 if b % 2 == 0 else 0
        return v if v <= cap else None
    if a == 1:
        return 1 if cap >= 1 else None
    v = a
    for _ in range(b - 1):
        # a^v >= 2^((bitlen(a)-1) * v) already exceeds cap => bail cheaply
        if (a.bit_length() - 1) * v > cap.bit_length():
            return None
        v = a**v
        if v > cap:
            return None
    return v if v <= cap else None


def _tower_step(a: int, j: int, k2: int, k5: int, x2: int, x5: int) -> tuple[int, int]:
    """The height-j tower of a modulo 2^k2 and 5^k5 (k2, k5 >= 2), from x2
    and x5, the height-(j-1) tower modulo 2^c2 and 5^c5 for some
    c2 >= max(k2 - 2, 2) and c5 >= k5 - 1.

    Modulo each p^k the exponent E (the height-(j-1) tower) goes into pow()
    as it is when tower_value_capped(a, j-1, p^k) knows it.  Otherwise
    E > p^k and it is replaced by an exponent e >= k with e == E modulo
    lambda(p^k), read off x2 and x5: lambda(2^k) = 2^max(k-2, 1) divides
    2^c2, and for lambda(5^k) = 4*5^(k-1), e = r5 + 5^(k-1)*((x2 - r5) mod 4)
    with r5 = x5 mod 5^(k-1) is E modulo 5^(k-1) and modulo 4, a CRT with no
    inverse since 5^(k-1) == 1 (mod 4).  Then a^E == a^e (mod p^k) by the
    generalized Euler congruence: when p does not divide a,
    a^lambda == 1 (mod p^k); when p divides a, both powers are 0 (mod p^k),
    because both exponents are at least k.
    """
    m2, q5 = 1 << k2, 5 ** (k5 - 1)
    m5 = 5 * q5
    e2 = tower_value_capped(a, j - 1, m2)
    e5 = tower_value_capped(a, j - 1, m5)
    if e2 is None:
        lam = 1 << max(k2 - 2, 1)
        e2 = x2 % lam
        while e2 < k2:
            e2 += lam
    if e5 is None:
        r5 = x5 % q5
        e5 = r5 + q5 * ((x2 - r5) % 4)
        while e5 < k5:
            e5 += 4 * q5
    return pow(a, e2, m2), pow(a, e5, m5)


def tetration_mod_pow10(a: int, b: int, ndigits: int, memo: dict | None = None) -> int:
    """Height-b tower of a modulo 10^ndigits.

    A memo dict shared across calls keeps the last tower computed for each
    base and precision, so walking consecutive heights costs one step each.

    The walk computes height j modulo 2^max(2, n - 2(b - j)) and
    5^max(2, n - (b - j)), n = ndigits: its exponent is needed only modulo
    lambda(2^k) = 2^max(k - 2, 1) and lambda(5^k) = 4*5^(k - 1), which the
    residues of height j - 1 determine (see _tower_step).  In the flat
    stretch modulo 4 and 25 it jumps on a fixed point.  There every exponent
    of a tower of a >= 2 is at least 2, so each step gives what the reduced
    exponent gives, a function of (x2, x5) alone.  So once a step leaves
    (x2, x5) unchanged, every greater height in the stretch has the same
    residues, and the walk skips to the last of them.
    """
    if a < 0:
        raise ValueError("base must be nonnegative")
    if b < 1:
        raise ValueError("tower height starts at 1")
    if ndigits < 1:
        raise ValueError("need at least one digit of precision")
    if a < 2:  # the towers of 0 alternate and never reach a fixed point
        return tower_value_capped(a, b, 1) % 10**ndigits
    n = ndigits
    last = memo.get((a, n)) if memo is not None else None
    if last and last[0] <= b:
        j, x2, x5 = last
    else:
        j, x2, x5 = 1, a % (1 << max(n, 2)), a % 5 ** max(n, 2)
    while j < b:
        j += 1
        k5 = max(2, n - (b - j))
        y2, y5 = _tower_step(a, j, max(2, n - 2 * (b - j)), k5, x2, x5)
        if k5 == 2 and (y2, y5) == (x2, x5):
            j = max(j, b - n + 2)
        x2, x5 = y2, y5
    if memo is not None:
        memo[(a, n)] = (b, x2, x5)
    m2, m5 = 1 << n, 5**n
    x2, x5 = x2 % m2, x5 % m5
    return x5 + m5 * ((x2 - x5) * pow(m5, -1, m2) % m2)


def tetration_mod(a: int, b: int, modulus: int) -> int:
    """Height-b tower of a modulo 10^N; modulus must be a power of ten."""
    if modulus < 10:
        raise ValueError("modulus must be a positive power of 10")
    n = decimal_length(modulus) - 1
    if 10**n != modulus:
        raise ValueError("modulus must be a power of 10")
    return tetration_mod_pow10(a, b, n)
