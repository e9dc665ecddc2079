"""Exact integer arithmetic under 10^N: p-adic valuations and power towers.

Everything in this module is pure and exact.  Tetration residues are the
ground truth the closed forms elsewhere in the package are checked against.
A tower is reduced modulo p^k one prime power at a time: its exponent (the
tower one level lower) is evaluated exactly by tower_value_capped, capped at
p^k itself.  An exponent within the cap goes into pow() as it is; one above
it is reduced modulo the Carmichael lambda of p^k, recursively, and padded
back above the bit length of p^k.  The generalized Euler congruence
certifies that reduction because the true exponent is then at least k (see
_tower_prime_power).
"""
from __future__ import annotations

import math
from functools import lru_cache

INFINITY = math.inf


class InvariantError(RuntimeError):
    """An internal invariant of the package failed: a bug, not a bad input."""


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
    """Number of decimal digits of n >= 0 (1 for n = 0)."""
    return len(str(n)) if n > 0 else 1


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


@lru_cache(maxsize=None)
def _pow5(j: int) -> int:
    return 5**j


@lru_cache(maxsize=4096)
def _inv5(n2: int, n5: int) -> int:
    return pow(_pow5(n5), -1, 1 << n2)


def _lambda_step(n2: int, n5: int) -> tuple[int, int]:
    # Carmichael lambda of 2^n2 * 5^n5, itself of the form 2^l2 * 5^l5:
    # lambda(2^k) = 2^(k-2) for k >= 3 (1, 1, 2 below), lambda(5^k) = 4*5^(k-1).
    if n2 >= 3:
        l2 = n2 - 2
    elif n2 == 2:
        l2 = 1
    else:
        l2 = 0
    if n5 >= 1:
        return max(l2, 2), n5 - 1
    return l2, 0


def _crt25(r2: int, n2: int, r5: int, n5: int) -> int:
    # unique residue mod 2^n2 * 5^n5 from the two prime-power parts
    if n2 == 0:
        return r5
    if n5 == 0:
        return r2
    m5 = _pow5(n5)
    return r5 + m5 * (((r2 - r5) * _inv5(n2, n5)) % (1 << n2))


def _tower_prime_power(a: int, b: int, p: int, k: int, memo: dict) -> int:
    """Height-b tower of a modulo p^k for p in {2, 5}.

    The exponent E (the height-(b-1) tower) is evaluated exactly up to the
    cap p^k.  Within the cap, E goes into pow() as it is: it has at most the
    bit length of p^k, about that of a reduced exponent, and an exponent
    below k is never reduced.  Above the cap, E is replaced by
    E' = (E mod lambda) + lambda*ceil(bits/lambda), with lambda the
    Carmichael lambda of p^k, bits the bit length of p^k, and E mod lambda
    computed by the same recursion one level down.  Then a^E == a^E'
    (mod p^k), by the generalized Euler congruence: E == E' (mod lambda),
    and both exponents are at least k, since E > p^k > k and E' >= bits > k.
    When p does not divide a, a^lambda == 1 (mod p^k).  When p divides a,
    both powers are 0 (mod p^k).
    """
    key = (b, p, k)
    if key in memo:
        return memo[key]
    m = (1 << k) if p == 2 else _pow5(k)
    if m == 1:
        r = 0
    elif b == 1:
        r = a % m
    elif a == 0:
        r = (1 if b % 2 == 0 else 0) % m
    elif a == 1:
        r = 1
    else:
        e = tower_value_capped(a, b - 1, m)
        if e is None:
            bits = m.bit_length()
            l2, l5 = _lambda_step(k, 0) if p == 2 else _lambda_step(0, k)
            lam = (1 << l2) * _pow5(l5)
            e_red = _crt25(
                _tower_prime_power(a, b - 1, 2, l2, memo) if l2 else 0,
                l2,
                _tower_prime_power(a, b - 1, 5, l5, memo) if l5 else 0,
                l5,
            )
            e = e_red + lam * ((bits + lam - 1) // lam)
        r = pow(a, e, m)
    memo[key] = r
    return r


def _tower_mixed(a: int, b: int, n2: int, n5: int, memo: dict) -> int:
    """Height-b tower of a modulo 2^n2 * 5^n5 (CRT of the prime-power parts)."""
    return _crt25(
        _tower_prime_power(a, b, 2, n2, memo) if n2 else 0,
        n2,
        _tower_prime_power(a, b, 5, n5, memo) if n5 else 0,
        n5,
    )


def tetration_mod_pow10(a: int, b: int, ndigits: int, memo: dict | None = None) -> int:
    """Height-b tower of a modulo 10^ndigits.

    A memo dict may be shared across calls with the same base to reuse
    intermediate residues (e.g. when walking consecutive heights).
    """
    if a < 0:
        raise ValueError("base must be nonnegative")
    if b < 1:
        raise ValueError("tower height starts at 1")
    if ndigits < 1:
        raise ValueError("need at least one digit of precision")
    if memo is None:
        memo = {}
    return _tower_mixed(a, b, ndigits, ndigits, memo)


def tetration_mod(a: int, b: int, modulus: int) -> int:
    """Height-b tower of a modulo 10^N; modulus must be a power of ten."""
    if modulus < 10:
        raise ValueError("modulus must be a positive power of 10")
    n = decimal_length(modulus) - 1
    if 10**n != modulus:
        raise ValueError("modulus must be a power of 10")
    return tetration_mod_pow10(a, b, n)
