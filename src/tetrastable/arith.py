"""Exact integer arithmetic under 10^N: p-adic valuations and power towers.

Everything in this module is pure and exact.  Tetration residues are the
ground truth the closed forms elsewhere in the package are checked against.
A tower is walked bottom-up, one height at a time, modulo 2^d and 5^d
separately.  The residues of one height fix the exponent of the next,
because lambda(2^d) = 2^max(d-2, 1) and lambda(5^d) = 4*5^(d-1).  Two
certificates make the pow() step exact:

* generalized Euler: an exponent above p^d (tower_value_capped says when)
  may be replaced by any exponent of at least d congruent to it modulo
  lambda(p^d), whether or not p divides the base (_tower_step);
* fixed point: at d = 2 every step is a function of the two residues, so
  once they repeat they hold at every greater height (tetration_mod_pow10).

On the way up to its target height, tetration_mod_pow10 gains one power
of 5 and two powers of 2 per height, as much as lambda loses.

The oracle's walk (oracle._tower_walk) may instead take a step by the p-adic
exponential, T_(b+2) = T_(b+1) * a^D with D = T_(b+1) - T_b.  Its
certificate (Koblitz, p-adic Numbers, ch. IV):

* exp(m log u) = u^m for every integer m >= 0 and every principal unit u
  (u == 1 mod p, and mod 4 when p = 2).  With p not dividing a and q = 4 at
  p = 5, q = 2 at p = 2, u = a^q is one, so a^D = exp(D log(u)/q) whenever
  q divides D (_unit_log).  exp(x + y) = exp(x) exp(y) and
  exp(y) == 1 (mod p^v_p(y)), so exp(x) mod p^n needs x only mod p^n.
* Legendre: v_p(k!) = (k - s_p(k))/(p-1) <= (k-1)/(p-1), s_p the digit sum.
  So the term x^k/k! has valuation at least k*v - (k-1)/(p-1) when
  v_p(x) >= v > 1/(p-1), which grows with k, and every term past K is 0
  mod p^n once (K+1)*v - K/(p-1) >= n.  _padic_exp sums exactly the terms
  0..K for the least such K (_exp_terms).  None can go: when K is a power
  of p, v_p(x) = v >= 2 and n = K*v - (K-1)/(p-1) + 1, term K has
  valuation n - 1.
* Guard digits: Horner's rule sums x^k * K!/k!, an integer, modulo
  p^(n+e) with e = v_p(K!) <= (K-1)/(p-1); the sum is K! exp(x) up to the
  dropped terms, so it divides exactly by p^e, which leaves n digits, and
  the unit K!/p^e is inverted modulo p^n.
* log(u) = log(u^(p^j))/p^j, and v_p(u^(p^j) - 1) = v_p(u - 1) + j, so the
  series sum of (-1)^(k+1) z^k/k in z = u^(p^j) - 1 needs fewer terms.  Its
  term k has valuation at least k*w - floor(log_p k) with w = v_p(z),
  which does not fall as k grows, and dividing by k loses at most
  floor(log_p K) digits, the guard of _padic_log.
"""
from __future__ import annotations

import math
import sys
from contextlib import contextmanager

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
    return _v2(d) if p == 2 else _vp(d, p)


def _v2(d: int) -> int | float:
    if d == 0:
        return INFINITY
    d = abs(d)
    return (d & -d).bit_length() - 1


def _vp(d: int, p: int) -> int | float:
    # divide out p, p^2, p^4, ... while they divide, then the same powers
    # downwards: O(log v) big divisions, not one per power of p
    if d == 0:
        return INFINITY
    d = abs(d)
    if d % p:
        return 0
    powers = []
    while True:
        q, r = divmod(d, p)
        if r:
            break
        d = q
        powers.append(p)
        p *= p
    v = (1 << len(powers)) - 1
    for i in range(len(powers) - 1, -1, -1):
        q, r = divmod(d, powers[i])
        if not r:
            d = q
            v += 1 << i
    return v


def _v5(d: int) -> int | float:
    return _vp(d, 5)


def _v10(d: int) -> int | float:
    return min(_v2(d), _v5(d))


@contextmanager
def _no_str_digits_limit():
    """Lift CPython's limit on int <-> str conversion, restoring it on exit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


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


def _tower_step(a: int, j: int, p: int, k: int, x2: int, x5: int) -> int:
    """The height-j tower of a modulo p^k (p = 2 or 5, k >= 2), from x2 and
    x5, the height-(j-1) tower modulo 2^c2 and 5^c5 for some c2 >= max(k - 2, 2)
    and, when p = 5, c5 >= k - 1.

    The exponent E (the height-(j-1) tower) goes into pow() as it is when
    tower_value_capped(a, j-1, p^k) knows it.  Otherwise E > p^k and it is
    replaced by an exponent e >= k with e == E modulo lambda(p^k), read off
    x2 and x5: lambda(2^k) = 2^max(k-2, 1) divides 2^c2, and for
    lambda(5^k) = 4*5^(k-1), e = r5 + 5^(k-1)*((x2 - r5) mod 4) with
    r5 = x5 mod 5^(k-1) is E modulo 5^(k-1) and modulo 4, a CRT with no
    inverse since 5^(k-1) == 1 (mod 4).  Then a^E == a^e (mod p^k) by the
    generalized Euler congruence: when p does not divide a,
    a^lambda == 1 (mod p^k); when p divides a, both powers are 0 (mod p^k),
    because both exponents are at least k.
    """
    m = 1 << k if p == 2 else 5**k
    e = tower_value_capped(a, j - 1, m)
    if e is None:
        if p == 2:
            lam = 1 << max(k - 2, 1)
            e = x2 % lam
        else:
            q5 = 5 ** (k - 1)
            r5 = x5 % q5
            e, lam = r5 + q5 * ((x2 - r5) % 4), 4 * q5
        while e < k:
            e += lam
    if e >= k and a % p == 0:
        return 0
    return pow(a, e, m)


def _legendre(k: int, p: int) -> int:
    # v_p(k!) = sum of k // p^i
    e, q = 0, p
    while q <= k:
        e, q = e + k // q, q * p
    return e


def _log_floor(k: int, p: int) -> int:
    # floor(log_p k) for k >= 1
    f = 0
    while k >= p:
        k, f = k // p, f + 1
    return f


def _exp_terms(v: int, n: int, p: int) -> int:
    """Least K with (K+1)*v - K/(p-1) >= n: exp needs the terms 0..K mod p^n."""
    return max(0, -(-(n - v) * (p - 1) // (v * (p - 1) - 1)))


def _padic_exp(x: int, v: int | float, p: int, n: int) -> int:
    """exp(x) mod p^n for an integer x with v_p(x) >= v > 1/(p-1)."""
    if v >= n:
        return 1
    k = _exp_terms(v, n, p)
    e = _legendre(k, p)
    m = p ** (n + e)
    t = c = 1  # Horner on sum x^i * k!/i!, with c = k!/(i-1)! (mod p^(n+e))
    for i in range(k, 0, -1):
        c = c * i % m
        t = (t * x + c) % m
    pe, mn = p**e, p**n
    return t // pe * pow(c // pe, -1, mn) % mn


def _padic_log(u: int, p: int, n: int) -> int:
    """log(u) mod p^n for u == 1 (mod p), and (mod 4) when p = 2."""
    j = math.isqrt(n)
    w = min(_vp(u - 1, p), n) + j  # v_p(u^(p^j) - 1)
    n += j
    k = max(0, -(-n // w) - 1)
    while (k + 1) * w - _log_floor(k + 1, p) < n:
        k += 1
    g = _log_floor(k, p)
    m, mn = p ** (n + g), p**n
    z = pow(u, p**j, m) - 1
    s, zi = 0, 1
    for i in range(1, k + 1):
        zi = zi * z % m
        f = _vp(i, p)
        term = zi // p**f * pow(i // p**f, -1, mn)
        s += term if i % 2 else -term
    return s % mn // p**j


def _unit_log(a: int, p: int, n: int) -> int:
    """log(a^q)/q mod p^n, q = 4 at p = 5 and 2 at p = 2, for p not dividing a.

    a^D == exp(D * _unit_log(a, p, n)) (mod p^n) whenever q divides D.
    """
    if p == 5:
        return _padic_log(a**4, 5, n) * pow(4, -1, 5**n) % 5**n
    return _padic_log(a * a, 2, n + 1) >> 1


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
        y2 = _tower_step(a, j, 2, max(2, n - 2 * (b - j)), x2, x5)
        y5 = _tower_step(a, j, 5, k5, x2, x5)
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
