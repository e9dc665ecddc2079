"""Exact integer arithmetic under 10^N: p-adic valuations and power towers.

Everything in this module is pure and exact.  Tetration residues are the
ground truth the closed forms elsewhere in the package are checked against.

One walk (_tower_walk) serves both the oracle and tetration_mod_pow10.  It
goes up the tower of a one height at a time at one precision n, modulo 2^n
and 5^n separately, and yields each height T_b as soon as it is known,
together with the valuations of D = T_b - T_(b-1) and, while T_b <= 10^n,
T_b itself.  At each prime p the next height T_(b+1) = a^(T_b) = T_b * a^D
comes from one of three steps:

* 0, when p divides a and T_b >= n;
* pow() with the exact exponent T_b, while T_b <= p^n: it is short and
  needs no certificate;
* above p^n, at a prime not dividing a, the p-adic exponential, once D has
  a high enough valuation (_EXP_GATE).  At 2 that is every height: a is
  odd, so every T_b is odd, 2 divides every D, and the series starts at
  valuation v_2(D) + v_2(a^2 - 1) - 1 >= 3.  At 5 below the gate, pow()
  takes T_b modulo lambda(5^n) = 4*5^(n-1), which a^lambda == 1 (mod 5^n)
  allows.

The exponential step takes a^D as exp(D log(a^q)/q).  Its certificate
(Koblitz, p-adic Numbers, ch. IV):

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
* When K = 1, exp(x) is 1 + x mod p^n, with no Horner loop and no inverse.

The walk reads every v_p(D) off the residues it computed.  After an exp
step at 5 it first tests the value the isometry predicts for the next
difference D', h = v5(D) + w5 (exp(x) - 1 has the valuation of x): h is
taken only when h < n, 5^h divides D' mod 5^n and 5^(h+1) does not;
otherwise _vp finds the valuation.

tetration_mod_pow10 stops the walk at the first height whose D is 0 modulo
10^n: from there on every taller tower has the same n digits (the proof is
in its docstring).  _crt joins the residues modulo 2^n and 5^n, there and
for decadic's constants.
"""
from __future__ import annotations

import math
import sys
import threading
from contextlib import contextmanager

INFINITY = math.inf
# the largest precision, in digits, of the oracle's one pass; it and the
# errors below live here so that cli can use them without importing the oracle
DEFAULT_BUDGET = 8192
_LIFT_LOCK = threading.Lock()
_lift = [0, 0]  # callers inside _no_str_digits_limit, and the limit the first one saved


class InvariantError(RuntimeError):
    """An internal invariant of the package failed: a bug, not a bad input."""


class TowerNotRepresentable(ValueError):
    """The tower is too tall for an exact digit count to be certified."""


class NeedsLargerBudget(RuntimeError):
    """Raised when the requested count cannot be certified within the digit budget."""

    def __init__(self, a: int, b: int, budget: int):
        super().__init__(f"stable digits of {_tower_of(a, b)} exceed the {budget}-digit budget")
        self.a = a
        self.b = b
        self.budget = budget


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the first 13 primes: exact below 3.3*10^24 (OEIS A014233)."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    s = _v2(p - 1)
    for q in _MR_BASES:
        x = pow(q, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def padic_valuation(d: int, p: int) -> int | float:
    """Largest q with p^q dividing |d|; INFINITY when d = 0.

    Raises ValueError unless p is prime; past 3.3*10^24 a strong probable
    prime to the bases of _is_prime is taken as one.
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
    """Lift CPython's limit on int <-> str conversion, process-wide while any caller
    in any thread is inside: the first entry saves and lifts it, the last exit restores it."""
    with _LIFT_LOCK:
        if not _lift[0]:
            _lift[1] = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
        _lift[0] += 1
    try:
        yield
    finally:
        with _LIFT_LOCK:
            _lift[0] -= 1
            if not _lift[0]:
                sys.set_int_max_str_digits(_lift[1])


def _tower_of(a: int, b: int) -> str:
    """'the height-b tower of a' for an error message, whatever the length of a."""
    with _no_str_digits_limit():
        return f"the height-{b} tower of {a}"


def digit(a: int, j: int) -> int:
    """j-th rightmost decimal digit of a >= 0 (j >= 1); 0 past the most significant."""
    if a < 0 or j < 1:
        raise ValueError("need a >= 0 and a digit index j >= 1")
    return (a // 10 ** (j - 1)) % 10


def decimal_length(n: int) -> int:
    """Number of decimal digits of n >= 0 (1 for n = 0), without str().

    x = log10(n) is read off the top 64 bits and the shift; the floats carry
    an error below 4e-15 + 4e-16*x.  Only when x is within 1e-9*x of an
    integer k is the floor in doubt, and then n is compared with 10**k.
    """
    if n < 10:
        return 1
    shift = n.bit_length() - 64
    x = math.log10(n >> shift) + shift * 0.30102999566398120 if shift > 0 else math.log10(n)
    k = int(x + 0.5)
    if -1e-9 * x <= x - k <= 1e-9 * x:
        return k + (n >= 10**k)
    return int(x) + 1


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
    # 2 in 5 exp steps on tall-towers have K = 1; the Horner setup there costs about 3% of the walk
    if k == 1:  # x^2/2 and every later term are 0 mod p^n
        return (1 + x) % p**n
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

    a^D == exp(D * _unit_log(a, p, n)) (mod p^n) whenever q divides D.  Only
    a^q modulo p^(n+1) (p^(n+2) at 2, where q halves the log) is taken: for
    u' == u (mod p^k), log(u') - log(u) = log(u'/u) has valuation at least k.
    """
    if p == 5:
        return _padic_log(pow(a, 4, 5 ** (n + 1)), 5, n) * pow(4, -1, 5**n) % 5**n
    return _padic_log(pow(a, 2, 1 << (n + 2)), 2, n + 1) >> 1


def _slope(a: int, p: int, cap: int | float = INFINITY) -> int | float | None:
    """The walk's slope at p, w2 = v2(a^2 - 1) - 1 or w5 = v5(a^4 - 1), None
    when p divides a.

    Exact when at most cap and INFINITY above.  It is read off a^q modulo
    p^(k+1+v_p(q)), q = 2 at 2 and 4 at 5, with k = 32, 64, 128, ... up to
    cap until the residue is not 1: a long base is reduced before it is
    raised, and the cost follows min(w, cap).
    """
    if a % p == 0:
        return None
    q, g, vp = (2, 1, _v2) if p == 2 else (4, 0, _v5)
    k = min(32, cap)
    while True:
        w = vp(pow(a, q, p ** (k + 1 + g)) - 1) - g  # exact when at most k
        if w < INFINITY or k >= cap:
            return w
        k = min(2 * k, cap)


def speed_bound(a: int) -> int:
    """The walk's slope at 5, w5 = v5(a^4 - 1), or at 2, w2 = v2(a^2 - 1) - 1,
    when 5 divides a: an upper bound for V(a), equal to it off the key-digit
    cases (speed explains why)."""
    if a < 2 or a % 10 == 0:
        raise ValueError("defined for a >= 2 with a not a multiple of 10")
    return _slope(a, 5 if a % 5 else 2)


def _difference_valuation(a: int, b: int, cap: int | float = INFINITY) -> int | float:
    """v10(D_b), D_b = T_b - T_(b-1) with T_0 = 1, for a >= 2 not a multiple
    of 10: exact when at most cap, INFINITY above.  D_1 = a - 1 and
    D_(b+1) = T_b*(a^D_b - 1), so at each prime p:

    * p does not divide a.  By the lifting-the-exponent lemma, with the slope
      w_p of _slope, v_p(a^D - 1) = v_p(D) + w_p when 2^k divides D, and at 5
      it is 0 otherwise; k = 1 at 2, and at 5 ord_5(a) = 2^k, k = 0, 1, 2 as
      a == 1, 4, +-2 (mod 5) (a^ord - 1 has the valuation of a^4 - 1).
      v_2(D_b) never falls: from v_2(a - 1) it rises by w_2 when a is odd, and
      runs 0, v_2(a), T_(b-2)*v_2(a) >= 2 when a is even.  So v_p(D_b) =
      v_p(a - 1) + max(0, b - c)*w_p, with c = 1 at 2 and, at 5, c <= 3 the
      first height whose v_2(D) reaches k; below it v_5(D_b) = 0 = v_5(a - 1).
    * p divides a.  a^D - 1 is a unit at p, so v_p(D_1) = 0 and
      v_p(D_b) = v_p(T_(b-1)) = T_(b-2)*v_p(a), read up to the other prime's
      value, as only the least of the two is needed.
    """
    w2, w5 = _slope(a, 2, cap), _slope(a, 5, cap)
    k = {1: 0, 4: 1}.get(a % 5, 2)  # ord_5(a) = 2^k
    c5 = 1 if _v2(a - 1) >= k else 2 if (_v2(a - 1) + w2 if a % 2 else _v2(a)) >= k else 3
    lines = [v0 + (b - c) * w if b > c else v0
             for v0, c, w in ((_v2(a - 1), 1, w2), (_v5(a - 1), c5, w5)) if w is not None]
    v = min(lines)
    if len(lines) == 1:  # at the prime that divides a
        vp = _v2(a) if w2 is None else _v5(a)
        t = tower_value_capped(a, b - 2, min(v, cap) // vp) if b > 1 else 0
        v = v if t is None else min(v, t * vp)
    return v if v <= cap else INFINITY


# the least valuation of D * log at which the exp series beats pow(): at
# valuation 1 it has about 4n/3 terms at 5 and costs as much as pow()
_EXP_GATE = 2


def _tower_walk(a: int, n: int):
    """Yield (x2, x5, v2, v5, t) for b = 1, 2, ...: the height-b tower T_b of
    a modulo 2^n and 5^n (n >= 2), the valuations of D = T_b - T_(b-1),
    where T_0 = 1 is the empty tower, and T_b itself while T_b <= 10^n
    (None above).

    T_(b+1) = a^(T_b) = T_b * a^D.  At a prime p not dividing a, a^D is
    exp(D * l) with l = _unit_log(a, p, n) whenever q divides D, q = 4 at 5
    and 2 at 2.  v_p(l) = w is v_p(a^q - 1) - v_p(q), since log is an
    isometry on principal units, so the series starts at valuation
    v_p(D) + w and gets shorter as the counts grow.  w is read by _slope
    with cap n: above n it reads as infinite, and rightly so, since w >= n
    makes D * l == 0 and exp(D * l) == 1 (mod p^n).
    Its log is computed the first time a height takes the exp step.
    """
    m2, m5 = 1 << n, 5**n
    m10 = m2 * m5
    x2 = x5 = 1
    y2, y5 = a % m2, a % m5
    t = a if a <= m10 else None
    w2, w5 = _slope(a, 2, n), _slope(a, 5, n)
    log2 = log5 = None
    h5 = INFINITY  # v5 of the next D, when an exp step at 5 predicts it
    b = 1
    while True:
        d2, d5 = (y2 - x2) % m2, (y5 - x5) % m5
        v2 = _v2(d2)
        # one divmod in place of _v5's ladder: dropping it slows tall-towers' walk by about 15%
        if h5 < n:
            q, r = divmod(d5, 5**h5)
            v5 = h5 if not r and q % 5 else _v5(d5)
        else:
            v5 = _v5(d5)
        h5 = INFINITY
        yield y2, y5, v2, v5, t
        if w2 is None and (t is None or t >= n):  # 2 divides a
            z2 = 0
        elif t is not None and t <= m2:
            z2 = pow(a, t, m2)
        else:  # a odd: every T_b is odd, so 2 divides D, and v2 + w2 >= 3
            if log2 is None:
                log2 = _unit_log(a, 2, n)
            z2 = y2 * _padic_exp(d2 * log2 % m2, v2 + w2, 2, n) % m2
        if w5 is None and (t is None or t >= n):  # 5 divides a
            z5 = 0
        elif t is not None and t <= m5:
            z5 = pow(a, t, m5)
        elif v2 >= 2 and v5 + w5 >= _EXP_GATE:
            if log5 is None:
                log5 = _unit_log(a, 5, n)
            h5 = v5 + w5
            z5 = y5 * _padic_exp(d5 * log5 % m5, h5, 5, n) % m5
        else:
            # T_b modulo lambda(5^n) = 4*5^(n-1): r5 + q5*((y2 - r5) mod 4) is T_b
            # modulo q5 = 5^(n-1) and modulo 4, a CRT with no inverse as q5 == 1 (mod 4)
            q5 = m5 // 5
            r5 = y5 % q5
            z5 = pow(a, r5 + q5 * ((y2 - r5) % 4), m5)
        x2, x5, y2, y5 = y2, y5, z2, z5
        b += 1
        if t is not None:
            t = tower_value_capped(a, b, m10)


def _crt(x2: int, x5: int, n: int) -> int:
    """The residue modulo 10^n that is x2 modulo 2^n and x5 modulo 5^n."""
    m2, m5 = 1 << n, 5**n
    x5 %= m5
    return x5 + m5 * ((x2 - x5) * pow(m5, -1, m2) % m2)


def tetration_mod_pow10(a: int, b: int, ndigits: int, memo: dict | None = None) -> int:
    """Height-b tower of a modulo 10^ndigits.

    A memo dict shared across calls keeps the live walk for each base and
    precision, so walking consecutive heights costs one step each.

    The walk runs at N = max(ndigits, 2) digits and stops at the first
    height b0 with 10^N dividing D = T_b0 - T_(b0-1): every taller tower is
    T_b0 modulo 10^N.  Each prime p keeps p^N dividing the next difference
    D' = T_(b0+1) - T_b0 = T_b0 * (a^D - 1), so by induction 10^N divides
    every later one:

    * p does not divide a: lambda(p^N) divides 10^N (N >= 2), so it divides
      D, a^D == 1 (mod p^N), and p^N divides D';
    * p divides a: v_p(T_b) = T_(b-1) * v_p(a) rises with b, so
      v_p(D) = v_p(T_(b0-1)) >= N, and T_b0 and every taller tower are
      0 (mod p^N).
    """
    if a < 0:
        raise ValueError("base must be nonnegative")
    if b < 1:
        raise ValueError("tower height starts at 1")
    if ndigits < 1:
        raise ValueError("need at least one digit of precision")
    if a < 2:  # the towers of 0 alternate and never stop
        return tower_value_capped(a, b, 1) % 10**ndigits
    n = max(ndigits, 2)
    state = memo.get((a, n)) if memo is not None else None
    if state is None or state[0] > b:
        state = 0, 0, 0, _tower_walk(a, n)
    j, x2, x5, walk = state
    while j < b and walk is not None:
        x2, x5, v2, v5, _ = next(walk)
        j += 1
        if v2 >= n and v5 >= n:
            walk = None
    if memo is not None:
        memo[(a, n)] = j, x2, x5, walk
    return _crt(x2, x5, ndigits)
