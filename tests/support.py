"""Shared frozen expectations and independent oracles for the test suite.

Nothing here goes through the production tower evaluator or the package's
roots: valuations are naive division loops, towers are exact integers, and
the fifth-power fixed points are enumerated by branch-and-prune lifting,
iterated to a fixed point, or built by the CRT from their 2-adic and 5-adic
roots.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

# Trailing digits of the fifteen 10-adic solutions of y^5 = y, keyed by the
# last-two-digit tag.  Frozen reference data (verified fixed points of x^5).
PRINTED_ALPHA = {
    "00": "00000000000000000000",
    "01": "0000000000000000000000000000000000000000000000000000000000000000001",
    "51": "0219875666980838272377998885153153538207781991786760045215487480163574218751",
    "32": "0275906862593839649523223304553032451441224165530407839804103263499879186432",
    "93": "9614155303915741214287777252870390779454884838576212137588152996418333704193",
    "43": "9834030970896579486665776138023544317662666830362972182803640476581907922943",
    "24": "9890062166509580863811000557423423230896109004106619977392256259918212890624",
    "25": "9890062166509580863811000557423423230896109004106619977392256259918212890625",
    "75": "0109937833490419136188999442576576769103890995893380022607743740081787109375",
    "76": "0109937833490419136188999442576576769103890995893380022607743740081787109376",
    "07": "0385844696084258785712222747129609220545115161423787862411847003581666295807",
    "57": "0165969029103420513334223861976455682337333169637027817196359523418092077057",
    "68": "9724093137406160350476776695446967548558775834469592160195896736500120813568",
    "49": "9780124333019161727622001114846846461792218008213239954784512519836425781249",
    "99": "99999999999999999999999999999999999999999999999999999999999999",
}


def naive_valuation(d: int, p: int) -> int | float:
    if d == 0:
        return math.inf
    d = abs(d)
    q = 0
    while d % p == 0:
        d //= p
        q += 1
    return q


def naive_slopes(a: int) -> tuple[int | float | None, int | float | None]:
    """(w2, w5) = (v2(a^2 - 1) - 1, v5(a^4 - 1)) by naive division of the
    powers themselves; None at a prime dividing a."""
    return (naive_valuation(a * a - 1, 2) - 1 if a % 2 else None,
            naive_valuation(a**4 - 1, 5) if a % 5 else None)


def _to_residue(q: Fraction, p: int, n: int) -> int:
    """A p-integral rational modulo p^n."""
    m = p**n
    if q.denominator % p == 0:
        raise ValueError(f"{q} is not {p}-integral")
    return q.numerator * pow(q.denominator, -1, m) % m


def series_exp(x: int, p: int, n: int) -> int:
    """exp(x) mod p^n for v_p(x) >= 1 (>= 2 when p = 2), from the series in
    exact rationals, with 2n + 10 terms: term k has valuation at least
    k - (k-1)/(p-1) (p = 5) or 2k - (k-1) (p = 2), far past n by then."""
    s, term = Fraction(0), Fraction(1)
    for k in range(1, 2 * n + 11):
        s += term
        term = term * x / k
    return _to_residue(s, p, n)


def series_log(u: int, p: int, n: int) -> int:
    """log(u) mod p^n for u == 1 mod p (mod 4 when p = 2), from the series in
    z = u - 1 in exact rationals, with 2n + 20 terms: term k has valuation at
    least k - log_p(k) (p = 5) or 2k - log_2(k) (p = 2)."""
    z = u - 1
    s, zk = Fraction(0), 1
    for k in range(1, 2 * n + 21):
        zk *= z
        s += Fraction((-1) ** (k + 1) * zk, k)
    return _to_residue(s, p, n)


def exact_tower(a: int, b: int) -> int:
    """The height-b tower of a as an exact integer (small inputs only)."""
    if a == 0:
        return 1 if b % 2 == 0 else 0
    v = a
    for _ in range(b - 1):
        v = a**v
    return v


def trailing_match(x: int, y: int) -> int:
    """Number of common trailing decimal digits of x and y."""
    n = 0
    while x % 10 == y % 10:
        x //= 10
        y //= 10
        n += 1
        if x == 0 and y == 0:
            break
    return n


def reference_digit_count(a: int, e: int) -> int:
    """Digits of a^e, floor(e*log10(a)) + 1, by mpmath at 100 digits.

    Both the log and the floor run inside workdps(100), and the floor is
    trusted only when e*log10(a) is more than 10^-60 from an integer.
    """
    import mpmath

    with mpmath.workdps(100):
        t = e * mpmath.log10(a)
        f = mpmath.floor(t)
        assert mpmath.mpf(10) ** -60 < t - f < 1 - mpmath.mpf(10) ** -60, (a, e)
        return int(f) + 1


def _tower_below(a: int, b: int, cap: int) -> int | None:
    """The height-b tower of a when it is below cap, else None."""
    if a < 2:
        v = exact_tower(a, b)
        return v if v < cap else None
    v = 1
    for _ in range(b):  # towers of a >= 2 grow with height
        if (a.bit_length() - 1) * v >= cap.bit_length():
            return None  # a^v >= 2^bitlen(cap) > cap, without computing a^v
        v = a**v
        if v >= cap:
            return None
    return v


def lambda_tower_mod(a: int, b: int, m: int) -> int:
    """The height-b tower of a modulo m = 2^x * 5^y, by the textbook recursion.

    With t = max(x, y), an exponent E >= t may be replaced by any e >= t with
    e == E modulo the Carmichael lambda of m; here e = (E mod lambda) +
    t*lambda, with E mod lambda from the same recursion.  An exponent below t
    is used exactly.
    """
    x, y = naive_valuation(m, 2), naive_valuation(m, 5)
    if 2**x * 5**y != m:
        raise ValueError(f"{m} is not of the form 2^x * 5^y")
    if b == 1 or m == 1:
        return a % m
    t = max(x, y)
    e = _tower_below(a, b - 1, t)
    if e is None:
        lam2 = 2 ** (x - 2) if x >= 3 else (1, 1, 2)[x]
        lam5 = 4 * 5 ** (y - 1) if y >= 1 else 1
        lam = math.lcm(lam2, lam5)
        e = lambda_tower_mod(a, b - 1, lam) + t * lam
    return pow(a, e, m)


def pow_walk(a: int, heights: int, ndigits: int) -> list[tuple[int, int]]:
    """(T_b mod 2^n, T_b mod 5^n) for b = 1..heights, n = ndigits, one pow() per
    prime per height: the walk the oracle ran before its exp/log step.

    An exponent below n is used exactly; a larger one is replaced by its
    residue modulo lambda(p^n) plus n*lambda(p^n), the residue modulo
    lambda(5^n) = 4*5^(n-1) coming from a CRT with an explicit inverse.
    """
    n = ndigits
    m2, m5 = 2**n, 5**n
    lam2 = 2 ** (n - 2) if n >= 3 else (1, 1, 2)[n]
    q5 = 5 ** (n - 1)
    inv = pow(4, -1, q5) if n > 1 else 0
    walk = [(a % m2, a % m5)]
    for b in range(2, heights + 1):
        x2, x5 = walk[-1]
        e = _tower_below(a, b - 1, n)
        if e is not None:
            e2 = e5 = e
        else:
            e2 = x2 % lam2 + n * lam2
            r4 = x2 % 4
            e5 = (r4 + 4 * ((x5 - r4) * inv % q5)) + n * 4 * q5
        walk.append((pow(a, e2, m2), pow(a, e5, m5)))
    return walk


def pow_walk_counts(a: int, heights: int, ndigits: int) -> list[int] | None:
    """Stable-digit counts for b = 1..heights from pow_walk at ndigits, capped by
    the tower's own length; None when a count reaches ndigits."""
    walk = pow_walk(a, heights + 1, ndigits)
    counts = []
    for b in range(1, heights + 1):
        (x2, x5), (y2, y5) = walk[b - 1], walk[b]
        n = min(ndigits, naive_valuation(x2 - y2, 2), naive_valuation(x5 - y5, 5))
        if n >= ndigits:
            return None
        exact = _tower_below(a, b, 10**n)
        counts.append(n if exact is None else len(str(exact)))
    return counts


def brute_stable_count(a: int, b: int, ndigits: int = 256) -> int:
    """Stable digits of the height-b tower via raw pow ladders, length-capped.

    Independent of the package: every tower goes through pow() with its
    exact integer exponent, so only towers whose exponent fits are usable.
    """
    m = 10**ndigits

    def tower_mod(height: int) -> int:
        # exact while it fits, then plain modular exponentiation with the
        # exact exponent (only usable when the exponent itself fits)
        e = exact_tower(a, height - 1) if height > 1 else None
        if height == 1:
            return a % m
        assert e is not None
        return pow(a, e, m)

    t1, t2 = tower_mod(b), tower_mod(b + 1)
    n = trailing_match(t1, t2)
    assert n < ndigits
    exact = exact_tower(a, b)
    return min(n, len(str(exact)))


def fixed_point_constant(start: int, power: int, n: int) -> int:
    """The limit of start^(power^k) mod 10^n, by applying x -> x^power until it settles.

    fixed_point_constant(5, 2, n) is e5 and fixed_point_constant(2, 5, n) is t2.
    """
    m = 10**n
    x = start % m
    for _ in range(n + 8):
        y = pow(x, power, m)
        if y == x:
            return x
        x = y
    raise AssertionError("fixed-point iteration failed to settle")


def crt_fifth_power_root(label: str, n: int) -> int:
    """The 10-adic solution of y^5 = y ending in label, mod 10^n, built by the CRT.

    Over the 2-adic integers y^5 = y has the roots 0, 1 and -1, told apart by
    the label mod 4.  Over the 5-adic integers its roots are 0 and the lifts
    r^(5^(n-1)) mod 5^n of r = 1..4, told apart by the label mod 5.
    """
    t = int(label)
    m2, m5 = 2**n, 5**n
    y2 = {0: 0, 1: 1, 3: -1}[t % 4] % m2
    # the lift is multiplicative and 2 generates the units mod 5: 2, 4, 3 = 2^1, 2^2, 2^3
    y5 = 0 if t % 5 == 0 else pow(_lift_of_two(n), {1: 0, 2: 1, 4: 2, 3: 3}[t % 5], m5)
    return y5 + m5 * ((y2 - y5) * pow(m5, -1, m2) % m2)


# coprime residue mod 20 -> the tag of the solution of y^5 = y its digits follow
CLASS_LABEL = {1: "01", 11: "51", 3: "43", 13: "93", 7: "07", 17: "57", 9: "49", 19: "99"}

# odd residue mod 20 -> the valuations whose least is V(a), from the paper's
# mod-20 split: v2 of the a -/+ 1 that is 0 mod 4, then v5 of the factor of
# a^4 - 1 that is 0 mod 5 (none when 5 divides a)
CLASS_RULES = {
    1: ("v2(a-1)", "v5(a-1)"),
    3: ("v2(a+1)", "v5(a^2+1)"),
    5: ("v2(a-1)",),
    7: ("v2(a+1)", "v5(a^2+1)"),
    9: ("v2(a-1)", "v5(a+1)"),
    11: ("v2(a+1)", "v5(a-1)"),
    13: ("v2(a-1)", "v5(a^2+1)"),
    15: ("v2(a+1)",),
    17: ("v2(a-1)", "v5(a^2+1)"),
    19: ("v2(a+1)", "v5(a+1)"),
}


# The tier theorem's residue sets: V(a) = 1 on the residues mod 25 in
# C_COMPLEMENT, and V(a) >= 3 on those mod 1000 in Q_COMPLEMENT among the
# other bases prime to 5; on odd multiples of 5, V(a) = 2 on 5 and 35 mod 40.
C_COMPLEMENT = frozenset({2, 3, 4, 6, 8, 9, 11, 12, 13, 14, 16, 17, 19, 21, 22, 23})
Q_COMPLEMENT = frozenset(
    {1, 57, 68, 124, 126, 182, 193, 249, 318, 374, 376, 432, 568,
     624, 626, 682, 751, 807, 818, 874, 876, 932, 943, 999}
)


def reference_tier(a: int) -> str:
    """The tier of V(a) ("V=0", "V=1", "V=2", "V>=3" or "undefined") from the
    written-out residue sets, for a >= 1."""
    if a % 10 == 0:
        return "undefined"
    if a == 1:
        return "V=0"
    if a % 25 in C_COMPLEMENT:
        return "V=1"
    if a % 40 in (5, 35):
        return "V=2"
    if a % 40 in (15, 25) or a % 1000 in Q_COMPLEMENT:
        return "V>=3"
    return "V=2"


def plant(r20: int, length: int, five: bool) -> int:
    """The class constant of a coprime residue mod 20 truncated to `length`
    digits, then a digit at position length + 1 that differs from the
    constant's by 5 or by 1 (mod 10): the key digit, with |s_l - alpha[l]| = 5
    or not."""
    alpha = crt_fifth_power_root(CLASS_LABEL[r20], length + 1)
    d = alpha // 10**length
    return alpha % 10**length + (d + (5 if five else 1)) % 10 * 10**length


def planted_base(r20: int, speed: int, five: bool) -> int:
    """A planted base of class r20 whose least slope, its speed, is `speed`."""
    for length in range(speed - 6, speed + 7):
        a = plant(r20, length, five)
        if min(naive_slopes(a)) == speed:
            return a
    raise AssertionError(f"no planted base of speed {speed} for residue {r20}")


# residues mod 20 that share a factor with 10 and are not multiples of 10
NONCOPRIME_R20 = (2, 4, 5, 6, 8, 12, 14, 15, 16, 18)


def planted_noncoprime(r20: int, speed: int) -> int:
    """A base of class r20 in NONCOPRIME_R20 whose slope at its coprime prime,
    its speed, is `speed`: a root of a^4 = 1 modulo p^speed (p = 5 for even
    classes: the 5-adic square roots of -1 on 2 and 3 mod 5, and +-1; p = 2,
    +-1, for 5 and 15), plus p^speed times a cofactor from a fixed seed,
    stepped until the class and the exact valuation both hold."""
    if r20 % 2:
        p, root = 2, 1 if r20 % 4 == 1 else -1
    else:
        p, root = 5, {1: 1, 4: -1, 2: _lift_of_two(speed), 3: -_lift_of_two(speed)}[r20 % 5]
    m = p**speed
    u = random.Random(100 * speed + r20).randrange(1, 10**6)
    while True:
        a = root % m + m * u
        if a % 20 == r20 and min(w for w in naive_slopes(a) if w is not None) == speed:
            return a
        u += 1


@lru_cache(maxsize=64)
def _lift_of_two(n: int) -> int:
    # 2^(5^(n-1)) mod 5^n: at 4300 digits one such pow takes seconds
    return pow(2, 5 ** (n - 1), 5**n)


def scan_key_digit(a: int, label: str) -> tuple[int, int, int]:
    """(l, s_l, diff) of the first digit l >= 2 where a, read with implied
    leading zeros, differs from the solution ending in label: a digit-by-digit
    string scan at doubling depths."""
    s = str(a)
    depth = len(s) + 2
    while depth <= 4 * len(s) + 64:
        alpha = str(crt_fifth_power_root(label, depth)).rjust(depth, "0")
        for l in range(2, depth + 1):
            s_l = int(s[-l]) if l <= len(s) else 0
            a_l = int(alpha[-l])
            if s_l != a_l:
                return l, s_l, s_l - a_l
        depth *= 2
    raise AssertionError(f"no key digit found for {a} against {label}")


def enumerate_fifth_power_fixed_points(max_depth: int) -> list[list[int]]:
    """All solutions of y^5 = y (mod 10^k) for k = 2..max_depth.

    Returns a list indexed so that result[k] is the sorted solution list at
    depth k (entries 0 and 1 are unused).  Parasite branches that do not
    extend to 10-adic solutions appear here; they die out within a few
    levels, which is exactly what the uniqueness checks exploit.
    """
    levels: list[list[int]] = [[], []]
    sols = [y for y in range(100) if pow(y, 5, 100) == y % 100]
    levels.append(sorted(sols))
    for k in range(3, max_depth + 1):
        m = 10**k
        step = 10 ** (k - 1)
        nxt = []
        for y in sols:
            for d in range(10):
                cand = y + d * step
                if pow(cand, 5, m) == cand:
                    nxt.append(cand)
        sols = nxt
        levels.append(sorted(sols))
    return levels


def true_fixed_points(depth: int, levels: list[list[int]] | None = None) -> set[int]:
    """The fifteen genuine 10-adic fixed points reduced mod 10^depth.

    Solutions mod 10^(depth+4) reduced mod 10^depth shed every parasite
    branch (those differ from a genuine solution only in their top two
    2-adic bits).
    """
    lookahead = depth + 4
    if levels is None:
        levels = enumerate_fifth_power_fixed_points(lookahead)
    return {y % 10**depth for y in levels[lookahead]}
