import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tetrastable import arith
from tetrastable.arith import (
    INFINITY,
    _crt,
    _exp_terms,
    _padic_exp,
    _padic_log,
    _unit_log,
    _vp,
    decimal_length,
    digit,
    padic_valuation,
    tetration_mod_pow10,
    tower_value_capped,
)

from support import exact_tower, lambda_tower_mod, naive_valuation, pow_walk, series_exp, series_log


class TestPadicValuation:
    def test_reference_values(self):
        assert padic_valuation(18, 3) == 2
        assert padic_valuation(0, 5) == INFINITY
        assert padic_valuation(7, 2) == 0

    def test_negative_arguments_use_absolute_value(self):
        assert padic_valuation(-8, 2) == 3
        assert padic_valuation(-50, 5) == 2

    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to the bases
    # 2, 3, 5 and 7, and the last one to every prime base up to 37
    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 100, 561, 3215031751, 318665857834031151167461])
    def test_rejects_non_primes(self, p):
        with pytest.raises(ValueError):
            padic_valuation(12, p)

    def test_accepts_large_primes(self):
        # trial division up to the square root would take minutes on 2^61 - 1
        assert padic_valuation(18, 3) == 2 and padic_valuation(98, 7) == 2
        p = 2**61 - 1
        assert padic_valuation(p**3 * 10, p) == 3
        assert padic_valuation(10**14 + 30, 10**14 + 31) == 0

    @given(d=st.integers(1, 10**6), r=st.integers(1, 10**6), p=st.sampled_from([2, 3, 5, 7]))
    def test_multiplicative(self, d, r, p):
        assert padic_valuation(d * r, p) == padic_valuation(d, p) + padic_valuation(r, p)

    @given(d=st.integers(1, 10**6), r=st.integers(1, 10**6), p=st.sampled_from([2, 5]))
    @example(d=8, r=8, p=2)
    @example(d=4, r=12, p=2)
    def test_subadditive_on_sums(self, d, r, p):
        vd, vr = padic_valuation(d, p), padic_valuation(r, p)
        vs = padic_valuation(d + r, p)
        assert vs >= min(vd, vr)
        if vd != vr:
            assert vs == min(vd, vr)

    @given(d=st.integers(-10**9, 10**9), p=st.sampled_from([2, 3, 5, 7, 11]))
    def test_agrees_with_naive_loop(self, d, p):
        assert padic_valuation(d, p) == naive_valuation(d, p)


_VALUATIONS = sorted({0, 1} | {2**k + s for k in range(1, 12) for s in (-1, 1)} | set(range(3995, 4006)))


class TestCrt:
    @given(x=st.integers(0, 10**120), n=st.integers(1, 80), k2=st.integers(-3, 3), k5=st.integers(-3, 3))
    @example(x=7, n=1, k2=0, k5=-1)
    @example(x=10**5 - 1, n=5, k2=-1, k5=-1)
    @example(x=10**40 - 1, n=40, k2=2, k5=3)
    def test_recombines_the_residues(self, x, n, k2, k5):
        # either residue may come unreduced or negative: any representative of its class
        m2, m5 = 2**n, 5**n
        assert _crt(x % m2 + k2 * m2, x % m5 + k5 * m5, n) == x % 10**n


class TestFastValuation:
    """Valuations by repeated squaring of p, against one division per power."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_against_naive_division(self, p):
        rng = random.Random(p)
        for v in _VALUATIONS:
            unit = rng.randrange(1, 10**30)
            unit += unit % p == 0
            d = p**v * unit
            assert padic_valuation(d, p) == naive_valuation(d, p) == v
            assert padic_valuation(-d, p) == v
            if p != 2:
                assert _vp(d, p) == v

    def test_zero(self):
        assert _vp(0, 5) == INFINITY


def _fraction_exp_bound(k: int, v: int, p: int) -> Fraction:
    # lower bound on the valuation of x^k/k! from Legendre
    return k * v - Fraction(k - 1, p - 1)


class TestPadicExpLog:
    """exp and log over Z_p against their series summed in exact rationals."""

    @pytest.mark.parametrize("p", [2, 5])
    def test_exp_matches_the_series(self, p):
        rng = random.Random(p)
        for n in (1, 2, 5, 10, 17, 40):
            for v in range(2 if p == 2 else 1, n + 2):
                unit = rng.randrange(1, p**n)
                unit += unit % p == 0
                x = p**v * unit
                assert _padic_exp(x % p**n, v, p, n) == series_exp(x, p, n), (n, v)

    @pytest.mark.parametrize("p", [2, 5])
    def test_fewest_terms(self, p):
        for n in range(1, 80):
            for v in range(2, n + 1):
                k = _exp_terms(v, n, p)
                assert _fraction_exp_bound(k + 1, v, p) >= n
                if k > 0:
                    assert _fraction_exp_bound(k, v, p) < n

    @pytest.mark.parametrize("p", [2, 5])
    def test_dropped_term_of_valuation_n_minus_1(self, p):
        # summing one term fewer than _exp_terms drops x^K/K! with K = p^j,
        # whose valuation K*v - v_p(K!) is exactly n - 1 here, so it shows
        cases = 0
        for j in (1, 2, 3):
            big_k = p**j
            for v in (2, 3, 5):
                n = big_k * v - (big_k - 1) // (p - 1) + 1
                assert _exp_terms(v, n, p) == big_k
                for unit in (1, 3, 7, 2 * p + 1):
                    x = p**v * unit
                    dropped = Fraction(x**big_k, math.factorial(big_k))
                    assert naive_valuation(dropped.numerator, p) == n - 1
                    assert _padic_exp(x, v, p, n) == series_exp(x, p, n), (j, v, unit)
                    cases += 1
        assert cases == 36

    @pytest.mark.parametrize("p", [2, 5])
    def test_one_term_boundary(self, p):
        # at the least v with K = 1, exp(x) is 1 + x mod p^n; one below it K
        # is larger, and the Horner loop sums the terms
        rng = random.Random(p + 14)
        low = 2 if p == 2 else 1  # the least v the series is certified at
        for n in range(3, 70):
            v = next(v for v in range(low, n) if _exp_terms(v, n, p) == 1)
            for u in range(max(low, v - 1), v + 1):
                assert (_exp_terms(u, n, p) == 1) == (u == v)
                for _ in range(2):
                    unit = rng.randrange(1, p**n)
                    unit += unit % p == 0
                    x = p**u * unit
                    if u == v:  # x^2/2 is 0 mod p^n, and so is every later term
                        assert naive_valuation(x * x, p) - (p == 2) >= n
                    assert _padic_exp(x % p**n, u, p, n) == series_exp(x, p, n), (n, u)

    @pytest.mark.parametrize("p, q", [(2, 2), (5, 4)])
    def test_log_matches_the_series(self, p, q):
        for a in (3, 7, 11, 13, 99, 163574218751):
            u = a**q
            for n in (1, 2, 3, 8, 25, 64):
                assert _padic_log(u, p, n) == series_log(u, p, n), (a, n)

    @pytest.mark.parametrize("p, q", [(2, 2), (5, 4)])
    def test_unit_log_turns_powers_into_exp(self, p, q):
        # a^D = exp(D * log(a^q)/q) for q | D, also when v_p(D) = 0, where
        # every digit of the log and of 1/q counts
        for a in (3, 7, 11, 12, 99, 2**20 + 1, 163574218751):
            if a % p == 0:
                continue
            for n in (2, 5, 16, 40):
                m = p**n
                ell = _unit_log(a, p, n)
                w = naive_valuation(a**q - 1, p) - naive_valuation(q, p)
                assert ell == 0 or naive_valuation(ell, p) == w
                for d in (q, 2 * q, 3 * q, q * p**3, q * 7 * p**(n // 2)):
                    v = naive_valuation(d, p) + w
                    assert pow(a, d, m) == _padic_exp(d * ell % m, v, p, n), (a, n, d)


class TestTetrationMod:
    def test_reference_values(self):
        assert tetration_mod_pow10(2, 4, 5) == 65536
        assert tetration_mod_pow10(2, 5, 8) == 19156736

    @given(a=st.integers(0, 10**9), n=st.integers(1, 30))
    def test_height_one_is_the_base(self, a, n):
        assert tetration_mod_pow10(a, 1, n) == a % 10**n

    def test_rejects_height_zero(self):
        with pytest.raises(ValueError):
            tetration_mod_pow10(2, 0, 5)

    def test_rejects_zero_digits(self):
        with pytest.raises(ValueError):
            tetration_mod_pow10(2, 3, 0)

    def test_modulus_past_the_str_digits_limit(self):
        want = pow(3, 3**27, 10**5000)
        assert tetration_mod_pow10(3, 4, 5000) == want

    @pytest.mark.parametrize("a", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_small_towers_match_exact_integers(self, a, b):
        want = exact_tower(a, b)
        for n in (1, 5, 17, 64):
            assert tetration_mod_pow10(a, b, n) == want % 10**n

    def test_zero_base_follows_the_limit_convention(self):
        # height-b tower of 0 is 1 for even b, 0 for odd b
        assert tetration_mod_pow10(0, 1, 3) == 0
        assert tetration_mod_pow10(0, 2, 3) == 1
        assert tetration_mod_pow10(0, 5, 3) == 0
        assert tetration_mod_pow10(0, 6, 3) == 1

    @given(a=st.integers(0, 100), b=st.integers(1, 6), n=st.integers(2, 64), m=st.integers(1, 64))
    @example(a=2, b=5, n=64, m=8)
    @example(a=10, b=3, n=40, m=12)
    @example(a=5, b=4, n=64, m=20)
    def test_residues_compatible_across_precision(self, a, b, n, m):
        if m > n:
            n, m = m, n
        big = tetration_mod_pow10(a, b, n)
        small = tetration_mod_pow10(a, b, m)
        assert big % 10**m == small

    def test_shared_memo_gives_same_answers(self):
        memo = {}
        ladder = [tetration_mod_pow10(7, b, 32, memo) for b in range(1, 7)]
        fresh = [tetration_mod_pow10(7, b, 32) for b in range(1, 7)]
        assert ladder == fresh

    def test_tall_tower_needs_no_recursion(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            r = tetration_mod_pow10(3, 300, 300)
        finally:
            sys.setrecursionlimit(limit)
        assert r == lambda_tower_mod(3, 300, 10**300)

    def test_fixed_point_jump(self):
        # a million heights cost a walk up to the height where 200 digits freeze
        for a in (2, 3, 163574218751):
            assert tetration_mod_pow10(a, 10**6, 200) == lambda_tower_mod(a, 10**6, 10**200)


_LAMBDA_BASES = list(range(61)) + [99, 100, 125, 128, 1000, 2**20, 5**9, 163574218751]


class TestAgainstLambdaChain:
    """tetration_mod_pow10 against the textbook recursion of tests/support.py,
    with heights far above the precision so the walk stops early."""

    @pytest.mark.parametrize("a", _LAMBDA_BASES)
    def test_matches_textbook_recursion(self, a):
        for b in list(range(1, 13)) + [40, 300]:
            for n in (1, 2, 3, 4, 5, 7, 10, 16, 25, 40):
                assert tetration_mod_pow10(a, b, n) == lambda_tower_mod(a, b, 10**n), (b, n)


class TestStopRule:
    """tetration_mod_pow10 stops its walk at the first height whose
    difference to the height below is 0 modulo 10^n.  Heights just below, at
    and past that stop, for bases divisible by 2, by 5, by 10 and by neither,
    where the two primes freeze their digits at different heights."""

    @pytest.mark.parametrize("a, n", [(3, 100), (7, 150), (163574218751, 120), (2, 130),
                                      (12, 110), (5, 140), (15, 170), (10, 200), (30, 160)])
    def test_heights_around_the_stop(self, a, n):
        residues = pow_walk(a, 3 * n, n)
        stop = next(b for b in range(2, 3 * n + 1) if residues[b - 1] == residues[b - 2])
        for b in {max(stop - 2, 1), stop - 1, stop, stop + 1, stop + 7}:
            assert tetration_mod_pow10(a, b, n) == lambda_tower_mod(a, b, 10**n), (b, stop)

    @pytest.mark.parametrize("a, b, n", [(3, 4, 5000), (2, 5, 7055), (99, 3, 6000)])
    def test_exact_exponents_take_no_exp_step(self, monkeypatch, a, b, n):
        calls = []
        real = arith._padic_exp

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(arith, "_padic_exp", counting)
        assert tetration_mod_pow10(a, b, n) == pow(a, exact_tower(a, b - 1), 10**n)
        assert calls == []


def _threshold_cases():
    """(a, b, n) whose exponent tower(a, b-1) lies just below, at or just above
    2^n or 5^n, the cap above which the tower mod that prime power reduces it."""
    cases = set()
    for n in range(1, 13):
        for m in (2**n, 5**n):
            for a in (m - 1, m, m + 1):  # at height 2 the exponent is a
                cases.add((a, 2, n))
    for a, b in [(2, 3), (2, 4), (2, 5), (3, 3), (4, 3), (5, 3), (6, 3), (10, 3), (20, 3)]:
        e = exact_tower(a, b - 1)
        for p in (2, 5):
            n = math.floor(math.log(e, p))  # p^n <= e < p^(n+1), up to rounding
            cases.update((a, b, k) for k in (n - 1, n, n + 1, n + 2) if k >= 1)
    return sorted(cases)


class TestExponentReductionThreshold:
    """Towers whose exponent sits next to the reduction cap, against pow() with
    the exact exponent."""

    @pytest.mark.parametrize("a, b, n", _threshold_cases())
    def test_matches_exact_exponent(self, a, b, n):
        assert tetration_mod_pow10(a, b, n) == pow(a, exact_tower(a, b - 1), 10**n)

    def test_cases_straddle_the_cap_in_every_divisibility_class(self):
        # (a divisible by 2, by 5) -> sides of the cap covered at heights >= 3;
        # only a power of p can have its exponent exactly at a power of p
        sides = {}
        for a, b, n in _threshold_cases():
            e = exact_tower(a, b - 1)
            for p in (2, 5):
                if b > 2:
                    sides.setdefault((a % 2 == 0, a % 5 == 0), set()).add((e > p**n) - (e < p**n))
        assert sides[(False, False)] == sides[(True, True)] == {-1, 1}
        assert sides[(True, False)] == sides[(False, True)] == {-1, 0, 1}

    def test_exponent_below_the_prime_power_is_not_reduced(self):
        # tower(2, 2) = 4 < 10: reducing it modulo lambda(2^10) = 256 and padding
        # would be wrong, since 2^e == 0 (mod 2^10) only once e >= 10
        assert tetration_mod_pow10(2, 3, 10) == 16
        assert tetration_mod_pow10(2, 3, 5) == 16  # e = k - 1
        assert tetration_mod_pow10(5, 2, 10) == 3125
        assert tetration_mod_pow10(10, 2, 12) == 10**10


class TestDigit:
    def test_reference_values(self):
        assert digit(57, 4) == 0
        assert digit(501, 3) == 5
        assert digit(163574218751, 1) == 1

    def test_past_most_significant_is_zero(self):
        assert digit(57, 3) == 0
        assert digit(57, 100) == 0

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            digit(57, 0)

    def test_rejects_negative_numbers(self):
        # floor division would read -123 as ...9877 and return 7
        for a, j in ((-123, 1), (-5, 3), (-1, 1)):
            with pytest.raises(ValueError, match="a >= 0"):
                digit(a, j)

    @given(a=st.integers(0, 10**18))
    def test_reassembles_the_number(self, a):
        total = sum(digit(a, j) * 10 ** (j - 1) for j in range(1, 20))
        assert total == a


class TestDecimalLength:
    def test_matches_str_around_powers_of_ten(self):
        assert decimal_length(0) == len(str(0))
        for k in range(1, 401):
            for n in (10**k - 1, 10**k, 10**k + 1):
                assert decimal_length(n) == len(str(n))

    def test_around_powers_of_ten_and_two(self):
        # where the float estimate of log10 is nearest an integer
        for k in range(1, 3001):
            p = 10**k
            assert (decimal_length(p - 1), decimal_length(p), decimal_length(p + 1)) == (k, k + 1, k + 1)
        for j in range(1, 5001):
            for n in (2**j - 1, 2**j):
                assert decimal_length(n) == len(str(n)), n

    def test_a_million_digits(self):
        k = 10**6
        p = 10 ** (k - 1)
        assert decimal_length(p - 1) == k - 1
        assert decimal_length(p) == decimal_length(3 * p + 2) == k
        n = 2**3321928
        assert p <= n < 10 * p and decimal_length(n) == k

    @given(n=st.integers(0, 10**1000))
    def test_matches_str(self, n):
        assert decimal_length(n) == len(str(n))

    @pytest.mark.parametrize("k", [4300, 4301, 5000, 12345])
    def test_past_the_str_digits_limit(self, k):
        assert decimal_length(10**k - 1) == k
        assert decimal_length(10**k) == k + 1
        assert decimal_length(7 * 10**k + 3) == k + 1
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            n = 3**k * 10 // 7
            assert decimal_length(n) == len(str(n))
        finally:
            sys.set_int_max_str_digits(old)


class TestTowerValueCapped:
    def test_small_values(self):
        assert tower_value_capped(2, 3, 100) == 16
        assert tower_value_capped(2, 4, 10**6) == 65536
        assert tower_value_capped(3, 3, 10**2) is None
        assert tower_value_capped(3, 3, 10**13) == 3**27

    def test_huge_towers_report_none(self):
        assert tower_value_capped(2, 6, 10**18) is None
        assert tower_value_capped(163574218751, 2, 10**18) is None

    def test_degenerate_bases(self):
        assert tower_value_capped(1, 50, 10) == 1
        assert tower_value_capped(0, 3, 10) == 0
        assert tower_value_capped(0, 4, 10) == 1
        assert tower_value_capped(9, 0, 10) == 1
