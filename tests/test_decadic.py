import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tetrastable.arith import _no_str_digits_limit
from tetrastable.decadic import (
    ALPHA_TAGS,
    AlphaTag,
    alpha_digit_at,
    alpha_digits,
    alpha_value,
    idempotent_e5,
    key_digit,
    two_tower_t2,
)

from support import (
    PRINTED_ALPHA,
    crt_fifth_power_root,
    enumerate_fifth_power_fixed_points,
    fixed_point_constant,
    scan_key_digit,
    true_fixed_points,
)

tags = st.sampled_from(ALPHA_TAGS)


class TestPrimitives:
    def test_idempotent_reference_digits(self):
        assert idempotent_e5(6) == "890625"
        assert idempotent_e5(1) == "5"
        assert idempotent_e5(20) == PRINTED_ALPHA["25"][-20:]

    def test_idempotent_splits_as_one_and_zero(self):
        for n in (1, 4, 9, 33):
            e = int(idempotent_e5(n))
            assert e % 2**n == 1 % 2**n
            assert e % 5**n == 0

    def test_two_tower_reference_digits(self):
        assert two_tower_t2(3) == str(2**25)[-3:]
        assert two_tower_t2(6) == "186432"
        assert two_tower_t2(1) == "2"

    @given(n=st.integers(1, 120))
    def test_both_primitives_are_fifth_power_fixed(self, n):
        m = 10**n
        for x in (int(idempotent_e5(n)), int(two_tower_t2(n))):
            assert pow(x, 5, m) == x

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            idempotent_e5(0)
        with pytest.raises(ValueError):
            two_tower_t2(0)


class TestClosedForms:
    @pytest.mark.parametrize("depths", [range(1, 301), [1000], [2048], [4300]], ids=["1-300", "1000", "2048", "4300"])
    def test_match_the_fixed_point_iteration(self, depths):
        for n in depths:
            assert idempotent_e5(n) == str(fixed_point_constant(5, 2, n)).rjust(n, "0")
            assert two_tower_t2(n) == str(fixed_point_constant(2, 5, n)).rjust(n, "0")

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 64, 65, 777, 4300])
    def test_all_fifteen_match_the_crt_roots(self, n):
        for tag in ALPHA_TAGS:
            assert alpha_value(tag, n) == crt_fifth_power_root(tag.label, n)

    def test_fixed_at_depth_ten_thousand(self):
        n = 10_000
        m = 10**n
        e5 = alpha_value(AlphaTag(2, 5), n)
        t2 = alpha_value(AlphaTag(3, 2), n)
        assert e5 * e5 % m == e5
        assert pow(t2, 5, m) == t2
        assert e5 % 2**n == 1 and e5 % 5**n == 0
        assert t2 % 2**n == 0 and t2 % 5 == 2


class TestAlphaDigits:
    def test_reference_values(self):
        assert alpha_digits(AlphaTag(9, 9), 4).digits == "9999"
        assert alpha_digits(AlphaTag(5, 1), 17).digits == "87480163574218751"
        assert alpha_digits(AlphaTag(0, 1), 5).digits == "00001"

    @pytest.mark.parametrize("label", sorted(PRINTED_ALPHA))
    def test_matches_printed_expansions(self, label):
        printed = PRINTED_ALPHA[label]
        got = alpha_digits(AlphaTag.from_label(label), len(printed))
        assert got.digits == printed

    def test_there_are_fifteen_tags(self):
        assert len(ALPHA_TAGS) == 15
        assert {t.label for t in ALPHA_TAGS} == set(PRINTED_ALPHA)

    @pytest.mark.parametrize("n", [2, 3, 40, 777])
    def test_fifteen_distinct_residues_mod_twenty(self, n):
        # each solution is its label mod 20, as 100 is 0 mod 20: 0 or +-1 mod 4 and
        # 0 or a Teichmueller lift mod 5; speed reads a coprime base's constant off a mod 20
        residues = [alpha_value(tag, n) % 20 for tag in ALPHA_TAGS]
        assert residues == [int(tag.label) % 20 for tag in ALPHA_TAGS]
        assert residues == [int(PRINTED_ALPHA[tag.label]) % 20 for tag in ALPHA_TAGS]
        assert len(set(residues)) == 15 and {r % 4 for r in residues} == {0, 1, 3}

    @pytest.mark.parametrize("x2,x1", [(1, 2), (5, 5), (9, 8), (0, 3)])
    def test_rejects_unknown_tags(self, x2, x1):
        with pytest.raises(ValueError):
            AlphaTag(x2, x1)

    def test_accepts_exactly_the_fifteen_digit_pairs(self):
        accepted = set()
        for x2 in range(10):
            for x1 in range(10):
                try:
                    accepted.add(AlphaTag(x2, x1).label)
                except ValueError:
                    pass
        assert accepted == set(PRINTED_ALPHA)

    @pytest.mark.parametrize("x2,x1", [(0, 43), (4, 13), (-1, 53), (10, 1)])
    def test_rejects_pairs_that_are_not_two_digits(self, x2, x1):
        # a map keyed by 10*x2 + x1 would take (0, 43) and (-1, 53) for alpha_43
        with pytest.raises(ValueError, match=rf"\.\.\.{x2}{x1}$"):
            AlphaTag(x2, x1)

    @given(tag=tags, n=st.integers(1, 150))
    def test_fifth_power_fixed_point(self, tag, n):
        v = alpha_value(tag, n)
        assert pow(v, 5, 10**n) == v

    @given(tag=tags, n=st.integers(2, 90))
    def test_last_two_digits_are_the_tag(self, tag, n):
        v = alpha_value(tag, n)
        assert (v // 10) % 10 == tag.x2
        assert v % 10 == tag.x1

    @given(tag=tags, n=st.integers(1, 120), extra=st.integers(0, 60))
    def test_suffix_coherence(self, tag, n, extra):
        short = alpha_digits(tag, n).digits
        long = alpha_digits(tag, n + extra).digits
        assert long.endswith(short)

    def test_digit_accessor_matches_string(self):
        s = alpha_digits(AlphaTag(5, 1), 30).digits
        for l in range(1, 31):
            assert alpha_digit_at(AlphaTag(5, 1), l) == int(s[-l])


class TestHenselEnumeration:
    def test_uniqueness_and_agreement_to_depth_sixty(self):
        depth = 60
        levels = enumerate_fifth_power_fixed_points(depth + 4)
        for n in range(2, depth + 1):
            genuine = true_fixed_points(n, levels)
            assert len(genuine) == 15
            for tag in ALPHA_TAGS:
                matching = [y for y in genuine if y % 100 == 10 * tag.x2 + tag.x1]
                assert len(matching) == 1
                assert matching[0] == alpha_value(tag, n)

    def test_parasite_branches_exist_but_die(self):
        # both 1 and 501 pass the congruence test mod 10^3; only one survives
        assert pow(501, 5, 1000) == 501
        assert 501 not in true_fixed_points(3)
        assert 1 in true_fixed_points(3)


class TestKeyDigit:
    def test_reference_reports(self):
        r = key_digit(57, AlphaTag(5, 7))
        assert (r.l, r.s_l, r.diff) == (4, 0, -7)
        r = key_digit(501, AlphaTag(0, 1))
        assert (r.l, r.s_l) == (3, 5)
        r = key_digit(51, AlphaTag(5, 1))
        assert (r.l, r.s_l, r.diff) == (3, 0, -7)

    def test_mismatch_at_second_digit(self):
        r = key_digit(23, AlphaTag(4, 3))
        assert r.l == 2 and r.s_l == 2 and r.diff == -2

    def test_search_extends_past_the_base_length(self):
        # 7 agrees with ...807 through position 2; 163574218751 agrees with
        # its constant through position 13 (an implied zero on both sides)
        assert key_digit(7, AlphaTag(0, 7)).l == 3
        r = key_digit(163574218751, AlphaTag(5, 1))
        assert (r.l, r.s_l, r.diff) == (14, 0, -8)

    def test_rejects_last_digit_mismatch(self):
        with pytest.raises(ValueError):
            key_digit(57, AlphaTag(5, 1))

    def test_rejects_tiny_bases(self):
        with pytest.raises(ValueError):
            key_digit(1, AlphaTag(0, 1))

    @given(a=st.integers(2, 10**7), tag=tags)
    def test_never_reports_a_matching_digit(self, a, tag):
        if a % 10 != tag.x1 or a < 2:
            return
        r = key_digit(a, tag)
        assert r.diff != 0
        # the declared prefix really does match
        alpha = alpha_digits(tag, r.l).digits
        for j in range(1, r.l):
            a_digit = (a // 10 ** (j - 1)) % 10
            assert a_digit == int(alpha[-j])

    @pytest.mark.parametrize("tag", ALPHA_TAGS, ids=str)
    def test_matches_the_string_scan(self, tag):
        # bases agreeing with the constant in their last L digits and then
        # anything, and bare truncations, whose implied zeros continue the search
        rng = random.Random(tag.label)
        for L in list(range(1, 81)) + [150, 300, 1000]:
            alpha = crt_fifth_power_root(tag.label, L + 1)
            head = alpha % 10**L
            high = rng.randrange(10 ** rng.randint(1, 40))
            for a in (head + 10**L * high, head):
                if a < 2:
                    continue
                r = key_digit(a, tag)
                assert (r.l, r.s_l, r.diff) == scan_key_digit(a, tag.label)

    @pytest.mark.parametrize("tag", ALPHA_TAGS, ids=str)
    def test_the_5_adic_agreement_outlasts_the_2_adic_one(self, tag):
        # the constant mod 5^120 but only mod 2^v at 2: the search passes 64
        # digits and ends at l = v + 1, which v2 alone decides
        n = 120
        m2, m5 = 2**n, 5**n
        for v in (64, 65, 100, 119):
            a = (crt_fifth_power_root(tag.label, n) + m5 * (2**v * pow(m5, -1, m2) % m2)) % 10**n
            r = key_digit(a, tag)
            assert r.l == v + 1
            assert (r.l, r.s_l, r.diff) == scan_key_digit(a, tag.label)

    def test_bases_past_the_str_digits_limit(self):
        a = 7 * 10**5000 + alpha_value(AlphaTag(5, 1), 40)
        r = key_digit(a, AlphaTag(5, 1))
        assert (r.l, r.s_l, r.diff) == scan_key_digit(alpha_value(AlphaTag(5, 1), 40), "51")
        r = key_digit(10**5000 + 51, AlphaTag(5, 1))
        assert (r.l, r.s_l, r.diff) == (3, 0, -7)


class TestDigitStringsPastTheStrDigitsLimit:
    def test_5000_digits(self):
        before = sys.get_int_max_str_digits()
        digits = alpha_digits(AlphaTag(5, 1), 5000)
        assert sys.get_int_max_str_digits() == before
        assert len(digits.digits) == 5000 and digits.digits.endswith(PRINTED_ALPHA["51"])
        assert digits.value == alpha_value(AlphaTag(5, 1), 5000)
        assert idempotent_e5(5000).endswith(PRINTED_ALPHA["25"][-60:])
        assert two_tower_t2(5000).endswith(PRINTED_ALPHA["32"][-60:])
        assert sys.get_int_max_str_digits() == before

    def test_limit_restored_after_an_error(self):
        before = sys.get_int_max_str_digits()
        with pytest.raises(RuntimeError):
            with _no_str_digits_limit():
                assert sys.get_int_max_str_digits() == 0
                raise RuntimeError("boom")
        assert sys.get_int_max_str_digits() == before
