import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tetrastable import stability
from tetrastable.arith import DEFAULT_BUDGET, InvariantError, _no_str_digits_limit, decimal_length
from tetrastable.oracle import (
    _certified_height, certified_sequence, measure_stabilization, speed_sequence, stable_digit_count,
)
from tetrastable.speed import speed_exact
from tetrastable.stability import (
    FormulaRangeError,
    StableShape,
    TowerNotRepresentable,
    _certified_digit_count,
    min_height,
    stabilization_bound,
    stable_bounds,
    stable_count,
    stable_exact,
    stable_ratio,
    stable_shape,
)

from support import CLASS_LABEL, NONCOPRIME_R20, planted_base, planted_noncoprime, reference_digit_count


class TestStableExact:
    def test_reference_values(self):
        assert stable_exact(5, 3).value == 8
        assert stable_exact(2, 1).value == 0
        assert stable_exact(4, 6).value == 5
        assert stable_exact(15, 2).value == 9
        assert stable_exact(5, 1).value == 1
        assert stable_exact(5, 2).value == 4

    def test_formula_ids_follow_the_class(self):
        assert "mod20 in {2,18}" in stable_exact(2, 3).formula_id
        assert "mod20 in {8,12}" in stable_exact(8, 3).formula_id
        assert "mod10=4" in stable_exact(14, 3).formula_id
        assert "mod10=6" in stable_exact(6, 3).formula_id
        assert "mod20=15" in stable_exact(15, 3).formula_id
        assert "mod20=5" in stable_exact(25, 3).formula_id
        assert "a=5" in stable_exact(5, 3).formula_id

    @pytest.mark.parametrize("a", [6, 16, 15, 25, 45])
    def test_heights_below_the_stated_range_are_refused(self, a):
        with pytest.raises(FormulaRangeError):
            stable_exact(a, 1)

    @pytest.mark.parametrize("a", [1, 3, 7, 11, 10, 30])
    def test_rejects_wrong_classes(self, a):
        with pytest.raises(ValueError):
            stable_exact(a, 3)

    @pytest.mark.parametrize("a", [2, 4, 5, 6, 8, 12, 15, 18, 22, 25, 26, 34, 45, 56, 64, 78, 95])
    def test_matches_the_oracle(self, a):
        for b in range(2, 8):
            assert stable_exact(a, b).value == stable_digit_count(a, b), (a, b)


class TestStableBounds:
    def test_reference_brackets(self):
        got = stable_bounds(143, 4)
        assert got.lower <= 6 <= got.upper
        assert stable_digit_count(143, 4) == 6
        got = stable_bounds(74218751, 3)
        assert got.lower <= 25 <= got.upper
        assert stable_digit_count(74218751, 3) == 25
        got = stable_bounds(781249, 5)
        assert got.upper == 36
        assert stable_digit_count(781249, 5) == 36

    def test_widths(self):
        v = speed_exact(143).speed
        got = stable_bounds(143, 4)
        assert got.upper - got.lower == v + 1
        v = speed_exact(51).speed
        got = stable_bounds(51, 4)
        assert got.upper - got.lower == v

    @pytest.mark.parametrize("a", [3, 7, 9, 11, 13, 21, 51, 57, 99, 107, 143, 251])
    def test_bracket_the_oracle(self, a):
        for b in range(2, 7):
            measured = stable_digit_count(a, b)
            got = stable_bounds(a, b)
            assert got.lower <= measured <= got.upper, (a, b)
            assert got.upper - got.lower <= speed_exact(a).speed + 1

    def test_rejects_out_of_domain(self):
        for a in (1, 2, 10, 15):
            with pytest.raises(ValueError):
                stable_bounds(a, 3)
        with pytest.raises(ValueError):
            stable_bounds(7, 1)


class TestStableShape:
    @pytest.mark.parametrize(
        "a,shape",
        [
            (6907922943, StableShape.B_V_PLUS_1),
            (107, StableShape.B_MINUS_1_V),
            (599, StableShape.B_V),
            (133, StableShape.B_V),
            (143, StableShape.B_MINUS_1_V),
            (51, StableShape.B_V_PLUS_1),
            (499, StableShape.B_V_PLUS_1),
        ],
    )
    def test_reference_shapes(self, a, shape):
        assert stable_shape(a) is shape

    def test_shape_predicts_the_oracle_at_stabilized_heights(self):
        for a in (107, 133, 599, 499, 143, 51):
            seq = certified_sequence(a)
            shape, v, bbar = stable_shape(a), seq.speed, seq.stabilized_at
            for b in (bbar, bbar + 1):
                assert shape.count_at(b, v) == seq.frozen_prefix[b - 1]

    def test_the_paper_rule_on_3_and_7_mod_20_is_checked(self, monkeypatch):
        # 807 (V = 3, V(a,2) = 4, stabilized at 6) has shape bV+1; one more digit
        # at height 1 makes V(a,2) equal V(a), and the rule say (b-1)V, while the
        # counts from height 2 on stay as they are
        real = stability._count
        monkeypatch.setattr(stability, "_count", lambda a, b: real(a, b) + (b == 1))
        with pytest.raises(InvariantError, match="shape rule disagrees"):
            stable_shape(807)

    def test_rejects_non_coprime_bases(self):
        for a in (2, 5, 10, 1):
            with pytest.raises(ValueError):
                stable_shape(a)


class TestStableCount:
    def test_reference_values(self):
        assert stable_count(163574218751, 10).value == 143
        assert stable_count(1, 1).value == 1
        assert stable_count(0, 4).value == 0
        assert stable_count(20, 2).value == 20
        assert stable_count(5, 3).value == 8

    def test_small_coprime_base_is_exact_from_the_tail(self):
        got = stable_count(3, 2)
        assert got.kind == "exact"
        assert got.value == stable_digit_count(3, 2)
        bracket = stable_bounds(3, 2)
        assert bracket.lower <= got.value <= bracket.upper

    def test_below_stabilization_reads_the_measured_count(self):
        # 163574218751 stabilizes at height 7
        a = 163574218751
        for b, want in zip(range(2, 7), (31, 46, 61, 76, 91)):
            got = stable_count(a, b)
            assert (got.kind, got.value) == ("exact", want), b
            assert stable_digit_count(a, b) == want, b
            bracket = stable_bounds(a, b)
            assert bracket.lower <= want <= bracket.upper, b

    def test_height_one_stays_exact(self):
        got = stable_count(163574218751, 1)
        assert got.kind == "exact"
        assert got.value == 12

    def test_oracle_fallback_below_formula_ranges(self):
        got = stable_count(6, 1)
        assert got.kind == "exact"
        assert got.value == stable_digit_count(6, 1) == 1

    @pytest.mark.parametrize("a", [2, 6, 15, 51, 107, 143])
    def test_exact_counts_match_the_oracle(self, a):
        for b in range(1, 8):
            got = stable_count(a, b)
            if got.kind == "exact":
                assert got.value == stable_digit_count(a, b), (a, b)


def check_count_agrees_with_min_height(a: int) -> None:
    """stable_count is exact at heights 1..bbar+2, equals the certified run,
    says in its label whether b is below bbar, lies in the paper's bracket
    below bbar, and min_height(a, t) is the least height whose count reaches
    t, at every target where that height changes."""
    seq = certified_sequence(a)
    bbar = seq.stabilized_at
    counts = [stable_count(a, b) for b in range(1, bbar + 3)]
    assert {c.kind for c in counts} == {"exact"}, a
    values = [c.value for c in counts]
    assert values[: bbar + 1] == seq.frozen_prefix[: bbar + 1], a
    below = [b < bbar for b in range(1, bbar + 3)]
    assert [c.formula_id == "valuation lines (b < bbar)" for c in counts] == below, a
    for b in range(2, bbar):
        bracket = stable_bounds(a, b)
        assert bracket.lower <= values[b - 1] <= bracket.upper, (a, b)
    for target in sorted({0, *values, *(n + 1 for n in values[:-1])}):
        least = next(b for b, n in enumerate(values, 1) if n >= target)
        assert min_height(a, target).height == least, (a, target)


class TestStableCountAgreesWithMinHeight:
    @pytest.mark.parametrize("five", [True, False])
    @pytest.mark.parametrize("r20", sorted(CLASS_LABEL))
    def test_planted_bases(self, r20, five):
        # all 8 coprime classes and both key-digit branches; 7 of the 16 stabilize after height 2
        check_count_agrees_with_min_height(planted_base(r20, 10, five))

    def test_small_coprime_bases(self):
        for a in range(3, 401):
            if a % 2 and a % 5:
                check_count_agrees_with_min_height(a)


def check_tail_past_the_run(a: int) -> None:
    """Past the certified run's top height L, stable_count equals a run
    measured to L+3, and min_height(a, t) is the least height of that run
    for every t from n(L)+1 to n(L)+2V+1."""
    seq = certified_sequence(a)
    top, v = len(seq.frozen_prefix), seq.speed
    longer = speed_sequence(a, top + 3).frozen_prefix
    assert [stable_count(a, b).value for b in range(1, top + 4)] == longer, a
    for target in range(longer[top - 1] + 1, longer[top - 1] + 2 * v + 2):
        least = next(b for b, n in enumerate(longer, 1) if n >= target)
        assert min_height(a, target).height == least, (a, target)


class TestTailPastTheRun:
    @pytest.mark.parametrize("five", [True, False])
    @pytest.mark.parametrize("r20", sorted(CLASS_LABEL))
    def test_planted_bases(self, r20, five):
        check_tail_past_the_run(planted_base(r20, 10, five))

    def test_small_coprime_bases(self):
        for a in range(3, 401):
            if a % 2 and a % 5:
                check_tail_past_the_run(a)


def check_count_matches_the_oracle(a: int, heights: int, budget: int = DEFAULT_BUDGET) -> None:
    want = speed_sequence(a, heights, budget).frozen_prefix
    assert [stability._count(a, b) for b in range(1, heights + 1)] == want, a


class TestValuationLines:
    """_count, two valuation lines capped at the tower's length, against the
    oracle's measured counts up to two heights past the certified height."""

    def test_small_bases(self):
        for a in range(2, 5001):
            if a % 10:
                check_count_matches_the_oracle(a, _certified_height(a) + 2)

    @pytest.mark.parametrize("speed", [10, 20])
    @pytest.mark.parametrize("five", [True, False])
    @pytest.mark.parametrize("r20", sorted(CLASS_LABEL))
    def test_planted_coprime_bases(self, r20, five, speed):
        a = planted_base(r20, speed, five)
        check_count_matches_the_oracle(a, _certified_height(a) + 2)

    @pytest.mark.parametrize("speed", [10, 20])
    @pytest.mark.parametrize("r20", NONCOPRIME_R20)
    def test_planted_noncoprime_bases(self, r20, speed):
        a = planted_noncoprime(r20, speed)
        check_count_matches_the_oracle(a, _certified_height(a) + 2)

    def test_a_speed_400_base_at_its_first_heights(self):
        check_count_matches_the_oracle(planted_base(3, 400, True), 6, budget=2**13)

    def test_any_speed_and_any_height(self):
        # 10^3000 + 1: w2 = w5 = 3000, and every count from height 2 on is (b+1)V
        a = 10**3000 + 1
        assert [stable_count(a, b).value for b in (1, 2, 3, 10**9)] == [3001, 9000, 12000, 3000 * (10**9 + 1)]
        assert min_height(a, 10**6).height == 333
        assert stable_shape(a) is StableShape.B_PLUS_1_V


class TestStableRatio:
    def test_reference_values(self):
        assert stable_ratio(2, 4) == Fraction(2, 5)
        assert stable_ratio(5, 2) == 1
        assert stable_count(5, 2).value == 4  # all four digits of 3125 frozen
        assert stable_ratio(2, 1) == 0
        assert stable_ratio(1, 3) == 1

    def test_certified_digit_count_for_tall_towers(self):
        # 2^65536 has 19729 digits
        got = stable_ratio(2, 5)
        assert got == Fraction(3, 19729)

    def test_digit_counts_past_2_53(self):
        # e*log10(a) above 2^53: a count rounded to a double is off by a few
        assert stable_ratio(15, 3) == Fraction(13, 515003176870815368)
        assert stable_ratio(2000000000000001, 2) == Fraction(45, 30602059991327979)

    def test_huge_or_coprime_numerators(self):
        got = stable_ratio(163574218751, 2)
        assert got.numerator == 31

    def test_the_count_is_read_at_its_own_height(self):
        # the height-2 count alone, with no run to height speed_bound + 3 = 14
        assert stable_ratio(6907922943, 2) == Fraction(11, 67969454232)
        assert stable_ratio(5**22 + 1, 2) == Fraction(22, 12220811919683155)

    def test_not_representable(self):
        with pytest.raises(TowerNotRepresentable):
            stable_ratio(3, 5)

    def test_a_base_past_the_str_digits_limit_is_named(self):
        a = 3 * 10**5000 + 7
        with pytest.raises(TowerNotRepresentable) as exc:
            stable_ratio(a, 3)
        with _no_str_digits_limit():
            assert str(exc.value) == f"the height-3 tower of {a} has too many digits to count"

    def test_rejects_multiples_of_ten(self):
        with pytest.raises(ValueError):
            stable_ratio(20, 2)

    @given(a=st.integers(2, 500), b=st.integers(1, 4))
    def test_between_zero_and_one(self, a, b):
        if a % 10 == 0:
            return
        try:
            r = stable_ratio(a, b)
        except TowerNotRepresentable:
            return
        assert 0 <= r <= 1


class TestCertifiedDigitCount:
    @pytest.mark.parametrize("e", [1, 2, 3, 97, 1000, 4999])
    def test_matches_the_exact_count(self, e):
        for a in range(2, 301):
            if a % 10:
                assert _certified_digit_count(a, e) == decimal_length(a**e), (a, e)

    @pytest.mark.parametrize("k", range(1, 19))
    def test_bases_next_to_powers_of_ten(self, k):
        for a in (10**k - 1, 10**k + 1, 10**k + 2):
            for e in (1, 2, 3, 7, 1000):
                assert _certified_digit_count(a, e) == decimal_length(a**e), (a, e)

    def test_long_bases_at_height_one(self):
        # log10(10^k + 2) is within 10^-k of k: a log would need k digits
        assert _certified_digit_count(10**30000 + 2, 1) == 30001
        assert _certified_digit_count(10**30000 - 1, 1) == 30000
        assert stable_ratio(10**30000 - 4, 1) == Fraction(2, 30000)

    def test_matches_the_100_digit_reference(self):
        rng = random.Random(20221)
        for _ in range(2000):
            a = rng.randrange(2, 10 ** rng.randint(1, 40))
            a += a % 10 == 0
            e = rng.randrange(1, 10 ** rng.randint(1, 18) + 1)
            assert _certified_digit_count(a, e) == reference_digit_count(a, e), (a, e)


class TestMinHeight:
    def test_reference_values(self):
        assert min_height(4, 7).height == 8
        assert min_height(5, 1).height == 1
        assert min_height(163574218751, 91).height == 6
        assert min_height(7, 0).height == 1

    def test_closed_form_for_the_mod10_4_class(self):
        from tetrastable.arith import padic_valuation

        for a in (4, 14, 24, 124, 624):
            v = int(padic_valuation(a + 1, 5))
            for target in (1, 3, 10):
                want = -(-target // v) + 1
                assert min_height(a, target).height == want, (a, target)

    @pytest.mark.parametrize("a", [3, 6, 7, 15, 51, 107])
    def test_exactness_against_the_oracle(self, a):
        for target in (1, 2, 5, 9, 14):
            h = min_height(a, target).height
            assert stable_digit_count(a, h) >= target
            if h > 1:
                assert stable_digit_count(a, h - 1) < target

    @pytest.mark.parametrize("a", [2, 3, 5, 7, 11, 24, 163574218751, 10**90 + 1])
    def test_targets_past_a_machine_word(self, a):
        # past the run's top height the least height is a division, not a
        # search over a range as long as the target
        for target in (2**63, 10**20, 10**40 + 7):
            h = min_height(a, target).height
            assert stable_count(a, h).value >= target > stable_count(a, h - 1).value, (a, target)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            min_height(1, 3)
        with pytest.raises(ValueError):
            min_height(20, 3)


class TestStabilizationBound:
    def test_reference_values(self):
        assert stabilization_bound(5) == 4
        assert stabilization_bound(143) == 4
        # the second step of the mod10=6 class overshoots: stabilization
        # lands at height 3 even though the speed bound is 1
        assert stabilization_bound(6) == 3

    @pytest.mark.parametrize("a", list(range(2, 400)))
    def test_dominates_the_measured_height(self, a):
        if a % 10 == 0:
            return
        from tetrastable.oracle import measure_stabilization

        assert measure_stabilization(a) <= stabilization_bound(a), a

    @pytest.mark.parametrize("r20, speed, height", [(7, 10, 13), (3, 10, 13), (7, 20, 23)])
    def test_is_attained(self, r20, speed, height):
        a = planted_base(r20, speed, True)
        assert measure_stabilization(a) == stabilization_bound(a) == height

    def test_rejects_out_of_domain(self):
        for a in (0, 1, 10):
            with pytest.raises(ValueError):
                stabilization_bound(a)


class TestPlantedEveryClass:
    """Planted bases of high speed in every class mod 20: the exact counts and
    the coprime brackets against the measured run, and the height bound."""

    @pytest.mark.parametrize("speed", [10, 20, 30])
    @pytest.mark.parametrize("r20", NONCOPRIME_R20)
    def test_exact_count_matches_the_oracle(self, r20, speed):
        a = planted_noncoprime(r20, speed)
        seq = certified_sequence(a)
        assert seq.speed == speed
        assert seq.stabilized_at <= stabilization_bound(a)
        checked = 0
        for b, measured in enumerate(seq.frozen_prefix, 1):
            try:
                formula = stable_exact(a, b)
            except FormulaRangeError:
                continue
            assert formula.value == measured, (a, b)
            checked += 1
        assert checked >= len(seq.frozen_prefix) - 1

    @pytest.mark.parametrize("speed", [30, 40])
    @pytest.mark.parametrize("five", [True, False])
    @pytest.mark.parametrize("r20", sorted(CLASS_LABEL))
    def test_coprime_bracket_holds_the_oracle(self, r20, five, speed):
        a = planted_base(r20, speed, five)
        seq = certified_sequence(a)
        assert seq.speed == speed
        assert seq.stabilized_at <= stabilization_bound(a)
        for b in range(2, len(seq.frozen_prefix) + 1):
            bounds = stable_bounds(a, b)
            assert bounds.lower <= seq.frozen_prefix[b - 1] <= bounds.upper, (a, b)
            assert bounds.upper - bounds.lower <= speed + 1, (a, b)
