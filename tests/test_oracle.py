import pytest
from hypothesis import given
from hypothesis import strategies as st

from tetrastable.arith import TowerNotRepresentable
from tetrastable.oracle import (
    NeedsLargerBudget,
    certified_sequence,
    measure_stabilization,
    measured_speed,
    speed_sequence,
    stable_digit_count,
)

from support import brute_stable_count, exact_tower, trailing_match


class TestStableDigitCount:
    def test_reference_values(self):
        assert stable_digit_count(2, 4) == 2
        assert stable_digit_count(20, 2) == 20
        for b in (1, 2, 5):
            assert stable_digit_count(0, b) == 0
            assert stable_digit_count(1, b) == 1

    def test_against_raw_pow_towers(self):
        # independent check: common trailing digits of 2^65536 and 65536
        t5 = pow(2, 65536, 10**12)
        assert trailing_match(65536, t5) == 2
        for a, b in [(2, 3), (2, 4), (3, 2), (7, 2), (6, 2), (51, 2), (5, 2), (5, 3)]:
            assert stable_digit_count(a, b) == brute_stable_count(a, b)

    def test_length_cap_for_short_towers(self):
        # the height-2 tower of 5 is 3125: it agrees with taller towers
        # modulo 10^5, but only has four digits to freeze
        assert pow(5, 3125, 10**5) == 3125
        assert stable_digit_count(5, 2) == 4
        # 51 is frozen through "051" against 51^51, but has two digits
        assert stable_digit_count(51, 1) == 2

    def test_multiples_of_ten_count_trailing_zeros(self):
        assert stable_digit_count(20, 1) == 1
        assert stable_digit_count(40, 2) == 40  # 40^40 = 4^40 * 10^40
        assert stable_digit_count(300, 2) == 600

    def test_multiples_of_ten_hit_the_machine_range(self):
        with pytest.raises(TowerNotRepresentable):
            stable_digit_count(20, 3)
        with pytest.raises(TowerNotRepresentable, match="height-5 tower of 10 "):
            stable_digit_count(10, 5)

    def test_budget_exhaustion_is_loud(self):
        with pytest.raises(NeedsLargerBudget):
            stable_digit_count(163574218751, 8, budget=64)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            stable_digit_count(-1, 2)
        with pytest.raises(ValueError):
            stable_digit_count(2, 0)


class TestSpeedSequence:
    def test_reference_sequences(self):
        assert speed_sequence(2, 5).entries == [0, 0, 1, 1, 1]
        assert speed_sequence(163574218751, 8).entries == [12, 19, 15, 15, 15, 15, 13, 13]
        assert speed_sequence(1, 3).entries == [1, 0, 0]
        assert speed_sequence(5, 5).entries == [1, 3, 4, 2, 2]
        assert speed_sequence(51, 4).entries == [2, 3, 2, 2]

    def test_cumulative_prefix_is_consistent(self):
        seq = speed_sequence(163574218751, 8)
        assert seq.frozen_prefix == [12, 31, 46, 61, 76, 91, 104, 117]

    @given(a=st.integers(0, 3000), max_b=st.integers(1, 7))
    def test_counts_never_decrease(self, a, max_b):
        if a % 10 == 0 and a > 0:
            max_b = min(max_b, 2)
        seq = speed_sequence(a, max_b)
        prefix = seq.frozen_prefix
        assert all(x <= y for x, y in zip(prefix, prefix[1:]))
        assert all(v >= 0 for v in seq.entries)

    def test_stabilization_is_only_reported_when_certified(self):
        assert speed_sequence(163574218751, 8).stabilized_at is None
        assert speed_sequence(163574218751, 16).stabilized_at == 7
        assert speed_sequence(51, 5).stabilized_at == 3

    def test_degenerate_bases_stabilize_immediately(self):
        assert speed_sequence(0, 4).stabilized_at == 1
        assert speed_sequence(1, 4).stabilized_at == 2
        assert speed_sequence(30, 2).stabilized_at is None


class TestStabilization:
    def test_reference_values(self):
        assert measure_stabilization(5) == 4
        assert measure_stabilization(15) == 3
        assert measure_stabilization(51) == 3
        assert measure_stabilization(1) == 2
        assert measure_stabilization(6907922943) == 7

    def test_rejects_multiples_of_ten(self):
        with pytest.raises(ValueError):
            measure_stabilization(10)

    @pytest.mark.parametrize("a", [2, 5, 6, 7, 51, 107, 143, 599])
    def test_entries_constant_from_the_reported_height(self, a):
        seq = certified_sequence(a)
        bbar = seq.stabilized_at
        tail = seq.entries[bbar - 1 :]
        assert len(set(tail)) == 1
        if bbar > 1:
            assert seq.entries[bbar - 2] != tail[0]

    def test_measured_speed_conventions(self):
        assert measured_speed(0) == 0
        assert measured_speed(1) == 0
        assert measured_speed(2) == 1
        with pytest.raises(ValueError):
            measured_speed(70)


class TestSequenceLaws:
    def test_zero_speed_census_small_range(self):
        allowed_b1 = {2, 3, 7, 12, 4, 14, 8, 18}
        for a in list(range(1, 240)) + [0]:
            if a % 10 == 0 and a != 0:
                continue
            entries = speed_sequence(a, 5).entries
            for b, v in enumerate(entries, start=1):
                expected_zero = (
                    (b == 1 and (a % 20 in allowed_b1 or a == 0))
                    or (b == 2 and (a % 20 in {2, 18} or a in (0, 1)))
                    or (b >= 2 and a in (0, 1))
                )
                assert (v == 0) == expected_zero, (a, b, entries)

    def test_monotone_after_the_second_step(self):
        for a in range(2, 240):
            if a % 10 == 0:
                continue
            entries = speed_sequence(a, 7).entries
            if a % 20 in (2, 18):
                assert all(entries[b - 1] >= entries[b] for b in range(3, 7)), (a, entries)
            elif a != 5:
                assert all(entries[b - 1] >= entries[b] for b in range(2, 7)), (a, entries)

    def test_first_two_speeds_bounded_by_three_times_the_limit(self):
        for a in range(2, 240):
            if a % 10 == 0:
                continue
            seq = certified_sequence(a)
            v = seq.speed
            assert seq.entries[0] + seq.entries[1] <= 3 * v, (a, seq.entries)
