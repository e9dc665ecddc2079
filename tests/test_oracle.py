import hashlib
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tetrastable import arith, oracle
from tetrastable.arith import InvariantError, TowerNotRepresentable, _exp_terms, tower_value_capped
from tetrastable.decadic import AlphaTag, alpha_value
from tetrastable.oracle import (
    NeedsLargerBudget,
    _counts_at_precision,
    _tower_walk,
    certified_sequence,
    measure_stabilization,
    measured_speed,
    speed_sequence,
    stable_digit_count,
)
from tetrastable.speed import speed_bound, speed_exact, speed_mod20

from support import (
    CLASS_LABEL,
    brute_stable_count,
    exact_tower,
    lambda_tower_mod,
    naive_valuation,
    pow_walk,
    planted_base,
    pow_walk_counts,
    trailing_match,
)


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

    def test_a_budget_below_one_digit_is_refused(self):
        # it used to reach pow() as 2**-3, or a ladder that never starts; a
        # multiple of 10 was answered before any check
        calls = (lambda: speed_sequence(7, 3, budget=-5), lambda: stable_digit_count(7, 3, -1),
                 lambda: stable_digit_count(2, 3, -1), lambda: stable_digit_count(7, 3, 0),
                 lambda: stable_digit_count(20, 2, -1), lambda: speed_sequence(0, 3, -1),
                 lambda: certified_sequence(1, -1), lambda: measure_stabilization(7, -1),
                 lambda: measured_speed(7, 0))
        for call in calls:
            with pytest.raises(ValueError, match=r"budget must be at least 1 digit, got (-1|-5|0)$"):
                call()

    def test_multiples_of_ten_count_trailing_zeros(self):
        assert stable_digit_count(20, 1) == 1
        assert stable_digit_count(40, 2) == 40  # 40^40 = 4^40 * 10^40
        assert stable_digit_count(300, 2) == 600

    def test_multiples_of_ten_hit_the_machine_range(self):
        with pytest.raises(TowerNotRepresentable):
            stable_digit_count(20, 3)
        with pytest.raises(TowerNotRepresentable, match="height-5 tower of 10 "):
            stable_digit_count(10, 5)

    def test_a_base_past_the_str_digits_limit_is_named(self):
        # 5,001 digits: the message formats the base past CPython's int -> str limit
        a = 10**5000
        with pytest.raises(TowerNotRepresentable) as exc:
            stable_digit_count(a, 3)
        with arith._no_str_digits_limit():
            assert str(exc.value) == f"the height-3 tower of {a} has too many digits to count"

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

    def test_the_base_cases_are_read_off_runs(self):
        zero, one = certified_sequence(0), certified_sequence(1)
        assert (zero.stabilized_at, zero.speed) == (1, 0)
        assert (one.stabilized_at, one.speed) == (2, 0)

    @pytest.mark.parametrize("reported", [lambda max_b: None, lambda max_b: max_b], ids=["absent", "late"])
    def test_a_run_not_stable_from_the_certified_height_is_a_failed_check(self, monkeypatch, reported):
        # 7 is certified from height 4, so its run goes to height 5
        real = oracle.speed_sequence

        def broken(a, max_b, budget):
            return real(a, max_b, budget)._replace(stabilized_at=reported(max_b))

        monkeypatch.setattr(oracle, "speed_sequence", broken)
        with pytest.raises(InvariantError, match=r"^stabilization of 7 not certified by height 4, got (None|5)$"):
            certified_sequence(7)

    @pytest.mark.parametrize("call, a", [(measure_stabilization, 0), (certified_sequence, -1), (certified_sequence, 30)])
    def test_rejects_bases_without_a_speed(self, call, a):
        with pytest.raises(ValueError):
            call(a)

    def test_certified_runs_are_pinned(self):
        h = hashlib.sha256()
        for a in range(1, 2001):
            if a % 10:
                row = (certified_sequence(a) if a > 1 else None, measure_stabilization(a), measured_speed(a))
                h.update(repr(row).encode())
        h.update(repr(measured_speed(0)).encode())
        assert h.hexdigest()[:16] == "bc5fdb105fb40dce"

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


def walk_residues(a: int, heights: int, n: int) -> list[tuple[int, int]]:
    return [(x2, x5) for _, (x2, x5, *_) in zip(range(heights), _tower_walk(a, n))]


def exp_steps(a: int, heights: int, n: int):
    """(p, v, K) of each exp step the walk takes up to height `heights`: the
    valuation v of D_b * log and the index K of the last term summed."""
    w = {2: naive_valuation(a * a - 1, 2) - 1 if a % 2 else None,
         5: naive_valuation(a**4 - 1, 5) if a % 5 else None}
    steps = []
    walk = _tower_walk(a, n)
    next(walk)
    for b, (_, _, v2, v5, t) in zip(range(2, heights), walk):
        for p, vp, min_v2 in ((2, v2, 1), (5, v5, 2)):  # 2 | D at 2, 4 | D at 5
            if (w[p] is not None and v2 >= min_v2 and vp + w[p] >= arith._EXP_GATE and vp + w[p] < n
                    and (t is None or t > p**n)):
                steps.append((p, vp + w[p], _exp_terms(vp + w[p], n, p)))
    return steps


def exp_primes(monkeypatch) -> list[int]:
    """The prime of every _padic_exp call from here on, in call order."""
    primes = []
    real = arith._padic_exp

    def counting(*args):
        primes.append(args[2])
        return real(*args)

    monkeypatch.setattr(arith, "_padic_exp", counting)
    return primes


_LAMBDA_BASES = list(range(61)) + [99, 100, 125, 128, 1000, 2**20, 5**9, 163574218751]


def _crt(r2: int, m2: int, r5: int, m5: int) -> int:
    return r5 + m5 * ((r2 - r5) * pow(m5, -1, m2) % m2)


# a == 2 (mod 4) whose 4th power is 1 modulo 5^12: D_1 = a^a - a is 2 mod 4,
# yet the valuation of D_1 * log(a^4)/4 passes the gate, so only the check
# that 4 divides D keeps the walk off exp at 5 (a^D is not <a>^D there)
_TWO_MOD_FOUR = [_crt(2, 4, pow(r, 5**11, 5**12), 5**12) for r in (2, 3)]


def class_constant(r20: int, n: int) -> int:
    """The last n digits of the 10-adic constant of coprime class r20 mod 20."""
    return alpha_value(AlphaTag.from_label(CLASS_LABEL[r20]), n)


# agreeing with a 10-adic constant in many digits: high valuations at both primes
_PLANTED = [class_constant(r, 20) + 10**20 * (r + 2) for r in (1, 7, 9, 13)]


class TestExpWalk:
    """The exp/log walk against the pow() walk and the textbook recursion of
    tests/support.py, residue by residue and count by count."""

    @pytest.mark.parametrize("a", _LAMBDA_BASES + _TWO_MOD_FOUR)
    def test_residues_match_textbook_recursion(self, a):
        for n in (2, 3, 4, 5, 7, 10, 16, 25, 40):
            got = walk_residues(a, 40, n)
            for b in list(range(1, 13)) + [40]:
                want = lambda_tower_mod(a, b, 2**n), lambda_tower_mod(a, b, 5**n)
                assert got[b - 1] == want, (b, n)

    @pytest.mark.parametrize("a", [3, 7, 11, 13, 2, 5, 99, 163574218751, 10**70 + 1] + _TWO_MOD_FOUR + _PLANTED)
    def test_residues_match_pow_walk_at_every_precision(self, a):
        # every precision from 10 to 99, so that some exp steps sum a last
        # term whose valuation is exactly n - 1 (K = p^j and n = K*v - (K-1)/(p-1) + 1);
        # for 10^70 + 1 at n <= 69, a^2 == 1 (mod 2^(n+2)) and a^4 == 1 (mod 5^(n+1)),
        # so the walk's w2 and w5 are infinite
        for n in range(10, 100):
            assert walk_residues(a, 30, n) == pow_walk(a, 30, n), n

    def test_exp_steps_where_the_last_term_counts(self):
        # the walks checked above do take such steps, at both primes
        tight = {2: 0, 5: 0}
        for a in (3, 7, 11, 13, 99, 163574218751):
            for n in range(10, 100):
                for p, v, k in exp_steps(a, 30, n):
                    j = round(math.log(k, p)) if k else 0
                    if k == p**j and k * v - (k - 1) // (p - 1) == n - 1:
                        tight[p] += 1
        assert tight[2] > 0 and tight[5] > 0, tight

    def test_the_four_divides_d_gate_is_reached(self):
        for a in _TWO_MOD_FOUR:
            walk = _tower_walk(a, 40)
            next(walk)
            _, _, v2, v5, _ = next(walk)
            assert v2 == 1 and v5 == 0 and naive_valuation(a**4 - 1, 5) >= arith._EXP_GATE

    def test_counts_match_pow_walk(self):
        rng = random.Random(6)
        cases = [(a, 12, 64) for a in range(2, 301)]
        cases += [(a, h, n) for a in (3, 7, 13, 99, 163574218751) for h, n in ((40, 128), (70, 128), (9, 256))]
        cases += [(class_constant(r, k), speed_bound(class_constant(r, k)) + 3, n)
                  for r in (3, 7, 9, 11, 13, 17, 19) for k, n in ((6, 64), (8, 128), (12, 512))]
        cases += [(rng.randrange(10**29, 10**30), 8, 64) for _ in range(20)]
        cases += [(rng.randrange(10**99999, 10**100000), 8, 64)]
        failing = 0
        for a, h, n in cases:
            want = pow_walk_counts(a, h, n)
            failing += want is None
            assert _counts_at_precision(a, h, n) == want, (a, h, n)
        assert failing > 10

    @pytest.mark.parametrize("a, heights, exp_prime", [(2, 60, 5), (12, 60, 5), (5, 40, 2), (15, 25, 2)])
    def test_a_base_divisible_by_one_prime_pays_pow_at_that_prime_only(self, monkeypatch, a, heights, exp_prime):
        primes = exp_primes(monkeypatch)
        assert _counts_at_precision(a, heights, 128) is not None
        assert primes.count(7 - exp_prime) == 0 and primes.count(exp_prime) >= heights - 12

    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64, 200])
    def test_an_odd_base_takes_exp_at_two_exactly_above_two_to_the_n(self, monkeypatch, n):
        # at 2 the gate always holds for odd a: every T_b is odd, so 2 | D, and
        # v2(a^2 - 1) - 1 >= 2; so no exponent is ever reduced modulo lambda(2^n)
        primes = exp_primes(monkeypatch)
        for a in list(range(3, 400, 2)) + [163574218751, 10**30 + 7]:
            walk = _tower_walk(a, n)
            next(walk)
            for b in range(1, 13):
                primes.clear()
                next(walk)  # the step from T_b to T_(b+1)
                assert (2 in primes) == (tower_value_capped(a, b, 2**n) is None), (a, n, b)

    @pytest.mark.parametrize("a, heights, prefix, ndigits", [(163574218751, 100, 30, 512), (3, 1000, 100, 128)])
    def test_tall_runs(self, a, heights, prefix, ndigits):
        # the whole runs take 0.3-1 s here and 45-60 s by pow() alone
        counts = speed_sequence(a, heights).frozen_prefix
        assert counts[:prefix] == pow_walk_counts(a, prefix, ndigits)


class TestPlantedHighSpeed:
    """Bases agreeing with their class constant in 30-40 digits: the oracle
    certifies a high speed, and both closed forms must name it."""

    @pytest.mark.parametrize("speed", [30, 40])
    @pytest.mark.parametrize("five", [True, False])
    @pytest.mark.parametrize("r20", sorted(CLASS_LABEL))
    def test_certified_speed_matches_closed_forms(self, r20, five, speed):
        a = planted_base(r20, speed, five)
        condition, rule = speed_exact(a).rule.split(": ")
        assert condition.endswith("|=5") == five
        assert rule.startswith("v2" if five else "v5")
        assert certified_sequence(a).speed == speed_mod20(a).speed == speed_exact(a).speed == speed


class TestWalkValuations:
    def test_every_v5_is_the_valuation_of_the_residue_difference(self, monkeypatch):
        # after an exp step at 5 the walk tests v5 + w5 first; count the steps
        # whose prediction was below n and those where it reached n
        primes = exp_primes(monkeypatch)
        seen = {"predicted": 0, "past_n": 0}
        for a in _LAMBDA_BASES + _TWO_MOD_FOUR + _PLANTED:
            w5 = naive_valuation(a**4 - 1, 5) if a % 5 else None
            for n in range(10, 100):
                walk = _tower_walk(a, n)
                _, x5, _, v5, _ = next(walk)
                for _ in range(30):
                    primes.clear()
                    _, y5, v2, next_v5, _ = next(walk)
                    assert next_v5 == naive_valuation((y5 - x5) % 5**n, 5), (a, n)
                    if 5 in primes:
                        seen["predicted" if v5 + w5 < n else "past_n"] += 1
                    x5, v5 = y5, next_v5
                    if v2 >= n and v5 >= n:
                        break
        assert seen["predicted"] > 10000 and seen["past_n"] > 1000, seen


def passes_run(monkeypatch) -> list[int]:
    """The precision of every pass the oracle runs from here on, in order."""
    precisions = []
    real = oracle._counts_at_precision

    def recording(a, heights, ndigits):
        precisions.append(ndigits)
        return real(a, heights, ndigits)

    monkeypatch.setattr(oracle, "_counts_at_precision", recording)
    return precisions


class TestStartingPrecision:
    """The oracle's floor is exact: it runs one pass, at the least precision
    n where the independent pow() walk certifies the counts, with the same
    counts; at n - 1 that walk fails, unless n is the walk's least, 2."""

    def check(self, precisions: list[int], a: int, heights) -> list[int]:
        starts = []
        for h in heights:
            precisions.clear()
            counts = speed_sequence(a, h).frozen_prefix
            assert len(precisions) == 1, (a, h, precisions)
            n = precisions[0]
            assert counts == pow_walk_counts(a, h, n), (a, h, n)
            assert n == 2 or pow_walk_counts(a, h, n - 1) is None, (a, h, n)
            starts.append(n)
        return starts

    def test_small_bases(self, monkeypatch):
        precisions = passes_run(monkeypatch)
        starts = []
        for a in range(2, 2001):
            if a % 10:
                starts += self.check(precisions, a, range(1, speed_bound(a) + 4))
        assert sum(n > 64 for n in starts) > 10

    @pytest.mark.parametrize("a", _TWO_MOD_FOUR + _PLANTED)
    def test_planted_bases(self, monkeypatch, a):
        self.check(passes_run(monkeypatch), a, [*range(1, 9), speed_bound(a) + 3])

    @pytest.mark.parametrize("a", [5**40 * 4 - 1, 5**40 * 3 + 1, 5**40 - 1, 5**40 + 1, 5**40 * 2 + 1,
                                   2**42 + 1, 2**40 - 1])
    def test_planted_slopes_in_every_class_mod_four(self, monkeypatch, a):
        # w5 = 40 with a == 3, 0, 0, 2, 3 (mod 4), where 4 first divides D
        # at height 2, 2, 2, 3, 2; and w2 = 42, 40 on multiples of 5
        self.check(passes_run(monkeypatch), a, range(1, 9))

    @pytest.mark.parametrize("a", [10**90 + 1, 3 * 2**300 * 5**70 + 1, 3 * 2**70 * 5**300 + 1])
    def test_slopes_past_64_digits(self, monkeypatch, a):
        # (w2, w5) = (90, 90), (300, 70), (70, 300): each is read at the
        # budget, so neither reads as infinite and lifts the floor
        self.check(passes_run(monkeypatch), a, range(1, 5))

    @pytest.mark.parametrize("r20", [3, 11])
    def test_planted_high_speed_bases(self, monkeypatch, r20):
        # the top heights of a speed-30 base cost pow() about 20 s each
        self.check(passes_run(monkeypatch), planted_base(r20, 30, r20 == 3), range(1, 9))

    @pytest.mark.parametrize("r20", [3, 7, 9, 11, 13, 17, 19])
    def test_alpha_truncations(self, monkeypatch, r20):
        # the tall-towers stream: 6-14-digit truncations at heights up to speed_bound + 12
        precisions = passes_run(monkeypatch)
        for length in (6, 8, 10, 14):
            a = class_constant(r20, length)
            sb = speed_bound(a)
            heights = range(1, sb + 13) if length <= 8 else (1, 2, sb + 3, sb + 8, sb + 12)
            starts = self.check(precisions, a, heights)
            assert starts[-1] > 64


class TestBudget:
    """A floor at or above the budget raises before any pass: the pass would
    need floor + 1 digits."""

    def test_a_budget_below_the_floor_raises(self, monkeypatch):
        # 10^90 + 1 at height 93: the floor is 93 * 90 digits at both primes
        a = 10**90 + 1
        precisions = passes_run(monkeypatch)
        with pytest.raises(NeedsLargerBudget) as exc:
            speed_sequence(a, 93)
        assert str(exc.value) == f"stable digits of the height-93 tower of {a} exceed the 8192-digit budget"
        assert precisions == []

    def test_a_certified_run_past_the_budget_names_its_height(self, monkeypatch):
        # w5 = 70 > 64 digits: the run to height w5 + 3 = 73 raises before any pass
        a = 4 * 5**70 + 1
        precisions = passes_run(monkeypatch)
        with pytest.raises(NeedsLargerBudget, match=f"height-73 tower of {a} exceed the 64-digit budget"):
            certified_sequence(a, budget=64)
        assert precisions == []

    def test_a_base_past_the_str_digits_limit_is_named(self, monkeypatch):
        # 6,292 digits and w5 = 9,000 past the default budget: the run to height 9,003 raises
        a = 4 * 5**9000 + 1
        precisions = passes_run(monkeypatch)
        with pytest.raises(NeedsLargerBudget) as exc:
            certified_sequence(a)
        with arith._no_str_digits_limit():
            assert str(exc.value) == f"stable digits of the height-9003 tower of {a} exceed the 8192-digit budget"
        assert precisions == []

    @pytest.mark.parametrize("budget", [63, 64, 100, 117, 118, 127])
    def test_budgets_between_ladder_values(self, budget):
        # 163574218751 needs 118 digits by height 8: its floor is 117
        a, want = 163574218751, [12, 31, 46, 61, 76, 91, 104, 117]
        if budget <= 117:
            with pytest.raises(NeedsLargerBudget, match=f"height-8 tower of {a} exceed the {budget}-digit budget"):
                speed_sequence(a, 8, budget=budget)
        else:
            assert speed_sequence(a, 8, budget=budget).frozen_prefix == want

    def test_a_floor_below_the_counts_is_a_failed_check(self, monkeypatch):
        # the floor is exact, so the one pass it picks must certify: at 2
        # digits the height-1 count of 163574218751 (12) does not fit
        monkeypatch.setattr(oracle, "_difference_valuation", lambda a, b, cap: 0)
        precisions = passes_run(monkeypatch)
        with pytest.raises(InvariantError, match="^the 2-digit pass for 163574218751 to height 8 failed"):
            speed_sequence(163574218751, 8)
        assert precisions == [2]
