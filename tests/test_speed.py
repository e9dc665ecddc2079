import hashlib
import math
import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tetrastable.arith import _slope
from tetrastable.decadic import AlphaTag, alpha_value
from tetrastable.oracle import certified_sequence
from tetrastable.speed import (
    Tier,
    classify_tier,
    speed_bound,
    speed_exact,
    speed_mod20,
    speed_mod100,
    tier_of,
)

from support import (
    C_COMPLEMENT,
    CLASS_LABEL,
    CLASS_RULES,
    Q_COMPLEMENT,
    naive_slopes,
    naive_valuation,
    planted_base,
    reference_tier,
)

valid_bases = st.integers(2, 10**6).filter(lambda a: a % 10 != 0)


class TestSpeedBound:
    def test_reference_values(self):
        assert speed_bound(7) == naive_valuation(50, 5) == 2
        assert speed_bound(5) == naive_valuation(24, 2) - 1 == 2
        assert speed_bound(163574218751) == 13

    @pytest.mark.parametrize("a", [0, 1, 10, 20, 1000])
    def test_rejects_out_of_domain(self, a):
        with pytest.raises(ValueError):
            speed_bound(a)

    @given(a=valid_bases)
    def test_dominates_the_exact_speed(self, a):
        assert speed_exact(a).speed <= speed_bound(a)


class TestClosedFormMaps:
    def test_mod100_reference_values(self):
        assert speed_mod100(501).speed == 2
        assert speed_mod100(1).speed == 0
        assert speed_mod100(2).speed == 1
        assert speed_mod100(0).speed == 0
        assert speed_mod100(30).speed is None

    def test_mod20_reference_values(self):
        assert speed_mod20(15).speed == 4
        assert speed_mod20(51).speed == 2
        assert speed_mod20(6).speed == 1

    def test_exact_reference_values(self):
        assert speed_exact(163574218751).speed == 13
        assert speed_exact(6907922943).speed == 9
        assert speed_exact(0).speed == 0
        assert speed_exact(30).speed is None
        assert speed_exact(501).speed == 2
        assert speed_exact(51).speed == 2
        assert speed_exact(25).speed == 3
        assert speed_exact(75).speed == 2
        assert speed_exact(5).speed == 2

    def test_rules_name_the_branch(self):
        assert "v2(a-1)" in speed_exact(501).rule
        assert "alpha_51" in speed_exact(51).rule
        assert "undefined" in speed_exact(30).rule

    @pytest.mark.parametrize("r20", sorted(CLASS_RULES))
    def test_each_odd_class_names_the_papers_valuations(self, r20):
        # the mod-20 row names the class's valuations; the exact map compares the
        # base with its class constant and names the 2-adic one when |s_l - alpha[l]| = 5
        names = CLASS_RULES[r20]
        text = names[0] if len(names) == 1 else f"min({', '.join(names)})"
        a = 20 * 10**30 + r20
        assert speed_mod20(a).rule == f"mod20={r20}: {text}"
        if r20 not in CLASS_LABEL:
            assert speed_exact(a) == speed_mod20(a)
            return
        for five in (True, False):
            label, name = speed_exact(planted_base(r20, 10, five)).rule.split(": ")
            assert f"|s_l-alpha_{CLASS_LABEL[r20]}[l]|" in label
            assert name == names[0 if five else 1]

    @given(a=st.integers(0, 10**6))
    @example(a=6907922943)
    @example(a=743)  # |s_l - alpha[l]| = 5 branch
    @example(a=501)
    @example(a=107)
    def test_three_maps_agree_everywhere(self, a):
        e, h, t = speed_exact(a), speed_mod100(a), speed_mod20(a)
        assert e.speed == h.speed == t.speed

    def test_full_results_of_the_three_maps_are_pinned(self):
        # speed and rule text of every map: the golden reports show only speed_exact's rule
        rng = random.Random(18)
        h = hashlib.sha256()
        for a in [*range(20001), *(rng.randrange(10**49, 10**50) for _ in range(2000))]:
            h.update(repr((speed_mod100(a), speed_mod20(a), speed_exact(a))).encode())
        assert h.hexdigest()[:16] == "96e8d9c63bc256b3"

    @given(a=st.integers(0, 10**6))
    def test_undefined_exactly_on_positive_multiples_of_ten(self, a):
        assert (speed_exact(a).speed is None) == (a % 10 == 0 and a != 0)

    @given(a=st.integers(0, 10**6))
    def test_zero_speed_only_for_zero_and_one(self, a):
        r = speed_exact(a)
        assert (r.speed == 0) == (a in (0, 1))

    @pytest.mark.parametrize("a", range(2, 120))
    def test_matches_the_tower_oracle_on_a_small_range(self, a):
        if a % 10 == 0:
            return
        assert speed_exact(a).speed == certified_sequence(a).speed


class TestTier:
    def test_reference_values(self):
        assert classify_tier(23) is Tier.V1
        assert classify_tier(35) is Tier.V2
        assert classify_tier(807) is Tier.V3_PLUS
        assert classify_tier(1) is Tier.V0
        assert classify_tier(30) is Tier.UNDEFINED

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            classify_tier(0)

    def test_the_two_residue_sets(self):
        # the tier theorem's sets, written out in support: 1..2000 covers every
        # class mod 40 and mod 1000, and the 60-digit bases are long ones
        assert len(C_COMPLEMENT) == 16
        assert len(Q_COMPLEMENT) == 24
        rng = random.Random(25)
        bases = [*range(1, 2001), *(rng.randrange(10**59, 10**60) for _ in range(2000))]
        assert [classify_tier(a).value for a in bases] == [reference_tier(a) for a in bases]

    @given(a=st.integers(1, 10**6))
    @example(a=1001)  # mod-1000 residue 1 with a != 1
    @example(a=999)
    @example(a=625)
    def test_consistent_with_the_exact_speed(self, a):
        assert classify_tier(a) is tier_of(speed_exact(a).speed)

    @given(a=valid_bases)
    def test_speed_at_least_two_iff_off_the_unit_residues(self, a):
        fast = speed_exact(a).speed >= 2
        expected = a % 5 == 0 or a % 25 in {1, 7, 18, 24}
        assert fast == expected


_TERMS = {"a-1": lambda a: a - 1, "a+1": lambda a: a + 1, "a^2+1": lambda a: a * a + 1, "a^2-1": lambda a: a * a - 1}


def rule_value(rule: str, a: int) -> int:
    """The formula a rule names, such as min(v2(a+1), v5(a^2+1)), evaluated
    on the squares themselves with naive valuations."""
    formula = rule.split(": ")[-1]
    v = min(naive_valuation(_TERMS[arg](a), int(p)) for p, arg in re.findall(r"v(\d)\(([^)]*)\)", formula))
    return v - 1 if formula.endswith(")-1") else v


def long_bases() -> list[int]:
    rng = random.Random(14)
    bases = [rng.randrange(2, 10**k) for k in (3, 30, 300) for _ in range(150)]
    # 5-adic roots of -1 and 2-adic near-units past the k = 32, 64, 128
    # steps of the reduction, at the end of a long base
    for k in (31, 32, 33, 63, 64, 65, 128, 129):
        root = pow(2, 5 ** (k - 1), 5**k)
        bases += [root + 5**k * rng.randrange(1, 10**40) for _ in range(3)]
        bases += [1 + 2 ** (k + 2) * rng.randrange(1, 10**40) for _ in range(3)]
        bases += [2 ** (k + 2) * rng.randrange(1, 10**40) - 1 for _ in range(3)]
    bases += [alpha_value(tag, 60) + 10**61 for tag in map(AlphaTag.from_label, CLASS_LABEL.values())]
    return [a for a in bases if a % 10]


class TestNoSquaredBase:
    """The maps take v5(a^2 + 1) from a reduced base and v2(a^2 - 1) as
    v2(a - 1) + v2(a + 1); each result is the formula its rule names."""

    def test_every_map_equals_its_rule_on_the_squares(self):
        for a in long_bases():
            for f in (speed_mod100, speed_mod20, speed_exact):
                result = f(a)
                if "(" in result.rule:
                    assert result.speed == rule_value(result.rule, a), (f.__name__, a, result)

    def test_bound_equals_its_formula_on_the_squares(self):
        for a in long_bases():
            r5 = a % 5
            want = (naive_valuation(a * a - 1, 2) - 1 if r5 == 0 else
                    naive_valuation(a * a + 1, 5) if r5 in (2, 3) else naive_valuation(a + (1 if r5 == 4 else -1), 5))
            assert speed_bound(a) == want, a

    def test_a_million_digits(self):
        # a base of 10^6 digits, which the maps reduce before squaring
        a = 3 * 10**999999 + 2
        assert speed_bound(a) == speed_mod100(a).speed == speed_mod20(a).speed == speed_exact(a).speed == 1
        root = pow(2, 5**69, 5**70)
        a = root + 3 * 10**999999  # a == root (mod 5^999999)
        want = naive_valuation(root * root + 1, 5)
        assert want >= 70 and speed_bound(a) == speed_mod20(a).speed == want


def capped(want: tuple, cap) -> tuple:
    return tuple(w if w is None or w <= cap else math.inf for w in want)


def slopes(a: int, cap=math.inf) -> tuple:
    return _slope(a, 2, cap), _slope(a, 5, cap)


class TestSlopes:
    """speed_bound is the slope w5 = v5(a^4 - 1), or w2 = v2(a^2 - 1) - 1 when
    5 divides a, and V(a) is the least slope at a prime not dividing a: both
    against the slopes by naive division of the powers."""

    def test_bound_and_mod20_are_the_naive_slopes(self):
        rng = random.Random(16)
        bases = [a for a in range(2, 20001) if a % 10]
        bases += [a for a in (rng.randrange(10**49, 10**50) for _ in range(3400)) if a % 10][:3000]
        bases += [planted_base(r20, v, five) for r20 in CLASS_LABEL for v in (30, 60) for five in (True, False)]
        assert len(bases) == 17999 + 3000 + 32
        for a in bases:
            w2, w5 = naive_slopes(a)
            assert speed_bound(a) == (w5 if a % 5 else w2), a
            assert speed_mod20(a).speed == min(w for w in (w2, w5) if w is not None), a

    def test_a_capped_read_is_infinite_exactly_above_the_cap(self):
        bases = long_bases() + [planted_base(r20, 60, five) for r20 in CLASS_LABEL for five in (True, False)]
        for a in bases:
            want = naive_slopes(a)
            assert slopes(a) == want, a
            near = {w + d for w in want if w is not None for d in (-1, 0, 1)}
            for cap in {2, 3, 31, 32, 33, 64, 100} | near:
                assert slopes(a, cap) == capped(want, cap), (a, cap)

    def test_a_hundred_thousand_digits(self):
        # 1 modulo 2^90 and a 5-adic square root of -1 modulo 5^80, past the k = 32, 64 reads
        m2, m5 = 2**90, 5**80
        root = pow(2, 5**79, m5)
        a = root + m5 * ((1 - root) * pow(m5, -1, m2) % m2) + 3 * 10**99999
        want = naive_slopes(a)
        assert want[0] >= 90 and want[1] >= 80
        assert slopes(a) == want
        assert speed_bound(a) == want[1] and speed_mod20(a).speed == min(want)
        for cap in (32, 64, want[1] - 1, want[1], want[0] - 1, want[0]):
            assert slopes(a, cap) == capped(want, cap), cap
