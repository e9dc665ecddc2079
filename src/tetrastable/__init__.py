"""Constant congruence speed and frozen trailing digits of integer tetrations.

The package computes, for a nonnegative integer base a, how many trailing
decimal digits of the power tower a^(a^(...)) are frozen at each height, and
the eventual per-step freeze rate V(a), via closed 2-adic/5-adic forms that
are all verified against a direct modular power-tower oracle.
"""
from .arith import (
    INFINITY,
    InvariantError,
    digit,
    padic_valuation,
    tetration_mod,
    tetration_mod_pow10,
    tower_value_capped,
)
from .decadic import (
    ALPHA_TAGS,
    AlphaDigits,
    AlphaTag,
    KeyDigitReport,
    alpha_digit_at,
    alpha_digits,
    alpha_value,
    idempotent_e5,
    key_digit,
    two_tower_t2,
)
from .oracle import (
    DEFAULT_BUDGET,
    NeedsLargerBudget,
    SpeedSequence,
    measure_stabilization,
    measured_speed,
    speed_sequence,
    stable_digit_count,
)
from .speed import (
    SpeedResult,
    Tier,
    classify_tier,
    speed_bound,
    speed_exact,
    speed_mod20,
    speed_mod100,
    tier_of,
)
from .stability import (
    FormulaRangeError,
    HeightPlan,
    StableCount,
    StableShape,
    TowerNotRepresentable,
    min_height,
    stabilization_bound,
    stable_bounds,
    stable_count,
    stable_exact,
    stable_ratio,
    stable_shape,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "InvariantError",
    "padic_valuation",
    "tetration_mod",
    "tetration_mod_pow10",
    "tower_value_capped",
    "digit",
    "AlphaTag",
    "AlphaDigits",
    "KeyDigitReport",
    "ALPHA_TAGS",
    "idempotent_e5",
    "two_tower_t2",
    "alpha_value",
    "alpha_digits",
    "alpha_digit_at",
    "key_digit",
    "SpeedResult",
    "Tier",
    "tier_of",
    "speed_bound",
    "speed_mod100",
    "speed_mod20",
    "speed_exact",
    "classify_tier",
    "DEFAULT_BUDGET",
    "NeedsLargerBudget",
    "SpeedSequence",
    "stable_digit_count",
    "speed_sequence",
    "measure_stabilization",
    "measured_speed",
    "FormulaRangeError",
    "TowerNotRepresentable",
    "StableCount",
    "StableShape",
    "HeightPlan",
    "stable_exact",
    "stable_bounds",
    "stable_shape",
    "stable_count",
    "stable_ratio",
    "min_height",
    "stabilization_bound",
    "__version__",
]
