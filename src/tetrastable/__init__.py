"""Constant congruence speed and frozen trailing digits of integer tetrations.

The package computes, for a nonnegative integer base a, how many trailing
decimal digits of the power tower a^(a^(...)) are frozen at each height, and
the eventual per-step freeze rate V(a), via closed 2-adic/5-adic forms that
are all verified against a direct modular power-tower oracle.

Importing the package loads none of its modules: each public name is read
from its home module on first use (PEP 562), so a command-line call pays
only for the layers it runs.
"""
import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {
    name: module
    for module, names in {
        "arith": (
            "INFINITY", "InvariantError", "TowerNotRepresentable", "DEFAULT_BUDGET", "NeedsLargerBudget",
            "padic_valuation", "tetration_mod_pow10", "tower_value_capped", "digit",
            "speed_bound",
        ),
        "decadic": (
            "AlphaTag", "AlphaDigits", "KeyDigitReport", "ALPHA_TAGS", "idempotent_e5", "two_tower_t2",
            "alpha_value", "alpha_digits", "alpha_digit_at", "key_digit",
        ),
        "speed": (
            "SpeedResult", "Tier", "tier_of", "speed_mod100", "speed_mod20", "speed_exact", "classify_tier",
        ),
        "oracle": (
            "SpeedSequence", "stable_digit_count", "speed_sequence", "measure_stabilization", "measured_speed",
        ),
        "stability": (
            "FormulaRangeError", "StableCount", "StableShape", "HeightPlan", "stable_exact", "stable_bounds",
            "stable_shape", "stable_count", "stable_ratio", "min_height", "stabilization_bound",
        ),
    }.items()
    for name in names
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
