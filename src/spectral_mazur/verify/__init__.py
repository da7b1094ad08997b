"""Randomized verification: suite runner, modulus profiling, deterministic sampling."""

from .config import SuiteConfig, SuiteReport, Violation, dumps_json
from .modulus import MAP_NAMES, ModulusProfile, estimate_modulus
from .sampling import make_rng
from .suites import CORE_SUITE_NAMES, SUITE_NAMES, run_inequality_suite

__all__ = [
    "SuiteConfig",
    "SuiteReport",
    "Violation",
    "dumps_json",
    "MAP_NAMES",
    "ModulusProfile",
    "estimate_modulus",
    "make_rng",
    "CORE_SUITE_NAMES",
    "SUITE_NAMES",
    "run_inequality_suite",
]
