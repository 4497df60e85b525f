"""Shared utilities: seeded randomness and argument validation."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import (
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = [
    "as_rng",
    "spawn_rngs",
    "check_positive",
    "check_positive_int",
    "check_probability",
]
