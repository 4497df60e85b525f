"""Small argument-validation helpers shared across the library.

These raise early with messages that name the offending argument, per
the "errors should never pass silently" guideline.  They return the
validated value so call sites can validate and assign in one statement.
"""

from __future__ import annotations

import math

import numpy as np


def check_positive(value: float, name: str) -> float:
    """Ensure ``value`` is a finite number strictly greater than zero."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Ensure ``value`` is an integer strictly greater than zero."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_probability(value: float, name: str) -> float:
    """Ensure ``value`` lies in the closed interval [0, 1]."""
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)

