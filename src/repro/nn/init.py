"""Parameter initialisers."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_rng

__all__ = ["xavier_uniform", "he_uniform"]


def xavier_uniform(shape: tuple[int, ...], rng=None, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for (fan_out, fan_in) weights."""
    rng = as_rng(rng)
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_uniform(shape: tuple[int, ...], rng=None) -> np.ndarray:
    """He/Kaiming uniform initialisation (for ReLU layers)."""
    rng = as_rng(rng)
    fan_in, _ = _fans(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("initialiser shapes must have at least one dimension")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_out = shape[0] * receptive
    fan_in = shape[1] * receptive
    return fan_in, fan_out
