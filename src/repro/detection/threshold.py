"""Score normalisation and contamination-based thresholding helpers."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_probability

__all__ = ["MinMaxNormalizer", "contamination_threshold"]


class MinMaxNormalizer:
    """Min–max rescaling into [0, 1], fitted on training scores.

    New scores may fall outside the training range; by default they are
    clipped into [0, 1] (a score lower than any training score is surely
    normal; higher is surely anomalous).
    """

    def __init__(self, clip: bool = True):
        self.clip = clip
        self.low: float | None = None
        self.high: float | None = None

    def fit(self, scores) -> "MinMaxNormalizer":
        scores = np.asarray(scores, dtype=np.float64)
        if scores.size == 0:
            raise ValueError("cannot fit a normalizer on zero scores")
        if not np.isfinite(scores).all():
            raise ValueError("scores contain non-finite values")
        self.low = float(scores.min())
        self.high = float(scores.max())
        return self

    def transform(self, scores) -> np.ndarray:
        if self.low is None or self.high is None:
            raise RuntimeError("normalizer has not been fitted")
        scores = np.asarray(scores, dtype=np.float64)
        span = self.high - self.low
        if span <= 0:
            # Degenerate training scores: everything maps to the midpoint.
            out = np.full_like(scores, 0.5)
        else:
            out = (scores - self.low) / span
        if self.clip:
            out = np.clip(out, 0.0, 1.0)
        return out

    def state_dict(self) -> dict:
        """Checkpointable state: the clip flag and the fitted range."""
        if self.low is None or self.high is None:
            raise RuntimeError("cannot checkpoint an unfitted normalizer")
        return {"clip": self.clip, "low": self.low, "high": self.high}

    def load_state_dict(self, state: dict) -> "MinMaxNormalizer":
        """Restore a normalizer saved by :meth:`state_dict`."""
        low = float(state["low"])
        high = float(state["high"])
        if high < low:
            raise ValueError(f"normalizer state has high ({high}) < low ({low})")
        self.clip = bool(state["clip"])
        self.low = low
        self.high = high
        return self


def contamination_threshold(scores, contamination: float) -> float:
    """The original HBOS threshold: the (n·γ)-th highest training score.

    With γ = 0 the threshold sits just above the maximum training score
    (nothing in training is flagged).
    """
    check_probability(contamination, "contamination")
    scores = np.sort(np.asarray(scores, dtype=np.float64))[::-1]
    if scores.size == 0:
        raise ValueError("cannot derive a threshold from zero scores")
    if contamination <= 0:
        return float(scores[0]) + 1e-12
    index = min(int(np.ceil(len(scores) * contamination)) - 1, len(scores) - 1)
    index = max(index, 0)
    return float(scores[index])
