"""Batch-scoring contract every pipeline detector keeps.

A detector exposes::

    def score_batch(self, embeddings: np.ndarray) -> BatchScores: ...

``score_batch`` receives a C-contiguous ``(B, d)`` float64 matrix of
embedding rows and must return, per row, exactly what the detector's
three scalar calls give for that row alone against its *current*
state:

* ``scores[i]``   — ``float(decision_scores(row_i[None, :])[0])``
* ``outliers[i]`` — ``bool(is_outlier(row_i[None, :])[0])``
* ``confident[i]``— ``bool(is_confident_inlier(row_i[None, :])[0])``

bit for bit (``confident`` is False for a detector without
``is_confident_inlier``).  It is the one scoring call of
:class:`~repro.core.gem.EmbeddingGeofencer`: ``observe``, ``observe_many``,
``predict_many`` and ``score`` all go through it.  Detectors whose dense
kernels depend on the batch size (pairwise or ensemble scorers: LOF,
iForest, feature bagging) cannot score the matrix in one call; they
bind :func:`row_wise_score_batch`, which scores each row on its own,
once.

The caller owns update semantics: ``score_batch`` must not mutate the
detector, and scores it returned become stale the moment the caller
applies an ``update`` — ``observe_many`` re-scores the remainder of the
batch after every flush for exactly that reason.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["BatchScores", "row_wise_score_batch"]


class BatchScores(NamedTuple):
    """Per-row detector verdicts for one batch of embedding rows."""

    scores: np.ndarray     # (B,) float64 decision scores
    outliers: np.ndarray   # (B,) bool — score beyond the OUT threshold
    confident: np.ndarray  # (B,) bool — confident-inlier (absorbable)


def row_wise_score_batch(self, embeddings: np.ndarray) -> BatchScores:
    """``score_batch`` to bind on a detector whose ``is_outlier`` is
    ``decision_scores(x) > threshold_`` and that has no confident inliers:
    each row is scored once, as its own fresh ``(1, d)`` array (what a
    one-record call passes), and the score compared with ``threshold_``."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    scores = np.empty(len(embeddings), dtype=np.float64)
    for i in range(len(embeddings)):
        scores[i] = self.decision_scores(embeddings[i:i + 1].copy())[0]
    return BatchScores(scores=scores, outliers=scores > self.threshold_,
                       confident=np.zeros(len(scores), dtype=bool))
