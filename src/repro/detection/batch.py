"""Batch-scoring contract for detectors on the batch data plane.

A detector may expose::

    def score_batch(self, embeddings: np.ndarray) -> BatchScores: ...

``score_batch`` receives a C-contiguous ``(B, d)`` float64 matrix of
embedding rows and must return, per row, exactly what one scalar
``observe`` would have derived from the same row against the detector's
*current* state:

* ``scores[i]``   — ``float(decision_scores(row_i[None, :])[0])``
* ``outliers[i]`` — ``bool(is_outlier(row_i[None, :])[0])``
* ``confident[i]``— ``bool(is_confident_inlier(row_i[None, :])[0])``

bit for bit.  Every detector is served through the same batch path,
``EmbeddingGeofencer._score_rows``, which calls the hook when it exists
and otherwise makes those three scalar calls row by row.  Detectors
whose dense kernels depend on the batch size (pairwise or ensemble
scorers: LOF, iForest, feature bagging) cannot score the matrix in one
call; they bind :func:`row_wise_score_batch`, which scores each row on
its own, once.  The registry's ``supports_batch_score`` flag records
which detectors have a hook.

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
