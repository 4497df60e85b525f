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
whose batch math cannot honour the contract (pairwise or ensemble
scorers whose dense kernels depend on the batch size, e.g. LOF /
iForest / feature bagging) therefore simply do not define the hook;
the registry's ``supports_batch_score`` flag records which detectors
have it.

The caller owns update semantics: ``score_batch`` must not mutate the
detector, and scores it returned become stale the moment the caller
applies an ``update`` — ``observe_many`` re-scores the remainder of the
batch after every flush for exactly that reason.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["BatchScores"]


class BatchScores(NamedTuple):
    """Per-row detector verdicts for one batch of embedding rows."""

    scores: np.ndarray     # (B,) float64 decision scores
    outliers: np.ndarray   # (B,) bool — score beyond the OUT threshold
    confident: np.ndarray  # (B,) bool — confident-inlier (absorbable)
