"""Local outlier factor (Breunig et al., SIGMOD 2000), from scratch.

Used in the "BiSAGE + LOF" comparison row of Table I and as the base
learner inside feature bagging.  Brute-force neighbour search is fine at
the embedding sizes the paper works with (hundreds to a few thousand
records, d ≤ 128).
"""

from __future__ import annotations

import numpy as np

from repro.detection.batch import row_wise_score_batch
from repro.detection.threshold import contamination_threshold
from repro.utils.validation import check_positive_int, check_probability

__all__ = ["LocalOutlierFactor"]


class LocalOutlierFactor:
    """LOF one-class scorer with out-of-sample query support."""

    def __init__(self, n_neighbors: int = 20, contamination: float = 0.05):
        check_positive_int(n_neighbors, "n_neighbors")
        check_probability(contamination, "contamination")
        self.n_neighbors = n_neighbors
        self.contamination = contamination
        self._x: np.ndarray | None = None
        self._k_distance: np.ndarray | None = None
        self._lrd: np.ndarray | None = None
        self._neighbors: np.ndarray | None = None
        self.threshold_: float | None = None
        self.train_scores_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "LocalOutlierFactor":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if len(x) < 2:
            raise ValueError("LOF requires at least two training samples")
        k = min(self.n_neighbors, len(x) - 1)
        self._x = x.copy()
        distances = _pairwise(x, x)
        np.fill_diagonal(distances, np.inf)
        order = np.argsort(distances, axis=1)[:, :k]
        neighbor_distances = np.take_along_axis(distances, order, axis=1)
        self._neighbors = order
        self._k_distance = neighbor_distances[:, -1]
        # Reachability distance of p from o: max(k-distance(o), d(p, o)).
        reach = np.maximum(self._k_distance[order], neighbor_distances)
        self._lrd = 1.0 / np.maximum(reach.mean(axis=1), 1e-12)
        lof = (self._lrd[order].mean(axis=1)) / self._lrd
        self.train_scores_ = lof
        self.threshold_ = contamination_threshold(lof, self.contamination)
        return self

    def decision_scores(self, x: np.ndarray) -> np.ndarray:
        """LOF scores of query points w.r.t. the training set (>1 = outlying)."""
        self._require_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        k = self._neighbors.shape[1]
        distances = _pairwise(x, self._x)
        order = np.argsort(distances, axis=1)[:, :k]
        neighbor_distances = np.take_along_axis(distances, order, axis=1)
        reach = np.maximum(self._k_distance[order], neighbor_distances)
        lrd_query = 1.0 / np.maximum(reach.mean(axis=1), 1e-12)
        return self._lrd[order].mean(axis=1) / lrd_query

    def is_outlier(self, x: np.ndarray) -> np.ndarray:
        return self.decision_scores(x) > self.threshold_

    score_batch = row_wise_score_batch

    def refit(self, x: np.ndarray) -> "LocalOutlierFactor":
        """Re-baseline on fresh embeddings (coordinated refresh).

        LOF keeps no RNG, so refit is exactly a fresh :meth:`fit` — the
        method exists so every detector exposes the same refresh
        capability surface.
        """
        return self.fit(x)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state: hyper-parameters + fitted arrays.

        ``decision_scores`` is a deterministic function of these arrays,
        so a restored detector scores bit-for-bit identically.
        """
        self._require_fitted()
        return {
            "n_neighbors": self.n_neighbors,
            "contamination": self.contamination,
            "x": self._x.copy(),
            "k_distance": self._k_distance.copy(),
            "lrd": self._lrd.copy(),
            "neighbors": self._neighbors.copy(),
            "threshold": float(self.threshold_),
            "train_scores": self.train_scores_.copy(),
        }

    def load_state_dict(self, state: dict) -> "LocalOutlierFactor":
        """Restore a detector saved by :meth:`state_dict`."""
        x = np.asarray(state["x"], dtype=np.float64)
        neighbors = np.asarray(state["neighbors"], dtype=np.int64)
        if x.ndim != 2 or len(x) < 2:
            raise ValueError(f"LOF state has a degenerate training matrix of shape {x.shape}")
        if neighbors.ndim != 2 or len(neighbors) != len(x):
            raise ValueError(f"LOF state neighbors shape {neighbors.shape} does not "
                             f"match {len(x)} training samples")
        if neighbors.size and (neighbors.min() < 0 or neighbors.max() >= len(x)):
            raise ValueError("LOF state neighbors index outside the training set")
        for name in ("k_distance", "lrd", "train_scores"):
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != (len(x),):
                raise ValueError(f"LOF state {name} has shape {arr.shape}, expected "
                                 f"({len(x)},) to match the training set")
        check_positive_int(int(state["n_neighbors"]), "n_neighbors")
        check_probability(float(state["contamination"]), "contamination")
        self.n_neighbors = int(state["n_neighbors"])
        self.contamination = float(state["contamination"])
        self._x = x
        self._k_distance = np.asarray(state["k_distance"], dtype=np.float64)
        self._lrd = np.asarray(state["lrd"], dtype=np.float64)
        self._neighbors = neighbors
        self.threshold_ = float(state["threshold"])
        self.train_scores_ = np.asarray(state["train_scores"], dtype=np.float64)
        return self

    def _require_fitted(self) -> None:
        if self._x is None:
            raise RuntimeError("LocalOutlierFactor has not been fitted; call fit first")


def _pairwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between rows of ``a`` and rows of ``b``."""
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    squared = np.maximum(aa + bb - 2.0 * a @ b.T, 0.0)
    return np.sqrt(squared)
