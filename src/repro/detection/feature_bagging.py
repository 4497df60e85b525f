"""Feature bagging for outlier detection (Lazarevic & Kumar, KDD 2005).

"BiSAGE + Feature bagging" row of Table I: an ensemble of base outlier
detectors (LOF, as in the original paper), each fitted on a random
feature subset of size between ⌈d/2⌉ and d−1; scores are combined by the
cumulative-sum rule and thresholded by contamination on training data.
"""

from __future__ import annotations

import numpy as np

from repro.detection.batch import row_wise_score_batch
from repro.detection.lof import LocalOutlierFactor
from repro.detection.threshold import contamination_threshold
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int, check_probability

__all__ = ["FeatureBagging"]


class FeatureBagging:
    """Cumulative-sum feature-bagged LOF ensemble."""

    def __init__(self, n_estimators: int = 10, n_neighbors: int = 20,
                 contamination: float = 0.05, seed=None):
        check_positive_int(n_estimators, "n_estimators")
        check_positive_int(n_neighbors, "n_neighbors")
        check_probability(contamination, "contamination")
        self.n_estimators = n_estimators
        self.n_neighbors = n_neighbors
        self.contamination = contamination
        self.seed = seed
        self._rng = as_rng(seed)
        self._members: list[tuple[np.ndarray, LocalOutlierFactor]] = []
        self.threshold_: float | None = None
        self.train_scores_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "FeatureBagging":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if len(x) < 2:
            raise ValueError("feature bagging requires at least two samples")
        d = x.shape[1]
        if d < 2:
            raise ValueError("feature bagging requires at least two features")
        low = int(np.ceil(d / 2.0))
        self._members = []
        for _ in range(self.n_estimators):
            size = int(self._rng.integers(low, d)) if d > low else low
            features = self._rng.choice(d, size=size, replace=False)
            detector = LocalOutlierFactor(n_neighbors=self.n_neighbors,
                                          contamination=self.contamination)
            detector.fit(x[:, features])
            self._members.append((features, detector))
        self.train_scores_ = self.decision_scores(x)
        self.threshold_ = contamination_threshold(self.train_scores_, self.contamination)
        return self

    def decision_scores(self, x: np.ndarray) -> np.ndarray:
        """Cumulative-sum combination of member LOF scores."""
        self._require_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        total = np.zeros(len(x))
        for features, detector in self._members:
            total += detector.decision_scores(x[:, features])
        return total

    def is_outlier(self, x: np.ndarray) -> np.ndarray:
        return self.decision_scores(x) > self.threshold_

    score_batch = row_wise_score_batch

    def refit(self, x: np.ndarray) -> "FeatureBagging":
        """Re-baseline on fresh embeddings (coordinated refresh).

        The ensemble RNG is re-derived from the constructor seed so a
        refit is a pure function of ``(seed, x)`` — two same-seed
        ensembles refit on the same embeddings draw identical feature
        subsets.
        """
        self._rng = as_rng(self.seed)
        return self.fit(x)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state: hyper-parameters + per-member (features, LOF).

        The ensemble RNG is not saved — it only seeds a future ``fit``;
        scoring is deterministic in the stored members.
        """
        self._require_fitted()
        return {
            "n_estimators": self.n_estimators,
            "n_neighbors": self.n_neighbors,
            "contamination": self.contamination,
            "threshold": float(self.threshold_),
            "train_scores": self.train_scores_.copy(),
            "members": {
                str(i): {"features": np.asarray(features, dtype=np.int64),
                         "lof": detector.state_dict()}
                for i, (features, detector) in enumerate(self._members)
            },
        }

    def load_state_dict(self, state: dict) -> "FeatureBagging":
        """Restore an ensemble saved by :meth:`state_dict`."""
        saved = state["members"]
        members: list[tuple[np.ndarray, LocalOutlierFactor]] = []
        for i in range(len(saved)):
            member = saved[str(i)]
            features = np.asarray(member["features"], dtype=np.int64)
            if features.ndim != 1 or features.size == 0:
                raise ValueError(f"feature-bagging member {i} has a bad feature subset")
            members.append((features, LocalOutlierFactor().load_state_dict(member["lof"])))
        if not members:
            raise ValueError("feature-bagging state holds no members")
        check_positive_int(int(state["n_estimators"]), "n_estimators")
        check_positive_int(int(state["n_neighbors"]), "n_neighbors")
        check_probability(float(state["contamination"]), "contamination")
        self.n_estimators = int(state["n_estimators"])
        self.n_neighbors = int(state["n_neighbors"])
        self.contamination = float(state["contamination"])
        self._members = members
        self.threshold_ = float(state["threshold"])
        self.train_scores_ = np.asarray(state["train_scores"], dtype=np.float64)
        return self

    def _require_fitted(self) -> None:
        if not self._members:
            raise RuntimeError("FeatureBagging has not been fitted; call fit first")
