"""INOA baseline (Chow et al., IEEE TMC 2019).

As summarised in Sec. II/V of the GEM paper: each variable-length record
is decomposed into records over *pairs* of sensed APs; for every AP pair
a base learner learns a hypersphere over the 2-D RSS points observed in
training; at inference the record's pairs are fed to their base learners
and the fraction of out-of-sphere votes is the outlier score, thresholded
to decide in/out.

The hypersphere per pair is centred at the training mean with radius set
to a high quantile of training distances (a one-class support region, as
in the original ensemble-of-hyperspheres formulation).
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from repro.core.protocols import GeofenceDecision
from repro.core.records import SignalRecord
from repro.utils.validation import check_positive_int, check_probability

__all__ = ["INOA"]


class _PairLearner:
    """Hypersphere over the 2-D RSS observations of one AP pair."""

    __slots__ = ("center", "radius")

    def __init__(self, points: np.ndarray, quantile: float):
        self.center = points.mean(axis=0)
        distances = np.linalg.norm(points - self.center, axis=1)
        # Never collapse to zero radius: allow per-sample RSS jitter.
        self.radius = max(float(np.quantile(distances, quantile)), 2.0)

    def is_outlier(self, point: np.ndarray) -> bool:
        return bool(np.linalg.norm(point - self.center) > self.radius)

    @classmethod
    def from_state(cls, center: np.ndarray, radius: float) -> "_PairLearner":
        """Rebuild a learner from checkpointed (center, radius)."""
        learner = cls.__new__(cls)
        learner.center = np.asarray(center, dtype=np.float64)
        learner.radius = float(radius)
        return learner


class INOA:
    """Ensemble of per-AP-pair hypersphere learners."""

    def __init__(self, threshold: float | None = 0.5, radius_quantile: float = 0.85,
                 min_support: int = 5, unseen_pair_vote: float = 1.0,
                 calibration_quantile: float = 0.95):
        if threshold is not None:
            check_probability(threshold, "threshold")
        check_probability(radius_quantile, "radius_quantile")
        check_positive_int(min_support, "min_support")
        check_probability(unseen_pair_vote, "unseen_pair_vote")
        check_probability(calibration_quantile, "calibration_quantile")
        self.threshold = threshold
        self.radius_quantile = radius_quantile
        self.min_support = min_support
        self.unseen_pair_vote = unseen_pair_vote
        self.calibration_quantile = calibration_quantile
        self._learners: dict[tuple[str, str], _PairLearner] = {}
        self._fitted = False

    def fit(self, records: Sequence[SignalRecord]) -> "INOA":
        records = list(records)
        if not records:
            raise ValueError("INOA requires at least one training record")
        points: dict[tuple[str, str], list[tuple[float, float]]] = {}
        for record in records:
            macs = sorted(record.readings)
            for a, b in combinations(macs, 2):
                points.setdefault((a, b), []).append((record.readings[a], record.readings[b]))
        self._learners = {
            pair: _PairLearner(np.asarray(observations, dtype=np.float64), self.radius_quantile)
            for pair, observations in points.items()
            if len(observations) >= self.min_support
        }
        self._fitted = True
        # Self-calibrate the vote threshold on the training records'
        # scores when none was given: the training quantile plus a small
        # margin.  A fixed threshold does not transfer between a 10 m²
        # dorm and a five-storey mall.
        if self.threshold is None:
            train_scores = [self.outlier_score(record) for record in records]
            self.threshold = min(1.0, float(np.quantile(train_scores,
                                                        self.calibration_quantile)) + 0.05)
        return self

    def outlier_score(self, record: SignalRecord) -> float:
        """Fraction of out-of-sphere votes over the record's AP pairs.

        Pairs never seen in training vote ``unseen_pair_vote`` (a record
        dominated by unfamiliar AP combinations is suspicious).  Records
        with fewer than two readings score 1.0 (nothing to support an
        in-premises claim).
        """
        if not self._fitted:
            raise RuntimeError("INOA has not been fitted; call fit first")
        macs = sorted(record.readings)
        if len(macs) < 2:
            return 1.0
        votes = []
        for a, b in combinations(macs, 2):
            learner = self._learners.get((a, b))
            if learner is None:
                votes.append(self.unseen_pair_vote)
            else:
                point = np.asarray([record.readings[a], record.readings[b]])
                votes.append(1.0 if learner.is_outlier(point) else 0.0)
        return float(np.mean(votes))

    def predict(self, record: SignalRecord) -> bool:
        return self.outlier_score(record) <= self.threshold

    def observe(self, record: SignalRecord) -> GeofenceDecision:
        """Streaming interface; INOA has no online update."""
        score = self.outlier_score(record)
        return GeofenceDecision(inside=score <= self.threshold, score=score)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state: hyper-parameters + every pair hypersphere.

        Learners are stored as parallel (pairs, centers, radii) in a
        deterministic sort order; scoring is a deterministic function of
        them, so a restored model scores bit-for-bit identically.
        """
        if not self._fitted:
            raise RuntimeError("cannot checkpoint an unfitted INOA; call fit first")
        pairs = sorted(self._learners)
        centers = (np.vstack([self._learners[pair].center for pair in pairs])
                   if pairs else np.empty((0, 2), dtype=np.float64))
        radii = np.asarray([self._learners[pair].radius for pair in pairs], dtype=np.float64)
        return {
            "threshold": float(self.threshold),
            "radius_quantile": self.radius_quantile,
            "min_support": self.min_support,
            "unseen_pair_vote": self.unseen_pair_vote,
            "calibration_quantile": self.calibration_quantile,
            "pairs": [[a, b] for a, b in pairs],
            "centers": centers,
            "radii": radii,
        }

    def load_state_dict(self, state: dict) -> "INOA":
        """Restore a model saved by :meth:`state_dict`."""
        pairs = [(str(a), str(b)) for a, b in state["pairs"]]
        centers = np.asarray(state["centers"], dtype=np.float64).reshape(len(pairs), 2)
        radii = np.asarray(state["radii"], dtype=np.float64)
        if len(radii) != len(pairs):
            raise ValueError(f"INOA state has {len(pairs)} pairs but {len(radii)} radii")
        check_probability(float(state["threshold"]), "threshold")
        self.threshold = float(state["threshold"])
        self.radius_quantile = float(state["radius_quantile"])
        self.min_support = int(state["min_support"])
        self.unseen_pair_vote = float(state["unseen_pair_vote"])
        self.calibration_quantile = float(state["calibration_quantile"])
        self._learners = {pair: _PairLearner.from_state(center, radius)
                          for pair, center, radius in zip(pairs, centers, radii)}
        self._fitted = True
        return self
