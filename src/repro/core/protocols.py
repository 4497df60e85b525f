"""Protocols shared by geofencing pipelines, embedders and detectors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.records import SignalRecord
from repro.detection.batch import BatchScores

__all__ = ["GeofenceDecision", "GeofenceModel", "RecordEmbedder", "Detector"]


@dataclass(frozen=True)
class GeofenceDecision:
    """Outcome of one in-out inference (Algorithm 2).

    ``inside`` is the prediction (True = in-premises); ``score`` is the
    model's outlier score (higher = more outlying, +inf when the record
    could not be embedded at all); ``confident`` marks a highly confident
    inlier; ``buffered`` records that the observation entered the
    pending batch-update buffer; ``updated`` that an update was actually
    *applied* to the detector during this observation (with
    ``batch_update_size == 1`` the two coincide).
    """

    inside: bool
    score: float
    confident: bool = False
    buffered: bool = False
    updated: bool = False


@runtime_checkable
class RecordEmbedder(Protocol):
    """Maps variable-length signal records to fixed-length vectors."""

    def fit(self, records: Sequence[SignalRecord]) -> "RecordEmbedder": ...

    def training_embeddings(self) -> np.ndarray: ...

    def embed(self, record: SignalRecord) -> np.ndarray | None: ...


@runtime_checkable
class Detector(Protocol):
    """One-class detector over embeddings (higher score = more outlying).

    A pipeline scores through ``score_batch`` alone (see
    :mod:`repro.detection.batch`); a detector without a vector kernel
    binds :func:`~repro.detection.batch.row_wise_score_batch`.
    """

    def fit(self, embeddings: np.ndarray) -> "Detector": ...

    def decision_scores(self, embeddings: np.ndarray) -> np.ndarray: ...

    def is_outlier(self, embeddings: np.ndarray) -> np.ndarray: ...

    def score_batch(self, embeddings: np.ndarray) -> BatchScores: ...


@runtime_checkable
class GeofenceModel(Protocol):
    """End-to-end geofencing system: train on in-premises records, stream."""

    def fit(self, records: Sequence[SignalRecord]) -> "GeofenceModel": ...

    def observe(self, record: SignalRecord) -> GeofenceDecision: ...
