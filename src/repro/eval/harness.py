"""Streaming evaluation harness.

Runs a geofencing model through the paper's protocol: fit on the
training records, then feed the labelled test records *in temporal
order* through ``observe`` (so self-updating models update as they
would deployed), and score the predictions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

import numpy as np

from repro.core.protocols import GeofenceDecision, GeofenceModel
from repro.core.records import LabeledRecord
from repro.datasets.synthetic import GeofenceDataset
from repro.eval.metrics import InOutMetrics, metrics_from_pairs
from repro.eval.roc import RocCurve, finite_scores, roc_curve

__all__ = ["EvaluationResult", "evaluate_streaming"]


@dataclass
class EvaluationResult:
    """Everything measured in one streaming run."""

    metrics: InOutMetrics
    decisions: list[GeofenceDecision]
    labels: list[bool]
    fit_seconds: float
    stream_seconds: float
    meta: dict = field(default_factory=dict)

    @property
    def scores(self) -> np.ndarray:
        return np.asarray([decision.score for decision in self.decisions])

    def roc(self) -> RocCurve:
        """ROC over the streamed scores with 'outside' as positive."""
        return roc_curve(finite_scores(self.scores),
                         [not label for label in self.labels])


def evaluate_streaming(model: GeofenceModel, dataset: GeofenceDataset,
                       max_test_records: int | None = None) -> EvaluationResult:
    """Fit on ``dataset.train`` and stream ``dataset.test`` through the model.

    ``dataset.test`` may be any iterable of labelled records — a list, a
    generator, a file-backed stream — consumed exactly once, in order.
    """
    test: Iterable[LabeledRecord] = dataset.test
    if max_test_records is not None:
        test = islice(test, max_test_records)

    t0 = time.perf_counter()
    model.fit(dataset.train)
    fit_seconds = time.perf_counter() - t0

    decisions: list[GeofenceDecision] = []
    labels: list[bool] = []
    t0 = time.perf_counter()
    for item in test:
        decisions.append(model.observe(item.record))
        labels.append(item.inside)
    stream_seconds = time.perf_counter() - t0

    metrics = metrics_from_pairs(zip(labels, (d.inside for d in decisions)))
    return EvaluationResult(metrics=metrics, decisions=decisions, labels=labels,
                            fit_seconds=fit_seconds, stream_seconds=stream_seconds,
                            meta=dict(dataset.meta))

