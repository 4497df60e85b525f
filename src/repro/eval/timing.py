"""Inference-time breakdown probes (Fig. 14).

Measures the three steps of Algorithm 2 separately — BiSAGE embedding,
in-out detection, model update — plus batch-mode update timing, mirroring
the paper's wall-clock analysis (numbers are substrate-specific; the
*shape* across parameters is what the bench reproduces).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.gem import GEM
from repro.core.records import SignalRecord

__all__ = ["InferenceTiming", "measure_inference_breakdown", "measure_batch_update"]


@dataclass(frozen=True)
class InferenceTiming:
    """Mean per-record milliseconds for each Algorithm 2 step."""

    embed_ms: float
    detect_ms: float
    update_ms: float

    @property
    def total_ms(self) -> float:
        return self.embed_ms + self.detect_ms + self.update_ms


def measure_inference_breakdown(gem: GEM, records: list[SignalRecord],
                                repeats: int = 1) -> InferenceTiming:
    """Time embed / detect / update separately over a record stream.

    The update step is forced (each record's embedding is absorbed) so
    its cost is measured even for records the confidence filter would
    skip — matching the paper's per-step probes.
    """
    if not records:
        raise ValueError("need at least one record to time")
    embed_s = detect_s = update_s = 0.0
    count = 0
    for _ in range(repeats):
        for record in records:
            t0 = time.perf_counter()
            embedding = gem.embedder.embed(record)
            t1 = time.perf_counter()
            if embedding is None:
                continue
            row = embedding[None, :]
            gem.detector.decision_scores(row)
            gem.detector.is_outlier(row)
            t2 = time.perf_counter()
            gem.detector.update(row)
            t3 = time.perf_counter()
            embed_s += t1 - t0
            detect_s += t2 - t1
            update_s += t3 - t2
            count += 1
    if count == 0:
        raise ValueError("no record could be embedded")
    scale = 1000.0 / count
    return InferenceTiming(embed_ms=embed_s * scale, detect_ms=detect_s * scale,
                           update_ms=update_s * scale)


def measure_batch_update(gem: GEM, embeddings: np.ndarray, batch_size: int) -> tuple[float, float]:
    """(per-batch ms, total ms) to absorb ``embeddings`` in batches.

    Reproduces Fig. 14(d,e): larger batches cost more per batch but fewer
    rebuilds make the total cheaper.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    per_batch: list[float] = []
    t_total0 = time.perf_counter()
    for start in range(0, len(embeddings), batch_size):
        batch = embeddings[start:start + batch_size]
        t0 = time.perf_counter()
        gem.detector.update(batch)
        per_batch.append((time.perf_counter() - t0) * 1000.0)
    total_ms = (time.perf_counter() - t_total0) * 1000.0
    return float(np.mean(per_batch)), total_ms
