"""The scalar per-record reference of an embedder + detector pipeline.

Algorithm 2 one record at a time, written out in full: the inductive
embedding of Sec. IV-A as the per-record SAGE math (a graph embedder's
record, aggregated against the frozen MAC caches), the detector's three
scalar calls (``decision_scores``, ``is_outlier``,
``is_confident_inlier``) and the self-update buffer rule.  It shares
nothing with the served path but the fitted state it reads, so the
tests that compare the served path against it (the differential
harness, the golden regenerator) hold the served path to the paper's
computation rather than to itself.

Every function reads the pipeline's fitted state; only :func:`observe`
writes it (the update buffer and the detector, as Algorithm 2 does).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.embedders import BiSAGEEmbedder, GraphSAGEEmbedder
from repro.core.protocols import GeofenceDecision
from repro.embedding.common import _ACTIVATIONS, _INFERENCE_KEY
from repro.graph.bipartite import RECORD
from repro.nn.batch import l2_rows

__all__ = ["embed", "embed_from_neighbors", "embed_readings", "embed_record_node",
           "observe", "predict", "score", "verdict"]


# ----------------------------------------------------------------------
# Embedding
# ----------------------------------------------------------------------
def embed_from_neighbors(model, neighbors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A SAGE model's served-stream embedding of one record from its edges.

    Computes the served stream only: no stream reads a record's own
    row of another stream, so the others could not change it.  A record
    with no edges keeps the shared inference-node initial row.
    """
    name, stack, neighbor_caches = model._served()
    z = model._initial_row(RECORD, _INFERENCE_KEY, name)
    if len(neighbors) == 0:
        return z
    act = _ACTIVATIONS[model.config.activation][1]
    probabilities = weights / weights.sum()
    for k, w in enumerate(stack):
        agg = probabilities @ neighbor_caches[k][neighbors]     # Eq. 3 + Eq. 8
        z = l2_rows(act(np.concatenate([z, agg]) @ w.data))
    return z


def embed_record_node(model, index: int) -> np.ndarray:
    """Inductive embedding of training record node ``index``."""
    return embed_from_neighbors(model, *model.graph.neighbors(RECORD, index))


def embed_readings(model, readings: dict[str, float]) -> np.ndarray | None:
    """Embed streamed readings against the training graph; None when no
    sensed MAC is in it (footnote 3)."""
    neighbors, weights = model.graph.edges_of(readings)
    if not len(neighbors):
        return None
    return embed_from_neighbors(model, neighbors, weights)


def embed(pipeline, record) -> np.ndarray | None:
    """The pipeline's embedding row of one record; None when the record
    cannot be embedded.  Matrix embedders have one per-record
    ``embed`` and use it."""
    if not record.readings:
        return None
    embedder = pipeline.embedder
    if isinstance(embedder, (BiSAGEEmbedder, GraphSAGEEmbedder)):
        return embed_readings(embedder.model, record.readings)
    return embedder.embed(record)


# ----------------------------------------------------------------------
# Scoring and Algorithm 2
# ----------------------------------------------------------------------
def verdict(detector, row: np.ndarray) -> tuple[float, bool, bool]:
    """``(score, outlier, confident)`` of one embedding row from the
    detector's three scalar calls."""
    x = row[None, :]
    score = float(detector.decision_scores(x)[0])
    outlier = bool(detector.is_outlier(x)[0])
    confident = (not outlier and hasattr(detector, "is_confident_inlier")
                 and bool(detector.is_confident_inlier(x)[0]))
    return score, outlier, confident


def score(pipeline, record) -> float:
    """Outlier score of one record; +inf when it cannot be embedded."""
    row = embed(pipeline, record)
    if row is None:
        return math.inf
    return float(pipeline.detector.decision_scores(row[None, :])[0])


def predict(pipeline, record) -> bool:
    """True iff the record is predicted in-premises (no state change)."""
    row = embed(pipeline, record)
    return row is not None and not bool(pipeline.detector.is_outlier(row[None, :])[0])


def observe(pipeline, record) -> GeofenceDecision:
    """Algorithm 2 on one record: embed, decide, maybe self-update.

    A confident inlier joins the pipeline's update buffer when
    self-update is on and the detector can update; a full buffer
    (``batch_update_size`` rows) is applied to the detector at once.
    """
    if not pipeline._fitted:
        raise RuntimeError("pipeline has not been fitted; call fit first")
    row = embed(pipeline, record)
    if row is None:
        # Footnote 3: nothing recognisable — treat as an outlier.
        return GeofenceDecision(inside=False, score=math.inf)
    detector = pipeline.detector
    value, outlier, confident = verdict(detector, row)
    if outlier:
        return GeofenceDecision(inside=False, score=value)
    buffered = updated = False
    if confident and pipeline.self_update and hasattr(detector, "update"):
        pipeline._update_buffer.append(row)
        buffered = True
        if len(pipeline._update_buffer) >= pipeline.batch_update_size:
            batch = np.vstack(pipeline._update_buffer)
            pipeline._update_buffer = []
            detector.update(batch)
            updated = True
    return GeofenceDecision(inside=True, score=value, confident=confident,
                            buffered=buffered, updated=updated)
