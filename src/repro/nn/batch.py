"""Fused inference kernels for the vectorized batch data plane.

A :class:`SageInferenceKernel` is the hoisted, allocation-lean form of
the per-record inductive embedding step shared by BiSAGE and GraphSAGE
(``_embed_from_neighbors``): the constant inference-node initial row,
the per-layer weight matrices and the live neighbour cache lists are
captured once per batch (or cached across batches by
:class:`repro.serve.batchplane.BatchPlane`) instead of being re-derived
record by record.

Callers
-------
Every graph-embedder path that embeds more than a one-off record runs
through a kernel (all but the last via
:func:`repro.core.gem.embed_records`):

* ``EmbeddingGeofencer.observe_many`` — the batch plane, which every
  serving layer above the model (fleet, runtime, router, worker) also
  uses for a single observation, as a batch of one;
* ``EmbeddingGeofencer.predict_many`` (and ``predict``, which delegates
  to it) — the quarantine's consistency gate, with the fleet's cached
  kernel, and the recovery ``max_fpr`` check;
* ``RefreshJob.build`` — the coordinated refresh's re-embed;
* ``_GraphEmbedderBase.training_embeddings`` — the detector's fit rows.

Only ``EmbeddingGeofencer.observe`` and ``score`` — the scalar
reference the differential harness compares against, and the
per-record eval path — still embed through the model's
``embed_readings``.

Bit-identity contract
---------------------
Every operation here must reproduce the scalar path's floats **bit for
bit** — the differential harness (``tests/test_batch_differential.py``)
enforces it.  Two consequences shape the implementation:

* The K aggregation layers stay *per record*.  Batched dense matmuls
  are not an option: on this substrate the rows of a GEMM ``X @ W``
  differ in the last ulp from the per-row GEMV ``x @ W`` (and differ
  again across batch sizes), so one fused ``(B, 2d) @ W`` would break
  both scalar-vs-vectorized identity and batch-size-1-vs-N identity.
  The gathers, weighted means and GEMVs below are exactly the scalar
  ops on exactly the scalar operands.
* The concat buffer is a layout trick only: filling a preallocated
  ``(2d,)`` buffer with the same values ``np.concatenate`` would
  produce feeds the identical contiguous operand to the identical
  GEMV, so the result is unchanged while the per-layer allocation is
  not.

What the kernel *does* save per record: four ``initial_embedding_row``
recomputations (the inference key is constant, so the rows are too),
the dead auxiliary stream (BiSAGE's scalar path updates ``l`` each
layer but the returned primary ``h`` never reads it), attribute-chain
lookups, and one concat allocation per layer.  The big batch win —
scoring the whole batch through the detector once — lives in
:meth:`repro.detection.histogram.HistogramDetector.score_batch`.

The kernel holds the neighbour cache *lists* by reference.  Serving
never writes them: a streamed record is embedded against the training
graph without being connected into it, and its ``(neighbors,
weights)`` come from the same read-only lookup the scalar path uses
(:meth:`repro.graph.bipartite.WeightedBipartiteGraph.edges_of`), so
every neighbour index has a cache row.  Only a re-fit or a load
rebuilds the caches, and the owner's token check then discards this
kernel.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SageInferenceKernel"]


class SageInferenceKernel:
    """One record-side inference step, prepared for batch replay.

    Parameters
    ----------
    initial:
        The shared inference-node initial embedding row ``(d,)`` (the
        ``_INFERENCE_KEY`` row — constant across all streamed records).
    weights:
        Per-layer dense weight matrices ``(2d, d)`` (raw arrays, not
        Parameters).
    neighbor_caches:
        The live list of per-layer neighbour cache arrays the scalar
        path gathers from (BiSAGE: the auxiliary MAC caches
        ``_cache_lv``; GraphSAGE: ``_cache_v``), held by reference.
    act:
        The numpy activation function (the scalar path's exact one).
    """

    def __init__(self, initial: np.ndarray, weights: list[np.ndarray],
                 neighbor_caches: list[np.ndarray], act):
        self.initial = np.asarray(initial, dtype=np.float64)
        self.weights = list(weights)
        if not self.weights:
            raise ValueError("SageInferenceKernel needs at least one layer")
        self.neighbor_caches = neighbor_caches
        self.act = act
        self._dim = self.initial.shape[0]
        self._buf = np.empty(2 * self._dim, dtype=np.float64)

    def embed(self, neighbors: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Embedding row for one record's (non-empty) edges — the scalar
        math, hoisted."""
        probabilities = weights / weights.sum()
        act = self.act
        caches = self.neighbor_caches
        buf = self._buf
        dim = self._dim
        z = self.initial
        for k, w in enumerate(self.weights):
            agg = probabilities @ caches[k][neighbors]
            buf[:dim] = z
            buf[dim:] = agg
            z = _l2_vec(act(buf @ w))
        return z


def _l2_vec(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    # Must match the embedders' _l2_rows 1-D branch exactly (same
    # expression, same eps) — it is part of the bit-identity contract.
    return x / np.sqrt((x * x).sum() + eps)
