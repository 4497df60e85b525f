"""Fused inference kernels for the vectorized batch data plane.

A :class:`SageInferenceKernel` is the hoisted, allocation-lean form of
the per-record inductive embedding step BiSAGE and GraphSAGE share
(:meth:`repro.embedding.common.SAGE._embed_from_neighbors`, written
once for both): the constant inference-node initial row of the served
stream, its per-layer weight matrices and the MAC cache lists it
aggregates are captured once instead of being re-derived record by
record.  The fitted model owns one kernel
(:meth:`repro.embedding.common.SAGE.batched_inference`), built on first
use and dropped when ``fit`` or ``load_state_dict`` rebuilds what it
captured.

Callers
-------
Every graph-embedder path that embeds more than a one-off record runs
through the model's kernel (all but the last via
:func:`repro.core.gem.embed_records`):

* ``EmbeddingGeofencer.observe_many`` — the one served path, which every
  serving layer above the model (batch plane, fleet, runtime, router,
  worker) also uses for a single observation, as a batch of one;
* ``EmbeddingGeofencer.predict_many`` (and ``predict``, which delegates
  to it) — the quarantine's consistency gate and the recovery
  ``max_fpr`` check;
* ``RefreshJob.build`` — the coordinated refresh's re-embed, which runs
  with the fleet lock released;
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
* The concat buffer is a layout trick only: filling a ``(2d,)`` buffer
  with the same values ``np.concatenate`` would produce feeds the
  identical contiguous operand to the identical GEMV, so the result is
  unchanged while the per-layer allocation is not.  The buffer is
  allocated once per :meth:`~SageInferenceKernel.embed` call, never
  kept on the kernel.

What the kernel *does* save per record: the ``initial_embedding_row``
recomputation (the inference key is constant, so the row is too),
attribute-chain lookups, and all but one of the K concat allocations.  The big batch win — scoring the whole batch through the
detector once — lives in
:meth:`repro.detection.histogram.HistogramDetector.score_batch`.
Neither form computes BiSAGE's auxiliary ``l`` stream for the record:
no layer of the served ``h`` reads the record's own ``l``.

Thread safety: the kernel holds no mutable state of its own, so several
threads may embed through one kernel at once (a serving batch and a
refresh re-embed do).  It holds the neighbour cache *lists* by
reference, and nothing writes them while the model serves: a streamed
record is embedded against the training graph without being connected
into it, and its ``(neighbors, weights)`` come from the same read-only
lookup the scalar path uses
(:meth:`repro.graph.bipartite.WeightedBipartiteGraph.edges_of`), so
every neighbour index has a cache row.  Only a re-fit or a load
rebuilds the caches, and both drop the model's kernel with them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SageInferenceKernel", "l2_rows"]


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
        The live list of per-layer MAC cache arrays the scalar path
        gathers from — those of the stream the served one reads
        (BiSAGE: the auxiliary ``_cache_lv``; GraphSAGE: ``_cache_v``) —
        held by reference.
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

    def embed(self, neighbors: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Embedding row for one record's (non-empty) edges — the scalar
        math, hoisted."""
        probabilities = weights / weights.sum()
        act = self.act
        caches = self.neighbor_caches
        dim = self._dim
        buf = np.empty(2 * dim, dtype=np.float64)
        z = self.initial
        for k, w in enumerate(self.weights):
            agg = probabilities @ caches[k][neighbors]
            buf[:dim] = z
            buf[dim:] = agg
            z = l2_rows(act(buf @ w))
        return z


def l2_rows(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Eq. 7 on a vector or on each row of a matrix.

    The one numpy form of the normalisation: the SAGE caches, the scalar
    inductive embed and this kernel all call it, which is part of the
    bit-identity contract.
    """
    if x.ndim == 1:
        return x / np.sqrt((x * x).sum() + eps)
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True) + eps)
    return x / norms
