"""The record-inference kernel of the SAGE models.

A :class:`SageInferenceKernel` is the one implementation of the
inductive record embedding BiSAGE and GraphSAGE share (Sec. IV-A,
Algorithm 1 for a single record node): the record's edge weights are
normalised into neighbour probabilities (Eq. 8) and K layers aggregate
the frozen per-layer MAC caches (Eq. 3), concatenate, transform and
normalise (Eq. 4 / Eq. 7).  It captures what that embedding reads once
instead of record by record: the constant inference-node initial row of
the served stream, its per-layer weight matrices and the MAC cache
lists it aggregates.  The fitted model owns one kernel
(:meth:`repro.embedding.common.SAGE.batched_inference`), built on first
use and dropped when ``fit`` or ``load_state_dict`` rebuilds what it
captured.

Callers
-------
Every graph-embedder path embeds through the model's kernel (all but
the last two via :func:`repro.core.gem.embed_records`, which fetches
the kernel once per batch):

* ``EmbeddingGeofencer.observe_many`` — the one inference path, which
  ``observe`` and every serving layer above the model (batch plane,
  fleet, runtime, router, worker) use for a single observation, as a
  batch of one;
* ``EmbeddingGeofencer.predict_many`` (and ``predict``, which delegates
  to it) — the quarantine's consistency gate and the recovery
  ``max_fpr`` check;
* ``EmbeddingGeofencer.score`` — the per-record eval path;
* ``RefreshJob.build`` — the coordinated refresh's re-embed, which runs
  with the fleet lock released;
* ``_GraphEmbedderBase.embed`` — one record, ``prepare`` plus kernel;
* ``_GraphEmbedderBase.training_embeddings`` — the detector's fit rows.

The per-record scalar reference the differential harness
(``tests/test_batch_differential.py``) and the golden fixtures compare
against lives with the tests (``tests/reference.py``).

Bit-identity contract
---------------------
A record's embedding must not depend on the batch it arrives in, and
must equal the reference's floats **bit for bit**.  Two consequences
shape the implementation:

* The K aggregation layers stay *per record*.  Batched dense matmuls
  are not an option: on this substrate the rows of a GEMM ``X @ W``
  differ in the last ulp from the per-row GEMV ``x @ W`` (and differ
  again across batch sizes), so one fused ``(B, 2d) @ W`` would break
  batch-size-1-vs-N identity.  The gathers, weighted means and GEMVs
  below are exactly the reference's ops on exactly its operands.
* The concat buffer is a layout trick only: filling a ``(2d,)`` buffer
  with the same values ``np.concatenate`` would produce feeds the
  identical contiguous operand to the identical GEMV, so the result is
  unchanged while the per-layer allocation is not.  The buffer is
  allocated once per :meth:`~SageInferenceKernel.embed` call, never
  kept on the kernel.

The big batch win — scoring the whole batch through the detector once —
lives in :meth:`repro.detection.histogram.HistogramDetector.score_batch`.
The kernel does not compute BiSAGE's auxiliary ``l`` stream for the
record: no layer of the served ``h`` reads the record's own ``l``.

Thread safety: the kernel holds no mutable state of its own, so several
threads may embed through one kernel at once (a serving batch and a
refresh re-embed do).  It holds the neighbour cache *lists* by
reference, and nothing writes them while the model serves: a streamed
record is embedded against the training graph without being connected
into it, and its ``(neighbors, weights)`` come from a read-only lookup
(:meth:`repro.graph.bipartite.WeightedBipartiteGraph.edges_of`), so
every neighbour index has a cache row.  Only a re-fit or a load
rebuilds the caches, and both drop the model's kernel with them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SageInferenceKernel", "l2_rows"]


class SageInferenceKernel:
    """The inductive record embedding of a fitted SAGE model.

    Parameters
    ----------
    initial:
        The shared inference-node initial embedding row ``(d,)`` (the
        ``_INFERENCE_KEY`` row — constant across all streamed records).
    weights:
        Per-layer dense weight matrices ``(2d, d)`` (raw arrays, not
        Parameters).
    neighbor_caches:
        The live list of per-layer MAC cache arrays a record aggregates
        — those of the stream the served one reads (BiSAGE: the
        auxiliary ``_cache_lv``; GraphSAGE: ``_cache_v``) — held by
        reference.
    act:
        The numpy activation function (the one the caches were built
        with).
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
        """Embedding row for one record's edges; a record without edges
        keeps the shared initial row."""
        if not len(neighbors):
            return self.initial.copy()
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

    The one numpy form of the normalisation: the SAGE caches and this
    kernel both call it, which is part of the bit-identity contract.
    """
    if x.ndim == 1:
        return x / np.sqrt((x * x).sum() + eps)
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True) + eps)
    return x / norms
