"""Homogeneous GraphSAGE baseline (Hamilton et al., 2017).

Used exactly as in the paper's "GraphSAGE + OD" comparison: the weighted
bipartite graph is treated as a *homogeneous* graph — one embedding per
node, one weight matrix per layer, no primary/auxiliary split — so the
aggregation mixes record and MAC embeddings indiscriminately.

Everything else — walks, weighted neighbour sampling, negative sampling,
the fit loop, caches, inference and persistence — is the
:class:`~repro.embedding.common.SAGE` core BiSAGE runs on, so the
comparison isolates bi-level aggregation.  This module holds only the
single stream ``z`` (reading ``z``), its salt (7), its weight and cache
names, and its Eq. 9 loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embedding.common import SAGE, SAGEConfig, Stream
from repro.graph.sampling import NegativeSampler
from repro.nn import Tensor, ops

__all__ = ["GraphSAGEConfig", "GraphSAGE"]


@dataclass(frozen=True)
class GraphSAGEConfig(SAGEConfig):
    """Hyper-parameters mirroring :class:`~repro.embedding.bisage.BiSAGEConfig`."""


class GraphSAGE(SAGE):
    """Single-embedding SAGE on the bipartite graph treated as homogeneous."""

    streams = {"z": Stream(reads="z", salt=7, weights="weights", cache="")}
    config_class = GraphSAGEConfig

    def _loss(self, final: dict[str, Tensor], batch: np.ndarray,
              negative_sampler: NegativeSampler) -> Tensor:
        cfg = self.config
        z = final["z"]
        z_x = ops.gather_rows(z, batch[:, 0])
        z_y = ops.gather_rows(z, batch[:, 1])
        positive = ops.log_sigmoid(ops.row_dot(z_x, z_y))
        neg_ids = negative_sampler.sample_global(len(batch) * cfg.negative_samples)
        z_neg = ops.gather_rows(z, neg_ids).reshape(len(batch), cfg.negative_samples, cfg.dim)
        z_x3 = z_x.reshape(len(batch), 1, cfg.dim)
        negative = ops.log_sigmoid(-(z_x3 * z_neg).sum(axis=2)).sum(axis=1)
        return -(positive + negative).mean()
