"""BiSAGE: bipartite sample-and-aggregate network embedding (Sec. III-B).

The algorithmic content of the paper's core contribution:

* every node keeps a **primary** embedding ``h`` and an **auxiliary**
  embedding ``l``; one aggregation round updates ``h_i`` from sampled
  neighbours' ``l_{j}`` and ``l_i`` from neighbours' ``h_j`` (Eq. 3–6,
  Algorithm 1), then L2-normalises both (Eq. 7);
* neighbour sampling and in-aggregation weighting are proportional to
  edge weight (Eq. 8);
* training minimises the skip-gram-style loss of Eq. 9 over consecutive
  nodes of weighted random walks, with ``K_N`` negative nodes drawn
  ``∝ degree^{3/4}``;
* the model is **inductive**: a record streamed in later is embedded
  with the frozen weight matrices by aggregating its neighbours' cached
  per-layer embeddings (Sec. IV-A).  That reads the record's own edges
  and the caches only, so the record is never connected into the graph
  (Algorithm 2 line 1): graph and caches change only at :meth:`BiSAGE.fit`.

Training, caches, inference and persistence are the shared
:class:`~repro.embedding.common.SAGE` core; this module holds only what
is bi-level: the two crossed streams, their salts (0 and 1), their
weight and cache names, and the Eq. 9 loss over ``h``/``l`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embedding.common import SAGE, SAGEConfig, Stream
from repro.graph.sampling import NegativeSampler
from repro.nn import Tensor, ops

__all__ = ["BiSAGEConfig", "BiSAGE"]


@dataclass(frozen=True)
class BiSAGEConfig(SAGEConfig):
    """Hyper-parameters for BiSAGE (paper defaults from Sec. V)."""


class BiSAGE(SAGE):
    """Trainable BiSAGE embedder bound to its training bipartite graph."""

    streams = {"h": Stream(reads="l", salt=0, weights="weights_h", cache="h"),
               "l": Stream(reads="h", salt=1, weights="weights_l", cache="l")}
    config_class = BiSAGEConfig

    # Bound here as well as inherited: the serving benchmark's layer
    # tracer (perfbench/spans.py) patches BiSAGE.fit through the class
    # dict and fails to start without it.
    fit = SAGE.fit

    def _loss(self, final: dict[str, Tensor], batch: np.ndarray,
              negative_sampler: NegativeSampler) -> Tensor:
        """Eq. 9 over a batch of walk pairs plus K_N negatives per pair."""
        cfg = self.config
        h, l = final["h"], final["l"]
        x_ids, y_ids = batch[:, 0], batch[:, 1]
        h_x = ops.gather_rows(h, x_ids)
        l_x = ops.gather_rows(l, x_ids)
        h_y = ops.gather_rows(h, y_ids)
        l_y = ops.gather_rows(l, y_ids)
        positive = ops.log_sigmoid(ops.row_dot(h_x, l_y)) + ops.log_sigmoid(ops.row_dot(l_x, h_y))

        z_ids = negative_sampler.sample_global(len(batch) * cfg.negative_samples)
        h_z = ops.gather_rows(h, z_ids).reshape(len(batch), cfg.negative_samples, cfg.dim)
        l_z = ops.gather_rows(l, z_ids).reshape(len(batch), cfg.negative_samples, cfg.dim)
        h_x3 = h_x.reshape(len(batch), 1, cfg.dim)
        l_x3 = l_x.reshape(len(batch), 1, cfg.dim)
        negative = (ops.log_sigmoid(-(h_x3 * l_z).sum(axis=2))
                    + ops.log_sigmoid(-(l_x3 * h_z).sum(axis=2))).sum(axis=1)
        return -(positive + negative).mean()
