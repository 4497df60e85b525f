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
names, and its one Eq. 9 loss pair ``(z, z)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.embedding.common import SAGE, SAGEConfig, Stream

__all__ = ["GraphSAGEConfig", "GraphSAGE"]


@dataclass(frozen=True)
class GraphSAGEConfig(SAGEConfig):
    """Hyper-parameters mirroring :class:`~repro.embedding.bisage.BiSAGEConfig`."""


class GraphSAGE(SAGE):
    """Single-embedding SAGE on the bipartite graph treated as homogeneous."""

    streams = {"z": Stream(reads="z", salt=7, weights="weights", cache="")}
    loss_pairs = (("z", "z"),)
    config_class = GraphSAGEConfig
