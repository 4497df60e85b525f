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
weight and cache names, and the Eq. 9 loss pairs ``(h, l)`` and ``(l, h)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.embedding.common import SAGE, SAGEConfig, Stream

__all__ = ["BiSAGEConfig", "BiSAGE"]


@dataclass(frozen=True)
class BiSAGEConfig(SAGEConfig):
    """Hyper-parameters for BiSAGE (paper defaults from Sec. V)."""


class BiSAGE(SAGE):
    """Trainable BiSAGE embedder bound to its training bipartite graph."""

    streams = {"h": Stream(reads="l", salt=0, weights="weights_h", cache="h"),
               "l": Stream(reads="h", salt=1, weights="weights_l", cache="l")}
    # Eq. 9: h at one node of a pair against l at the other, both ways.
    loss_pairs = (("h", "l"), ("l", "h"))
    config_class = BiSAGEConfig

    # Bound here as well as inherited: the serving benchmark's layer
    # tracer (perfbench/spans.py) patches BiSAGE.fit through the class
    # dict and fails to start without it.
    fit = SAGE.fit
