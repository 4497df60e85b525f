"""Weighted random walks over the bipartite graph.

Training pairs for the BiSAGE loss (Eq. 9) come from random walks whose
transition probability out of a node is proportional to edge weight
(Sec. III-B): ``Pr(x_{k+1} | x_k) = w / sum(w)``.  On a bipartite graph
a walk alternates partitions, so *consecutive* walk nodes are always of
opposite types — which is exactly why the loss pairs a node's primary
embedding with its walk-neighbour's auxiliary embedding.

Walks are written in global node ids (record ``i`` is node ``i``, MAC
``j`` is node ``num_records + j``; see :func:`global_csr`).

RNG contract: walks start in node order, ``walks_per_node`` walks from
each non-isolated node, and step ``s`` of walk ``i`` reads uniform
``(i, s)`` of one ``rng.random((num_walks, walk_length - 1))`` draw.  Each
step inverts the current node's transition CDF, built exactly as
``Generator.choice(degree, p=w / w.sum())`` builds it, so a corpus equals
the one a per-walk loop of ``choice`` calls draws from the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import WeightedBipartiteGraph, global_csr
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int

__all__ = ["WalkConfig", "RandomWalker", "walk_pairs"]


@dataclass(frozen=True)
class WalkConfig:
    """Random-walk corpus parameters.

    ``walks_per_node`` walks of ``walk_length`` steps start from every
    non-isolated node; ``window`` controls how far apart two walk nodes
    may be to form a training pair (1 = consecutive only, as the paper
    describes).
    """

    walk_length: int = 6
    walks_per_node: int = 4
    window: int = 1

    def __post_init__(self):
        check_positive_int(self.walk_length, "walk_length")
        check_positive_int(self.walks_per_node, "walks_per_node")
        check_positive_int(self.window, "window")

    @classmethod
    def from_dict(cls, data: dict) -> "WalkConfig":
        return cls(**{k: int(v) for k, v in data.items()})


class RandomWalker:
    """Generates weighted random walks on a bipartite graph."""

    def __init__(self, graph: WeightedBipartiteGraph, config: WalkConfig = WalkConfig(), rng=None):
        self.graph = graph
        self.config = config
        self.rng = as_rng(rng)

    def corpus(self) -> np.ndarray:
        """``(num_walks, walk_length)`` global ids, all walks advanced in lock-step.

        A walk never stops early: it starts at a non-isolated node, and
        on a bipartite graph every neighbour of such a node has an edge
        back.
        """
        indptr, indices, weights = global_csr(self.graph)
        degrees = np.diff(indptr)
        starts = np.repeat(np.flatnonzero(degrees), self.config.walks_per_node)
        draws = self.rng.random((len(starts), self.config.walk_length - 1))
        cdf = _transition_cdf(indptr, weights, degrees)
        rounds = int(degrees.max(initial=0)).bit_length()

        walks = np.empty((len(starts), self.config.walk_length), dtype=np.int64)
        walks[:, 0] = starts
        current = starts
        for step in range(self.config.walk_length - 1):
            position = _search_right(cdf, indptr[current], indptr[current + 1],
                                     draws[:, step], rounds)
            current = indices[position]
            walks[:, step + 1] = current
        return walks


def _transition_cdf(indptr, weights, degrees) -> np.ndarray:
    """Every node's transition CDF, flat and aligned with the CSR edges.

    Built per node exactly as ``Generator.choice`` builds it from ``p``,
    so inverting it reproduces ``choice``'s pick bit for bit.
    """
    cdf = np.empty(len(weights), dtype=np.float64)
    for node in np.flatnonzero(degrees):
        lo, hi = indptr[node], indptr[node + 1]
        w = weights[lo:hi]
        segment = (w / w.sum()).cumsum()
        segment /= segment[-1]
        cdf[lo:hi] = segment
    return cdf


def _search_right(cdf, lo, hi, values, rounds: int) -> np.ndarray:
    """Vectorised ``lo + searchsorted(cdf[lo:hi], value, side="right")``.

    One bisection per element over its own segment; ``rounds`` must be at
    least the bit length of the longest segment.
    """
    last = len(cdf) - 1
    for _ in range(rounds):
        mid = (lo + hi) >> 1
        right = cdf[np.minimum(mid, last)] <= values
        lo = np.where(right & (mid < hi), mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo


def walk_pairs(walks, window: int = 1) -> np.ndarray:
    """``(num_pairs, 2)`` co-occurrence pairs within ``window`` steps.

    ``walks`` is a :meth:`RandomWalker.corpus` array.  Pairs run walk by
    walk, and inside a walk by first position, then by distance.  With
    ``window=1`` only consecutive nodes pair up, matching the loss
    description; larger windows are exposed for ablations.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    walks = np.atleast_2d(np.asarray(walks, dtype=np.int64))
    length = walks.shape[1]
    first, second = [], []
    for i in range(length):
        for j in range(i + 1, min(i + window + 1, length)):
            first.append(i)
            second.append(j)
    return np.stack([walks[:, first], walks[:, second]], axis=-1).reshape(-1, 2)
