"""Degree-biased negative sampling (Sec. III-B).

The loss (Eq. 9) draws contrast nodes from the whole graph with
``Pr(z) ∝ deg(z)^{3/4}`` (word2vec convention).  An alias table gives
O(1) categorical draws; it is built once per (read-only) graph.
Weighted *neighbour* sampling (Eq. 8) lives with the aggregators, in
:class:`repro.embedding.common.NeighborSampler`.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import WeightedBipartiteGraph
from repro.utils.rng import as_rng

__all__ = ["AliasTable", "NegativeSampler"]


class AliasTable:
    """Walker's alias method for O(1) sampling from a fixed categorical."""

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if (weights < 0).any():
            raise ValueError("weights must be non-negative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")
        n = weights.size
        self.n = n
        self.probabilities = np.asarray(weights / total)
        scaled = self.probabilities * n
        self._accept = np.zeros(n, dtype=np.float64)
        self._alias = np.zeros(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s = small.pop()
            l = large.pop()
            self._accept[s] = scaled[s]
            self._alias[s] = l
            scaled[l] = scaled[l] - (1.0 - scaled[s])
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        for leftover in small + large:
            self._accept[leftover] = 1.0
            self._alias[leftover] = leftover

    def sample(self, rng, size: int | None = None) -> np.ndarray | int:
        rng = as_rng(rng)
        n_draws = 1 if size is None else int(size)
        columns = rng.integers(0, self.n, size=n_draws)
        coins = rng.random(n_draws)
        accepted = coins < self._accept[columns]
        out = np.where(accepted, columns, self._alias[columns])
        return int(out[0]) if size is None else out


class NegativeSampler:
    """Draw contrast nodes with probability ∝ degree^power over U ∪ V.

    Nodes are encoded globally: record ``i`` ↦ ``i`` and MAC ``j`` ↦
    ``num_records + j``.  The alias table is built once, from the
    graph's degrees; building it draws no random numbers.
    """

    def __init__(self, graph: WeightedBipartiteGraph, power: float = 0.75, rng=None):
        if power < 0:
            raise ValueError(f"power must be non-negative, got {power}")
        self.power = power
        self.rng = as_rng(rng)
        record_deg, mac_deg = graph.degrees()
        degrees = np.concatenate([record_deg, mac_deg]).astype(np.float64)
        # Isolated nodes get a tiny weight so the table stays valid.
        self._table = AliasTable(np.maximum(degrees, 1e-12) ** power)

    def sample_global(self, size: int) -> np.ndarray:
        """Draw ``size`` nodes as global integer ids (records then MACs)."""
        return np.atleast_1d(self._table.sample(self.rng, size=size))
