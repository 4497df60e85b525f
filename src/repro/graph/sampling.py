"""Degree-biased negative sampling (Sec. III-B).

The loss (Eq. 9) draws contrast nodes from the whole graph with
``Pr(z) ∝ deg(z)^{3/4}`` (word2vec convention).  An alias table gives
O(1) categorical draws; it is rebuilt lazily when the graph has grown.
Weighted *neighbour* sampling (Eq. 8) lives with the aggregators, in
:class:`repro.embedding.common.NeighborSampler`.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bipartite import MAC, RECORD, WeightedBipartiteGraph
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
    ``num_records + j`` at build time.  The table is rebuilt whenever the
    graph has grown since the last build.
    """

    def __init__(self, graph: WeightedBipartiteGraph, power: float = 0.75, rng=None):
        if power < 0:
            raise ValueError(f"power must be non-negative, got {power}")
        self.graph = graph
        self.power = power
        self.rng = as_rng(rng)
        self._table: AliasTable | None = None
        self._built_for: tuple[int, int] = (-1, -1)

    def _ensure_table(self) -> AliasTable:
        current = (self.graph.num_records, self.graph.num_macs)
        if self._table is None or current != self._built_for:
            record_deg, mac_deg = self.graph.degrees()
            degrees = np.concatenate([record_deg, mac_deg]).astype(np.float64)
            # Isolated nodes get a tiny weight so the table stays valid.
            weights = np.maximum(degrees, 1e-12) ** self.power
            self._table = AliasTable(weights)
            self._built_for = current
        return self._table

    def sample(self, size: int) -> list[tuple[str, int]]:
        """Draw ``size`` nodes as (side, index) references."""
        table = self._ensure_table()
        raw = np.atleast_1d(table.sample(self.rng, size=size))
        num_records = self._built_for[0]
        out = []
        for value in raw:
            if value < num_records:
                out.append((RECORD, int(value)))
            else:
                out.append((MAC, int(value - num_records)))
        return out

    def sample_global(self, size: int) -> np.ndarray:
        """Draw ``size`` nodes as global integer ids (records then MACs)."""
        table = self._ensure_table()
        return np.atleast_1d(table.sample(self.rng, size=size))
