"""A dynamic weighted bipartite graph of signal records and MACs.

Partition ``U`` holds signal-record nodes, partition ``V`` holds sensed
MAC-address nodes (Sec. III-A).  Nodes are appended while the training
graph is built; a fitted model's graph is then read, never grown:
:meth:`WeightedBipartiteGraph.edges_of` gives a streamed record's edges
into it without adding a node, which is all BiSAGE's inductive
embedding (Sec. IV-A) needs.

Nodes are referred to by ``(side, index)`` pairs where ``side`` is
:data:`RECORD` (``"U"``) or :data:`MAC` (``"V"``) and indices are dense
per-partition integers assigned in insertion order.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.records import SignalRecord

__all__ = ["RECORD", "MAC", "NodeRef", "WeightedBipartiteGraph", "global_csr"]

RECORD = "U"
MAC = "V"

NodeRef = tuple  # (side, index)


class WeightedBipartiteGraph:
    """Adjacency-list weighted bipartite graph.

    Parameters
    ----------
    weight_offset:
        The constant ``c`` of Eq. 2; edge weight is ``RSS + c`` and must
        come out strictly positive (the paper uses c = 120 dBm).
    """

    def __init__(self, weight_offset: float = 120.0):
        if weight_offset <= 0:
            raise ValueError(f"weight_offset must be positive, got {weight_offset}")
        self.weight_offset = float(weight_offset)
        self._mac_index: dict[str, int] = {}
        self._mac_names: list[str] = []
        # adjacency: per record node, parallel arrays of mac indices / weights
        self._record_neighbors: list[np.ndarray] = []
        self._record_weights: list[np.ndarray] = []
        # reverse adjacency built incrementally as python lists
        self._mac_neighbors: list[list[int]] = []
        self._mac_weights: list[list[float]] = []
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def edge_weight_of_rss(self, rss: float) -> float:
        """Eq. 1–2: ``w = f(RSS) = RSS + c``, validated positive."""
        weight = rss + self.weight_offset
        if weight <= 0:
            raise ValueError(
                f"RSS {rss} with offset {self.weight_offset} gives non-positive weight; "
                "increase weight_offset (paper: c > max |RSS|)"
            )
        return weight

    def add_record(self, record: SignalRecord) -> int:
        """Append a record node with edges to its sensed MACs.

        Unseen MAC addresses are added as new ``V`` nodes (the dynamic
        behaviour of Sec. III-A/IV-A).  Returns the new record index.
        Empty records are allowed as isolated nodes; GEM treats them as
        outliers upstream.
        """
        record_idx = len(self._record_neighbors)
        mac_indices = []
        weights = []
        for mac, rss in record.readings.items():
            mac_idx = self._mac_index.get(mac)
            if mac_idx is None:
                mac_idx = self._intern_mac(mac)
            weight = self.edge_weight_of_rss(rss)
            mac_indices.append(mac_idx)
            weights.append(weight)
            self._mac_neighbors[mac_idx].append(record_idx)
            self._mac_weights[mac_idx].append(weight)
        self._record_neighbors.append(np.asarray(mac_indices, dtype=np.int64))
        self._record_weights.append(np.asarray(weights, dtype=np.float64))
        self._num_edges += len(mac_indices)
        return record_idx

    def add_records(self, records: Iterable[SignalRecord]) -> list[int]:
        return [self.add_record(record) for record in records]

    def edges_of(self, readings: dict[str, float]) -> tuple[np.ndarray, np.ndarray]:
        """``(mac indices, edge weights)`` of a record's edges to known MACs.

        Read-only: the record joins no partition.  Every reading's RSS is
        validated, the unknown MACs' included, exactly as
        :meth:`add_record` would; unknown MACs then contribute no edge.
        """
        neighbors = []
        weights = []
        for mac, rss in readings.items():
            weight = self.edge_weight_of_rss(rss)
            mac_idx = self._mac_index.get(mac)
            if mac_idx is not None:
                neighbors.append(mac_idx)
                weights.append(weight)
        return np.asarray(neighbors, dtype=np.int64), np.asarray(weights, dtype=np.float64)

    def _intern_mac(self, mac: str) -> int:
        idx = len(self._mac_names)
        self._mac_index[mac] = idx
        self._mac_names.append(mac)
        self._mac_neighbors.append([])
        self._mac_weights.append([])
        return idx

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return len(self._record_neighbors)

    @property
    def num_macs(self) -> int:
        return len(self._mac_names)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def mac_name(self, index: int) -> str:
        return self._mac_names[index]

    def mac_index(self, mac: str) -> int | None:
        """Index of a MAC node, or None if never seen."""
        return self._mac_index.get(mac)

    def known_macs(self) -> set[str]:
        return set(self._mac_index)

    def neighbors(self, side: str, index: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor indices in the other partition, edge weights)."""
        if side == RECORD:
            return self._record_neighbors[index], self._record_weights[index]
        if side == MAC:
            return (np.asarray(self._mac_neighbors[index], dtype=np.int64),
                    np.asarray(self._mac_weights[index], dtype=np.float64))
        raise ValueError(f"side must be {RECORD!r} or {MAC!r}, got {side!r}")

    def degree(self, side: str, index: int) -> int:
        neighbors, _ = self.neighbors(side, index)
        return len(neighbors)

    def weighted_degree(self, side: str, index: int) -> float:
        _, weights = self.neighbors(side, index)
        return float(weights.sum()) if len(weights) else 0.0

    def nodes(self) -> Iterator[NodeRef]:
        """All nodes, records first then MACs."""
        for i in range(self.num_records):
            yield (RECORD, i)
        for j in range(self.num_macs):
            yield (MAC, j)

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """(record degrees, MAC degrees) as arrays."""
        record_deg = np.asarray([len(n) for n in self._record_neighbors], dtype=np.int64)
        mac_deg = np.asarray([len(n) for n in self._mac_neighbors], dtype=np.int64)
        return record_deg, mac_deg

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """All (record index, mac index, weight) triples."""
        for u, (neighbors, weights) in enumerate(zip(self._record_neighbors, self._record_weights)):
            for v, w in zip(neighbors, weights):
                yield u, int(v), float(w)

    def record_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat COO arrays (record_rows, mac_cols, weights) over all edges."""
        if self._num_edges == 0:
            empty = np.empty(0)
            return empty.astype(np.int64), empty.astype(np.int64), empty
        rows = np.concatenate([
            np.full(len(neigh), u, dtype=np.int64)
            for u, neigh in enumerate(self._record_neighbors) if len(neigh)
        ]) if any(len(n) for n in self._record_neighbors) else np.empty(0, dtype=np.int64)
        cols = np.concatenate([n for n in self._record_neighbors if len(n)])
        weights = np.concatenate([w for w in self._record_weights if len(w)])
        return rows, cols, weights

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state: flat edge arrays + the MAC name table.

        Edges are stored record-major as ``(record_indptr, edge_macs,
        edge_weights)`` — record ``u``'s edges occupy the slice
        ``record_indptr[u]:record_indptr[u+1]``.  The reverse (MAC-side)
        adjacency is derived, so it is rebuilt on load rather than saved.
        """
        record_deg, _ = self.degrees()
        indptr = np.zeros(self.num_records + 1, dtype=np.int64)
        np.cumsum(record_deg, out=indptr[1:])
        _, edge_macs, edge_weights = self.record_adjacency()
        return {
            "weight_offset": self.weight_offset,
            "mac_names": list(self._mac_names),
            "record_indptr": indptr,
            "edge_macs": edge_macs,
            "edge_weights": edge_weights,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "WeightedBipartiteGraph":
        """Rebuild a graph saved by :meth:`state_dict`."""
        graph = cls(weight_offset=float(state["weight_offset"]))
        for mac in state["mac_names"]:
            graph._intern_mac(str(mac))
        indptr = np.asarray(state["record_indptr"], dtype=np.int64)
        edge_macs = np.asarray(state["edge_macs"], dtype=np.int64)
        edge_weights = np.asarray(state["edge_weights"], dtype=np.float64)
        if (len(edge_macs) != len(edge_weights)
                or len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(edge_macs)
                or (np.diff(indptr) < 0).any()):
            raise ValueError("graph state has inconsistent edge arrays")
        if len(edge_macs) and (edge_macs.min() < 0 or edge_macs.max() >= graph.num_macs):
            raise ValueError("graph state references a MAC index outside the name table")
        for u in range(len(indptr) - 1):
            lo, hi = indptr[u], indptr[u + 1]
            macs = edge_macs[lo:hi].copy()
            weights = edge_weights[lo:hi].copy()
            graph._record_neighbors.append(macs)
            graph._record_weights.append(weights)
            for mac_idx, weight in zip(macs, weights):
                graph._mac_neighbors[mac_idx].append(u)
                graph._mac_weights[mac_idx].append(float(weight))
            graph._num_edges += len(macs)
        graph.validate()
        return graph

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        forward = sum(len(n) for n in self._record_neighbors)
        backward = sum(len(n) for n in self._mac_neighbors)
        assert forward == backward == self._num_edges, "edge bookkeeping out of sync"
        for u, (neighbors, weights) in enumerate(zip(self._record_neighbors, self._record_weights)):
            assert len(neighbors) == len(weights), f"record {u} has mismatched arrays"
            assert (weights > 0).all(), f"record {u} has non-positive edge weight"
            assert (neighbors < self.num_macs).all(), f"record {u} references unknown MAC"


def global_csr(graph: WeightedBipartiteGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the bipartite adjacency into global-id CSR arrays.

    Returns ``(indptr, indices, weights)`` over ``N = num_records +
    num_macs`` rows: record ``i`` is node ``i`` and MAC ``j`` is node
    ``num_records + j``, so record rows come first.  Neighbour indices
    are global ids in the opposite partition, in the order of
    :meth:`WeightedBipartiteGraph.neighbors`: a record's MACs as it
    sensed them, a MAC's records by index.
    """
    num_records = graph.num_records
    num_nodes = num_records + graph.num_macs
    rows_u, cols_v, weights_uv = graph.record_adjacency()
    # Every edge appears in its record's row and in its MAC's row.  A
    # stable sort by row keeps the record-major edge order inside each.
    rows = np.concatenate([rows_u, num_records + cols_v])
    order = np.argsort(rows, kind="stable")
    indices = np.concatenate([num_records + cols_v, rows_u])[order]
    weights = np.concatenate([weights_uv, weights_uv])[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return indptr, indices, weights
