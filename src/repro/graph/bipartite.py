"""The weighted bipartite graph of signal records and MACs (Sec. III-A).

Partition ``U`` holds signal-record nodes, partition ``V`` holds sensed
MAC-address nodes.  The graph is built once, from a batch of training
records (:func:`~repro.graph.build_graph`) or from saved arrays
(:meth:`WeightedBipartiteGraph.from_state_dict`), and is read-only
afterwards: :meth:`WeightedBipartiteGraph.edges_of` gives a streamed
record's edges into it without adding a node, which is all BiSAGE's
inductive embedding (Sec. IV-A) needs.

Nodes are referred to by ``(side, index)`` pairs where ``side`` is
:data:`RECORD` (``"U"``) or :data:`MAC` (``"V"``) and indices are dense
per-partition integers: records in build order, MACs in first-seen
order.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["RECORD", "MAC", "NodeRef", "WeightedBipartiteGraph", "edge_weight_of_rss",
           "global_csr"]

RECORD = "U"
MAC = "V"

NodeRef = tuple  # (side, index)


def edge_weight_of_rss(rss: float, weight_offset: float) -> float:
    """Eq. 1–2: ``w = f(RSS) = RSS + c``, validated positive."""
    weight = rss + weight_offset
    if weight <= 0:
        raise ValueError(
            f"RSS {rss} with offset {weight_offset} gives non-positive weight; "
            "increase weight_offset (paper: c > max |RSS|)"
        )
    return weight


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class WeightedBipartiteGraph:
    """Immutable weighted bipartite graph, held as CSR in both directions.

    The record side is ``(record_indptr, edge_macs, edge_weights)``:
    record ``u``'s edges occupy ``record_indptr[u]:record_indptr[u+1]``,
    its MACs in sensed order.  The MAC side is the same edges, stably
    sorted by MAC, so a MAC's records come by index.  Every query is a
    view over these read-only arrays.

    Parameters
    ----------
    weight_offset:
        The constant ``c`` of Eq. 2; edge weight is ``RSS + c`` and must
        come out strictly positive (the paper uses c = 120 dBm).
    mac_names:
        The MAC node names; MAC ``j`` is ``mac_names[j]``.
    record_indptr, edge_macs, edge_weights:
        The record-major edge arrays, as :meth:`state_dict` saves them.

    Raises ``ValueError`` when the arrays do not describe a graph: edge
    arrays of mismatched length, a decreasing ``record_indptr``, a MAC
    index outside the name table, duplicate MAC names, a MAC repeated
    within one record, or an edge weight that is not finite and positive.
    """

    def __init__(self, weight_offset: float, mac_names: Sequence[str],
                 record_indptr, edge_macs, edge_weights):
        if weight_offset <= 0:
            raise ValueError(f"weight_offset must be positive, got {weight_offset}")
        self.weight_offset = float(weight_offset)
        self._mac_names = [str(mac) for mac in mac_names]
        self._mac_index = {mac: j for j, mac in enumerate(self._mac_names)}
        if len(self._mac_index) != len(self._mac_names):
            raise ValueError("graph has duplicate MAC names")
        # Copies: the graph owns its arrays, so read-only flags stay ours.
        indptr = _readonly(np.array(record_indptr, dtype=np.int64))
        macs = _readonly(np.array(edge_macs, dtype=np.int64))
        weights = _readonly(np.array(edge_weights, dtype=np.float64))
        if (indptr.ndim != 1 or macs.ndim != 1 or len(macs) != len(weights)
                or len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(macs)
                or (np.diff(indptr) < 0).any()):
            raise ValueError("graph state has inconsistent edge arrays")
        num_macs = len(self._mac_names)
        if len(macs) and (macs.min() < 0 or macs.max() >= num_macs):
            raise ValueError("graph state references a MAC index outside the name table")
        if not (np.isfinite(weights) & (weights > 0)).all():
            raise ValueError("graph has an edge weight that is not finite and positive")
        records = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
        # The MAC side: a stable sort keeps each MAC's records by index,
        # so a MAC repeated within one record shows as an adjacent pair.
        order = np.argsort(macs, kind="stable")
        sorted_macs, sorted_records = macs[order], records[order]
        if ((sorted_macs[1:] == sorted_macs[:-1])
                & (sorted_records[1:] == sorted_records[:-1])).any():
            raise ValueError("graph has a MAC repeated within one record")

        self._record_indptr, self._edge_records = indptr, _readonly(records)
        self._edge_macs, self._edge_weights = macs, weights
        mac_indptr = np.zeros(num_macs + 1, dtype=np.int64)
        np.cumsum(np.bincount(macs, minlength=num_macs), out=mac_indptr[1:])
        self._mac_indptr = _readonly(mac_indptr)
        self._mac_records = _readonly(sorted_records)
        self._mac_weights = _readonly(weights[order])
        self._global_csr = self._build_global_csr()

    def _build_global_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        num_records, num_edges = self.num_records, self.num_edges
        indptr = np.concatenate([self._record_indptr, num_edges + self._mac_indptr[1:]])
        indices = np.concatenate([num_records + self._edge_macs, self._mac_records])
        weights = np.concatenate([self._edge_weights, self._mac_weights])
        return _readonly(indptr), _readonly(indices), _readonly(weights)

    def edges_of(self, readings: dict[str, float]) -> tuple[np.ndarray, np.ndarray]:
        """``(mac indices, edge weights)`` of a record's edges to known MACs.

        Read-only: the record joins no partition.  Every reading's RSS is
        validated, the unknown MACs' included, exactly as at build;
        unknown MACs then contribute no edge.
        """
        neighbors = []
        weights = []
        for mac, rss in readings.items():
            weight = edge_weight_of_rss(rss, self.weight_offset)
            mac_idx = self._mac_index.get(mac)
            if mac_idx is not None:
                neighbors.append(mac_idx)
                weights.append(weight)
        return np.asarray(neighbors, dtype=np.int64), np.asarray(weights, dtype=np.float64)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return len(self._record_indptr) - 1

    @property
    def num_macs(self) -> int:
        return len(self._mac_names)

    @property
    def num_edges(self) -> int:
        return len(self._edge_macs)

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
            indptr, targets, weights = self._record_indptr, self._edge_macs, self._edge_weights
        elif side == MAC:
            indptr, targets, weights = self._mac_indptr, self._mac_records, self._mac_weights
        else:
            raise ValueError(f"side must be {RECORD!r} or {MAC!r}, got {side!r}")
        if not 0 <= index < len(indptr) - 1:
            raise IndexError(f"no node {index} on side {side!r}")
        lo, hi = indptr[index], indptr[index + 1]
        return targets[lo:hi], weights[lo:hi]

    def degree(self, side: str, index: int) -> int:
        neighbors, _ = self.neighbors(side, index)
        return len(neighbors)

    def nodes(self) -> Iterator[NodeRef]:
        """All nodes, records first then MACs."""
        for i in range(self.num_records):
            yield (RECORD, i)
        for j in range(self.num_macs):
            yield (MAC, j)

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """(record degrees, MAC degrees) as arrays."""
        return np.diff(self._record_indptr), np.diff(self._mac_indptr)

    def record_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat COO arrays (record_rows, mac_cols, weights) over all edges."""
        return self._edge_records, self._edge_macs, self._edge_weights

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state: the record-side CSR + the MAC name table.

        The MAC side is derived, so it is rebuilt on load rather than
        saved.
        """
        return {
            "weight_offset": self.weight_offset,
            "mac_names": list(self._mac_names),
            "record_indptr": self._record_indptr,
            "edge_macs": self._edge_macs,
            "edge_weights": self._edge_weights,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "WeightedBipartiteGraph":
        """Rebuild a graph saved by :meth:`state_dict`."""
        return cls(state["weight_offset"], state["mac_names"], state["record_indptr"],
                   state["edge_macs"], state["edge_weights"])


def global_csr(graph: WeightedBipartiteGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bipartite adjacency as global-id CSR arrays, built once per graph.

    Returns ``(indptr, indices, weights)`` over ``N = num_records +
    num_macs`` rows: record ``i`` is node ``i`` and MAC ``j`` is node
    ``num_records + j``, so record rows come first.  Neighbour indices
    are global ids in the opposite partition, in the order of
    :meth:`WeightedBipartiteGraph.neighbors`: a record's MACs as it
    sensed them, a MAC's records by index.
    """
    return graph._global_csr
