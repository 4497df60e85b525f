"""Build the weighted bipartite graph from a batch of signal records."""

from __future__ import annotations

from typing import Iterable

from repro.core.records import SignalRecord
from repro.graph.bipartite import WeightedBipartiteGraph, edge_weight_of_rss

__all__ = ["build_graph"]


def build_graph(records: Iterable[SignalRecord], weight_offset: float = 120.0) -> WeightedBipartiteGraph:
    """Construct the Sec. III-A graph over ``records``.

    Records become record nodes in order, each with edges to its MACs in
    sensed order; MACs become nodes in first-seen order.  An empty
    record is an isolated node.  ``weight_offset`` is the constant ``c``
    of Eq. 2; the paper uses 120 dBm, safely above any sensed |RSS|.
    """
    mac_index: dict[str, int] = {}
    record_indptr = [0]
    edge_macs = []
    edge_weights = []
    for record in records:
        for mac, rss in record.readings.items():
            edge_macs.append(mac_index.setdefault(mac, len(mac_index)))
            edge_weights.append(edge_weight_of_rss(rss, weight_offset))
        record_indptr.append(len(edge_macs))
    return WeightedBipartiteGraph(weight_offset, list(mac_index), record_indptr,
                                  edge_macs, edge_weights)
