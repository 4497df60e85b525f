"""Weighted bipartite graph: construction, queries, the CSR build differential."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.records import SignalRecord
from repro.graph import MAC, RECORD, build_graph, global_csr
from repro.graph.bipartite import edge_weight_of_rss

from conftest import mac_names, synthetic_records


SMALL = [SignalRecord({"a": -50.0, "b": -60.0}), SignalRecord({"b": -55.0, "c": -70.0})]


def small_graph():
    return build_graph(SMALL, weight_offset=120.0)


class TestConstruction:
    def test_counts(self):
        graph = small_graph()
        assert graph.num_records == 2
        assert graph.num_macs == 3
        assert graph.num_edges == 4

    def test_weight_function_eq2(self):
        assert edge_weight_of_rss(-50.0, 120.0) == pytest.approx(70.0)

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError, match="non-positive weight"):
            edge_weight_of_rss(-120.0, 100.0)
        with pytest.raises(ValueError, match="non-positive weight"):
            build_graph([SignalRecord({"a": -120.0})], weight_offset=100.0)

    def test_invalid_offset(self):
        with pytest.raises(ValueError):
            build_graph([], weight_offset=0.0)

    def test_empty_record_is_isolated_node(self):
        graph = build_graph(SMALL + [SignalRecord({})])
        assert len(graph.neighbors(RECORD, 2)[0]) == 0
        assert graph.num_records == 3

    def test_new_macs_added_dynamically(self):
        # MACs are interned in first-seen order across the records.
        graph = build_graph(SMALL + [SignalRecord({"zz": -40.0, "a": -45.0})])
        assert mac_names(graph) == ["a", "b", "c", "zz"]

    def test_mac_reuse(self):
        graph = build_graph(SMALL + [SignalRecord({"a": -45.0})])
        assert graph.num_macs == 3
        neighbors, _ = graph.neighbors(MAC, mac_names(graph).index("a"))
        assert neighbors.tolist() == [0, 2]

    def test_build_graph_helper(self):
        records = synthetic_records(5, seed=1)
        graph = build_graph(records)
        assert graph.num_records == 5
        assert graph.num_edges == sum(len(r) for r in records)


class TestQueries:
    def test_neighbors_record_side(self):
        graph = small_graph()
        neighbors, weights = graph.neighbors(RECORD, 0)
        assert set(mac_names(graph)[i] for i in neighbors) == {"a", "b"}
        assert (weights > 0).all()

    def test_neighbors_mac_side(self):
        graph = small_graph()
        neighbors, weights = graph.neighbors(MAC, mac_names(graph).index("b"))
        assert set(neighbors.tolist()) == {0, 1}
        np.testing.assert_allclose(sorted(weights), [60.0, 65.0])

    def test_neighbors_invalid_side(self):
        with pytest.raises(ValueError):
            small_graph().neighbors("X", 0)
        for side, index in [(RECORD, -1), (RECORD, 2), (MAC, -1), (MAC, 3)]:
            with pytest.raises(IndexError):
                small_graph().neighbors(side, index)

    def test_degree_and_weighted_degree(self):
        graph = small_graph()
        assert len(graph.neighbors(RECORD, 0)[0]) == 2
        assert graph.neighbors(RECORD, 0)[1].sum() == pytest.approx(70.0 + 60.0)

    def test_degrees_arrays(self):
        record_deg, mac_deg = small_graph().degrees()
        assert record_deg.tolist() == [2, 2]
        assert sorted(mac_deg.tolist()) == [1, 1, 2]

    def test_edges_iteration(self):
        rows, cols, weights = small_graph().record_adjacency()
        assert rows.tolist() == [0, 0, 1, 1]
        assert cols.tolist() == [0, 1, 1, 2]
        assert weights.tolist() == [70.0, 60.0, 65.0, 50.0]

    def test_arrays_are_read_only(self):
        graph = small_graph()
        neighbors, weights = graph.neighbors(MAC, 1)
        with pytest.raises(ValueError):
            weights[0] = 1.0
        with pytest.raises(ValueError):
            global_csr(graph)[1][0] = 0

    def test_record_adjacency_coo(self):
        rows, cols, weights = small_graph().record_adjacency()
        assert len(rows) == len(cols) == len(weights) == 4

    def test_record_adjacency_empty_graph(self):
        rows, cols, weights = build_graph([]).record_adjacency()
        assert len(rows) == 0
        assert (rows.dtype, cols.dtype, weights.dtype) == (np.int64, np.int64, np.float64)




# ----------------------------------------------------------------------
# Differential: the CSR build against a per-edge append loop
# ----------------------------------------------------------------------
def reference_build(reading_dicts, weight_offset=120.0):
    """Records added one at a time, each edge appended to both sides."""
    mac_index = {}
    record_neighbors, record_weights = [], []
    mac_neighbors, mac_weights = [], []
    for record_idx, readings in enumerate(reading_dicts):
        mac_indices, weights = [], []
        for mac, rss in readings.items():
            mac_idx = mac_index.get(mac)
            if mac_idx is None:
                mac_idx = mac_index[mac] = len(mac_index)
                mac_neighbors.append([])
                mac_weights.append([])
            weight = rss + weight_offset
            mac_indices.append(mac_idx)
            weights.append(weight)
            mac_neighbors[mac_idx].append(record_idx)
            mac_weights[mac_idx].append(weight)
        record_neighbors.append(np.asarray(mac_indices, dtype=np.int64))
        record_weights.append(np.asarray(weights, dtype=np.float64))
    mac_neighbors = [np.asarray(n, dtype=np.int64) for n in mac_neighbors]
    mac_weights = [np.asarray(w, dtype=np.float64) for w in mac_weights]
    return list(mac_index), record_neighbors, record_weights, mac_neighbors, mac_weights


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _flat(arrays, dtype):
    return np.concatenate(arrays).astype(dtype) if arrays else np.empty(0, dtype=dtype)


READINGS = st.dictionaries(st.sampled_from(["m1", "m2", "m3", "m4", "m5", "m6"]),
                           st.floats(-100, -30), min_size=0, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(READINGS, min_size=1, max_size=5).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=0, max_size=10)))
@example([{}, {"m1": -50.0, "m2": -60.0}, {"m2": -55.0, "lonely": -70.0},
          {"m1": -50.0, "m2": -60.0}, {}])
def test_property_graph_invariants(reading_dicts):
    graph = build_graph([SignalRecord(r) for r in reading_dicts])
    names, rec_n, rec_w, mac_n, mac_w = reference_build(reading_dicts)
    num_records = len(reading_dicts)
    assert (graph.num_records, graph.num_macs) == (num_records, len(names))
    assert graph.num_edges == sum(len(r) for r in reading_dicts)
    assert mac_names(graph) == names
    for i in range(num_records):
        assert_same_bits(graph.neighbors(RECORD, i)[0], rec_n[i])
        assert_same_bits(graph.neighbors(RECORD, i)[1], rec_w[i])
    for j in range(len(names)):
        assert_same_bits(graph.neighbors(MAC, j)[0], mac_n[j])
        assert_same_bits(graph.neighbors(MAC, j)[1], mac_w[j])

    state = graph.state_dict()
    assert state["mac_names"] == names
    assert_same_bits(state["record_indptr"],
                     np.concatenate([[0], np.cumsum([len(n) for n in rec_n])]).astype(np.int64))
    assert_same_bits(state["edge_macs"], _flat(rec_n, np.int64))
    assert_same_bits(state["edge_weights"], _flat(rec_w, np.float64))

    # Global ids: records first, then MACs, each row in neighbors() order.
    rows = [num_records + n for n in rec_n] + mac_n
    indptr, indices, weights = global_csr(graph)
    assert_same_bits(indptr,
                     np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64))
    assert_same_bits(indices, _flat(rows, np.int64))
    assert_same_bits(weights, _flat(rec_w + mac_w, np.float64))
