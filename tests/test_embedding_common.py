"""Shared SAGE machinery: global CSR, batch sampling, aggregation matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import SignalRecord
from repro.embedding.bisage import BiSAGE, BiSAGEConfig
from repro.embedding.common import NeighborSampler, _initial_table, initial_embedding_row
from repro.embedding.graphsage import GraphSAGEConfig
from repro.graph import build_graph, global_csr
from repro.pipeline import ComponentSpec, PipelineSpec, build_pipeline

from conftest import synthetic_records


def graphsage_pipeline(**params):
    return build_pipeline(PipelineSpec(embedder=ComponentSpec("graphsage", params),
                                       detector=ComponentSpec("histogram")))


class TestSAGEConfigValidation:
    """Both models share one config validation, reached from a spec too."""

    # Through from_dict, as a persisted config is read back.
    BUILDERS = {"bisage": lambda **params: BiSAGEConfig.from_dict(params),
                "graphsage": lambda **params: GraphSAGEConfig.from_dict(params),
                "graphsage-spec": graphsage_pipeline}

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize("params", [{"resample_every": 0}, {"resample_every": -2},
                                        {"negative_power": -1.0}, {"activation": "swish"},
                                        {"dim": 0}, {"sample_size": 0}],
                             ids=lambda params: "-".join(f"{k}={v}" for k, v in params.items()))
    def test_invalid_values_refused_up_front(self, builder, params):
        with pytest.raises(ValueError):
            self.BUILDERS[builder](**params)

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_shared_activations_accepted(self, builder):
        """tanh, the one activation both models share, may still be named."""
        self.BUILDERS[builder](activation="tanh")


def small_graph():
    return build_graph([SignalRecord({"a": -50.0, "b": -60.0}),
                        SignalRecord({"b": -55.0, "c": -70.0})])


class TestGlobalCsr:
    def test_shapes(self):
        graph = small_graph()
        indptr, indices, weights = global_csr(graph)
        num_nodes = graph.num_records + graph.num_macs
        assert len(indptr) == num_nodes + 1
        assert len(indices) == len(weights) == 2 * graph.num_edges

    def test_symmetry(self):
        # Edge (u, v) appears in u's row and in v's row with equal weight.
        graph = small_graph()
        indptr, indices, weights = global_csr(graph)
        num_u = graph.num_records
        # record 0 -> mac 'a' (global id num_u + 0)
        row0 = indices[indptr[0]:indptr[1]]
        assert num_u + 0 in row0
        row_a = indices[indptr[num_u]:indptr[num_u + 1]]
        assert 0 in row_a

    def test_degrees_match_graph(self):
        graph = build_graph(synthetic_records(10, seed=0))
        indptr, _, _ = global_csr(graph)
        degrees = np.diff(indptr)
        record_deg, mac_deg = graph.degrees()
        np.testing.assert_array_equal(degrees[: graph.num_records], record_deg)
        np.testing.assert_array_equal(degrees[graph.num_records:], mac_deg)

    def test_neighbors_cross_partition(self):
        graph = small_graph()
        indptr, indices, _ = global_csr(graph)
        num_u = graph.num_records
        for u in range(num_u):
            assert (indices[indptr[u]:indptr[u + 1]] >= num_u).all()
        for v in range(num_u, num_u + graph.num_macs):
            assert (indices[indptr[v]:indptr[v + 1]] < num_u).all()


class TestAggregationMatrices:
    def test_full_matrix_rows_stochastic(self):
        graph = build_graph(synthetic_records(8, seed=1))
        indptr, indices, weights = global_csr(graph)
        n = graph.num_records + graph.num_macs
        matrix = NeighborSampler(indptr, indices, weights, None).full
        assert matrix.shape == (n, n)
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        degrees = np.diff(indptr)
        np.testing.assert_allclose(sums[degrees > 0], 1.0)
        np.testing.assert_allclose(sums[degrees == 0], 0.0)

    def test_sampled_matrix_rows_stochastic(self):
        graph = build_graph(synthetic_records(8, seed=1))
        indptr, indices, weights = global_csr(graph)
        n = graph.num_records + graph.num_macs
        matrix = NeighborSampler(indptr, indices, weights, 3).matrix(np.random.default_rng(0))
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        assert ((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0)).all()

    def test_sample_none_equals_full(self):
        graph = build_graph(synthetic_records(5, seed=2))
        indptr, indices, weights = global_csr(graph)
        n = graph.num_records + graph.num_macs
        rng = np.random.default_rng(0)
        a = NeighborSampler(indptr, indices, weights, None).matrix(rng)
        b = NeighborSampler(indptr, indices, weights, 10**6).matrix(rng)
        assert a.shape == (n, n)
        assert (a != b).nnz == 0
        # Full neighbourhoods draw nothing from the stream.
        assert rng.random() == np.random.default_rng(0).random()


class TestBatchSampling:
    def test_small_degree_kept_whole(self):
        graph = small_graph()
        indptr, indices, weights = global_csr(graph)
        rows, cols, w = NeighborSampler(indptr, indices, weights, 10).sample(
            np.random.default_rng(0))
        # Every node has degree <= 10: full adjacency returned.
        assert len(rows) == len(indices)

    def test_large_degree_capped(self):
        graph = build_graph([SignalRecord({f"m{i}": -50.0 for i in range(40)})])
        indptr, indices, weights = global_csr(graph)
        rows, cols, w = NeighborSampler(indptr, indices, weights, 5).sample(
            np.random.default_rng(0))
        assert (rows == 0).sum() == 5  # the record node was subsampled

    def test_sampled_cols_are_neighbors(self):
        graph = build_graph([SignalRecord({f"m{i}": -40.0 - i for i in range(30)})])
        indptr, indices, weights = global_csr(graph)
        rows, cols, _ = NeighborSampler(indptr, indices, weights, 4).sample(
            np.random.default_rng(1))
        true_neighbors = set(indices[indptr[0]:indptr[1]].tolist())
        assert set(cols[rows == 0].tolist()) <= true_neighbors

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 12))
    def test_property_weights_positive(self, sample_size):
        graph = build_graph(synthetic_records(6, seed=4))
        indptr, indices, weights = global_csr(graph)
        _, _, w = NeighborSampler(indptr, indices, weights, sample_size).sample(
            np.random.default_rng(2))
        assert (w > 0).all()


class TestInitialEmbeddings:
    def test_unit_norm(self):
        rows = np.vstack([initial_embedding_row(8, 0, 1, node) for node in range(5)])
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=1e-9)

    def test_deterministic_per_identity(self):
        np.testing.assert_allclose(initial_embedding_row(8, 0, 1, 5),
                                   initial_embedding_row(8, 0, 1, 5))

    def test_different_identities_differ(self):
        a = initial_embedding_row(8, 0, 1, 5)
        b = initial_embedding_row(8, 0, 1, 6)
        c = initial_embedding_row(8, 0, 2, 5)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_negative_identity_supported(self):
        row = initial_embedding_row(8, 0, 1, -1)
        assert np.isfinite(row).all()

    def test_table_rows_are_the_definition(self):
        # A (dim, seed, salt) no other test uses, so the table starts empty.
        short = _initial_table(5, 91, 3, 4)
        grown = _initial_table(5, 91, 3, 11)
        assert len(short) >= 4 and len(grown) >= 11
        assert not grown.flags.writeable
        np.testing.assert_array_equal(grown[:4], short[:4])
        for node_id in range(11):
            assert grown[node_id].tobytes() == initial_embedding_row(5, 91, 3, node_id).tobytes()
        assert _initial_table(5, 91, 3, 2) is grown

    def test_fit_layer_zero_is_the_definition(self):
        graph = build_graph(synthetic_records(7, num_macs=9, seed=3))
        model = BiSAGE(BiSAGEConfig(dim=6, epochs=1, seed=4)).fit(graph)
        for name, stream in model.streams.items():
            for side, count, key in (("u", graph.num_records, lambda i: 2 * i),
                                     ("v", graph.num_macs, lambda j: 2 * j + 1)):
                layer0 = model._cache(name, side)[0]
                expected = np.vstack([initial_embedding_row(6, 4, stream.salt, key(i))
                                      for i in range(count)])
                assert layer0.tobytes() == expected.tobytes()
