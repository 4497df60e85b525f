"""BiSAGE: training, determinism, inductive inference, cache dynamics."""

import numpy as np
import pytest

from repro.core import GEM, GEMConfig
from repro.core.records import SignalRecord
from repro.embedding import BiSAGE, BiSAGEConfig
from repro.graph import build_graph

import reference
from conftest import mac_names, synthetic_records

FAST = BiSAGEConfig(dim=8, epochs=2, batch_pairs=128, seed=0)


@pytest.fixture(scope="module")
def fitted():
    records = synthetic_records(40, num_macs=10, seed=3)
    graph = build_graph(records)
    return BiSAGE(FAST).fit(graph), graph, records


@pytest.fixture(scope="module")
def fitted_with_copies(fitted):
    """A model over the ``fitted`` records plus copies of records 2, 3 and 3
    at the end, and the index of the first copy."""
    _, _, records = fitted
    copies = [SignalRecord(dict(records[i].readings)) for i in (2, 3, 3)]
    return BiSAGE(FAST).fit(build_graph(records + copies)), len(records)


class TestConfig:
    def test_defaults_match_paper(self):
        config = BiSAGEConfig()
        assert config.dim == 32
        assert config.learning_rate == pytest.approx(0.003)
        assert config.negative_samples == 4
        assert config.negative_power == pytest.approx(0.75)

    def test_invalid_activation(self):
        with pytest.raises(ValueError, match="'activation'"):
            BiSAGEConfig.from_dict({"activation": "swish"})

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            BiSAGEConfig(dim=0)


class TestTraining:
    def test_fit_learns(self, fitted):
        model, graph, _ = fitted
        assert len(model.loss_history) > 0
        # Loss should drop overall across training.
        head = np.mean(model.loss_history[:3])
        tail = np.mean(model.loss_history[-3:])
        assert tail < head

    def test_embeddings_shape_and_norm(self, fitted):
        model, graph, _ = fitted
        embeddings = model.record_embeddings()
        assert embeddings.shape == (graph.num_records, FAST.dim)
        np.testing.assert_allclose(np.linalg.norm(embeddings, axis=1), 1.0, atol=1e-6)

    def test_mac_embeddings_shape(self, fitted):
        model, graph, _ = fitted
        assert model.mac_embeddings().shape == (graph.num_macs, FAST.dim)

    def test_deterministic_given_seed(self):
        records = synthetic_records(20, seed=5)
        a = BiSAGE(FAST).fit(build_graph(records)).record_embeddings()
        b = BiSAGE(FAST).fit(build_graph(records)).record_embeddings()
        np.testing.assert_allclose(a, b)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            BiSAGE(FAST).fit(build_graph([]))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            BiSAGE(FAST).record_embeddings()

    def test_embeddings_reflect_similarity(self):
        # Two clusters of records with disjoint-ish MAC strengths should be
        # farther apart than records within a cluster.
        rng = np.random.default_rng(0)
        cluster_a = synthetic_records(20, num_macs=10, seed=1, center=1.0)
        cluster_b = synthetic_records(20, num_macs=10, seed=2, center=8.0)
        graph = build_graph(cluster_a + cluster_b)
        model = BiSAGE(BiSAGEConfig(dim=8, epochs=4, seed=0)).fit(graph)
        # Use the inductive path: all nodes share the inference initial
        # embedding, so distances reflect neighbourhood structure only.
        emb = np.vstack([reference.embed_record_node(model, i) for i in range(40)])
        a, b = emb[:20], emb[20:]
        within = np.linalg.norm(a - a.mean(0), axis=1).mean()
        between = np.linalg.norm(a.mean(0) - b.mean(0))
        assert between > within


class TestInductiveInference:
    def test_embed_readings_known_macs(self, fitted):
        model, graph, records = fitted
        embedding = reference.embed_readings(model, dict(records[0].readings))
        assert embedding.shape == (FAST.dim,)
        assert abs(np.linalg.norm(embedding) - 1.0) < 1e-6

    def test_embed_readings_all_unknown_returns_none(self, fitted):
        model, _, _ = fitted
        assert reference.embed_readings(model, {"never-seen": -50.0}) is None

    def test_embed_readings_deterministic(self, fitted):
        model, _, records = fitted
        readings = dict(records[1].readings)
        np.testing.assert_allclose(reference.embed_readings(model, readings),
                                   reference.embed_readings(model, readings))

    def test_embed_record_node_after_attach(self, fitted_with_copies):
        model, first_copy = fitted_with_copies
        embedding = reference.embed_record_node(model, first_copy)
        assert embedding.shape == (FAST.dim,)

    def test_new_macs_are_skipped_without_growing_caches(self, fitted):
        model, graph, records = fitted
        macs, rows = graph.num_macs, model._cache_hv[0].shape[0]
        readings = dict(records[0].readings)
        sensed = {**readings, "brand-new-mac": -60.0}
        np.testing.assert_array_equal(reference.embed_readings(model, sensed),
                                      reference.embed_readings(model, readings))
        assert "brand-new-mac" not in mac_names(graph)
        assert graph.num_macs == macs == rows
        assert all(layer.shape[0] == rows for layer in model._cache_hv + model._cache_lv)

    def test_identical_readings_identical_embeddings(self, fitted_with_copies):
        model, first_copy = fitted_with_copies
        np.testing.assert_allclose(reference.embed_record_node(model, first_copy + 1),
                                   reference.embed_record_node(model, first_copy + 2))

    def test_inductive_close_to_training_distribution(self):
        records = synthetic_records(40, num_macs=10, seed=6)
        graph = build_graph(records)
        model = BiSAGE(BiSAGEConfig(dim=8, epochs=3, seed=1)).fit(graph)
        # A record resembling training data should embed near the
        # training cloud.
        probe = reference.embed_readings(model, dict(records[5].readings))
        train = np.vstack([reference.embed_record_node(model, i) for i in range(20)])
        spread = np.linalg.norm(train - train.mean(0), axis=1).mean()
        distance = np.linalg.norm(probe - train.mean(0))
        assert distance < spread * 4

    def test_refresh_cache_updates_new_macs(self):
        """Now driven through ``EmbeddingGeofencer.refresh``: a MAC first
        sensed after training, many times before a refresh, gets no graph
        node, no cache row and no say in record embeddings — before and
        after a checkpoint round trip."""
        records = synthetic_records(40, num_macs=10, seed=3)
        gem = GEM(GEMConfig(bisage=FAST)).fit(records)
        caches = {key: [layer.copy() for layer in layers]
                  for key, layers in vars(gem.embedder.model).items() if key.startswith("_cache_")}
        for i in range(6):
            gem.observe(SignalRecord({**records[i].readings, "newcomer": -50.0 - i}))
        assert gem.refresh(records[:20]) == 20
        assert "newcomer" not in mac_names(gem.graph)
        for key, layers in caches.items():
            for before, after in zip(layers, getattr(gem.embedder.model, key)):
                np.testing.assert_array_equal(before, after)
        probe = SignalRecord(dict(records[0].readings))
        sensed = SignalRecord({**records[0].readings, "newcomer": -45.0})
        np.testing.assert_array_equal(gem.embedder.embed(sensed), gem.embedder.embed(probe))
        clone = GEM(gem.config).load_state_dict(gem.state_dict())
        np.testing.assert_array_equal(clone.embedder.embed(sensed), gem.embedder.embed(sensed))
        assert clone.score(sensed) == gem.score(sensed)
        # Layer-0 rows of original MACs are the deterministic initials.
        from repro.graph import MAC
        np.testing.assert_allclose(gem.embedder.model._cache_hv[0][0],
                                   gem.embedder.model._initial_row(MAC, 0, "h"))
