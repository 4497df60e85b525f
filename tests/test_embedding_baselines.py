"""GraphSAGE, autoencoder, MDS and the imputed-matrix view."""

import numpy as np
import pytest

from repro.embedding import (
    AutoencoderConfig,
    ClassicalMDS,
    ConvAutoencoder,
    GraphSAGE,
    GraphSAGEConfig,
    MatrixView,
)
from repro.embedding.mds import cosine_distance_matrix, cosine_distances_to
from repro.graph import build_graph

import reference
from conftest import make_record, synthetic_records


class TestMatrixView:
    def test_columns_are_mac_union(self):
        records = synthetic_records(10, num_macs=6, seed=0)
        view = MatrixView(records)
        assert view.num_features == len(set(m for r in records for m in r.readings))

    def test_imputation_value(self):
        records = [make_record({"a": -50.0}), make_record({"b": -60.0})]
        view = MatrixView(records)
        matrix = view.transform(records)
        # Each row has one real value and one imputed -120.
        assert (matrix == -120.0).sum() == 2

    def test_unknown_macs_dropped(self):
        view = MatrixView([make_record({"a": -50.0})])
        row = view.transform_one(make_record({"zz": -40.0, "a": -45.0}))
        np.testing.assert_allclose(row, [-45.0])

    def test_coverage(self):
        view = MatrixView([make_record({"a": -50.0})])
        assert view.coverage(make_record({"a": -50.0, "zz": -60.0})) == 0.5
        assert view.coverage(make_record({"zz": -60.0})) == 0.0

    def test_scaling_into_unit_interval(self):
        records = [make_record({"a": -50.0, "b": -120.0})]
        view = MatrixView(records, scale=True)
        row = view.transform_one(records[0])
        assert ((row >= 0) & (row <= 1)).all()
        assert row[view.macs.index("b")] == 0.0

    def test_explicit_universe(self):
        view = MatrixView(macs=["m1", "m2", "m3"])
        assert view.num_features == 3

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            MatrixView(macs=[])

    def test_needs_records_or_macs(self):
        with pytest.raises(ValueError):
            MatrixView()

    def test_transform_empty_list(self):
        view = MatrixView(macs=["a"])
        assert view.transform([]).shape == (0, 1)


class TestGraphSAGE:
    def test_fit_and_embed(self):
        records = synthetic_records(30, num_macs=8, seed=1)
        graph = build_graph(records)
        model = GraphSAGE(GraphSAGEConfig(dim=8, epochs=2, seed=0)).fit(graph)
        emb = model.record_embeddings()
        assert emb.shape == (30, 8)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-6)
        assert len(model.loss_history) > 0

    def test_inductive_readings(self):
        records = synthetic_records(20, num_macs=8, seed=2)
        graph = build_graph(records)
        model = GraphSAGE(GraphSAGEConfig(dim=8, epochs=2, seed=0)).fit(graph)
        embedding = reference.embed_readings(model, dict(records[0].readings))
        assert embedding.shape == (8,)
        assert reference.embed_readings(model, {"unknown": -50.0}) is None

    def test_deterministic(self):
        records = synthetic_records(15, seed=3)
        cfg = GraphSAGEConfig(dim=8, epochs=2, seed=4)
        a = GraphSAGE(cfg).fit(build_graph(records)).record_embeddings()
        b = GraphSAGE(cfg).fit(build_graph(records)).record_embeddings()
        np.testing.assert_allclose(a, b)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            GraphSAGE().fit(build_graph([]))


class TestConvAutoencoder:
    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        x = rng.random((40, 24))
        model = ConvAutoencoder(24, AutoencoderConfig(dim=8, epochs=10, seed=0))
        model.fit(x)
        assert np.mean(model.loss_history[-5:]) < np.mean(model.loss_history[:5])

    def test_embed_shape(self):
        x = np.random.default_rng(1).random((10, 24))
        model = ConvAutoencoder(24, AutoencoderConfig(dim=6, epochs=2, seed=0)).fit(x)
        assert model.embed(x).shape == (10, 6)
        assert model.embed(x[0]).shape == (1, 6)

    def test_wrong_width_rejected(self):
        model = ConvAutoencoder(24, AutoencoderConfig(dim=6, epochs=1, seed=0))
        with pytest.raises(ValueError):
            model.fit(np.zeros((5, 10)))

    def test_empty_fit_rejected(self):
        model = ConvAutoencoder(24, AutoencoderConfig(dim=6, epochs=1, seed=0))
        with pytest.raises(ValueError):
            model.fit(np.zeros((0, 24)))

    def test_requires_four_conv_layers(self):
        with pytest.raises(ValueError, match="four"):
            AutoencoderConfig(channels=(4, 8))


class TestClassicalMDS:
    def test_distance_matrix_properties(self):
        x = np.random.default_rng(0).random((10, 5))
        d = cosine_distance_matrix(x)
        assert d.shape == (10, 10)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)
        np.testing.assert_allclose(d, d.T)
        assert (d >= 0).all()

    def test_recovers_cluster_structure(self):
        rng = np.random.default_rng(1)
        a = rng.random((15, 6)) + np.array([10, 0, 0, 0, 0, 0])
        b = rng.random((15, 6)) + np.array([0, 10, 0, 0, 0, 0])
        mds = ClassicalMDS(dim=2).fit(np.vstack([a, b]))
        emb = mds.embedding_
        within = np.linalg.norm(emb[:15] - emb[:15].mean(0), axis=1).mean()
        between = np.linalg.norm(emb[:15].mean(0) - emb[15:].mean(0))
        assert between > within

    def test_out_of_sample_close_to_in_sample(self):
        rng = np.random.default_rng(2)
        x = rng.random((30, 6))
        mds = ClassicalMDS(dim=3).fit(x)
        # Transforming a training row should land near its fitted position.
        projected = mds.transform(x[:5])
        distance = np.linalg.norm(projected - mds.embedding_[:5], axis=1)
        scale = np.linalg.norm(mds.embedding_, axis=1).mean()
        assert (distance < scale).all()

    def test_pads_when_rank_deficient(self):
        x = np.random.default_rng(3).random((4, 3))
        mds = ClassicalMDS(dim=10).fit(x)
        assert mds.embedding_.shape == (4, 10)

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            ClassicalMDS(dim=2).fit(np.zeros((1, 3)))

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            ClassicalMDS(dim=2).transform(np.zeros((1, 3)))

    def test_distances_to(self):
        train = np.eye(3)
        query = np.eye(3)[:1]
        d = cosine_distances_to(train, query)
        np.testing.assert_allclose(d, [[0.0, 1.0, 1.0]], atol=1e-12)
