"""RecordEmbedder adapters: graph plumbing and matrix plumbing."""

import numpy as np
import pytest

from repro.core.embedders import (
    AutoencoderEmbedder,
    BiSAGEEmbedder,
    GraphSAGEEmbedder,
    ImputedMatrixEmbedder,
    MDSEmbedder,
)
from repro.core.records import SignalRecord
from repro.embedding.autoencoder import AutoencoderConfig
from repro.embedding.bisage import BiSAGEConfig
from repro.embedding.graphsage import GraphSAGEConfig

from conftest import synthetic_records

FAST_BISAGE = BiSAGEConfig(dim=8, epochs=1, seed=0)
FAST_SAGE = GraphSAGEConfig(dim=8, epochs=1, seed=0)


class TestGraphEmbedders:
    def test_training_embeddings_shape(self):
        records = synthetic_records(25, seed=0)
        embedder = BiSAGEEmbedder(FAST_BISAGE).fit(records)
        assert embedder.training_embeddings().shape == (25, 8)

    def test_training_embeddings_stable_after_stream(self):
        # Embedding streamed records must not change the reported
        # *training* embeddings count.
        records = synthetic_records(20, seed=0)
        embedder = BiSAGEEmbedder(FAST_BISAGE).fit(records)
        embedder.embed(synthetic_records(1, seed=5)[0])
        assert embedder.training_embeddings().shape == (20, 8)

    def test_no_attach_leaves_graph(self):
        embedder = BiSAGEEmbedder(FAST_BISAGE).fit(synthetic_records(20, seed=0))
        before = embedder.graph.num_records
        embedder.embed(synthetic_records(1, seed=5)[0])
        assert embedder.graph.num_records == before

    @pytest.mark.parametrize("factory", [
        lambda: BiSAGEEmbedder(FAST_BISAGE), lambda: GraphSAGEEmbedder(FAST_SAGE),
    ], ids=["bisage", "graphsage"])
    def test_unknown_macs_return_none_and_stay_unknown(self, factory):
        embedder = factory().fit(synthetic_records(20, seed=0))
        before = embedder.graph.state_dict()
        record = SignalRecord({"unseen-mac": -44.0})
        assert embedder.embed(record) is None
        assert embedder.prepare(record) is None
        known = synthetic_records(1, seed=5)[0]
        mixed = SignalRecord({**known.readings, "unseen-mac": -30.0})
        np.testing.assert_array_equal(embedder.embed(mixed), embedder.embed(known))
        after = embedder.graph.state_dict()
        assert after["mac_names"] == before["mac_names"]
        for key in ("record_indptr", "edge_macs", "edge_weights"):
            np.testing.assert_array_equal(after[key], before[key])

    def test_graphsage_adapter(self):
        embedder = GraphSAGEEmbedder(FAST_SAGE).fit(synthetic_records(20, seed=0))
        assert embedder.training_embeddings().shape == (20, 8)
        out = embedder.embed(synthetic_records(1, seed=6)[0])
        assert out.shape == (8,)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            BiSAGEEmbedder(FAST_BISAGE).embed(SignalRecord({"a": -50.0}))

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            BiSAGEEmbedder(FAST_BISAGE).fit([])


class TestMatrixEmbedders:
    def test_imputed_matrix_identity(self):
        records = synthetic_records(15, seed=0)
        embedder = ImputedMatrixEmbedder().fit(records)
        training = embedder.training_embeddings()
        assert training.shape[0] == 15
        row = embedder.embed(records[0])
        np.testing.assert_allclose(row, training[0])

    def test_imputed_unknown_record_none(self):
        embedder = ImputedMatrixEmbedder().fit(synthetic_records(15, seed=0))
        assert embedder.embed(SignalRecord({"nope": -50.0})) is None

    def test_autoencoder_adapter(self):
        records = synthetic_records(25, num_macs=24, seed=0)
        embedder = AutoencoderEmbedder(AutoencoderConfig(dim=6, epochs=2, seed=0))
        embedder.fit(records)
        assert embedder.training_embeddings().shape == (25, 6)
        assert embedder.embed(records[0]).shape == (6,)

    def test_mds_adapter(self):
        records = synthetic_records(25, seed=0)
        embedder = MDSEmbedder(dim=6).fit(records)
        assert embedder.training_embeddings().shape == (25, 6)
        assert embedder.embed(records[0]).shape == (6,)

    def test_mds_unfitted(self):
        with pytest.raises(RuntimeError):
            MDSEmbedder(dim=4).training_embeddings()
