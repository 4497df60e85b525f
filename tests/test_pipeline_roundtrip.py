"""state_dict round-trip identity for every newly persistable component."""

import numpy as np
import pytest

from conftest import synthetic_records
from repro.baselines.inoa import INOA
from repro.baselines.signature_home import SignatureHome
from repro.core.embedders import (
    AutoencoderEmbedder,
    GraphSAGEEmbedder,
    ImputedMatrixEmbedder,
    MDSEmbedder,
)
from repro.core.gem import EmbeddingGeofencer
from repro.detection.feature_bagging import FeatureBagging
from repro.detection.histogram import HistogramDetector
from repro.detection.iforest import IsolationForest
from repro.detection.lof import LocalOutlierFactor
from repro.detection.threshold import MinMaxNormalizer
from repro.embedding.autoencoder import AutoencoderConfig
from repro.embedding.graphsage import GraphSAGEConfig


def embeddings(n=40, d=6, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


DETECTOR_FACTORIES = {
    "lof": lambda: LocalOutlierFactor(n_neighbors=5),
    "iforest": lambda: IsolationForest(n_trees=15, subsample_size=16, seed=3),
    "feature-bagging": lambda: FeatureBagging(n_estimators=4, n_neighbors=5, seed=3),
    "histogram": lambda: HistogramDetector(),
}


class TestDetectorRoundTrip:
    @pytest.mark.parametrize("name", sorted(DETECTOR_FACTORIES))
    def test_scores_bit_identical(self, name):
        factory = DETECTOR_FACTORIES[name]
        fitted = factory().fit(embeddings())
        restored = factory().load_state_dict(fitted.state_dict())
        queries = embeddings(n=10, seed=9)
        np.testing.assert_array_equal(fitted.decision_scores(queries),
                                      restored.decision_scores(queries))
        np.testing.assert_array_equal(fitted.is_outlier(queries),
                                      restored.is_outlier(queries))

    def test_unfitted_detector_cannot_checkpoint(self):
        for factory in DETECTOR_FACTORIES.values():
            with pytest.raises(RuntimeError, match="fit"):
                factory().state_dict()

    def test_lof_rejects_out_of_range_neighbors(self):
        fitted = DETECTOR_FACTORIES["lof"]().fit(embeddings())
        state = fitted.state_dict()
        state["neighbors"] = state["neighbors"] + 1000
        with pytest.raises(ValueError, match="neighbors"):
            LocalOutlierFactor().load_state_dict(state)

    def test_lof_rejects_truncated_arrays(self):
        fitted = DETECTOR_FACTORIES["lof"]().fit(embeddings())
        for name in ("k_distance", "lrd", "train_scores"):
            state = fitted.state_dict()
            state[name] = state[name][:-3]
            with pytest.raises(ValueError, match=name):
                LocalOutlierFactor().load_state_dict(state)

    def test_iforest_rejects_dangling_children(self):
        fitted = DETECTOR_FACTORIES["iforest"]().fit(embeddings())
        state = fitted.state_dict()
        state["tree_roots"] = state["tree_roots"] + 10_000
        with pytest.raises(ValueError, match="node index"):
            IsolationForest().load_state_dict(state)


class TestNormalizerRoundTrip:
    def test_round_trip(self):
        fitted = MinMaxNormalizer().fit([1.0, 3.0, 9.0])
        restored = MinMaxNormalizer(clip=False).load_state_dict(fitted.state_dict())
        assert (restored.low, restored.high, restored.clip) == (1.0, 9.0, True)
        np.testing.assert_array_equal(fitted.transform([2.0, 11.0]),
                                      restored.transform([2.0, 11.0]))

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError, match="unfitted"):
            MinMaxNormalizer().state_dict()

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="high"):
            MinMaxNormalizer().load_state_dict({"clip": True, "low": 2.0, "high": 1.0})


EMBEDDER_FACTORIES = {
    "graphsage": lambda: GraphSAGEEmbedder(GraphSAGEConfig(dim=8, epochs=1, seed=0)),
    "autoencoder": lambda: AutoencoderEmbedder(AutoencoderConfig(dim=8, epochs=2, seed=0)),
    "mds": lambda: MDSEmbedder(dim=6),
    "imputed-matrix": lambda: ImputedMatrixEmbedder(),
}


class TestEmbedderRoundTrip:
    @pytest.mark.parametrize("name", sorted(EMBEDDER_FACTORIES))
    def test_embeddings_bit_identical(self, name):
        factory = EMBEDDER_FACTORIES[name]
        fitted = factory().fit(synthetic_records(30, seed=0, center=2.0))
        restored = factory().load_state_dict(fitted.state_dict())
        np.testing.assert_array_equal(fitted.training_embeddings(),
                                      restored.training_embeddings())
        for record in synthetic_records(5, seed=9, center=3.0):
            a = fitted.embed(record)
            b = restored.embed(record)
            if a is None:
                assert b is None
            else:
                np.testing.assert_array_equal(a, b)

    def test_unfitted_embedder_cannot_checkpoint(self):
        for factory in EMBEDDER_FACTORIES.values():
            with pytest.raises(RuntimeError, match="fit"):
                factory().state_dict()

    def test_graphsage_config_mismatch_rejected(self):
        fitted = EMBEDDER_FACTORIES["graphsage"]().fit(synthetic_records(20, seed=0))
        other = GraphSAGEEmbedder(GraphSAGEConfig(dim=16, epochs=1, seed=0))
        with pytest.raises(ValueError, match="config"):
            other.load_state_dict(fitted.state_dict())

    def test_mds_dim_mismatch_rejected(self):
        fitted = EMBEDDER_FACTORIES["mds"]().fit(synthetic_records(20, seed=0))
        with pytest.raises(ValueError, match="dim"):
            MDSEmbedder(dim=4).load_state_dict(fitted.state_dict())


class TestBaselineRoundTrip:
    @pytest.mark.parametrize("factory", [SignatureHome, INOA],
                             ids=["signature-home", "inoa"])
    def test_scores_bit_identical(self, factory):
        fitted = factory().fit(synthetic_records(25, seed=0, center=2.0))
        restored = factory().load_state_dict(fitted.state_dict())
        for record in synthetic_records(8, seed=7, center=4.0):
            a, b = fitted.observe(record), restored.observe(record)
            assert a.score == b.score and a.inside == b.inside

    def test_unfitted_rejected(self):
        for factory in (SignatureHome, INOA):
            with pytest.raises(RuntimeError, match="fit"):
                factory().state_dict()


class TestPipelineAtomicRestore:
    def test_bad_detector_state_leaves_pipeline_untouched(self):
        train = synthetic_records(25, seed=0, center=2.0)
        pipeline = EmbeddingGeofencer(ImputedMatrixEmbedder(), HistogramDetector(),
                                      self_update=False).fit(train)
        donor = EmbeddingGeofencer(ImputedMatrixEmbedder(), HistogramDetector(),
                                   self_update=False).fit(
            synthetic_records(25, seed=5, center=5.0))
        state = donor.state_dict()
        state["detector"]["data"] = "not-an-array"
        probe = synthetic_records(4, seed=9, center=2.0)
        before = [pipeline.score(r) for r in probe]
        with pytest.raises((TypeError, ValueError)):
            pipeline.load_state_dict(state)
        # The failed load must not have swapped in the donor's embedder.
        assert [pipeline.score(r) for r in probe] == before

    def test_good_state_round_trips_scores(self):
        train = synthetic_records(25, seed=0, center=2.0)
        pipeline = EmbeddingGeofencer(MDSEmbedder(dim=6), HistogramDetector()).fit(train)
        twin = EmbeddingGeofencer(MDSEmbedder(dim=6), HistogramDetector())
        twin.load_state_dict(pipeline.state_dict())
        for record in synthetic_records(6, seed=3, center=3.0):
            assert twin.observe(record).score == pipeline.observe(record).score
