"""GEM pipeline: fit, Algorithm 2 streaming, self-update, edge cases."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    GEM,
    EmbeddingGeofencer,
    GEMConfig,
    GeofenceDecision,
    ImputedMatrixEmbedder,
    SignalRecord,
)
from repro.detection import HistogramConfig, HistogramDetector
from repro.embedding.bisage import BiSAGEConfig
from repro.serve import GeofenceFleet
from repro.serve.checkpoint import flatten_state

from conftest import synthetic_records

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=2, seed=0))


@pytest.fixture(scope="module")
def fitted_gem():
    gem = GEM(FAST_CONFIG)
    gem.fit(synthetic_records(50, num_macs=10, seed=0, center=2.0))
    return gem


class TestConfig:
    def test_defaults(self):
        config = GEMConfig()
        assert config.weight_offset == 120.0
        assert config.self_update
        assert config.batch_update_size == 1

    def test_with_helpers(self):
        config = GEMConfig()
        assert config.with_dim(16).bisage.dim == 16
        assert config.with_temperature(0.05).histogram.temperature == 0.05
        assert config.with_bins(7).histogram.num_bins == 7

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            GEMConfig(batch_update_size=0)


class TestFit:
    def test_fit_builds_graph_and_detector(self, fitted_gem):
        assert fitted_gem.graph.num_records >= 50
        assert fitted_gem.embedder.model is not None
        assert fitted_gem.detector.num_samples == 50

    def test_fit_empty_rejected(self):
        with pytest.raises(ValueError):
            GEM(FAST_CONFIG).fit([])

    def test_observe_before_fit(self):
        gem = GEM(FAST_CONFIG)
        with pytest.raises(RuntimeError):
            gem.observe(SignalRecord({"mac00": -50.0}))


class TestObserve:
    def test_inlier_accepted(self, fitted_gem):
        record = synthetic_records(1, num_macs=10, seed=99, center=2.0)[0]
        decision = fitted_gem.observe(record)
        assert isinstance(decision, GeofenceDecision)
        assert decision.inside
        assert math.isfinite(decision.score)

    def test_far_outlier_rejected(self, fitted_gem):
        # A record whose pattern differs strongly from training.
        record = SignalRecord({f"mac{m:02d}": -90.0 for m in range(3)})
        decision = fitted_gem.observe(record)
        assert not decision.inside

    def test_empty_record_is_out(self, fitted_gem):
        decision = fitted_gem.observe(SignalRecord({}))
        assert not decision.inside
        assert decision.score == math.inf

    def test_all_unknown_macs_is_out(self, fitted_gem):
        decision = fitted_gem.observe(SignalRecord({"totally-new": -40.0}))
        assert not decision.inside
        assert decision.score == math.inf

    def test_observe_leaves_embedder_state_as_fit_left_it(self):
        """2k observed records — scalar and batch paths, MACs the
        training set never heard included — leave the graph and every
        embedder array exactly as ``fit`` left them."""
        gem = GEM(FAST_CONFIG)
        gem.fit(synthetic_records(30, seed=1))
        records, edges = gem.graph.num_records, gem.graph.num_edges
        fitted_arrays, fitted_leaves = flatten_state(gem.state_dict())
        stream = synthetic_records(2000, num_macs=12, seed=2, center=1.0)
        for record in stream[:1000]:
            gem.observe(record)
        gem.observe_many(stream[1000:])
        assert gem.detector.num_updates > 0
        assert (gem.graph.num_records, gem.graph.num_edges) == (records, edges)
        arrays, leaves = flatten_state(gem.state_dict())
        embedder_keys = [key for key in fitted_arrays if key.startswith("embedder/")]
        assert any("/cache_" in key for key in embedder_keys)
        for key in embedder_keys:
            np.testing.assert_array_equal(arrays[key], fitted_arrays[key], err_msg=key)
        assert ({k: v for k, v in leaves.items() if k.startswith("embedder/")}
                == {k: v for k, v in fitted_leaves.items() if k.startswith("embedder/")})

    def test_post_training_macs_stay_unembeddable_on_every_sighting(self, tmp_path):
        """Footnote 3 on every sighting: a record that senses only MACs
        first heard after training is out with score +inf however often
        it is observed, and the fleet counts each sighting unembeddable."""
        record = SignalRecord({"late-ap-1": -50.0, "late-ap-2": -61.0})
        out = GeofenceDecision(inside=False, score=math.inf)
        gem = GEM(FAST_CONFIG).fit(synthetic_records(30, seed=1))
        assert [gem.observe(record), gem.observe(record)] == [out, out]
        assert gem.observe_many([record, record]) == [out, out]
        with GeofenceFleet(tmp_path / "m", model_factory=lambda: GEM(FAST_CONFIG)) as fleet:
            fleet.provision("t", synthetic_records(30, seed=1))
            assert [fleet.observe("t", record), fleet.observe("t", record)] == [out, out]
            assert fleet.observe_many([("t", record), ("t", record)]) == [out, out]
            assert fleet.telemetry.totals().unembeddable == 4

    def test_rss_range_checked_for_unknown_macs(self):
        """Every reading is validated, the MACs outside the training graph
        included, on the scalar and the batch path alike."""
        gem = GEM(FAST_CONFIG).fit(synthetic_records(30, seed=1))
        known = synthetic_records(1, seed=2)[0]
        record = SignalRecord({**known.readings, "unseen-mac": -130.0})
        before = flatten_state(gem.state_dict())[0]
        with pytest.raises(ValueError, match="non-positive weight"):
            gem.observe(record)
        with pytest.raises(ValueError, match="non-positive weight"):
            gem.observe_many([known, record])
        after = flatten_state(gem.state_dict())[0]
        for key, value in before.items():
            np.testing.assert_array_equal(after[key], value, err_msg=key)

    def test_predict_does_not_attach(self):
        gem = GEM(FAST_CONFIG)
        gem.fit(synthetic_records(30, seed=1))
        before = gem.graph.num_records
        gem.predict(synthetic_records(1, seed=2)[0])
        assert gem.graph.num_records == before

    def test_score_matches_detector_scale(self, fitted_gem):
        record = synthetic_records(1, num_macs=10, seed=50, center=2.0)[0]
        score = fitted_gem.score(record)
        assert 0.0 <= score <= 1.0

    def test_observe_stream(self):
        gem = GEM(FAST_CONFIG)
        gem.fit(synthetic_records(30, seed=1))
        stream = synthetic_records(5, seed=3)
        decisions = gem.observe_many(stream)
        gem.flush_updates()
        assert len(decisions) == 5


class TestSelfUpdate:
    def test_confident_inliers_update_model(self):
        gem = GEM(FAST_CONFIG)
        gem.fit(synthetic_records(50, seed=0, center=2.0))
        before = gem.detector.num_samples
        updated = sum(gem.observe(r).updated
                      for r in synthetic_records(30, seed=7, center=2.0))
        assert updated > 0
        assert gem.detector.num_samples > before

    def test_update_disabled(self):
        config = replace(FAST_CONFIG, self_update=False)
        gem = GEM(config)
        gem.fit(synthetic_records(50, seed=0, center=2.0))
        before = gem.detector.num_samples
        for record in synthetic_records(20, seed=7, center=2.0):
            assert not gem.observe(record).updated
        assert gem.detector.num_samples == before

    def test_batch_update_buffers(self):
        config = replace(FAST_CONFIG, batch_update_size=10)
        gem = GEM(config)
        gem.fit(synthetic_records(50, seed=0, center=2.0))
        base = gem.detector.num_samples
        absorbed_early = False
        for record in synthetic_records(9, seed=7, center=2.0):
            gem.observe(record)
        # Fewer than batch_update_size confident samples: nothing flushed
        # unless the buffer filled exactly.
        buffered = len(gem._update_buffer)
        assert gem.detector.num_samples + buffered >= base
        flushed = gem.flush_updates()
        assert flushed == buffered
        assert gem.detector.num_samples == base + flushed

    def test_flush_empty_buffer(self, fitted_gem):
        fitted_gem.flush_updates()
        assert fitted_gem.flush_updates() == 0

    def test_buffered_vs_updated_semantics(self):
        """With batching, ``buffered`` marks entry into the buffer and
        ``updated`` only fires on the observation whose flush applies it."""
        config = replace(FAST_CONFIG, batch_update_size=3)
        gem = GEM(config)
        gem.fit(synthetic_records(50, seed=0, center=2.0))
        base = gem.detector.num_samples
        buffered_decisions = [d for d in (gem.observe(r) for r in
                                          synthetic_records(30, seed=7, center=2.0))
                              if d.buffered]
        assert buffered_decisions, "stream produced no confident inliers"
        for decision in buffered_decisions:
            if decision.updated:
                # An applied update implies the sample was buffered first.
                assert decision.buffered
        # Exactly one in every batch_update_size buffered samples applies.
        applied = sum(d.updated for d in buffered_decisions)
        assert applied == len(buffered_decisions) // 3
        assert gem.detector.num_samples == base + 3 * applied
        assert gem.pending_updates == len(buffered_decisions) - 3 * applied

    def test_single_batch_buffered_equals_updated(self):
        gem = GEM(FAST_CONFIG)  # batch_update_size == 1
        gem.fit(synthetic_records(50, seed=0, center=2.0))
        for record in synthetic_records(20, seed=7, center=2.0):
            decision = gem.observe(record)
            assert decision.buffered == decision.updated

    def test_observe_stream_flushes_partial_buffer(self):
        """Regression: a stream ending mid-batch must not drop updates."""
        config = replace(FAST_CONFIG, batch_update_size=100)
        gem = GEM(config)
        gem.fit(synthetic_records(50, seed=0, center=2.0))
        base = gem.detector.num_samples
        stream = synthetic_records(20, seed=7, center=2.0)
        decisions = gem.observe_many(stream)
        buffered = sum(d.buffered for d in decisions)
        assert buffered > 0
        # flush_updates applies the leftovers at stream end.
        assert gem.flush_updates() == buffered
        assert gem.pending_updates == 0
        assert gem.detector.num_samples == base + buffered

    def test_observe_stream_flush_opt_out(self):
        config = replace(FAST_CONFIG, batch_update_size=100)
        gem = GEM(config)
        gem.fit(synthetic_records(50, seed=0, center=2.0))
        base = gem.detector.num_samples
        decisions = gem.observe_many(synthetic_records(20, seed=7, center=2.0))
        buffered = sum(d.buffered for d in decisions)
        assert buffered > 0
        assert gem.pending_updates == buffered
        assert gem.detector.num_samples == base


class TestComposedPipelines:
    def test_matrix_embedder_pipeline(self):
        pipeline = EmbeddingGeofencer(ImputedMatrixEmbedder(),
                                      HistogramDetector(HistogramConfig()))
        pipeline.fit(synthetic_records(40, seed=0, center=2.0))
        decision = pipeline.observe(synthetic_records(1, seed=9, center=2.0)[0])
        assert isinstance(decision.inside, bool)

    def test_detector_without_update_support(self):
        from repro.detection import LocalOutlierFactor
        from repro.core.embedders import BiSAGEEmbedder

        pipeline = EmbeddingGeofencer(
            BiSAGEEmbedder(BiSAGEConfig(dim=8, epochs=1, seed=0)),
            LocalOutlierFactor(n_neighbors=5),
            self_update=True)
        pipeline.fit(synthetic_records(30, seed=0))
        decision = pipeline.observe(synthetic_records(1, seed=4)[0])
        # LOF has no update(); decision must not claim an update happened.
        assert not decision.updated

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            EmbeddingGeofencer(ImputedMatrixEmbedder(), HistogramDetector(),
                               batch_update_size=0)

    def test_detector_without_score_batch_rejected(self):
        class ScalarOnly:
            def decision_scores(self, embeddings):
                return np.zeros(len(embeddings))

        with pytest.raises(TypeError, match="row_wise_score_batch"):
            EmbeddingGeofencer(ImputedMatrixEmbedder(), ScalarOnly())
