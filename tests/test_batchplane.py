"""Unit tests for the batch data plane's serving pieces.

Covers the kernel cache lifecycle (reuse, reuse across refreshes,
``load_state_dict`` invalidation, evict/reload weak-key drop,
reprovision), the fallback matrix reasons, the
``repro_batch_fastpath_total`` metric family, the detector
``score_batch`` contract, and the batched telemetry recorder.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from conftest import synthetic_records
from repro.core import GEM, GEMConfig
from repro.core.protocols import GeofenceDecision
from repro.detection.histogram import HistogramConfig, HistogramDetector
from repro.embedding.bisage import BiSAGEConfig
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import get_component
from repro.serve import GeofenceFleet
from repro.serve.batchplane import BatchPlane, arm_label
from repro.serve.telemetry import FleetTelemetry

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))


def make_gem(**overrides) -> GEM:
    from dataclasses import replace
    return GEM(replace(FAST_CONFIG, **overrides))


def fitted_gem(**overrides) -> GEM:
    return make_gem(**overrides).fit(synthetic_records(40, seed=0))


class TestKernelCache:
    def test_kernel_reused_across_batches_on_stable_state(self):
        gem = fitted_gem()
        plane = BatchPlane()
        stream = synthetic_records(12, seed=5)  # same MAC universe: no rebind
        plane.observe_batch(gem, stream[:6])
        first = plane._kernels[gem][1]
        plane.observe_batch(gem, stream[6:])
        assert plane._kernels[gem][1] is first

    def test_refresh_keeps_kernel_valid(self):
        """refresh() refits only the detector: the embedder, and with it
        the cached kernel, survive, and decisions match the scalar loop."""
        gem = fitted_gem()
        plane = BatchPlane()
        plane.observe_batch(gem, synthetic_records(6, seed=5))
        kernel = plane._kernels[gem][1]
        gem.refresh(synthetic_records(20, seed=6))
        reference = copy.deepcopy(gem)
        probe = synthetic_records(8, seed=7)
        decisions, outcome = plane.observe_batch(gem, probe)
        assert outcome == "engaged"
        assert plane._kernels[gem][1] is kernel
        assert decisions == [reference.observe(r) for r in probe]

    def test_load_state_dict_invalidates_kernel(self):
        gem = fitted_gem()
        plane = BatchPlane()
        plane.observe_batch(gem, synthetic_records(6, seed=5))
        stale = plane._kernels[gem][1]
        gem.load_state_dict(fitted_gem().state_dict())
        plane.observe_batch(gem, synthetic_records(6, seed=8))
        assert plane._kernels[gem][1] is not stale

    def test_fleet_refresh_keeps_kernel_reprovision_replaces_it(self, tmp_path):
        """Records with never-trained MACs and a refresh leave the
        tenant's kernel cached; a reprovision fits a new model, whose
        kernel is built afresh."""
        fleet = GeofenceFleet(tmp_path / "m", capacity=2, model_factory=make_gem,
                              reservoir_size=16)
        fleet.provision("t", synthetic_records(30, seed=0))
        mixed = synthetic_records(4, seed=9)
        mixed[1].readings["brand-new-mac"] = -70.0
        fleet.observe_many([("t", r) for r in mixed])
        model = fleet._cache["t"]
        kernel = fleet.batchplane._kernels[model][1]
        fleet.refresh("t")
        fleet.observe_many([("t", r) for r in synthetic_records(4, seed=10)])
        assert fleet.batchplane._kernels[model][1] is kernel
        fleet.reprovision("t")
        fleet.observe_many([("t", r) for r in synthetic_records(4, seed=11)])
        fresh = fleet._cache["t"]
        assert fresh is not model
        assert fleet.batchplane._kernels[fresh][1] is not kernel
        fleet.close()

    def test_evict_reload_round_trip_drops_kernel(self, tmp_path):
        fleet = GeofenceFleet(tmp_path / "m", capacity=2, model_factory=make_gem,
                              reservoir_size=16)
        fleet.provision("t", synthetic_records(30, seed=0))
        fleet.observe_many([("t", r) for r in synthetic_records(6, seed=5)])
        assert len(fleet.batchplane._kernels) == 1
        fleet.evict("t")
        assert len(fleet.batchplane._kernels) == 0  # weak key died with the model
        # The reloaded model gets a fresh kernel and identical decisions.
        reloaded_ref = copy.deepcopy(fleet.registry.load("t"))
        probe = synthetic_records(6, seed=11)
        decisions = fleet.observe_many([("t", r) for r in probe])
        assert decisions == [reloaded_ref.observe(r) for r in probe]
        fleet.close()

    def test_reprovision_swaps_model_and_kernel(self, tmp_path):
        fleet = GeofenceFleet(tmp_path / "m", capacity=2, model_factory=make_gem,
                              reservoir_size=16)
        fleet.provision("t", synthetic_records(30, seed=0))
        fleet.observe_many([("t", r) for r in synthetic_records(6, seed=5)])
        fleet.reprovision("t")
        reference = copy.deepcopy(fleet._cache["t"])
        probe = synthetic_records(6, seed=12)
        decisions = fleet.observe_many([("t", r) for r in probe])
        assert decisions == [reference.observe(r) for r in probe]
        fleet.close()


class TestFallbackMatrix:
    def test_registry_flag_matches_live_capability(self):
        assert get_component("detector", "histogram").supports_batch_score
        assert get_component("model", "gem").supports_batch_score
        for name in ("lof", "iforest", "feature-bagging"):
            assert not get_component("detector", name).supports_batch_score

    def test_arm_label_without_spec_uses_type_name(self):
        assert arm_label(fitted_gem()) == "gem"


class TestFastpathMetrics:
    def test_counter_family_counts_by_arm_and_outcome(self):
        metrics = MetricsRegistry()
        plane = BatchPlane(metrics=metrics)
        gem = fitted_gem()
        plane.observe_batch(gem, synthetic_records(4, seed=5))
        plane.observe_batch(gem, synthetic_records(4, seed=6))
        child = metrics.counter("repro_batch_fastpath_total",
                                labels=("arm", "outcome")).labels(
            arm="gem", outcome="engaged")
        assert child.value == 2.0
        assert plane.engaged_total() == 2
        from repro.obs.export import render_prometheus
        assert "repro_batch_fastpath_total" in render_prometheus(metrics.snapshot())

    def test_fleet_wires_plane_to_telemetry_metrics(self, tmp_path):
        metrics = MetricsRegistry()
        telemetry = FleetTelemetry(metrics=metrics)
        fleet = GeofenceFleet(tmp_path / "m", capacity=2, model_factory=make_gem,
                              telemetry=telemetry, reservoir_size=16)
        fleet.provision("t", synthetic_records(30, seed=0))
        fleet.observe_many([("t", r) for r in synthetic_records(4, seed=5)])
        child = metrics.counter("repro_batch_fastpath_total",
                                labels=("arm", "outcome")).labels(
            arm="gem", outcome="engaged")
        assert child.value == 1.0
        fleet.close()


class TestScoreBatchContract:
    @pytest.mark.parametrize("enhanced", [True, False])
    def test_batch_verdicts_match_scalar_per_row(self, enhanced, rng):
        detector = HistogramDetector(HistogramConfig(enhanced=enhanced))
        detector.fit(rng.normal(size=(200, 6)))
        queries = np.vstack([rng.normal(size=(40, 6)),
                             rng.normal(loc=8.0, size=(10, 6))])
        scores, outliers, confident = detector.score_batch(queries)
        for i, row in enumerate(queries):
            one = row[None, :]
            assert np.float64(scores[i]).tobytes() == \
                np.float64(detector.decision_scores(one)[0]).tobytes()
            assert bool(outliers[i]) == bool(detector.is_outlier(one)[0])
            assert bool(confident[i]) == bool(detector.is_confident_inlier(one)[0])
        assert detector.supports_batch_score()
        if not enhanced:
            assert not confident.any()

    def test_score_batch_requires_fit(self):
        with pytest.raises(RuntimeError, match="not been fitted"):
            HistogramDetector().score_batch(np.zeros((1, 4)))


class TestBatchedTelemetry:
    def test_record_observations_equals_per_decision_recording(self):
        decisions = [
            GeofenceDecision(inside=True, score=0.2, confident=True,
                             buffered=True, updated=False),
            GeofenceDecision(inside=False, score=float("inf")),
            GeofenceDecision(inside=True, score=0.4, confident=True,
                             buffered=True, updated=True),
            GeofenceDecision(inside=False, score=0.99),
        ]
        one = FleetTelemetry()
        many = FleetTelemetry()
        for decision in decisions:
            one.record_observations("t", [decision], seconds=0.25)
        many.record_observations("t", decisions, seconds=1.0)
        assert one.metrics.snapshot() == many.metrics.snapshot()
        assert one.totals() == many.totals()
        many.record_observations("t", [], seconds=5.0)  # no-op
        assert one.metrics.snapshot() == many.metrics.snapshot()
