"""Spec-embedded checkpoints: any arm round-trips; fleets serve mixed arms.

Covers the acceptance bar of the declarative-pipeline redesign: every
``ALGORITHM_NAMES`` arm builds from a spec, survives save -> load ->
serve with bit-identical decision scores, mixed-arm fleets evict and
reload heterogeneous tenants without drift, and PR-1-format (version 1)
GEM checkpoints still load through the manifest migration.
"""

import json
import warnings

import numpy as np
import pytest

from conftest import synthetic_records
from repro.core.config import GEMConfig
from repro.core.gem import GEM
from repro.embedding.bisage import BiSAGEConfig
from repro.eval.algorithms import ALGORITHM_NAMES, arm_spec
from repro.pipeline import ComponentSpec, PipelineSpec, build_pipeline
from repro.serve import (
    CHECKPOINT_VERSION,
    CheckpointError,
    GeofenceFleet,
    ModelRegistry,
    load_checkpoint,
    load_checkpoint_with_manifest,
    read_manifest,
    save_checkpoint,
    spec_from_manifest,
)
from repro.serve.checkpoint import MANIFEST_NAME

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1))

TRAIN = synthetic_records(35, seed=0, center=2.0)
PROBE = synthetic_records(8, seed=9, center=3.5)


def fast_arm_spec(name: str):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return arm_spec(name, seed=0, dim=8, gem_config=FAST_CONFIG, strict=False)


def scores_of(model, records=PROBE):
    return [model.observe(record).score for record in records]


class TestEveryArmRoundTrips:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_save_load_serve_bit_identical(self, name, tmp_path):
        spec = fast_arm_spec(name)
        model = build_pipeline(spec).fit(TRAIN)
        save_checkpoint(model, tmp_path / "ckpt")
        loaded, manifest = load_checkpoint_with_manifest(tmp_path / "ckpt")
        assert manifest["format_version"] == CHECKPOINT_VERSION
        assert PipelineSpec.from_dict(manifest["pipeline_spec"]) == spec
        assert loaded.spec == spec
        # Observing mutates both models identically, so stepwise equality
        # proves the restored state matches, not just the first score.
        original = scores_of(model)
        restored = scores_of(loaded)
        for a, b in zip(original, restored):
            assert a == b or (np.isinf(a) and np.isinf(b))


class TestMixedFleet:
    ARMS = ("GEM", "BiSAGE+LOF", "GEM(no-BiSAGE)")

    def provision(self, root, capacity):
        fleet = GeofenceFleet(ModelRegistry(root), capacity=capacity)
        for i, arm in enumerate(self.ARMS):
            fleet.provision(f"tenant-{i}", synthetic_records(30, seed=i, center=float(i)),
                            spec=fast_arm_spec(arm))
        return fleet

    def test_each_tenant_serves_its_own_arm(self, tmp_path):
        fleet = self.provision(tmp_path, capacity=len(self.ARMS))
        assert isinstance(fleet.resident("tenant-0"), GEM)
        assert fleet.resident("tenant-1").spec.detector.name == "lof"
        assert fleet.resident("tenant-2").spec.embedder.name == "imputed-matrix"

    def test_eviction_churn_matches_all_resident(self, tmp_path):
        stream = [(f"tenant-{i}", record)
                  for record in synthetic_records(12, seed=77, center=1.0)
                  for i in range(len(self.ARMS))]
        with self.provision(tmp_path / "roomy", capacity=3) as roomy, \
                self.provision(tmp_path / "tight", capacity=1) as tight:
            expected = roomy.observe_many(stream)
            churned = tight.observe_many(stream)
            assert tight.telemetry.totals().evictions > 0
        for a, b in zip(expected, churned):
            assert a.inside == b.inside
            assert a.score == b.score or (np.isinf(a.score) and np.isinf(b.score))

    def test_evict_then_reload_restores_arm(self, tmp_path):
        fleet = self.provision(tmp_path, capacity=len(self.ARMS))
        assert fleet.evict("tenant-1")
        assert "tenant-1" not in fleet.resident_tenants
        decision = fleet.observe("tenant-1", PROBE[0])
        assert fleet.resident("tenant-1").spec.detector.name == "lof"
        assert decision.score == fleet.resident("tenant-1").score(PROBE[0])


class TestFormatMigration:
    def make_v1_checkpoint(self, tmp_path):
        """Rewrite a fresh checkpoint into the format-1 shape (no spec)."""
        model = GEM(FAST_CONFIG).fit(TRAIN)
        directory = save_checkpoint(model, tmp_path / "legacy")
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        del manifest["pipeline_spec"]
        manifest_path.write_text(json.dumps(manifest))
        return model, directory

    def test_v1_gem_checkpoint_is_refused(self, tmp_path):
        """Format 1 is no longer read: loading names the version."""
        _, directory = self.make_v1_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="format version 1 is not supported"):
            load_checkpoint(directory)
        with pytest.raises(CheckpointError, match="format version 1"):
            read_manifest(directory)

    def test_v1_non_gem_rejected(self, tmp_path):
        _, directory = self.make_v1_checkpoint(tmp_path)
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["model_class"] = "Mystery"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format version 1"):
            load_checkpoint(directory)

    def test_future_version_rejected(self, tmp_path):
        from repro.serve.checkpoint import SUPPORTED_VERSIONS
        _, directory = self.make_v1_checkpoint(tmp_path)
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = max(SUPPORTED_VERSIONS) + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(directory)

    def test_bad_embedded_spec_is_a_checkpoint_error(self):
        with pytest.raises(CheckpointError, match="pipeline_spec"):
            spec_from_manifest({"format_version": 2, "pipeline_spec": {"bogus": 1}})

    def test_corrupt_v1_config_is_a_checkpoint_error(self):
        # A manifest without a spec (format 1's shape) must surface as a
        # CheckpointError (the documented contract), not a raw KeyError.
        manifest = {"format_version": 1, "model_class": "GEM"}
        with pytest.raises(CheckpointError, match="no pipeline_spec"):
            spec_from_manifest(manifest)


class TestSaveRequiresSpec:
    def test_unspecced_composite_pipeline_rejected(self, tmp_path):
        from repro.core.embedders import ImputedMatrixEmbedder
        from repro.core.gem import EmbeddingGeofencer
        from repro.detection.histogram import HistogramDetector
        pipeline = EmbeddingGeofencer(ImputedMatrixEmbedder(), HistogramDetector()).fit(TRAIN)
        pipeline.spec = None
        with pytest.raises(TypeError, match="build_pipeline"):
            save_checkpoint(pipeline, tmp_path / "nope")

    def test_explicit_spec_argument_wins(self, tmp_path):
        spec = fast_arm_spec("GEM(no-BiSAGE)")
        pipeline = build_pipeline(spec).fit(TRAIN)
        pipeline.spec = None
        save_checkpoint(pipeline, tmp_path / "ckpt", spec=spec)
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.spec == spec
