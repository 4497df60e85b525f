"""Registry + declarative spec API: round trips, validation, arm specs."""

import json

import pytest

from conftest import synthetic_records
from repro.baselines.inoa import INOA
from repro.baselines.signature_home import SignatureHome
from repro.core.config import GEMConfig
from repro.core.gem import GEM, EmbeddingGeofencer
from repro.detection.batch import row_wise_score_batch
from repro.detection.lof import LocalOutlierFactor
from repro.embedding.bisage import BiSAGEConfig
from repro.eval.algorithms import ALGORITHM_NAMES, ALGORITHM_SPECS, arm_spec, make_algorithm
from repro.pipeline import (
    ComponentSpec,
    PipelineSpec,
    UnknownComponentError,
    build_pipeline,
    get_component,
    infer_spec,
    known_components,
    register_component,
)
from repro.pipeline.registry import _REGISTRY

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1))


class TestComponentSpec:
    def test_params_normalised_to_json_types(self):
        spec = ComponentSpec("autoencoder", {"channels": (8, 16, 16, 8)})
        assert spec.params["channels"] == [8, 16, 16, 8]

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ComponentSpec("")

    def test_from_dict_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            ComponentSpec.from_dict({"name": "lof", "prams": {}})

    def test_unknown_name_lists_known_components(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            ComponentSpec("lofi").resolve("detector")
        message = str(excinfo.value)
        assert "lofi" in message
        for name in ("histogram", "iforest", "lof", "feature-bagging"):
            assert name in message

    def test_unknown_param_lists_accepted(self):
        with pytest.raises(ValueError, match="accepted parameters"):
            ComponentSpec("lof", {"seed": 3}).resolve("detector")


class TestPipelineSpec:
    def test_needs_model_or_both_components(self):
        with pytest.raises(ValueError, match="BOTH"):
            PipelineSpec(embedder=ComponentSpec("bisage"))
        with pytest.raises(ValueError, match="BOTH"):
            PipelineSpec(detector=ComponentSpec("lof"))

    def test_model_excludes_components(self):
        with pytest.raises(ValueError, match="cannot also"):
            PipelineSpec(model=ComponentSpec("gem"), detector=ComponentSpec("lof"))

    def test_model_spec_rejects_pipeline_update_knobs(self):
        # These knobs would be silently dropped by to_dict; the model's
        # own params are the supported place for them.
        with pytest.raises(ValueError, match="model's params"):
            PipelineSpec(model=ComponentSpec("gem"), self_update=False)
        with pytest.raises(ValueError, match="model's params"):
            PipelineSpec(model=ComponentSpec("gem"), batch_update_size=5)
        gem = build_pipeline(PipelineSpec(model=ComponentSpec(
            "gem", {"self_update": False, "batch_update_size": 5})))
        assert gem.self_update is False and gem.batch_update_size == 5

    def test_self_update_needs_updatable_detector(self):
        spec = PipelineSpec(embedder=ComponentSpec("bisage"),
                            detector=ComponentSpec("lof"))
        with pytest.raises(ValueError, match="self_update"):
            spec.validate()

    def test_unsupported_spec_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            PipelineSpec.from_dict({"spec_version": 99,
                                    "model": {"name": "gem", "params": {}}})

    def test_from_dict_rejects_stringly_typed_self_update(self):
        with pytest.raises(ValueError, match="boolean"):
            PipelineSpec.from_dict({"embedder": {"name": "bisage"},
                                    "detector": {"name": "histogram"},
                                    "self_update": "false"})

    def test_from_dict_rejects_stringly_typed_batch_size(self):
        with pytest.raises(ValueError, match="integer"):
            PipelineSpec.from_dict({"embedder": {"name": "bisage"},
                                    "detector": {"name": "histogram"},
                                    "batch_update_size": "3"})

    def test_require_state_dict_rejects_non_persistable_component(self):
        register_component("detector", "volatile-toy", LocalOutlierFactor, (),
                           supports_state_dict=False)
        try:
            spec = PipelineSpec(embedder=ComponentSpec("imputed-matrix"),
                                detector=ComponentSpec("volatile-toy"),
                                self_update=False)
            spec.validate()  # buildable for in-memory use...
            with pytest.raises(ValueError, match="supports_state_dict"):
                spec.require_state_dict()  # ...but not servable
        finally:
            _REGISTRY.pop(("detector", "volatile-toy"), None)

    def test_json_round_trip_composite(self):
        spec = PipelineSpec(embedder=ComponentSpec("bisage", {"dim": 16}),
                            detector=ComponentSpec("histogram"),
                            self_update=True, batch_update_size=4)
        assert PipelineSpec.from_json(spec.to_json()) == spec

    def test_describe(self):
        assert ALGORITHM_SPECS["GEM"].describe() == "model gem"
        assert "lof" in ALGORITHM_SPECS["BiSAGE+LOF"].describe()


class TestArmSpecs:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_every_arm_has_a_valid_default_spec(self, name):
        spec = ALGORITHM_SPECS[name]
        spec.validate()

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_spec_json_round_trip_per_arm(self, name):
        spec = arm_spec(name, gem_config=FAST_CONFIG)
        rebuilt = PipelineSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_seedless_arm_rejects_explicit_seed(self):
        with pytest.raises(ValueError, match="seed"):
            arm_spec("MDS+OD", seed=7)

    def test_dimless_arm_rejects_explicit_dim(self):
        with pytest.raises(ValueError, match="dim"):
            arm_spec("GEM(no-BiSAGE)", dim=16)

    def test_shim_warns_instead_of_raising(self):
        with pytest.warns(UserWarning, match="seed"):
            model = make_algorithm("MDS+OD", seed=7)
        assert isinstance(model, EmbeddingGeofencer)

    def test_seeded_arm_consumes_seed_silently(self):
        spec = arm_spec("BiSAGE+LOF", seed=7)
        assert spec.embedder.params["seed"] == 7

    def test_unknown_arm_raises(self):
        with pytest.raises(ValueError, match="MagicNet"):
            arm_spec("MagicNet")

    def test_make_algorithm_types(self):
        assert isinstance(make_algorithm("GEM"), GEM)
        assert isinstance(make_algorithm("SignatureHome"), SignatureHome)
        assert isinstance(make_algorithm("INOA"), INOA)
        assert isinstance(make_algorithm("BiSAGE+LOF"), EmbeddingGeofencer)


class TestBuild:
    def test_build_stamps_spec(self):
        spec = arm_spec("BiSAGE+LOF", gem_config=FAST_CONFIG)
        pipeline = build_pipeline(spec)
        assert pipeline.spec == spec
        assert isinstance(pipeline.detector, LocalOutlierFactor)

    def test_built_arm_matches_paper_wiring(self):
        gem = build_pipeline(arm_spec("GEM", gem_config=FAST_CONFIG))
        assert gem.config.bisage.dim == 32  # arm default dim overrides FAST's 8
        plain = build_pipeline(arm_spec("GEM(plain-HBOS)", gem_config=FAST_CONFIG))
        assert plain.detector.config.enhanced is False
        assert plain.self_update is False

    def test_infer_spec_for_builtins(self):
        assert infer_spec(GEM(FAST_CONFIG)).model.name == "gem"
        assert infer_spec(SignatureHome()).model.name == "signature-home"
        assert infer_spec(INOA()).model.name == "inoa"

    def test_infer_spec_rejects_unknown_models(self):
        with pytest.raises(TypeError, match="PipelineSpec"):
            infer_spec(object())

    def test_infer_spec_prefers_stamped_spec(self):
        spec = arm_spec("GEM", gem_config=FAST_CONFIG)
        assert infer_spec(build_pipeline(spec)) == spec


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_component("detector", "lof", LocalOutlierFactor, ())

    def test_known_components_filter(self):
        names = {entry.name for entry in known_components("detector")}
        assert names == {"histogram", "lof", "iforest", "feature-bagging"}

    def test_capabilities_declared(self):
        assert get_component("detector", "histogram").supports_update
        assert not get_component("detector", "lof").supports_update
        assert get_component("embedder", "bisage").supports_state_dict

    def test_custom_component_builds_and_serves_specs(self):
        class MeanDetector:
            """Toy detector: distance from the training mean."""

            threshold_ = 1e9

            def __init__(self, scale=1.0):
                self.scale = scale
                self._mean = None

            def fit(self, embeddings):
                self._mean = embeddings.mean(axis=0)
                return self

            def decision_scores(self, embeddings):
                return self.scale * ((embeddings - self._mean) ** 2).sum(axis=1)

            def is_outlier(self, embeddings):
                return self.decision_scores(embeddings) > self.threshold_

            score_batch = row_wise_score_batch

        register_component("detector", "mean-toy", MeanDetector, ("scale",),
                           description="test-only")
        try:
            spec = PipelineSpec(embedder=ComponentSpec("imputed-matrix"),
                                detector=ComponentSpec("mean-toy", {"scale": 2.0}),
                                self_update=False)
            pipeline = build_pipeline(spec)
            pipeline.fit(synthetic_records(12, seed=1))
            assert pipeline.detector.scale == 2.0
            record = synthetic_records(1, seed=2)[0]
            assert pipeline.observe(record).score >= 0.0
        finally:
            _REGISTRY.pop(("detector", "mean-toy"), None)
