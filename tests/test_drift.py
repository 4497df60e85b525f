"""Streaming drift harness: streams, metrics, fleet replay, spec block."""

import json

import numpy as np
import pytest

from repro.core.config import GEMConfig
from repro.embedding.bisage import BiSAGEConfig
from repro.eval.drift import DriftHarness, DriftResult, EpochMetrics
from repro.pipeline import ComponentSpec, DriftSpec, PipelineSpec, build_pipeline
from repro.rf.dynamics import APChurn, ChurnShock, DynamicsTimeline
from repro.rf.scenarios import lab_scenario
from repro.serve import GeofenceFleet


SMALL_GEM = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1))


def small_timeline(num_epochs: int = 3, schedules=None, seed: int = 0):
    scenario = lab_scenario(seed=0, lab_aps=2, corridor_aps=2, building_aps=4)
    if schedules is None:
        schedules = [APChurn(rate=0.3)]
    return DynamicsTimeline(scenario, schedules, num_epochs=num_epochs, seed=seed)


def small_harness(**kwargs) -> DriftHarness:
    defaults = dict(seed=0, train_duration_s=60.0, sessions_per_epoch=2,
                    session_duration_s=20.0)
    defaults.update(kwargs)
    timeline = defaults.pop("timeline", None) or small_timeline()
    return DriftHarness(timeline, **defaults)


def small_gem_spec() -> PipelineSpec:
    return PipelineSpec(model=ComponentSpec("gem", SMALL_GEM.to_dict()))


class TestStreams:
    def test_streams_deterministic_and_cached(self):
        one, two = small_harness(), small_harness()
        assert [r.record.readings for r in one.epoch_records(1)] == \
               [r.record.readings for r in two.epoch_records(1)]
        assert one.training_records()[0].readings == two.training_records()[0].readings
        assert one.epoch_records(1) is one.epoch_records(1)

    def test_seed_changes_streams(self):
        one = small_harness(seed=0)
        two = small_harness(seed=1)
        assert [r.record.readings for r in one.epoch_records(0)] != \
               [r.record.readings for r in two.epoch_records(0)]

    def test_sessions_alternate_inside_outside(self):
        harness = small_harness(sessions_per_epoch=4)
        records = harness.epoch_records(0)
        sessions = {item.meta["session"] for item in records}
        assert sessions == {0, 1, 2, 3}
        labels = {item.meta["session"]: item.inside for item in records}
        # Even sessions walk inside regions, odd sessions outside ones
        # (session intent; straddling records may flip individual labels).
        assert labels[0] or labels[2]
        inside_count = sum(1 for item in records if item.inside)
        assert 0 < inside_count < len(records)

    def test_device_gain_applied(self):
        from repro.rf.dynamics import DeviceGainDrift
        timeline = small_timeline(schedules=[DeviceGainDrift(sigma_db=3.0,
                                                             max_gain_db=10.0)])
        harness = small_harness(timeline=timeline)
        assert timeline.world(2).device_gain_db != 0.0
        assert harness.epoch_records(2)  # scans succeed under the offset

    def test_validation(self):
        with pytest.raises(ValueError):
            small_harness(sessions_per_epoch=0)
        with pytest.raises(ValueError):
            small_harness(train_duration_s=0.0)


class TestRun:
    def test_online_run_produces_trajectory(self):
        harness = small_harness()
        result = harness.run(build_pipeline(small_gem_spec()), label="gem")
        assert [m.epoch for m in result.epochs] == [0, 1, 2]
        for m in result.epochs:
            assert m.num_records == len(harness.epoch_records(m.epoch))
            assert 0.0 <= m.fpr <= 1.0 and 0.0 <= m.fnr <= 1.0
            assert m.auc is None or 0.0 <= m.auc <= 1.0
        assert sum(m.updates_buffered for m in result.epochs) > 0
        payload = json.dumps(result.to_dict())
        assert "epochs" in json.loads(payload)

    def test_online_and_static_share_streams_but_diverge_in_state(self):
        harness = small_harness()
        online = harness.run(build_pipeline(small_gem_spec()), online=True)
        static = harness.run(build_pipeline(small_gem_spec()), online=False)
        assert [m.num_records for m in online.epochs] == \
               [m.num_records for m in static.epochs]
        assert all(m.updates_buffered == 0 for m in static.epochs)

    def test_static_requires_score_and_predict(self):
        from repro.eval import make_algorithm
        harness = small_harness()
        with pytest.raises(TypeError, match="static"):
            harness.run(make_algorithm("INOA"), online=False)

    def test_single_class_epoch_has_no_auc(self):
        harness = small_harness(sessions_per_epoch=1)
        result = harness.run(build_pipeline(small_gem_spec()))
        assert all(m.auc is None for m in result.epochs)


class TestFleetReplay:
    def test_fleet_replay_matches_plain_online(self, tmp_path):
        """Evict/reload mid-stream must leave zero metric drift."""
        harness = small_harness()
        spec = small_gem_spec()
        plain = harness.run(build_pipeline(spec), label="plain", online=True)
        with GeofenceFleet(tmp_path / "registry", capacity=1) as fleet:
            fleet.provision("tenant-a", harness.training_records(), spec=spec)
            via_fleet = harness.run_fleet(fleet, "tenant-a")
            loads = fleet.telemetry.totals().loads
        assert [m.to_dict() for m in via_fleet.epochs] == \
               [m.to_dict() for m in plain.epochs]
        # The equivalence is only meaningful if reloads actually happened.
        assert loads >= harness.timeline.num_epochs

    def test_noop_controller_matches_plain_online_bit_for_bit(self, tmp_path):
        """A controller under the no-op policy must be pure observation."""
        from repro.serve import FleetController
        harness = small_harness()
        spec = small_gem_spec()
        plain = harness.run(build_pipeline(spec), label="plain", online=True)
        with GeofenceFleet(tmp_path / "registry", capacity=1) as fleet:
            fleet.provision("tenant-a", harness.training_records(), spec=spec)
            controller = FleetController(fleet)
            controlled = harness.run_fleet(fleet, "tenant-a",
                                           controller=controller)
        assert [m.to_dict() for m in controlled.epochs] == \
               [m.to_dict() for m in plain.epochs]
        assert controller.actions == []
        assert controlled.meta["maintenance"] == {}
        # The control plane still saw every decision go by.
        assert controller.state("tenant-a").observations == \
            sum(m.num_records for m in plain.epochs)

    def test_refresh_policy_executes_and_is_recorded(self, tmp_path):
        """A scheduled-refresh controller acts mid-replay and survives the
        forced evict/reload cycle (the reservoir rides the checkpoint)."""
        from repro.serve import FleetController, MaintenancePolicy
        harness = small_harness()
        spec = small_gem_spec()
        per_epoch = len(harness.epoch_records(0))
        policy = MaintenancePolicy(check_every=max(per_epoch // 2, 1),
                                   refresh_every=per_epoch)
        with GeofenceFleet(tmp_path / "registry", capacity=1,
                           reservoir_size=64) as fleet:
            fleet.provision("tenant-a", harness.training_records(), spec=spec)
            controller = FleetController(fleet, policy)
            result = harness.run_fleet(fleet, "tenant-a", controller=controller)
            refreshes = fleet.telemetry.totals().refreshes
        assert refreshes >= harness.timeline.num_epochs - 1
        recorded = [a for acts in result.meta["maintenance"].values() for a in acts]
        assert recorded.count("refresh") == refreshes
        for m in result.epochs:
            assert m.auc is None or 0.0 <= m.auc <= 1.0


class TestRecovery:
    @staticmethod
    def result(aucs, label="x"):
        epochs = [EpochMetrics(epoch=i, num_records=10, auc=auc, fpr=0.0, fnr=0.0,
                               updates_buffered=0, updates_applied=0, unembeddable=0)
                  for i, auc in enumerate(aucs)]
        return DriftResult(label=label, epochs=epochs)

    def test_never_dipped_returns_zero(self):
        assert self.result([0.9, 0.9, 0.9, 0.89, 0.9]).recovery_after(2) == 0

    def test_dip_and_recover(self):
        r = self.result([0.95, 0.95, 0.95, 0.6, 0.7, 0.94, 0.95])
        assert r.recovery_after(3) == 2

    def test_never_recovers(self):
        assert self.result([0.95, 0.95, 0.6, 0.6, 0.6]).recovery_after(2) is None

    def test_no_pre_shock_baseline(self):
        assert self.result([0.6, 0.6]).recovery_after(0) is None
        assert self.result([None, None, 0.9]).recovery_after(2) is None


class TestDriftSpecBlock:
    def drift(self) -> DriftSpec:
        return DriftSpec(num_epochs=4, seed=3, schedules=(
            ComponentSpec("ap-churn", {"rate": 0.2, "protect": [1]}),
            ComponentSpec("churn-shock", {"epoch": 2, "fraction": 0.5}),
        ))

    def test_round_trip(self):
        drift = self.drift()
        assert DriftSpec.from_dict(json.loads(json.dumps(drift.to_dict()))) == drift

    def test_validate_rejects_unknown_schedule(self):
        with pytest.raises(ValueError, match="unknown dynamics schedule"):
            PipelineSpec(model=ComponentSpec("gem"), drift=DriftSpec(
                schedules=(ComponentSpec("warp-field"),))).validate()

    def test_validate_rejects_bad_params(self):
        with pytest.raises(ValueError, match="accepted"):
            PipelineSpec(model=ComponentSpec("gem"), drift=DriftSpec(
                schedules=(ComponentSpec("ap-churn", {"pace": 1}),))).validate()

    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            DriftSpec(num_epochs=0)

    def test_build_timeline(self):
        scenario = lab_scenario(seed=0, lab_aps=2, corridor_aps=2, building_aps=4)
        timeline = self.drift().build_timeline(scenario)
        assert timeline.num_epochs == 4
        assert timeline.seed == 3
        assert len(timeline.schedules) == 2

    def test_pipeline_spec_carries_drift(self):
        spec = PipelineSpec(model=ComponentSpec("gem"), drift=self.drift())
        spec.validate()
        back = PipelineSpec.from_json(spec.to_json())
        assert back == spec
        assert back.drift.num_epochs == 4

    def test_pipeline_spec_without_drift_unchanged(self):
        spec = PipelineSpec(model=ComponentSpec("gem"))
        assert "drift" not in spec.to_dict()
        assert PipelineSpec.from_json(spec.to_json()) == spec

    def test_drift_from_plain_mapping(self):
        spec = PipelineSpec(model=ComponentSpec("gem"),
                            drift={"num_epochs": 2, "seed": 0, "schedules": []})
        assert isinstance(spec.drift, DriftSpec)

    def test_build_pipeline_ignores_drift(self):
        spec = PipelineSpec(model=ComponentSpec("gem", SMALL_GEM.to_dict()),
                            drift=self.drift())
        pipeline = build_pipeline(spec)
        assert pipeline.spec is spec
