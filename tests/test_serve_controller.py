"""Control plane: MaintenancePolicy, FleetController, coordinated refresh."""

import json

import numpy as np
import pytest

from conftest import synthetic_records
from repro.core.config import GEMConfig
from repro.core.protocols import GeofenceDecision
from repro.core.records import SignalRecord
from repro.embedding.bisage import BiSAGEConfig
from repro.pipeline import ComponentSpec, PipelineSpec, build_pipeline
from repro.serve import (
    RESERVOIR_METADATA_KEY,
    FleetController,
    GeofenceFleet,
    MaintenancePolicy,
    ModelRegistry,
)

SMALL_GEM = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1))


def small_gem_spec() -> PipelineSpec:
    return PipelineSpec(model=ComponentSpec("gem", SMALL_GEM.to_dict()))


def inside(score: float = 0.1, buffered: bool = False) -> GeofenceDecision:
    return GeofenceDecision(inside=True, score=score, buffered=buffered)


def outside() -> GeofenceDecision:
    """An outlier: it never enters the self-update buffer."""
    return GeofenceDecision(inside=False, score=2.0)


class StubFleet:
    """Records control-plane calls without any models behind them."""

    def __init__(self, refresh_error: Exception | None = None,
                 maintenance: dict[str, MaintenancePolicy] | None = None):
        self.calls: list[tuple] = []
        self.refresh_error = refresh_error
        # tenant_id -> the maintenance block of its spec
        self.maintenance = dict(maintenance or {})

    def refresh(self, tenant_id):
        if self.refresh_error is not None:
            raise self.refresh_error
        self.calls.append(("refresh", tenant_id))
        return 1

    def reprovision(self, tenant_id):
        self.calls.append(("reprovision", tenant_id))

    def maintenance_policy(self, tenant_id):
        return self.maintenance.get(tenant_id)

    def of(self, kind: str) -> list[str]:
        return [tid for action, tid in self.calls if action == kind]


# ----------------------------------------------------------------------
# MaintenancePolicy
# ----------------------------------------------------------------------
class TestPolicy:
    def test_defaults_are_noop(self):
        policy = MaintenancePolicy()
        assert policy.is_noop()
        assert not policy.wants_refresh()
        assert policy.to_dict() == {}
        assert policy.describe() == "no-op"

    def test_json_round_trip(self):
        policy = MaintenancePolicy(check_every=10, refresh_every=100,
                                   min_update_rate=0.05, min_window=20,
                                   reprovision_after=2)
        assert MaintenancePolicy.from_json(policy.to_json()) == policy
        assert MaintenancePolicy.from_dict(json.loads(json.dumps(policy.to_dict()))) == policy

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            MaintenancePolicy.from_dict({"refresh_cadence": 5})

    @pytest.mark.parametrize("kwargs", [
        {"check_every": -1}, {"refresh_every": -2}, {"min_window": 0},
        {"min_update_rate": 1.5}, {"min_update_rate": -0.1},
        {"check_every": 1.5}, {"check_every": True},
        {"min_update_rate": True},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MaintenancePolicy(**kwargs)

    def test_wants_refresh_needs_check_every(self):
        # Clauses without an evaluation cadence can never fire.
        assert not MaintenancePolicy(refresh_every=10).wants_refresh()
        assert MaintenancePolicy(check_every=5, refresh_every=10).wants_refresh()
        assert MaintenancePolicy(check_every=5, min_update_rate=0.5).wants_refresh()
        assert not MaintenancePolicy(check_every=5, reprovision_after=2).wants_refresh()

    def test_describe_mentions_clauses(self):
        text = MaintenancePolicy(check_every=5, refresh_every=10,
                                 reprovision_after=2).describe()
        assert "refresh every 10" in text and "reprovision" in text


class TestPolicyInPipelineSpec:
    def policy(self) -> MaintenancePolicy:
        return MaintenancePolicy(check_every=8, refresh_every=64)

    def test_round_trip_through_spec(self):
        spec = PipelineSpec(model=ComponentSpec("gem"), maintenance=self.policy())
        spec.validate()
        back = PipelineSpec.from_json(spec.to_json())
        assert back == spec
        assert back.maintenance == self.policy()

    def test_spec_accepts_plain_mapping(self):
        spec = PipelineSpec(model=ComponentSpec("gem"),
                            maintenance={"check_every": 4, "refresh_every": 16})
        assert isinstance(spec.maintenance, MaintenancePolicy)
        assert spec.maintenance.refresh_every == 16

    def test_spec_without_maintenance_unchanged(self):
        spec = PipelineSpec(model=ComponentSpec("gem"))
        assert "maintenance" not in spec.to_dict()
        assert PipelineSpec.from_json(spec.to_json()) == spec

    def test_refresh_policy_rejected_on_non_refreshable_arm(self):
        spec = PipelineSpec(embedder=ComponentSpec("mds"),
                            detector=ComponentSpec("histogram"),
                            self_update=False, maintenance=self.policy())
        with pytest.raises(ValueError, match="not refresh-capable"):
            spec.validate()
        with pytest.raises(ValueError, match="not refresh-capable"):
            PipelineSpec(model=ComponentSpec("inoa"),
                         maintenance=self.policy()).validate()

    def test_policy_without_refresh_clause_allowed_anywhere(self):
        PipelineSpec(model=ComponentSpec("inoa"),
                     maintenance=MaintenancePolicy(check_every=4,
                                                   reprovision_after=2)).validate()

    def test_supports_refresh_capability(self):
        assert small_gem_spec().supports_refresh()
        assert PipelineSpec(embedder=ComponentSpec("bisage"),
                            detector=ComponentSpec("lof"),
                            self_update=False).supports_refresh()
        assert not PipelineSpec(embedder=ComponentSpec("imputed-matrix"),
                                detector=ComponentSpec("histogram")).supports_refresh()
        assert not PipelineSpec(model=ComponentSpec("signature-home")).supports_refresh()


# ----------------------------------------------------------------------
# Controller triggering (stub fleet: pure policy arithmetic)
# ----------------------------------------------------------------------
class TestControllerTriggers:
    def test_noop_policy_never_acts(self):
        fleet = StubFleet()
        controller = FleetController(fleet)
        for _ in range(500):
            assert controller.step("t", inside()) == []
        assert fleet.calls == []

    def test_scheduled_refresh_fires_on_cadence(self):
        fleet = StubFleet()
        controller = FleetController(
            fleet, MaintenancePolicy(check_every=10, refresh_every=100))
        acted_at = []
        for i in range(1, 301):
            if "refresh" in controller.step("t", inside()):
                acted_at.append(i)
        assert acted_at == [100, 200, 300]
        assert fleet.of("refresh") == ["t", "t", "t"]

    def test_update_rate_trigger(self):
        fleet = StubFleet()
        controller = FleetController(
            fleet, MaintenancePolicy(check_every=10, min_window=10,
                                     min_update_rate=0.5))
        # Healthy: most observations enter the self-update buffer.
        for _ in range(50):
            controller.step("t", inside(buffered=True))
        assert fleet.of("refresh") == []
        # The detector stops trusting its inliers: update rate collapses.
        actions = []
        for _ in range(10):
            actions += controller.step("t", inside(buffered=False))
        assert actions == ["refresh"]

    def test_min_window_gates_rate_triggers(self):
        fleet = StubFleet()
        controller = FleetController(
            fleet, MaintenancePolicy(check_every=2, min_window=50,
                                     min_update_rate=0.9))
        for _ in range(20):
            controller.step("t", outside())
        # The update rate is 0 but the window is too small to be trusted.
        assert fleet.of("refresh") == []

    def test_rate_window_accumulates_across_short_checks(self):
        """check_every < min_window must delay triggers, not disable them:
        the window accumulates across evaluations until it is trustable."""
        fleet = StubFleet()
        controller = FleetController(
            fleet, MaintenancePolicy(check_every=2, min_window=50,
                                     min_update_rate=0.9))
        fired_at = []
        for i in range(1, 121):
            if "refresh" in controller.step("t", outside()):
                fired_at.append(i)
        assert fired_at[0] == 50          # first trustable window
        assert fired_at[1] == 100         # window resets after firing

    def test_controller_refresh_policy_on_non_capable_tenant_is_recorded(self):
        fleet = StubFleet(refresh_error=TypeError("no coordinated refresh capability"))
        controller = FleetController(
            fleet, MaintenancePolicy(check_every=5, refresh_every=10))
        actions = []
        for _ in range(20):
            actions += controller.step("t", inside())
        # The serving loop survives; the incapacity is visible, not fatal.
        assert actions and all(a.startswith("refresh-failed") for a in actions)

    def test_failed_triggered_refreshes_still_escalate_to_reprovision(self):
        """A tenant whose refreshes cannot succeed (e.g. no capability)
        must still reach the reprovision escape hatch."""
        fleet = StubFleet(refresh_error=TypeError("no coordinated refresh capability"))
        controller = FleetController(
            fleet, MaintenancePolicy(check_every=10, min_window=10,
                                     min_update_rate=0.6,
                                     reprovision_after=2))
        actions = []
        for _ in range(30):
            actions += controller.step("t", outside())
        assert actions[0].startswith("refresh-failed")
        assert actions[1].startswith("refresh-failed")
        assert actions[2] == "reprovision"
        assert fleet.of("reprovision") == ["t"]

    def test_reprovision_escalation_after_stuck_refreshes(self):
        fleet = StubFleet()
        controller = FleetController(
            fleet, MaintenancePolicy(check_every=10, min_window=10,
                                     min_update_rate=0.6,
                                     reprovision_after=2))
        actions = []
        for _ in range(60):
            actions += controller.step("t", outside())
        # Two triggered refreshes that didn't clear the trigger, then
        # escalate; the cycle repeats while the trigger stays hot.
        assert actions == ["refresh", "refresh", "reprovision"] * 2
        assert fleet.of("reprovision") == ["t", "t"]

    def test_refresh_failure_is_recorded_not_raised(self):
        fleet = StubFleet(refresh_error=ValueError("empty reservoir"))
        controller = FleetController(
            fleet, MaintenancePolicy(check_every=10, refresh_every=10))
        actions = []
        for _ in range(30):
            actions += controller.step("t", inside())
        assert actions and all(a.startswith("refresh-failed") for a in actions)
        # Back-off: one failure per refresh interval, not per observation.
        assert len(actions) == 3

    def test_per_tenant_policy_overrides_default(self):
        fleet = StubFleet(maintenance={
            "busy": MaintenancePolicy(check_every=5, refresh_every=5)})
        controller = FleetController(fleet, MaintenancePolicy())  # default: no-op
        for _ in range(10):
            controller.step("quiet", inside())
            controller.step("busy", inside())
        assert fleet.of("refresh") == ["busy", "busy"]


# ----------------------------------------------------------------------
# Coordinated refresh through real pipelines and fleets
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def train_records():
    return synthetic_records(40, seed=0, center=2.0)


@pytest.fixture(scope="module")
def drift_records():
    return synthetic_records(12, seed=9, center=2.4)


class TestCoordinatedRefresh:
    def fitted(self, train_records):
        model = build_pipeline(small_gem_spec())
        model.fit(train_records)
        return model

    def test_refresh_determinism(self, train_records, drift_records):
        """Same seed + same records -> bit-identical post-refresh scores."""
        probe = synthetic_records(5, seed=3, center=2.0)
        one, two = self.fitted(train_records), self.fitted(train_records)
        for model in (one, two):
            for record in drift_records:
                model.observe(record)
            assert model.refresh(train_records) > 0
        assert [one.score(r) for r in probe] == [two.score(r) for r in probe]

    def test_refresh_refits_detector_on_reservoir(self, train_records):
        model = self.fitted(train_records)
        before = model.detector.num_samples
        absorbed = model.refresh(train_records[:17])
        assert absorbed == 17
        assert model.detector.num_samples == 17 != before
        assert model.detector.num_updates == 0
        assert model.pending_updates == 0

    def test_refresh_atomic_on_unembeddable_reservoir(self, train_records):
        model = self.fitted(train_records)
        probe = synthetic_records(5, seed=3, center=2.0)
        before = [model.score(r) for r in probe]
        detector_before, embedder_before = model.detector, model.embedder
        with pytest.raises(ValueError, match="pre-refresh state"):
            model.refresh([SignalRecord({"ff:ff:ff:ff:ff:01": -40.0})])
        assert model.detector is detector_before
        assert model.embedder is embedder_before
        assert [model.score(r) for r in probe] == before

    def test_refresh_atomic_on_detector_exception(self, train_records, monkeypatch):
        model = self.fitted(train_records)
        probe = synthetic_records(5, seed=3, center=2.0)
        before = [model.score(r) for r in probe]
        monkeypatch.setattr(type(model.detector), "refit",
                            lambda self, x: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="boom"):
            model.refresh(train_records)
        monkeypatch.undo()
        assert [model.score(r) for r in probe] == before

    def test_refresh_requires_capability(self, train_records):
        spec = PipelineSpec(embedder=ComponentSpec("imputed-matrix"),
                            detector=ComponentSpec("histogram"))
        model = build_pipeline(spec)
        model.fit(train_records)
        assert not model.supports_refresh()
        with pytest.raises(TypeError, match="refresh"):
            model.refresh(train_records)

    def test_refresh_rejects_empty(self, train_records):
        model = self.fitted(train_records)
        with pytest.raises(ValueError, match="at least one"):
            model.refresh([])


class TestFleetMaintenance:
    def test_provision_seeds_reservoir_and_refresh_uses_it(self, tmp_path, train_records):
        with GeofenceFleet(tmp_path / "reg", capacity=2, reservoir_size=16) as fleet:
            fleet.provision("a", train_records, spec=small_gem_spec())
            assert len(fleet.reservoir("a")) == 16        # last 16 training records
            absorbed = fleet.refresh("a")
            assert absorbed == 16
            assert fleet.telemetry.totals().refreshes == 1
            assert fleet.is_dirty("a")

    def test_reservoir_survives_evict_reload(self, tmp_path, train_records, drift_records):
        registry = ModelRegistry(tmp_path / "reg")
        with GeofenceFleet(registry, capacity=2, reservoir_size=8) as fleet:
            fleet.provision("a", train_records, spec=small_gem_spec())
            for record in drift_records:
                fleet.observe("a", record)
            resident = [r.readings for r in fleet.reservoir("a")]
            fleet.evict("a")
            assert fleet.resident("a") is None
            # Reload restores the reservoir from the checkpoint.
            reloaded = [r.readings for r in fleet.reservoir("a")]
            assert reloaded == resident
            # ...and user-facing metadata stays clean of the internal key.
            assert RESERVOIR_METADATA_KEY not in registry.metadata("a")
            # The records live in the npz, not in the manifest JSON.
            assert RESERVOIR_METADATA_KEY not in registry.manifest("a")["metadata"]
            _, manifest = registry.load_with_manifest("a")
            assert set(manifest["metadata"][RESERVOIR_METADATA_KEY]) == {"anchor", "recent"}

    def test_outside_and_unembeddable_records_never_enter_reservoir(
            self, tmp_path, train_records):
        with GeofenceFleet(tmp_path / "reg", capacity=2, reservoir_size=64) as fleet:
            fleet.provision("a", train_records, spec=small_gem_spec())
            seeded = len(fleet.reservoir("a"))
            fleet.observe("a", SignalRecord({"ff:ff:ff:ff:ff:01": -40.0}))  # +inf
            far = synthetic_records(3, seed=11, center=60.0)                 # outliers
            for record in far:
                fleet.observe("a", record)
            reservoir = fleet.reservoir("a")
            assert len(reservoir) <= seeded + 3
            assert all(r.readings != {"ff:ff:ff:ff:ff:01": -40.0} for r in reservoir)

    def test_reprovision_refits_from_reservoir(self, tmp_path, train_records):
        with GeofenceFleet(tmp_path / "reg", capacity=2, reservoir_size=32) as fleet:
            old = fleet.provision("a", train_records, spec=small_gem_spec())
            fresh = fleet.reprovision("a")
            assert fresh is not old
            assert fleet.resident("a") is fresh
            assert fleet.telemetry.totals().reprovisions == 1
            # The replacement serves immediately and is persisted on evict.
            record = synthetic_records(1, seed=2, center=2.0)[0]
            fleet.observe("a", record)
            fleet.evict("a")
            assert fleet.score("a", record) == fresh.score(record)

    def test_refresh_without_reservoir_raises(self, tmp_path, train_records):
        # A checkpoint saved outside a fleet carries no reservoir, so the
        # tenant loads with an empty one until it observes an inlier.
        registry = ModelRegistry(tmp_path / "reg")
        model = build_pipeline(small_gem_spec())
        model.fit(train_records)
        registry.save("a", model)
        with GeofenceFleet(registry, capacity=2, reservoir_size=16) as fleet:
            assert fleet.reservoir("a") == []
            with pytest.raises(ValueError, match="empty inlier reservoir"):
                fleet.refresh("a")
            with pytest.raises(ValueError, match="empty inlier reservoir"):
                fleet.reprovision("a")

    def test_reservoir_size_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="reservoir_size must be >= 1"):
            GeofenceFleet(tmp_path / "reg", reservoir_size=0)

    def test_controller_uses_spec_maintenance_block(self, tmp_path, train_records):
        spec = PipelineSpec(
            model=ComponentSpec("gem", SMALL_GEM.to_dict()),
            maintenance=MaintenancePolicy(check_every=4, refresh_every=8))
        with GeofenceFleet(tmp_path / "reg", capacity=2, reservoir_size=16) as fleet:
            fleet.provision("a", train_records, spec=spec)
            controller = FleetController(fleet)   # default policy: no-op
            stream = synthetic_records(8, seed=5, center=2.0)
            actions = []
            for record in stream:
                actions += controller.step("a", fleet.observe("a", record))
            assert "refresh" in actions
            assert fleet.telemetry.totals().refreshes >= 1

    def test_scheduled_refresh_cadence_survives_eviction(self, tmp_path, train_records):
        """A scheduled refresh fires at the same per-tenant observation
        counts whether or not the tenant is evicted and reloaded between
        checks: the controller's counts outlive the resident model."""
        policy = MaintenancePolicy(check_every=3, refresh_every=6)
        stream = synthetic_records(20, seed=5, center=2.0)
        fired = {}
        for evicting in (False, True):
            root = tmp_path / f"reg-{evicting}"
            with GeofenceFleet(root, capacity=2, reservoir_size=16) as fleet:
                fleet.provision("a", train_records, spec=small_gem_spec())
                controller = FleetController(fleet, policy)
                fired[evicting] = []
                for index, record in enumerate(stream):
                    if "refresh" in controller.step("a", fleet.observe("a", record)):
                        fired[evicting].append(controller.state("a").observations)
                    if evicting and index % 2:
                        fleet.evict("a")
                assert fleet.telemetry.totals().evictions == (10 if evicting else 0)
        assert fired[True] == fired[False] == [6, 12, 18]
