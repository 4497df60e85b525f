"""ServingRuntime: bit-identity, decision bus, serial maintenance."""

from contextlib import contextmanager

import numpy as np
import pytest

from conftest import synthetic_records, totals_from_families
from repro.core import GEM, GEMConfig
from repro.embedding.bisage import BiSAGEConfig
from repro.pipeline import ComponentSpec, PipelineSpec
from repro.serve import (FleetController, GeofenceFleet, MaintenancePolicy,
                         ServingRuntime)
from repro.serve.checkpoint import flatten_state, load_state
from repro.serve.cluster import Router, spawn_local_worker

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))


def make_gem() -> GEM:
    return GEM(FAST_CONFIG)


def tenant_records(tenant: int, n: int = 25, seed_offset: int = 0):
    return synthetic_records(n, num_macs=10, seed=tenant + seed_offset,
                             center=2.0 + tenant)


TENANTS = [f"tenant-{i}" for i in range(5)]


def provision_all(target) -> None:
    for index, tenant in enumerate(TENANTS):
        target.provision(tenant, tenant_records(index))


def interleaved_stream(n: int = 60):
    mixed = synthetic_records(n, num_macs=10, seed=321)
    return [(TENANTS[i % len(TENANTS)], record) for i, record in enumerate(mixed)]


def drained_total(runtime) -> int:
    """The exported ``repro_scheduler_decisions_drained_total`` value."""
    family = runtime.metrics()["families"]["repro_scheduler_decisions_drained_total"]
    return int(sum(series["value"] for series in family["series"]))


class TestSerialBitIdentity:
    """The determinism contract: serial runtime == bare fleet."""

    def test_decisions_and_checkpoints_match_plain_fleet(self, tmp_path):
        fleet = GeofenceFleet(tmp_path / "fleet", capacity=2,
                              model_factory=make_gem)
        runtime = ServingRuntime(tmp_path / "runtime", capacity=2,
                                 model_factory=make_gem, incremental=False)
        provision_all(fleet)
        provision_all(runtime)
        stream = interleaved_stream()
        fleet_decisions = [fleet.observe(t, r) for t, r in stream]
        runtime_decisions = [runtime.observe(t, r) for t, r in stream]
        assert runtime_decisions == fleet_decisions
        fleet.close()
        runtime.close()
        for tenant in TENANTS:
            state_a, _ = load_state(tmp_path / "fleet" / tenant)
            state_b, _ = load_state(tmp_path / "runtime" / tenant)
            arrays_a, leaves_a = flatten_state(state_a)
            arrays_b, leaves_b = flatten_state(state_b)
            assert set(arrays_a) == set(arrays_b)
            assert all(np.array_equal(arrays_a[k], arrays_b[k]) for k in arrays_a)
            assert leaves_a == leaves_b

    def test_incremental_layout_reconstructs_identical_state(self, tmp_path):
        plain = ServingRuntime(tmp_path / "plain", capacity=2,
                               model_factory=make_gem, incremental=False)
        delta = ServingRuntime(tmp_path / "delta", capacity=2,
                               model_factory=make_gem, incremental=True)
        provision_all(plain)
        provision_all(delta)
        for tenant, record in interleaved_stream():
            assert plain.observe(tenant, record) == delta.observe(tenant, record)
        plain.close()
        delta.close()
        for tenant in TENANTS:
            state_a, _ = load_state(tmp_path / "plain" / tenant)
            state_b, _ = load_state(tmp_path / "delta" / tenant)
            arrays_a, _ = flatten_state(state_a)
            arrays_b, _ = flatten_state(state_b)
            assert all(np.array_equal(arrays_a[k], arrays_b[k]) for k in arrays_a)

    def test_observe_many_matches_fleet_batching(self, tmp_path):
        fleet = GeofenceFleet(tmp_path / "fleet", capacity=2,
                              model_factory=make_gem)
        runtime = ServingRuntime(tmp_path / "runtime", capacity=2,
                                 model_factory=make_gem, incremental=False)
        provision_all(fleet)
        provision_all(runtime)
        batch = interleaved_stream(30)
        assert runtime.observe_many(batch) == fleet.observe_many(batch)
        fleet.close()
        runtime.close()


class TestServingSurface:
    def test_telemetry_totals_and_snapshot(self, tmp_path):
        with ServingRuntime(tmp_path / "m", capacity=8,
                            model_factory=make_gem) as runtime:
            provision_all(runtime)
            stream = interleaved_stream(45)
            for tenant, record in stream:
                runtime.observe(tenant, record)
            totals = runtime.telemetry_totals()
            assert totals.observations == len(stream)
            # The totals are a view over the exported families.
            families = runtime.metrics()["families"]
            assert totals.as_dict() == totals_from_families(families)
            assert runtime.stats()["totals"] == totals.as_dict()

    def test_observe_dirties_and_flush_cleans(self, tmp_path):
        with ServingRuntime(tmp_path / "m", capacity=8,
                            model_factory=make_gem) as runtime:
            provision_all(runtime)
            record = tenant_records(0, n=1, seed_offset=7)[0]
            runtime.observe(TENANTS[0], record)
            assert runtime.fleet.is_dirty(TENANTS[0])
            assert runtime.flush() >= 1
            assert not runtime.fleet.is_dirty(TENANTS[0])


class TestMaintenance:
    def test_serial_maintain_pumps_controller(self, tmp_path):
        policy = MaintenancePolicy(check_every=5, refresh_every=10)
        with ServingRuntime(tmp_path / "m", capacity=8,
                            model_factory=make_gem, policy=policy) as runtime:
            provision_all(runtime)
            for tenant, record in interleaved_stream(80):
                runtime.observe(tenant, record)
            assert runtime.pending_decisions == 80
            drained = runtime.maintain()
            assert drained == 80
            assert any(action == "refresh"
                       for _, action in runtime.maintenance_actions())
            assert runtime.telemetry_totals().refreshes > 0
            assert drained_total(runtime) == 80

    def test_noop_runtime_does_not_accumulate_decisions(self, tmp_path):
        with ServingRuntime(tmp_path / "m", capacity=8,
                            model_factory=make_gem) as runtime:
            provision_all(runtime)
            for tenant, record in interleaved_stream(30):
                runtime.observe(tenant, record)
            # No policy anywhere: tracking is off, nothing queues.
            assert runtime.pending_decisions == 0

    def test_spec_block_queues_without_a_default_policy(self, tmp_path):
        """A tenant whose spec carries a maintenance block queues its
        decisions even without a default policy, and maintain() drains
        them; nothing runs until it is called."""
        with ServingRuntime(tmp_path / "m", capacity=8) as runtime:
            spec = PipelineSpec(model=ComponentSpec("gem", FAST_CONFIG.to_dict()),
                                maintenance=MaintenancePolicy(check_every=4,
                                                              refresh_every=8))
            runtime.provision("t", tenant_records(0), spec=spec)
            stream = synthetic_records(10, num_macs=10, seed=321)
            for record in stream:
                runtime.observe("t", record)
            assert runtime.pending_decisions == len(stream)
            assert runtime.telemetry_totals().refreshes == 0
            assert runtime.maintain() == len(stream)
            assert runtime.pending_decisions == 0
            assert runtime.telemetry_totals().refreshes == 1

    def test_scheduler_interval_other_than_none_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="maintenance was removed"):
            ServingRuntime(tmp_path / "m", scheduler_interval=0.05)
        assert not (tmp_path / "m").exists()

    def test_maintain_whose_step_raises_counts_every_popped_decision(self, tmp_path):
        """maintain() books what it popped, even when the controller
        raises mid-drain; the next call drains the rest."""

        class RaisingController(FleetController):
            calls = 0

            def step(self, tenant_id, decision):
                RaisingController.calls += 1
                if RaisingController.calls == 4:
                    raise RuntimeError("step failed")
                return super().step(tenant_id, decision)

        with ServingRuntime(tmp_path / "m", capacity=8, model_factory=make_gem,
                            policy=MaintenancePolicy(check_every=1000)) as runtime:
            runtime.controller = RaisingController(runtime.fleet,
                                                   runtime.controller.policy)
            provision_all(runtime)
            runtime.observe_many(interleaved_stream(10))
            with pytest.raises(RuntimeError, match="step failed"):
                runtime.maintain()
            assert runtime.pending_decisions == 6
            assert drained_total(runtime) == 4
            assert runtime.maintain() == 6
            assert drained_total(runtime) == 10


# ----------------------------------------------------------------------
# Per-tenant maintenance blocks, served serially and behind a router
# ----------------------------------------------------------------------
def spec_with(policy: MaintenancePolicy | None) -> PipelineSpec:
    return PipelineSpec(model=ComponentSpec("gem", FAST_CONFIG.to_dict()),
                        maintenance=policy)


@contextmanager
def serving_front(front: str, root, capacity: int):
    """A serial runtime, or a router over one in-process worker (which
    runs a serial runtime); neither has a default policy."""
    if front == "runtime":
        with ServingRuntime(root, capacity=capacity) as runtime:
            yield runtime
    else:
        with Router(root, num_workers=1, capacity=capacity,
                    launcher=spawn_local_worker) as router:
            yield router


def serve_in_chunks(server, tenants, n: int = 40, size: int = 4) -> None:
    """``n`` records per tenant, ``size`` per tenant in each batch,
    with a maintenance pass after every batch."""
    stream = synthetic_records(n, num_macs=10, seed=321)
    for start in range(0, n, size):
        server.observe_many([(tenant, record) for tenant in tenants
                             for record in stream[start:start + size]])
        server.maintain()


@pytest.mark.parametrize("front", ["runtime", "router"])
class TestSpecMaintenance:
    def test_spec_block_refreshes_without_a_default_policy(self, front, tmp_path):
        policy = MaintenancePolicy(check_every=4, refresh_every=8)
        with serving_front(front, tmp_path / "m", capacity=8) as server:
            server.provision("a", tenant_records(0), spec=spec_with(policy))
            serve_in_chunks(server, ["a"])
            assert server.stats()["totals"]["refreshes"] == 5

    def test_spec_block_applies_to_evicted_tenants(self, front, tmp_path):
        """Capacity 1: only the batch's last tenant is resident when the
        decisions are pumped; both tenants still run their own block."""
        policy = MaintenancePolicy(check_every=4, refresh_every=8)
        with serving_front(front, tmp_path / "m", capacity=1) as server:
            for index, tenant in enumerate(("a", "b")):
                server.provision(tenant, tenant_records(index), spec=spec_with(policy))
            serve_in_chunks(server, ["a", "b"])
            assert server.stats()["totals"]["refreshes"] == 10
            if front == "runtime":
                refreshes = [t for t, action in server.maintenance_actions()
                             if action == "refresh"]
                assert (refreshes.count("a"), refreshes.count("b")) == (5, 5)

    def test_no_policy_anywhere_queues_nothing(self, front, tmp_path):
        with serving_front(front, tmp_path / "m", capacity=1) as server:
            for index, tenant in enumerate(("a", "b", "c")):
                server.provision(tenant, tenant_records(index), spec=spec_with(None))
            stream = synthetic_records(12, num_macs=10, seed=321)
            server.observe_many([(("a", "b", "c")[i % 3], record)
                                 for i, record in enumerate(stream)])
            assert server.stats()["pending_decisions"] == 0
            assert server.maintain() == 0
