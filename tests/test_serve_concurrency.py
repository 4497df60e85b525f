"""Concurrency: the lock-held refresh, plus multi-threaded serving while
another thread keeps calling ``maintain()`` (no torn decisions,
telemetry conservation, no lost self-update)."""

import copy
import math
import threading

import pytest

from conftest import synthetic_records
from repro.core import GEM, GEMConfig
from repro.detection.histogram import HistogramDetector
from repro.embedding.bisage import BiSAGEConfig
from repro.serve import GeofenceFleet, MaintenancePolicy, ServingRuntime

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))


def make_gem() -> GEM:
    return GEM(FAST_CONFIG)


def tenant_records(tenant: int, n: int = 25, seed_offset: int = 0):
    return synthetic_records(n, num_macs=10, seed=tenant + seed_offset,
                             center=2.0 + tenant)


class GatedRefit:
    """Patches HistogramDetector.refit to park until released (and signal entry)."""

    def __init__(self, monkeypatch):
        self.entered = threading.Event()
        self.release = threading.Event()
        original = HistogramDetector.refit
        gate = self

        def gated(detector, embeddings):
            gate.entered.set()
            assert gate.release.wait(10.0), "gated refit never released"
            return original(detector, embeddings)

        monkeypatch.setattr(HistogramDetector, "refit", gated)


class TestLockHeldRefresh:
    def test_observe_waits_for_refresh_and_its_update_survives(self, tmp_path,
                                                               monkeypatch):
        """The fleet lock is held for the whole refresh: an observe of
        the refreshing tenant waits for the swap, and its self-update
        lands in the new detector instead of being lost to the swap."""
        fleet = GeofenceFleet(tmp_path / "m", capacity=4, model_factory=make_gem,
                              reservoir_size=16)
        train = tenant_records(0)
        fleet.provision("t", train)
        # A training record the refreshed detector takes as a confident
        # inlier, so observing it self-updates that detector.
        refreshed = copy.deepcopy(fleet.resident("t"))
        refreshed.refresh(fleet.reservoir("t"))
        inlier = next(record for record in train
                      if copy.deepcopy(refreshed).observe(record).updated)
        gate = GatedRefit(monkeypatch)
        result: dict = {}

        def refresher():
            result["absorbed"] = fleet.refresh("t")

        def observer():
            result["decision"] = fleet.observe("t", inlier)

        refreshing = threading.Thread(target=refresher)
        refreshing.start()
        assert gate.entered.wait(10.0)
        observing = threading.Thread(target=observer)
        observing.start()
        # The refit is parked inside the refresh: the observe must not
        # return until the refresh has swapped its detector in.
        observing.join(0.5)
        assert observing.is_alive()
        assert "decision" not in result
        gate.release.set()
        refreshing.join(10.0)
        observing.join(10.0)
        assert not refreshing.is_alive() and not observing.is_alive()
        decision = result["decision"]
        assert decision == copy.deepcopy(refreshed).observe(inlier)
        assert decision.updated
        # The new detector holds the refit rows plus the observe's
        # self-update.
        detector = fleet.resident("t").detector
        assert detector.num_samples == result["absorbed"] + 1
        assert fleet.is_dirty("t")
        fleet.close()


@pytest.mark.slow
class TestRuntimeStress:
    def test_threaded_observe_under_maintain_loop(self, tmp_path):
        """Four observer threads on one runtime while a fifth thread
        loops ``maintain()``, with four tenants sharing three LRU slots
        so eviction write-backs race the observes.

        Pins the serving invariants: no torn decisions (every decision
        is internally consistent), telemetry conservation (every issued
        observation is counted exactly once, fleet- and
        controller-side), and loadable checkpoints."""
        num_threads = 4
        per_thread = 40
        tenants = [f"tenant-{i}" for i in range(num_threads)]
        policy = MaintenancePolicy(check_every=6, refresh_every=12)
        runtime = ServingRuntime(tmp_path / "m", capacity=3,
                                 model_factory=make_gem, reservoir_size=16,
                                 policy=policy)
        with runtime:
            for index, tenant in enumerate(tenants):
                runtime.provision(tenant, tenant_records(index))
            streams = {tenant: tenant_records(i, n=per_thread, seed_offset=100)
                       for i, tenant in enumerate(tenants)}
            errors: list[BaseException] = []
            decisions: dict[str, list] = {tenant: [] for tenant in tenants}
            barrier = threading.Barrier(num_threads + 1)
            observers_done = threading.Event()
            drained = [0]

            def worker(tenant: str) -> None:
                try:
                    barrier.wait(10.0)
                    for record in streams[tenant]:
                        decisions[tenant].append(runtime.observe(tenant, record))
                except BaseException as error:  # noqa: BLE001 - recorded for assert
                    errors.append(error)

            def maintainer() -> None:
                try:
                    barrier.wait(10.0)
                    while not observers_done.is_set():
                        drained[0] += runtime.maintain()
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            pool = [threading.Thread(target=worker, args=(tenant,))
                    for tenant in tenants]
            maintaining = threading.Thread(target=maintainer)
            maintaining.start()
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(60.0)
            observers_done.set()
            maintaining.join(60.0)
            assert not any(thread.is_alive() for thread in pool + [maintaining])
            assert not errors, errors
            # Drain the tail the loop had not reached.
            drained[0] += runtime.maintain()
            assert runtime.pending_decisions == 0
        # -- no torn decisions --------------------------------------------
        for tenant in tenants:
            assert len(decisions[tenant]) == per_thread
            for decision in decisions[tenant]:
                if math.isinf(decision.score):
                    assert not decision.inside  # footnote-3 contract
                if decision.updated:
                    assert decision.buffered
        # -- telemetry conservation ---------------------------------------
        issued = num_threads * per_thread
        assert runtime.telemetry_totals().observations == issued
        assert sum(runtime.controller.state(tenant).observations
                   for tenant in tenants) == issued
        assert drained[0] == issued
        # Maintenance actually ran, and no action failed.
        assert runtime.telemetry_totals().refreshes > 0
        assert not any("failed" in action
                       for _, action in runtime.maintenance_actions())
        # -- checkpoints remain loadable ----------------------------------
        for tenant in tenants:
            clone = runtime.registry.load(tenant)
            assert clone.observe(tenant_records(0, n=1, seed_offset=500)[0]) \
                is not None

    def test_concurrent_refresh_and_observe_same_tenant(self, tmp_path):
        """Explicit refresh hammering one tenant while observes stream
        and evict it: the refresh holds the fleet lock, so none is
        refused."""
        fleet = GeofenceFleet(tmp_path / "m", capacity=2, model_factory=make_gem,
                              reservoir_size=32, incremental=True)
        fleet.provision("t", tenant_records(0, n=40))
        stream = tenant_records(0, n=120, seed_offset=7)
        stop = threading.Event()
        refreshes = [0]
        errors: list[BaseException] = []

        def refresher() -> None:
            try:
                while not stop.is_set():
                    fleet.refresh("t")
                    refreshes[0] += 1
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        thread = threading.Thread(target=refresher)
        thread.start()
        decisions = []
        for index, record in enumerate(stream):
            decisions.append(fleet.observe("t", record))
            if index % 30 == 29:
                fleet.evict("t")
        stop.set()
        thread.join(30.0)
        assert not thread.is_alive()
        assert not errors, errors
        assert len(decisions) == len(stream)
        assert refreshes[0] > 0
        assert fleet.telemetry.totals().refreshes == refreshes[0]
        fleet.close()
        assert fleet.registry.load("t") is not None
