"""Concurrency: swap-on-commit refresh + multi-threaded serving under a
running MaintenanceScheduler (no torn decisions, telemetry conservation,
clean shutdown)."""

import copy
import math
import threading
import time

import pytest

from conftest import synthetic_records
from repro.core import GEM, GEMConfig
from repro.core.gem import RefreshJob
from repro.embedding.bisage import BiSAGEConfig
from repro.serve import GeofenceFleet, MaintenancePolicy, ServingRuntime

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))


def make_gem() -> GEM:
    return GEM(FAST_CONFIG)


def tenant_records(tenant: int, n: int = 25, seed_offset: int = 0):
    return synthetic_records(n, num_macs=10, seed=tenant + seed_offset,
                             center=2.0 + tenant)


class GatedBuild:
    """Patches RefreshJob.build to park until released (and signal entry)."""

    def __init__(self, monkeypatch):
        self.entered = threading.Event()
        self.release = threading.Event()
        original = RefreshJob.build
        gate = self

        def gated(job):
            gate.entered.set()
            assert gate.release.wait(10.0), "gated build never released"
            return original(job)

        monkeypatch.setattr(RefreshJob, "build", gated)


class TestSwapOnCommitRefresh:
    def test_observe_flows_while_refresh_rebuilds(self, tmp_path, monkeypatch):
        """The fleet lock is free during the rebuild phase."""
        fleet = GeofenceFleet(tmp_path / "m", capacity=4, model_factory=make_gem,
                              reservoir_size=16)
        fleet.provision("t", tenant_records(0))
        gate = GatedBuild(monkeypatch)
        result: dict = {}

        def refresher():
            result["absorbed"] = fleet.refresh("t")

        thread = threading.Thread(target=refresher)
        thread.start()
        assert gate.entered.wait(10.0)
        # The refresh is mid-rebuild and parked; observes (on this and
        # any other tenant) must complete anyway.
        decision = fleet.observe("t", tenant_records(0, n=1, seed_offset=9)[0])
        assert decision is not None
        gate.release.set()
        thread.join(10.0)
        assert not thread.is_alive()
        assert result["absorbed"] > 0
        assert fleet.is_dirty("t")
        fleet.close()

    def test_commit_refused_when_tenant_replaced_mid_rebuild(self, tmp_path,
                                                            monkeypatch):
        fleet = GeofenceFleet(tmp_path / "m", capacity=4, model_factory=make_gem,
                              reservoir_size=16)
        fleet.provision("t", tenant_records(0))
        gate = GatedBuild(monkeypatch)
        result: dict = {}

        def refresher():
            try:
                fleet.refresh("t")
            except ValueError as error:
                result["error"] = str(error)

        thread = threading.Thread(target=refresher)
        thread.start()
        assert gate.entered.wait(10.0)
        # Evict (write-back + drop) while the rebuild runs; the reload
        # is a different model object, so the stale result must be
        # discarded, not swapped in.
        fleet.evict("t")
        fleet.observe("t", tenant_records(0, n=1, seed_offset=9)[0])
        gate.release.set()
        thread.join(10.0)
        assert "evicted or replaced" in result.get("error", "")
        fleet.close()

    def test_overlapping_refresh_of_same_tenant_refused(self, tmp_path,
                                                        monkeypatch):
        """Two concurrent refreshes of one tenant would each build from
        the same pre-refresh snapshot and the later commit would
        silently revert the earlier one — the second begin is refused
        instead."""
        fleet = GeofenceFleet(tmp_path / "m", capacity=4, model_factory=make_gem,
                              reservoir_size=16)
        fleet.provision("t", tenant_records(0))
        gate = GatedBuild(monkeypatch)
        thread = threading.Thread(target=fleet.refresh, args=("t",))
        thread.start()
        assert gate.entered.wait(10.0)
        with pytest.raises(ValueError, match="already has a refresh"):
            fleet.refresh("t")
        gate.release.set()
        thread.join(10.0)
        # The guard clears with the first refresh: a sequential one works.
        gate.entered.clear()
        follow_up = threading.Thread(target=fleet.refresh, args=("t",))
        follow_up.start()
        assert gate.entered.wait(10.0)
        gate.release.set()
        follow_up.join(10.0)
        assert fleet.telemetry.totals().refreshes == 2
        fleet.close()

    def test_batch_fastpath_flows_during_refresh_and_keeps_kernel(
            self, tmp_path, monkeypatch):
        """Race the batch plane against a parked rebuild: the batch must
        complete (engaged, lock free) while the refresh is mid-build.
        The rebuild re-embeds through the same kernel the model owns,
        and the commit swaps only the detector, so the kernel stays the
        model's — post-commit batch decisions equal a scalar loop over a
        deepcopy of the post-refresh resident model."""
        fleet = GeofenceFleet(tmp_path / "m", capacity=4, model_factory=make_gem,
                              reservoir_size=16)
        fleet.provision("t", tenant_records(0))
        gate = GatedBuild(monkeypatch)
        result: dict = {}

        def refresher():
            result["absorbed"] = fleet.refresh("t")

        thread = threading.Thread(target=refresher)
        thread.start()
        assert gate.entered.wait(10.0)
        # Mid-rebuild: the batch path must serve, and engage, anyway.
        mid = fleet.observe_many(
            [("t", r) for r in tenant_records(0, n=8, seed_offset=9)])
        assert len(mid) == 8 and all(d is not None for d in mid)
        assert fleet.batchplane.engaged_total() >= 1
        model = fleet.resident("t")
        kernel = model.embedder.model._kernel
        assert kernel is not None
        gate.release.set()
        thread.join(10.0)
        assert not thread.is_alive()
        assert result["absorbed"] > 0
        # Post-commit: same model object, same embedder — the kernel is
        # reused and still reproduces the scalar loop.
        assert fleet.resident("t") is model
        reference = copy.deepcopy(model)
        probe = tenant_records(0, n=8, seed_offset=11)
        decisions = fleet.observe_many([("t", r) for r in probe])
        assert model.embedder.model._kernel is kernel
        assert decisions == [reference.observe(r) for r in probe]
        fleet.close()

    def test_inline_refresh_requires_built_unconsumed_job(self, tmp_path):
        gem = make_gem().fit(tenant_records(0))
        job = gem.begin_refresh(tenant_records(0, n=5, seed_offset=3))
        with pytest.raises(RuntimeError, match="not been built"):
            gem.commit_refresh(job)
        other = make_gem().fit(tenant_records(1))
        job.build()
        with pytest.raises(ValueError, match="different pipeline"):
            other.commit_refresh(job)
        gem.commit_refresh(job)
        with pytest.raises(RuntimeError, match="already committed"):
            gem.commit_refresh(job)

    def test_commit_refused_after_embedder_replaced(self):
        gem = make_gem().fit(tenant_records(0))
        job = gem.begin_refresh(tenant_records(0, n=5, seed_offset=3))
        job.build()
        gem.load_state_dict(make_gem().fit(tenant_records(1)).state_dict())
        detector = gem.detector
        with pytest.raises(ValueError, match="embedder was replaced"):
            gem.commit_refresh(job)
        assert gem.detector is detector


@pytest.mark.slow
class TestRuntimeStress:
    def test_threaded_observe_under_background_maintenance(self, tmp_path):
        """The tentpole stress test: concurrent observers on one runtime
        whose scheduler keeps refreshing while four tenants share three
        LRU slots, so eviction write-backs race the observes.

        Pins the three daemon invariants: no torn decisions (every
        decision is internally consistent), telemetry conservation
        (every issued observation is counted exactly once, fleet- and
        controller-side), and clean shutdown (worker joined, queues
        drained, checkpoints loadable)."""
        num_threads = 4
        per_thread = 40
        tenants = [f"tenant-{i}" for i in range(num_threads)]
        policy = MaintenancePolicy(check_every=6, refresh_every=12)
        runtime = ServingRuntime(tmp_path / "m", capacity=3,
                                 model_factory=make_gem, reservoir_size=16,
                                 policy=policy, scheduler_interval=0.005)
        with runtime:
            for index, tenant in enumerate(tenants):
                runtime.provision(tenant, tenant_records(index))
            streams = {tenant: tenant_records(i, n=per_thread, seed_offset=100)
                       for i, tenant in enumerate(tenants)}
            errors: list[BaseException] = []
            decisions: dict[str, list] = {tenant: [] for tenant in tenants}
            barrier = threading.Barrier(num_threads)

            def worker(tenant: str) -> None:
                try:
                    barrier.wait(10.0)
                    for record in streams[tenant]:
                        decisions[tenant].append(runtime.observe(tenant, record))
                except BaseException as error:  # noqa: BLE001 - recorded for assert
                    errors.append(error)

            pool = [threading.Thread(target=worker, args=(tenant,))
                    for tenant in tenants]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in pool)
            assert not errors, errors
            # Give the worker a beat to act on the tail of the stream.
            time.sleep(0.1)
        # -- clean shutdown ------------------------------------------------
        assert not runtime.scheduler.running
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
        assert runtime.scheduler.stats()["decisions_drained"] == issued
        # Maintenance actually ran, and every failure it hit was the
        # contained operational kind (logged as a *-failed action, e.g. a
        # refresh whose tenant was evicted mid-rebuild), not a crash.
        assert runtime.scheduler.stats()["errors"] == 0
        assert runtime.telemetry_totals().refreshes > 0
        # -- checkpoints remain loadable ----------------------------------
        for tenant in tenants:
            clone = runtime.registry.load(tenant)
            assert clone.observe(tenant_records(0, n=1, seed_offset=500)[0]) \
                is not None

    def test_concurrent_refresh_and_observe_same_tenant(self, tmp_path):
        """Explicit refresh hammering one tenant while observes stream."""
        fleet = GeofenceFleet(tmp_path / "m", capacity=2, model_factory=make_gem,
                              reservoir_size=32, incremental=True)
        fleet.provision("t", tenant_records(0, n=40))
        stream = tenant_records(0, n=120, seed_offset=7)
        stop = threading.Event()
        committed = threading.Event()
        outcomes = {"refreshes": 0, "stale": 0}
        errors: list[BaseException] = []

        def refresher() -> None:
            try:
                while not stop.is_set():
                    try:
                        fleet.refresh("t")
                        outcomes["refreshes"] += 1
                        committed.set()
                    except ValueError:
                        outcomes["stale"] += 1  # evicted/replaced mid-rebuild
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        thread = threading.Thread(target=refresher)
        thread.start()
        decisions = []
        for index, record in enumerate(stream):
            decisions.append(fleet.observe("t", record))
            if index % 30 == 29:
                fleet.evict("t")
        # On a loaded host every refresh can lose its race against the
        # evictions above; once the stream is done one must commit.
        committed.wait(30.0)
        stop.set()
        thread.join(30.0)
        assert not thread.is_alive()
        assert not errors, errors
        assert len(decisions) == len(stream)
        assert outcomes["refreshes"] > 0
        fleet.close()
        assert fleet.registry.load("t") is not None
