"""Observability threaded through the serving stack.

Covers the runtime's ``metrics()`` / ``export_prometheus()`` surface,
the bit-identity contract (instrumentation never changes decisions),
the telemetry conservation invariant under concurrency, the
scheduler's bounded error log, and the stuck-refresh health signal.
"""

import sys
import threading

import pytest

from conftest import synthetic_records
from repro.baselines import SignatureHome
from repro.core import GEM, GEMConfig
from repro.core.protocols import GeofenceDecision
from repro.embedding.bisage import BiSAGEConfig
from repro.obs import MetricsRegistry
from repro.serve import (FleetController, MaintenancePolicy,
                         MaintenanceScheduler, ServingRuntime)
from repro.serve.telemetry import FleetTelemetry

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))


def make_gem() -> GEM:
    return GEM(FAST_CONFIG)


TENANTS = [f"tenant-{i}" for i in range(3)]


def provision_all(target) -> None:
    for index, tenant in enumerate(TENANTS):
        target.provision(tenant, synthetic_records(25, num_macs=10, seed=index,
                                                   center=2.0 + index))


def stream(target, n: int = 45) -> list:
    mixed = synthetic_records(n, num_macs=10, seed=321, center=3.0)
    return [target.observe(TENANTS[i % len(TENANTS)], record)
            for i, record in enumerate(mixed)]


# ----------------------------------------------------------------------
# runtime.metrics() / export_prometheus()
# ----------------------------------------------------------------------
class TestRuntimeMetrics:
    def test_export_covers_the_acceptance_surface(self, tmp_path):
        with ServingRuntime(tmp_path / "reg", capacity=8,
                            model_factory=make_gem,
                            scheduler_interval=None) as runtime:
            provision_all(runtime)
            stream(runtime)
            runtime.flush()
            snapshot = runtime.metrics()
            text = runtime.export_prometheus()

        families = snapshot["families"]
        # Op latency histograms, with per-op labels.
        ops = {s["labels"]["op"] for s in families["repro_op_seconds"]["series"]}
        assert {"observe", "load", "save", "refresh"} <= ops
        assert families["repro_op_seconds"]["type"] == "histogram"
        # The decision bus depth is one unlabelled gauge.
        assert families["repro_decision_bus_depth"]["labels"] == []
        assert families["repro_decision_bus_depth"]["series"] == [
            {"labels": {}, "value": 0.0}]
        # Serial mode: no scheduler pumps, so the pump-age gauge has no
        # series — staleness is the health probe's job here.
        assert families["repro_scheduler_last_pump_age_seconds"]["series"] == []
        # Health gauges mirror the probe set.
        probes = {s["labels"]["probe"]
                  for s in families["repro_health_status"]["series"]}
        assert probes == {"stuck_refresh", "reservoir_starvation",
                          "scheduler_staleness", "decision_bus_depth"}
        assert set(snapshot["health"]) == probes
        # Serial mode has no scheduler to snapshot.
        assert snapshot["scheduler"] is None

        # The exposition text renders all of it.
        assert "# TYPE repro_op_seconds histogram" in text
        assert 'repro_op_seconds_bucket{' in text
        assert 'op="observe"' in text and 'le="+Inf"' in text
        assert "# TYPE repro_decisions_total counter" in text
        assert "repro_decision_bus_depth 0" in text
        assert 'repro_health_status{probe="scheduler_staleness"} 0' in text

    def test_decision_counters_add_up(self, tmp_path):
        with ServingRuntime(tmp_path / "reg", capacity=8,
                            model_factory=make_gem,
                            scheduler_interval=None) as runtime:
            decisions = stream(provision_all(runtime) or runtime)
            families = runtime.metrics()["families"]
        by_result = {"inside": 0.0, "outside": 0.0}
        for series in families["repro_decisions_total"]["series"]:
            by_result[series["labels"]["result"]] += series["value"]
        assert by_result["inside"] == sum(d.inside for d in decisions)
        assert by_result["outside"] == sum(not d.inside for d in decisions)
        # Observe latency histogram saw every observation.
        observed = sum(s["count"]
                       for s in families["repro_op_seconds"]["series"]
                       if s["labels"]["op"] == "observe")
        assert observed == len(decisions)

    def test_checkpoint_bytes_and_chain_metrics_flow(self, tmp_path):
        with ServingRuntime(tmp_path / "reg", capacity=8,
                            model_factory=make_gem, incremental=True,
                            scheduler_interval=None) as runtime:
            provision_all(runtime)
            runtime.flush()            # full saves
            stream(runtime)
            runtime.flush()            # delta saves on top
            families = runtime.metrics()["families"]
        kinds = {s["labels"]["kind"]: s["value"]
                 for s in families["repro_checkpoint_bytes_total"]["series"]}
        assert kinds["full"] > 0
        assert kinds["delta"] > 0
        chain = families["repro_delta_chain_length"]["series"][0]["value"]
        assert chain >= 1

    def test_identical_runs_write_identical_bytes(self, tmp_path):
        """Every per-save manifest field is fixed-width, so two identical
        runs write the same byte counts, full saves and deltas alike."""
        def run(root):
            with ServingRuntime(root, capacity=8, model_factory=make_gem,
                                incremental=True,
                                scheduler_interval=None) as runtime:
                provision_all(runtime)     # full saves
                stream(runtime)
                runtime.flush()            # delta saves on top
                families = runtime.metrics()["families"]
            written = {s["labels"]["kind"]: s["value"] for s in
                       families["repro_checkpoint_bytes_total"]["series"]}
            # File names carry save nonces; sizes per tenant must match.
            on_disk = sorted((path.parent.name, path.name.split("-")[0],
                              path.stat().st_size)
                             for path in root.rglob("*") if path.is_file())
            return written, on_disk

        first, second = run(tmp_path / "a"), run(tmp_path / "b")
        assert set(first[0]) == {"full", "delta"}
        assert first == second

    def test_observability_off_raises_and_costs_nothing(self, tmp_path):
        runtime = ServingRuntime(tmp_path / "reg", model_factory=make_gem, observability=False,
                                 scheduler_interval=None)
        assert runtime.metrics_registry is None
        assert runtime.tracer is None
        with pytest.raises(RuntimeError, match="observability=False"):
            runtime.metrics()
        with pytest.raises(RuntimeError, match="observability=False"):
            runtime.export_prometheus()
        runtime.close()

    def test_background_mode_reports_scheduler_and_pump_age(self, tmp_path):
        with ServingRuntime(tmp_path / "reg", capacity=8,
                            model_factory=make_gem,
                            policy=MaintenancePolicy(check_every=8,
                                                     refresh_every=16),
                            scheduler_interval=0.01) as runtime:
            provision_all(runtime)
            stream(runtime, n=30)
            deadline = [runtime.scheduler.stats()["ticks"] for _ in range(1)]
            for _ in range(200):
                if runtime.scheduler.stats()["ticks"] >= deadline[0] + 2:
                    break
                threading.Event().wait(0.01)
            snapshot = runtime.metrics()
        scheduler = snapshot["scheduler"]
        assert scheduler["ticks"] >= 2
        assert isinstance(scheduler["errors"], dict)
        assert 0.0 <= scheduler["last_pump_age"] < 60.0
        age = snapshot["families"]["repro_scheduler_last_pump_age_seconds"]
        assert age["labels"] == []
        assert len(age["series"]) == 1


class TestBitIdentity:
    """Acceptance: decisions are bit-identical with observability on/off."""

    def test_instrumented_stream_matches_uninstrumented(self, tmp_path):
        policy = MaintenancePolicy(check_every=8, refresh_every=16)
        decisions = {}
        for name, observability in (("on", True), ("off", False)):
            with ServingRuntime(tmp_path / name, capacity=2,
                                model_factory=make_gem, policy=policy,
                                observability=observability,
                                scheduler_interval=None) as runtime:
                provision_all(runtime)
                decisions[name] = stream(runtime, n=60)
                runtime.maintain()
                decisions[name] += stream(runtime, n=15)
        assert decisions["on"] == decisions["off"]


# ----------------------------------------------------------------------
# Satellite: telemetry conservation under concurrency
# ----------------------------------------------------------------------
class TestTelemetryConservation:
    def test_concurrent_recording_loses_no_count(self):
        """N threads recording M decisions each: totals count N * M."""
        telemetry = FleetTelemetry()
        decision = GeofenceDecision(inside=True, score=0.1, confident=True,
                                    buffered=True)
        threads, per_thread = 4, 500
        start = threading.Barrier(threads)

        def hammer(worker: int) -> None:
            start.wait()
            for i in range(per_thread):
                telemetry.record_observations(f"t{worker}-{i % 7}", [decision])

        pool = [threading.Thread(target=hammer, args=(w,)) for w in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # switch threads as often as possible
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        totals = telemetry.totals()
        assert totals.observations == totals.inside == threads * per_thread
        assert totals.buffered == threads * per_thread


# ----------------------------------------------------------------------
# Satellite: scheduler error log
# ----------------------------------------------------------------------
class PumpBombPolicy:
    """Stands in for a MaintenancePolicy that blows up when evaluated.

    ``check_every == 1`` evaluates it at every decision the pump folds
    in, so each pump pops one decision and raises.
    """

    check_every = 1

    @property
    def min_update_rate(self):
        raise RuntimeError("policy exploded mid-pump")

    def is_noop(self) -> bool:
        return False


class TestSchedulerErrorLog:
    @pytest.fixture()
    def runtime(self, tmp_path):
        with ServingRuntime(tmp_path / "reg", capacity=8,
                            model_factory=make_gem,
                            policy=PumpBombPolicy(),
                            scheduler_interval=None) as runtime:
            provision_all(runtime)
            yield runtime

    def test_pump_errors_are_visible_and_the_bus_keeps_draining(self, runtime):
        scheduler = MaintenanceScheduler(runtime, interval=0.01,
                                         metrics=runtime.metrics_registry)
        stream(runtime, n=3)
        for round_no in range(1, 4):
            drained = scheduler.tick()
            assert drained == 1            # each failed pump still pops one
            stats = scheduler.stats()
            assert stats["errors"] == round_no       # int, backward compat
            assert stats["decisions_drained"] == round_no
            assert stats["pending"] == 3 - round_no
            # No pump completed, so the scheduler reads as stale.
            assert scheduler.last_pump_age() is None

        snapshot = scheduler.snapshot(recent_errors=2)
        assert snapshot["errors"]["count"] == 3      # cumulative
        assert len(snapshot["errors"]["recent"]) == 2  # bounded view
        entry = snapshot["errors"]["recent"][-1]
        assert "policy exploded mid-pump" in entry["error"]
        assert "\n" not in entry["error"]            # one line per entry

        # The counter mirrors the cumulative total.
        counter = runtime.metrics_registry.get("repro_scheduler_errors_total")
        assert counter.value == 3

        # An empty bus pumps cleanly again.
        assert scheduler.tick() == 0
        assert scheduler.last_pump_age() is not None
        assert scheduler.stats()["errors"] == 3

    def test_snapshot_recent_window_tracks_the_tail(self, runtime):
        scheduler = MaintenanceScheduler(runtime, interval=0.01)
        stream(runtime, n=10)
        for _ in range(10):
            scheduler.tick()
        snapshot = scheduler.snapshot(recent_errors=4)
        assert snapshot["errors"]["count"] == 10
        assert len(snapshot["errors"]["recent"]) == 4
        assert snapshot["errors"]["count"] >= len(scheduler.errors)


# ----------------------------------------------------------------------
# Satellite: failed-refresh streaks and the stuck_refresh probe
# ----------------------------------------------------------------------
class FlakyFleet:
    """Refresh fails ``failures`` times, then succeeds forever; tenant
    ``t1``'s spec carries ``policy`` as its maintenance block."""

    def __init__(self, failures: int, policy: MaintenancePolicy):
        self.failures = failures
        self.policy = policy
        self.resident_tenants: list[str] = []

    def maintenance_policy(self, tenant_id):
        return self.policy if tenant_id == "t1" else None

    def refresh(self, tenant_id):
        if self.failures > 0:
            self.failures -= 1
            raise ValueError("empty inlier reservoir")
        return 1

    def is_dirty(self, tenant_id):
        return False


class TestFailedRefreshStreaks:
    def drive(self, controller, tenant: str, rounds: int) -> None:
        decision = GeofenceDecision(inside=True, score=0.1)
        for _ in range(rounds * 4):
            controller.step(tenant, decision)

    def test_streak_grows_then_resets_on_success(self):
        policy = MaintenancePolicy(check_every=4, refresh_every=4)
        controller = FleetController(FlakyFleet(failures=3, policy=policy))
        self.drive(controller, "t1", rounds=2)
        assert controller.stuck_streaks() == {"t1": 2}
        self.drive(controller, "t1", rounds=1)
        assert controller.stuck_streaks() == {"t1": 3}
        # Fourth attempt succeeds and clears the streak entirely.
        self.drive(controller, "t1", rounds=1)
        assert controller.stuck_streaks() == {}
        failed = [a for _, a in controller.actions if a.startswith("refresh-failed")]
        assert len(failed) == 3

    def test_failed_actions_reach_the_metrics_counter(self):
        registry = MetricsRegistry()
        policy = MaintenancePolicy(check_every=4, refresh_every=4)
        controller = FleetController(FlakyFleet(failures=2, policy=policy),
                                     metrics=registry)
        self.drive(controller, "t1", rounds=3)
        family = registry.get("repro_maintenance_actions_total")
        counts = {s["labels"]["action"]: s["value"]
                  for s in registry.snapshot()
                  ["repro_maintenance_actions_total"]["series"]}
        assert counts["refresh-failed"] == 2
        assert counts["refresh"] == 1
        assert family is not None

    def test_stuck_refresh_probe_escalates_on_a_real_runtime(self, tmp_path):
        # An arm without refresh capability makes every coordinated
        # refresh fail with a TypeError — the real-world stuck tenant.
        policy = MaintenancePolicy(check_every=5, refresh_every=5)
        with ServingRuntime(tmp_path / "reg", capacity=8,
                            model_factory=SignatureHome,
                            policy=policy,
                            scheduler_interval=None) as runtime:
            provision_all(runtime)

            def probe():
                return runtime.metrics()["health"]["stuck_refresh"]

            assert probe()["status"] == "ok"
            records = synthetic_records(40, num_macs=10, seed=7, center=3.0)
            for record in records[:10]:
                runtime.observe(TENANTS[0], record)
            runtime.maintain()   # serial mode: pump the decision bus
            result = probe()     # two failed refreshes -> warn
            assert result["status"] in {"warn", "critical"}
            assert TENANTS[0] in result["detail"]
            for record in records[10:]:
                runtime.observe(TENANTS[0], record)
            runtime.maintain()
            assert probe()["status"] == "critical"
            text = runtime.export_prometheus()
            assert 'repro_health_status{probe="stuck_refresh"} 2' in text
            streaks = runtime.controller.stuck_streaks()
            assert streaks[TENANTS[0]] >= 4
