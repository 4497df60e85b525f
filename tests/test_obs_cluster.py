"""Cluster observability: snapshot merging, health rollup, trace stitching."""

import random
import shutil
import threading

import pytest

from conftest import synthetic_records
from repro.core import GEM, GEMConfig
from repro.embedding.bisage import BiSAGEConfig
from repro.obs import (
    MetricsRegistry,
    Tracer,
    merged_family,
    merged_histogram,
    snapshot_to_json,
    tracing,
)
from repro.obs.cluster import (
    ClusterHealthMonitor,
    cluster_families,
    gauge_merge_mode,
    merge_worker_snapshots,
    stitch_traces,
)
from repro.obs.health import PROBE_THRESHOLDS
from repro.serve import ServingRuntime
from repro.serve.cluster import Router, spawn_local_worker

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))
TENANTS = [f"tenant-{i}" for i in range(4)]


def make_gem() -> GEM:
    return GEM(FAST_CONFIG)


def tenant_records(tenant: int, n: int = 25):
    return synthetic_records(n, num_macs=10, seed=tenant, center=2.0 + tenant)


def interleaved_stream(n: int = 40):
    mixed = synthetic_records(n, num_macs=10, seed=321)
    return [(TENANTS[i % len(TENANTS)], record) for i, record in enumerate(mixed)]


@pytest.fixture(scope="module")
def seed_registry(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-cluster-seed") / "registry"
    with ServingRuntime(root, model_factory=make_gem,
                        scheduler_interval=None) as runtime:
        for index, tenant in enumerate(TENANTS):
            runtime.provision(tenant, tenant_records(index))
    return root


def fresh_copy(seed_registry, tmp_path, name: str):
    target = tmp_path / name
    shutil.copytree(seed_registry, target)
    return target


def local_router(root, **kwargs) -> Router:
    kwargs.setdefault("launcher", spawn_local_worker)
    kwargs.setdefault("num_workers", 3)
    return Router(root, **kwargs)


# ----------------------------------------------------------------------
# Helpers: build snapshot-form families without a live registry.
# ----------------------------------------------------------------------
def counter_family(values: dict[str, float], label: str = "tenant_class") -> dict:
    return {"type": "counter", "help": "t", "labels": [label],
            "series": [{"labels": {label: key}, "value": value}
                       for key, value in sorted(values.items())]}


def gauge_family(values: dict[str, float], label: str = "tenant_class") -> dict:
    family = counter_family(values, label)
    family["type"] = "gauge"
    return family


def registry_with_histogram(samples, bounds=(0.01, 0.1, 1.0)):
    registry = MetricsRegistry()
    histogram = registry.histogram("repro_test_seconds", help="t",
                                   labels=("tenant_class",), buckets=bounds)
    for label, value in samples:
        histogram.labels(tenant_class=label).observe(value)
    return registry.snapshot()["repro_test_seconds"]


# ----------------------------------------------------------------------
# merged_family / merge_worker_snapshots edge cases (satellite)
# ----------------------------------------------------------------------
class TestMergedFamily:
    def test_empty_worker_set_raises(self):
        with pytest.raises(ValueError, match="empty worker set"):
            merged_family([])
        with pytest.raises(ValueError, match="empty worker set"):
            merge_worker_snapshots([])

    def test_bad_gauge_mode_rejected(self):
        with pytest.raises(ValueError, match="gauge_mode"):
            merged_family([gauge_family({"0": 1.0})], gauge_mode="median")

    def test_mismatched_shape_rejected(self):
        counter = counter_family({"0": 1.0})
        with pytest.raises(ValueError, match="mismatched shape"):
            merged_family([counter, gauge_family({"0": 1.0})])
        with pytest.raises(ValueError, match="mismatched shape"):
            merged_family([counter, counter_family({"0": 1.0}, label="op")])

    def test_one_worker_merge_is_byte_for_byte(self):
        # A one-worker cluster's merged export must be exactly that
        # worker's snapshot — canonical JSON equality, not approx.
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", help="t",
                                   labels=("tenant_class",))
        counter.labels(tenant_class="0").inc(3)
        histogram = registry.histogram("repro_test_seconds", help="t",
                                       labels=("op",))
        histogram.labels(op="observe").observe(0.25)
        snapshot = registry.snapshot()
        merged = merge_worker_snapshots([snapshot])
        assert snapshot_to_json(merged) == snapshot_to_json(snapshot)

    def test_disjoint_label_children_union(self):
        # A label value only worker 1 served passes through untouched
        # while shared keys sum.
        merged = merged_family([counter_family({"0": 2.0}),
                                counter_family({"0": 3.0, "1": 7.0})])
        series = {entry["labels"]["tenant_class"]: entry["value"]
                  for entry in merged["series"]}
        assert series == {"0": 5.0, "1": 7.0}
        assert [e["labels"]["tenant_class"] for e in merged["series"]] == ["0", "1"]

    def test_counter_totals_are_exact_sums(self):
        # Property: for any worker partition of the same event stream,
        # merged totals equal the per-key sums exactly.
        rng = random.Random(7)
        workers = []
        expected: dict[str, float] = {}
        for _ in range(5):
            values = {str(key): float(rng.randint(0, 100))
                      for key in range(rng.randint(1, 4))}
            workers.append(counter_family(values))
            for key, value in values.items():
                expected[key] = expected.get(key, 0.0) + value
        merged = merged_family(workers)
        assert {entry["labels"]["tenant_class"]: entry["value"]
                for entry in merged["series"]} == expected

    def test_histograms_fold_through_merged_histogram(self):
        rng = random.Random(11)
        parts = [[("0", rng.uniform(0.001, 2.0)) for _ in range(20)]
                 for _ in range(3)]
        families = [registry_with_histogram(part) for part in parts]
        merged = merged_family(families)
        whole = registry_with_histogram([s for part in parts for s in part])
        (entry,), (direct,) = merged["series"], whole["series"]
        # Counts and cumulative buckets are integers: exact.  The sum
        # differs from single-stream order only by float associativity.
        assert (entry["count"], entry["buckets"]) == (
            direct["count"], direct["buckets"])
        assert entry["sum"] == pytest.approx(direct["sum"])
        expected = merged_histogram([f["series"][0] for f in families])
        assert (entry["count"], entry["buckets"], entry["sum"]) == (
            expected["count"], expected["buckets"], expected["sum"])

    def test_gauge_modes(self):
        parts = [gauge_family({"0": 3.0, "1": 1.0}), gauge_family({"0": 2.0})]
        total = merged_family(parts, gauge_mode="sum")
        worst = merged_family(parts, gauge_mode="max")
        assert [e["value"] for e in total["series"]] == [5.0, 1.0]
        assert [e["value"] for e in worst["series"]] == [3.0, 1.0]

    def test_gauge_merge_mode_rules(self):
        assert gauge_merge_mode("repro_tenants_resident") == "sum"
        assert gauge_merge_mode("repro_health_value") == "max"
        assert gauge_merge_mode("repro_scheduler_last_cycle_age_seconds") == "max"
        assert gauge_merge_mode("repro_replication_lag_seconds") == "max"

    def test_merge_worker_snapshots_union_of_families(self):
        merged = merge_worker_snapshots([
            {"repro_a_total": counter_family({"0": 1.0})},
            {"repro_a_total": counter_family({"0": 2.0}),
             "repro_b_total": counter_family({"0": 9.0})},
        ])
        assert sorted(merged) == ["repro_a_total", "repro_b_total"]
        assert merged["repro_a_total"]["series"][0]["value"] == 3.0
        assert merged["repro_b_total"]["series"][0]["value"] == 9.0


class TestClusterFamilies:
    def test_worker_label_added_alongside_aggregate(self):
        out = cluster_families(
            {"repro_router_requests_total": counter_family({"observe": 5.0},
                                                           label="op")},
            {0: {"repro_decisions_total": counter_family({"0": 2.0})},
             1: {"repro_decisions_total": counter_family({"0": 3.0})}})
        family = out["repro_decisions_total"]
        assert family["labels"] == ["tenant_class", "worker"]
        rows = {tuple(sorted(e["labels"].items())): e["value"]
                for e in family["series"]}
        assert rows[(("tenant_class", "0"),)] == 5.0                    # aggregate
        assert rows[(("tenant_class", "0"), ("worker", "0"))] == 2.0
        assert rows[(("tenant_class", "0"), ("worker", "1"))] == 3.0
        # Router-local families pass through untouched.
        assert out["repro_router_requests_total"]["labels"] == ["op"]

    def test_worker_health_gauges_dropped(self):
        out = cluster_families(
            {}, {0: {"repro_health_value": gauge_family({"x": 1.0},
                                                        label="probe")}})
        assert "repro_health_value" not in out


# ----------------------------------------------------------------------
# Trace propagation: inject/extract and cross-process stitching
# ----------------------------------------------------------------------
class TestTraceInjection:
    def test_inject_mints_prefixed_idempotent_ids(self):
        tracer = Tracer(slow_threshold=0.0, trace_prefix="router")
        with tracer.span("cluster.observe") as span:
            context = tracer.inject(span)
            assert context == {"trace_id": "router-1", "span_id": "router-1"}
            assert tracer.inject(span) == context   # idempotent

    def test_context_extraction_links_remote_parent(self):
        router = Tracer(slow_threshold=0.0, trace_prefix="router")
        worker = Tracer(slow_threshold=0.0)
        with router.span("cluster.observe") as parent:
            context = router.inject(parent)
        with worker.span("worker.observe", context=context) as child:
            pass
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert child.span_id is None        # minted only when propagated on

    def test_inject_unique_under_concurrent_threads(self):
        # itertools.count is atomic under the GIL; hammer it anyway —
        # duplicate span ids would silently cross-wire stitched traces.
        tracer = Tracer(slow_threshold=0.0, trace_prefix="r")
        minted: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def mint(n: int) -> None:
            barrier.wait()
            local: list[str] = []
            for _ in range(n):
                with tracer.span("op") as span:
                    local.append(tracer.inject(span)["span_id"])
            with lock:
                minted.extend(local)

        threads = [threading.Thread(target=mint, args=(200,))
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(minted) == 8 * 200
        assert len(set(minted)) == len(minted)


class TestStitchTraces:
    def router_snapshot(self):
        tracer = Tracer(slow_threshold=0.0, trace_prefix="router")
        contexts = []
        for _ in range(2):
            with tracer.span("cluster.observe") as span:
                contexts.append(tracer.inject(span))
        return tracer.snapshot(), contexts

    def worker_snapshot(self, context):
        tracer = Tracer(slow_threshold=0.0)
        with tracer.span("worker.observe", context=context) as span:
            with tracer.span("observe.fleet"):
                pass
        tracer.inject(span)
        return tracer.snapshot()

    def test_worker_roots_graft_under_router_spans(self):
        router, contexts = self.router_snapshot()
        stitched = stitch_traces(router,
                                 {0: self.worker_snapshot(contexts[0]),
                                  1: self.worker_snapshot(contexts[1])})
        roots = stitched["slow_traces"]
        assert [t["span_id"] for t in roots] == ["router-1", "router-2"]
        for index, root in enumerate(roots):
            (child,) = root["children"]
            assert child["name"] == "worker.observe"
            assert child["attrs"]["worker"] == str(index)
            assert child["parent_id"] == root["span_id"]
            assert [g["name"] for g in child["children"]] == ["observe.fleet"]

    def test_unmatched_worker_traces_kept_as_orphans(self):
        router, _ = self.router_snapshot()
        orphan = self.worker_snapshot({"trace_id": "elsewhere-9",
                                       "span_id": "elsewhere-9"})
        stitched = stitch_traces(router, {2: orphan})
        tails = [t for t in stitched["slow_traces"]
                 if t.get("attrs", {}).get("worker") == "2"]
        assert len(tails) == 1
        assert tails[0]["parent_id"] == "elsewhere-9"

    def test_aggregates_merge_by_name_and_inputs_unmutated(self):
        router, contexts = self.router_snapshot()
        worker = self.worker_snapshot(contexts[0])
        before = snapshot_to_json(worker)
        stitched = stitch_traces(router, {0: worker})
        assert stitched["spans"]["cluster.observe"]["count"] == 2
        # Aggregates track roots only; the worker's root merges in.
        assert stitched["spans"]["worker.observe"]["count"] == 1
        # Stitching deep-copies: the shipped snapshot is not mutated.
        assert snapshot_to_json(worker) == before

    def test_no_router_tracer_still_reports_worker_traces(self):
        worker = self.worker_snapshot({"trace_id": "x", "span_id": "x"})
        stitched = stitch_traces(None, {0: worker})
        assert stitched["slow_threshold"] == 0.0
        assert len(stitched["slow_traces"]) == 1


# ----------------------------------------------------------------------
# ClusterHealthMonitor rollup
# ----------------------------------------------------------------------
def probe_dict(name, value=0.0, status="ok", warn_at=1.0, critical_at=2.0,
               detail=""):
    return {"probe": name, "value": value, "status": status,
            "warn_at": warn_at, "critical_at": critical_at, "detail": detail}


class TestClusterHealthMonitor:
    def test_quiet_cluster_is_ok(self):
        monitor = ClusterHealthMonitor()
        report = monitor.report({0: True, 1: True},
                                {0: {"p": probe_dict("p")},
                                 1: {"p": probe_dict("p")}})
        assert report["status"] == "ok"
        assert report["probes"]["worker_up"]["value"] == 0.0
        assert sorted(report["workers"]) == ["0", "1"]

    def test_dead_worker_is_critical(self):
        folded = ClusterHealthMonitor().check({0: True, 1: False, 2: False})
        assert folded["worker_up"].status == "critical"
        assert folded["worker_up"].value == 2.0
        assert "[1, 2]" in folded["worker_up"].detail

    def test_fold_takes_the_worst_worker(self):
        folded = ClusterHealthMonitor().check(
            {0: True, 1: True},
            {0: {"p": probe_dict("p", value=1.0, status="warn",
                                 detail="queue deep")},
             1: {"p": probe_dict("p", value=0.0)}})
        assert folded["p"].status == "warn"
        assert folded["p"].detail == "worker 0: queue deep"

    def test_replication_lag_graded_by_thresholds(self):
        monitor = ClusterHealthMonitor()
        assert PROBE_THRESHOLDS["replication_lag"] == (5.0, 30.0)
        assert monitor.check({0: True})["replication_lag"].status == "ok"
        assert monitor.check(
            {0: True}, replication_lag=4.9)["replication_lag"].status == "ok"
        lagging = monitor.check({0: True}, replication_lag=5.0)
        assert lagging["replication_lag"].status == "warn"
        assert lagging["replication_lag"].warn_at == 5.0
        assert monitor.check(
            {0: True}, replication_lag=30.0)["replication_lag"].status == "critical"
        assert monitor.check(
            {0: True}, replication_lag=60.0)["replication_lag"].status == "critical"

    def test_unresponsive_worker_probes_skipped(self):
        # A timed-out worker ships None — it must not crash the fold.
        folded = ClusterHealthMonitor().check(
            {0: True, 1: False},
            {0: {"p": probe_dict("p")}, 1: None})
        assert folded["worker_up"].status == "critical"
        assert folded["p"].status == "ok"

    def test_gauges_carry_probe_and_worker_labels(self):
        registry = MetricsRegistry()
        monitor = ClusterHealthMonitor(metrics=registry)
        monitor.check({0: True, 1: False},
                      {0: {"p": probe_dict("p", value=2.0, status="warn")}},
                      replication_lag=0.5)
        snapshot = registry.snapshot()
        value = {(e["labels"]["probe"], e["labels"]["worker"]): e["value"]
                 for e in snapshot["repro_health_value"]["series"]}
        assert value[("worker_up", "cluster")] == 1.0
        assert value[("worker_up", "0")] == 0.0
        assert value[("worker_up", "1")] == 1.0
        assert value[("p", "cluster")] == 2.0
        assert value[("p", "0")] == 2.0
        assert value[("replication_lag", "router")] == 0.5
        status = {(e["labels"]["probe"], e["labels"]["worker"]): e["value"]
                  for e in snapshot["repro_health_status"]["series"]}
        assert status[("p", "cluster")] == 1.0
        assert status[("worker_up", "1")] == 2.0


# ----------------------------------------------------------------------
# Router integration: exact aggregation, identity, live stats, traces
# ----------------------------------------------------------------------
class TestRouterObservability:
    def test_merged_counters_equal_sum_of_worker_series(self, seed_registry,
                                                        tmp_path):
        # Acceptance property: for every counter family, the aggregated
        # series equals the exact sum across worker-labeled series, and
        # histograms equal merged_histogram of the per-worker shipments.
        with local_router(fresh_copy(seed_registry, tmp_path, "r")) as router:
            for tenant, record in interleaved_stream():
                router.observe(tenant, record)
            per_worker = router.worker_metrics()
            families = router.metrics()["families"]
        assert all(snapshot is not None for snapshot in per_worker.values())
        shipped_names = sorted({name for snap in per_worker.values()
                                for name in snap["families"]})
        checked = 0
        for name in shipped_names:
            if name.startswith("repro_health_"):
                continue    # re-expressed by the rollup, dropped from merge
            family = families[name]
            assert family["labels"][-1] == "worker"
            aggregated = [e for e in family["series"]
                          if "worker" not in e["labels"]]
            shipped = [per_worker[i]["families"][name]
                       for i in sorted(per_worker)
                       if name in per_worker[i]["families"]]
            expected = merged_family(shipped, gauge_mode=gauge_merge_mode(name))
            assert aggregated == expected["series"]
            checked += 1
        assert checked >= 3     # decisions, op latency, checkpoint bytes, ...

    def test_decisions_identical_with_obs_on_and_off(self, seed_registry,
                                                     tmp_path):
        stream = interleaved_stream()
        with local_router(fresh_copy(seed_registry, tmp_path, "on"),
                          observability=True) as router:
            on = [router.observe(t, r) for t, r in stream]
        with local_router(fresh_copy(seed_registry, tmp_path, "off"),
                          observability=False) as router:
            off = [router.observe(t, r) for t, r in stream]
        assert on == off

    def test_observability_off_disables_collection_not_health(
            self, seed_registry, tmp_path):
        with local_router(fresh_copy(seed_registry, tmp_path, "off"),
                          observability=False) as router:
            router.observe(*interleaved_stream(1)[0])
            metrics = router.metrics()
            assert router.tracer is None
            assert metrics["traces"]["slow_traces"] == []
            assert "repro_decisions_total" not in metrics["families"]
            # Liveness and replication still grade without worker probes.
            assert metrics["health"]["worker_up"]["status"] == "ok"
            report = router.health_report()
            assert report["status"] == "ok"
            assert report["workers"] == {}

    def test_live_stats_mid_run(self, seed_registry, tmp_path):
        with local_router(fresh_copy(seed_registry, tmp_path, "s")) as router:
            stream = interleaved_stream()
            for tenant, record in stream:
                router.observe(tenant, record)
            stats = router.stats()
        assert stats["live_workers"] == 3
        assert stats["unresponsive"] == []
        assert stats["resident"] == len(TENANTS)
        assert stats["totals"]["observations"] == len(stream)
        assert stats["requests"] == sum(w["requests"]
                                        for w in stats["workers"])

    def test_slow_traces_stitch_router_to_worker(self, seed_registry,
                                                 tmp_path, monkeypatch):
        # The workers run in-process, so one patch covers every tracer.
        monkeypatch.setattr(tracing, "SLOW_TRACE_THRESHOLD", 0.0)
        with local_router(fresh_copy(seed_registry, tmp_path, "t")) as router:
            router.observe(*interleaved_stream(1)[0])
            traces = router.metrics()["traces"]
        # A single observe travels as an observe_many of one item.
        roots = [t for t in traces["slow_traces"]
                 if t["name"] == "cluster.observe_many"]
        assert roots, "router roots missing from stitched traces"
        root = roots[0]
        assert root["trace_id"].startswith("router-")
        children = [c for c in root.get("children", ())
                    if c["name"] == "worker.observe_many"]
        assert children and children[0]["trace_id"] == root["trace_id"]
        assert children[0]["parent_id"] == root["span_id"]

    def test_prometheus_export_has_worker_labeled_series(self, seed_registry,
                                                         tmp_path):
        with local_router(fresh_copy(seed_registry, tmp_path, "p")) as router:
            router.observe(*interleaved_stream(1)[0])
            text = router.export_prometheus()
        assert 'repro_decisions_total{' in text
        assert 'worker="0"' in text
        assert 'repro_health_status{probe="worker_up",worker="cluster"} 0' in text
