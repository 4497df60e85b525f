"""Unit tests for repro.obs: metrics, tracing, export, health."""

import json
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    HealthMonitor,
    Histogram,
    MetricsDumper,
    MetricsRegistry,
    ProbeResult,
    Tracer,
    bucket_quantile,
    histogram_percentiles,
    maybe_span,
    merged_histogram,
    render_prometheus,
    snapshot_to_json,
)
from repro.obs.health import DEFAULT_STARVATION_WINDOW, PROBE_THRESHOLDS
from repro.obs.tracing import SLOW_TRACE_RING


def histogram_series(values, buckets=DEFAULT_LATENCY_BUCKETS) -> dict:
    """The snapshot-form series of one histogram that observed ``values``."""
    registry = MetricsRegistry()
    child = registry.histogram("h_seconds", buckets=buckets).labels()
    for value in values:
        child.observe(value)
    return registry.snapshot()["h_seconds"]["series"][0]


# ----------------------------------------------------------------------
# bucket_quantile + histogram percentile math
# ----------------------------------------------------------------------
class TestBucketQuantile:
    def test_empty_returns_none(self):
        assert bucket_quantile((1.0, 2.0), [0, 0, 0], 0.5) is None

    def test_out_of_range_quantile_raises(self):
        with pytest.raises(ValueError, match="quantile"):
            bucket_quantile((1.0,), [1, 0], 1.5)
        with pytest.raises(ValueError, match="quantile"):
            bucket_quantile((1.0,), [1, 0], -0.1)

    def test_single_sample_interpolates_inside_its_bucket(self):
        # One sample in the (1.0, 2.0] bucket: every quantile lands in it.
        counts = [0, 1, 0]
        for q in (0.0, 0.5, 1.0):
            value = bucket_quantile((1.0, 2.0), counts, q)
            assert 1.0 <= value <= 2.0

    def test_first_bucket_interpolates_from_zero(self):
        # 10 samples in the first bucket (le=1.0): p50 = 0 + 0.5 * 1.0.
        assert bucket_quantile((1.0, 2.0), [10, 0, 0], 0.5) == pytest.approx(0.5)

    def test_overflow_clamps_to_largest_finite_bound(self):
        assert bucket_quantile((1.0, 2.0), [0, 0, 5], 0.99) == 2.0

    def test_exact_rank_arithmetic(self):
        # 4 samples le 1.0 and 4 in (1.0, 2.0]: p50 has target rank 4,
        # exactly exhausting the first bucket.
        assert bucket_quantile((1.0, 2.0), [4, 4, 0], 0.5) == pytest.approx(1.0)


class TestHistogram:
    def test_boundary_value_lands_in_le_bucket(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.0)          # le semantics: exactly 1.0 is <= 1.0
        h.observe(1.0001)
        h.observe(5.0)          # overflow
        assert h.bucket_counts() == [1, 1, 1]
        assert h.count == 3
        assert h.sum == pytest.approx(7.0001)

    def test_empty_percentiles_are_none(self):
        p = histogram_percentiles(histogram_series([]))
        assert p == {"p50": None, "p90": None, "p99": None}

    def test_single_sample_percentiles_share_a_bucket(self):
        p = histogram_percentiles(histogram_series([0.005], buckets=(0.001, 0.01, 0.1)))
        for value in p.values():
            assert 0.001 <= value <= 0.01

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram(buckets=())
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(buckets=(1.0, 1.0))

    def test_merge_of_per_shard_equals_histogram_of_merged_stream(self):
        # Shard-wise histograms fold exactly.
        stream_a = [0.0005, 0.003, 0.02, 0.3, 7.0]
        stream_b = [0.0001, 0.0008, 0.05, 0.05, 1.5, 20.0]
        merged = merged_histogram([histogram_series(stream_a), histogram_series(stream_b)])
        whole = histogram_series(stream_a + stream_b)
        assert merged["buckets"] == whole["buckets"]
        assert merged["count"] == whole["count"]
        assert merged["sum"] == pytest.approx(whole["sum"])
        assert histogram_percentiles(merged) == histogram_percentiles(whole)

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError, match="different bucket bounds"):
            merged_histogram([histogram_series([0.5], buckets=(1.0,)),
                              histogram_series([0.5], buckets=(2.0,))])


class TestCounterGauge:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(5.0)
        g.set(3.0)
        assert g.value == pytest.approx(3.0)
        g.set(4.5)
        assert g.value == pytest.approx(4.5)


class TestRegistry:
    def test_registration_idempotent_and_checked(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels=("shard",))
        assert reg.counter("x_total", labels=("shard",)) is a
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total", labels=("shard",))
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("x_total", labels=("op",))

    def test_label_validation(self):
        family = MetricsRegistry().counter("y_total", labels=("shard", "op"))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(shard="0")
        child = family.labels(shard="0", op="observe")
        assert family.labels(op="observe", shard="0") is child

    def test_unlabeled_family_is_the_metric(self):
        reg = MetricsRegistry()
        reg.counter("plain_total").inc(3)
        assert reg.counter("plain_total").labels().value == 3

    def test_snapshot_deterministic_bytes(self):
        # Satellite invariant: same state, same serialised bytes.
        def build():
            reg = MetricsRegistry()
            reg.counter("b_total", labels=("shard",)).labels(shard="1").inc(2)
            reg.counter("a_total").inc()
            h = reg.histogram("lat_seconds", labels=("op",))
            h.labels(op="observe").observe(0.004)
            h.labels(op="observe").observe(0.2)
            return reg.snapshot()

        first, second = build(), build()
        assert snapshot_to_json(first) == snapshot_to_json(second)
        assert json.loads(snapshot_to_json(first)) == first
        assert list(first) == sorted(first)

    def test_merged_histogram_matches_live_merge(self):
        reg = MetricsRegistry()
        fam = reg.histogram("lat_seconds", labels=("shard",))
        for shard, values in (("0", [0.001, 0.3]), ("1", [0.02, 0.02, 9.0])):
            for v in values:
                fam.labels(shard=shard).observe(v)
        entry = merged_histogram(reg.snapshot()["lat_seconds"]["series"])
        reference = histogram_series([0.001, 0.3, 0.02, 0.02, 9.0])
        assert entry["count"] == reference["count"]
        assert entry["sum"] == pytest.approx(reference["sum"])
        assert histogram_percentiles(entry) == histogram_percentiles(reference)

    def test_merged_histogram_empty_raises(self):
        with pytest.raises(ValueError, match="no histogram series"):
            merged_histogram([])


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer(slow_threshold=0.0)
        with tracer.span("refresh", tenant="t1"):
            with tracer.span("refresh.build"):
                pass
            with tracer.span("refresh.commit"):
                pass
        (trace,) = tracer.snapshot()["slow_traces"]
        assert trace["name"] == "refresh"
        assert [c["name"] for c in trace["children"]] == ["refresh.build",
                                                          "refresh.commit"]
        assert trace["attrs"] == {"tenant": "t1"}
        # Only the root feeds the aggregate.
        assert set(tracer.snapshot()["spans"]) == {"refresh"}

    def test_fast_roots_stay_out_of_the_ring(self):
        tracer = Tracer(slow_threshold=10.0)
        with tracer.span("observe"):
            pass
        assert tracer.snapshot()["slow_traces"] == []
        assert tracer.snapshot()["spans"]["observe"]["count"] == 1

    def test_ring_is_bounded(self):
        tracer = Tracer(slow_threshold=0.0)
        for i in range(SLOW_TRACE_RING + 1):
            with tracer.span("op", i=i):
                pass
        traces = tracer.snapshot()["slow_traces"]
        assert len(traces) == SLOW_TRACE_RING == 64
        # The oldest root fell out; the rest are kept in arrival order.
        assert [t["attrs"]["i"] for t in traces] \
            == [str(i) for i in range(1, SLOW_TRACE_RING + 1)]

    def test_exception_is_annotated_and_reraised(self):
        tracer = Tracer(slow_threshold=0.0)
        with pytest.raises(KeyError):
            with tracer.span("observe"):
                raise KeyError("boom")
        (trace,) = tracer.snapshot()["slow_traces"]
        assert trace["attrs"]["error"] == "KeyError"

    def test_current_tracks_the_open_span(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer"):
            with tracer.span("inner"):
                assert tracer.current().name == "inner"
            assert tracer.current().name == "outer"
        assert tracer.current() is None

    def test_threads_do_not_share_stacks(self):
        tracer = Tracer(slow_threshold=0.0)
        seen = []

        def worker():
            with tracer.span("worker"):
                seen.append(tracer.current().name)

        with tracer.span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            # The worker's span completed as its own root, not a child.
            assert tracer.current().name == "main"
        roots = {t["name"] for t in tracer.snapshot()["slow_traces"]}
        assert roots == {"worker", "main"}
        assert seen == ["worker"]

    def test_maybe_span_without_tracer_is_shared_noop(self):
        first, second = maybe_span(None, "a"), maybe_span(None, "b", x=1)
        assert first is second
        with first as span:
            assert span is None

    def test_validation(self):
        with pytest.raises(ValueError, match="slow_threshold"):
            Tracer(slow_threshold=-1)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("req_total", help="requests", labels=("shard",)) \
        .labels(shard="0").inc(7)
    reg.gauge("depth", help="queue depth").set(3)
    h = reg.histogram("lat_seconds", help="latency", labels=("op",),
                      buckets=(0.01, 0.1))
    for v in (0.005, 0.005, 0.05, 5.0):
        h.labels(op="observe").observe(v)
    return reg


class TestPrometheusRender:
    def test_exposition_shape(self):
        text = render_prometheus(sample_registry().snapshot())
        lines = text.splitlines()
        assert "# HELP req_total requests" in lines
        assert "# TYPE req_total counter" in lines
        assert 'req_total{shard="0"} 7' in lines
        assert "# TYPE depth gauge" in lines
        assert "depth 3" in lines
        assert "# TYPE lat_seconds histogram" in lines
        assert 'lat_seconds_bucket{op="observe",le="0.01"} 2' in lines
        assert 'lat_seconds_bucket{op="observe",le="0.1"} 3' in lines
        assert 'lat_seconds_bucket{op="observe",le="+Inf"} 4' in lines
        assert 'lat_seconds_count{op="observe"} 4' in lines
        sum_line = next(l for l in lines if l.startswith("lat_seconds_sum"))
        assert float(sum_line.split()[-1]) == pytest.approx(5.06)

    def test_accepts_full_runtime_metrics_dict(self):
        snapshot = {"families": sample_registry().snapshot(),
                    "health": {"x": {"status": "ok"}}, "traces": {}}
        assert render_prometheus(snapshot) == \
            render_prometheus(snapshot["families"])

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("esc_total", labels=("who",)) \
            .labels(who='a"b\\c\nd').inc()
        text = render_prometheus(reg.snapshot())
        assert r'esc_total{who="a\"b\\c\nd"} 1' in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_histogram_percentiles_match_live(self):
        reg = sample_registry()
        entry = reg.snapshot()["lat_seconds"]["series"][0]
        live = reg.histogram("lat_seconds", labels=("op",)).labels(op="observe")
        assert histogram_percentiles(entry) == {
            f"p{int(q * 100)}": bucket_quantile(live.bounds, live.bucket_counts(), q)
            for q in (0.5, 0.9, 0.99)}


class TestMetricsDumper:
    def test_dump_now_appends_snapshot_lines(self, tmp_path):
        reg = sample_registry()
        path = tmp_path / "metrics.jsonl"
        dumper = MetricsDumper(lambda: reg.snapshot(), path, interval=60.0)
        dumper.dump_now()
        reg.counter("req_total", labels=("shard",)).labels(shard="0").inc()
        dumper.dump_now()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 2
        assert all("at" in line for line in lines)
        assert dumper.lines_written == 2

    def test_stop_writes_a_final_line(self, tmp_path):
        reg = sample_registry()
        path = tmp_path / "metrics.jsonl"
        with MetricsDumper(lambda: reg.snapshot(), path, interval=60.0) as dumper:
            assert dumper.running
        assert not dumper.running
        assert len(path.read_text().splitlines()) == 1

    def test_bad_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            MetricsDumper(dict, tmp_path / "m.jsonl", interval=0)


# ----------------------------------------------------------------------
# Health
# ----------------------------------------------------------------------
class FakeController:
    def __init__(self, streaks):
        self._streaks = streaks

    def stuck_streaks(self):
        return dict(self._streaks)


class FakeFleet:
    quarantine_size = 0


class FakeTotals:
    def __init__(self, observations, inside):
        self.observations = observations
        self.inside = inside


class FakeRuntime:
    def __init__(self, totals, pending=0, streaks=()):
        self.controller = FakeController(dict(streaks))
        self.fleet = FakeFleet()
        self.pending_decisions = pending
        self._totals = totals

    def telemetry_totals(self):
        return self._totals


class TestHealthMonitor:
    def test_all_ok_on_a_quiet_runtime(self):
        monitor = HealthMonitor()
        runtime = FakeRuntime(FakeTotals(10, 5))
        results = monitor.check(runtime)
        assert set(results) == {"stuck_refresh", "reservoir_starvation",
                                "decision_bus_depth"}
        assert all(r.status == "ok" for r in results.values())

    def test_threshold_grading(self):
        assert ProbeResult("p", 1.0, "ok", 2.0, 4.0).level == 0
        monitor = HealthMonitor()
        assert PROBE_THRESHOLDS["stuck_refresh"] == (2.0, 4.0)
        quiet = FakeRuntime(FakeTotals(0, 0), streaks={"t": 1})
        warn = FakeRuntime(FakeTotals(0, 0), streaks={"t": 2})
        edge = FakeRuntime(FakeTotals(0, 0), streaks={"t": 4})
        critical = FakeRuntime(FakeTotals(0, 0), streaks={"t": 9})
        assert monitor.check(quiet)["stuck_refresh"].status == "ok"
        assert monitor.check(warn)["stuck_refresh"].status == "warn"
        assert monitor.check(edge)["stuck_refresh"].status == "critical"
        result = monitor.check(critical)["stuck_refresh"]
        assert result.status == "critical"
        assert "'t'" in result.detail and "9" in result.detail

    def test_starvation_counts_since_last_inside(self):
        monitor = HealthMonitor()
        window = DEFAULT_STARVATION_WINDOW
        assert PROBE_THRESHOLDS["reservoir_starvation"] == (window, 2 * window)
        assert monitor.check(
            FakeRuntime(FakeTotals(50, 5)))["reservoir_starvation"].value == 0
        # Just under a window since the last inside decision: still ok.
        assert monitor.check(FakeRuntime(FakeTotals(
            50 + window - 1, 5)))["reservoir_starvation"].status == "ok"
        # A full window more observations, no new inside decision: warn.
        result = monitor.check(
            FakeRuntime(FakeTotals(50 + window, 5)))["reservoir_starvation"]
        assert result.value == window
        assert result.status == "warn"
        # Critical at twice the window.
        assert monitor.check(FakeRuntime(FakeTotals(
            50 + 2 * window, 5)))["reservoir_starvation"].status == "critical"
        # One inside decision resets the window.
        assert monitor.check(FakeRuntime(FakeTotals(
            60 + 2 * window, 6)))["reservoir_starvation"].status == "ok"

    def test_bus_depth_reports_pending_decisions(self):
        monitor = HealthMonitor()
        assert PROBE_THRESHOLDS["decision_bus_depth"] == (1_000, 10_000)
        runtime = FakeRuntime(FakeTotals(0, 0), pending=1500)
        result = monitor.check(runtime)["decision_bus_depth"]
        assert result.value == 1500
        assert result.status == "warn"
        assert "1500 pending decisions" in result.detail
        for pending, status in ((999, "ok"), (10_000, "critical")):
            runtime = FakeRuntime(FakeTotals(0, 0), pending=pending)
            assert monitor.check(runtime)["decision_bus_depth"].status == status

    def test_results_mirror_into_gauges(self):
        reg = MetricsRegistry()
        monitor = HealthMonitor(metrics=reg)
        monitor.check(FakeRuntime(FakeTotals(0, 0), pending=1500))
        value = reg.gauge("repro_health_value",
                          labels=("probe",)).labels(probe="decision_bus_depth")
        status = reg.gauge("repro_health_status",
                           labels=("probe",)).labels(probe="decision_bus_depth")
        assert value.value == 1500
        assert status.value == 1  # warn

    def test_as_dict_round_trips_through_json(self):
        result = HealthMonitor().check(
            FakeRuntime(FakeTotals(0, 0)))["decision_bus_depth"]
        assert json.loads(json.dumps(result.as_dict()))["probe"] == \
            "decision_bus_depth"
