"""Per-layer metrics from one traced run's spans.

Time metrics are per 1000 observations of the timed window (``_per_kobs``)
or per event.  Counts cover the timed window.  A layer the workload does
not exercise reports 0.
"""

from __future__ import annotations

from spans import Span, self_times


def window_pairs(spans: list[Span], start: float, end: float):
    own = self_times(spans)
    return [(span, own[i]) for i, span in enumerate(spans)
            if span.start >= start and span.end <= end]


def self_by_name(pairs) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in pairs:
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def layer_metrics(client: list[Span], worker: list[Span], window: tuple,
                  observations: int, batches: int, router_cpu_s: float,
                  worker_busy_s: float, evictions: int,
                  plain_throughput: float, traced_throughput: float) -> dict:
    start, end = window
    client_pairs = window_pairs(client, start, end)
    # Server-side spans come from this process, or from the worker
    # process on the routed workload; the clock is shared.
    server_pairs = window_pairs(worker, start, end) if worker else client_pairs
    kobs = observations / 1000.0
    wall = end - start

    def spans_named(name, pairs=server_pairs):
        return [span for span, _ in pairs if span.name == name]

    def seconds(name, pairs=server_pairs) -> float:
        return sum(span.duration for span in spans_named(name, pairs))

    def own(name, pairs=server_pairs) -> float:
        return sum(o for span, o in pairs if span.name == name)

    def per_kobs(value_s: float) -> float:
        return 1e3 * value_s / kobs

    def per_event(name, pairs=server_pairs) -> float:
        found = spans_named(name, pairs)
        return 1e3 * sum(s.duration for s in found) / len(found) if found else 0.0

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    routed = bool(worker)
    saves = spans_named("checkpoint.save")
    delta = sum(1 for s in saves if s.attrs.get("kind") == "delta")
    written = sum(s.attrs.get("bytes", 0) for s in saves)
    plane = spans_named("batchplane.observe_batch")
    considered = spans_named("quarantine.consider")
    recovers = spans_named("controller.recover")
    frames = spans_named("cluster.write_frame", client_pairs)
    # bisage.fit_s covers set-up fits too, so it reads every span.
    fits = [s for s in (worker or client) if s.name == "bisage.fit"]
    residual = wall - sum(o for _, o in client_pairs)

    return {
        "cluster.router_cpu_ms_per_kobs": per_kobs(router_cpu_s) if routed else 0.0,
        "cluster.encode_ms_per_kobs": per_kobs(seconds("cluster.encode", client_pairs)),
        "cluster.decode_ms_per_kobs": per_kobs(seconds("cluster.decode", client_pairs)),
        "cluster.wire_bytes_per_obs": (sum(s.attrs.get("bytes", 0) for s in frames)
                                       / observations),
        "cluster.worker_busy_ms_per_kobs": per_kobs(worker_busy_s),
        "cluster.wait_ms_per_kobs": per_kobs(own("cluster.observe_many", client_pairs)),
        "fleet.self_ms_per_kobs": per_kobs(own("runtime.observe_many")
                                           + own("fleet.observe_many")),
        "fleet.loads": len(spans_named("fleet.load")),
        "fleet.evictions": evictions,
        "fleet.load_ms_per_load": per_event("fleet.load"),
        "checkpoint.saves": len(saves),
        "checkpoint.delta_ratio": ratio(delta, len(saves)),
        "checkpoint.save_ms_per_save": per_event("checkpoint.save"),
        "checkpoint.bytes_per_save": written / len(saves) if saves else 0.0,
        "checkpoint.written_mb": written / 1e6,
        "gem.attach_ms_per_kobs": per_kobs(seconds("gem.attach")),
        "gem.embed_ms_per_kobs": per_kobs(seconds("gem.embed")),
        "gem.self_ms_per_kobs": per_kobs(own("gem.observe_many")),
        "batchplane.engaged_ratio": ratio(
            sum(1 for s in plane if s.attrs.get("outcome") == "engaged"), len(plane)),
        "histogram.score_ms_per_kobs": per_kobs(seconds("histogram.score")),
        "histogram.rows_scored_per_obs": (sum(s.attrs.get("rows", 0) for s in
                                              spans_named("histogram.score"))
                                          / observations),
        "histogram.update_ms_per_kobs": per_kobs(seconds("histogram.update")),
        "histogram.updates": len(spans_named("histogram.update")),
        "telemetry.record_ms_per_kobs": per_kobs(seconds("telemetry.record")),
        "quarantine.considered": len(considered),
        "quarantine.admitted_ratio": ratio(
            sum(1 for s in considered if s.attrs.get("outcome") == "admitted"),
            len(considered)),
        "quarantine.consider_ms_per_kobs": per_kobs(seconds("quarantine.consider")),
        "controller.maintain_ms_per_batch": (
            1e3 * seconds("client.maintain", client_pairs) / batches),
        "controller.refreshes": len(spans_named("controller.refresh")),
        "controller.refresh_ms_per_refresh": per_event("controller.refresh"),
        "controller.recoveries": sum(1 for s in recovers if not s.error),
        "controller.recover_ms_per_recovery": per_event("controller.recover"),
        "controller.rollbacks": sum(1 for s in recovers if s.error),
        "bisage.fit_s": (sum(s.duration for s in fits) / len(fits)) if fits else 0.0,
        "trace.residual_pct": 100.0 * residual / wall,
        "trace.overhead_pct": 100.0 * (plain_throughput / traced_throughput - 1.0),
    }


def self_time_table(pairs, wall: float) -> list[tuple[str, float, float]]:
    """``(span name, self ms, share of wall %)`` rows, largest first."""
    rows = [(name, 1e3 * value, 100.0 * value / wall)
            for name, value in self_by_name(pairs).items()]
    return sorted(rows, key=lambda row: -row[1])
