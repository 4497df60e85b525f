"""Export surfaces for :mod:`repro.obs.metrics` snapshots.

Two serialisations of the same deterministic snapshot dict:

* :func:`render_prometheus` — the text exposition format (version
  0.0.4) a Prometheus scrape expects: ``# HELP`` / ``# TYPE`` headers,
  one line per series, histograms as cumulative ``_bucket{le=...}``
  plus ``_sum`` / ``_count``.  Rendering works from the snapshot, not
  live metric objects, so a scrape handler can serve a consistent
  point-in-time view (and tests can assert on a frozen snapshot).
* :func:`snapshot_to_json` — canonical JSON (sorted keys, no float
  mangling) that ``json.loads`` reads back exactly; the same snapshot
  state always yields the same bytes.

:class:`MetricsDumper` is the opt-in background recorder: a daemon
thread that appends one ``{"at": ..., ...snapshot...}`` JSONL line per
interval (plus a final line at stop), giving every benchmark or daemon
run a self-contained metrics trail that ``python -m repro obs render``
can pretty-print after the fact.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Mapping

from repro.obs.metrics import bucket_quantile

__all__ = [
    "MetricsDumper",
    "diff_snapshots",
    "histogram_percentiles",
    "render_prometheus",
    "snapshot_to_json",
]


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_labels(labels: Mapping[str, str], extra: tuple[str, str] | None = None) -> str:
    items = list(labels.items())
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    body = ",".join(f'{name}="{_escape_label(str(value))}"' for name, value in items)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_bound(bound) -> str:
    if bound == "+Inf":
        return "+Inf"
    return _format_value(float(bound))


def _families_of(snapshot: Mapping) -> Mapping:
    """Accept a bare families dict or a full ``runtime.metrics()`` dict."""
    families = snapshot.get("families", snapshot)
    return families if isinstance(families, Mapping) else snapshot


def render_prometheus(snapshot: Mapping) -> str:
    """Render a metrics snapshot as Prometheus text exposition."""
    lines: list[str] = []
    families = _families_of(snapshot)
    for name in sorted(families):
        family = families[name]
        if not isinstance(family, Mapping) or "type" not in family:
            continue
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for entry in family["series"]:
            labels = entry.get("labels", {})
            if family["type"] == "histogram":
                for bound, cumulative in entry["buckets"]:
                    lines.append(f"{name}_bucket"
                                 f"{_format_labels(labels, ('le', _format_bound(bound)))}"
                                 f" {_format_value(cumulative)}")
                lines.append(f"{name}_sum{_format_labels(labels)} "
                             f"{_format_value(entry['sum'])}")
                lines.append(f"{name}_count{_format_labels(labels)} "
                             f"{_format_value(entry['count'])}")
            else:
                lines.append(f"{name}{_format_labels(labels)} "
                             f"{_format_value(entry['value'])}")
    return "\n".join(lines) + "\n" if lines else ""


def histogram_percentiles(entry: Mapping, quantiles=(0.5, 0.9, 0.99)) -> dict[str, float | None]:
    """p50/p90/p99 estimates from one snapshot-form histogram series.

    The snapshot stores cumulative counts (exposition form); this
    de-cumulates them and interpolates with
    :func:`~repro.obs.metrics.bucket_quantile`, so a percentile read
    from a JSONL dump is the one the live bucket counts give.
    """
    bounds = [bound for bound, _ in entry["buckets"] if bound != "+Inf"]
    cumulative = [count for _, count in entry["buckets"]]
    counts, previous = [], 0
    for value in cumulative:
        counts.append(value - previous)
        previous = value
    return {f"p{int(q * 100)}": bucket_quantile(bounds, counts, q)
            for q in quantiles}


def _series_key(labels: Mapping) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def diff_snapshots(earlier: Mapping, later: Mapping) -> dict:
    """Counter deltas and interval rates between two metrics snapshots.

    Both arguments accept the same shapes as :func:`render_prometheus`
    (bare families dict, a full ``runtime.metrics()`` dict, or a
    :class:`MetricsDumper` JSONL line — whose ``"at"`` timestamps, when
    present on both sides, supply the interval for per-second rates).
    Series are matched by label set; a series absent from ``earlier``
    diffs against zero, so a freshly-started dump still yields totals.

    Counters and histogram counts report ``delta`` (and ``rate`` when an
    interval is known); a negative counter delta means the process
    restarted between the snapshots and is reported as-is rather than
    clamped.  Gauges report the current value alongside the delta, since
    a gauge delta without its level is rarely actionable.
    """
    fam_a, fam_b = _families_of(earlier), _families_of(later)
    at_a, at_b = earlier.get("at"), later.get("at")
    interval: float | None = None
    if isinstance(at_a, (int, float)) and isinstance(at_b, (int, float)):
        interval = float(at_b) - float(at_a)
    def rate(delta: float) -> float | None:
        return delta / interval if interval and interval > 0 else None
    families: dict[str, dict] = {}
    for name in sorted(fam_b):
        family = fam_b[name]
        if not isinstance(family, Mapping) or "type" not in family:
            continue
        kind = family["type"]
        previous = {}
        before = fam_a.get(name)
        if isinstance(before, Mapping) and before.get("type") == kind:
            previous = {_series_key(entry.get("labels", {})): entry
                        for entry in before["series"]}
        series = []
        for entry in family["series"]:
            labels = entry.get("labels", {})
            prior = previous.get(_series_key(labels))
            row: dict = {"labels": dict(labels)}
            if kind == "histogram":
                count_before = prior["count"] if prior else 0
                sum_before = prior["sum"] if prior else 0.0
                row["delta"] = entry["count"] - count_before
                row["delta_sum"] = entry["sum"] - sum_before
                row["rate"] = rate(row["delta"])
            else:
                value_before = prior["value"] if prior else 0.0
                row["delta"] = entry["value"] - value_before
                if kind == "gauge":
                    row["value"] = entry["value"]
                else:
                    row["rate"] = rate(row["delta"])
            series.append(row)
        families[name] = {"type": kind, "series": series}
    return {"interval_seconds": interval, "families": families}


def snapshot_to_json(snapshot: Mapping) -> str:
    """Canonical JSON: same snapshot state, same bytes."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


class MetricsDumper:
    """Background JSONL appender for metrics snapshots.

    Parameters
    ----------
    source:
        Zero-argument callable returning the snapshot dict to record
        (typically ``runtime.metrics``).
    path:
        JSONL file to append to (created with parents if missing).
    interval:
        Seconds between dumps.
    """

    def __init__(self, source: Callable[[], Mapping], path: str | Path,
                 interval: float = 5.0):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.source = source
        self.path = Path(path)
        self.interval = interval
        self.lines_written = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def dump_now(self) -> None:
        """Append one snapshot line synchronously."""
        line = dict(self.source())
        line["at"] = time.time()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
        self.lines_written += 1

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "MetricsDumper":
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-metrics-dumper", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the thread and write one final snapshot line.

        The final line means even a run shorter than one interval leaves
        a usable trail.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None
        self.dump_now()

    def __enter__(self) -> "MetricsDumper":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.dump_now()
            except OSError:  # pragma: no cover - disk-full style failures
                # Recording must never take the serving process down;
                # the next interval retries.
                pass
