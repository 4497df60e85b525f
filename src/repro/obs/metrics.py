"""Lock-cheap metrics primitives: counters, gauges, bucketed histograms.

The serving runtime needs visibility without a price: the observe path
is the hot path, so every primitive here is a plain python object whose
update is a couple of dict-free attribute operations under a per-child
lock (never a registry-wide one — observers touching different children
never contend).  Labeled *families* (``tenant_class``, ``op``, ...)
resolve to child instances once; callers cache the child and pay only
the increment afterwards.

Latency percentiles are streamed, not stored: :class:`Histogram` keeps
fixed cumulative-style buckets (counts per bucket + sum + count), and
:meth:`Histogram.quantile` interpolates p50/p90/p99 from the bucket the
target rank falls in — the same estimate Prometheus's
``histogram_quantile`` computes server-side, available here without an
external scrape.  Per-worker histograms over the same bounds
:meth:`~Histogram.merge` exactly (bucket counts are additive), so the
cluster's merged export is the histogram of the merged stream.

:meth:`MetricsRegistry.snapshot` is deterministic — families sorted by
name, series sorted by label values, buckets rendered cumulatively with
a terminal ``"+Inf"`` — so snapshots diff cleanly and serialise to
byte-identical JSON for the same counter state.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "bucket_quantile",
    "merged_family",
    "merged_histogram",
]

# Upper bounds (seconds, `le` semantics) spanning ~0.1 ms to 10 s: wide
# enough for an in-memory observe and a full reprovision on one scale.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def bucket_quantile(bounds: Sequence[float], counts: Sequence[int], q: float) -> float | None:
    """Estimate the q-quantile from per-bucket counts.

    ``bounds`` are the finite upper bounds (``le``); ``counts`` has one
    extra terminal entry for the overflow (+Inf) bucket.  Linear
    interpolation inside the chosen bucket, from a lower edge of 0 for
    the first (latencies are non-negative); a rank landing in the
    overflow bucket clamps to the largest finite bound — the honest
    answer a bounded histogram can give.  Returns None when empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return None
    target = q * total
    cumulative = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= target:
            if index >= len(bounds):        # overflow bucket
                return float(bounds[-1])
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index]
            fraction = (target - cumulative) / count
            return float(lower + (upper - lower) * min(max(fraction, 0.0), 1.0))
        cumulative += count
    return float(bounds[-1])  # pragma: no cover - unreachable (total > 0)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Value that can go anywhere."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket streaming histogram (counts + sum, no samples)."""

    __slots__ = ("bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing, got {bounds}")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)   # terminal +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def observe_repeated(self, value: float, count: int) -> None:
        """Fold ``count`` identical samples in one locked update.

        The batch data plane attributes a batch's elapsed time evenly
        across its records; all those samples share a bucket, so one
        lock acquisition replaces ``count`` of them.
        """
        if count < 0:
            raise ValueError(f"sample count cannot be negative; got {count}")
        if count == 0:
            return
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += count
            self._sum += value * count
            self._count += count

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float | None:
        with self._lock:
            counts = list(self._counts)
        return bucket_quantile(self.bounds, counts, q)

    def percentiles(self) -> dict[str, float | None]:
        """The operational trio, one lock acquisition."""
        with self._lock:
            counts = list(self._counts)
        return {f"p{int(q * 100)}": bucket_quantile(self.bounds, counts, q)
                for q in (0.5, 0.9, 0.99)}

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram over the same bounds into this one."""
        if other.bounds != self.bounds:
            raise ValueError(f"cannot merge histograms with different bounds: "
                             f"{self.bounds} vs {other.bounds}")
        with other._lock:
            counts = list(other._counts)
            total, n = other._sum, other._count
        with self._lock:
            for index, count in enumerate(counts):
                self._counts[index] += count
            self._sum += total
            self._count += n

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts, overflow last."""
        with self._lock:
            return list(self._counts)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric plus its labeled children.

    ``labels(tenant_class="all", op="observe")`` resolves (creating on first use)
    the child for that label combination; the unlabeled family of an
    empty label set proxies ``inc``/``set``/``observe`` straight to its
    single child.
    """

    def __init__(self, name: str, kind: str, help: str = "",
                 label_names: Sequence[str] = (), buckets: Sequence[float] | None = None):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self._buckets if self._buckets is not None
                             else DEFAULT_LATENCY_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, **labels: str):
        if set(labels) != set(self.label_names):
            raise ValueError(f"metric {self.name!r} takes labels "
                             f"{sorted(self.label_names)}, got {sorted(labels)}")
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    # Unlabeled convenience: family *is* the metric.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        return self.labels().value

    def series(self) -> list[tuple[dict[str, str], Counter | Gauge | Histogram]]:
        """(labels dict, child) pairs, sorted by label values."""
        with self._lock:
            items = sorted(self._children.items())
        return [(dict(zip(self.label_names, key)), child) for key, child in items]

    def snapshot(self) -> dict:
        series = []
        for labels, child in self.series():
            entry: dict = {"labels": labels}
            if self.kind == "histogram":
                counts = child.bucket_counts()
                cumulative, rendered = 0, []
                for bound, count in zip(child.bounds, counts):
                    cumulative += count
                    rendered.append([bound, cumulative])
                rendered.append(["+Inf", cumulative + counts[-1]])
                entry.update({"buckets": rendered, "sum": child.sum,
                              "count": child.count})
            else:
                entry["value"] = child.value
            series.append(entry)
        out = {"type": self.kind, "help": self.help,
               "labels": list(self.label_names), "series": series}
        if self.kind == "histogram":
            out["bounds"] = list(self._buckets if self._buckets is not None
                                 else DEFAULT_LATENCY_BUCKETS)
        return out


class MetricsRegistry:
    """Process-local registry of metric families.

    Registration is idempotent: asking for an existing name returns the
    existing family, provided kind and label names agree (a mismatch is
    a programming error and raises).  One registry serves a whole
    runtime process; across processes the cluster router merges worker
    snapshots (see :mod:`repro.obs.cluster`).
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _family(self, name: str, kind: str, help: str,
                labels: Iterable[str], buckets=None) -> MetricFamily:
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help=help,
                                      label_names=label_names, buckets=buckets)
                self._families[name] = family
                return family
        if family.kind != kind or family.label_names != label_names:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} with labels "
                f"{family.label_names}; cannot re-register as {kind}/{label_names}")
        return family

    def counter(self, name: str, help: str = "", labels: Iterable[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "", labels: Iterable[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> MetricFamily:
        return self._family(name, "histogram", help, labels, buckets=buckets)

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> dict:
        """Deterministic ``{family name: family snapshot}`` mapping."""
        return {family.name: family.snapshot() for family in self.families()}


def merged_histogram(snapshots: Iterable[Mapping]) -> dict:
    """Merge snapshot-form histogram series (same bounds) into one.

    Operates on the serialised form (cumulative buckets) so exporters
    can aggregate across label sets — e.g. one all-workers latency line —
    without reaching back into live objects.
    """
    merged_buckets: list[list] | None = None
    total_sum, total_count = 0.0, 0
    for entry in snapshots:
        buckets = entry["buckets"]
        if merged_buckets is None:
            merged_buckets = [[bound, 0] for bound, _ in buckets]
        if [b for b, _ in buckets] != [b for b, _ in merged_buckets]:
            raise ValueError("histogram series have different bucket bounds")
        for slot, (_, cumulative) in zip(merged_buckets, buckets):
            slot[1] += cumulative
        total_sum += entry["sum"]
        total_count += entry["count"]
    if merged_buckets is None:
        raise ValueError("no histogram series to merge")
    return {"buckets": merged_buckets, "sum": total_sum, "count": total_count}


def merged_family(families: Sequence[Mapping], gauge_mode: str = "sum") -> dict:
    """Fold several snapshot-form families of one metric into one.

    All inputs must agree on type and label names (they come from the
    same registration call replicated across processes).  Series are
    matched by label values: counters sum, gauges sum or take the max
    per ``gauge_mode`` (``"max"`` for level-style gauges like ages and
    lags, where adding process-local readings is meaningless), and
    histograms fold through :func:`merged_histogram`.  Label sets
    present in only some inputs pass through — a worker that never
    touched a label set simply contributes nothing to that series.

    Folding a single family returns a snapshot identical to the input
    (same series order, same value types), which is what makes a
    one-worker cluster's merged export byte-for-byte its worker's own.
    """
    families = list(families)
    if not families:
        raise ValueError("no families to merge (empty worker set?)")
    if gauge_mode not in ("sum", "max"):
        raise ValueError(f"gauge_mode must be 'sum' or 'max', got {gauge_mode!r}")
    first = families[0]
    kind = first["type"]
    label_names = list(first["labels"])
    for other in families[1:]:
        if other["type"] != kind or list(other["labels"]) != label_names:
            raise ValueError(
                f"cannot merge family snapshots with mismatched shape: "
                f"{kind}/{label_names} vs {other['type']}/{list(other['labels'])}")
    grouped: dict[tuple[str, ...], list[Mapping]] = {}
    for family in families:
        for entry in family["series"]:
            key = tuple(str(entry["labels"][name]) for name in label_names)
            grouped.setdefault(key, []).append(entry)
    series: list[dict] = []
    for key in sorted(grouped):
        entries = grouped[key]
        merged: dict = {"labels": dict(zip(label_names, key))}
        if kind == "histogram":
            merged.update(merged_histogram(entries))
        else:
            values = [entry["value"] for entry in entries]
            if kind == "gauge" and gauge_mode == "max":
                merged["value"] = max(values)
            elif len(values) == 1:
                merged["value"] = values[0]   # keep the exact input value
            else:
                merged["value"] = sum(values)
        series.append(merged)
    out: dict = {"type": kind, "help": first.get("help", ""),
                 "labels": label_names, "series": series}
    if kind == "histogram":
        out["bounds"] = list(first["bounds"])
    return out
