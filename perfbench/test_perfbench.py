"""Tests for the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from layers import layer_metrics
from spans import Recorder, Span, covered, self_times
from stats import (RepeatMismatch, check_repeat, decision_digest, median,
                   percentile)

CONTRACT = json.loads((Path(__file__).resolve().parents[1]
                       / "BENCHMARK.json").read_text())


def test_covered_merges_overlapping_and_nested_intervals():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.2, 5.5)]) == 4.0
    assert covered([]) == 0.0


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, None, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("b", 3.0, 6.0, 0, 0),       # overlaps a by 1
             Span("c", 9.0, 12.0, 0, 0)]      # outlives its parent
    own = self_times(spans)
    # Children cover [1, 6] and [9, 10]: 6 of the root's 10 seconds.
    assert own[0] == pytest.approx(4.0)
    assert own[1:] == [3.0, 3.0, 3.0]
    assert all(value >= 0 for value in own)


def test_self_times_of_a_tree_add_up_to_the_root():
    spans = [Span("root", 0.0, 10.0, None, 0),
             Span("child", 2.0, 8.0, 0, 0),
             Span("grandchild", 3.0, 5.0, 1, 0)]
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_recorder_nests_wrapped_calls_and_keeps_errors():
    recorder = Recorder()

    def inner():
        raise ValueError("boom")

    outer = recorder.wrap(lambda: recorder.wrap(inner, "inner")(), "outer")
    with pytest.raises(ValueError):
        outer()
    names = [(s.name, s.parent, s.error) for s in recorder.spans]
    assert names == [("outer", None, True), ("inner", 0, True)]


def test_percentile_requires_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    assert percentile(samples, 90) == 90.0
    assert percentile(samples, 50) == 50.0
    with pytest.raises(ValueError, match="at least 10"):
        percentile(samples[:99], 90)
    with pytest.raises(ValueError):
        percentile(samples, 99)


def test_median_of_even_and_odd_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def _decision(score, inside=True):
    return SimpleNamespace(inside=inside, score=score, confident=False,
                           buffered=False, updated=False)


def test_digest_sees_a_one_ulp_score_change():
    import math
    a = [_decision(0.25), _decision(math.inf, inside=False)]
    b = [_decision(math.nextafter(0.25, 1.0)), _decision(math.inf, inside=False)]
    assert decision_digest(a) == decision_digest(list(a))
    assert decision_digest(a) != decision_digest(b)


def test_repeat_guard_detects_digest_and_count_mismatches(tmp_path):
    store = tmp_path / "key.json"
    first = {"digest": "abc", "loads": 4, "saves": 2, "auc": "0.9"}
    assert check_repeat(store, first)
    assert check_repeat(store, dict(first))
    with pytest.raises(RepeatMismatch, match="digest"):
        check_repeat(store, dict(first, digest="abd"))
    with pytest.raises(RepeatMismatch, match=r"loads \(4 -> 5\)"):
        check_repeat(store, dict(first, loads=5))


def test_layer_metrics_cover_the_contract():
    window = (0.0, 1.0)
    client = [Span("client.batch", 0.0, 0.5, None, 0),
              Span("cluster.observe_many", 0.1, 0.4, 0, 0)]
    values = layer_metrics(client, [], window, observations=100, batches=1,
                           router_cpu_s=0.0, worker_busy_s=0.0, evictions=0,
                           plain_throughput=110.0, traced_throughput=100.0)
    assert set(values) == {m["name"] for m in CONTRACT["per_layer"]}
    # Half the window lies outside any span.
    assert values["trace.residual_pct"] == pytest.approx(50.0)
    assert values["trace.overhead_pct"] == pytest.approx(10.0)
