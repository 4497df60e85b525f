"""Edge cases: degenerate metric inputs, tied/infinite scores, lazy streams."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import synthetic_records

from repro.core.records import LabeledRecord
from repro.eval.harness import evaluate_streaming
from repro.eval.metrics import (
    InOutMetrics,
    metrics_from_pairs,
    summarize_metrics,
)
from repro.eval.roc import auc, finite_scores, roc_curve


class TestMetricsDegenerate:
    def test_all_inside_stream_yields_zero_out_metrics(self):
        m = metrics_from_pairs([(True, True), (True, True), (True, False)])
        assert m.p_in == 1.0
        assert m.r_in == pytest.approx(2 / 3)
        assert (m.p_out, m.r_out, m.f_out) == (0.0, 0.0, 0.0)
        assert not any(math.isnan(v) for v in m.as_row())

    def test_all_outside_stream_yields_zero_in_metrics(self):
        m = metrics_from_pairs([(False, False), (False, True)])
        assert (m.p_in, m.r_in, m.f_in) == (0.0, 0.0, 0.0)
        assert m.r_out == 0.5
        assert not any(math.isnan(v) for v in m.as_row())

    def test_empty_stream_is_all_zero(self):
        m = metrics_from_pairs([])
        assert m.as_row() == (0.0,) * 6

    def test_summarize_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize_metrics([])

    def test_summarize_single_entry(self):
        m = InOutMetrics(1, 1, 1, 0, 0, 0)
        assert summarize_metrics([m])["p_in"] == (1.0, 1.0, 1.0)


class TestRocEdges:
    def test_empty_stream_raises_clearly(self):
        with pytest.raises(ValueError, match="empty stream"):
            roc_curve([], [])

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="both positive and negative"):
            roc_curve([0.1, 0.2], [True, True])
        with pytest.raises(ValueError, match="both positive and negative"):
            roc_curve([0.1, 0.2], [False, False])

    def test_nan_scores_raise_instead_of_misranking(self):
        with pytest.raises(ValueError, match="NaN"):
            roc_curve([0.1, float("nan")], [True, False])

    def test_all_tied_scores_give_chance_auc(self):
        curve = roc_curve([0.5, 0.5, 0.5, 0.5], [True, False, True, False])
        assert curve.auc == pytest.approx(0.5)

    def test_partial_ties_collapse_to_one_point_per_value(self):
        curve = roc_curve([0.9, 0.5, 0.5, 0.1], [True, True, False, False])
        assert len(curve.fpr) == 4  # origin + three distinct thresholds
        # Pairwise: 3 ordered pairs win, the tied (0.5, 0.5) pair counts half.
        assert curve.auc == pytest.approx(0.875)

    def test_perfect_separation(self):
        curve = roc_curve([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert curve.auc == pytest.approx(1.0)

    def test_auc_needs_two_points(self):
        with pytest.raises(ValueError):
            auc([0.0], [0.0])


class TestFiniteScores:
    def test_plus_inf_caps_above_max(self):
        out = finite_scores([1.0, math.inf, 3.0])
        assert out[1] == 4.0
        assert out.tolist() == [1.0, 4.0, 3.0]

    def test_minus_inf_floors_below_min(self):
        out = finite_scores([1.0, -math.inf, 3.0])
        assert out[1] == 0.0

    def test_all_infinite_collapses_to_constants(self):
        out = finite_scores([math.inf, math.inf])
        assert np.isfinite(out).all()
        assert out[0] == out[1]

    def test_empty_ok(self):
        assert finite_scores([]).size == 0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            finite_scores([float("nan")])


class _ConstantModel:
    """Flags everything as outside with an infinite score."""

    def fit(self, records):
        return self

    def observe(self, record):
        from repro.core.protocols import GeofenceDecision
        return GeofenceDecision(inside=False, score=math.inf)


def _labeled(records, inside=True):
    return [LabeledRecord(r, inside=inside) for r in records]


class TestHarnessEdges:
    def test_all_infinite_scores_roc_does_not_nan(self):
        records = synthetic_records(6, seed=0)
        dataset = SimpleNamespace(train=records,
                                  test=_labeled(records[:3]) + _labeled(records[3:], False),
                                  meta={})
        result = evaluate_streaming(_ConstantModel(), dataset)
        curve = result.roc()  # previously np.nanmax over an empty slice
        assert np.isfinite(curve.auc)

    def test_generator_test_stream(self):
        """evaluate_streaming must accept any iterable, not just Sequence."""
        from repro.eval import make_algorithm
        records = synthetic_records(20, seed=1)
        eager = SimpleNamespace(train=records[:10], test=_labeled(records[10:]),
                                meta={"kind": "eager"})
        lazy = SimpleNamespace(train=records[:10],
                               test=(item for item in _labeled(records[10:])),
                               meta={"kind": "lazy"})
        r_eager = evaluate_streaming(make_algorithm("SignatureHome"), eager)
        r_lazy = evaluate_streaming(make_algorithm("SignatureHome"), lazy)
        assert r_lazy.scores.tolist() == r_eager.scores.tolist()
        assert r_lazy.labels == r_eager.labels
        assert len(r_lazy.decisions) == 10

    def test_generator_with_max_records(self):
        from repro.eval import make_algorithm
        records = synthetic_records(12, seed=2)
        lazy = SimpleNamespace(train=records[:6],
                               test=(item for item in _labeled(records[6:])),
                               meta={})
        result = evaluate_streaming(make_algorithm("SignatureHome"), lazy,
                                    max_test_records=3)
        assert len(result.decisions) == 3

    def test_empty_test_stream(self):
        records = synthetic_records(4, seed=3)
        dataset = SimpleNamespace(train=records, test=iter(()), meta={})
        result = evaluate_streaming(_ConstantModel(), dataset)
        assert result.decisions == []
        assert result.metrics.as_row() == (0.0,) * 6
