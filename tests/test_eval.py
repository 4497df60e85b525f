"""Metrics, ROC, harness, reporting, algorithm factory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import LabeledRecord
from repro.datasets import GeofenceDataset
from repro.eval import (
    ALGORITHM_NAMES,
    InOutMetrics,
    confusion_from_pairs,
    evaluate_streaming,
    format_mean_min_max,
    format_series,
    format_table,
    make_algorithm,
    metrics_from_pairs,
    roc_curve,
    summarize_metrics,
)
from repro.eval.roc import auc

from conftest import synthetic_records


class TestConfusion:
    def test_counts(self):
        pairs = [(True, True), (True, False), (False, True), (False, False)]
        counts = confusion_from_pairs(pairs)
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (1, 1, 1, 1)


class TestInOutMetrics:
    def test_perfect_classifier(self):
        pairs = [(True, True)] * 5 + [(False, False)] * 5
        metrics = metrics_from_pairs(pairs)
        assert metrics.as_row() == (1.0,) * 6

    def test_all_predicted_inside(self):
        pairs = [(True, True)] * 5 + [(False, True)] * 5
        metrics = metrics_from_pairs(pairs)
        assert metrics.r_in == 1.0
        assert metrics.p_in == 0.5
        assert metrics.f_out == 0.0

    def test_f_is_harmonic_mean(self):
        pairs = [(True, True)] * 3 + [(True, False)] * 1 + [(False, False)] * 4
        metrics = metrics_from_pairs(pairs)
        expected = 2 * metrics.p_in * metrics.r_in / (metrics.p_in + metrics.r_in)
        assert metrics.f_in == pytest.approx(expected)

    def test_single_class_no_nan(self):
        metrics = metrics_from_pairs([(True, True)] * 3)
        assert np.isfinite(metrics.as_row()).all()

    def test_summarize(self):
        m1 = metrics_from_pairs([(True, True), (False, False)])
        m2 = metrics_from_pairs([(True, False), (False, False)])
        summary = summarize_metrics([m1, m2])
        mean, low, high = summary["f_in"]
        assert low <= mean <= high

    def test_summarize_empty(self):
        with pytest.raises(ValueError):
            summarize_metrics([])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40))
    def test_property_metrics_in_unit_interval(self, pairs):
        metrics = metrics_from_pairs(pairs)
        assert all(0.0 <= v <= 1.0 for v in metrics.as_row())


class TestRoc:
    def test_perfect_separation_auc_one(self):
        scores = [0.1, 0.2, 0.8, 0.9]
        labels = [False, False, True, True]
        curve = roc_curve(scores, labels)
        assert curve.auc == pytest.approx(1.0)

    def test_random_scores_auc_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(4000)
        labels = rng.random(4000) < 0.5
        assert roc_curve(scores, labels).auc == pytest.approx(0.5, abs=0.05)

    def test_inverted_scores_auc_zero(self):
        curve = roc_curve([0.9, 0.8, 0.2, 0.1], [False, False, True, True])
        assert curve.auc == pytest.approx(0.0)

    def test_curve_monotone(self):
        rng = np.random.default_rng(1)
        scores = rng.random(100)
        labels = rng.random(100) < 0.4
        curve = roc_curve(scores, labels)
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_curve([0.1, 0.2], [True, True])

    def test_auc_needs_two_points(self):
        with pytest.raises(ValueError):
            auc([0.0], [0.0])


class TestReporting:
    def test_mean_min_max_format(self):
        assert format_mean_min_max(0.98, 0.94, 1.0) == "0.98 (0.94, 1.00)"

    def test_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_table_with_title(self):
        text = format_table(["x"], [["1"]], title="T")
        assert text.startswith("T\n")

    def test_series(self):
        assert format_series("f", [1, 2], [0.5, 0.75]) == "f: 1:0.500, 2:0.750"


class TestHarnessAndFactory:
    def _tiny_dataset(self):
        train = synthetic_records(30, num_macs=8, seed=0, center=2.0)
        inside = synthetic_records(10, num_macs=8, seed=1, center=2.0)
        outside = synthetic_records(10, num_macs=8, seed=2, center=7.0)
        test = ([LabeledRecord(r, True) for r in inside]
                + [LabeledRecord(r, False) for r in outside])
        return GeofenceDataset(scenario=None, train=train, test=test)

    def test_evaluate_streaming_counts(self):
        data = self._tiny_dataset()
        result = evaluate_streaming(make_algorithm("SignatureHome"), data)
        assert len(result.decisions) == 20
        assert len(result.labels) == 20
        assert result.fit_seconds >= 0

    def test_max_test_records(self):
        data = self._tiny_dataset()
        result = evaluate_streaming(make_algorithm("SignatureHome"), data,
                                    max_test_records=5)
        assert len(result.decisions) == 5

    def test_factory_knows_all_names(self):
        for name in ALGORITHM_NAMES:
            assert make_algorithm(name, seed=0) is not None

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_algorithm("MagicNet")

    def test_factory_dim_propagates(self):
        model = make_algorithm("GEM", dim=16)
        assert model.config.bisage.dim == 16

    def test_roc_from_result(self):
        data = self._tiny_dataset()
        result = evaluate_streaming(make_algorithm("INOA"), data)
        curve = result.roc()
        assert 0.0 <= curve.auc <= 1.0
