"""Enhanced histogram detector: Eq. 10-12 behaviour, updates, edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.detection import HistogramConfig, HistogramDetector
from repro.detection import histogram as histogram_module


def gaussian_blob(n=200, d=4, seed=0, center=0.0, scale=1.0):
    rng = np.random.default_rng(seed)
    return center + scale * rng.standard_normal((n, d))


class TestConfig:
    def test_defaults_valid(self):
        HistogramConfig()

    def test_tau_ordering_enforced(self):
        with pytest.raises(ValueError, match="tau_lower"):
            HistogramConfig(tau_upper=0.1, tau_lower=0.2)

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            HistogramConfig(num_bins=0)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            HistogramConfig(temperature=0.0)

    def test_negative_smoothing(self):
        with pytest.raises(ValueError):
            HistogramConfig(smoothing_passes=-1)


class TestFitAndScore:
    def test_training_scores_in_unit_interval(self):
        detector = HistogramDetector().fit(gaussian_blob())
        scores = detector.normalized_scores(gaussian_blob())
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_far_outlier_scores_high(self):
        detector = HistogramDetector().fit(gaussian_blob())
        outlier = np.full((1, 4), 100.0)
        assert detector.normalized_scores(outlier)[0] == pytest.approx(1.0)
        assert detector.is_outlier(outlier)[0]

    def test_center_point_scores_low(self):
        detector = HistogramDetector().fit(gaussian_blob(n=500))
        center = np.zeros((1, 4))
        assert detector.normalized_scores(center)[0] < 0.4
        assert not detector.is_outlier(center)[0]

    def test_enhanced_scores_are_sigmoid_of_normalized(self):
        detector = HistogramDetector().fit(gaussian_blob())
        x = gaussian_blob(n=10, seed=5)
        normalized = detector.normalized_scores(x)
        enhanced = detector.enhanced_scores(x)
        expected = 1.0 / (1.0 + np.exp(-(2 * normalized - 1) / detector.config.temperature))
        np.testing.assert_allclose(enhanced, expected, atol=1e-12)

    def test_enhanced_monotone_in_normalized(self):
        detector = HistogramDetector().fit(gaussian_blob())
        x = gaussian_blob(n=50, seed=7)
        normalized = detector.normalized_scores(x)
        enhanced = detector.enhanced_scores(x)
        order = np.argsort(normalized)
        assert (np.diff(enhanced[order]) >= -1e-12).all()

    def test_single_sample_training(self):
        detector = HistogramDetector().fit(np.zeros((1, 3)))
        assert detector.num_samples == 1
        # The training point itself is not an outlier.
        assert not detector.is_outlier(np.zeros((1, 3)))[0]

    def test_constant_dimension_handled(self):
        data = gaussian_blob()
        data[:, 0] = 5.0  # degenerate dim
        detector = HistogramDetector().fit(data)
        assert np.isfinite(detector.decision_scores(data)).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HistogramDetector().fit(np.empty((0, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            HistogramDetector().fit(np.array([[np.nan, 1.0]]))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            HistogramDetector().decision_scores(np.zeros((1, 2)))


class TestPlainMode:
    def test_plain_uses_contamination_threshold(self):
        config = HistogramConfig(enhanced=False, contamination=0.1)
        detector = HistogramDetector(config).fit(gaussian_blob(n=300))
        flagged = detector.is_outlier(gaussian_blob(n=300)).mean()
        assert 0.02 < flagged < 0.35

    def test_plain_never_confident(self):
        config = HistogramConfig(enhanced=False)
        detector = HistogramDetector(config).fit(gaussian_blob())
        assert not detector.is_confident_inlier(np.zeros((5, 4))).any()

    def test_plain_decision_scores_are_normalized(self):
        config = HistogramConfig(enhanced=False)
        detector = HistogramDetector(config).fit(gaussian_blob())
        x = gaussian_blob(n=10, seed=3)
        np.testing.assert_allclose(detector.decision_scores(x), detector.normalized_scores(x))


class TestOnlineUpdate:
    def test_update_absorbs_samples(self):
        detector = HistogramDetector().fit(gaussian_blob(n=100))
        detector.update(gaussian_blob(n=20, seed=1))
        assert detector.num_samples == 120
        assert detector.num_updates == 20

    def test_update_single_vector(self):
        detector = HistogramDetector().fit(gaussian_blob())
        detector.update(np.zeros(4))
        assert detector.num_updates == 1

    def test_update_shifts_distribution(self):
        # Absorbing a second cluster should stop flagging it.
        detector = HistogramDetector().fit(gaussian_blob(n=300))
        shifted = gaussian_blob(n=300, seed=2, center=4.0, scale=0.5)
        before = detector.normalized_scores(shifted).mean()
        detector.update(shifted)
        after = detector.normalized_scores(shifted).mean()
        assert after < before

    def test_update_dimension_mismatch(self):
        detector = HistogramDetector().fit(gaussian_blob())
        with pytest.raises(ValueError, match="dimension"):
            detector.update(np.zeros((1, 5)))

    def test_update_rejects_nonfinite(self):
        detector = HistogramDetector().fit(gaussian_blob())
        with pytest.raises(ValueError):
            detector.update(np.array([[np.inf] * 4]))

    def test_update_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            HistogramDetector().update(np.zeros((1, 2)))

    def test_confident_inlier_implies_inlier(self):
        detector = HistogramDetector().fit(gaussian_blob(n=500))
        x = gaussian_blob(n=100, seed=9)
        confident = detector.is_confident_inlier(x)
        outlier = detector.is_outlier(x)
        assert not (confident & outlier).any()


class TestSmoothing:
    def test_smoothing_preserves_total_count(self):
        config = HistogramConfig(smoothing_passes=2)
        detector = HistogramDetector(config).fit(gaussian_blob(n=200))
        # Binomial kernel with edge padding approximately preserves mass.
        assert detector._counts.sum() == pytest.approx(200 * 4, rel=0.15)

    def test_zero_smoothing_keeps_integer_counts(self):
        config = HistogramConfig(smoothing_passes=0)
        detector = HistogramDetector(config).fit(gaussian_blob(n=50))
        assert np.allclose(detector._counts, np.round(detector._counts))


def reference_positions(detector, x):
    """Per-dimension bin search, one searchsorted per dimension."""
    return np.stack([np.searchsorted(detector._edges[j], x[:, j], side="right") - 1
                     for j in range(x.shape[1])], axis=1)


def reference_raw_scores(detector, x):
    """Eq. 10 one dimension at a time: searchsorted, clip, gather."""
    d, m = detector._log_density.shape
    out = np.empty(x.shape, dtype=np.float64)
    for j in range(d):
        edges = detector._edges[j]
        col = x[:, j]
        positions = np.searchsorted(edges, col, side="right") - 1
        in_range = (col >= edges[0]) & (col <= edges[-1])
        values = detector._log_density[j][np.clip(positions, 0, m - 1)]
        values[~in_range] = detector._oor_score
        out[:, j] = values
    return out.sum(axis=1)


def boundary_rows(detector):
    """Rows on every edge, at the highs, past both ends, and non-finite."""
    edges = detector._edges
    rows = [edges[:, k] for k in range(edges.shape[1])]
    rows += [edges[:, 0] - 1.0, edges[:, -1] + 1.0,
             np.nextafter(edges[:, -1], np.inf), np.nextafter(edges[:, 0], -np.inf),
             np.full(len(edges), np.inf), np.full(len(edges), -np.inf),
             np.full(len(edges), np.nan)]
    mixed = edges[:, -1].copy()
    mixed[::2] = edges[::2, 0] - 2.0  # out of range in some dimensions only
    rows.append(mixed)
    return np.vstack(rows)


def assert_bits_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernelDifferential:
    """The all-dimensions bin kernel against per-dimension loops."""

    @staticmethod
    def fitted(data, **config):
        return HistogramDetector(HistogramConfig(**config)).fit(data)

    def training_data(self, n=300, d=6, seed=0):
        data = gaussian_blob(n=n, d=d, seed=seed)
        data[:, 2] = 1.25   # flat (degenerate) dimension
        data[:, 4] = np.round(data[:, 4], 1)  # many values exactly on edges
        return data

    @pytest.mark.parametrize("smoothing", [0, 1])
    def test_scores_match_reference(self, smoothing):
        data = self.training_data()
        detector = self.fitted(data, smoothing_passes=smoothing)
        rng = np.random.default_rng(1)
        for x in (data, rng.normal(0, 2.0, size=(97, 6)), boundary_rows(detector),
                  data[:1], boundary_rows(detector)[-3:-2]):
            # NaN sorts last for searchsorted but counts no edge here;
            # both are out of range, so only the scores must agree.
            known = ~np.isnan(x)
            expected = reference_positions(detector, x)
            assert (detector._bin_positions(x)[known] == expected[known]).all()
            assert_bits_equal(detector._raw_scores(x), reference_raw_scores(detector, x))

    def test_no_rows(self):
        detector = self.fitted(self.training_data())
        empty = np.empty((0, 6))
        assert_bits_equal(detector._raw_scores(empty), reference_raw_scores(detector, empty))

    def test_counts_equal_np_histogram(self):
        data = self.training_data()
        detector = self.fitted(data, smoothing_passes=0)
        expected = np.stack([np.histogram(data[:, j], bins=detector._edges[j])[0]
                             for j in range(data.shape[1])]).astype(np.float64)
        assert_bits_equal(detector._counts, expected)
        assert detector._normalizer.low == reference_raw_scores(detector, data).min()
        assert detector._normalizer.high == reference_raw_scores(detector, data).max()

    def test_single_row_and_single_sample_fit(self):
        data = self.training_data(n=1)
        detector = self.fitted(data, smoothing_passes=0)
        assert detector._counts.sum() == data.shape[1]
        x = boundary_rows(detector)
        for row in x:
            assert_bits_equal(detector._raw_scores(row[None, :]),
                              reference_raw_scores(detector, row[None, :]))

    @pytest.mark.parametrize("cells", [1, 50, 1000])
    def test_rows_across_block_boundaries(self, monkeypatch, cells):
        monkeypatch.setattr(histogram_module, "_BIN_BLOCK_CELLS", cells)
        data = self.training_data(n=200)
        detector = self.fitted(data, smoothing_passes=0)
        expected = np.stack([np.histogram(data[:, j], bins=detector._edges[j])[0]
                             for j in range(data.shape[1])]).astype(np.float64)
        assert_bits_equal(detector._counts, expected)
        step = max(1, cells // detector._edges.size)
        x = np.random.default_rng(2).normal(0, 1.5, size=(3 * step + 1, 6))
        for n in (step - 1, step, step + 1, 3 * step + 1):
            if n:
                assert_bits_equal(detector._raw_scores(x[:n]),
                                  reference_raw_scores(detector, x[:n]))

    def test_rows_across_the_default_block(self):
        detector = self.fitted(self.training_data(), smoothing_passes=1)
        step = histogram_module._BIN_BLOCK_CELLS // detector._edges.size
        x = np.random.default_rng(3).normal(0, 1.5, size=(step + 1, 6))
        assert_bits_equal(detector._raw_scores(x), reference_raw_scores(detector, x))
        assert_bits_equal(detector._raw_scores(x[-1:]), reference_raw_scores(detector, x[-1:]))


@settings(max_examples=20, deadline=None)
@given(arrays(np.float64, (30, 3), elements=st.floats(-5, 5, allow_nan=False)))
def test_property_scores_finite_and_bounded(data):
    detector = HistogramDetector().fit(data)
    scores = detector.normalized_scores(data)
    assert np.isfinite(scores).all()
    assert ((scores >= 0) & (scores <= 1)).all()
    enhanced = detector.enhanced_scores(data)
    assert ((enhanced >= 0) & (enhanced <= 1)).all()


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 40))
def test_property_update_grows_sample_count(n):
    detector = HistogramDetector().fit(gaussian_blob(n=50))
    detector.update(gaussian_blob(n=n, seed=3))
    assert detector.num_samples == 50 + n
