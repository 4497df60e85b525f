"""The tape reference's row-normalised aggregation matrix, and initialisers."""

import numpy as np
import pytest

from repro.nn.init import he_uniform, xavier_uniform
from sage_tape import row_normalized_csr


class TestRowNormalizedCsr:
    def test_rows_sum_to_one(self):
        matrix = row_normalized_csr([0, 0, 1], [1, 2, 0], [2.0, 6.0, 5.0], shape=(3, 3))
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, [1.0, 1.0, 0.0])

    def test_weights_proportional(self):
        matrix = row_normalized_csr([0, 0], [0, 1], [1.0, 3.0], shape=(1, 2)).toarray()
        np.testing.assert_allclose(matrix, [[0.25, 0.75]])

    def test_duplicate_entries_are_summed(self):
        matrix = row_normalized_csr([0, 0], [1, 1], [1.0, 1.0], shape=(1, 2)).toarray()
        np.testing.assert_allclose(matrix, [[0.0, 1.0]])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            row_normalized_csr([0], [0], [-1.0], shape=(1, 1))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            row_normalized_csr([0, 1], [0], [1.0], shape=(2, 2))


class TestInitialisers:
    def test_xavier_bounds(self):
        w = xavier_uniform((20, 30), rng=0)
        limit = np.sqrt(6.0 / 50.0)
        assert np.abs(w).max() <= limit

    def test_he_bounds(self):
        w = he_uniform((10, 40), rng=0)
        limit = np.sqrt(6.0 / 40.0)
        assert np.abs(w).max() <= limit

    def test_deterministic_with_seed(self):
        np.testing.assert_allclose(xavier_uniform((3, 3), rng=7), xavier_uniform((3, 3), rng=7))

    def test_conv_shape_fans(self):
        w = xavier_uniform((8, 4, 5), rng=0)  # (out, in, kernel)
        assert w.shape == (8, 4, 5)

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError):
            xavier_uniform((), rng=0)
