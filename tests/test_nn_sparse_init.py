"""Sparse matmul and initialisers."""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.nn import Tensor, row_normalized_csr, spmm
from repro.nn.init import he_uniform, xavier_uniform

from conftest import numerical_gradient


class TestSpmm:
    def test_forward_matches_dense(self):
        rng = np.random.default_rng(0)
        dense = rng.random((4, 5))
        dense[dense < 0.5] = 0.0
        matrix = sp.csr_matrix(dense)
        x = rng.standard_normal((5, 3))
        np.testing.assert_allclose(spmm(matrix, Tensor(x)).numpy(), dense @ x)

    def test_gradient_is_transpose(self):
        rng = np.random.default_rng(1)
        dense = sp.random(4, 5, density=0.5, random_state=2, format="csr")
        x_val = rng.standard_normal((5, 2))
        x = Tensor(x_val, requires_grad=True)
        spmm(dense, x).sum().backward()
        num = numerical_gradient(lambda v: (dense @ v).sum(), x_val.copy())
        np.testing.assert_allclose(x.grad, num, atol=1e-6)

    def test_rejects_dense_first_operand(self):
        with pytest.raises(TypeError):
            spmm(np.eye(3), Tensor(np.zeros((3, 1))))


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
