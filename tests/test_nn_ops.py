"""Functional ops: values, stability, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import Tensor, ops

from conftest import numerical_gradient


def grad_of(op, x, atol=1e-5):
    t = Tensor(x, requires_grad=True)
    op(t).sum().backward()
    num = numerical_gradient(lambda v: op(Tensor(v)).numpy().sum(), x.copy())
    np.testing.assert_allclose(t.grad, num, atol=atol)


class TestActivations:
    def test_tanh_grad(self):
        grad_of(ops.tanh, np.array([-1.0, 0.5, 2.0]))

    def test_relu_values(self):
        np.testing.assert_allclose(ops.relu(Tensor([-1.0, 2.0])).numpy(), [0.0, 2.0])

    def test_relu_grad(self):
        grad_of(ops.relu, np.array([-1.0, 0.5, 2.0]))

    def test_softplus_matches_reference(self):
        x = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
        np.testing.assert_allclose(ops.softplus(Tensor(x)).numpy(),
                                   np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0))

    def test_softplus_grad(self):
        grad_of(ops.softplus, np.array([-2.0, 0.0, 2.0]))

    def test_log_sigmoid_is_negative_softplus_of_negation(self):
        x = np.array([-5.0, 0.0, 5.0])
        np.testing.assert_allclose(ops.log_sigmoid(Tensor(x)).numpy(),
                                   -(np.log1p(np.exp(-np.abs(-x))) + np.maximum(-x, 0)))

    def test_log_sigmoid_stable_at_large_negative(self):
        out = ops.log_sigmoid(Tensor([-800.0])).numpy()
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [-800.0], rtol=1e-6)


class TestConcatGatherStack:
    def test_concat_forward(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        assert ops.concat([a, b], axis=1).shape == (2, 5)

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            ops.concat([])

    def test_concat_grad_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = ops.concat([a, b], axis=1)
        (out * np.arange(10.0).reshape(2, 5)).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [5, 6]])
        np.testing.assert_allclose(b.grad, [[2, 3, 4], [7, 8, 9]])

    def test_gather_rows_forward(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        np.testing.assert_allclose(ops.gather_rows(x, [2, 0]).numpy(), [[4, 5], [0, 1]])

    def test_gather_rows_grad_accumulates_repeats(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        ops.gather_rows(x, [1, 1, 2]).sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 0], [2, 2], [1, 1]])


class TestRowOps:
    def test_row_dot(self):
        a = Tensor([[1.0, 2], [3, 4]])
        b = Tensor([[5.0, 6], [7, 8]])
        np.testing.assert_allclose(ops.row_dot(a, b).numpy(), [17, 53])

    def test_l2_normalize_rows_unit_norm(self):
        x = Tensor(np.random.default_rng(0).standard_normal((5, 4)))
        out = ops.l2_normalize_rows(x).numpy()
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(5), rtol=1e-6)

    def test_l2_normalize_zero_row_finite(self):
        out = ops.l2_normalize_rows(Tensor(np.zeros((1, 3)))).numpy()
        assert np.isfinite(out).all()

    def test_l2_normalize_grad_matches_numerical(self):
        x_val = np.random.default_rng(1).standard_normal((2, 3))
        t = Tensor(x_val, requires_grad=True)
        (ops.l2_normalize_rows(t) * np.arange(6.0).reshape(2, 3)).sum().backward()
        num = numerical_gradient(
            lambda v: (ops.l2_normalize_rows(Tensor(v)).numpy() * np.arange(6.0).reshape(2, 3)).sum(),
            x_val.copy())
        np.testing.assert_allclose(t.grad, num, atol=1e-5)

    def test_mse_loss_value(self):
        loss = ops.mse_loss(Tensor([1.0, 3.0]), [0.0, 0.0])
        assert loss.item() == pytest.approx(5.0)

    def test_mse_loss_grad(self):
        t = Tensor([2.0], requires_grad=True)
        ops.mse_loss(t, [0.0]).backward()
        np.testing.assert_allclose(t.grad, [4.0])


@settings(max_examples=20, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-5, 5, allow_nan=False)))
def test_property_normalized_rows_at_most_unit(x):
    out = ops.l2_normalize_rows(Tensor(x)).numpy()
    assert (np.linalg.norm(out, axis=1) <= 1.0 + 1e-9).all()


@settings(max_examples=20, deadline=None)
@given(arrays(np.float64, (5,), elements=st.floats(-20, 20, allow_nan=False)))
def test_property_log_sigmoid_nonpositive(x):
    assert (ops.log_sigmoid(Tensor(x)).numpy() <= 0).all()
