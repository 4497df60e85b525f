"""Autograd engine: forward values and gradients vs numerical differentiation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import Tensor, no_grad
from repro.nn.tensor import as_tensor

from conftest import numerical_gradient


def check_unary_grad(op, x, atol=1e-5):
    t = Tensor(x, requires_grad=True)
    out = op(t)
    out.sum().backward()
    num = numerical_gradient(lambda v: op(Tensor(v)).numpy().sum(), x.copy())
    np.testing.assert_allclose(t.grad, num, atol=atol)


class TestTensorBasics:
    def test_construction_coerces_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_detach_shares_data_but_drops_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_len_matches_first_axis(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_scalars(self):
        assert as_tensor(2.0).item() == 2.0

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError, match="does not require grad"):
            Tensor([1.0]).backward()

    def test_zero_grad_clears(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None


def _records_grad() -> bool:
    """Whether an op on a grad-requiring tensor is recorded on the tape."""
    return (Tensor([1.0], requires_grad=True) * 2).requires_grad


class TestNoGrad:
    def test_no_grad_blocks_tape(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        assert _records_grad()
        with no_grad():
            assert not _records_grad()
        assert _records_grad()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert _records_grad()


class TestArithmeticForward:
    def test_add(self):
        np.testing.assert_allclose((Tensor([1.0, 2]) + Tensor([3.0, 4])).numpy(), [4, 6])

    def test_radd_scalar(self):
        np.testing.assert_allclose((1.0 + Tensor([1.0])).numpy(), [2.0])

    def test_sub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).numpy(), [2.0])

    def test_rsub(self):
        np.testing.assert_allclose((5.0 - Tensor([3.0])).numpy(), [2.0])

    def test_mul(self):
        np.testing.assert_allclose((Tensor([2.0]) * Tensor([4.0])).numpy(), [8.0])

    def test_div(self):
        np.testing.assert_allclose((Tensor([8.0]) / 2.0).numpy(), [4.0])

    def test_rdiv(self):
        np.testing.assert_allclose((8.0 / Tensor([2.0])).numpy(), [4.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2])).numpy(), [-1, 2])

    def test_pow(self):
        np.testing.assert_allclose((Tensor([3.0]) ** 2).numpy(), [9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul(self):
        a = Tensor(np.eye(2) * 2)
        b = Tensor([[1.0], [2.0]])
        np.testing.assert_allclose((a @ b).numpy(), [[2.0], [4.0]])


class TestArithmeticGradients:
    def test_add_broadcast_grad(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)))
        np.testing.assert_allclose(b.grad, [3.0, 3.0])

    def test_mul_grad(self):
        x = np.array([1.0, -2.0, 3.0])
        check_unary_grad(lambda t: t * t, x)

    def test_div_grad(self):
        a = Tensor([4.0, 9.0], requires_grad=True)
        b = Tensor([2.0, 3.0], requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5, 1 / 3])
        np.testing.assert_allclose(b.grad, [-1.0, -1.0])

    def test_pow_grad(self):
        check_unary_grad(lambda t: t ** 3, np.array([1.5, -0.5]))

    def test_matmul_grad_matches_numerical(self):
        rng = np.random.default_rng(0)
        a_val = rng.standard_normal((3, 4))
        b_val = rng.standard_normal((4, 2))
        a = Tensor(a_val, requires_grad=True)
        b = Tensor(b_val, requires_grad=True)
        (a @ b).sum().backward()
        num_a = numerical_gradient(lambda v: (v @ b_val).sum(), a_val.copy())
        num_b = numerical_gradient(lambda v: (a_val @ v).sum(), b_val.copy())
        np.testing.assert_allclose(a.grad, num_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, num_b, atol=1e-5)

    def test_grad_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3 + x * 4
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_diamond_graph_grad(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2
        b = x * 3
        (a * b).backward()  # d/dx 6x^2 = 12x
        np.testing.assert_allclose(x.grad, [12.0])


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(6))

    def test_reshape_accepts_tuple(self):
        assert Tensor(np.zeros(6)).reshape((2, 3)).shape == (2, 3)

    def test_transpose_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        (x.T * np.arange(6.0).reshape(3, 2)).sum().backward()
        np.testing.assert_allclose(x.grad, np.arange(6.0).reshape(3, 2).T)

    def test_transpose_axes(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.transpose(2, 0, 1).shape == (4, 2, 3)


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3)))
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_sum_grad(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        x.sum(axis=0).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_value_and_grad(self):
        x = Tensor(np.array([1.0, 3.0]), requires_grad=True)
        m = x.mean()
        assert m.item() == 2.0
        m.backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4),
              elements=st.floats(-3, 3, allow_nan=False)))
def test_property_sum_grad_is_ones(x):
    t = Tensor(x, requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(x))


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (3, 3), elements=st.floats(-2, 2, allow_nan=False)))
def test_property_mul_grad_matches_numerical(x):
    t = Tensor(x, requires_grad=True)
    ((t * t) * 0.5).sum().backward()
    np.testing.assert_allclose(t.grad, x, atol=1e-6)
