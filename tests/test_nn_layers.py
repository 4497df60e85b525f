"""Layers: shapes, parameter collection, conv correctness, optimisers."""

import numpy as np
import pytest

from repro.nn import Adam, Conv1d, Linear, Module, Parameter, Tensor

from conftest import numerical_gradient


class TestModule:
    def test_parameters_collects_nested(self):
        class Net(Module):
            def __init__(self):
                self.fc1 = Linear(2, 3, rng=0)
                self.stack = [Linear(3, 3, rng=1)]
                self.extra = [Parameter(np.zeros(2))]

        net = Net()
        # fc1 (W+b) + inner linear (W+b) + extra = 5 parameters
        assert len(net.parameters()) == 5

    def test_parameters_deduplicates_shared(self):
        shared = Parameter(np.zeros(3))

        class Net(Module):
            def __init__(self):
                self.a = shared
                self.b = shared

        assert len(Net().parameters()) == 1

    def test_zero_grad(self):
        layer = Linear(2, 2, rng=0)
        out = layer(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self):
        a = Linear(2, 2, rng=0)
        b = Linear(2, 2, rng=99)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_load_state_dict_shape_mismatch(self):
        a = Linear(2, 2, rng=0)
        b = Linear(2, 3, rng=0)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())


class TestLinear:
    def test_forward_affine(self):
        layer = Linear(2, 2, rng=0)
        layer.weight.data = np.array([[1.0, 0.0], [0.0, 2.0]])
        layer.bias.data = np.array([1.0, -1.0])
        out = layer(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.numpy(), [[4.0, 7.0]])

    def test_no_bias(self):
        layer = Linear(2, 2, bias=False, rng=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 2)

    def test_gradient_matches_numerical(self):
        layer = Linear(3, 2, rng=0)
        x = np.random.default_rng(0).standard_normal((4, 3))
        layer(Tensor(x)).sum().backward()
        w0 = layer.weight.data.copy()

        def loss_at(w):
            saved = layer.weight.data
            layer.weight.data = w
            value = layer(Tensor(x)).numpy().sum()
            layer.weight.data = saved
            return value

        num = numerical_gradient(loss_at, w0)
        np.testing.assert_allclose(layer.weight.grad, num, atol=1e-5)


class TestConv1d:
    def test_output_length(self):
        conv = Conv1d(1, 1, kernel_size=3, stride=2, padding=1, rng=0)
        assert conv.output_length(10) == 5

    def test_forward_matches_manual_convolution(self):
        conv = Conv1d(1, 1, kernel_size=3, stride=1, padding=0, bias=False, rng=0)
        conv.weight.data = np.array([[[1.0, 0.0, -1.0]]])
        x = np.arange(5.0)[None, None, :]
        out = conv(Tensor(x)).numpy()
        # valid conv of [0..4] with kernel [1,0,-1]: x[i] - x[i+2]
        np.testing.assert_allclose(out, [[[-2.0, -2.0, -2.0]]])

    def test_padding_zero_extends(self):
        conv = Conv1d(1, 1, kernel_size=3, stride=1, padding=1, bias=False, rng=0)
        conv.weight.data = np.array([[[0.0, 1.0, 0.0]]])
        x = np.array([[[1.0, 2.0, 3.0]]])
        np.testing.assert_allclose(conv(Tensor(x)).numpy(), x)

    def test_multi_channel_shapes(self):
        conv = Conv1d(3, 5, kernel_size=3, stride=2, padding=1, rng=0)
        out = conv(Tensor(np.zeros((2, 3, 11))))
        assert out.shape == (2, 5, 6)

    def test_rejects_wrong_channels(self):
        conv = Conv1d(2, 1, kernel_size=3, rng=0)
        with pytest.raises(ValueError, match="channels"):
            conv(Tensor(np.zeros((1, 3, 8))))

    def test_rejects_2d_input(self):
        conv = Conv1d(1, 1, kernel_size=3, rng=0)
        with pytest.raises(ValueError, match="batch"):
            conv(Tensor(np.zeros((3, 8))))

    def test_too_short_input(self):
        conv = Conv1d(1, 1, kernel_size=5, rng=0)
        with pytest.raises(ValueError, match="too short"):
            conv(Tensor(np.zeros((1, 1, 3))))

    def test_gradient_matches_numerical(self):
        conv = Conv1d(2, 3, kernel_size=3, stride=2, padding=1, rng=0)
        x_val = np.random.default_rng(1).standard_normal((2, 2, 7))
        x = Tensor(x_val, requires_grad=True)
        conv(x).sum().backward()
        num = numerical_gradient(lambda v: conv(Tensor(v)).numpy().sum(), x_val.copy())
        np.testing.assert_allclose(x.grad, num, atol=1e-5)

    def test_weight_gradient_matches_numerical(self):
        conv = Conv1d(1, 2, kernel_size=3, rng=0)
        x = np.random.default_rng(2).standard_normal((1, 1, 6))
        conv(Tensor(x)).sum().backward()
        w0 = conv.weight.data.copy()

        def loss_at(w):
            saved = conv.weight.data
            conv.weight.data = w
            value = conv(Tensor(x)).numpy().sum()
            conv.weight.data = saved
            return value

        np.testing.assert_allclose(conv.weight.grad, numerical_gradient(loss_at, w0), atol=1e-5)


class TestOptimizers:
    def _quadratic_descends(self, make_optimizer, steps=120, tol=1e-2):
        param = Parameter(np.array([5.0, -3.0]))
        optimizer = make_optimizer([param])
        for _ in range(steps):
            loss = (param * param).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert np.abs(param.data).max() < tol

    def test_adam_minimises_quadratic(self):
        self._quadratic_descends(lambda p: Adam(p, lr=0.2))

    def test_skip_params_without_grad(self):
        param = Parameter(np.array([1.0]))
        Adam([param], lr=0.1).step()
        np.testing.assert_allclose(param.data, [1.0])

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.0, 0.9))

