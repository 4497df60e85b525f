"""Functional operations on :class:`~repro.nn.tensor.Tensor`.

Activations, numerically-stable log-likelihood helpers, concatenation,
row gathering and row-wise L2 normalisation — everything BiSAGE's
forward pass (Eq. 3–7) and loss (Eq. 9) need.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor, scatter_rows

__all__ = [
    "concat",
    "exp",
    "gather_rows",
    "l2_normalize_rows",
    "log",
    "log_sigmoid",
    "relu",
    "row_dot",
    "sigmoid",
    "softplus",
    "tanh",
    "mse_loss",
]


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function with a numerically stable forward."""
    x = as_tensor(x)
    data = x.data
    out_data = np.where(data >= 0, 1.0 / (1.0 + np.exp(-np.clip(data, 0, None))),
                        np.exp(np.clip(data, None, 0)) / (1.0 + np.exp(np.clip(data, None, 0))))

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * (1.0 - out_data**2))

    return Tensor._make(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0.0)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * (x.data > 0))

    return Tensor._make(out_data, (x,), backward)


def exp(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.exp(x.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * out_data)

    return Tensor._make(out_data, (x,), backward)


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.log(x.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad / x.data)

    return Tensor._make(out_data, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    """``log(1 + exp(x))`` computed stably."""
    x = as_tensor(x)
    data = x.data
    out_data = np.maximum(data, 0.0) + np.log1p(np.exp(-np.abs(data)))

    def backward(grad):
        if x.requires_grad:
            sig = np.where(data >= 0, 1.0 / (1.0 + np.exp(-np.clip(data, 0, None))),
                           np.exp(np.clip(data, None, 0)) / (1.0 + np.exp(np.clip(data, None, 0))))
            x._accumulate(grad * sig)

    return Tensor._make(out_data, (x,), backward)


def log_sigmoid(x: Tensor) -> Tensor:
    """``log(sigmoid(x)) = -softplus(-x)``, stable for large |x|."""
    return -softplus(-as_tensor(x))


def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (CONCAT in Eq. 4/6)."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows ``x[indices]`` with scatter-add gradient.

    ``indices`` may repeat; the gradient is accumulated back into each
    selected row (the embedding-lookup primitive).
    """
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    out_data = x.data[idx]

    def backward(grad):
        if x.requires_grad:
            x._accumulate(scatter_rows(idx, grad, x.data.shape))

    return Tensor._make(out_data, (x,), backward)


def row_dot(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise inner product of two (n, d) tensors -> (n,) tensor."""
    a, b = as_tensor(a), as_tensor(b)
    return (a * b).sum(axis=-1)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalise each row to unit L2 norm (Eq. 7).

    Zero rows are left at (near) zero rather than producing NaNs.
    """
    x = as_tensor(x)
    norms = ((x * x).sum(axis=-1, keepdims=True) + eps) ** 0.5
    return x / norms


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error between ``prediction`` and a constant target."""
    prediction = as_tensor(prediction)
    target = as_tensor(target).detach()
    diff = prediction - target
    return (diff * diff).mean()
