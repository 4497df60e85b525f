"""Functional operations on :class:`~repro.nn.tensor.Tensor`.

What the convolutional autoencoder baseline needs: ReLU, concatenation
(its convolutions' zero padding) and the mean squared error.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor

__all__ = [
    "concat",
    "relu",
    "mse_loss",
]


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0.0)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * (x.data > 0))

    return Tensor._make(out_data, (x,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis``."""
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


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error between ``prediction`` and a constant target."""
    prediction = as_tensor(prediction)
    target = as_tensor(target).detach()
    diff = prediction - target
    return (diff * diff).mean()
