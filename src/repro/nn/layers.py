"""Neural-network layers built on the autograd Tensor.

Provides the module abstraction (parameter collection) plus the layers
the paper's models need: dense layers for the GNNs and 1-D convolutions
for the autoencoder baseline ("four layers of 1-D convolution with the
ReLU activation function", Sec. V).
"""

from __future__ import annotations

import numpy as np

from repro.nn import init, ops
from repro.nn.tensor import Tensor, as_tensor
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int

__all__ = ["Module", "Parameter", "Linear", "Conv1d", "export_parameters", "load_parameters"]


class Parameter(Tensor):
    """A tensor that is always trainable."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def export_parameters(parameters, prefix: str = "param") -> dict[str, np.ndarray]:
    """Flat ``{f"{prefix}_{i}": array}`` mapping of parameter data (copies).

    The inverse of :func:`load_parameters`; the shared currency of every
    checkpointable model in the library (the GNNs keep bare parameter
    lists rather than :class:`Module` trees).
    """
    return {f"{prefix}_{i}": p.data.copy() for i, p in enumerate(parameters)}


def load_parameters(parameters, state: dict[str, np.ndarray], prefix: str = "param") -> None:
    """Load arrays exported by :func:`export_parameters` back in place.

    Validates count and per-parameter shape so a checkpoint from a model
    with different hyper-parameters fails loudly instead of silently.
    """
    parameters = list(parameters)
    expected = {f"{prefix}_{i}" for i in range(len(parameters))}
    if set(state) != expected:
        raise ValueError(f"parameter state has keys {sorted(state)}, "
                         f"model expects {sorted(expected)}")
    for i, param in enumerate(parameters):
        incoming = np.asarray(state[f"{prefix}_{i}"], dtype=np.float64)
        if incoming.shape != param.data.shape:
            raise ValueError(f"shape mismatch for {prefix}_{i}: "
                             f"{incoming.shape} vs {param.data.shape}")
        param.data = incoming.copy()


class Module:
    """Base class: tracks parameters registered as attributes."""

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        seen: set[int] = set()
        for value in vars(self).values():
            params.extend(_collect(value, seen))
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of parameter arrays (copies) for checkpointing."""
        return export_parameters(self.parameters())

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        load_parameters(self.parameters(), state)


def _collect(value, seen: set[int]) -> list[Parameter]:
    if isinstance(value, Parameter):
        if id(value) in seen:
            return []
        seen.add(id(value))
        return [value]
    if isinstance(value, Module):
        out = []
        for sub in vars(value).values():
            out.extend(_collect(sub, seen))
        return out
    if isinstance(value, (list, tuple)):
        out = []
        for item in value:
            out.extend(_collect(item, seen))
        return out
    if isinstance(value, dict):
        out = []
        for item in value.values():
            out.extend(_collect(item, seen))
        return out
    return []


class Linear(Module):
    """Affine layer ``y = x @ W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None):
        check_positive_int(in_features, "in_features")
        check_positive_int(out_features, "out_features")
        rng = as_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv1d(Module):
    """1-D convolution over (batch, channels, length) inputs.

    Implemented with im2col + matmul so it rides on the existing autograd
    primitives.  Stride and zero padding are supported; dilation is not
    needed by the paper's autoencoder.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True, rng=None):
        check_positive_int(in_channels, "in_channels")
        check_positive_int(out_channels, "out_channels")
        check_positive_int(kernel_size, "kernel_size")
        check_positive_int(stride, "stride")
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        rng = as_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(init.he_uniform((out_channels, in_channels, kernel_size), rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def output_length(self, length: int) -> int:
        return (length + 2 * self.padding - self.kernel_size) // self.stride + 1

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 3:
            raise ValueError(f"Conv1d expects (batch, channels, length), got shape {x.shape}")
        batch, channels, length = x.shape
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {channels}")
        out_len = self.output_length(length)
        if out_len <= 0:
            raise ValueError(f"input length {length} too short for kernel {self.kernel_size}")

        if self.padding:
            x = _pad_length(x, self.padding)
            length = length + 2 * self.padding

        # im2col via fancy indexing: (batch, C*k, out_len) columns.
        starts = np.arange(out_len) * self.stride
        taps = starts[None, :] + np.arange(self.kernel_size)[:, None]  # (k, out_len)
        flat = x.reshape(batch, channels * length)
        col_index = (np.arange(channels)[:, None, None] * length + taps[None]).reshape(-1)
        cols = _gather_cols(flat, col_index)  # (batch, C*k*out_len)
        cols = cols.reshape(batch, channels * self.kernel_size, out_len)

        kernel = self.weight.reshape(self.out_channels, channels * self.kernel_size)
        # (batch, out_len, C*k) @ (C*k, out_channels) -> (batch, out_len, out_channels)
        out = cols.transpose(0, 2, 1) @ kernel.T
        if self.bias is not None:
            out = out + self.bias
        return out.transpose(0, 2, 1)


def _pad_length(x: Tensor, pad: int) -> Tensor:
    """Zero-pad the last axis of a (batch, channels, length) tensor."""
    batch, channels, _ = x.shape
    zeros = Tensor(np.zeros((batch, channels, pad)))
    return ops.concat([zeros, x, zeros], axis=2)


def _gather_cols(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather columns of a 2-D tensor with scatter-add gradient."""
    idx = np.asarray(indices, dtype=np.int64)
    out_data = x.data[:, idx]

    def backward(grad):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.add.at(full.T, idx, grad.transpose(1, 0))
            x._accumulate(full)

    return Tensor._make(out_data, (x,), backward)
