"""From-scratch autograd and neural-network substrate.

Implements the reverse-mode autodiff engine, layers and optimisers that
BiSAGE, GraphSAGE and the convolutional autoencoder baseline train on.
"""

from repro.nn import init, ops
from repro.nn.layers import (
    Conv1d,
    Linear,
    Module,
    Parameter,
    export_parameters,
    load_parameters,
)
from repro.nn.optim import Adam, Optimizer
from repro.nn.sparse import row_normalized_csr, spmm
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "Adam",
    "Conv1d",
    "Linear",
    "Module",
    "Optimizer",
    "Parameter",
    "Tensor",
    "as_tensor",
    "export_parameters",
    "init",
    "load_parameters",
    "is_grad_enabled",
    "no_grad",
    "ops",
    "row_normalized_csr",
    "spmm",
]
