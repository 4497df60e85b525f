"""From-scratch autograd and neural-network substrate.

Implements the reverse-mode autodiff engine and layers the convolutional
autoencoder baseline trains on, the Adam optimiser it shares with BiSAGE
and GraphSAGE (whose training step is written out by hand in
``repro.embedding.common``), and the SAGE inference kernel.
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
from repro.nn.tensor import Tensor, as_tensor, no_grad

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
    "no_grad",
    "ops",
]
