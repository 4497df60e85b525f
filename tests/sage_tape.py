"""SAGE training on the generic ``repro.nn`` autodiff tape, as a test reference.

``embedding/common.SAGE`` trains with a hand-written forward and backward
and builds its aggregation matrices straight from the sampler's arrays.
This module keeps the formulation those replaced: the forward pass and
the Eq. 9 losses of BiSAGE and GraphSAGE written with tape ops, the
sparse product that differentiates through an aggregation matrix, the
scipy construction of a row-normalised matrix, and the tape ops only
this reference uses.  ``tests/test_fit_differential.py`` trains with it
and asserts the library's fits equal it bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from repro.nn import Tensor
from repro.nn.ops import concat
from repro.nn.tensor import as_tensor

__all__ = [
    "gather_rows",
    "l2_normalize_rows",
    "log_sigmoid",
    "row_dot",
    "row_normalized_csr",
    "scatter_rows",
    "softplus",
    "spmm",
    "tanh",
    "tape_forward",
    "tape_loss",
]


# ----------------------------------------------------------------------
# Sparse aggregation
# ----------------------------------------------------------------------
def spmm(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """Multiply a constant sparse ``matrix`` (n, m) by dense ``x`` (m, d).

    The sparse operand is not differentiated; gradients flow only to the
    dense rows (``dX = A^T @ dY``).
    """
    if not sp.issparse(matrix):
        raise TypeError("spmm expects a scipy sparse matrix as first operand")
    x = as_tensor(x)
    csr = matrix.tocsr()
    out_data = csr @ x.data

    def backward(grad):
        if x.requires_grad:
            x._accumulate(csr.T @ grad)

    return Tensor._make(out_data, (x,), backward)


def row_normalized_csr(rows, cols, weights, shape) -> sp.csr_matrix:
    """Build a CSR matrix whose non-empty rows sum to one.

    Encodes the weighted-mean aggregator of Eq. 8: entry (i, j) is the
    normalised edge weight with which neighbour ``j`` contributes to the
    aggregate at node ``i``.  Rows with no entries stay all-zero (their
    aggregate is the zero vector).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if not (rows.shape == cols.shape == weights.shape):
        raise ValueError("rows, cols and weights must have matching shapes")
    if weights.size and weights.min() < 0:
        raise ValueError("aggregation weights must be non-negative")
    matrix = sp.csr_matrix((weights, (rows, cols)), shape=shape)
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    scale = np.divide(1.0, row_sums, out=np.zeros_like(row_sums), where=row_sums > 0)
    return sp.diags(scale) @ matrix


# ----------------------------------------------------------------------
# Tape ops of the forward pass (Eq. 3-7) and the loss (Eq. 9)
# ----------------------------------------------------------------------
def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * (1.0 - out_data**2))

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


def scatter_rows(index, grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Adjoint of ``x[index]`` for an integer ``index`` into the first axis.

    Returns an array of ``shape`` with each row of ``grad`` added into
    the row it was read from, by one weighted ``bincount`` over the flat
    target positions.
    """
    index = np.asarray(index, dtype=np.int64).ravel()
    num_rows = shape[0]
    row_size = int(np.prod(shape[1:], dtype=np.int64))
    index = np.where(index < 0, index + num_rows, index)
    targets = index[:, None] * row_size + np.arange(row_size)
    out = np.bincount(targets.ravel(), weights=np.ravel(grad), minlength=num_rows * row_size)
    return out.reshape(shape)


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


# ----------------------------------------------------------------------
# The model on the tape
# ----------------------------------------------------------------------
def tape_forward(model, initial: dict[str, np.ndarray], aggregators) -> dict[str, Tensor]:
    """K rounds of Algorithm 1 over the whole (snapshot) graph."""
    z = {name: Tensor(rows) for name, rows in initial.items()}
    for k, matrix in enumerate(aggregators):
        agg = {name: spmm(matrix, z[stream.reads])                  # Eq. 3 / 5
               for name, stream in model.streams.items()}
        new = {name: tanh(concat([z[name], agg[name]], axis=1)
                          @ getattr(model, stream.weights)[k])      # Eq. 4 / 6
               for name, stream in model.streams.items()}
        z = {name: l2_normalize_rows(rows) for name, rows in new.items()}  # Eq. 7
    return z


def tape_loss(model, final: dict[str, Tensor], batch: np.ndarray, negative_sampler,
              gather=gather_rows) -> Tensor:
    """Eq. 9 over a batch of walk pairs plus K_N negatives per pair.

    BiSAGE scores ``h`` against ``l`` both ways; GraphSAGE scores its one
    stream ``z`` against itself.
    """
    cfg = model.config
    if set(final) == {"h", "l"}:
        h, l = final["h"], final["l"]
        x_ids, y_ids = batch[:, 0], batch[:, 1]
        h_x = gather(h, x_ids)
        l_x = gather(l, x_ids)
        h_y = gather(h, y_ids)
        l_y = gather(l, y_ids)
        positive = log_sigmoid(row_dot(h_x, l_y)) + log_sigmoid(row_dot(l_x, h_y))

        z_ids = negative_sampler.sample_global(len(batch) * cfg.negative_samples)
        h_z = gather(h, z_ids).reshape(len(batch), cfg.negative_samples, cfg.dim)
        l_z = gather(l, z_ids).reshape(len(batch), cfg.negative_samples, cfg.dim)
        h_x3 = h_x.reshape(len(batch), 1, cfg.dim)
        l_x3 = l_x.reshape(len(batch), 1, cfg.dim)
        negative = (log_sigmoid(-(h_x3 * l_z).sum(axis=2))
                    + log_sigmoid(-(l_x3 * h_z).sum(axis=2))).sum(axis=1)
        return -(positive + negative).mean()
    z = final["z"]
    z_x = gather(z, batch[:, 0])
    z_y = gather(z, batch[:, 1])
    positive = log_sigmoid(row_dot(z_x, z_y))
    neg_ids = negative_sampler.sample_global(len(batch) * cfg.negative_samples)
    z_neg = gather(z, neg_ids).reshape(len(batch), cfg.negative_samples, cfg.dim)
    z_x3 = z_x.reshape(len(batch), 1, cfg.dim)
    negative = log_sigmoid(-(z_x3 * z_neg).sum(axis=2)).sum(axis=1)
    return -(positive + negative).mean()
