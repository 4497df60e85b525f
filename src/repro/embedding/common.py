"""Shared machinery for the SAGE-family embedders.

Both BiSAGE and the homogeneous GraphSAGE baseline view the bipartite
graph through a *global* node numbering — record ``i`` is node ``i`` and
MAC ``j`` is node ``num_records + j`` (:func:`~repro.graph.global_csr`)
— and aggregate neighbourhoods via row-stochastic sparse matrices.  This
module builds those matrices with a per-fit weighted neighbour sampler,
and generates the deterministic random initial embeddings
(``h^0``/``l^0`` "chosen randomly", Sec. III-B) so that a node's initial
embedding is a pure function of (seed, salt, node id).

RNG contract: :meth:`NeighborSampler.matrix` makes one
``rng.random((n_big, sample_size))`` draw per aggregation matrix, where
``n_big`` counts the nodes whose degree exceeds ``sample_size``, and no
draw at all when there are none or ``sample_size`` is None.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from repro.nn.sparse import row_normalized_csr
from repro.utils.validation import check_positive_int

__all__ = [
    "NeighborSampler",
    "full_aggregation_matrix",
    "initial_embeddings",
    "initial_embedding_row",
]


def full_aggregation_matrix(indptr, indices, weights, num_nodes: int) -> sp.csr_matrix:
    """Row-stochastic matrix over *all* neighbours (Eq. 8 in expectation).

    Equivalent to weighted neighbour sampling with an infinite sample
    size; used when ``sample_size=None`` for deterministic, faster runs.
    """
    degrees = np.diff(indptr)
    rows = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
    return row_normalized_csr(rows, indices, weights, shape=(num_nodes, num_nodes))


class NeighborSampler:
    """Weighted neighbour sampling (Eq. 8), with its tables built once per fit.

    Takes the global CSR arrays of one graph.  Nodes whose degree is at
    most ``sample_size`` keep their full neighbourhood (sampling with
    replacement would only add variance); every other node draws
    ``sample_size`` neighbours with replacement, proportionally to edge
    weight.  Each draw inverts one CDF shared by all sampled nodes: node
    ``rank``'s cumulative weights are mapped into ``[rank, rank + 1)`` and
    every draw is answered by one ``searchsorted``.  With
    ``sample_size=None`` every matrix is the full-neighbourhood one.
    """

    def __init__(self, indptr, indices, weights, sample_size: int | None):
        if sample_size is not None:
            check_positive_int(sample_size, "sample_size")
        self.indices = indices
        self.weights = weights
        self.num_nodes = len(indptr) - 1
        self.sample_size = sample_size
        self.full = full_aggregation_matrix(indptr, indices, weights, self.num_nodes)
        if sample_size is None:
            return
        degrees = np.diff(indptr)
        small = degrees <= sample_size
        keep = np.repeat(small, degrees)
        self._rows_small = np.repeat(np.arange(self.num_nodes)[small], degrees[small])
        self._cols_small = indices[keep]
        self._weights_small = weights[keep]

        big = np.flatnonzero(~small)
        segments = [rank + _cdf(weights[indptr[node]:indptr[node + 1]])
                    for rank, node in enumerate(big)]
        self._cdf = np.concatenate(segments) if segments else np.empty(0)
        ranks = np.repeat(np.arange(len(big)), sample_size)
        seg_offsets = np.concatenate([[0], np.cumsum(degrees[big])])
        self._ranks = np.arange(len(big))[:, None]
        self._seg_starts = seg_offsets[ranks]
        self._max_local = degrees[big][ranks] - 1
        self._bases = indptr[big][ranks]
        self._rows_big = np.repeat(big, sample_size)

    def sample(self, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One draw of sampled neighbourhoods as COO ``(rows, cols, edge weights)``.

        Needs a ``sample_size``.  Rows of full neighbourhoods come first,
        then ``sample_size`` rows per sampled node.
        """
        if not len(self._ranks):
            return self._rows_small, self._cols_small, self._weights_small
        draws = rng.random((len(self._ranks), self.sample_size)) + self._ranks
        positions = np.searchsorted(self._cdf, draws.ravel(), side="right")
        positions = np.minimum(positions, len(self._cdf) - 1)
        local = np.clip(positions - self._seg_starts, 0, self._max_local)
        adjacency = self._bases + local
        return (np.concatenate([self._rows_small, self._rows_big]),
                np.concatenate([self._cols_small, self.indices[adjacency]]),
                np.concatenate([self._weights_small, self.weights[adjacency]]))

    def matrix(self, rng) -> sp.csr_matrix:
        """A row-stochastic aggregation matrix over freshly sampled neighbourhoods."""
        if self.sample_size is None:
            return self.full
        rows, cols, weights = self.sample(rng)
        return row_normalized_csr(rows, cols, weights, shape=(self.num_nodes, self.num_nodes))


def _cdf(weights: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def initial_embedding_row(dim: int, seed: int, salt: int, node_id: int) -> np.ndarray:
    """Deterministic unit-norm random initial embedding for one node.

    ``node_id`` may be negative (sentinel identities such as the shared
    inference-node key); SeedSequence entropy must be non-negative, so
    ids are shifted into the positive range.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, salt, node_id + 2**31)))
    row = rng.standard_normal(dim)
    norm = np.linalg.norm(row)
    return row / norm if norm > 0 else row


def initial_embeddings(num_nodes: int, dim: int, seed: int, salt: int,
                       start: int = 0) -> np.ndarray:
    """Deterministic initial embeddings for nodes ``start .. start+num-1``.

    Row ``i`` depends only on (seed, salt, start + i), so appending nodes
    later reproduces exactly the same earlier rows.
    """
    out = np.empty((num_nodes, dim), dtype=np.float64)
    for i in range(num_nodes):
        out[i] = initial_embedding_row(dim, seed, salt, start + i)
    return out
