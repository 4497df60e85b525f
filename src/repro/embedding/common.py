"""Shared machinery for the SAGE-family embedders.

Both BiSAGE and the homogeneous GraphSAGE baseline view the bipartite
graph through a *global* node numbering — record ``i`` is node ``i`` and
MAC ``j`` is node ``num_records + j`` — and aggregate neighbourhoods via
row-stochastic sparse matrices.  This module builds those matrices,
performs vectorised weighted neighbour sampling, and generates the
deterministic random initial embeddings (``h^0``/``l^0`` "chosen
randomly", Sec. III-B) so that a node's initial embedding is a pure
function of (seed, salt, node id) and is reproducible as the graph grows.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from repro.graph.bipartite import WeightedBipartiteGraph
from repro.nn.sparse import row_normalized_csr
from repro.utils.rng import as_rng

__all__ = [
    "global_csr",
    "full_aggregation_matrix",
    "sampled_aggregation_matrix",
    "sample_neighbors_batch",
    "initial_embeddings",
    "initial_embedding_row",
]


def global_csr(graph: WeightedBipartiteGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the bipartite adjacency into global-id CSR arrays.

    Returns ``(indptr, indices, weights)`` over ``N = num_records +
    num_macs`` rows; record rows come first.  Neighbour indices are
    global ids in the opposite partition.
    """
    num_records = graph.num_records
    num_macs = graph.num_macs
    rows_u, cols_v, weights_uv = graph.record_adjacency()

    indptr = np.zeros(num_records + num_macs + 1, dtype=np.int64)
    # Degrees per row.
    if len(rows_u):
        np.add.at(indptr, rows_u + 1, 1)
        np.add.at(indptr, num_records + cols_v + 1, 1)
    np.cumsum(indptr, out=indptr)

    indices = np.empty(2 * len(rows_u), dtype=np.int64)
    weights = np.empty(2 * len(rows_u), dtype=np.float64)
    cursor = indptr[:-1].copy()
    # Record rows point at MAC nodes (offset), MAC rows point back.
    for u, v, w in zip(rows_u, cols_v, weights_uv):
        pos = cursor[u]
        indices[pos] = num_records + v
        weights[pos] = w
        cursor[u] += 1
        pos = cursor[num_records + v]
        indices[pos] = u
        weights[pos] = w
        cursor[num_records + v] += 1
    return indptr, indices, weights


def full_aggregation_matrix(indptr, indices, weights, num_nodes: int) -> sp.csr_matrix:
    """Row-stochastic matrix over *all* neighbours (Eq. 8 in expectation).

    Equivalent to weighted neighbour sampling with an infinite sample
    size; used when ``sample_size=None`` for deterministic, faster runs.
    """
    degrees = np.diff(indptr)
    rows = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
    return row_normalized_csr(rows, indices, weights, shape=(num_nodes, num_nodes))


def sample_neighbors_batch(indptr, indices, weights, sample_size: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised weighted sampling of ``sample_size`` neighbours per node.

    Nodes whose degree is at most ``sample_size`` keep their full
    neighbourhood (sampling with replacement would only add variance).
    Returns COO triples (rows, cols, edge weights).
    """
    rng = as_rng(rng)
    num_nodes = len(indptr) - 1
    degrees = np.diff(indptr)

    small = degrees <= sample_size
    # Full neighbourhoods for small-degree nodes.
    rows_small = np.repeat(np.arange(num_nodes)[small], degrees[small])
    if len(rows_small):
        keep_mask = np.zeros(len(indices), dtype=bool)
        for node in np.nonzero(small)[0]:
            keep_mask[indptr[node]:indptr[node + 1]] = True
        cols_small = indices[keep_mask]
        weights_small = weights[keep_mask]
    else:
        cols_small = np.empty(0, dtype=np.int64)
        weights_small = np.empty(0, dtype=np.float64)

    big_nodes = np.nonzero(~small & (degrees > 0))[0]
    if len(big_nodes) == 0:
        return rows_small, cols_small, weights_small

    # Inverse-CDF trick shared across rows: map each row's cumulative
    # weights into the interval [row_rank, row_rank + 1) and answer all
    # draws with one searchsorted over the concatenation.
    segments = []
    for rank, node in enumerate(big_nodes):
        w = weights[indptr[node]:indptr[node + 1]]
        cdf = np.cumsum(w)
        segments.append(rank + cdf / cdf[-1])
    global_cdf = np.concatenate(segments)
    seg_offsets = np.cumsum([0] + [degrees[node] for node in big_nodes])

    draws = rng.random((len(big_nodes), sample_size)) + np.arange(len(big_nodes))[:, None]
    positions = np.searchsorted(global_cdf, draws.ravel(), side="right")
    positions = np.minimum(positions, len(global_cdf) - 1)
    # Convert flat segment positions back into adjacency positions.
    ranks = np.repeat(np.arange(len(big_nodes)), sample_size)
    local = positions - seg_offsets[ranks]
    local = np.clip(local, 0, degrees[big_nodes][ranks] - 1)
    adjacency_pos = indptr[big_nodes][ranks] + local

    rows_big = np.repeat(big_nodes, sample_size)
    cols_big = indices[adjacency_pos]
    weights_big = weights[adjacency_pos]

    return (np.concatenate([rows_small, rows_big]),
            np.concatenate([cols_small, cols_big]),
            np.concatenate([weights_small, weights_big]))


def sampled_aggregation_matrix(indptr, indices, weights, num_nodes: int,
                               sample_size: int | None, rng) -> sp.csr_matrix:
    """Aggregation matrix with weighted neighbour sampling (Eq. 8)."""
    if sample_size is None:
        return full_aggregation_matrix(indptr, indices, weights, num_nodes)
    rows, cols, w = sample_neighbors_batch(indptr, indices, weights, sample_size, rng)
    return row_normalized_csr(rows, cols, w, shape=(num_nodes, num_nodes))


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
