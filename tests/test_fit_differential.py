"""Differential bit-identity harness for BiSAGE / GraphSAGE training.

Training builds its sampling tables once per fit, advances every walk
in lock-step, builds each aggregation matrix straight from the
sampler's arrays and runs a hand-written forward and backward.  This
file keeps the per-call formulations those replaced as in-test
references and asserts that the two agree bit for bit:

* the walk corpus and its training pairs (a per-walk loop of
  ``Generator.choice`` calls, one uniform per step);
* every per-step aggregation matrix (``sample_neighbors_batch``, which
  rebuilt its CDF tables on every call, then scipy's COO to CSR and
  ``diags @ matrix`` in ``sage_tape.row_normalized_csr``);
* the tape's ``gather_rows`` gradient (``np.add.at``);
* whole fits: weights, all inference caches and ``loss_history``, against
  the model run on the autodiff tape (``sage_tape``), with initial rows
  drawn one ``initial_embedding_row`` call per node.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import synthetic_records
from repro.core.records import SignalRecord
from repro.embedding.bisage import BiSAGE, BiSAGEConfig
from repro.embedding.common import NeighborSampler, initial_embedding_row
from repro.embedding.graphsage import GraphSAGE, GraphSAGEConfig
from repro.graph import (MAC, RECORD, RandomWalker, WalkConfig, build_graph,
                         global_csr, walk_pairs)
from repro.graph.sampling import NegativeSampler
from repro.graph.walks import _search_right, _transition_cdf
from repro.nn import Adam, Parameter, Tensor, init
from repro.nn.tensor import as_tensor
from repro.utils.rng import as_rng
from sage_tape import gather_rows, row_normalized_csr, tape_forward, tape_loss


# ----------------------------------------------------------------------
# References: the per-call formulations
# ----------------------------------------------------------------------
def reference_global_csr(graph):
    """Per-edge loop over the record adjacency."""
    num_records, num_macs = graph.num_records, graph.num_macs
    rows_u, cols_v, weights_uv = graph.record_adjacency()
    indptr = np.zeros(num_records + num_macs + 1, dtype=np.int64)
    if len(rows_u):
        np.add.at(indptr, rows_u + 1, 1)
        np.add.at(indptr, num_records + cols_v + 1, 1)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(2 * len(rows_u), dtype=np.int64)
    weights = np.empty(2 * len(rows_u), dtype=np.float64)
    cursor = indptr[:-1].copy()
    for u, v, w in zip(rows_u, cols_v, weights_uv):
        indices[cursor[u]], weights[cursor[u]] = num_records + v, w
        cursor[u] += 1
        indices[cursor[num_records + v]], weights[cursor[num_records + v]] = u, w
        cursor[num_records + v] += 1
    return indptr, indices, weights


def reference_walk_from(graph, side, index, walk_length, rng):
    """One walk: a ``Generator.choice`` call per step."""
    path = [(side, index)]
    for _ in range(walk_length - 1):
        neighbors, weights = graph.neighbors(side, index)
        if len(neighbors) == 0:
            break
        step = rng.choice(len(neighbors), p=weights / weights.sum())
        side = MAC if side == RECORD else RECORD
        index = int(neighbors[step])
        path.append((side, index))
    return path


def reference_corpus(graph, config: WalkConfig, rng):
    return [reference_walk_from(graph, side, index, config.walk_length, rng)
            for side, count in ((RECORD, graph.num_records), (MAC, graph.num_macs))
            for index in range(count) if len(graph.neighbors(side, index)[0])
            for _ in range(config.walks_per_node)]


def reference_pair_ids(graph, walks, window):
    """Walk-major (x, y) pairs within ``window`` steps, as global ids."""
    def global_id(node):
        side, index = node
        return index if side == RECORD else graph.num_records + index

    pairs = [(walk[i], walk[j]) for walk in walks for i in range(len(walk))
             for j in range(i + 1, min(i + window + 1, len(walk)))]
    return np.asarray([[global_id(x), global_id(y)] for x, y in pairs],
                      dtype=np.int64).reshape(-1, 2)


def sample_neighbors_batch(indptr, indices, weights, sample_size, rng):
    """Weighted neighbour sampling that rebuilds its tables on every call."""
    num_nodes = len(indptr) - 1
    degrees = np.diff(indptr)
    small = degrees <= sample_size
    rows_small = np.repeat(np.arange(num_nodes)[small], degrees[small])
    keep_mask = np.zeros(len(indices), dtype=bool)
    for node in np.nonzero(small)[0]:
        keep_mask[indptr[node]:indptr[node + 1]] = True
    cols_small, weights_small = indices[keep_mask], weights[keep_mask]
    big_nodes = np.nonzero(~small & (degrees > 0))[0]
    if len(big_nodes) == 0:
        return rows_small, cols_small, weights_small
    segments = []
    for rank, node in enumerate(big_nodes):
        cdf = np.cumsum(weights[indptr[node]:indptr[node + 1]])
        segments.append(rank + cdf / cdf[-1])
    global_cdf = np.concatenate(segments)
    seg_offsets = np.cumsum([0] + [degrees[node] for node in big_nodes])
    draws = rng.random((len(big_nodes), sample_size)) + np.arange(len(big_nodes))[:, None]
    positions = np.minimum(np.searchsorted(global_cdf, draws.ravel(), side="right"),
                           len(global_cdf) - 1)
    ranks = np.repeat(np.arange(len(big_nodes)), sample_size)
    local = np.clip(positions - seg_offsets[ranks], 0, degrees[big_nodes][ranks] - 1)
    adjacency_pos = indptr[big_nodes][ranks] + local
    return (np.concatenate([rows_small, np.repeat(big_nodes, sample_size)]),
            np.concatenate([cols_small, indices[adjacency_pos]]),
            np.concatenate([weights_small, weights[adjacency_pos]]))


def reference_matrix(csr, sample_size, rng):
    indptr, indices, weights = csr
    num_nodes = len(indptr) - 1
    if sample_size is None:
        rows = np.repeat(np.arange(num_nodes), np.diff(indptr))
    else:
        rows, indices, weights = sample_neighbors_batch(*csr, sample_size, rng)
    return row_normalized_csr(rows, indices, weights, shape=(num_nodes, num_nodes))


def reference_initial(model, graph):
    """Layer 0 of every stream, one ``initial_embedding_row`` call per node."""
    cfg = model.config
    keys = [2 * i for i in range(graph.num_records)] + [2 * j + 1 for j in range(graph.num_macs)]
    return {name: np.vstack([initial_embedding_row(cfg.dim, cfg.seed, stream.salt, key)
                             for key in keys])
            for name, stream in model.streams.items()}


def add_at_gather_rows(x, indices):
    """``gather_rows`` with the ``np.add.at`` scatter in its backward."""
    x = as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)

    def backward(grad):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.add.at(full, idx, grad)
            x._accumulate(full)

    return Tensor._make(x.data[idx], (x,), backward)


def reference_fit(model, graph):
    """``fit`` as a per-step loop over the references above, on the tape."""
    cfg = model.config
    model.graph = graph
    initial = reference_initial(model, graph)
    param_rng = as_rng(cfg.seed + 1)
    stacks = [[Parameter(init.xavier_uniform((2 * cfg.dim, cfg.dim), param_rng))
               for _ in range(cfg.num_layers)] for _ in initial]
    for stream, stack in zip(model.streams.values(), stacks):
        setattr(model, stream.weights, stack)
    csr = reference_global_csr(graph)
    walks = reference_corpus(graph, cfg.walk, as_rng(cfg.seed + 2))
    pair_ids = reference_pair_ids(graph, walks, cfg.walk.window)
    full = reference_matrix(csr, None, None)
    if not len(pair_ids):
        model._build_cache(initial, full)
        return model
    negative_sampler = NegativeSampler(graph, power=cfg.negative_power, rng=as_rng(cfg.seed + 3))
    optimizer = Adam([p for stack in stacks for p in stack], lr=cfg.learning_rate)
    sample_rng = as_rng(cfg.seed + 4)
    shuffle_rng = as_rng(cfg.seed + 5)
    model.loss_history = []
    aggregators = None
    step = 0
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(len(pair_ids))
        for start in range(0, len(order), cfg.batch_pairs):
            batch = pair_ids[order[start:start + cfg.batch_pairs]]
            if aggregators is None or step % cfg.resample_every == 0:
                aggregators = [reference_matrix(csr, cfg.sample_size, sample_rng)
                               for _ in range(cfg.num_layers)]
            final = tape_forward(model, initial, aggregators)
            loss = tape_loss(model, final, batch, negative_sampler, gather=add_at_gather_rows)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            model.loss_history.append(loss.item())
            step += 1
    model._build_cache(initial, full)
    return model


# ----------------------------------------------------------------------
# Graphs and helpers
# ----------------------------------------------------------------------
def plain_graph(seed: int = 0):
    return build_graph(synthetic_records(24, num_macs=12, seed=seed))


def isolated_graph(seed: int = 0):
    """An isolated record, and a MAC of degree one."""
    return build_graph(synthetic_records(24, num_macs=12, seed=seed)
                       + [SignalRecord({}), SignalRecord({"mac00": -60.0, "lonely": -70.0})])


GRAPHS = {"plain": plain_graph, "isolated": isolated_graph}


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_matrix(a, b) -> None:
    for name in ("data", "indices", "indptr"):
        assert_same_bits(getattr(a, name), getattr(b, name))
    assert a.shape == b.shape


# ----------------------------------------------------------------------
# Walk corpus and pairs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("walk", [WalkConfig(walk_length=6, walks_per_node=4, window=1),
                                  WalkConfig(walk_length=6, walks_per_node=1, window=2),
                                  WalkConfig(walk_length=2, walks_per_node=3, window=1),
                                  WalkConfig(walk_length=1, walks_per_node=2, window=2)])
def test_corpus_and_pairs_match_per_walk_choice_loop(graph_name, seed, walk):
    graph = GRAPHS[graph_name](seed)
    walks = RandomWalker(graph, walk, rng=as_rng(seed)).corpus()
    expected = reference_corpus(graph, walk, as_rng(seed))
    num_u = graph.num_records
    as_ids = [[index if side == RECORD else num_u + index for side, index in path]
              for path in expected]
    assert walks.tolist() == as_ids
    assert_same_bits(walk_pairs(walks, window=walk.window),
                     reference_pair_ids(graph, expected, walk.window))


def test_segment_search_matches_searchsorted_on_ties():
    # Draws that hit a CDF value exactly are measure-zero for a real
    # stream, so the bisection is checked against searchsorted directly.
    rng = np.random.default_rng(5)
    segments = [np.array([0.25, 0.25, 0.5, 1.0]), np.array([1.0]),
                np.sort(rng.random(9)), np.array([0.0, 0.5, 0.5, 0.5, 1.0])]
    cdf = np.concatenate(segments)
    starts = np.cumsum([0] + [len(s) for s in segments])
    for k, segment in enumerate(segments):
        values = np.concatenate([segment, [0.0, 0.3, 0.999], rng.random(5)])
        lo = np.full(len(values), starts[k])
        found = _search_right(cdf, lo, lo + len(segment), values, 4)
        np.testing.assert_array_equal(
            found - starts[k], np.minimum(np.searchsorted(segment, values, side="right"),
                                          len(segment)))


def test_transition_cdf_is_the_choice_cdf():
    # Ten equal weights: the cumulative probabilities end one ulp below
    # 1.0, and Generator.choice renormalises them to end at exactly 1.0.
    weights = np.full(10, 7.0)
    cdf = _transition_cdf(np.array([0, 10]), weights, np.array([10]))
    p = weights / weights.sum()
    assert p.cumsum()[-1] != 1.0
    assert_same_bits(cdf, p.cumsum() / p.cumsum()[-1])


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_global_csr_matches_per_edge_loop(graph_name):
    graph = GRAPHS[graph_name]()
    for ours, reference in zip(global_csr(graph), reference_global_csr(graph)):
        assert_same_bits(ours, reference)


# ----------------------------------------------------------------------
# Per-step aggregation matrices
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("sample_size", [None, 1, 3, 10, 1000])
def test_every_step_matrix_matches_per_call_sampling(graph_name, seed, sample_size):
    csr = global_csr(GRAPHS[graph_name](seed))
    sampler = NeighborSampler(*csr, sample_size)
    ours_rng, reference_rng = as_rng(seed + 4), as_rng(seed + 4)
    for _ in range(6):
        assert_same_matrix(sampler.matrix(ours_rng), reference_matrix(csr, sample_size, reference_rng))
    # Both consumed the stream identically.
    assert ours_rng.random() == reference_rng.random()


def weighted_graph(seed: int):
    """Edge weights spread over ten decades, some exactly zero, plus an
    isolated record: rows that scale entries to zero, rows that sum
    inexactly, and an empty row."""
    graph = isolated_graph(seed)
    indptr, indices, weights = global_csr(graph)
    rng = np.random.default_rng(seed)
    weights = rng.random(len(weights)) * 10.0 ** rng.integers(-5, 5, len(weights))
    weights[rng.random(len(weights)) < 0.1] = 0.0
    return indptr, indices, weights


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("sample_size", [None, 1, 3, 10, 1000])
def test_direct_matrix_equals_scipy_construction(seed, sample_size):
    csr = weighted_graph(seed)
    degrees = np.diff(csr[0])
    assert (degrees == 0).any()
    sampler = NeighborSampler(*csr, sample_size)
    ours_rng, reference_rng = as_rng(seed), as_rng(seed)
    repeated = 0
    for _ in range(60):
        reference_rng_state = reference_rng.bit_generator.state
        draw = sample_neighbors_batch(*csr, sample_size, reference_rng) if sample_size else None
        reference_rng.bit_generator.state = reference_rng_state
        if draw is not None:
            pairs = draw[0] * len(degrees) + draw[1]
            repeated += len(pairs) - len(np.unique(pairs))
        assert_same_matrix(sampler.matrix(ours_rng), reference_matrix(csr, sample_size, reference_rng))
    # Several draws per row pick some neighbour more than once.
    assert repeated > 0 or sample_size in (None, 1, 1000)


# ----------------------------------------------------------------------
# Gradient scatter
# ----------------------------------------------------------------------
def scatter_grad(indices, grad, gather):
    x = Tensor(np.zeros((5, grad.shape[-1])), requires_grad=True)
    (gather(x, indices) * Tensor(grad)).sum().backward()
    return x.grad


@pytest.mark.parametrize("indices", [[4, 1, 1, 0, 1, 4, -1], [2, 2, 2], [], [[0, 3], [3, 3]]])
def test_gather_rows_grad_matches_add_at(indices):
    rng = np.random.default_rng(7)
    shape = np.asarray(indices).shape + (3,)
    grad = rng.standard_normal(shape)
    grad[..., 0] = -0.0      # a column of negative zeros only
    grad.flat[::4] = -0.0
    grad.flat[1::5] = 1e300
    assert_same_bits(scatter_grad(indices, grad, gather_rows),
                     scatter_grad(indices, grad, add_at_gather_rows))


# ----------------------------------------------------------------------
# Whole fits
# ----------------------------------------------------------------------
FIT_CASES = [
    # graph, seed, dim, sample_size, window, walks_per_node, resample_every
    ("plain", 0, 8, None, 1, 4, 1),
    ("plain", 1, 32, 3, 2, 1, 3),
    ("plain", 2, 8, 10, 1, 4, 3),
    ("isolated", 0, 32, 10, 2, 4, 1),
    ("isolated", 1, 8, 1000, 1, 1, 1),
    ("isolated", 2, 32, 3, 1, 4, 1),
    ("plain", 0, 32, 1000, 2, 1, 3),
    ("isolated", 1, 8, None, 2, 4, 3),
]


def fit_configs(seed, dim, sample_size, window, walks_per_node, resample_every):
    walk = WalkConfig(walk_length=5, walks_per_node=walks_per_node, window=window)
    common = dict(dim=dim, sample_size=sample_size, epochs=2, batch_pairs=64,
                  resample_every=resample_every, walk=walk, seed=seed)
    return BiSAGEConfig(**common), GraphSAGEConfig(**common)


def case_id(case) -> str:
    return "-".join(map(str, case))


@pytest.mark.parametrize("case", FIT_CASES, ids=case_id)
def test_fits_match_per_step_reference(case):
    graph_name, seed, *params = case
    bisage_config, graphsage_config = fit_configs(seed, *params)
    for config, model_cls, caches in ((bisage_config, BiSAGE, ("hu", "lu", "hv", "lv")),
                                      (graphsage_config, GraphSAGE, ("u", "v"))):
        ours = model_cls(config).fit(GRAPHS[graph_name](seed))
        reference = reference_fit(model_cls(config), GRAPHS[graph_name](seed))
        assert len(ours.loss_history) > 1
        assert_same_bits(np.asarray(ours.loss_history), np.asarray(reference.loss_history))
        for mine, theirs in zip(ours.parameters(), reference.parameters(), strict=True):
            assert_same_bits(mine.data, theirs.data)
        for name in caches:
            for mine, theirs in zip(getattr(ours, f"_cache_{name}"),
                                    getattr(reference, f"_cache_{name}"), strict=True):
                assert_same_bits(mine, theirs)


def test_degenerate_graph_fit_matches_reference():
    graph = build_graph([SignalRecord({}), SignalRecord({})])
    config = BiSAGEConfig(dim=8, epochs=1)
    ours = BiSAGE(config).fit(graph)
    reference = reference_fit(BiSAGE(config), build_graph([SignalRecord({}), SignalRecord({})]))
    assert ours.loss_history == reference.loss_history == []
    for mine, theirs in zip(ours._cache_hu, reference._cache_hu, strict=True):
        assert_same_bits(mine, theirs)
