"""The SAGE core BiSAGE and the homogeneous GraphSAGE baseline share.

Both models view the bipartite graph through a *global* node numbering
— record ``i`` is node ``i`` and MAC ``j`` is node ``num_records + j``
(:func:`~repro.graph.global_csr`) — and aggregate neighbourhoods via
row-stochastic sparse matrices built by a per-fit weighted neighbour
sampler (Eq. 8), straight from its arrays.  A node's deterministic
random initial embedding (``h^0``/``l^0`` "chosen randomly", Sec. III-B)
is a pure function of (seed, salt, node id), served from a table per
(dim, seed, salt).

:class:`SAGE` is everything else the two models share, written once:
the config and its validation, the fit loop (walk pairs, sampler,
negative sampler, Adam and the RNG streams ``seed+1 … seed+5``), the
training step — forward pass, Eq. 9 loss and backward pass, written out
by hand for this fixed model and bit-identical to running it on the
``repro.nn`` autodiff tape (``tests/sage_tape.py`` keeps that version) —
the full-neighbourhood cache build, the inductive record embedding with
the batch kernel the model owns, and ``state_dict``/``load_state_dict``.
A model declares only its *streams* (:class:`Stream`: which stream each
one aggregates, its initial-row salt, and the attribute names of its
weights and caches) and its Eq. 9 *loss pairs*; the first stream is the
one a record's embedding is served from.

RNG contract: :meth:`NeighborSampler.matrix` makes one
``rng.random((n_big, sample_size))`` draw per aggregation matrix, where
``n_big`` counts the nodes whose degree exceeds ``sample_size``, and no
draw at all when there are none or ``sample_size`` is None.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from functools import reduce
from typing import NamedTuple

import numpy as np
from scipy import sparse as sp

from repro.graph.bipartite import MAC, RECORD, WeightedBipartiteGraph, global_csr
from repro.graph.sampling import NegativeSampler
from repro.graph.walks import RandomWalker, WalkConfig, walk_pairs
from repro.nn import Adam, Parameter, export_parameters, init, load_parameters
from repro.nn.batch import SageInferenceKernel, l2_rows
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "NeighborSampler",
    "SAGE",
    "SAGEConfig",
    "Stream",
    "initial_embedding_row",
]

# Node identity used for the initial embedding of *inference-time* record
# nodes.  Training nodes keep per-node random initial embeddings (as the
# paper specifies); streamed records all share this one so that their
# embedding — and therefore the in/out decision — is deterministic in the
# record's readings.
_INFERENCE_KEY = -1

# Every layer's activation is tanh.  A persisted config may still carry
# the former ``"activation": "tanh"`` key, which SAGEConfig.from_dict drops.
_PERSISTED_ACTIVATION = "tanh"

# Added to each squared row norm before the square root of Eq. 7, so a
# zero row normalises to zero rather than NaN.
_NORM_EPS = 1e-12


class NeighborSampler:
    """Weighted neighbour sampling (Eq. 8), with its tables built once per fit.

    Takes the global CSR arrays of one graph.  Nodes whose degree is at
    most ``sample_size`` keep their full neighbourhood (sampling with
    replacement would only add variance); every other node draws
    ``sample_size`` neighbours with replacement, proportionally to edge
    weight.  Each draw inverts one CDF shared by all sampled nodes: node
    ``rank``'s cumulative weights are mapped into ``[rank, rank + 1)`` and
    every draw is answered by one ``searchsorted``.  With
    ``sample_size=None`` every matrix is :attr:`full`, the
    full-neighbourhood one (Eq. 8 in expectation).

    A matrix is built straight from how often each adjacency entry was
    drawn: once for a full neighbourhood's entries (counted once per
    fit), ``bincount`` of the draws for the sampled nodes'.
    """

    def __init__(self, indptr, indices, weights, sample_size: int | None):
        if sample_size is not None:
            check_positive_int(sample_size, "sample_size")
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.num_nodes = len(indptr) - 1
        self.sample_size = sample_size
        degrees = np.diff(indptr)
        rows = np.repeat(np.arange(self.num_nodes), degrees)
        # The adjacency with each row sorted by column, as a canonical CSR
        # holds it, and where each of its entries moved to.
        order = np.lexsort((indices, rows))
        self._rows = rows[order]
        self._cols = indices[order].astype(np.int32)
        self._weights = weights[order]
        self._sorted_position = np.empty_like(order)
        self._sorted_position[order] = np.arange(len(order))
        self.full = self._aggregator(np.ones(len(order), dtype=np.int64))
        if sample_size is None:
            return
        small = degrees <= sample_size
        self._fixed_counts = small[self._rows].astype(np.int64)

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

    def _draw(self, rng) -> np.ndarray:
        """Adjacency positions of one draw: ``sample_size`` per sampled node, node by node."""
        draws = rng.random((len(self._ranks), self.sample_size)) + self._ranks
        positions = np.searchsorted(self._cdf, draws.ravel(), side="right")
        positions = np.minimum(positions, len(self._cdf) - 1)
        local = np.clip(positions - self._seg_starts, 0, self._max_local)
        return self._bases + local

    def sample(self, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One draw of sampled neighbourhoods as COO ``(rows, cols, edge weights)``.

        Needs a ``sample_size``.  Rows of full neighbourhoods come first,
        then ``sample_size`` rows per sampled node; :meth:`matrix` makes
        the same draw.
        """
        degrees = np.diff(self.indptr)
        small = np.flatnonzero(degrees <= self.sample_size)
        keep = np.repeat(degrees <= self.sample_size, degrees)
        rows = np.repeat(small, degrees[small])
        if not len(self._ranks):
            return rows, self.indices[keep], self.weights[keep]
        adjacency = self._draw(rng)
        big = np.flatnonzero(degrees > self.sample_size)
        return (np.concatenate([rows, np.repeat(big, self.sample_size)]),
                np.concatenate([self.indices[keep], self.indices[adjacency]]),
                np.concatenate([self.weights[keep], self.weights[adjacency]]))

    def matrix(self, rng) -> sp.csr_matrix:
        """A row-stochastic aggregation matrix over freshly sampled neighbourhoods."""
        if self.sample_size is None or not len(self._ranks):
            return self.full
        drawn = np.bincount(self._sorted_position[self._draw(rng)], minlength=len(self._rows))
        return self._aggregator(self._fixed_counts + drawn)

    def _aggregator(self, counts: np.ndarray) -> sp.csr_matrix:
        """The weighted-mean aggregator over adjacency entries drawn ``counts`` times each.

        Bit for bit the CSR that scipy's ``diags(1 / row_sums) @
        csr_matrix((weights, (rows, cols)))`` holds for the drawn COO
        entries: an entry's copies add up left to right, each row sums by
        ``np.add.reduceat`` (as ``csr_matrix.sum(axis=1)`` does), entries
        that scale to zero are dropped, and each row lists its columns in
        descending order, the order the sparse product emits them in.
        """
        n = self.num_nodes
        kept = np.flatnonzero(counts)
        if not len(kept):
            return sp.csr_matrix((n, n))
        copies, weights = counts[kept], self._weights[kept]
        # Adding up to five equal copies left to right gives copies * weight.
        summed = np.minimum(copies, 5) * weights
        for k in range(5, copies.max()):
            more = copies > k
            summed[more] += weights[more]
        rows = self._rows[kept]
        lengths = np.bincount(rows, minlength=n)
        nonempty = np.flatnonzero(lengths)
        lengths = lengths[nonempty]
        starts = np.cumsum(lengths) - lengths
        sums = np.add.reduceat(summed, starts)
        scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
        data = np.repeat(scale, lengths) * summed
        flip = np.repeat(2 * starts + lengths - 1, lengths) - np.arange(len(kept))
        data, cols, rows = data[flip], self._cols[kept][flip], rows[flip]
        if not data.all():
            nonzero = data != 0
            data, cols, rows = data[nonzero], cols[nonzero], rows[nonzero]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return sp.csr_matrix((data, cols, indptr), shape=(n, n))


def _cdf(weights: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _softplus(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log(1 + exp(x))`` and its derivative ``sigmoid(x)``, both stable."""
    e = np.exp(-np.abs(x))
    return np.maximum(x, 0.0) + np.log1p(e), np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _sum_to_one(grad: np.ndarray, axis: int) -> np.ndarray:
    """The gradient of an operand broadcast along ``axis`` from length one."""
    return grad.sum(axis=axis, keepdims=True) if grad.shape[axis] != 1 else grad


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


# Read-only initial rows per (dim, seed, salt): row i is
# initial_embedding_row(dim, seed, salt, i).  Grown on demand, never shrunk.
_INITIAL_TABLES: dict[tuple[int, int, int], np.ndarray] = {}
_INITIAL_TABLES_LOCK = threading.Lock()


def _initial_table(dim: int, seed: int, salt: int, count: int) -> np.ndarray:
    """At least ``count`` rows of the (dim, seed, salt) initial-row table."""
    key = (dim, seed, salt)
    table = _INITIAL_TABLES.get(key)
    if table is not None and len(table) >= count:
        return table
    with _INITIAL_TABLES_LOCK:
        table = _INITIAL_TABLES.get(key, np.empty((0, dim)))
        if len(table) < count:
            grown = np.empty((count, dim))
            grown[:len(table)] = table
            for node_id in range(len(table), count):
                grown[node_id] = initial_embedding_row(dim, seed, salt, node_id)
            grown.flags.writeable = False
            _INITIAL_TABLES[key] = table = grown
    return table


@dataclass(frozen=True)
class SAGEConfig:
    """Hyper-parameters of a SAGE-family model (paper defaults from Sec. V).

    ``sample_size=None`` aggregates over full neighbourhoods with Eq. 8
    weights (the sampled aggregator's expectation) — deterministic and
    faster for small graphs.
    """

    dim: int = 32
    num_layers: int = 2
    sample_size: int | None = 10
    learning_rate: float = 0.003
    epochs: int = 5
    batch_pairs: int = 256
    negative_samples: int = 4
    negative_power: float = 0.75
    resample_every: int = 1
    walk: WalkConfig = field(default_factory=WalkConfig)
    seed: int = 0

    def __post_init__(self):
        check_positive_int(self.dim, "dim")
        check_positive_int(self.num_layers, "num_layers")
        if self.sample_size is not None:
            check_positive_int(self.sample_size, "sample_size")
        check_positive(self.learning_rate, "learning_rate")
        check_positive_int(self.epochs, "epochs")
        check_positive_int(self.batch_pairs, "batch_pairs")
        check_positive_int(self.negative_samples, "negative_samples")
        if self.negative_power < 0:
            raise ValueError("negative_power must be non-negative")
        check_positive_int(self.resample_every, "resample_every")

    def to_dict(self) -> dict:
        """JSON-safe dict (nested WalkConfig included); see :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SAGEConfig":
        data = dict(data)
        activation = data.pop("activation", _PERSISTED_ACTIVATION)
        if activation != _PERSISTED_ACTIVATION:
            raise ValueError(f"config key 'activation' must be "
                             f"{_PERSISTED_ACTIVATION!r} (the only activation), "
                             f"got {activation!r}")
        walk = data.pop("walk", None)
        if walk is not None:
            data["walk"] = WalkConfig.from_dict(walk)
        return cls(**data)


class Stream(NamedTuple):
    """One embedding stream of a SAGE model.

    Each layer updates the stream from its own previous row and the
    weighted mean of its neighbours' rows of stream ``reads``, through
    its own weight matrix (Eq. 3–7).
    """

    reads: str      # the stream whose neighbour rows it aggregates
    salt: int       # initial-embedding salt (see initial_embedding_row)
    weights: str    # attribute holding its per-layer weight stack
    cache: str      # caches live in _cache_{cache}u (records) and _cache_{cache}v (MACs)


class SAGE:
    """A sample-and-aggregate embedder bound to its training bipartite graph.

    Subclasses set :attr:`streams` (ordered; the first is served),
    :attr:`loss_pairs` and :attr:`config_class`.
    """

    streams: dict[str, Stream] = {}
    # Eq. 9's terms: (a, b) scores stream a at a walk pair's first node
    # against stream b at its second node and at the negatives.  Each
    # stream is the first of at most one pair and the second of at most one.
    loss_pairs: tuple[tuple[str, str], ...] = ()
    config_class: type = SAGEConfig

    def __init__(self, config: SAGEConfig | None = None):
        self.config = self.config_class() if config is None else config
        self.graph: WeightedBipartiteGraph | None = None
        self.loss_history: list[float] = []
        for stream in self.streams.values():
            setattr(self, stream.weights, [])
        # Per-layer caches, split per partition: lists of (n, d) arrays,
        # index 0 = layer 0, one row per node of the training graph.
        for name in self._cache_names():
            setattr(self, f"_cache_{name}", [])
        # The inference kernel over the current weights and caches: built
        # on first use, dropped by fit and load_state_dict.
        self._kernel: SageInferenceKernel | None = None

    # ------------------------------------------------------------------
    # Initial embeddings (deterministic per node identity)
    # ------------------------------------------------------------------
    def _initial_row(self, side: str, index: int, stream: str) -> np.ndarray:
        node_key = 2 * index if side == RECORD else 2 * index + 1
        return initial_embedding_row(self.config.dim, self.config.seed,
                                     self.streams[stream].salt, node_key)

    def _initial_embeddings(self) -> dict[str, np.ndarray]:
        """Layer 0 of every stream for every node of the graph, records first.

        Record ``i`` has node key ``2 i`` and MAC ``j`` key ``2 j + 1``
        (:meth:`_initial_row`); the rows come from the shared table.
        """
        graph = self._require_fitted()
        cfg = self.config
        count = 2 * max(graph.num_records, graph.num_macs)
        out = {}
        for name, stream in self.streams.items():
            table = _initial_table(cfg.dim, cfg.seed, stream.salt, count)
            out[name] = np.vstack([table[0:2 * graph.num_records:2],
                                   table[1:2 * graph.num_macs:2]])
        return out

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, graph: WeightedBipartiteGraph):
        """Train weight matrices on ``graph`` and build inference caches."""
        if graph.num_records == 0:
            raise ValueError(f"cannot fit {type(self).__name__} on a graph with no record nodes")
        cfg = self.config
        self.graph = graph
        self.loss_history = []
        self._kernel = None
        initial = self._initial_embeddings()

        param_rng = as_rng(cfg.seed + 1)
        for stream in self.streams.values():
            setattr(self, stream.weights,
                    [Parameter(init.xavier_uniform((2 * cfg.dim, cfg.dim), param_rng))
                     for _ in range(cfg.num_layers)])

        sampler = NeighborSampler(*global_csr(graph), cfg.sample_size)
        walker = RandomWalker(graph, cfg.walk, rng=as_rng(cfg.seed + 2))
        pair_ids = walk_pairs(walker.corpus(), window=cfg.walk.window)
        if not len(pair_ids):
            # Degenerate graph (all nodes isolated): keep random weights.
            self._build_cache(initial, sampler.full)
            return self
        negative_sampler = NegativeSampler(graph, power=cfg.negative_power,
                                           rng=as_rng(cfg.seed + 3))

        optimizer = Adam(self.parameters(), lr=cfg.learning_rate)
        sample_rng = as_rng(cfg.seed + 4)
        shuffle_rng = as_rng(cfg.seed + 5)

        aggregators = None
        step = 0
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(len(pair_ids))
            for start in range(0, len(order), cfg.batch_pairs):
                batch = pair_ids[order[start:start + cfg.batch_pairs]]
                if aggregators is None or step % cfg.resample_every == 0:
                    aggregators = [sampler.matrix(sample_rng) for _ in range(cfg.num_layers)]
                layers, final = self._forward(initial, aggregators)
                loss, grads = self._loss(final, batch, negative_sampler)
                self._backward(layers, aggregators, grads)
                optimizer.step()
                self.loss_history.append(loss)
                step += 1

        self._build_cache(initial, sampler.full)
        return self

    # The training step is written out by hand: the gradients below are
    # the ones reverse-mode autodiff of this model takes, computed with
    # the same numpy expressions and summed in the same order wherever
    # three or more meet, so a fit is bit-identical to running the model
    # on the nn tape.  Where only two meet, order is immaterial (x + y ==
    # y + x); sign flips are exact and moved freely.
    def _forward(self, initial: dict[str, np.ndarray], aggregators):
        """K rounds of Algorithm 1 over the whole (snapshot) graph.

        Returns the per-layer values the backward pass reads — each
        stream's ``(concat, tanh, squared norm + eps, norm)`` — and the
        final embeddings.
        """
        z = initial
        layers = []
        for k, matrix in enumerate(aggregators):
            saved = {}
            for name, stream in self.streams.items():
                cat = np.concatenate([z[name], matrix @ z[stream.reads]], axis=1)    # Eq. 3 / 5
                act = np.tanh(cat @ getattr(self, stream.weights)[k].data)         # Eq. 4 / 6
                squared = (act * act).sum(axis=-1, keepdims=True) + _NORM_EPS
                saved[name] = (cat, act, squared, squared ** 0.5)
            z = {name: act / norm for name, (_, act, _, norm) in saved.items()}  # Eq. 7
            layers.append(saved)
        return layers, z

    def _loss(self, final: dict[str, np.ndarray], batch: np.ndarray,
              negative_sampler: NegativeSampler) -> tuple[float, dict[str, np.ndarray]]:
        """Eq. 9 over a batch of walk pairs plus K_N negatives per pair.

        Each ``(a, b)`` of :attr:`loss_pairs` scores ``a`` at a pair's
        first node against ``b`` at its second node and at the pair's
        negatives.  Returns the loss and its gradient with respect to
        each stream's final embeddings.
        """
        count, negatives, dim = len(batch), self.config.negative_samples, self.config.dim
        ids = {"x": batch[:, 0], "y": batch[:, 1],
               "z": negative_sampler.sample_global(count * negatives)}
        at_x = {a: final[a][ids["x"]] for a, _ in self.loss_pairs}
        at_y = {b: final[b][ids["y"]] for _, b in self.loss_pairs}
        at_z = {b: final[b][ids["z"]].reshape(count, negatives, dim) for _, b in self.loss_pairs}
        dots = [(at_x[a] * at_y[b]).sum(axis=-1) for a, b in self.loss_pairs]
        negative_dots = [(at_x[a].reshape(count, 1, dim) * at_z[b]).sum(axis=2)
                         for a, b in self.loss_pairs]
        # log sigmoid(v) = -softplus(-v), and its slope is sigmoid(-v).
        positive_terms = [_softplus(-dot) for dot in dots]
        negative_terms = [_softplus(dot) for dot in negative_dots]
        positive = reduce(np.add, [-value for value, _ in positive_terms])
        negative = reduce(np.add, [-value for value, _ in negative_terms]).sum(axis=1)
        loss = -((positive + negative).sum() / float(count))

        g = np.full(count, -1.0 / float(count))
        grad_x, grad_y, grad_z = {}, {}, {}
        for (a, b), (_, slope), (_, negative_slope) in zip(self.loss_pairs, positive_terms,
                                                           negative_terms):
            g_dot = (g * slope)[:, None]
            g_neg = -(g[:, None] * negative_slope)[:, :, None]
            grad_x[a] = (g_dot * at_y[b]
                         + _sum_to_one(g_neg * at_z[b], axis=1).reshape(count, dim))
            grad_y[b] = g_dot * at_x[a]
            grad_z[b] = (g_neg * at_x[a].reshape(count, 1, dim)).reshape(count * negatives, dim)
        # The tape's order of the three scatters into each final stream: the
        # second-node gathers of every pair, then pair by pair the first-node
        # gather and the negatives' gather.
        scatters = [(b, "y", grad_y[b]) for _, b in self.loss_pairs]
        for a, b in self.loss_pairs:
            scatters += [(a, "x", grad_x[a]), (b, "z", grad_z[b])]
        # Each scatter is one weighted bincount over flat element positions,
        # which adds a row's contributions to 0.0 in batch order.
        flat = {at: (nodes[:, None] * dim + np.arange(dim)).ravel() for at, nodes in ids.items()}
        grads: dict[str, np.ndarray] = {}
        for name, at, grad in scatters:
            shape = final[name].shape
            scattered = np.bincount(flat[at], weights=grad.ravel(),
                                    minlength=shape[0] * dim).reshape(shape)
            grads[name] = grads[name] + scattered if name in grads else scattered
        return float(loss), grads

    def _backward(self, layers, aggregators, grads: dict[str, np.ndarray]) -> None:
        """Backpropagate ``grads`` through the layers into each weight's ``.grad``."""
        dim = self.config.dim
        for k in reversed(range(len(layers))):
            below: dict[str, np.ndarray] = {}
            for name, stream in self.streams.items():
                cat, act, squared, norm = layers[k][name]
                grad = grads[name]
                # Eq. 7, x / norm with norm = (sum(x * x) + eps) ** 0.5: the
                # division's term reaches x first, then the square's two.
                g_norm = _sum_to_one(-grad * act / norm**2, axis=1)
                g_squared = g_norm * 0.5 * squared ** (0.5 - 1)
                g_act = grad / norm + g_squared * act + g_squared * act
                g_pre = g_act * (1.0 - act**2)
                weight = getattr(self, stream.weights)[k]
                weight.grad = cat.swapaxes(-1, -2) @ g_pre
                if k:
                    g_cat = g_pre @ weight.data.swapaxes(-1, -2)
                    for target, term in ((name, g_cat[:, :dim]),
                                         (stream.reads, aggregators[k].T @ g_cat[:, dim:])):
                        below[target] = below[target] + term if target in below else term
            grads = below

    # ------------------------------------------------------------------
    # Inference caches
    # ------------------------------------------------------------------
    def _build_cache(self, initial: dict[str, np.ndarray], matrix) -> None:
        """Compute per-layer embeddings for every node of the graph.

        ``initial`` holds the layer-0 rows and ``matrix`` is the
        full-neighbourhood aggregator (the sampled aggregator's
        expectation), so the caches are deterministic.
        """
        graph = self._require_fitted()
        num_u = graph.num_records

        layers = {name: [rows] for name, rows in initial.items()}
        for k in range(self.config.num_layers):
            agg = {name: matrix @ layers[stream.reads][-1]
                   for name, stream in self.streams.items()}
            new = {name: np.tanh(np.hstack([layers[name][-1], agg[name]])
                                 @ getattr(self, stream.weights)[k].data)
                   for name, stream in self.streams.items()}
            for name, rows in new.items():
                layers[name].append(l2_rows(rows))

        for name, stream in self.streams.items():
            setattr(self, f"_cache_{stream.cache}u", [layer[:num_u].copy() for layer in layers[name]])
            setattr(self, f"_cache_{stream.cache}v", [layer[num_u:].copy() for layer in layers[name]])

    def _require_fitted(self) -> WeightedBipartiteGraph:
        if self.graph is None:
            raise RuntimeError(f"{type(self).__name__} has not been fitted; call fit(graph) first")
        return self.graph

    # ------------------------------------------------------------------
    # Public embedding queries
    # ------------------------------------------------------------------
    def _cache(self, stream: str, side: str) -> list[np.ndarray]:
        """``stream``'s per-layer cache over records (``"u"``) or MACs (``"v"``)."""
        return getattr(self, f"_cache_{self.streams[stream].cache}{side}")

    def _served(self) -> tuple[str, list[Parameter], list[np.ndarray]]:
        """The served stream's name, its weight stack, and the MAC caches
        a record's embedding aggregates (Eq. 3 + Eq. 8)."""
        name = next(iter(self.streams))
        stream = self.streams[name]
        return name, getattr(self, stream.weights), self._cache(stream.reads, "v")

    def record_embeddings(self) -> np.ndarray:
        """Final served embeddings of all cached record nodes (n_U, d)."""
        self._require_fitted()
        return self._cache(next(iter(self.streams)), "u")[-1]

    def mac_embeddings(self) -> np.ndarray:
        """Final served embeddings of all cached MAC nodes (n_V, d)."""
        self._require_fitted()
        return self._cache(next(iter(self.streams)), "v")[-1]

    # ------------------------------------------------------------------
    # Inductive record embedding (Sec. IV-A)
    # ------------------------------------------------------------------
    def batched_inference(self) -> SageInferenceKernel:
        """The model's record-inference kernel (see nn/batch.py).

        A record node runs K aggregation rounds against the cached
        per-layer MAC embeddings, leaving its neighbours untouched.  All
        inference-time records share one fixed initial embedding (the
        ``_INFERENCE_KEY`` row) so the prediction is a deterministic
        function of the record's readings; per-node random
        initialisation would inject irreducible score noise into every
        streamed decision.  The kernel captures that shared initial row
        of the served stream, its weight stack and the MAC caches it
        aggregates.  Built on first use and kept until :meth:`fit` or
        :meth:`load_state_dict` rebuilds those, the only two places they
        change.  Two threads that race to build it each get a valid
        kernel.
        """
        kernel = self._kernel
        if kernel is None:
            self._require_fitted()
            name, stack, neighbor_caches = self._served()
            kernel = self._kernel = SageInferenceKernel(
                initial=self._initial_row(RECORD, _INFERENCE_KEY, name),
                weights=[w.data for w in stack],
                neighbor_caches=neighbor_caches,
                act=np.tanh,
            )
        return kernel

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All trainable parameters, stream by stream."""
        return [p for stream in self.streams.values() for p in getattr(self, stream.weights)]

    def _cache_names(self) -> list[str]:
        """Cache names in checkpoint order: every record cache, then every MAC cache."""
        return [f"{stream.cache}{side}" for side in "uv" for stream in self.streams.values()]

    def state_dict(self) -> dict:
        """Checkpointable state: config, weights and inference caches.

        The per-layer caches are saved verbatim (rather than rebuilt on
        load) so a restored model reproduces inductive embeddings —
        and therefore geofence decisions — bit-for-bit.  The bound graph
        is *not* included; the owner saves it separately and passes it
        back to :meth:`load_state_dict`.
        """
        self._require_fitted()
        state: dict = {
            "config": self.config.to_dict(),
            "loss_history": [float(x) for x in self.loss_history],
            "parameters": export_parameters(self.parameters()),
        }
        for name in self._cache_names():
            layers = getattr(self, f"_cache_{name}")
            state[f"cache_{name}"] = {str(k): layer.copy() for k, layer in enumerate(layers)}
        return state

    def load_state_dict(self, state: dict, graph: WeightedBipartiteGraph):
        """Restore a model saved by :meth:`state_dict` onto ``graph``.

        ``graph`` must be the graph the state was saved against (or a
        reconstruction of it): every cache needs exactly one row per
        node of its partition.
        """
        cfg = self.config
        saved_cfg = self.config_class.from_dict(state["config"])
        if saved_cfg != cfg:
            raise ValueError("checkpoint config does not match this model's config; "
                             f"saved {saved_cfg}, constructed with {cfg}")
        self._kernel = None
        for stream in self.streams.values():
            setattr(self, stream.weights, [Parameter(np.zeros((2 * cfg.dim, cfg.dim)))
                                           for _ in range(cfg.num_layers)])
        load_parameters(self.parameters(), state["parameters"])
        for name in self._cache_names():
            saved = state[f"cache_{name}"]
            layers = [np.asarray(saved[str(k)], dtype=np.float64) for k in range(len(saved))]
            if len(layers) != cfg.num_layers + 1:
                raise ValueError(f"cache_{name} has {len(layers)} layers, expected {cfg.num_layers + 1}")
            for layer in layers:
                if layer.shape[1] != cfg.dim:
                    raise ValueError(f"cache_{name} dimension {layer.shape[1]} != config dim {cfg.dim}")
            nodes = graph.num_records if name.endswith("u") else graph.num_macs
            if any(layer.shape[0] != nodes for layer in layers):
                raise ValueError(f"cache_{name} rows do not match the graph's {nodes} nodes")
            setattr(self, f"_cache_{name}", layers)
        self.loss_history = [float(x) for x in state.get("loss_history", [])]
        self.graph = graph
        return self
