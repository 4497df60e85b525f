"""The SAGE core BiSAGE and the homogeneous GraphSAGE baseline share.

Both models view the bipartite graph through a *global* node numbering
— record ``i`` is node ``i`` and MAC ``j`` is node ``num_records + j``
(:func:`~repro.graph.global_csr`) — and aggregate neighbourhoods via
row-stochastic sparse matrices built by a per-fit weighted neighbour
sampler (Eq. 8).  A node's deterministic random initial embedding
(``h^0``/``l^0`` "chosen randomly", Sec. III-B) is a pure function of
(seed, salt, node id).

:class:`SAGE` is everything else the two models share, written once:
the config and its validation, the fit loop (walk pairs, sampler,
negative sampler, Adam and the RNG streams ``seed+1 … seed+5``), the
full-neighbourhood cache build, the inductive record embedding with the
batch kernel the model owns, and ``state_dict``/``load_state_dict``.
A model declares only its *streams* (:class:`Stream`: which stream each
one aggregates, its initial-row salt, and the attribute names of its
weights and caches) and its Eq. 9 loss; the first stream is the one a
record's embedding is served from.

RNG contract: :meth:`NeighborSampler.matrix` makes one
``rng.random((n_big, sample_size))`` draw per aggregation matrix, where
``n_big`` counts the nodes whose degree exceeds ``sample_size``, and no
draw at all when there are none or ``sample_size`` is None.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse as sp

from repro.graph.bipartite import MAC, RECORD, WeightedBipartiteGraph, global_csr
from repro.graph.sampling import NegativeSampler
from repro.graph.walks import RandomWalker, WalkConfig, walk_pairs
from repro.nn import (Adam, Parameter, Tensor, export_parameters, init,
                      load_parameters, ops, spmm)
from repro.nn.batch import SageInferenceKernel, l2_rows
from repro.nn.sparse import row_normalized_csr
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "NeighborSampler",
    "SAGE",
    "SAGEConfig",
    "Stream",
    "full_aggregation_matrix",
    "initial_embedding_row",
]

# Node identity used for the initial embedding of *inference-time* record
# nodes.  Training nodes keep per-node random initial embeddings (as the
# paper specifies); streamed records all share this one so that their
# embedding — and therefore the in/out decision — is deterministic in the
# record's readings.
_INFERENCE_KEY = -1

# Every layer's activation is tanh: ``ops.tanh`` in training, ``np.tanh``
# for the caches and inference.  A persisted config may still carry the
# former ``"activation": "tanh"`` key, which SAGEConfig.from_dict drops.
_PERSISTED_ACTIVATION = "tanh"


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
    :attr:`config_class` and :meth:`_loss`.
    """

    streams: dict[str, Stream] = {}
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

    def _initial_matrix(self, side: str, count: int, stream: str) -> np.ndarray:
        out = np.empty((count, self.config.dim), dtype=np.float64)
        for i in range(count):
            out[i] = self._initial_row(side, i, stream)
        return out

    def _initial_embeddings(self) -> dict[str, np.ndarray]:
        """Layer 0 of every stream for every node of the graph, records first."""
        graph = self._require_fitted()
        return {name: np.vstack([self._initial_matrix(RECORD, graph.num_records, name),
                                 self._initial_matrix(MAC, graph.num_macs, name)])
                for name in self.streams}

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
                final = self._forward(initial, aggregators)
                loss = self._loss(final, batch, negative_sampler)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                self.loss_history.append(loss.item())
                step += 1

        self._build_cache(initial, sampler.full)
        return self

    def _forward(self, initial: dict[str, np.ndarray],
                 aggregators) -> dict[str, Tensor]:
        """K rounds of Algorithm 1 over the whole (snapshot) graph."""
        z = {name: Tensor(rows) for name, rows in initial.items()}
        for k, matrix in enumerate(aggregators):
            agg = {name: spmm(matrix, z[stream.reads])                  # Eq. 3 / 5
                   for name, stream in self.streams.items()}
            new = {name: ops.tanh(ops.concat([z[name], agg[name]], axis=1)
                                  @ getattr(self, stream.weights)[k])  # Eq. 4 / 6
                   for name, stream in self.streams.items()}
            z = {name: ops.l2_normalize_rows(rows) for name, rows in new.items()}  # Eq. 7
        return z

    def _loss(self, final: dict[str, Tensor], batch: np.ndarray,
              negative_sampler: NegativeSampler) -> Tensor:
        """Eq. 9 over a batch of walk pairs plus K_N negatives per pair."""
        raise NotImplementedError

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
