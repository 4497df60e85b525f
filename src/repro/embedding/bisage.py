"""BiSAGE: bipartite sample-and-aggregate network embedding (Sec. III-B).

The algorithmic content of the paper's core contribution:

* every node keeps a **primary** embedding ``h`` and an **auxiliary**
  embedding ``l``; one aggregation round updates ``h_i`` from sampled
  neighbours' ``l_{j}`` and ``l_i`` from neighbours' ``h_j`` (Eq. 3–6,
  Algorithm 1), then L2-normalises both (Eq. 7);
* neighbour sampling and in-aggregation weighting are proportional to
  edge weight (Eq. 8);
* training minimises the skip-gram-style loss of Eq. 9 over consecutive
  nodes of weighted random walks, with ``K_N`` negative nodes drawn
  ``∝ degree^{3/4}``;
* the model is **inductive**: a record streamed in later is embedded
  with the frozen weight matrices by aggregating its neighbours' cached
  per-layer embeddings (Sec. IV-A).  That reads the record's own edges
  and the caches only, so the record is never connected into the graph
  (Algorithm 2 line 1): graph and caches change only at :meth:`BiSAGE.fit`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.embedding.common import NeighborSampler, initial_embedding_row
from repro.graph.bipartite import MAC, RECORD, WeightedBipartiteGraph, global_csr
from repro.graph.sampling import NegativeSampler
from repro.graph.walks import RandomWalker, WalkConfig, walk_pairs
from repro.nn import (Adam, Parameter, Tensor, export_parameters, init,
                      load_parameters, no_grad, ops, spmm)
from repro.nn.batch import SageInferenceKernel
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["BiSAGEConfig", "BiSAGE"]

# Node identity used for the initial embedding of *inference-time* record
# nodes.  Training nodes keep per-node random initial embeddings (as the
# paper specifies); streamed records all share this one so that their
# embedding — and therefore the in/out decision — is deterministic in the
# record's readings.
_INFERENCE_KEY = -1

_ACTIVATIONS = {
    "tanh": (ops.tanh, np.tanh),
    "relu": (ops.relu, lambda x: np.maximum(x, 0.0)),
    "sigmoid": (ops.sigmoid, lambda x: 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))),
}


@dataclass(frozen=True)
class BiSAGEConfig:
    """Hyper-parameters for BiSAGE (paper defaults from Sec. V).

    ``sample_size=None`` aggregates over full neighbourhoods with Eq. 8
    weights (the sampled aggregator's expectation) — deterministic and
    faster for small graphs.
    """

    dim: int = 32
    num_layers: int = 2
    sample_size: int | None = 10
    activation: str = "tanh"
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
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {sorted(_ACTIVATIONS)}, got {self.activation!r}")
        check_positive(self.learning_rate, "learning_rate")
        check_positive_int(self.epochs, "epochs")
        check_positive_int(self.batch_pairs, "batch_pairs")
        check_positive_int(self.negative_samples, "negative_samples")
        if self.negative_power < 0:
            raise ValueError("negative_power must be non-negative")
        check_positive_int(self.resample_every, "resample_every")

    def with_dim(self, dim: int) -> "BiSAGEConfig":
        return replace(self, dim=dim)

    def to_dict(self) -> dict:
        """JSON-safe dict (nested WalkConfig included); see :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BiSAGEConfig":
        data = dict(data)
        walk = data.pop("walk", None)
        if walk is not None:
            data["walk"] = WalkConfig.from_dict(walk)
        return cls(**data)


class BiSAGE:
    """Trainable BiSAGE embedder bound to its training bipartite graph."""

    def __init__(self, config: BiSAGEConfig = BiSAGEConfig()):
        self.config = config
        self.graph: WeightedBipartiteGraph | None = None
        self.weights_h: list[Parameter] = []
        self.weights_l: list[Parameter] = []
        self.loss_history: list[float] = []
        # Per-layer caches, split per partition: lists of (n, d) arrays,
        # index 0 = layer 0, one row per node of the training graph.
        self._cache_hu: list[np.ndarray] = []
        self._cache_lu: list[np.ndarray] = []
        self._cache_hv: list[np.ndarray] = []
        self._cache_lv: list[np.ndarray] = []

    # ------------------------------------------------------------------
    # Initial embeddings (deterministic per node identity)
    # ------------------------------------------------------------------
    def _node_key(self, side: str, index: int) -> int:
        return 2 * index if side == RECORD else 2 * index + 1

    def _initial_row(self, side: str, index: int, which: str) -> np.ndarray:
        salt = 0 if which == "h" else 1
        return initial_embedding_row(self.config.dim, self.config.seed, salt,
                                     self._node_key(side, index))

    def _initial_matrix(self, side: str, count: int, which: str) -> np.ndarray:
        out = np.empty((count, self.config.dim), dtype=np.float64)
        for i in range(count):
            out[i] = self._initial_row(side, i, which)
        return out

    def _initial_embeddings(self, which: str) -> np.ndarray:
        """``h^0`` or ``l^0`` for every node of the graph, records first."""
        graph = self._require_fitted()
        return np.vstack([self._initial_matrix(RECORD, graph.num_records, which),
                          self._initial_matrix(MAC, graph.num_macs, which)])

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, graph: WeightedBipartiteGraph) -> "BiSAGE":
        """Train weight matrices on ``graph`` and build inference caches."""
        if graph.num_records == 0:
            raise ValueError("cannot fit BiSAGE on a graph with no record nodes")
        cfg = self.config
        self.graph = graph
        num_u = graph.num_records
        h0 = self._initial_embeddings("h")
        l0 = self._initial_embeddings("l")

        param_rng = as_rng(cfg.seed + 1)
        self.weights_h = [Parameter(init.xavier_uniform((2 * cfg.dim, cfg.dim), param_rng))
                          for _ in range(cfg.num_layers)]
        self.weights_l = [Parameter(init.xavier_uniform((2 * cfg.dim, cfg.dim), param_rng))
                          for _ in range(cfg.num_layers)]

        sampler = NeighborSampler(*global_csr(graph), cfg.sample_size)
        walker = RandomWalker(graph, cfg.walk, rng=as_rng(cfg.seed + 2))
        pair_ids = walk_pairs(walker.corpus(), window=cfg.walk.window)
        if not len(pair_ids):
            # Degenerate graph (all nodes isolated): keep random weights.
            self._build_cache(h0, l0, sampler.full)
            return self
        negative_sampler = NegativeSampler(graph, power=cfg.negative_power,
                                           rng=as_rng(cfg.seed + 3))

        optimizer = Adam(self.weights_h + self.weights_l, lr=cfg.learning_rate)
        activation = _ACTIVATIONS[cfg.activation][0]
        sample_rng = as_rng(cfg.seed + 4)
        shuffle_rng = as_rng(cfg.seed + 5)
        self.loss_history = []

        aggregators = None
        step = 0
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(len(pair_ids))
            for start in range(0, len(order), cfg.batch_pairs):
                batch = pair_ids[order[start:start + cfg.batch_pairs]]
                if aggregators is None or step % cfg.resample_every == 0:
                    aggregators = [sampler.matrix(sample_rng) for _ in range(cfg.num_layers)]
                h_final, l_final = self._forward(h0, l0, aggregators, activation)
                loss = self._loss(h_final, l_final, batch, negative_sampler, num_u)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                self.loss_history.append(loss.item())
                step += 1

        self._build_cache(h0, l0, sampler.full)
        return self

    def _forward(self, h0: np.ndarray, l0: np.ndarray, aggregators, activation):
        """K rounds of Algorithm 1 over the whole (snapshot) graph."""
        h = Tensor(h0)
        l = Tensor(l0)
        for k, matrix in enumerate(aggregators):
            h_agg = spmm(matrix, l)            # Eq. 3 (aggregate auxiliaries)
            l_agg = spmm(matrix, h)            # Eq. 5 (aggregate primaries)
            h_new = activation(ops.concat([h, h_agg], axis=1) @ self.weights_h[k])  # Eq. 4
            l_new = activation(ops.concat([l, l_agg], axis=1) @ self.weights_l[k])  # Eq. 6
            h = ops.l2_normalize_rows(h_new)   # Eq. 7
            l = ops.l2_normalize_rows(l_new)
        return h, l

    def _loss(self, h: Tensor, l: Tensor, batch: np.ndarray,
              negative_sampler: NegativeSampler, num_records: int) -> Tensor:
        """Eq. 9 over a batch of walk pairs plus K_N negatives per pair."""
        cfg = self.config
        x_ids, y_ids = batch[:, 0], batch[:, 1]
        h_x = ops.gather_rows(h, x_ids)
        l_x = ops.gather_rows(l, x_ids)
        h_y = ops.gather_rows(h, y_ids)
        l_y = ops.gather_rows(l, y_ids)
        positive = ops.log_sigmoid(ops.row_dot(h_x, l_y)) + ops.log_sigmoid(ops.row_dot(l_x, h_y))

        z_ids = negative_sampler.sample_global(len(batch) * cfg.negative_samples)
        h_z = ops.gather_rows(h, z_ids).reshape(len(batch), cfg.negative_samples, cfg.dim)
        l_z = ops.gather_rows(l, z_ids).reshape(len(batch), cfg.negative_samples, cfg.dim)
        h_x3 = h_x.reshape(len(batch), 1, cfg.dim)
        l_x3 = l_x.reshape(len(batch), 1, cfg.dim)
        negative = (ops.log_sigmoid(-(h_x3 * l_z).sum(axis=2))
                    + ops.log_sigmoid(-(l_x3 * h_z).sum(axis=2))).sum(axis=1)
        return -(positive + negative).mean()

    # ------------------------------------------------------------------
    # Inference caches
    # ------------------------------------------------------------------
    def _build_cache(self, h: np.ndarray, l: np.ndarray, matrix) -> None:
        """Compute per-layer embeddings for every node of the graph.

        ``h`` and ``l`` are the initial embeddings and ``matrix`` the
        full-neighbourhood aggregator (the sampled aggregator's
        expectation), so the caches are deterministic.
        """
        graph = self._require_fitted()
        cfg = self.config
        num_u = graph.num_records
        act = _ACTIVATIONS[cfg.activation][1]

        layers_h, layers_l = [h], [l]
        for k in range(cfg.num_layers):
            h_agg = matrix @ layers_l[-1]
            l_agg = matrix @ layers_h[-1]
            h_new = act(np.hstack([layers_h[-1], h_agg]) @ self.weights_h[k].data)
            l_new = act(np.hstack([layers_l[-1], l_agg]) @ self.weights_l[k].data)
            layers_h.append(_l2_rows(h_new))
            layers_l.append(_l2_rows(l_new))

        self._cache_hu = [layer[:num_u].copy() for layer in layers_h]
        self._cache_lu = [layer[:num_u].copy() for layer in layers_l]
        self._cache_hv = [layer[num_u:].copy() for layer in layers_h]
        self._cache_lv = [layer[num_u:].copy() for layer in layers_l]

    def _require_fitted(self) -> WeightedBipartiteGraph:
        if self.graph is None:
            raise RuntimeError("BiSAGE has not been fitted; call fit(graph) first")
        return self.graph

    # ------------------------------------------------------------------
    # Public embedding queries
    # ------------------------------------------------------------------
    def record_embeddings(self) -> np.ndarray:
        """Final primary embeddings of all cached record nodes (n_U, d)."""
        self._require_fitted()
        return self._cache_hu[-1]

    def mac_embeddings(self) -> np.ndarray:
        """Final primary embeddings of all cached MAC nodes (n_V, d)."""
        self._require_fitted()
        return self._cache_hv[-1]

    def embed_record_node(self, index: int) -> np.ndarray:
        """Inductive embedding of record node ``index`` (Sec. IV-A).

        Runs K aggregation rounds for this single node against the cached
        per-layer MAC embeddings, leaving neighbours untouched.  All
        inference-time nodes share one fixed initial embedding (see
        ``_INFERENCE_KEY``) so the prediction is a deterministic function
        of the record's readings; per-node random initialisation would
        inject irreducible score noise into every streamed decision.
        """
        graph = self._require_fitted()
        neighbors, weights = graph.neighbors(RECORD, index)
        return self._embed_from_neighbors(RECORD, _INFERENCE_KEY, neighbors, weights)

    def embed_readings(self, readings: dict[str, float]) -> np.ndarray | None:
        """Embed a streamed record without touching the graph.

        Only MACs of the training graph contribute (see
        :meth:`~repro.graph.bipartite.WeightedBipartiteGraph.edges_of`);
        returns None when no sensed MAC is one of them (footnote 3: such
        records are treated as outliers by the caller).  MACs first seen
        after training join at re-provision, when the weights retrain
        against them.
        """
        graph = self._require_fitted()
        neighbors, weights = graph.edges_of(readings)
        if not len(neighbors):
            return None
        return self._embed_from_neighbors(RECORD, _INFERENCE_KEY, neighbors, weights)

    def _embed_from_neighbors(self, side: str, index: int,
                              neighbors: np.ndarray, weights: np.ndarray) -> np.ndarray:
        cfg = self.config
        act = _ACTIVATIONS[cfg.activation][1]
        neighbor_h = self._cache_hv if side == RECORD else self._cache_hu
        neighbor_l = self._cache_lv if side == RECORD else self._cache_lu

        h = self._initial_row(side, index, "h")
        l = self._initial_row(side, index, "l")
        if len(neighbors) == 0:
            return h
        probabilities = weights / weights.sum()
        for k in range(cfg.num_layers):
            h_agg = probabilities @ neighbor_l[k][neighbors]   # Eq. 3 + Eq. 8
            l_agg = probabilities @ neighbor_h[k][neighbors]   # Eq. 5 + Eq. 8
            h = _l2_rows(act(np.concatenate([h, h_agg]) @ self.weights_h[k].data))
            l = _l2_rows(act(np.concatenate([l, l_agg]) @ self.weights_l[k].data))
        return h

    # ------------------------------------------------------------------
    # Batched inference (vectorized data plane)
    # ------------------------------------------------------------------
    def batched_inference(self) -> SageInferenceKernel:
        """Hoisted record-inference kernel for the batch data plane.

        Captures exactly what :meth:`embed_record_node` reads for a
        RECORD-side node: the shared ``_INFERENCE_KEY`` initial row, the
        primary weight stack, and the auxiliary MAC caches it aggregates
        from (Eq. 3 + Eq. 8).  The auxiliary ``l`` stream is omitted —
        the scalar loop updates it each layer but the returned primary
        embedding never reads it back, so skipping it changes nothing.
        Valid until :meth:`inference_token` changes.
        """
        self._require_fitted()
        return SageInferenceKernel(
            initial=self._initial_row(RECORD, _INFERENCE_KEY, "h"),
            weights=[w.data for w in self.weights_h],
            neighbor_caches=self._cache_lv,
            act=_ACTIVATIONS[self.config.activation][1],
        )

    def inference_token(self) -> tuple:
        """Identity fingerprint of everything a kernel captures.

        Inference output changes only when :meth:`fit` or
        ``load_state_dict`` rebuilds the graph, weights and caches; both
        produce new objects here, so an ``id``-based tuple comparison
        catches them without hashing array contents.
        """
        return (
            id(self.graph),
            tuple(id(w) for w in self.weights_h),
            id(self._cache_lv),
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All trainable parameters (primary then auxiliary weights)."""
        return self.weights_h + self.weights_l

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
        for name in ("hu", "lu", "hv", "lv"):
            layers = getattr(self, f"_cache_{name}")
            state[f"cache_{name}"] = {str(k): layer.copy() for k, layer in enumerate(layers)}
        return state

    def load_state_dict(self, state: dict, graph: WeightedBipartiteGraph) -> "BiSAGE":
        """Restore a model saved by :meth:`state_dict` onto ``graph``.

        ``graph`` must be the graph the state was saved against (or a
        reconstruction of it): every cache needs exactly one row per
        node of its partition.
        """
        cfg = self.config
        saved_cfg = BiSAGEConfig.from_dict(state["config"])
        if saved_cfg != cfg:
            raise ValueError("checkpoint config does not match this model's config; "
                             f"saved {saved_cfg}, constructed with {cfg}")
        self.weights_h = [Parameter(np.zeros((2 * cfg.dim, cfg.dim))) for _ in range(cfg.num_layers)]
        self.weights_l = [Parameter(np.zeros((2 * cfg.dim, cfg.dim))) for _ in range(cfg.num_layers)]
        load_parameters(self.parameters(), state["parameters"])
        for name in ("hu", "lu", "hv", "lv"):
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


def _l2_rows(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    if x.ndim == 1:
        return x / np.sqrt((x * x).sum() + eps)
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True) + eps)
    return x / norms
