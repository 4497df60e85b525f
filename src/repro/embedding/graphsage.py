"""Homogeneous GraphSAGE baseline (Hamilton et al., 2017).

Used exactly as in the paper's "GraphSAGE + OD" comparison: the weighted
bipartite graph is treated as a *homogeneous* graph — one embedding per
node, one weight matrix per layer, no primary/auxiliary split — so the
aggregation mixes record and MAC embeddings indiscriminately.  Walks,
weighted neighbour sampling and negative sampling reuse the same
substrate as BiSAGE to isolate the bi-level-aggregation ablation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.embedding.common import NeighborSampler, initial_embedding_row
from repro.graph.bipartite import MAC, RECORD, WeightedBipartiteGraph, global_csr
from repro.graph.sampling import NegativeSampler
from repro.graph.walks import RandomWalker, WalkConfig, walk_pairs
from repro.nn import (Adam, Parameter, Tensor, export_parameters, init,
                      load_parameters, ops, spmm)
from repro.nn.batch import SageInferenceKernel
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["GraphSAGEConfig", "GraphSAGE"]

# Shared initial-embedding identity for inference-time nodes (see
# repro.embedding.bisage._INFERENCE_KEY for the rationale).
_INFERENCE_KEY = -1

_ACTIVATIONS = {
    "tanh": (ops.tanh, np.tanh),
    "relu": (ops.relu, lambda x: np.maximum(x, 0.0)),
}


@dataclass(frozen=True)
class GraphSAGEConfig:
    """Hyper-parameters mirroring :class:`~repro.embedding.bisage.BiSAGEConfig`."""

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

    def to_dict(self) -> dict:
        """JSON-safe dict (nested WalkConfig included); see :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GraphSAGEConfig":
        data = dict(data)
        walk = data.pop("walk", None)
        if walk is not None:
            data["walk"] = WalkConfig.from_dict(walk)
        return cls(**data)


class GraphSAGE:
    """Single-embedding SAGE on the bipartite graph treated as homogeneous."""

    def __init__(self, config: GraphSAGEConfig = GraphSAGEConfig()):
        self.config = config
        self.graph: WeightedBipartiteGraph | None = None
        self.weights: list[Parameter] = []
        self.loss_history: list[float] = []
        self._cache_u: list[np.ndarray] = []
        self._cache_v: list[np.ndarray] = []

    def _node_key(self, side: str, index: int) -> int:
        return 2 * index if side == RECORD else 2 * index + 1

    def _initial_row(self, side: str, index: int) -> np.ndarray:
        return initial_embedding_row(self.config.dim, self.config.seed, 7,
                                     self._node_key(side, index))

    def _initial_matrix(self, side: str, count: int) -> np.ndarray:
        out = np.empty((count, self.config.dim), dtype=np.float64)
        for i in range(count):
            out[i] = self._initial_row(side, i)
        return out

    def fit(self, graph: WeightedBipartiteGraph) -> "GraphSAGE":
        if graph.num_records == 0:
            raise ValueError("cannot fit GraphSAGE on a graph with no record nodes")
        cfg = self.config
        self.graph = graph
        z0 = np.vstack([self._initial_matrix(RECORD, graph.num_records),
                        self._initial_matrix(MAC, graph.num_macs)])

        param_rng = as_rng(cfg.seed + 1)
        self.weights = [Parameter(init.xavier_uniform((2 * cfg.dim, cfg.dim), param_rng))
                        for _ in range(cfg.num_layers)]

        sampler = NeighborSampler(*global_csr(graph), cfg.sample_size)
        walker = RandomWalker(graph, cfg.walk, rng=as_rng(cfg.seed + 2))
        pair_ids = walk_pairs(walker.corpus(), window=cfg.walk.window)
        if not len(pair_ids):
            self._build_cache(z0, sampler.full)
            return self
        negative_sampler = NegativeSampler(graph, power=cfg.negative_power,
                                           rng=as_rng(cfg.seed + 3))
        optimizer = Adam(self.weights, lr=cfg.learning_rate)
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
                z = self._forward(z0, aggregators, activation)
                loss = self._loss(z, batch, negative_sampler)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                self.loss_history.append(loss.item())
                step += 1

        self._build_cache(z0, sampler.full)
        return self

    def _forward(self, z0: np.ndarray, aggregators, activation) -> Tensor:
        z = Tensor(z0)
        for k, matrix in enumerate(aggregators):
            agg = spmm(matrix, z)
            z = ops.l2_normalize_rows(activation(ops.concat([z, agg], axis=1) @ self.weights[k]))
        return z

    def _loss(self, z: Tensor, batch: np.ndarray, negative_sampler: NegativeSampler) -> Tensor:
        cfg = self.config
        z_x = ops.gather_rows(z, batch[:, 0])
        z_y = ops.gather_rows(z, batch[:, 1])
        positive = ops.log_sigmoid(ops.row_dot(z_x, z_y))
        neg_ids = negative_sampler.sample_global(len(batch) * cfg.negative_samples)
        z_neg = ops.gather_rows(z, neg_ids).reshape(len(batch), cfg.negative_samples, cfg.dim)
        z_x3 = z_x.reshape(len(batch), 1, cfg.dim)
        negative = ops.log_sigmoid(-(z_x3 * z_neg).sum(axis=2)).sum(axis=1)
        return -(positive + negative).mean()

    # ------------------------------------------------------------------
    # Caches and inference
    # ------------------------------------------------------------------
    def _build_cache(self, z: np.ndarray, matrix) -> None:
        """Per-layer embeddings of every node from initial ``z`` and the
        full-neighbourhood aggregator ``matrix``."""
        graph = self._require_fitted()
        cfg = self.config
        num_u = graph.num_records
        act = _ACTIVATIONS[cfg.activation][1]
        layers = [z]
        for k in range(cfg.num_layers):
            agg = matrix @ layers[-1]
            layers.append(_l2_rows(act(np.hstack([layers[-1], agg]) @ self.weights[k].data)))
        self._cache_u = [layer[:num_u].copy() for layer in layers]
        self._cache_v = [layer[num_u:].copy() for layer in layers]

    def _require_fitted(self) -> WeightedBipartiteGraph:
        if self.graph is None:
            raise RuntimeError("GraphSAGE has not been fitted; call fit(graph) first")
        return self.graph

    def record_embeddings(self) -> np.ndarray:
        self._require_fitted()
        return self._cache_u[-1]

    def embed_record_node(self, index: int) -> np.ndarray:
        # Inference nodes share one fixed initial embedding (see BiSAGE's
        # _INFERENCE_KEY rationale): deterministic predictions, no
        # per-record initialisation noise.
        graph = self._require_fitted()
        neighbors, weights = graph.neighbors(RECORD, index)
        return self._embed_from_neighbors(_INFERENCE_KEY, neighbors, weights)

    def embed_readings(self, readings: dict[str, float]) -> np.ndarray | None:
        """Embed a streamed record read-only; see
        :meth:`repro.embedding.bisage.BiSAGE.embed_readings`."""
        graph = self._require_fitted()
        neighbors, weights = graph.edges_of(readings)
        if not len(neighbors):
            return None
        return self._embed_from_neighbors(_INFERENCE_KEY, neighbors, weights)

    def _embed_from_neighbors(self, index: int, neighbors: np.ndarray,
                              weights: np.ndarray) -> np.ndarray:
        cfg = self.config
        act = _ACTIVATIONS[cfg.activation][1]
        z = self._initial_row(RECORD, index)
        if len(neighbors) == 0:
            return z
        probabilities = weights / weights.sum()
        for k in range(cfg.num_layers):
            agg = probabilities @ self._cache_v[k][neighbors]
            z = _l2_rows(act(np.concatenate([z, agg]) @ self.weights[k].data))
        return z

    # ------------------------------------------------------------------
    # Batched inference (vectorized data plane)
    # ------------------------------------------------------------------
    def batched_inference(self) -> SageInferenceKernel:
        """Hoisted record-inference kernel (see BiSAGE.batched_inference)."""
        self._require_fitted()
        return SageInferenceKernel(
            initial=self._initial_row(RECORD, _INFERENCE_KEY),
            weights=[w.data for w in self.weights],
            neighbor_caches=self._cache_v,
            act=_ACTIVATIONS[self.config.activation][1],
        )

    def inference_token(self) -> tuple:
        """Identity fingerprint of the kernel's captures (see BiSAGE)."""
        return (
            id(self.graph),
            tuple(id(w) for w in self.weights),
            id(self._cache_v),
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All trainable layer weights."""
        return list(self.weights)

    def state_dict(self) -> dict:
        """Checkpointable state: config, weights and inference caches.

        Mirrors :meth:`repro.embedding.bisage.BiSAGE.state_dict`: the
        per-layer caches are saved verbatim so a restored model
        reproduces inductive embeddings bit-for-bit; the bound graph is
        saved separately by the owner.
        """
        self._require_fitted()
        state: dict = {
            "config": self.config.to_dict(),
            "loss_history": [float(x) for x in self.loss_history],
            "parameters": export_parameters(self.parameters()),
        }
        for name in ("u", "v"):
            layers = getattr(self, f"_cache_{name}")
            state[f"cache_{name}"] = {str(k): layer.copy() for k, layer in enumerate(layers)}
        return state

    def load_state_dict(self, state: dict, graph: WeightedBipartiteGraph) -> "GraphSAGE":
        """Restore a model saved by :meth:`state_dict` onto ``graph``."""
        cfg = self.config
        saved_cfg = GraphSAGEConfig.from_dict(state["config"])
        if saved_cfg != cfg:
            raise ValueError("checkpoint config does not match this model's config; "
                             f"saved {saved_cfg}, constructed with {cfg}")
        self.weights = [Parameter(np.zeros((2 * cfg.dim, cfg.dim))) for _ in range(cfg.num_layers)]
        load_parameters(self.parameters(), state["parameters"])
        for name in ("u", "v"):
            saved = state[f"cache_{name}"]
            layers = [np.asarray(saved[str(k)], dtype=np.float64) for k in range(len(saved))]
            if len(layers) != cfg.num_layers + 1:
                raise ValueError(f"cache_{name} has {len(layers)} layers, expected {cfg.num_layers + 1}")
            for layer in layers:
                if layer.shape[1] != cfg.dim:
                    raise ValueError(f"cache_{name} dimension {layer.shape[1]} != config dim {cfg.dim}")
            nodes = graph.num_records if name == "u" else graph.num_macs
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
