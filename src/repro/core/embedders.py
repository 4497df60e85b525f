"""Adapters that expose each embedding algorithm as a RecordEmbedder.

Each Table-I pipeline is "embedder + detector"; these adapters give the
graph-based embedders (BiSAGE, GraphSAGE) their graph plumbing and give
the matrix-based embedders (autoencoder, MDS, raw imputed matrix) their
fixed-universe imputation, behind one interface.

The graph adapters deviate from Algorithm 2 line 1 ("connect r into
G"): a streamed record is embedded from its edges into the training
graph and the frozen per-layer caches, and is never connected in.  The
inductive embedding (Sec. IV-A) reads nothing a connection would
change, so decisions are the same while a tenant's graph, caches and
checkpoint stay the size ``fit`` left them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.records import SignalRecord
from repro.embedding.autoencoder import AutoencoderConfig, ConvAutoencoder
from repro.embedding.bisage import BiSAGE
from repro.embedding.graphsage import GraphSAGE
from repro.embedding.matrix import DEFAULT_FILL_DBM, MatrixView
from repro.embedding.mds import ClassicalMDS
from repro.graph.bipartite import RECORD, WeightedBipartiteGraph
from repro.graph.builder import build_graph

__all__ = [
    "BiSAGEEmbedder",
    "GraphSAGEEmbedder",
    "AutoencoderEmbedder",
    "MDSEmbedder",
    "ImputedMatrixEmbedder",
]


class _GraphEmbedderBase:
    """Shared graph-owning behaviour for BiSAGE/GraphSAGE adapters."""

    # The trainable model class bound to the graph; subclasses set it so
    # fit and the shared persistence path build the right model.
    _model_class: type | None = None
    # Takes part in a coordinated refresh (see EmbeddingGeofencer.refresh);
    # the registry's ``supports_refresh`` flag mirrors it.
    refreshable = True

    def __init__(self, config=None, weight_offset: float = 120.0):
        self.config = self._model_class.config_class() if config is None else config
        self.weight_offset = weight_offset
        self.graph = None
        self.model = None

    def fit(self, records: Sequence[SignalRecord]):
        if not records:
            raise ValueError("cannot fit on an empty training set")
        self.graph = build_graph(records, weight_offset=self.weight_offset)
        self.model = self._model_class(self.config).fit(self.graph)
        return self

    def training_embeddings(self) -> np.ndarray:
        """Training-record embeddings for fitting the detector.

        Computed through the *inductive* path (the one streamed records
        take at inference) rather than read from the transductive
        training cache: the detector's histograms must describe the same
        distribution its inference-time queries come from, otherwise the
        per-node random initial embeddings of training nodes shift the
        score scale.  Every row goes through the model's inference
        kernel (see :mod:`repro.nn.batch`), which gives a record without
        edges the shared initial row.
        """
        self._require_fitted()
        kernel = self.batched_inference()
        return np.vstack([kernel.embed(*self.graph.neighbors(RECORD, i))
                          for i in range(self.graph.num_records)])

    def embed(self, record: SignalRecord) -> np.ndarray | None:
        """Embed a streamed record (Sec. IV-A), leaving the graph as it is:
        :meth:`prepare` then the model's inference kernel.

        Returns None when no sensed MAC is in the training graph — the
        footnote-3 case the caller must treat as an outlier.
        """
        prepared = self.prepare(record)
        return None if prepared is None else self.batched_inference().embed(*prepared)

    def prepare(self, record: SignalRecord) -> tuple[np.ndarray, np.ndarray] | None:
        """The inference kernel's input: the record's ``(neighbors, weights)``.

        A read-only lookup
        (:meth:`~repro.graph.bipartite.WeightedBipartiteGraph.edges_of`):
        every reading's RSS validated, MACs outside the training graph
        skipped.  None in the footnote-3 case.
        """
        self._require_fitted()
        neighbors, weights = self.graph.edges_of(record.readings)
        if not len(neighbors):
            return None
        return neighbors, weights

    # Not called: the serving benchmark's layer tracer (perfbench/spans.py)
    # patches this name and fails to start without it.
    attach_prepared = prepare

    def batched_inference(self):
        """The fitted model's hoisted inference kernel (see nn/batch.py)."""
        self._require_fitted()
        return self.model.batched_inference()

    def _require_fitted(self) -> None:
        if self.model is None or self.graph is None:
            raise RuntimeError(f"{type(self).__name__} has not been fitted; call fit first")

    # ------------------------------------------------------------------
    # Persistence (shared by every graph-based adapter)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state: the training graph + the model."""
        self._require_fitted()
        return {
            "weight_offset": self.weight_offset,
            "num_training_records": self.graph.num_records,
            "graph": self.graph.state_dict(),
            "model": self.model.state_dict(),
        }

    def load_state_dict(self, state: dict):
        """Restore an embedder saved by :meth:`state_dict`.

        Checkpoints from releases that connected streamed records into
        the graph also hold those records, the MACs they interned and
        cache rows for both; no decision read any of it.  They load cut
        down to the training graph: the first ``num_training_records``
        records, the MACs the caches were built over, and the matching
        cache rows.
        """
        self.weight_offset = float(state["weight_offset"])
        graph_state, model_state = _training_part(state)
        self.graph = WeightedBipartiteGraph.from_state_dict(graph_state)
        self.model = self._model_class(self.config).load_state_dict(model_state, self.graph)
        return self


def _training_part(state: dict) -> tuple[dict, dict]:
    """A graph adapter's ``(graph, model)`` states without streamed rows."""
    graph, model = dict(state["graph"]), dict(state["model"])
    records = int(state["num_training_records"])
    macs = int(model.pop("macs_aggregated", len(graph["mac_names"])))
    indptr = np.asarray(graph["record_indptr"], dtype=np.int64)
    if not 0 <= records < len(indptr):
        raise ValueError(f"state claims {records} training records "
                         f"but graph has only {len(indptr) - 1}")
    indptr = indptr[:records + 1]
    edge_macs = np.asarray(graph["edge_macs"], dtype=np.int64)[:indptr[-1]]
    if len(edge_macs) and edge_macs.max() >= macs:
        raise ValueError(f"training records reference MAC {edge_macs.max()}, "
                         f"past the {macs} MACs the caches were built over")
    graph.update(record_indptr=indptr, edge_macs=edge_macs,
                 edge_weights=np.asarray(graph["edge_weights"])[:indptr[-1]],
                 mac_names=list(graph["mac_names"])[:macs])
    for key, layers in model.items():
        if key.startswith("cache_"):
            # cache_u / cache_hu / cache_lu are record rows, *v MAC rows.
            rows = records if key.endswith("u") else macs
            model[key] = {k: np.asarray(layer)[:rows] for k, layer in layers.items()}
    return graph, model


class BiSAGEEmbedder(_GraphEmbedderBase):
    """The paper's embedder: weighted bipartite graph + BiSAGE."""

    _model_class = BiSAGE


class GraphSAGEEmbedder(_GraphEmbedderBase):
    """Homogeneous GraphSAGE on the same bipartite graph (Table I row)."""

    _model_class = GraphSAGE


class _MatrixEmbedderBase:
    """Shared imputed-matrix behaviour (Sec. III-A missing-value padding)."""

    def __init__(self, fill_value: float = DEFAULT_FILL_DBM, scale: bool = False):
        self.fill_value = fill_value
        self.scale = scale
        self.view: MatrixView | None = None
        self._training: np.ndarray | None = None

    def _fit_view(self, records: Sequence[SignalRecord]) -> np.ndarray:
        if not records:
            raise ValueError("cannot fit on an empty training set")
        self.view = MatrixView(records, fill_value=self.fill_value, scale=self.scale)
        return self.view.transform(records)

    def _vector(self, record: SignalRecord) -> np.ndarray | None:
        if self.view is None:
            raise RuntimeError(f"{type(self).__name__} has not been fitted; call fit first")
        if self.view.coverage(record) == 0.0:
            return None
        return self.view.transform_one(record)

    def training_embeddings(self) -> np.ndarray:
        if self._training is None:
            raise RuntimeError(f"{type(self).__name__} has not been fitted; call fit first")
        return self._training

    # ------------------------------------------------------------------
    # Persistence (shared plumbing; subclasses add their model state)
    # ------------------------------------------------------------------
    def _base_state(self) -> dict:
        if self.view is None or self._training is None:
            raise RuntimeError(f"cannot checkpoint an unfitted {type(self).__name__}; call fit first")
        return {
            "fill_value": self.fill_value,
            "scale": self.scale,
            "view": self.view.state_dict(),
            "training": self._training.copy(),
        }

    def _load_base(self, state: dict) -> None:
        self.fill_value = float(state["fill_value"])
        self.scale = bool(state["scale"])
        self.view = MatrixView.from_state_dict(state["view"])
        training = np.asarray(state["training"], dtype=np.float64)
        if training.ndim != 2:
            raise ValueError(f"training embeddings must be 2-D, got shape {training.shape}")
        self._training = training


class AutoencoderEmbedder(_MatrixEmbedderBase):
    """1-D conv autoencoder over the imputed matrix (Table I row)."""

    def __init__(self, config: AutoencoderConfig = AutoencoderConfig(),
                 fill_value: float = DEFAULT_FILL_DBM):
        super().__init__(fill_value, scale=True)
        self.config = config
        self.model: ConvAutoencoder | None = None

    def fit(self, records: Sequence[SignalRecord]) -> "AutoencoderEmbedder":
        x = self._fit_view(records)
        self.model = ConvAutoencoder(x.shape[1], self.config).fit(x)
        self._training = self.model.embed(x)
        return self

    def embed(self, record: SignalRecord) -> np.ndarray | None:
        vector = self._vector(record)
        if vector is None:
            return None
        return self.model.embed(vector[None, :])[0]

    def state_dict(self) -> dict:
        """Checkpointable state: imputation view + trained autoencoder."""
        state = self._base_state()
        state["config"] = self.config.to_dict()
        state["model"] = self.model.state_dict()
        return state

    def load_state_dict(self, state: dict) -> "AutoencoderEmbedder":
        """Restore an embedder saved by :meth:`state_dict`."""
        saved_cfg = AutoencoderConfig.from_dict(state["config"])
        if saved_cfg != self.config:
            raise ValueError("checkpoint config does not match this embedder's config; "
                             f"saved {saved_cfg}, constructed with {self.config}")
        model = ConvAutoencoder.from_state_dict(state["model"])
        self._load_base(state)
        self.model = model
        return self


class MDSEmbedder(_MatrixEmbedderBase):
    """Classical MDS on 1-cosine distances of imputed vectors (Table I row)."""

    def __init__(self, dim: int = 32, fill_value: float = DEFAULT_FILL_DBM):
        super().__init__(fill_value, scale=False)
        self.dim = dim
        self.model: ClassicalMDS | None = None

    def fit(self, records: Sequence[SignalRecord]) -> "MDSEmbedder":
        x = self._fit_view(records)
        self.model = ClassicalMDS(dim=self.dim).fit(x)
        self._training = self.model.embedding_
        return self

    def embed(self, record: SignalRecord) -> np.ndarray | None:
        vector = self._vector(record)
        if vector is None:
            return None
        return self.model.transform(vector[None, :])[0]

    def state_dict(self) -> dict:
        """Checkpointable state: imputation view + fitted MDS decomposition."""
        state = self._base_state()
        state["dim"] = self.dim
        state["model"] = self.model.state_dict()
        return state

    def load_state_dict(self, state: dict) -> "MDSEmbedder":
        """Restore an embedder saved by :meth:`state_dict`."""
        if int(state["dim"]) != self.dim:
            raise ValueError(f"checkpoint dim {state['dim']} does not match "
                             f"this embedder's dim {self.dim}")
        model = ClassicalMDS(dim=self.dim).load_state_dict(state["model"])
        self._load_base(state)
        self.model = model
        return self


class ImputedMatrixEmbedder(_MatrixEmbedderBase):
    """Identity 'embedding': the imputed vector itself.

    This is "GEM without the embeddings by BiSAGE" in Fig. 7(a): the
    enhanced histogram detector runs directly on -120-padded RSS vectors.
    """

    def __init__(self, fill_value: float = DEFAULT_FILL_DBM):
        super().__init__(fill_value, scale=False)

    def fit(self, records: Sequence[SignalRecord]) -> "ImputedMatrixEmbedder":
        self._training = self._fit_view(records)
        return self

    def embed(self, record: SignalRecord) -> np.ndarray | None:
        return self._vector(record)

    def state_dict(self) -> dict:
        """Checkpointable state: the imputation view is the whole model."""
        return self._base_state()

    def load_state_dict(self, state: dict) -> "ImputedMatrixEmbedder":
        """Restore an embedder saved by :meth:`state_dict`."""
        self._load_base(state)
        return self
