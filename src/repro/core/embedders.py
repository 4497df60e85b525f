"""Adapters that expose each embedding algorithm as a RecordEmbedder.

Each Table-I pipeline is "embedder + detector"; these adapters give the
graph-based embedders (BiSAGE, GraphSAGE) their dynamic-graph plumbing
(Algorithm 2 line 1: "connect r into G") and give the matrix-based
embedders (autoencoder, MDS, raw imputed matrix) their fixed-universe
imputation, behind one interface.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.records import SignalRecord
from repro.embedding.autoencoder import AutoencoderConfig, ConvAutoencoder
from repro.embedding.bisage import BiSAGE, BiSAGEConfig
from repro.embedding.graphsage import GraphSAGE, GraphSAGEConfig
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
    # the shared persistence path can rebuild the right model on load.
    _model_class: type | None = None

    def __init__(self, weight_offset: float = 120.0):
        self.weight_offset = weight_offset
        self.graph = None
        self.model = None

    def _fit_graph(self, records: Sequence[SignalRecord]):
        if not records:
            raise ValueError("cannot fit on an empty training set")
        self.graph = build_graph(records, weight_offset=self.weight_offset)
        self._num_training_records = self.graph.num_records
        return self.graph

    def training_embeddings(self) -> np.ndarray:
        """Training-record embeddings for fitting the detector.

        Computed through the *inductive* path (the one streamed records
        take at inference) rather than read from the transductive
        training cache: the detector's histograms must describe the same
        distribution its inference-time queries come from, otherwise the
        per-node random initial embeddings of training nodes shift the
        score scale.
        """
        self._require_fitted()
        return np.vstack([self.model.embed_record_node(i)
                          for i in range(self._num_training_records)])

    def embed(self, record: SignalRecord, attach: bool = True) -> np.ndarray | None:
        """Embed a streamed record (Sec. IV-A).

        With ``attach=True`` the record joins the graph permanently
        (Algorithm 2 line 1).  Returns None when no sensed MAC is already
        known to the graph — the footnote-3 case the caller must treat as
        an outlier.
        """
        self._require_fitted()
        known = any(self.graph.mac_index(mac) is not None for mac in record.readings)
        if attach:
            index = self.graph.add_record(record)
            embedding = self.model.embed_record_node(index) if known else None
        else:
            embedding = self.model.embed_readings(record.readings) if known else None
        return embedding

    # ------------------------------------------------------------------
    # Batched inference (vectorized data plane)
    # ------------------------------------------------------------------
    def supports_batch_inference(self) -> bool:
        """Whether the batch data plane may replay this embedder's records."""
        return self.model is not None and hasattr(self.model, "batched_inference")

    def batched_inference(self):
        """Build the model's hoisted inference kernel (see nn/batch.py)."""
        self._require_fitted()
        return self.model.batched_inference()

    def batch_token(self) -> tuple:
        """Kernel-validity fingerprint; changes whenever inference would."""
        self._require_fitted()
        return self.model.inference_token()

    def attach_prepared(self, record: SignalRecord):
        """Attach one record and return its ``(neighbors, weights)`` arrays.

        Exactly the graph-side half of ``embed(record, attach=True)`` —
        known-check *before* the attach (attaching interns the record's
        own MACs), permanent attach, streaming counter — with the model
        maths left to the caller's kernel.  Returns None for the
        footnote-3 case (no sensed MAC known).  Callers must have
        checked :meth:`supports_batch_inference`.
        """
        self._require_fitted()
        known = any(self.graph.mac_index(mac) is not None for mac in record.readings)
        index = self.graph.add_record(record)
        if not known:
            return None
        # The scalar path extends per embedded record; replicating that
        # keeps the cache arrays byte-identical in post-stream
        # state_dict() trees (their final size depends on which record
        # was embedded last, not just on the batch's MAC universe).
        self.model._extend_mac_cache()
        return self.graph.neighbors(RECORD, index)

    def refresh_cache(self) -> None:
        """Rebuild per-layer caches over the grown graph.

        The trained aggregation universe is preserved (see
        :meth:`repro.embedding.bisage.BiSAGE.refresh_cache`), and the
        caller must refit the downstream detector on re-embedded data
        in the same operation, because every cached embedding still
        moves (see :meth:`repro.core.gem.EmbeddingGeofencer.refresh`).
        """
        self._require_fitted()
        self.model.refresh_cache()

    def _require_fitted(self) -> None:
        if self.model is None or self.graph is None:
            raise RuntimeError(f"{type(self).__name__} has not been fitted; call fit first")

    # ------------------------------------------------------------------
    # Persistence (shared by every graph-based adapter)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state: graph + model + streaming bookkeeping."""
        self._require_fitted()
        return {
            "weight_offset": self.weight_offset,
            "num_training_records": self._num_training_records,
            "graph": self.graph.state_dict(),
            "model": self.model.state_dict(),
        }

    def load_state_dict(self, state: dict):
        """Restore an embedder saved by :meth:`state_dict`."""
        self.weight_offset = float(state["weight_offset"])
        self.graph = WeightedBipartiteGraph.from_state_dict(state["graph"])
        self._num_training_records = int(state["num_training_records"])
        if self._num_training_records > self.graph.num_records:
            raise ValueError(f"state claims {self._num_training_records} training records "
                             f"but graph has only {self.graph.num_records}")
        self.model = self._model_class(self.config).load_state_dict(state["model"], self.graph)
        return self


class BiSAGEEmbedder(_GraphEmbedderBase):
    """The paper's embedder: weighted bipartite graph + BiSAGE."""

    _model_class = BiSAGE

    def __init__(self, config: BiSAGEConfig = BiSAGEConfig(),
                 weight_offset: float = 120.0):
        super().__init__(weight_offset)
        self.config = config

    def fit(self, records: Sequence[SignalRecord]) -> "BiSAGEEmbedder":
        graph = self._fit_graph(records)
        self.model = BiSAGE(self.config).fit(graph)
        return self


class GraphSAGEEmbedder(_GraphEmbedderBase):
    """Homogeneous GraphSAGE on the same bipartite graph (Table I row)."""

    _model_class = GraphSAGE

    def __init__(self, config: GraphSAGEConfig = GraphSAGEConfig(),
                 weight_offset: float = 120.0):
        super().__init__(weight_offset)
        self.config = config

    def fit(self, records: Sequence[SignalRecord]) -> "GraphSAGEEmbedder":
        graph = self._fit_graph(records)
        self.model = GraphSAGE(self.config).fit(graph)
        return self


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

    def embed(self, record: SignalRecord, attach: bool = True) -> np.ndarray | None:
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

    def embed(self, record: SignalRecord, attach: bool = True) -> np.ndarray | None:
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

    def embed(self, record: SignalRecord, attach: bool = True) -> np.ndarray | None:
        return self._vector(record)

    def state_dict(self) -> dict:
        """Checkpointable state: the imputation view is the whole model."""
        return self._base_state()

    def load_state_dict(self, state: dict) -> "ImputedMatrixEmbedder":
        """Restore an embedder saved by :meth:`state_dict`."""
        self._load_base(state)
        return self
