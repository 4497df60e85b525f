"""Component registry: embedders, detectors and standalone models by name.

Every composable building block of the paper's evaluation registers
here under a stable lowercase name together with a factory, the set of
parameters its spec may carry, and its capabilities (online update,
checkpointing).  :mod:`repro.pipeline.spec` validates declarative
pipeline specs against this registry, and
:func:`repro.pipeline.build.build_pipeline` resolves them into live
pipelines — so adding a new embedder or detector is one ``register_*``
call, never an edit to core code.

Three kinds exist:

``embedder``
    A :class:`~repro.core.protocols.RecordEmbedder` (BiSAGE, GraphSAGE,
    autoencoder, MDS, raw imputed matrix).
``detector``
    A one-class :class:`~repro.core.protocols.Detector` over embeddings
    (enhanced histogram, LOF, iForest, feature bagging).
``model``
    A standalone :class:`~repro.core.protocols.GeofenceModel` that is
    not an embedder x detector composition (GEM's tuned bundle,
    SignatureHome, INOA).
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable, Iterable

from repro.baselines.inoa import INOA
from repro.baselines.signature_home import SignatureHome
from repro.core.config import GEMConfig
from repro.core.embedders import (
    AutoencoderEmbedder,
    BiSAGEEmbedder,
    GraphSAGEEmbedder,
    ImputedMatrixEmbedder,
    MDSEmbedder,
)
from repro.core.gem import GEM
from repro.detection.feature_bagging import FeatureBagging
from repro.detection.histogram import HistogramConfig, HistogramDetector
from repro.detection.iforest import IsolationForest
from repro.detection.lof import LocalOutlierFactor
from repro.embedding.autoencoder import AutoencoderConfig
from repro.embedding.bisage import BiSAGEConfig
from repro.embedding.graphsage import GraphSAGEConfig
from repro.embedding.matrix import DEFAULT_FILL_DBM

__all__ = [
    "COMPONENT_KINDS",
    "ComponentEntry",
    "UnknownComponentError",
    "get_component",
    "known_components",
    "register_component",
]

COMPONENT_KINDS = ("embedder", "detector", "model")


class UnknownComponentError(ValueError):
    """A spec referenced a component name the registry does not know."""


@dataclass(frozen=True)
class ComponentEntry:
    """One registered component.

    ``params`` is the closed set of spec-parameter names the factory
    accepts; validation rejects anything outside it so a typo'd or
    inapplicable hyper-parameter fails loudly instead of being silently
    dropped.  ``supports_update`` marks detectors (and models) with an
    online self-update path; ``supports_state_dict`` marks components
    whose instances can be checkpointed and restored;
    ``supports_refresh`` marks components that can take part in a
    coordinated refresh — ``refreshable`` (graph) embedders,
    detectors exposing ``refit``, and standalone models exposing
    ``refresh(records)``.  Every detector scores through ``score_batch``
    (see :mod:`repro.detection.batch`), so that needs no flag.
    """

    name: str
    kind: str
    factory: Callable[..., Any]
    params: tuple[str, ...]
    supports_update: bool = False
    supports_state_dict: bool = True
    supports_refresh: bool = False
    description: str = ""


_REGISTRY: dict[tuple[str, str], ComponentEntry] = {}


def register_component(kind: str, name: str, factory: Callable[..., Any],
                       params: Iterable[str], *, supports_update: bool = False,
                       supports_state_dict: bool = True,
                       supports_refresh: bool = False,
                       description: str = "",
                       replace: bool = False) -> ComponentEntry:
    """Register a component; returns the new :class:`ComponentEntry`.

    Re-registering an existing (kind, name) is an error unless
    ``replace=True`` — accidental shadowing of a built-in would silently
    change what every spec referencing the name builds.
    """
    if kind not in COMPONENT_KINDS:
        raise ValueError(f"unknown component kind {kind!r}; known kinds: "
                         f"{', '.join(COMPONENT_KINDS)}")
    if not name or name != name.strip():
        raise ValueError(f"component name must be a non-empty trimmed string, got {name!r}")
    key = (kind, name)
    if key in _REGISTRY and not replace:
        raise ValueError(f"{kind} {name!r} is already registered; pass replace=True to override")
    entry = ComponentEntry(name=name, kind=kind, factory=factory,
                           params=tuple(params), supports_update=supports_update,
                           supports_state_dict=supports_state_dict,
                           supports_refresh=supports_refresh,
                           description=description)
    _REGISTRY[key] = entry
    return entry


def get_component(kind: str, name: str) -> ComponentEntry:
    """Look up one component; unknown names raise with the known list."""
    if kind not in COMPONENT_KINDS:
        raise ValueError(f"unknown component kind {kind!r}; known kinds: "
                         f"{', '.join(COMPONENT_KINDS)}")
    entry = _REGISTRY.get((kind, name))
    if entry is None:
        known = ", ".join(sorted(n for k, n in _REGISTRY if k == kind))
        raise UnknownComponentError(
            f"unknown {kind} {name!r}; known {kind}s: {known}")
    return entry


def known_components(kind: str | None = None) -> list[ComponentEntry]:
    """Every registered entry (of one kind, or all), sorted by kind then name."""
    entries = [entry for (k, _), entry in _REGISTRY.items() if kind is None or k == kind]
    return sorted(entries, key=lambda e: (COMPONENT_KINDS.index(e.kind), e.name))


def _config_params(config_class) -> tuple[str, ...]:
    return tuple(f.name for f in dataclass_fields(config_class))


# ----------------------------------------------------------------------
# Built-in embedders
# ----------------------------------------------------------------------
def _make_bisage(**params):
    weight_offset = float(params.pop("weight_offset", 120.0))
    return BiSAGEEmbedder(BiSAGEConfig.from_dict(params), weight_offset=weight_offset)


def _make_graphsage(**params):
    weight_offset = float(params.pop("weight_offset", 120.0))
    return GraphSAGEEmbedder(GraphSAGEConfig.from_dict(params), weight_offset=weight_offset)


def _make_autoencoder(**params):
    fill_value = float(params.pop("fill_value", DEFAULT_FILL_DBM))
    return AutoencoderEmbedder(AutoencoderConfig.from_dict(params), fill_value=fill_value)


register_component(
    "embedder", "bisage", _make_bisage,
    _config_params(BiSAGEConfig) + ("weight_offset",),
    supports_refresh=True,
    description="Weighted bipartite graph + BiSAGE GNN (the paper's embedder)")
register_component(
    "embedder", "graphsage", _make_graphsage,
    _config_params(GraphSAGEConfig) + ("weight_offset",),
    supports_refresh=True,
    description="Homogeneous GraphSAGE over the same bipartite graph")
register_component(
    "embedder", "autoencoder", _make_autoencoder,
    _config_params(AutoencoderConfig) + ("fill_value",),
    description="Four-layer 1-D conv autoencoder over the imputed matrix")
register_component(
    "embedder", "mds", MDSEmbedder, ("dim", "fill_value"),
    description="Classical MDS on 1-cosine distances of imputed vectors")
register_component(
    "embedder", "imputed-matrix", ImputedMatrixEmbedder, ("fill_value",),
    description="Identity embedding: the -120-padded RSS vector itself")


# ----------------------------------------------------------------------
# Built-in detectors
# ----------------------------------------------------------------------
def _make_histogram(**params):
    return HistogramDetector(HistogramConfig.from_dict(params))


register_component(
    "detector", "histogram", _make_histogram, _config_params(HistogramConfig),
    supports_update=True, supports_refresh=True,
    description="Enhanced histogram OD (HBOS + softmax enhancement + update)")
register_component(
    "detector", "lof", LocalOutlierFactor, ("n_neighbors", "contamination"),
    supports_refresh=True,
    description="Local outlier factor with out-of-sample queries")
register_component(
    "detector", "iforest", IsolationForest,
    ("n_trees", "subsample_size", "contamination", "seed"),
    supports_refresh=True,
    description="Isolation forest over embedding vectors")
register_component(
    "detector", "feature-bagging", FeatureBagging,
    ("n_estimators", "n_neighbors", "contamination", "seed"),
    supports_refresh=True,
    description="Cumulative-sum feature-bagged LOF ensemble")


# ----------------------------------------------------------------------
# Built-in standalone models
# ----------------------------------------------------------------------
def _make_gem(**params):
    return GEM(GEMConfig.from_dict(params))


register_component(
    "model", "gem", _make_gem, _config_params(GEMConfig),
    supports_update=True, supports_refresh=True,
    description="The paper's tuned system: BiSAGE + enhanced histogram + self-update")
register_component(
    "model", "signature-home", SignatureHome,
    ("association_weight", "overlap_weight", "threshold", "association_rssi_floor"),
    description="MAC-overlap + associated-AP signature baseline")
register_component(
    "model", "inoa", INOA,
    ("threshold", "radius_quantile", "min_support", "unseen_pair_vote",
     "calibration_quantile"),
    description="Ensemble of per-AP-pair hypersphere learners baseline")
