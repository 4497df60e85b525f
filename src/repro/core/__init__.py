"""GEM core: records, configuration and the end-to-end pipeline."""

from repro.core.config import GEMConfig
from repro.core.embedders import (
    AutoencoderEmbedder,
    BiSAGEEmbedder,
    GraphSAGEEmbedder,
    ImputedMatrixEmbedder,
    MDSEmbedder,
)
from repro.core.gem import GEM, EmbeddingGeofencer
from repro.core.protocols import Detector, GeofenceDecision, GeofenceModel, RecordEmbedder
from repro.core.records import LabeledRecord, SignalRecord, unique_macs

__all__ = [
    "AutoencoderEmbedder",
    "BiSAGEEmbedder",
    "Detector",
    "EmbeddingGeofencer",
    "GEM",
    "GEMConfig",
    "GeofenceDecision",
    "GeofenceModel",
    "GraphSAGEEmbedder",
    "ImputedMatrixEmbedder",
    "LabeledRecord",
    "MDSEmbedder",
    "RecordEmbedder",
    "SignalRecord",
    "unique_macs",
]
