"""GEM: the end-to-end geofencing pipeline (Fig. 1, Algorithms 1–2).

:class:`EmbeddingGeofencer` composes any :class:`RecordEmbedder` with
any detector, which is exactly how the paper assembles its comparison
arms ("GraphSAGE + OD", "BiSAGE + LOF", ...).  :class:`GEM` is the
headline configuration — BiSAGE + the enhanced histogram detector with
online self-update — exposed with the paper's tuned defaults.
"""

from __future__ import annotations

import copy
import math
from typing import Sequence

import numpy as np

from repro.core.config import GEMConfig
from repro.core.embedders import BiSAGEEmbedder
from repro.core.protocols import Detector, GeofenceDecision, RecordEmbedder
from repro.core.records import SignalRecord
from repro.detection.histogram import HistogramDetector

__all__ = ["EmbeddingGeofencer", "GEM", "embed_records"]


def embed_records(embedder, records: Sequence[SignalRecord]) -> list[np.ndarray | None]:
    """Embedding row per record; None where a record is not embeddable.

    Graph embedders run every record through their fitted model's
    inference kernel (see :mod:`repro.nn.batch`), fetched once for the
    batch — their ``embed`` is the same ``prepare`` plus kernel for one
    record; any other embedder embeds record by record.
    """
    if not hasattr(embedder, "batched_inference"):
        return [embedder.embed(record) if record.readings else None
                for record in records]
    kernel = embedder.batched_inference()
    rows: list[np.ndarray | None] = []
    for record in records:
        prepared = embedder.prepare(record) if record.readings else None
        rows.append(None if prepared is None else kernel.embed(*prepared))
    return rows


class EmbeddingGeofencer:
    """Generic embedder + one-class-detector geofencing pipeline.

    Parameters
    ----------
    embedder:
        Maps records to embeddings (and owns any dynamic state such as
        the bipartite graph).
    detector:
        One-class detector fitted on the training embeddings, scored
        through its ``score_batch`` (see :mod:`repro.detection.batch`).
        If it exposes ``is_confident_inlier``/``update`` (the enhanced
        histogram detector does), the Sec. IV-C online self-update is
        available.
    self_update:
        Enable the online model update of Algorithm 2 lines 6–7.
    batch_update_size:
        Buffer this many confident inliers before applying one batch
        update (Fig. 14(d,e)); 1 reproduces the per-record update.
    """

    def __init__(self, embedder: RecordEmbedder, detector: Detector,
                 self_update: bool = True, batch_update_size: int = 1):
        if batch_update_size < 1:
            raise ValueError("batch_update_size must be >= 1")
        if not hasattr(detector, "score_batch"):
            raise TypeError(f"{type(detector).__name__} has no score_batch; bind "
                            "repro.detection.batch.row_wise_score_batch")
        self.embedder = embedder
        self.detector = detector
        self.self_update = self_update
        self.batch_update_size = batch_update_size
        self._update_buffer: list[np.ndarray] = []
        self._fitted = False
        # Declarative provenance: build_pipeline() stamps the PipelineSpec
        # the pipeline was built from so checkpoints can embed it.
        self.spec = None

    # ------------------------------------------------------------------
    # Initial training (Sec. III)
    # ------------------------------------------------------------------
    def fit(self, records: Sequence[SignalRecord]) -> "EmbeddingGeofencer":
        """Train on in-premises records only (the semi-supervised setup)."""
        records = list(records)
        if not records:
            raise ValueError("GEM requires at least one training record")
        self.embedder.fit(records)
        self.detector.fit(self.embedder.training_embeddings())
        self._update_buffer = []
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    # Online inference (Algorithm 2)
    # ------------------------------------------------------------------
    def score(self, record: SignalRecord) -> float:
        """Outlier score of a record; +inf when it cannot be embedded."""
        self._require_fitted()
        row = embed_records(self.embedder, [record])[0]
        if row is None:
            return math.inf
        return float(self.detector.score_batch(row[None, :]).scores[0])

    def predict(self, record: SignalRecord) -> bool:
        """True iff the record is predicted in-premises (no state change)."""
        return bool(self.predict_many([record])[0])

    def predict_many(self, records: Sequence[SignalRecord]) -> np.ndarray:
        """``[self.predict(r) for r in records]`` as one boolean array.

        No state changes.  The records are embedded through
        :func:`embed_records` and the embedded rows are scored in one
        ``score_batch`` call, which gives each row the verdict it would
        get alone.
        """
        records = list(records)
        inside = np.zeros(len(records), dtype=bool)
        if not records:
            return inside
        self._require_fitted()
        rows = embed_records(self.embedder, records)
        embedded = [i for i, row in enumerate(rows) if row is not None]
        if embedded:
            matrix = np.vstack([rows[i] for i in embedded])
            inside[embedded] = np.logical_not(self.detector.score_batch(matrix).outliers)
        return inside

    def observe(self, record: SignalRecord) -> GeofenceDecision:
        """Algorithm 2 on one record: :meth:`observe_many` of a batch of one."""
        return self.observe_many([record])[0]

    def _decide(self, row: np.ndarray, score, outlier, confident) -> GeofenceDecision:
        """Algorithm 2 lines 3–7 for one embedded row and its verdict:
        decide, and buffer (maybe apply) a confident inlier's update."""
        score = float(score)
        if outlier:
            return GeofenceDecision(inside=False, score=score)
        confident = bool(confident)
        buffered = updated = False
        if confident and self.self_update and hasattr(self.detector, "update"):
            self._update_buffer.append(row)
            buffered = True
            if len(self._update_buffer) >= self.batch_update_size:
                self.flush_updates()
                updated = True
        return GeofenceDecision(inside=True, score=score, confident=confident,
                                buffered=buffered, updated=updated)

    # ------------------------------------------------------------------
    # Batch observation (the one served path)
    # ------------------------------------------------------------------
    # Verdicts are computed this many embedded rows ahead; a detector
    # update invalidates the unconsumed remainder, so the chunk bounds
    # wasted re-scoring under update-heavy streams while amortising the
    # per-call scoring overhead everywhere else.
    _SCORE_CHUNK = 64

    def observe_many(self, records: Sequence[SignalRecord]) -> list[GeofenceDecision]:
        """Algorithm 2 over a batch: the one inference path of every
        embedder × detector.

        Decisions, self-update behaviour and post-batch state are
        bit-identical to observing the records one at a time (the
        differential harness checks them against a per-record scalar
        reference), and every split of a stream into batches gives the
        same result.  :func:`embed_records` embeds every record (a
        graph embedder through its model's inference kernel), and the
        detector's ``score_batch`` scores the embedded rows in chunks.
        A mid-batch detector update (confident inliers filling
        ``batch_update_size``) discards the unconsumed chunk, so later
        records are always scored by the detector state a record-by-
        record walk would have shown them.

        Line 1 of Algorithm 2 ("connect r into G") is left out: the
        embedding reads only the record's edges and the frozen caches,
        so connecting it would change no decision (see
        :mod:`repro.core.embedders`).
        """
        records = list(records)
        if not records:
            return []
        self._require_fitted()

        # Phase 1: embed, through the embedder's read-only lookup.
        n = len(records)
        rows = embed_records(self.embedder, records)
        embedded = [i for i, row in enumerate(rows) if row is not None]

        # Phase 2: chunked verdict walk.  [seg_start, seg_end) over
        # `embedded` is the window whose precomputed verdicts are still
        # valid against the current detector state.
        decisions: list[GeofenceDecision | None] = [None] * n
        scores = outliers = confident = None
        seg_start = seg_end = 0
        k = 0
        for i in range(n):
            if rows[i] is None:
                # Footnote 3: nothing recognisable — treat as an outlier.
                decisions[i] = GeofenceDecision(inside=False, score=math.inf)
                continue
            if k >= seg_end:
                seg_start = k
                seg_end = min(k + self._SCORE_CHUNK, len(embedded))
                matrix = np.vstack([rows[j] for j in embedded[seg_start:seg_end]])
                scores, outliers, confident = self.detector.score_batch(matrix)
            p = k - seg_start
            k += 1
            decisions[i] = self._decide(rows[i], scores[p], outliers[p], confident[p])
            if decisions[i].updated:
                seg_end = k  # detector moved: unconsumed verdicts are stale
        return decisions

    def flush_updates(self) -> int:
        """Apply any buffered batch update; returns samples absorbed."""
        if not self._update_buffer:
            return 0
        batch = np.vstack(self._update_buffer)
        self._update_buffer = []
        self.detector.update(batch)
        return len(batch)

    @property
    def pending_updates(self) -> int:
        """Confident inliers buffered but not yet applied to the detector."""
        return len(self._update_buffer)

    # ------------------------------------------------------------------
    # Coordinated refresh (control plane)
    # ------------------------------------------------------------------
    def supports_refresh(self) -> bool:
        """True when both halves of a coordinated refresh are available:
        a ``refreshable`` (graph) embedder and a detector with ``refit``."""
        return (getattr(self.embedder, "refreshable", False)
                and hasattr(self.detector, "refit"))

    def refresh(self, records: Sequence[SignalRecord]) -> int:
        """Coordinated refresh: refit the detector on re-embedded recent
        inliers.

        The embedder is frozen between fits, so a refresh is a detector
        refit: ``records`` (recent known-inlier records, e.g. a fleet
        reservoir anchored on the training set) are embedded by the
        live embedder and a copy of the detector is refit on exactly
        those embeddings.  MACs first seen after training stay out of
        the embedding until a re-provision retrains the weights against
        them.  Returns the number of records the detector was refit on.

        Atomic: the refit happens on a copy that is swapped in at the
        end, so any mid-refresh failure (nothing embeddable, detector
        refit error) leaves the pipeline serving the pre-refresh state.
        The self-update buffer is cleared — its embeddings were meant
        for the replaced detector.
        """
        self._require_fitted()
        if not self.supports_refresh():
            part = (self.detector if getattr(self.embedder, "refreshable", False)
                    else self.embedder)
            raise TypeError(f"{type(part).__name__} cannot take part in a coordinated "
                            "refresh; this pipeline does not support it")
        records = [r for r in records if r.readings]
        if not records:
            raise ValueError("coordinated refresh needs at least one non-empty "
                             "recent-inlier record to refit the detector on")
        detector = copy.deepcopy(self.detector)
        rows = [row for row in embed_records(self.embedder, records)
                if row is not None]
        if not rows:
            raise ValueError("coordinated refresh aborted: none of the "
                             f"{len(records)} recent-inlier records are embeddable; "
                             "the pipeline keeps serving its pre-refresh state")
        detector.refit(np.vstack(rows))
        self.detector = detector
        self._update_buffer = []
        return len(rows)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state of the whole pipeline.

        Requires both the embedder and the detector to expose
        ``state_dict`` themselves (BiSAGE + the histogram detector do).
        """
        if not self._fitted:
            raise RuntimeError("cannot checkpoint an unfitted pipeline; call fit first")
        for part in (self.embedder, self.detector):
            if not hasattr(part, "state_dict"):
                raise TypeError(f"{type(part).__name__} does not support checkpointing "
                                "(no state_dict method)")
        if self._update_buffer:
            buffer = np.vstack(self._update_buffer)
        else:
            buffer = np.empty((0, 0), dtype=np.float64)
        return {
            "self_update": self.self_update,
            "batch_update_size": self.batch_update_size,
            "update_buffer": buffer,
            "embedder": self.embedder.state_dict(),
            "detector": self.detector.state_dict(),
        }

    def load_state_dict(self, state: dict) -> "EmbeddingGeofencer":
        """Restore pipeline state saved by :meth:`state_dict` in place.

        All-or-nothing: the state is restored into fresh copies of the
        embedder and detector and only swapped in once every piece
        loaded, so a mid-load failure (bad detector payload after a good
        embedder load) leaves the live pipeline completely untouched.
        """
        for part in (self.embedder, self.detector):
            if not hasattr(part, "load_state_dict"):
                raise TypeError(f"{type(part).__name__} does not support checkpointing "
                                "(no load_state_dict method)")
        embedder = copy.deepcopy(self.embedder)
        embedder.load_state_dict(state["embedder"])
        detector = copy.deepcopy(self.detector)
        detector.load_state_dict(state["detector"])
        return self._commit_loaded(embedder, detector, state)

    def _commit_loaded(self, embedder, detector, state: dict) -> "EmbeddingGeofencer":
        """The commit step of a load: install the loaded ``embedder`` and
        ``detector`` and the pipeline fields of ``state``.

        Parses every field before the first assignment, so a bad field
        leaves the pipeline as it was.
        """
        buffer = np.asarray(state["update_buffer"], dtype=np.float64)
        self_update = bool(state["self_update"])
        batch_update_size = int(state["batch_update_size"])
        # Commit point: nothing above mutated self.
        self.embedder = embedder
        self.detector = detector
        self.self_update = self_update
        self.batch_update_size = batch_update_size
        self._update_buffer = [row for row in buffer] if buffer.size else []
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("pipeline has not been fitted; call fit first")


class GEM(EmbeddingGeofencer):
    """The paper's system: BiSAGE + enhanced histogram OD + self-update."""

    def __init__(self, config: GEMConfig = GEMConfig()):
        self.config = config
        embedder = BiSAGEEmbedder(config.bisage, weight_offset=config.weight_offset)
        detector = HistogramDetector(config.histogram)
        super().__init__(embedder, detector,
                         self_update=config.self_update,
                         batch_update_size=config.batch_update_size)

    @property
    def graph(self):
        """The underlying weighted bipartite graph (after fit)."""
        return self.embedder.graph

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["config"] = self.config.to_dict()
        return state

    def load_state_dict(self, state: dict) -> "GEM":
        """Restore GEM state; the checkpoint's config must match ours.

        The nested BiSAGE/histogram states validate their own configs;
        this guards the pipeline-level fields (``self_update``,
        ``batch_update_size``, ``weight_offset``, ...) so ``self.config``
        can never misdescribe the restored model.

        All-or-nothing: the state is restored into freshly constructed
        components and only swapped in once every piece loaded, so a
        corrupt checkpoint leaves a live model completely untouched.
        """
        saved_config = GEMConfig.from_dict(state["config"])
        if saved_config != self.config:
            raise ValueError("checkpoint config does not match this model's config; "
                             f"saved {saved_config}, constructed with {self.config}")
        config = self.config
        embedder = BiSAGEEmbedder(config.bisage, weight_offset=config.weight_offset)
        embedder.load_state_dict(state["embedder"])
        detector = HistogramDetector(config.histogram).load_state_dict(state["detector"])
        return self._commit_loaded(embedder, detector, state)
