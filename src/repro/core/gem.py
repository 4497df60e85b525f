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
from typing import Iterable, Sequence

import numpy as np

from repro.core.config import GEMConfig
from repro.core.embedders import BiSAGEEmbedder
from repro.core.protocols import Detector, GeofenceDecision, RecordEmbedder
from repro.core.records import SignalRecord
from repro.detection.histogram import HistogramDetector

__all__ = ["EmbeddingGeofencer", "GEM", "RefreshJob", "embed_records"]


class RefreshJob:
    """A coordinated refresh staged in three phases.

    ``begin_refresh`` (the *copy* phase) deep-copies the detector while
    the caller holds whatever lock guards the live pipeline;
    :meth:`build` (the *rebuild* phase) re-embeds the records through
    the live embedder, which serving never mutates, and refits the
    detector copy, so the caller may release its lock first;
    ``commit_refresh`` (the *swap* phase) installs the refit detector
    with one pointer assignment.  ``EmbeddingGeofencer.refresh`` runs
    all three back-to-back.
    """

    def __init__(self, pipeline: "EmbeddingGeofencer", embedder, detector,
                 records: list[SignalRecord]):
        self.pipeline = pipeline
        self.embedder = embedder
        self.detector = detector
        self.records = records
        self.absorbed: int | None = None
        self.committed = False

    def build(self) -> int:
        """Re-embed the records and refit the detector copy.

        Only reads the embedder and writes only this job's detector
        copy, so it is safe to run without holding the pipeline's lock.
        Returns the number of records the detector was refit on.
        """
        rows = [row for row in embed_records(self.embedder, self.records)
                if row is not None]
        if not rows:
            raise ValueError("coordinated refresh aborted: none of the "
                             f"{len(self.records)} recent-inlier records are embeddable; "
                             "the pipeline keeps serving its pre-refresh state")
        self.detector.refit(np.vstack(rows))
        self.absorbed = len(rows)
        return self.absorbed


def embed_records(embedder, records: Sequence[SignalRecord],
                  kernel=None) -> list[np.ndarray | None]:
    """Embedding row per record; None where a record is not embeddable.

    Graph embedders run every record through one hoisted inference
    kernel (``kernel``, or one built here), which is bit-identical to
    their scalar ``embed`` (see :mod:`repro.nn.batch`); any other
    embedder embeds record by record.
    """
    if not (hasattr(embedder, "supports_batch_inference")
            and embedder.supports_batch_inference()):
        return [embedder.embed(record) if record.readings else None
                for record in records]
    if kernel is None:
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
        One-class detector fitted on the training embeddings.  If it
        exposes ``is_confident_inlier``/``update`` (the enhanced
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
        embedding = self._embed(record)
        if embedding is None:
            return math.inf
        return float(self.detector.decision_scores(embedding[None, :])[0])

    def predict(self, record: SignalRecord) -> bool:
        """True iff the record is predicted in-premises (no state change)."""
        return bool(self.predict_many([record])[0])

    def predict_many(self, records: Sequence[SignalRecord], kernel=None) -> np.ndarray:
        """``[self.predict(r) for r in records]`` as one boolean array.

        No state changes.  The records are embedded through one
        inference kernel (``kernel`` may be a serving layer's cached
        one, valid for the embedder's current ``batch_token()``) and the
        embedded rows are scored in one ``score_batch`` call; both are
        bit-identical to the per-record path.  Embedders or detectors
        without batch support embed or score row by row instead.
        """
        records = list(records)
        inside = np.zeros(len(records), dtype=bool)
        if not records:
            return inside
        if not self._fitted:
            raise RuntimeError("pipeline has not been fitted; call fit first")
        rows = embed_records(self.embedder, records, kernel)
        embedded = [i for i, row in enumerate(rows) if row is not None]
        if not embedded:
            return inside
        if self._batch_scoring():
            outliers = self.detector.score_batch(np.vstack([rows[i] for i in embedded])).outliers
        else:
            outliers = [bool(self.detector.is_outlier(rows[i][None, :])[0]) for i in embedded]
        inside[embedded] = np.logical_not(outliers)
        return inside

    def observe(self, record: SignalRecord) -> GeofenceDecision:
        """Algorithm 2: embed, decide, maybe self-update.

        Line 1 ("connect r into G") is left out: the embedding reads only
        the record's edges and the frozen caches, so connecting it would
        change no decision (see :mod:`repro.core.embedders`).
        """
        embedding = self._embed(record)
        if embedding is None:
            # Footnote 3: nothing recognisable — treat as an outlier.
            return GeofenceDecision(inside=False, score=math.inf)
        score, outlier, confident = self._verdict(embedding[None, :])
        if outlier:
            return GeofenceDecision(inside=False, score=score)
        buffered = False
        updated = False
        if confident and self.self_update and hasattr(self.detector, "update"):
            self._update_buffer.append(embedding)
            buffered = True
            if len(self._update_buffer) >= self.batch_update_size:
                self.flush_updates()
                updated = True
        return GeofenceDecision(inside=True, score=score, confident=confident,
                                buffered=buffered, updated=updated)

    # ------------------------------------------------------------------
    # Vectorized batch observation (the batch data plane)
    # ------------------------------------------------------------------
    def supports_batch_observe(self) -> bool:
        """True when both halves of the fused batch path are available:
        a graph embedder exposing a hoisted inference kernel and a
        detector whose batch scoring is bit-safe
        (``supports_batch_score``)."""
        return (hasattr(self.embedder, "supports_batch_inference")
                and self.embedder.supports_batch_inference()
                and self._batch_scoring())

    def _batch_scoring(self) -> bool:
        return (hasattr(self.detector, "supports_batch_score")
                and self.detector.supports_batch_score())

    # Verdicts are computed this many embedded rows ahead; a detector
    # update invalidates the unconsumed remainder, so the chunk bounds
    # wasted re-scoring under update-heavy streams while amortising the
    # per-call scoring overhead everywhere else.
    _SCORE_CHUNK = 64

    def observe_many(self, records: Sequence[SignalRecord],
                     kernel=None) -> list[GeofenceDecision]:
        """Observe a batch through the fused data plane.

        Semantically ``[self.observe(r) for r in records]`` — decisions,
        self-update behaviour and post-batch state are bit-identical to
        that scalar loop (the differential harness enforces it) — but
        the per-record pipeline is restructured: one hoisted inference
        kernel embeds every record, and the detector scores embedded
        rows in chunks via :meth:`score_batch` instead of three scalar
        evaluations per record.  A mid-batch detector update (confident
        inliers filling ``batch_update_size``) discards the unconsumed
        chunk, so later records are always scored by the detector state
        the scalar loop would have shown them.

        ``kernel`` lets a serving layer pass a cached kernel (see
        :class:`repro.serve.batchplane.BatchPlane`); it must be valid
        for the embedder's current ``batch_token()``.  Configurations
        without batch support fall back to the scalar loop.
        """
        records = list(records)
        if not records:
            return []
        if not self._fitted:
            raise RuntimeError("pipeline has not been fitted; call fit first")
        if not self.supports_batch_observe():
            return [self.observe(record) for record in records]

        # Phase 1: embed, through the scalar path's read-only lookup.
        n = len(records)
        rows = embed_records(self.embedder, records, kernel)
        embedded = [i for i, row in enumerate(rows) if row is not None]

        # Phase 2: chunked verdict walk.  [seg_start, seg_end) over
        # `embedded` is the window whose precomputed verdicts are still
        # valid against the current detector state.
        decisions: list[GeofenceDecision | None] = [None] * n
        can_update = self.self_update and hasattr(self.detector, "update")
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
            score = float(scores[p])
            if outliers[p]:
                decisions[i] = GeofenceDecision(inside=False, score=score)
                continue
            conf = bool(confident[p])
            buffered = False
            updated = False
            if conf and can_update:
                self._update_buffer.append(rows[i])
                buffered = True
                if len(self._update_buffer) >= self.batch_update_size:
                    self.flush_updates()
                    updated = True
                    seg_end = k  # detector moved: unconsumed verdicts are stale
            decisions[i] = GeofenceDecision(inside=True, score=score, confident=conf,
                                            buffered=buffered, updated=updated)
        return decisions

    def observe_stream(self, records: Iterable[SignalRecord],
                       flush: bool = True) -> list[GeofenceDecision]:
        """Observe a whole stream; by default flush any leftover updates.

        With ``batch_update_size > 1`` the stream can end with confident
        inliers still sitting in the update buffer; ``flush=True``
        applies them once the stream is exhausted (decisions already made
        are unaffected — only the final model state differs).  Pass
        ``flush=False`` to keep the partial buffer pending, e.g. when the
        same pipeline will continue on another stream.
        """
        decisions = self.observe_many(records)
        if flush:
            self.flush_updates()
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

        Concurrency-minded callers can stage the same operation:
        :meth:`begin_refresh` (copy, under the caller's lock) →
        :meth:`RefreshJob.build` (heavy rebuild, lock released) →
        :meth:`commit_refresh` (pointer swap, under the lock again).
        """
        job = self.begin_refresh(records)
        absorbed = job.build()
        self.commit_refresh(job)
        return absorbed

    def begin_refresh(self, records: Sequence[SignalRecord]) -> RefreshJob:
        """Copy phase of a staged refresh: validate and snapshot.

        Deep-copies the detector (call this while holding whatever lock
        serialises access to the live pipeline) and returns a
        :class:`RefreshJob` whose :meth:`~RefreshJob.build` may then run
        without that lock.
        """
        if not self._fitted:
            raise RuntimeError("pipeline has not been fitted; call fit first")
        if not self.supports_refresh():
            part = (self.detector if getattr(self.embedder, "refreshable", False)
                    else self.embedder)
            raise TypeError(f"{type(part).__name__} cannot take part in a coordinated "
                            "refresh; this pipeline does not support it")
        records = [r for r in records if r.readings]
        if not records:
            raise ValueError("coordinated refresh needs at least one non-empty "
                             "recent-inlier record to refit the detector on")
        return RefreshJob(self, self.embedder, copy.deepcopy(self.detector), records)

    def commit_refresh(self, job: RefreshJob) -> None:
        """Swap phase of a staged refresh: install the refit detector.

        One pointer assignment plus the update-buffer clear.  Call under
        the same lock :meth:`begin_refresh` was called under.
        Observations served between copy and commit keep their
        decisions; their detector self-updates live in the pre-refresh
        detector and are superseded by the swap (bounded staleness, one
        refresh window deep — the serial path has no such window).  A
        job built against an embedder the pipeline has since replaced
        (a load) is refused.
        """
        if job.pipeline is not self:
            raise ValueError("refresh job belongs to a different pipeline")
        if job.absorbed is None:
            raise RuntimeError("refresh job has not been built; call build() first")
        if job.committed:
            raise RuntimeError("refresh job was already committed")
        if job.embedder is not self.embedder:
            raise ValueError("the pipeline's embedder was replaced while the refresh "
                             "built; its detector no longer matches")
        job.committed = True
        self.detector = job.detector
        self._update_buffer = []

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
        buffer = np.asarray(state["update_buffer"], dtype=np.float64)
        # Commit point: nothing above mutated self.
        self.embedder = embedder
        self.detector = detector
        self.self_update = bool(state["self_update"])
        self.batch_update_size = int(state["batch_update_size"])
        self._update_buffer = [row for row in buffer] if buffer.size else []
        self._fitted = True
        return self

    def _verdict(self, row: np.ndarray) -> tuple[float, bool, bool]:
        """``(score, outlier, confident inlier)`` of one ``(1, d)`` row.

        One ``score_batch`` pass when the detector has one (bit-identical
        to the three scalar calls, see :mod:`repro.detection.batch`).
        """
        if self._batch_scoring():
            scores, outliers, confident = self.detector.score_batch(row)
            return float(scores[0]), bool(outliers[0]), bool(confident[0])
        score = float(self.detector.decision_scores(row)[0])
        outlier = bool(self.detector.is_outlier(row)[0])
        confident = (not outlier and hasattr(self.detector, "is_confident_inlier")
                     and bool(self.detector.is_confident_inlier(row)[0]))
        return score, outlier, confident

    def _embed(self, record: SignalRecord) -> np.ndarray | None:
        if not self._fitted:
            raise RuntimeError("pipeline has not been fitted; call fit first")
        if not record.readings:
            return None
        return self.embedder.embed(record)


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

    @property
    def bisage(self):
        """The trained BiSAGE model (after fit)."""
        return self.embedder.model

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
        buffer = np.asarray(state["update_buffer"], dtype=np.float64)
        # Commit point: nothing above mutated self.
        self.embedder = embedder
        self.detector = detector
        self.self_update = bool(state["self_update"])
        self.batch_update_size = int(state["batch_update_size"])
        self._update_buffer = [row for row in buffer] if buffer.size else []
        self._fitted = True
        return self

    @classmethod
    def from_state_dict(cls, state: dict) -> "GEM":
        """Reconstruct a fitted GEM from :meth:`state_dict` output."""
        gem = cls(GEMConfig.from_dict(state["config"]))
        gem.load_state_dict(state)
        return gem
