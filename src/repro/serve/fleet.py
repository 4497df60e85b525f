"""Multi-tenant geofence serving: one pipeline per premises, many premises.

The paper deploys one model per user home (Table II); a service serves
millions of them.  :class:`GeofenceFleet` is the single-node building
block: it keeps at most ``capacity`` models resident, lazily loading a
tenant's checkpoint from a :class:`~repro.serve.registry.ModelRegistry`
on first touch, evicting the least-recently-used tenant when the budget
is exceeded, and writing dirty (observed-since-load) models back to the
registry before they leave memory — so an evicted tenant's next
observation resumes from *exactly* the state it would have had in
memory, self-updates included.

Fleets are heterogeneous: each tenant may be provisioned from its own
:class:`~repro.pipeline.spec.PipelineSpec` (any registered
embedder x detector arm, or a standalone baseline), and reloads rebuild
whatever arm the tenant's checkpoint embeds — one fleet serves a GEM
home next to a BiSAGE+LOF lab next to an INOA mall.

A resident tenant is one record in one LRU map: its model, checkpoint
metadata, inlier reservoir, quarantine buffer, incremental-save
baseline and dirty flag, loaded, provisioned and evicted as one unit.
Loads and provisions are all or nothing: a record enters the LRU only
once its persisted reservoir and quarantine have passed validation, or
once its provision save has committed, so a failed load
(:class:`~repro.serve.checkpoint.CheckpointError`) or provision leaves
the tenant's prior state, resident or on disk, untouched.

Data plane vs control plane: ``observe``/``observe_many``/``score`` are
the hot path and never initiate maintenance.  There is one observe
path: ``observe`` is ``observe_many`` over a batch of one, so every
record goes through the :class:`~repro.serve.batchplane.BatchPlane`
into the model's own ``observe_many``.  The fleet additionally
keeps a bounded per-tenant reservoir of inlier *records* in two parts —
a pinned **anchor** (the provision-time training records, replaced only
at re-provision) plus a rolling window of **recent** in-premises scans —
and exposes the maintenance *mechanics*: :meth:`refresh` (coordinated
detector refit on the re-embedded reservoir) and
:meth:`reprovision` (full refit from the reservoir), for a
:class:`~repro.serve.controller.FleetController` to drive according to
a :class:`~repro.serve.policy.MaintenancePolicy`.  The anchor matters:
refitting on recent inliers alone narrows the detector's score
normalisation every refresh (recent inliers are a self-selected tight
cluster) until ordinary records clip to the ceiling and the reservoir
starves — the anchor keeps the full breadth of the training
distribution in every refit.  Reservoirs travel inside the checkpoint
metadata, as columnar arrays the checkpoint stores in its npz, so an
evicted (or offline-maintained) tenant refreshes from exactly the
records a resident one would have used.

When the reservoir itself starves (every decision outside — the
measured >45 % AP-replacement wall), a fleet with ``quarantine_size >
0`` additionally keeps a strictly separated per-tenant
:class:`~repro.serve.quarantine.QuarantineBuffer` of
rejected-but-home-anchored records; :meth:`reprovision_from_quarantine`
is the explicit, rollback-guarded recovery refit from that evidence.
The quarantine is never an input to :meth:`refresh` — a breach cannot
teach the detector — and quarantine-off fleets are bit-identical to
earlier releases.

Thread safety: one re-entrant lock serialises model access.  The models
themselves are single-threaded numpy pipelines, so the lock is the
correctness boundary, not a performance afterthought; scale-out happens
by running many fleets behind a tenant-hash router (see ROADMAP).
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from threading import RLock
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.gem import GEM
from repro.core.io import (
    check_record_columns,
    join_record_columns,
    records_from_columns,
    records_to_columns,
)
from repro.core.protocols import GeofenceDecision, GeofenceModel
from repro.core.records import SignalRecord
from repro.obs.tracing import maybe_span
from repro.pipeline import PipelineSpec, build_pipeline
from repro.pipeline.build import infer_spec
from repro.serve.checkpoint import CheckpointError, last_write
from repro.serve.batchplane import BatchPlane
from repro.serve.policy import MaintenancePolicy
from repro.serve.quarantine import (
    ConsistencyGate,
    QuarantineBuffer,
    home_anchor_macs,
    predict_records,
)
from repro.serve.registry import (
    QUARANTINE_METADATA_KEY,
    RESERVOIR_METADATA_KEY,
    ModelRegistry,
    validate_tenant_id,
)
from repro.serve.telemetry import FleetTelemetry

__all__ = ["DEFAULT_RESERVOIR_SIZE", "GeofenceFleet", "QUARANTINE_METADATA_KEY",
           "RESERVOIR_METADATA_KEY"]

# Default bound for each half (anchor / recent) of a tenant's inlier
# reservoir; shared with `python -m repro train` so CLI-trained tenants
# carry the same anchor a fleet.provision would seed.
DEFAULT_RESERVOIR_SIZE = 256

# The admission gate every quarantine buffer of every fleet applies
# (frozen, so one instance serves them all).
_QUARANTINE_GATE = ConsistencyGate()

# The columns of an empty record set (read-only: shared by every tenant).
_NO_RECORDS = records_to_columns(())
for _array in _NO_RECORDS.values():
    _array.setflags(write=False)


class _Reservoir:
    """One resident tenant's inlier reservoir: a pinned anchor plus a
    rolling window of at most ``size`` recent inliers.

    Both halves stay in the columnar form they were loaded or last saved
    in (:func:`~repro.core.io.records_to_columns`) and are decoded to
    records only when a refit or the quarantine's home-AP set reads
    them; new inliers wait in ``pending`` until a save joins them onto
    the recent columns (:func:`~repro.core.io.join_record_columns`), so
    a save encodes only them.  The saved arrays are bit for bit what
    ``records_to_columns`` of the decoded record lists would write.
    """

    def __init__(self, size: int, anchor: Sequence[SignalRecord] = ()):
        self.size = size
        self._anchor: list[SignalRecord] | None = list(anchor)[-size:]
        self._anchor_columns: dict | None = None
        self._recent_columns = _NO_RECORDS
        self._recent: list[SignalRecord] | None = []  # decoded, once needed
        self.pending: "deque[SignalRecord]" = deque(maxlen=size)

    @classmethod
    def from_state(cls, size: int, state) -> "_Reservoir":
        """Rebuild from persisted metadata, each half trimmed to ``size``.

        Columns are validated (ValueError) and kept; a half in the JSON
        form earlier releases wrote is decoded now and written back as
        columns at the next save.
        """
        reservoir = cls(size)
        anchor, recent = state.get("anchor", ()), state.get("recent", ())
        if isinstance(anchor, Mapping):
            reservoir._anchor, reservoir._anchor_columns = None, _last(anchor, size)
        else:
            reservoir._anchor = records_from_columns(anchor)[-size:]
        if isinstance(recent, Mapping):
            reservoir._recent, reservoir._recent_columns = None, _last(recent, size)
        else:
            reservoir.pending.extend(records_from_columns(recent))
        return reservoir

    def anchor(self) -> list[SignalRecord]:
        """The anchor records (decoded on first use; do not mutate)."""
        if self._anchor is None:
            self._anchor = records_from_columns(self._anchor_columns)
        return self._anchor

    def records(self) -> list[SignalRecord]:
        """Anchor then recent, the refit set."""
        if self._recent is None:
            self._recent = records_from_columns(self._recent_columns)
        return self.anchor() + (self._recent + list(self.pending))[-self.size:]

    def columns(self) -> dict[str, dict] | None:
        """``{"anchor": columns, "recent": columns}``, or None when empty."""
        if self.pending:
            self._recent_columns = join_record_columns(
                [self._recent_columns, records_to_columns(self.pending)], keep=self.size)
            if self._recent is not None:
                self._recent = (self._recent + list(self.pending))[-self.size:]
            self.pending.clear()
        if self._anchor_columns is None:
            self._anchor_columns = records_to_columns(self._anchor)
        if not len(self._anchor_columns["records"]) and not len(self._recent_columns["records"]):
            return None
        return {"anchor": self._anchor_columns, "recent": self._recent_columns}


def _last(columns, size: int) -> dict:
    """Validated canonical columns of the last ``size`` records."""
    columns = check_record_columns(columns)
    if len(columns["records"]) > size:
        columns = join_record_columns([columns], keep=size)
    return columns


@dataclass(eq=False, slots=True)
class _Tenant:
    """One resident tenant's serving state, held and dropped as one unit.

    ``metadata`` is the user-facing checkpoint metadata (cached so a
    write-back need not re-read the manifest); ``quarantine`` is None
    until the tenant first offers evidence or loads a persisted buffer;
    ``baseline`` is the image of the last committed write an incremental
    save diffs against (None: the next save is full).
    """

    model: GeofenceModel
    metadata: dict
    reservoir: _Reservoir
    quarantine: QuarantineBuffer | None = None
    baseline: object = None
    dirty: bool = False

    def refit(self, model: GeofenceModel, anchor: Sequence[SignalRecord],
              size: int) -> None:
        """Swap in a model refit from scratch on ``anchor``: re-pin the
        anchor, restart the recent window, and make the next write-back
        a full save (every array changed; no delta can win)."""
        self.model = model
        self.reservoir = _Reservoir(size, anchor)
        self.baseline = None
        self.dirty = True

    def rehome(self, anchor: Sequence[SignalRecord]) -> None:
        """Point the quarantine's home-AP set at ``anchor`` (no buffer: no-op)."""
        if self.quarantine is not None:
            self.quarantine.set_home(home_anchor_macs(anchor))


class GeofenceFleet:
    """LRU-cached, write-back, multi-tenant geofence server.

    Parameters
    ----------
    registry:
        Backing checkpoint store (or a path to root one at).
    capacity:
        Maximum number of tenant models resident at once.
    model_factory:
        Zero-argument callable producing an unfitted pipeline for
        :meth:`provision` calls that pass no spec; defaults to ``GEM()``
        with paper defaults.
    telemetry:
        Counter sink; a fresh :class:`FleetTelemetry` (counting into a
        private metrics registry) by default.
    reservoir_size:
        Bound on *each half* of the per-tenant inlier reservoir: at most
        this many pinned anchor (training) records plus this many recent
        in-premises records; at least 1.  The reservoir is what
        coordinated refresh and re-provision refit on.  A reservoir
        loaded from a checkpoint is held as the checkpoint's columns and
        decoded to records only when a refit reads it; a write-back then
        encodes only the inliers observed since the last save.
    incremental:
        Write evictions/flushes through the incremental checkpoint
        format: a write-back whose state only grew since the last
        committed write appends a delta instead of rewriting the full
        checkpoint (see :func:`repro.serve.checkpoint.save_incremental`).
        Off by default — the on-disk layout then matches earlier
        releases byte-for-byte in structure; the *reconstructed state*
        is identical either way.  A delta chain is compacted by a full
        save at the checkpoint layer's fixed cadence
        (:data:`~repro.serve.checkpoint.MAX_DELTA_CHAIN`,
        :data:`~repro.serve.checkpoint.MAX_DELTA_FRACTION`).
    quarantine_size:
        Bound on the per-tenant quarantine buffer of
        rejected-but-home-anchored records (recovery evidence — see
        :mod:`repro.serve.quarantine`).  0 (the default) disables
        quarantine entirely: no buffer is fed, persisted or consumable,
        and decisions are bit-identical to earlier releases.  Even
        enabled, the quarantine never touches the decision path — the
        admission gate (a default
        :class:`~repro.serve.quarantine.ConsistencyGate`) scores
        side-effect-free augmented copies; the buffer's sampling seed
        is 0.
    """

    def __init__(self, registry: ModelRegistry | str, capacity: int = 8,
                 model_factory: Callable[[], GeofenceModel] | None = None,
                 telemetry: FleetTelemetry | None = None,
                 reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
                 incremental: bool = False,
                 tracer=None,
                 quarantine_size: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if reservoir_size < 1:
            raise ValueError(f"reservoir_size must be >= 1, got {reservoir_size}")
        if quarantine_size < 0:
            raise ValueError(f"quarantine_size must be >= 0, got {quarantine_size}")
        self.registry = registry if isinstance(registry, ModelRegistry) else ModelRegistry(registry)
        self.capacity = capacity
        self.model_factory = model_factory if model_factory is not None else GEM
        self.telemetry = telemetry if telemetry is not None else FleetTelemetry()
        # Optional repro.obs.tracing.Tracer: spans on observe, refresh,
        # reprovision and write-back paths; None costs one shared
        # nullcontext per call.
        self.tracer = tracer
        self.reservoir_size = reservoir_size
        self.incremental = incremental
        self.quarantine_size = quarantine_size
        # tenant_id -> resident record, most-recently-used last.
        self._tenants: "OrderedDict[str, _Tenant]" = OrderedDict()
        # tenant_id -> the maintenance block of its spec, for tenants
        # whose spec has one: recorded at provision and load and kept
        # across evictions (a refit keeps the spec), so a tenant's
        # policy does not depend on residency.
        self._maintenance: dict[str, MaintenancePolicy] = {}
        # Tenants with a staged refresh mid-rebuild, resident or not: the
        # model-identity check at commit cannot see a *second* refresh of
        # the same model, so overlapping refreshes are refused up front.
        self._refreshing: set[str] = set()
        # The batch data plane: routes each tenant's observe_many group
        # into the model's observe_many (standalone models: per record)
        # and counts engaged/fallback outcomes.  Shares the fleet lock.
        self.batchplane = BatchPlane(metrics=self.telemetry.metrics)
        self._lock = RLock()

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------
    def provision(self, tenant_id: str, records: Sequence[SignalRecord],
                  metadata: dict | None = None,
                  spec: PipelineSpec | None = None) -> GeofenceModel:
        """Fit a fresh model for a tenant and persist it immediately.

        With a ``spec``, the tenant gets that declarative arm (any
        registered embedder x detector composition or standalone model);
        otherwise the fleet's ``model_factory`` decides.  Mixed-arm
        fleets are fully supported — the arm travels inside the tenant's
        checkpoint, so later reloads rebuild the right pipeline.

        All or nothing: the new record enters the LRU only once its save
        has committed; a failed save leaves the prior state untouched.
        """
        validate_tenant_id(tenant_id)
        if spec is not None:
            # Fail before the (expensive) fit, not at checkpoint time.
            spec.require_state_dict()
        model = build_pipeline(spec) if spec is not None else self.model_factory()
        model.fit(records)
        with self._lock:
            previous = self._tenants.get(tenant_id)
            # Training records are inliers by definition (semi-supervised
            # setup): they become the pinned anchor, so the very first
            # refresh already refits on the full training breadth.  A
            # fresh provision starts with a clean slate of evidence:
            # whatever a previous incarnation quarantined described a
            # model that no longer exists.
            tenant = _Tenant(model, dict(metadata or {}),
                             _Reservoir(self.reservoir_size, [r for r in records if r.readings]),
                             baseline=previous.baseline if previous is not None else None)
            self._save(tenant_id, tenant)
            self._tenants[tenant_id] = tenant
            self._tenants.move_to_end(tenant_id)
            self._note_maintenance(tenant_id, model)
            if previous is not None and previous.quarantine is not None:
                self._sync_quarantine_gauge()
            self._shrink()
        return model

    def evict(self, tenant_id: str) -> bool:
        """Drop a tenant from memory (write-back first if dirty)."""
        with self._lock:
            if tenant_id not in self._tenants:
                return False
            self._drop(tenant_id)
            return True

    def flush(self, tenant_id: str | None = None) -> int:
        """Write dirty resident models back; returns checkpoints written.

        With a ``tenant_id``, flushes just that tenant; otherwise every
        dirty resident tenant.  Models stay resident.
        """
        with self._lock:
            targets = [tenant_id] if tenant_id is not None else list(self._tenants)
            written = 0
            for tid in targets:
                tenant = self._tenants.get(tid)
                if tenant is not None and tenant.dirty:
                    self._write_back(tid, tenant)
                    written += 1
            return written

    def close(self) -> None:
        """Write back everything dirty and drop all resident tenants."""
        with self._lock:
            self.flush()
            self._tenants.clear()

    def __enter__(self) -> "GeofenceFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def observe(self, tenant_id: str, record: SignalRecord) -> GeofenceDecision:
        """Algorithm-2 observation against one tenant's model: a batch of one."""
        return self.observe_many([(tenant_id, record)])[0]

    def observe_many(self, items: Iterable[tuple[str, SignalRecord]]) -> list[GeofenceDecision]:
        """Batched dispatch: group by tenant, answer in input order.

        Grouping means each tenant's model is looked up (and possibly
        loaded) once per batch instead of once per record, which is what
        keeps throughput flat when a batch interleaves tenants beyond
        the LRU budget.

        Every tenant in the batch is validated (well-formed id, has a
        checkpoint) *before* any observation mutates any model, so a bad
        batch fails without leaving earlier tenants half-served.  A
        checkpoint that turns unreadable mid-batch can still abort the
        remainder after some groups have been applied.
        """
        items = list(items)
        by_tenant: "OrderedDict[str, list[int]]" = OrderedDict()
        for position, (tenant_id, _) in enumerate(items):
            by_tenant.setdefault(tenant_id, []).append(position)
        with maybe_span(self.tracer, "observe", items=len(items), tenants=len(by_tenant)):
            with self._lock:
                for tenant_id in by_tenant:
                    if tenant_id not in self._tenants and not self.registry.exists(tenant_id):
                        raise CheckpointError(f"tenant {tenant_id!r} has no checkpoint under "
                                              f"{self.registry.root}; batch rejected untouched")
            decisions: list[GeofenceDecision | None] = [None] * len(items)
            for tenant_id, positions in by_tenant.items():
                with self._lock:
                    tenant = self._acquire(tenant_id)
                    start = time.perf_counter()
                    batch, _ = self.batchplane.observe_batch(
                        tenant.model, [items[p][1] for p in positions])
                    elapsed = time.perf_counter() - start
                    for position, decision in zip(positions, batch):
                        decisions[position] = decision
                        record = items[position][1]
                        # A non-empty record may move the detector or its
                        # update buffer, the reservoir or the quarantine;
                        # an empty one touches nothing.
                        if record.readings:
                            tenant.dirty = True
                            self._remember_inlier(tenant, record, decision)
                            self._consider_quarantine(tenant_id, tenant, record, decision)
                self.telemetry.record_observations(tenant_id, batch, seconds=elapsed)
        return decisions

    def score(self, tenant_id: str, record: SignalRecord) -> float:
        """Stateless outlier score against one tenant's model."""
        with self._lock:
            return self._acquire(tenant_id).model.score(record)

    # ------------------------------------------------------------------
    # Maintenance mechanics (driven by the control plane)
    # ------------------------------------------------------------------
    def refresh(self, tenant_id: str) -> int:
        """Coordinated refresh of one tenant from its inlier reservoir.

        Refits the tenant model's detector on the anchor + recent
        reservoir, re-embedded by its frozen embedder, atomically (see
        :meth:`repro.core.gem.EmbeddingGeofencer.refresh`): a failure
        leaves the tenant serving its pre-refresh state, un-dirtied by
        the attempt.  Returns the number of records the detector was
        refit on.

        The fleet lock is **not** held during the heavy rebuild: the
        copy phase (``begin_refresh``) copies the detector under the
        lock, re-embedding and refit run with the lock released
        (observes on other — and this — tenant keep flowing), and the
        commit (``commit_refresh``) re-takes the lock only for the
        pointer swap.  If the tenant was evicted, reloaded or
        re-provisioned while the rebuild ran — or a second refresh of
        the same tenant overlapped this one — the commit is refused
        (ValueError) rather than clobbering the newer model.
        """
        with maybe_span(self.tracer, "refresh", tenant=tenant_id):
            with self._lock:
                tenant = self._acquire(tenant_id)
                model = tenant.model
                if not hasattr(model, "begin_refresh"):
                    raise TypeError(f"tenant {tenant_id!r} runs {type(model).__name__}, "
                                    "which has no coordinated refresh capability")
                records = tenant.reservoir.records()
                if not records:
                    raise ValueError(f"tenant {tenant_id!r} has an empty inlier reservoir "
                                     "(no inliers observed yet); "
                                     "nothing to refit the detector on")
                start = time.perf_counter()
                if tenant_id in self._refreshing:
                    raise ValueError(
                        f"tenant {tenant_id!r} already has a refresh rebuilding; "
                        "overlapping refreshes would silently revert each other")
                job = model.begin_refresh(records)
                self._refreshing.add(tenant_id)
            try:
                # Re-embed and refit the detector copy, fleet lock released.
                with maybe_span(self.tracer, "refresh.build", tenant=tenant_id):
                    absorbed = job.build()
                with maybe_span(self.tracer, "refresh.commit", tenant=tenant_id):
                    with self._lock:
                        current = self._tenants.get(tenant_id)
                        if current is None or current.model is not model:
                            raise ValueError(
                                f"tenant {tenant_id!r} was evicted or replaced while its "
                                "refresh was rebuilding; the result was discarded")
                        model.commit_refresh(job)
                        current.dirty = True
            finally:
                with self._lock:
                    self._refreshing.discard(tenant_id)
            self.telemetry.record_refresh(tenant_id, seconds=time.perf_counter() - start)
        return absorbed

    def reprovision(self, tenant_id: str) -> GeofenceModel:
        """Background re-provision: refit the tenant's arm from scratch
        on its inlier reservoir and swap it in.

        The escalation path for worlds that drifted further than a
        refresh can absorb (the training graph itself is stale; new MACs
        only enter the aggregation universe here, where the weights
        retrain against them).  The new pipeline is built from the
        tenant's spec and fitted *before* the swap, so a failed fit
        leaves the old model serving.  The reservoir re-anchors on the
        records just refitted on.
        """
        with self._lock, maybe_span(self.tracer, "reprovision", tenant=tenant_id):
            tenant = self._acquire(tenant_id)
            records = tenant.reservoir.records()
            if not records:
                raise ValueError(f"tenant {tenant_id!r} has an empty inlier reservoir "
                                 "(no inliers observed yet); "
                                 "cannot refit from scratch")
            start = time.perf_counter()
            fresh = build_pipeline(infer_spec(tenant.model))
            fresh.fit(records)
            elapsed = time.perf_counter() - start
            # Commit point: the fitted replacement takes the record and
            # its training set becomes the new anchor.  Quarantined
            # evidence keeps its place (same world, newer refit) but the
            # home-AP anchor set follows the new anchor records.
            tenant.refit(fresh, records, self.reservoir_size)
            tenant.rehome(tenant.reservoir.anchor())
        self.telemetry.record_reprovision(tenant_id, seconds=elapsed)
        return fresh

    def reprovision_from_quarantine(self, tenant_id: str,
                                    max_fpr: float | None = 0.5) -> GeofenceModel:
        """Recovery refit: rebuild the tenant's arm from its quarantine.

        The escape hatch for the measured hard wall no reservoir-fed
        action can climb (``BENCH_fleet_drift.json`` worst case): when
        ambient-AP replacement passes ~45 %, every decision goes
        outside, the inlier reservoir starves, and refresh/reprovision
        refit the *old* world forever.  The quarantine holds the
        admission-gated, rejected-but-home-anchored scans of the *new*
        world; fitting a fresh pipeline on them re-anchors the trained
        MAC universe where the devices actually are now.

        Rollback guard (``max_fpr``): the fresh model is validated
        *before* the swap — if it rejects more than ``max_fpr`` of the
        very evidence set it was fitted on (the records that become the
        retained anchor), the refit did not converge on a usable
        in-premises model and a ValueError rolls the recovery back: the
        pre-recovery model simply keeps serving, buffer intact, and the
        snapshot that "rollback" restores is the state this method
        never touched.

        On success the evidence set becomes the new pinned anchor
        (bounded by ``reservoir_size``), the recent reservoir restarts,
        and the quarantine is cleared — evidence is consumed by exactly
        one recovery, never recycled into the next refit.
        """
        with self._lock, maybe_span(self.tracer, "recover", tenant=tenant_id):
            if not self.quarantine_size:
                raise ValueError(
                    f"cannot recover tenant {tenant_id!r}: this fleet runs with "
                    "quarantine_size=0 (quarantine disabled)")
            tenant = self._acquire(tenant_id)
            buffer = tenant.quarantine
            records = list(buffer.records) if buffer is not None else []
            if not records:
                raise ValueError(
                    f"tenant {tenant_id!r} has an empty quarantine buffer; "
                    "no recovery evidence to refit from")
            start = time.perf_counter()
            fresh = build_pipeline(infer_spec(tenant.model))
            fresh.fit(records)
            if max_fpr is not None and hasattr(fresh, "predict"):
                rejected = len(records) - int(predict_records(fresh, records).sum())
                fpr = rejected / len(records)
                if fpr > max_fpr:
                    raise ValueError(
                        f"recovery for tenant {tenant_id!r} rolled back: the "
                        f"recovered model rejects {fpr:.0%} of its own "
                        f"{len(records)}-record anchor set (max_fpr "
                        f"{max_fpr:g}); the pre-recovery model keeps serving")
            elapsed = time.perf_counter() - start
            # The home-AP set follows the whole evidence set the anchor
            # was pinned from.
            tenant.refit(fresh, records, self.reservoir_size)
            buffer.clear()
            tenant.rehome(records)
            self._sync_quarantine_gauge()
        self.telemetry.record_reprovision(tenant_id, seconds=elapsed)
        return fresh

    def reservoir(self, tenant_id: str) -> list[SignalRecord]:
        """Copy of one tenant's inlier reservoir (anchor then recent)."""
        with self._lock:
            return self._acquire(tenant_id).reservoir.records()

    def quarantine(self, tenant_id: str) -> list[SignalRecord]:
        """Copy of one tenant's quarantined recovery evidence."""
        with self._lock:
            buffer = self._acquire(tenant_id).quarantine
            return list(buffer.records) if buffer is not None else []

    def quarantine_depth(self, tenant_id: str) -> int:
        """Resident quarantine depth for one tenant (0 if not resident).

        Deliberately load-free: the control plane polls this on the
        decision path, where a checkpoint read would be a regression.
        """
        with self._lock:
            tenant = self._tenants.get(tenant_id)
            if tenant is None or tenant.quarantine is None:
                return 0
            return tenant.quarantine.depth

    def quarantine_depths(self) -> dict[str, int]:
        """``{tenant_id: depth}`` across resident, non-empty buffers."""
        with self._lock:
            return {tenant_id: tenant.quarantine.depth
                    for tenant_id, tenant in self._tenants.items()
                    if tenant.quarantine is not None and tenant.quarantine.depth}

    def resident(self, tenant_id: str) -> GeofenceModel | None:
        """The tenant's model if resident, else None — no load, no LRU touch."""
        with self._lock:
            tenant = self._tenants.get(tenant_id)
            return tenant.model if tenant is not None else None

    def maintenance_policy(self, tenant_id: str) -> MaintenancePolicy | None:
        """The ``maintenance`` block of the tenant's spec, resident or not;
        None when the spec has none or this fleet never held the tenant.
        No load, no LRU touch."""
        with self._lock:
            return self._maintenance.get(tenant_id)

    def _note_maintenance(self, tenant_id: str, model: GeofenceModel) -> None:
        block = getattr(getattr(model, "spec", None), "maintenance", None)
        if block is None:
            self._maintenance.pop(tenant_id, None)
        else:
            self._maintenance[tenant_id] = block

    def _remember_inlier(self, tenant: _Tenant, record: SignalRecord,
                         decision: GeofenceDecision) -> None:
        """Reservoir policy: keep records behind finite in-premises decisions.

        Confidence is deliberately not required — detectors without a
        confidence notion (LOF, iForest) would otherwise never fill a
        reservoir — but unembeddable (+inf) and outside records never
        enter: refreshing a detector on suspected outliers would teach
        it the breach.  Call with the lock held.
        """
        if decision.inside and math.isfinite(decision.score):
            tenant.reservoir.pending.append(record)

    def _consider_quarantine(self, tenant_id: str, tenant: _Tenant,
                             record: SignalRecord,
                             decision: GeofenceDecision) -> None:
        """Quarantine feed: offer *rejected* records as recovery evidence.

        The mirror image of :meth:`_remember_inlier` — outside and
        unembeddable (+inf) decisions, i.e. exactly what the reservoir
        refuses.  The buffer's own gates (home-AP anchor, consistency
        under augmentation, reservoir draw) decide admission; scoring
        augmented copies uses the model's side-effect-free
        ``predict_many``, so the decision stream is untouched whether or
        not quarantine runs.  Call with the lock held.
        """
        if not self.quarantine_size or decision.inside:
            return
        if tenant.quarantine is None:
            tenant.quarantine = QuarantineBuffer(self.quarantine_size, tenant_key=tenant_id,
                                                 gate=_QUARANTINE_GATE)
            tenant.rehome(tenant.reservoir.anchor())
        outcome = tenant.quarantine.consider(tenant.model, record)
        self.telemetry.record_quarantine(outcome)
        if outcome == "admitted":
            self._sync_quarantine_gauge()

    def _sync_quarantine_gauge(self) -> None:
        """Mirror total resident quarantine depth.  Lock held."""
        self.telemetry.record_quarantine_depth(
            sum(tenant.quarantine.depth for tenant in self._tenants.values()
                if tenant.quarantine is not None))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident_tenants(self) -> list[str]:
        """Tenants currently in memory, least-recently-used first."""
        with self._lock:
            return list(self._tenants)

    def is_dirty(self, tenant_id: str) -> bool:
        with self._lock:
            tenant = self._tenants.get(tenant_id)
            return tenant is not None and tenant.dirty

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------
    def _acquire(self, tenant_id: str) -> _Tenant:
        """The tenant's resident record, loaded on first touch; marks it
        most recently used."""
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            start = time.perf_counter()
            tenant = self._load(tenant_id)
            self._tenants[tenant_id] = tenant
            self._note_maintenance(tenant_id, tenant.model)
            if tenant.quarantine is not None:
                self._sync_quarantine_gauge()
            self.telemetry.record_load(tenant_id, seconds=time.perf_counter() - start)
            self._shrink(keep=tenant_id)
        self._tenants.move_to_end(tenant_id)
        return tenant

    def _load(self, tenant_id: str) -> _Tenant:
        """Read one tenant's checkpoint into a whole record, touching no
        fleet state: a corrupt persisted reservoir or quarantine
        (:class:`CheckpointError`) leaves no trace."""
        # One read yields model, metadata and baseline, so they always
        # belong to the same save even with a concurrent writer process.
        baseline = None
        if self.incremental:
            model, manifest, baseline = self.registry.load_with_baseline(tenant_id)
        else:
            model, manifest = self.registry.load_with_manifest(tenant_id)
        metadata = dict(manifest.get("metadata", {}))
        serialized = metadata.pop(RESERVOIR_METADATA_KEY, None)
        # A quarantine-off fleet leaves the persisted buffer inside the
        # cached metadata, untouched, so its write-backs carry it
        # forward for a future recovering fleet.
        serialized_quarantine = metadata.pop(QUARANTINE_METADATA_KEY, None) \
            if self.quarantine_size else None
        try:
            quarantine = QuarantineBuffer.from_state(
                serialized_quarantine, capacity=self.quarantine_size,
                tenant_key=tenant_id, gate=_QUARANTINE_GATE) \
                if serialized_quarantine is not None else None
            reservoir = _Reservoir.from_state(self.reservoir_size, serialized) \
                if serialized is not None else _Reservoir(self.reservoir_size)
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise CheckpointError(f"tenant {tenant_id!r} has a corrupt persisted "
                                  f"reservoir or quarantine: {error}") from error
        return _Tenant(model, metadata, reservoir, quarantine, baseline)

    def _shrink(self, keep: str | None = None) -> None:
        while len(self._tenants) > self.capacity:
            victim = next(iter(self._tenants))
            if victim == keep:
                self._tenants.move_to_end(victim)
                victim = next(iter(self._tenants))
            self._drop(victim)

    def _drop(self, tenant_id: str) -> None:
        """Evict one resident tenant: write back, then forget its record.

        Write-back happens *before* the record leaves: if the save
        fails, the tenant stays resident and dirty instead of losing its
        absorbed self-updates.  The next load rebuilds the whole record
        from the committed checkpoint.
        """
        tenant = self._tenants[tenant_id]
        self._write_back(tenant_id, tenant)
        del self._tenants[tenant_id]
        if tenant.quarantine is not None:
            self._sync_quarantine_gauge()
        self.telemetry.record_eviction(tenant_id)

    def _write_back(self, tenant_id: str, tenant: _Tenant) -> None:
        if not tenant.dirty:
            return
        # The partial self-update buffer is checkpointed as-is (not
        # flushed), so a reloaded model resumes with zero decision drift.
        self._save(tenant_id, tenant)
        tenant.dirty = False

    def _save(self, tenant_id: str, tenant: _Tenant) -> None:
        with maybe_span(self.tracer, "write_back", tenant=tenant_id) as span:
            start = time.perf_counter()
            metadata = dict(tenant.metadata)
            columns = tenant.reservoir.columns()
            if columns is not None:
                metadata[RESERVOIR_METADATA_KEY] = columns
            buffer = tenant.quarantine
            if buffer is not None and not buffer.dormant:
                metadata[QUARANTINE_METADATA_KEY] = buffer.state_dict()
            if self.incremental:
                kind, tenant.baseline = self.registry.save_incremental(
                    tenant_id, tenant.model, tenant.baseline, metadata=metadata)
                elapsed = time.perf_counter() - start
                if kind == "delta":
                    self.telemetry.record_delta_save(tenant_id, seconds=elapsed)
                else:
                    self.telemetry.record_save(tenant_id, seconds=elapsed)
            else:
                self.registry.save(tenant_id, tenant.model, metadata=metadata)
                self.telemetry.record_save(tenant_id, seconds=time.perf_counter() - start)
            # Byte-level accounting comes from the checkpoint layer (the
            # save just ran on this thread); kind lands on the span so a
            # slow write-back trace says whether compaction paid for it.
            stats = last_write()
            if stats is not None:
                self.telemetry.record_write_stats(stats.kind, stats.bytes_written,
                                                  stats.chain_length)
                if span is not None:
                    span.attrs["kind"] = stats.kind
