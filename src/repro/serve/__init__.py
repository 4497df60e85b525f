"""Model persistence and multi-tenant fleet serving.

The paper's deployment model is one pipeline per user premises
(Table II); this package turns the in-memory pipeline into a servable
asset:

* :mod:`repro.serve.checkpoint` — versioned on-disk format (npz arrays
  + JSON manifest, with the declarative pipeline spec embedded) for any
  fitted pipeline exposing ``state_dict``;
* :mod:`repro.serve.registry` — per-tenant checkpoint store with
  atomic writes;
* :mod:`repro.serve.fleet` — LRU-cached multi-tenant server with dirty
  write-back, batched dispatch, heterogeneous per-tenant arms and a
  bounded recent-inlier reservoir per tenant (the **data plane**, plus
  the maintenance mechanics);
* :mod:`repro.serve.telemetry` — fleet-wide serving counters, kept in
  the metrics registry;
* :mod:`repro.serve.policy` — declarative
  :class:`~repro.serve.policy.MaintenancePolicy` (JSON round trip,
  embeddable in a :class:`~repro.pipeline.spec.PipelineSpec`);
* :mod:`repro.serve.controller` — the **control plane**:
  :class:`~repro.serve.controller.FleetController` executes policies
  (coordinated refresh, re-provision, quarantine recovery) against a
  fleet as decisions are pumped into it;
* :mod:`repro.serve.quarantine` — the starvation-recovery evidence
  store: a seed-deterministic, admission-gated
  :class:`~repro.serve.quarantine.QuarantineBuffer` of rejected but
  home-anchored observations, from which
  :meth:`~repro.serve.fleet.GeofenceFleet.reprovision_from_quarantine`
  can re-anchor a tenant whose inlier reservoir has starved;
* :mod:`repro.serve.runtime` / :mod:`repro.serve.scheduler` — the
  **serving daemon**: :class:`~repro.serve.runtime.ServingRuntime`
  serves one fleet through a decision bus and runs policy maintenance
  on a :class:`~repro.serve.scheduler.MaintenanceScheduler` background
  worker, off the observe path, with incremental (delta) checkpoint
  write-backs;
* :mod:`repro.serve.cluster` — the **scale-out layer** and the only
  tenant partition: a :class:`~repro.serve.cluster.router.Router`
  hash-partitions tenants (:func:`shard_index`, CRC-32) across worker
  *processes* (each a serial runtime over its registry slice, spoken
  to over a length-prefixed framing protocol) and
  optionally delta-ships every committed checkpoint write to a warm
  standby registry a :class:`~repro.serve.cluster.replicate.Follower`
  can ``promote()`` for failover.

Observability lives in the sibling :mod:`repro.obs` package; a
:class:`~repro.serve.runtime.ServingRuntime` wires it through every
layer by default (``observability=True``) and exposes
``runtime.metrics()`` / ``runtime.export_prometheus()``.
"""

from repro.serve.checkpoint import (
    CHECKPOINT_VERSION,
    INCREMENTAL_VERSION,
    SUPPORTED_VERSIONS,
    CheckpointError,
    CommitInfo,
    StateBaseline,
    WriteStats,
    last_commit,
    last_write,
    load_checkpoint,
    load_checkpoint_with_baseline,
    load_checkpoint_with_manifest,
    read_manifest,
    save_checkpoint,
    save_incremental,
    spec_from_manifest,
)
from repro.serve.controller import FleetController
from repro.serve.fleet import (
    DEFAULT_RESERVOIR_SIZE,
    QUARANTINE_METADATA_KEY,
    RESERVOIR_METADATA_KEY,
    GeofenceFleet,
)
from repro.serve.policy import MaintenancePolicy, RecoveryPolicy
from repro.serve.quarantine import (
    DEFAULT_QUARANTINE_SIZE,
    ConsistencyGate,
    QuarantineBuffer,
    home_anchor_macs,
)
from repro.serve.registry import ModelRegistry, validate_tenant_id
from repro.serve.runtime import ServingRuntime
from repro.serve.scheduler import MaintenanceScheduler
from repro.serve.telemetry import FleetTelemetry, TenantStats
# The cluster package imports the modules above; import it last.
from repro.serve.cluster.worker import shard_index

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CommitInfo",
    "ConsistencyGate",
    "DEFAULT_QUARANTINE_SIZE",
    "DEFAULT_RESERVOIR_SIZE",
    "FleetController",
    "FleetTelemetry",
    "GeofenceFleet",
    "INCREMENTAL_VERSION",
    "MaintenancePolicy",
    "MaintenanceScheduler",
    "ModelRegistry",
    "QUARANTINE_METADATA_KEY",
    "QuarantineBuffer",
    "RESERVOIR_METADATA_KEY",
    "RecoveryPolicy",
    "SUPPORTED_VERSIONS",
    "ServingRuntime",
    "StateBaseline",
    "TenantStats",
    "WriteStats",
    "home_anchor_macs",
    "last_commit",
    "last_write",
    "load_checkpoint",
    "load_checkpoint_with_baseline",
    "load_checkpoint_with_manifest",
    "read_manifest",
    "save_checkpoint",
    "save_incremental",
    "shard_index",
    "spec_from_manifest",
    "validate_tenant_id",
]
