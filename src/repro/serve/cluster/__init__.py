"""`repro.serve.cluster` — multi-process serving with warm failover.

The scale-out layer above :class:`~repro.serve.runtime.ServingRuntime`:

* :mod:`~repro.serve.cluster.protocol` — length-prefixed, batched
  framing (JSON header + binary blobs) with a versioned handshake;
* :mod:`~repro.serve.cluster.worker` — one serial runtime per worker
  process (or in-process thread), serving its disjoint hash slice of
  the tenants;
* :mod:`~repro.serve.cluster.router` — the front end: routes by the
  CRC-32 tenant partition (``shard_index``), fans batches across
  workers, maps remote errors back to local types, and detects dead
  workers instead of hanging;
* :mod:`~repro.serve.cluster.replicate` — delta-shipped replication of
  committed checkpoint writes into a warm standby registry, plus
  ``promote()`` for failover.

The router is also the cluster's observability endpoint: it merges
per-worker metric snapshots, grades cluster health, and stitches
cross-process trace trees (see :mod:`repro.obs.cluster`) behind
``Router.metrics()`` / ``Router.health_report()`` /
``Router.export_prometheus()``.

Decisions through a cluster are bit-identical to the single-process
runtime: tenants are process-disjoint, each worker serves serially, and
the wire codec round-trips floats exactly (``BENCH_cluster.json`` pins
both the identity and the scaling).
"""

from repro.serve.cluster.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.serve.cluster.replicate import (
    DeltaShipper,
    Follower,
    PromotionReport,
    ReplicationError,
    ShippedWrite,
)
from repro.serve.cluster.router import (
    ClusterError,
    Router,
    SubprocessWorkerHandle,
    WorkerDied,
    WorkerTimeout,
    spawn_subprocess_worker,
)
from repro.serve.cluster.worker import (
    ClusterWorker,
    LocalWorkerHandle,
    WorkerConfig,
    spawn_local_worker,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ClusterError",
    "WorkerDied",
    "WorkerTimeout",
    "Router",
    "SubprocessWorkerHandle",
    "spawn_subprocess_worker",
    "ClusterWorker",
    "LocalWorkerHandle",
    "WorkerConfig",
    "spawn_local_worker",
    "DeltaShipper",
    "Follower",
    "PromotionReport",
    "ReplicationError",
    "ShippedWrite",
]
