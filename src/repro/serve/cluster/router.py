"""Cluster router: hash-partitioned fan-out over worker processes.

The :class:`Router` is the front end of the multi-process serving
cluster: it owns N workers (each a
:class:`~repro.serve.cluster.worker.ClusterWorker` wrapping a serial
:class:`~repro.serve.runtime.ServingRuntime`), routes every tenant to
the worker ``shard_index(tenant_id, num_workers)`` (CRC-32) selects —
the process is the only tenant partition — and speaks the length-prefixed protocol of
:mod:`repro.serve.cluster.protocol` over each worker's stdio pipes.

Design notes
------------
* **One reader thread per worker** drains the worker's output stream:
  ``response`` frames resolve the pending request they answer (matched
  by id), ``replicate`` frames are applied to the standby
  :class:`~repro.serve.cluster.replicate.Follower` inline, and EOF —
  the worker died or closed — fails every pending request on that link
  with :class:`WorkerDied` instead of letting callers hang.
* **Per-request timeouts**: a request that gets no response within
  ``timeout`` seconds raises :class:`WorkerTimeout`; a late response is
  dropped (its pending entry is gone), so the link stays usable.
* **Remote errors come back typed**: a worker maps an exception to
  ``{kind, message}`` and the router re-raises the matching local type
  (ValueError, KeyError, CheckpointError, ...) so cluster callers keep
  the single-process error contract.
* **Replication ordering**: workers emit replicate frames *before* the
  response of the request that committed them, and the reader thread
  processes frames in order — so after ``flush()`` returns, the standby
  has been offered every write the flush performed.  That is the whole
  failover story: flush, then :meth:`promote`.

Observability: the router is the cluster's single read surface.
:meth:`metrics` fans the ``obs_snapshot`` op to every live worker and
merges the answers with :mod:`repro.obs.cluster` — worker counters sum,
gauges fold per family semantics, histograms merge exactly, and every
worker family is also exposed per worker under a ``worker`` label —
alongside the router-local families
(``repro_router_requests_total{op,worker,outcome}``,
``repro_router_request_seconds{op}``, ``repro_replication_*``) and the
:class:`~repro.obs.cluster.ClusterHealthMonitor` rollup
(``repro_health_*{probe,worker}``).  Every data-plane request carries
the router tracer's ``{"trace_id", "span_id"}`` context in its frame
header, so worker slow traces graft back under the router span that
caused them (:func:`~repro.obs.cluster.stitch_traces`).  Pass
``observability=False`` for a bare cluster — the overhead benchmark's
control arm: workers run without registries, requests carry no trace
context, and :meth:`metrics` serves router-local families only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.core.protocols import GeofenceDecision
from repro.core.records import SignalRecord
from repro.obs import tracing
from repro.obs.cluster import ClusterHealthMonitor, cluster_families, stitch_traces
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, maybe_span
from repro.serve.checkpoint import CheckpointError
from repro.serve.cluster.protocol import (
    ProtocolError,
    check_hello,
    decode_decision,
    encode_record,
    hello_frame,
    read_frame,
    write_frame,
)
from repro.serve.cluster.replicate import Follower, ReplicationError, ShippedWrite
from repro.serve.cluster.worker import (WorkerConfig, shard_index,
                                        spawn_local_worker)
from repro.serve.policy import MaintenancePolicy
from repro.serve.registry import ModelRegistry
from repro.serve.telemetry import TenantStats

__all__ = ["ClusterError", "Router", "SubprocessWorkerHandle", "WorkerDied",
           "WorkerTimeout", "spawn_local_worker", "spawn_subprocess_worker"]


class ClusterError(RuntimeError):
    """A cluster-level failure (dead worker, timeout, bad response)."""


class WorkerDied(ClusterError):
    """The worker closed its link (crashed or exited) mid-conversation."""


class WorkerTimeout(ClusterError):
    """No response within the per-request timeout; the link stays usable."""


# Remote error kinds the router re-raises as their local types, keeping
# the single-process error contract across the wire.  Anything else
# (including a worker-side bug) surfaces as ClusterError.
_REMOTE_KINDS: dict[str, type] = {
    "ValueError": ValueError,
    "TypeError": TypeError,
    "KeyError": KeyError,
    "RuntimeError": RuntimeError,
    "CheckpointError": CheckpointError,
    "ReplicationError": ReplicationError,
    "ProtocolError": ProtocolError,
}


class SubprocessWorkerHandle:
    """A worker child process; reader/writer are its stdio pipes."""

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.reader = proc.stdout
        self.writer = proc.stdin
        self.pid = proc.pid

    def close(self) -> None:
        # stdin first: the child sees EOF and exits, which EOFs stdout
        # and releases any thread blocked reading it — only then is
        # closing the reader safe (close shares the blocked read's lock).
        try:
            self.writer.close()
        except OSError:  # pragma: no cover - already closed
            pass
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - wedged child
            self.proc.kill()
            self.proc.wait(timeout=10.0)
        try:
            self.reader.close()
        except OSError:  # pragma: no cover - already closed
            pass


def spawn_subprocess_worker(config: WorkerConfig) -> SubprocessWorkerHandle:
    """The default launcher: ``python -m repro.serve.cluster.worker``.

    The child resolves :mod:`repro` from this process's installed copy
    (its source root is prepended to ``PYTHONPATH``), so the cluster
    works from a source tree without installation.
    """
    import repro
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing \
        else src_root + os.pathsep + existing
    # -c instead of -m: runpy would import the cluster package (whose
    # __init__ imports .worker) before executing worker as __main__, and
    # warn about the resulting double module.
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from repro.serve.cluster.worker import main; "
         "sys.exit(main())"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
    return SubprocessWorkerHandle(proc)


class _Pending:
    """One in-flight request awaiting its response frame."""

    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None


class _WorkerLink:
    """Router-side state for one worker: handle, lock, pending, reader."""

    def __init__(self, index: int, handle):
        self.index = index
        self.handle = handle
        self.write_lock = threading.Lock()
        self.pending: dict[int, _Pending] = {}
        self.pending_lock = threading.Lock()
        self.next_id = 0
        self.dead = False
        self.reader_thread: threading.Thread | None = None
        self.pid: int | None = getattr(handle, "pid", None)

    def take_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def fail_pending(self, error: BaseException) -> None:
        with self.pending_lock:
            entries = list(self.pending.values())
            self.pending.clear()
        for entry in entries:
            entry.error = error
            entry.event.set()


class Router:
    """Multi-process serving front end with optional warm standby.

    Parameters
    ----------
    registry:
        Checkpoint registry root shared by all workers (each serves its
        disjoint hash slice of the tenants in it).
    num_workers:
        Worker processes to partition tenants across.
    capacity / incremental / policy / quarantine_size:
        Forwarded to each worker's :class:`ServingRuntime` (capacity is
        the LRU budget per worker; ``quarantine_size`` arms per-tenant
        quarantine buffers for starvation recovery, 0 = off).
    standby:
        Registry root (or :class:`ModelRegistry` / :class:`Follower`) to
        replicate committed writes into.  Enables delta shipping in
        every worker; read lag via :meth:`replication_lag`, fail over
        via :meth:`promote`.  An empty standby root is first seeded with
        a snapshot copy of the registry (before any worker starts), so
        deltas from pre-existing tenants chain off a known base — a
        pre-built :class:`Follower` is used as-is (the caller seeds it).
    timeout:
        Per-request response timeout in seconds.
    launcher:
        ``WorkerConfig -> handle`` factory.  Default spawns subprocess
        workers; pass :func:`~repro.serve.cluster.worker.spawn_local_worker`
        for in-process worker threads (tests, single-process fallback).
    observability:
        Run each worker with its own registry/tracer/probes and stamp
        router trace context into every request (default on — the obs
        plane is bit-identical on decisions and <5 % on the critical
        path, enforced by ``bench_cluster.py``).  Pass False for the
        bare control arm.

    The router's and each worker's slow-trace rings take root spans of
    at least :data:`repro.obs.tracing.SLOW_TRACE_THRESHOLD` seconds.
    """

    def __init__(self, registry: ModelRegistry | str | Path,
                 num_workers: int = 2, capacity: int = 8,
                 incremental: bool = True,
                 policy: MaintenancePolicy | None = None,
                 standby: Follower | ModelRegistry | str | Path | None = None,
                 timeout: float = 30.0,
                 launcher: Callable[[WorkerConfig], object] | None = None,
                 quarantine_size: int = 0,
                 observability: bool = True):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        root = registry.root if isinstance(registry, ModelRegistry) \
            else Path(registry)
        self.registry_root = Path(root)
        self.num_workers = num_workers
        self.timeout = timeout
        if standby is None or isinstance(standby, Follower):
            self.follower = standby
        else:
            self.follower = Follower(standby)
            self._seed_standby()
        self._launcher = launcher or spawn_subprocess_worker
        self._closed = False
        self.final_worker_stats: list[dict | None] = [None] * num_workers

        self.metrics_registry = MetricsRegistry()
        self._requests_total = self.metrics_registry.counter(
            "repro_router_requests_total",
            help="Requests routed to workers, by op and outcome",
            labels=("op", "worker", "outcome"))
        self._request_seconds = self.metrics_registry.histogram(
            "repro_router_request_seconds",
            help="Round-trip request latency through a worker",
            labels=("op",))
        self._replication_lag_gauge = self.metrics_registry.gauge(
            "repro_replication_lag",
            help="Seconds between a primary commit and its standby apply")
        self._replication_applied = self.metrics_registry.counter(
            "repro_replication_applied_total",
            help="Shipped writes applied to the standby", labels=("source",))
        self._replication_rejected = self.metrics_registry.counter(
            "repro_replication_rejected_total",
            help="Shipped writes the standby refused (torn/divergent)")
        self._observability = observability
        self.tracer = Tracer(slow_threshold=tracing.SLOW_TRACE_THRESHOLD,
                             trace_prefix="router") if observability else None
        self.cluster_health = ClusterHealthMonitor(metrics=self.metrics_registry)
        self.last_replication_error: str | None = None

        policy_dict = policy.to_dict() if policy is not None else None
        self._links: list[_WorkerLink] = []
        try:
            for index in range(num_workers):
                config = WorkerConfig(
                    registry=str(self.registry_root), index=index,
                    num_workers=num_workers, capacity=capacity,
                    incremental=incremental,
                    replicate=self.follower is not None,
                    policy=policy_dict,
                    quarantine_size=quarantine_size,
                    observability=observability)
                self._links.append(self._connect(index, config))
        except BaseException:
            self.close()
            raise

    def _seed_standby(self) -> None:
        """Snapshot-copy the registry into an empty standby root.

        Workers write *deltas* for tenants provisioned before this
        router existed, and a delta cannot seed a tenant — without a
        base the standby would reject every pre-existing tenant's writes
        forever.  Runs before any worker spawns, so the copy is a
        consistent cold snapshot the first shipped deltas chain off.
        """
        standby_root = Path(self.follower.registry.root)
        if standby_root.exists() and any(standby_root.iterdir()):
            return                        # non-empty: the operator seeded it
        if not self.registry_root.is_dir():
            return                        # nothing to seed from yet
        shutil.copytree(self.registry_root, standby_root, dirs_exist_ok=True)

    # ------------------------------------------------------------------
    # Link management
    # ------------------------------------------------------------------
    def _connect(self, index: int, config: WorkerConfig) -> _WorkerLink:
        handle = self._launcher(config)
        link = _WorkerLink(index, handle)
        write_frame(handle.writer, hello_frame(config=config.to_dict()))
        frame = read_frame(handle.reader)
        if frame is None:
            raise WorkerDied(f"worker {index} closed its link before the "
                             "handshake")
        hello = check_hello(frame[0], who=f"worker {index}")
        if hello.get("worker") != index:
            raise ProtocolError(f"worker {index} identified itself as "
                                f"{hello.get('worker')!r}")
        link.pid = hello.get("pid", link.pid)
        link.reader_thread = threading.Thread(
            target=self._read_loop, args=(link,),
            name=f"cluster-router-reader-{index}", daemon=True)
        link.reader_thread.start()
        return link

    def _read_loop(self, link: _WorkerLink) -> None:
        while True:
            try:
                frame = read_frame(link.handle.reader)
            except (ProtocolError, OSError, ValueError) as error:
                self._mark_dead(link, f"worker {link.index} desynchronised: "
                                      f"{error}")
                return
            if frame is None:
                self._mark_dead(link, f"worker {link.index} closed its link "
                                      "(process died or shut down)")
                return
            header, blobs = frame
            kind = header.get("type")
            if kind == "response":
                with link.pending_lock:
                    entry = link.pending.pop(header.get("id"), None)
                if entry is None:
                    continue              # late response after a timeout
                if header.get("ok"):
                    entry.result = header.get("result")
                else:
                    error = header.get("error") or {}
                    entry.error = _REMOTE_KINDS.get(
                        error.get("kind"), ClusterError)(
                            f"worker {link.index}: {error.get('message')}")
                entry.event.set()
            elif kind == "replicate":
                self._apply_replicate(link, header, blobs)
            # Unknown unsolicited frame types are skipped: forward
            # compatibility for workers that ship more than we read.

    def _mark_dead(self, link: _WorkerLink, message: str) -> None:
        link.dead = True
        link.fail_pending(WorkerDied(message))

    def _apply_replicate(self, link: _WorkerLink, header: dict,
                         blobs: list) -> None:
        if self.follower is None:
            return                        # replication not configured here
        try:
            write = ShippedWrite.from_frame(header, blobs)
            self.follower.apply(write)
        except ReplicationError as error:
            self.last_replication_error = str(error)
            self._replication_rejected.inc()
            return
        self._replication_applied.labels(source=write.source).inc()
        self._replication_lag_gauge.set(self.follower.last_lag_seconds)

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _link_for(self, tenant_id: str) -> _WorkerLink:
        return self._links[shard_index(tenant_id, self.num_workers)]

    def _send(self, link: _WorkerLink, op: str, payload: dict,
              trace: dict | None = None) -> _Pending:
        if self._closed:
            raise ClusterError("router is closed")
        if link.dead:
            raise WorkerDied(f"worker {link.index} is dead")
        entry = _Pending()
        with link.write_lock:
            request_id = link.take_id()
            with link.pending_lock:
                link.pending[request_id] = entry
            header = {"type": "request", "id": request_id, "op": op, **payload}
            if trace is not None:
                header["trace"] = trace
            try:
                write_frame(link.handle.writer, header)
            except (OSError, ValueError) as error:
                with link.pending_lock:
                    link.pending.pop(request_id, None)
                self._mark_dead(link, f"worker {link.index} pipe broke: {error}")
                raise WorkerDied(f"worker {link.index} pipe broke: "
                                 f"{error}") from error
        return entry

    def _wait(self, link: _WorkerLink, entry: _Pending, op: str,
              timeout: float | None):
        if not entry.event.wait(self.timeout if timeout is None else timeout):
            with link.pending_lock:   # drop it so a late response is ignored
                for request_id, pending in list(link.pending.items()):
                    if pending is entry:
                        link.pending.pop(request_id)
            self._count(op, link, "timeout")
            raise WorkerTimeout(f"worker {link.index} gave no {op!r} response "
                                f"within {self.timeout if timeout is None else timeout}s")
        if entry.error is not None:
            self._count(op, link,
                        "dead" if isinstance(entry.error, WorkerDied) else "error")
            raise entry.error
        self._count(op, link, "ok")
        return entry.result

    def _count(self, op: str, link: _WorkerLink, outcome: str) -> None:
        self._requests_total.labels(op=op, worker=str(link.index),
                                    outcome=outcome).inc()

    def _request(self, link: _WorkerLink, op: str, payload: dict,
                 timeout: float | None = None):
        started = time.perf_counter()
        with maybe_span(self.tracer, f"cluster.{op}",
                        worker=link.index) as span:
            trace = self.tracer.inject(span) if span is not None else None
            entry = self._send(link, op, payload, trace=trace)
            try:
                return self._wait(link, entry, op, timeout)
            finally:
                self._request_seconds.labels(op=op).observe(
                    time.perf_counter() - started)

    def _fan_out(self, op: str, payload_for: Callable[[_WorkerLink], dict],
                 timeout: float | None = None) -> list:
        """Send one request to every live worker, then wait for all."""
        with maybe_span(self.tracer, f"cluster.{op}",
                        fan_out=len(self._links)) as span:
            trace = self.tracer.inject(span) if span is not None else None
            sent: list[tuple[_WorkerLink, _Pending]] = []
            for link in self._links:
                sent.append((link, self._send(link, op, payload_for(link),
                                              trace=trace)))
            return [self._wait(link, entry, op, timeout)
                    for link, entry in sent]

    def _fan_out_tolerant(self, op: str, timeout: float | None = None
                          ) -> tuple[dict[int, object], set[int]]:
        """Best-effort fan-out for observability reads.

        Unlike :meth:`_fan_out`, a dead, broken, or silent worker does
        not abort the collection — monitoring must keep answering
        *because* part of the cluster is failing.  Returns the results
        of the workers that answered plus the set that did not.
        """
        results: dict[int, object] = {}
        failed: set[int] = set()
        sent: list[tuple[_WorkerLink, _Pending]] = []
        for link in self._links:
            if link.dead:
                failed.add(link.index)
                continue
            try:
                sent.append((link, self._send(link, op, {})))
            except ClusterError:
                failed.add(link.index)
        for link, entry in sent:
            try:
                results[link.index] = self._wait(link, entry, op, timeout)
            except ClusterError:
                failed.add(link.index)
        return results, failed

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def observe(self, tenant_id: str, record: SignalRecord) -> GeofenceDecision:
        """One observation: a batch of one."""
        return self.observe_many([(tenant_id, record)])[0]

    def observe_many(self, items: Iterable[tuple[str, SignalRecord]]
                     ) -> list[GeofenceDecision]:
        """Batched dispatch: split by worker, all workers in flight at
        once, answers reassembled in input order.  One
        ``repro_router_request_seconds{op="observe_many"}`` sample per
        call, from the first send to the last answer."""
        items = list(items)
        by_worker: dict[int, list[int]] = {}
        for position, (tenant_id, _) in enumerate(items):
            by_worker.setdefault(shard_index(tenant_id, self.num_workers),
                                 []).append(position)
        with maybe_span(self.tracer, "cluster.observe_many",
                        items=len(items), workers=len(by_worker)) as span:
            trace = self.tracer.inject(span) if span is not None else None
            started = time.perf_counter()
            sent: list[tuple[_WorkerLink, _Pending, list[int]]] = []
            for index, positions in by_worker.items():
                link = self._links[index]
                payload = {"items": [[items[p][0], encode_record(items[p][1])]
                                     for p in positions]}
                sent.append((link, self._send(link, "observe_many", payload,
                                              trace=trace),
                             positions))
            decisions: list[GeofenceDecision | None] = [None] * len(items)
            try:
                for link, entry, positions in sent:
                    batch = self._wait(link, entry, "observe_many", None)
                    for position, data in zip(positions, batch):
                        decisions[position] = decode_decision(data)
            finally:
                self._request_seconds.labels(op="observe_many").observe(
                    time.perf_counter() - started)
            return decisions

    # ------------------------------------------------------------------
    # Tenant lifecycle / maintenance
    # ------------------------------------------------------------------
    def provision(self, tenant_id: str, records: Sequence[SignalRecord],
                  metadata: dict | None = None, spec=None,
                  timeout: float | None = None) -> dict:
        """Provision on the owning worker; returns ``{tenant, model}``.

        (The fitted model object lives in the worker process — callers
        that need it load it from the registry.)  Training can far
        exceed the serving timeout, so this defaults to 10x it.
        """
        payload = {"tenant": tenant_id,
                   "records": [encode_record(r) for r in records],
                   "metadata": metadata,
                   "spec": spec.to_dict() if spec is not None else None}
        return self._request(self._link_for(tenant_id), "provision", payload,
                             timeout=10 * self.timeout if timeout is None
                             else timeout)

    def maintain(self) -> int:
        """One maintenance pump on every worker; total decisions drained."""
        return sum(self._fan_out("maintain", lambda link: {}))

    def flush(self, tenant_id: str | None = None) -> int:
        """Write back dirty tenants; returns tenants written.

        When replication is on, the standby has been offered every
        flushed write by the time this returns (workers ship before
        responding; the reader applies in order).
        """
        if tenant_id is not None:
            return int(self._request(self._link_for(tenant_id), "flush",
                                     {"tenant": tenant_id}))
        return sum(self._fan_out("flush", lambda link: {}))

    def ping(self) -> list[dict]:
        return self._fan_out("ping", lambda link: {})

    def worker_stats(self) -> list[dict]:
        """Per-worker ``{worker, pid, requests, busy_seconds, runtime}``."""
        return self._fan_out("stats", lambda link: {})

    def stats(self) -> dict:
        """Live cluster aggregate, mid-run and dead-worker tolerant.

        Sums each responding worker's request counts, busy seconds,
        residency, pending decisions and fleet telemetry totals into
        one view — the numbers :attr:`final_worker_stats` only yields
        at shutdown, available while the cluster serves.
        """
        results, failed = self._fan_out_tolerant("stats")
        totals = TenantStats()
        requests, busy = 0, 0.0
        resident, pending = 0, 0
        workers: list[dict] = []
        for index in sorted(results):
            stat = results[index]
            workers.append(stat)
            requests += stat["requests"]
            busy += stat["busy_seconds"]
            runtime = stat["runtime"]
            resident += runtime["resident"]
            pending += runtime["pending_decisions"]
            totals.merge(TenantStats(**runtime["totals"]))
        return {"live_workers": self.live_workers,
                "unresponsive": sorted(failed),
                "requests": requests, "busy_seconds": busy,
                "resident": resident, "pending_decisions": pending,
                "totals": totals.as_dict(), "workers": workers}

    # ------------------------------------------------------------------
    # Replication / failover
    # ------------------------------------------------------------------
    def replication_lag(self) -> float:
        """Commit-to-apply lag (seconds) of the newest standby write.

        0.0 when replication is off or nothing has shipped yet; also the
        ``replication_lag`` health probe's input.
        """
        return 0.0 if self.follower is None else self.follower.lag_seconds()

    def replication_stats(self) -> dict | None:
        if self.follower is None:
            return None
        stats = self.follower.stats()
        stats["last_error"] = self.last_replication_error
        return stats

    def promote(self):
        """Promote the standby (flush + compact); returns the report.

        The inverse of a failover runbook step: callers normally flush
        (or lose only unflushed in-memory state), stop this router, then
        serve from the promoted registry.  Promoting while workers still
        stream writes is safe for the promoted copy (it is a snapshot of
        applied commits) but later shipped deltas may no longer chain.
        """
        if self.follower is None:
            raise ClusterError("router has no standby to promote "
                               "(constructed without standby=...)")
        return self.follower.promote()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Cluster-wide observability snapshot.

        Fans ``obs_snapshot`` to every live worker, folds the answers
        into the router-local families (see
        :func:`~repro.obs.cluster.cluster_families`), grades cluster
        health (worker probe worst-of + liveness + replication lag),
        and stitches router→worker slow-trace trees.  Shape matches a
        runtime snapshot (``families`` / ``health`` / ``traces``) plus
        the per-worker ``workers`` liveness list.
        """
        if self.follower is not None:
            self._replication_lag_gauge.set(self.follower.lag_seconds())
        if self._observability:
            snapshots, failed = self._fan_out_tolerant("obs_snapshot")
        else:
            snapshots, failed = {}, set()
        worker_up = {link.index: not link.dead and link.index not in failed
                     for link in self._links}
        # Health first: the rollup mirrors into this registry's gauges,
        # which the snapshot below must already see.
        health = self.cluster_health.check(
            worker_up,
            worker_probes={index: (snap or {}).get("health")
                           for index, snap in snapshots.items()},
            replication_lag=self.replication_lag())
        families = cluster_families(
            self.metrics_registry.snapshot(),
            {index: snap["families"] for index, snap in snapshots.items()
             if snap})
        traces = stitch_traces(
            self.tracer.snapshot() if self.tracer is not None else None,
            {index: snap.get("traces") for index, snap in snapshots.items()
             if snap})
        return {"families": families,
                "health": {name: result.as_dict()
                           for name, result in health.items()},
                "traces": traces,
                "workers": [{"index": link.index, "pid": link.pid,
                             "dead": link.dead} for link in self._links]}

    def health_report(self) -> dict:
        """Graded cluster health: folded probes + per-worker detail.

        The :meth:`~repro.obs.cluster.ClusterHealthMonitor.report` form
        (``status`` / ``probes`` / ``workers``) the CLI renders for
        ``repro cluster --health``; cheaper than :meth:`metrics` when
        only grades are wanted.
        """
        if self._observability:
            snapshots, failed = self._fan_out_tolerant("health")
        else:
            snapshots, failed = {}, set()
        worker_up = {link.index: not link.dead and link.index not in failed
                     for link in self._links}
        return self.cluster_health.report(
            worker_up, worker_probes=snapshots,
            replication_lag=self.replication_lag())

    def export_prometheus(self) -> str:
        return render_prometheus(self.metrics())

    @property
    def live_workers(self) -> int:
        return sum(not link.dead for link in self._links)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Graceful shutdown: each worker flushes, reports, and exits."""
        if self._closed:
            return
        self._closed = True
        for link in self._links:
            if link.dead:
                continue
            try:
                entry = _Pending()
                with link.write_lock:
                    request_id = link.take_id()
                    with link.pending_lock:
                        link.pending[request_id] = entry
                    write_frame(link.handle.writer,
                                {"type": "request", "id": request_id,
                                 "op": "shutdown"})
                if entry.event.wait(self.timeout) and entry.error is None:
                    self.final_worker_stats[link.index] = entry.result
            except (OSError, ValueError):
                pass                      # already gone; reap below
        for link in self._links:
            link.handle.close()
            if link.reader_thread is not None:
                link.reader_thread.join(timeout=10.0)

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
