"""Cluster worker: one :class:`ServingRuntime` behind a protocol link.

A worker owns one registry partition — the disjoint slice of tenants the
router hashes to it with the CRC-32 :func:`shard_index` defined here —
and serves requests serially off its link.  Serial dispatch is
what makes cluster decisions bit-identical to the single-process
runtime: within a worker there is no interleaving to order, and across
workers tenants are disjoint, so the only coordination a request needs
is the router's routing function.

The same :class:`ClusterWorker` runs two ways:

* as a child process (``python -m repro.serve.cluster.worker``) over its
  stdio pipes — the deployment shape, launched by
  :class:`~repro.serve.cluster.router.Router`'s default launcher;
* in-process over a socketpair (:func:`spawn_local_worker`) — the test
  and coverage shape, byte-identical protocol, no fork.

Configuration travels in the router's hello frame, so both shapes share
one code path from the first byte.  When the config enables
replication, a :class:`~repro.serve.cluster.replicate.DeltaShipper`
subscribes to the worker's registry and every committed checkpoint write
is flushed to the link as a ``replicate`` frame *before* the response to
the request that caused it — when the router has read a response, the
standby has already been offered every write that response implies.
"""

from __future__ import annotations

import gc
import os
import socket
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field

from repro.serve.cluster.protocol import (
    ProtocolError,
    check_hello,
    decode_record,
    encode_decision,
    hello_frame,
    read_frame,
    write_frame,
)
from repro.obs.tracing import maybe_span
from repro.serve.cluster.replicate import DeltaShipper
from repro.serve.policy import MaintenancePolicy
from repro.serve.runtime import ServingRuntime

__all__ = ["ClusterWorker", "LocalWorkerHandle", "WorkerConfig", "main",
           "shard_index", "spawn_local_worker"]


def shard_index(tenant_id: str, num_workers: int) -> int:
    """Stable tenant → worker partition (CRC-32 of the id).

    Python's own ``hash()`` is salted per process; CRC-32 keeps the
    partition identical across runs, processes and machines, so a
    tenant's checkpoint is always served by the same worker of any
    equally-sized cluster.
    """
    return zlib.crc32(tenant_id.encode("utf-8")) % num_workers


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to build its runtime, JSON-safe.

    ``index`` / ``num_workers`` define the partition this worker owns:
    it serves exactly the tenants with ``shard_index(t, num_workers) ==
    index`` and rejects the rest (a misroute is a router bug, not a
    quiet data race).
    """

    registry: str
    index: int
    num_workers: int
    capacity: int = 8
    incremental: bool = True
    replicate: bool = False
    policy: dict | None = None    # MaintenancePolicy.to_dict() form
    quarantine_size: int = 0      # per-tenant quarantine capacity (0 = off)
    observability: bool = True    # per-worker registry/tracer/probes

    def to_dict(self) -> dict:
        return {"registry": self.registry, "index": self.index,
                "num_workers": self.num_workers, "capacity": self.capacity,
                "incremental": self.incremental, "replicate": self.replicate,
                "policy": self.policy,
                "quarantine_size": self.quarantine_size,
                "observability": self.observability}

    @classmethod
    def from_dict(cls, data: dict) -> "WorkerConfig":
        try:
            return cls(registry=str(data["registry"]), index=int(data["index"]),
                       num_workers=int(data["num_workers"]),
                       capacity=int(data.get("capacity", 8)),
                       incremental=bool(data.get("incremental", True)),
                       replicate=bool(data.get("replicate", False)),
                       policy=data.get("policy"),
                       quarantine_size=int(data.get("quarantine_size", 0)),
                       observability=bool(data.get("observability", True)))
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"bad worker config: {error}") from error


class ClusterWorker:
    """Serves protocol requests over a (reader, writer) stream pair.

    :meth:`run` performs the handshake (the router's hello carries the
    :class:`WorkerConfig`), builds the runtime, then loops: read one
    request, execute it against the runtime, flush any replication
    frames the request committed, answer.  EOF from the router — or a
    ``shutdown`` request — flushes every dirty tenant and exits, so
    killing a router never strands unwritten state in its workers.
    """

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.runtime: ServingRuntime | None = None
        self.config: WorkerConfig | None = None
        self.shipper: DeltaShipper | None = None
        self.requests_served = 0
        self.busy_seconds = 0.0       # process_time inside request handling

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve until EOF or shutdown; returns requests served."""
        frame = read_frame(self.reader)
        if frame is None:
            return 0                  # router connected and left: clean no-op
        header, _ = frame
        check_hello(header, who="router")
        self.config = config = WorkerConfig.from_dict(header.get("config", {}))
        policy = MaintenancePolicy.from_dict(config.policy) \
            if config.policy else None
        # Maintenance runs only on the router's `maintain` requests, so
        # it interleaves with requests as in a serial runtime.
        self.runtime = ServingRuntime(
            config.registry, capacity=config.capacity,
            incremental=config.incremental,
            policy=policy,
            observability=config.observability,
            quarantine_size=config.quarantine_size)
        if config.replicate:
            self.shipper = DeltaShipper(source=f"worker-{config.index}")
            self.shipper.attach(self.runtime.registry)
        write_frame(self.writer, hello_frame(worker=config.index,
                                             pid=os.getpid()))
        try:
            while True:
                frame = read_frame(self.reader)
                if frame is None:
                    break
                header, _ = frame
                if header.get("type") != "request":
                    raise ProtocolError(
                        f"worker expected a request frame, got "
                        f"{header.get('type')!r}")
                if not self._serve_one(header):
                    break
        finally:
            self._teardown()
        return self.requests_served

    def _teardown(self) -> None:
        if self.runtime is not None:
            self.runtime.flush()
            try:
                self._ship_pending()
            except (OSError, ValueError):  # router already gone / link closed
                pass
            if self.shipper is not None:
                self.shipper.detach()
            self.runtime.close()
            self.runtime = None

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def _serve_one(self, header: dict) -> bool:
        """Execute one request; returns False when the loop should end."""
        request_id = header.get("id")
        started = time.process_time()
        try:
            # The root span joins the router's trace when the request
            # header carries one; everything the dispatch opens (fleet
            # observe/refresh spans) nests under it, so the router can
            # stitch a cross-process tree from the slow-trace rings.
            with maybe_span(self.runtime.tracer,
                            f"worker.{header.get('op')}",
                            context=header.get("trace"),
                            worker=self.config.index):
                result = self._dispatch(header)
        except Exception as error:  # noqa: BLE001 - mapped, not swallowed
            self.busy_seconds += time.process_time() - started
            self.requests_served += 1
            self._ship_pending()
            write_frame(self.writer, {
                "type": "response", "id": request_id, "ok": False,
                "error": {"kind": type(error).__name__, "message": str(error)}})
            return True
        self.busy_seconds += time.process_time() - started
        self.requests_served += 1
        # Replication frames go out before the response: a router that
        # has read this response has already been offered every write
        # the request committed.
        self._ship_pending()
        write_frame(self.writer, {"type": "response", "id": request_id,
                                  "ok": True, "result": result})
        return header.get("op") != "shutdown"

    def _ship_pending(self) -> None:
        if self.shipper is None:
            return
        for write in self.shipper.drain():
            ship_header, blobs = write.to_frame()
            write_frame(self.writer, ship_header, blobs)

    def _check_owner(self, tenant_id: str) -> str:
        config = self.config
        owner = shard_index(tenant_id, config.num_workers)
        if owner != config.index:
            raise ValueError(
                f"tenant {tenant_id!r} belongs to worker {owner}, not "
                f"{config.index}: the router misrouted this request")
        return tenant_id

    def _dispatch(self, header: dict):
        op = header.get("op")
        runtime = self.runtime
        if op == "observe_many":
            items = [(self._check_owner(str(tenant)), decode_record(record))
                     for tenant, record in header["items"]]
            return [encode_decision(d) for d in runtime.observe_many(items)]
        if op == "provision":
            tenant = self._check_owner(str(header["tenant"]))
            records = [decode_record(r) for r in header["records"]]
            spec = None
            if header.get("spec") is not None:
                from repro.pipeline import PipelineSpec
                spec = PipelineSpec.from_dict(header["spec"])
            model = runtime.provision(tenant, records,
                                      metadata=header.get("metadata"),
                                      spec=spec)
            return {"tenant": tenant, "model": type(model).__name__}
        if op == "maintain":
            return runtime.maintain()
        if op == "flush":
            tenant = header.get("tenant")
            if tenant is not None:
                return runtime.flush(self._check_owner(str(tenant)))
            return runtime.flush()
        if op == "stats":
            return self._stats()
        if op == "obs_snapshot":
            # None (not an error) when this worker runs bare: the router
            # merges whoever answered and reports the rest as obs-less.
            if runtime.metrics_registry is None:
                return None
            return runtime.metrics()
        if op == "health":
            if runtime.health is None:
                return None
            return runtime.health_report()
        if op == "ping":
            return {"worker": self.config.index, "pid": os.getpid()}
        if op == "shutdown":
            # _teardown (in run's finally) flushes; report final numbers.
            runtime.flush()
            self._ship_pending()
            return self._stats()
        raise ValueError(f"unknown cluster op {op!r}")

    def _stats(self) -> dict:
        out = {"worker": self.config.index, "pid": os.getpid(),
               "requests": self.requests_served,
               "busy_seconds": self.busy_seconds,
               "runtime": self.runtime.stats()}
        if self.shipper is not None:
            out["shipped"] = self.shipper.shipped_total
        return out


# ----------------------------------------------------------------------
# In-process launcher (tests, coverage, single-process fallback)
# ----------------------------------------------------------------------
@dataclass
class LocalWorkerHandle:
    """A worker thread over a socketpair, quacking like a subprocess.

    Exposes what the router needs from a worker handle: ``reader`` /
    ``writer`` binary streams, ``close()``, and ``pid`` (None here — no
    process to signal).
    """

    reader: object
    writer: object
    thread: threading.Thread
    sockets: tuple = field(default=())
    pid: int | None = None

    def close(self) -> None:
        # Shut the socket down first: a blocked read holds the buffered
        # stream's lock, and stream.close() needs that same lock — an
        # OS-level shutdown wakes the reader (EOF) so close can proceed.
        for sock in self.sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - peer already gone
                pass
        self.thread.join(timeout=10.0)
        for stream in (self.reader, self.writer):
            try:
                stream.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        for sock in self.sockets:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass


def spawn_local_worker(_config: WorkerConfig) -> LocalWorkerHandle:
    """Launch a :class:`ClusterWorker` thread over a socketpair.

    The config argument is unused (it travels in the router's hello, as
    it does for subprocess workers); the signature matches the router's
    launcher contract.
    """
    router_sock, worker_sock = socket.socketpair()
    worker_reader = worker_sock.makefile("rb")
    worker_writer = worker_sock.makefile("wb")
    worker = ClusterWorker(worker_reader, worker_writer)

    def _run() -> None:
        try:
            worker.run()
        except (ProtocolError, OSError):  # router vanished mid-frame
            pass
        finally:
            for stream in (worker_reader, worker_writer):
                try:
                    stream.close()
                except OSError:  # pragma: no cover
                    pass
            worker_sock.close()

    thread = threading.Thread(target=_run, name="cluster-local-worker",
                              daemon=True)
    thread.start()
    return LocalWorkerHandle(reader=router_sock.makefile("rb"),
                             writer=router_sock.makefile("wb"),
                             thread=thread,
                             sockets=(router_sock,))


# ----------------------------------------------------------------------
# Subprocess entry point
# ----------------------------------------------------------------------
def main() -> int:
    """``python -m repro.serve.cluster.worker``: serve over stdio.

    stdout is the protocol channel, so anything else that prints must
    not reach it: the worker rebinds ``sys.stdout`` to stderr before
    serving (library code that prints diagnostics then lands somewhere
    harmless).
    """
    reader = sys.stdin.buffer
    writer = sys.stdout.buffer
    sys.stdout = sys.stderr
    worker = ClusterWorker(reader, writer)
    # Everything imported so far lives as long as the process.  Moving it
    # to the permanent generation keeps each full collection from
    # rescanning it: about 20 ms per pass on a 2-CPU host, a pause that
    # otherwise lands inside whichever request happens to trigger it.
    gc.freeze()
    try:
        worker.run()
    except (ProtocolError, OSError) as error:
        print(f"cluster worker exiting: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
