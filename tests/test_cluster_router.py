"""Router + in-process workers: routing, bit-identity, failure modes."""

import shutil
import socket
import threading
from types import SimpleNamespace

import pytest

from conftest import synthetic_records
from repro.core import GEM, GEMConfig
from repro.embedding.bisage import BiSAGEConfig
from repro.pipeline import ComponentSpec, PipelineSpec
from repro.serve import CheckpointError, ServingRuntime, shard_index
from repro.serve.cluster import (Router, WorkerDied, WorkerTimeout,
                                 spawn_local_worker)
from repro.serve.cluster.protocol import (ProtocolError, hello_frame, read_frame,
                                          write_frame)
from repro.serve.cluster.worker import LocalWorkerHandle

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))
TENANTS = [f"tenant-{i}" for i in range(5)]


def make_gem() -> GEM:
    return GEM(FAST_CONFIG)


def fast_spec() -> PipelineSpec:
    return PipelineSpec(model=ComponentSpec("gem", FAST_CONFIG.to_dict()))


def tenant_records(tenant: int, n: int = 25):
    return synthetic_records(n, num_macs=10, seed=tenant, center=2.0 + tenant)


def interleaved_stream(n: int = 40):
    mixed = synthetic_records(n, num_macs=10, seed=321)
    return [(TENANTS[i % len(TENANTS)], record) for i, record in enumerate(mixed)]


@pytest.fixture(scope="module")
def seed_registry(tmp_path_factory):
    """Five provisioned tenants, built once and copied per test."""
    root = tmp_path_factory.mktemp("cluster-seed") / "registry"
    with ServingRuntime(root, model_factory=make_gem) as runtime:
        for index, tenant in enumerate(TENANTS):
            runtime.provision(tenant, tenant_records(index))
    return root


def fresh_copy(seed_registry, tmp_path, name: str):
    target = tmp_path / name
    shutil.copytree(seed_registry, target)
    return target


def local_router(root, **kwargs) -> Router:
    kwargs.setdefault("launcher", spawn_local_worker)
    kwargs.setdefault("num_workers", 3)
    return Router(root, **kwargs)


class TestClusterServing:
    def test_decisions_bit_identical_to_serial(self, seed_registry, tmp_path):
        # The headline contract: hash-partitioned multi-worker serving
        # produces exactly the serial runtime's decisions.
        stream = interleaved_stream()
        with ServingRuntime(fresh_copy(seed_registry, tmp_path, "serial")) as runtime:
            expected = [runtime.observe(t, r) for t, r in stream]
        with local_router(fresh_copy(seed_registry, tmp_path, "cluster")) as router:
            got = [router.observe(t, r) for t, r in stream]
        assert got == expected        # frozen dataclass: exact, not approx

    def test_observe_many_matches_per_item_observe(self, seed_registry,
                                                   tmp_path):
        stream = interleaved_stream()
        with local_router(fresh_copy(seed_registry, tmp_path, "a")) as router:
            expected = [router.observe(t, r) for t, r in stream]
        with local_router(fresh_copy(seed_registry, tmp_path, "b")) as router:
            got = router.observe_many(stream)
        assert got == expected

    def test_provision_score_flush_roundtrip(self, tmp_path):
        with local_router(tmp_path / "registry", num_workers=2) as router:
            result = router.provision("tenant-0", tenant_records(0),
                                      metadata={"site": "lab"},
                                      spec=fast_spec())
            assert result == {"tenant": "tenant-0", "model": "GEM"}
            record = tenant_records(0)[0]
            decision = router.observe("tenant-0", record)
            assert decision.inside in (True, False)
            assert isinstance(decision.score, float)
            assert router.flush() >= 0
            assert router.maintain() >= 0

    def test_ping_and_worker_stats_cover_every_worker(self, seed_registry,
                                                      tmp_path):
        with local_router(fresh_copy(seed_registry, tmp_path, "c")) as router:
            pings = router.ping()
            assert [p["worker"] for p in pings] == [0, 1, 2]
            router.observe_many(interleaved_stream(10))
            stats = router.worker_stats()
            assert [s["worker"] for s in stats] == [0, 1, 2]
            assert sum(s["requests"] for s in stats) >= 3
            assert all("runtime" in s for s in stats)

    def test_close_collects_final_worker_stats(self, seed_registry, tmp_path):
        router = local_router(fresh_copy(seed_registry, tmp_path, "d"))
        router.observe_many(interleaved_stream(10))
        router.close()
        assert all(stats is not None for stats in router.final_worker_stats)
        assert all(stats["requests"] >= 1 for stats in router.final_worker_stats)

    def test_bad_worker_count_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="num_workers"):
            Router(tmp_path / "registry", num_workers=0)


class TestRemoteErrors:
    def test_unknown_tenant_raises_checkpoint_error(self, seed_registry,
                                                    tmp_path):
        record = tenant_records(0)[0]
        with local_router(fresh_copy(seed_registry, tmp_path, "e")) as router:
            with pytest.raises(CheckpointError, match="no checkpoint"):
                router.observe("never-provisioned", record)
            # The link survives a remote error: same worker still serves.
            assert router.observe(TENANTS[0], record) is not None
            assert router.live_workers == 3

    def test_invalid_tenant_id_raises_value_error(self, seed_registry,
                                                  tmp_path):
        with local_router(fresh_copy(seed_registry, tmp_path, "f")) as router:
            with pytest.raises(ValueError, match="invalid tenant id"):
                router.observe("BAD TENANT!!", tenant_records(0)[0])

    def test_mac_ending_in_nul_is_a_per_request_error(self, seed_registry,
                                                      tmp_path):
        """The worker's codec refuses the record; the request fails, the
        link and the tenant keep serving."""
        # A client-side SignalRecord cannot hold such a MAC, so send the
        # wire form of one directly.
        bad = SimpleNamespace(readings={"mac-0\0": -50.0}, timestamp=0.0,
                              position=None)
        good = tenant_records(0)[0]
        with local_router(fresh_copy(seed_registry, tmp_path, "n")) as router:
            with pytest.raises(ValueError, match="NUL"):
                router.observe(TENANTS[0], bad)
            with pytest.raises(ValueError, match="NUL"):
                router.observe_many([(TENANTS[0], good), (TENANTS[0], bad)])
            assert router.observe(TENANTS[0], good) is not None
            assert router.flush() >= 1
            assert router.live_workers == 3


def _stub_launcher(serve):
    """A launcher whose fake worker runs ``serve(reader, writer, config)``."""
    def launch(config):
        router_sock, peer_sock = socket.socketpair()
        reader = peer_sock.makefile("rb")
        writer = peer_sock.makefile("wb")

        def _run():
            try:
                serve(reader, writer, config)
            except (OSError, ValueError):
                pass
            finally:
                for stream in (reader, writer):
                    try:
                        stream.close()
                    except OSError:
                        pass
                peer_sock.close()

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        return LocalWorkerHandle(reader=router_sock.makefile("rb"),
                                 writer=router_sock.makefile("wb"),
                                 thread=thread, sockets=(router_sock,))
    return launch


def _handshake(reader, writer, config):
    read_frame(reader)
    write_frame(writer, hello_frame(worker=config.index, pid=None))


class TestPartition:
    def test_partition_is_stable_and_total(self):
        for tenant in TENANTS:
            index = shard_index(tenant, 4)
            assert 0 <= index < 4
            assert shard_index(tenant, 4) == index  # no per-process salt


class TestFailureModes:
    def test_silent_worker_times_out_but_link_survives(self, tmp_path):
        def silent(reader, writer, config):
            _handshake(reader, writer, config)
            while read_frame(reader) is not None:
                pass                     # swallow requests, never answer

        router = Router(tmp_path / "registry", num_workers=1, timeout=0.2,
                        launcher=_stub_launcher(silent))
        try:
            with pytest.raises(WorkerTimeout, match="no 'ping' response"):
                router.ping()
            assert router.live_workers == 1      # timed out, not dead
            families = router.metrics()["families"]
            series = families["repro_router_requests_total"]["series"]
            assert any(s["labels"].get("outcome") == "timeout" for s in series)
        finally:
            router.close()

    def test_dying_worker_fails_pending_with_worker_died(self, tmp_path):
        def dies_after_first_request(reader, writer, config):
            _handshake(reader, writer, config)
            read_frame(reader)           # take one request, then vanish

        router = Router(tmp_path / "registry", num_workers=1, timeout=5.0,
                        launcher=_stub_launcher(dies_after_first_request))
        try:
            with pytest.raises(WorkerDied):
                router.ping()
            assert router.live_workers == 0
            # Subsequent requests fail fast instead of hanging.
            with pytest.raises(WorkerDied):
                router.ping()
        finally:
            router.close()

    def test_misrouted_tenant_rejected_by_worker(self, seed_registry, tmp_path):
        # Speak to a real worker directly, claiming a partition that does
        # not own the tenant: the worker must refuse, not serve quietly.
        from repro.serve.cluster import WorkerConfig
        from repro.serve.cluster.protocol import encode_record

        tenant = TENANTS[0]
        wrong = (shard_index(tenant, 4) + 1) % 4
        handle = spawn_local_worker(None)
        try:
            config = WorkerConfig(registry=str(seed_registry), index=wrong,
                                  num_workers=4)
            write_frame(handle.writer, hello_frame(config=config.to_dict()))
            read_frame(handle.reader)    # worker hello
            write_frame(handle.writer,
                        {"type": "request", "id": 1, "op": "observe_many",
                         "items": [[tenant,
                                    encode_record(tenant_records(0)[0])]]})
            header, _ = read_frame(handle.reader)
            assert header["ok"] is False
            assert header["error"]["kind"] == "ValueError"
            assert "misrouted" in header["error"]["message"]
        finally:
            handle.close()

    def test_single_record_observe_op_is_refused_per_request(
            self, seed_registry, tmp_path):
        """Protocol 3 has no ``observe`` op: a raw one fails as one
        request, and the link keeps serving."""
        from repro.serve.cluster import WorkerConfig
        from repro.serve.cluster.protocol import decode_decision, encode_record

        tenant = TENANTS[0]
        record = encode_record(tenant_records(0)[0])
        handle = spawn_local_worker(None)
        try:
            config = WorkerConfig(registry=str(seed_registry),
                                  index=shard_index(tenant, 1), num_workers=1)
            write_frame(handle.writer, hello_frame(config=config.to_dict()))
            read_frame(handle.reader)    # worker hello
            write_frame(handle.writer,
                        {"type": "request", "id": 1, "op": "observe",
                         "tenant": tenant, "record": record})
            header, _ = read_frame(handle.reader)
            assert (header["id"], header["ok"]) == (1, False)
            assert header["error"]["kind"] == "ValueError"
            assert "unknown cluster op 'observe'" in header["error"]["message"]
            write_frame(handle.writer,
                        {"type": "request", "id": 2, "op": "observe_many",
                         "items": [[tenant, record]]})
            header, _ = read_frame(handle.reader)
            assert (header["id"], header["ok"]) == (2, True)
            assert decode_decision(header["result"][0]).inside in (True, False)
        finally:
            handle.close()

    def test_version_2_hello_is_refused(self, seed_registry):
        """A protocol-2 router (which still sends ``observe``) is turned
        away at the handshake, before any request."""
        from repro.serve.cluster import WorkerConfig

        config = WorkerConfig(registry=str(seed_registry), index=0,
                              num_workers=1)
        handle = spawn_local_worker(None)
        try:
            hello = hello_frame(config=config.to_dict())
            hello["version"] = 2
            write_frame(handle.writer, hello)
            assert read_frame(handle.reader) is None   # closed, no hello back
        finally:
            handle.close()

    def test_version_3_hello_is_refused_by_the_worker(self, seed_registry):
        """A protocol-3 router (which still sends ``score``) is turned away
        at the handshake, before any request."""
        from repro.serve.cluster import WorkerConfig

        config = WorkerConfig(registry=str(seed_registry), index=0,
                              num_workers=1)
        handle = spawn_local_worker(None)
        try:
            hello = hello_frame(config=config.to_dict())
            hello["version"] = 3
            write_frame(handle.writer, hello)
            assert read_frame(handle.reader) is None   # closed, no hello back
        finally:
            handle.close()

    def test_version_3_worker_is_refused_by_the_router(self, tmp_path):
        def protocol_3_worker(reader, writer, config):
            read_frame(reader)
            hello = hello_frame(worker=config.index, pid=None)
            hello["version"] = 3
            write_frame(writer, hello)

        with pytest.raises(ProtocolError, match="version 3"):
            Router(tmp_path / "registry", num_workers=1,
                   launcher=_stub_launcher(protocol_3_worker))


class TestObservabilityAndReplication:
    def test_metrics_families_and_health_probe(self, seed_registry, tmp_path):
        with local_router(fresh_copy(seed_registry, tmp_path, "g")) as router:
            router.observe_many(interleaved_stream(10))
            snapshot = router.metrics()
            assert "repro_router_requests_total" in snapshot["families"]
            assert "repro_router_request_seconds" in snapshot["families"]
            assert "repro_replication_lag" in snapshot["families"]
            assert snapshot["health"]["replication_lag"]["status"] == "ok"
            assert [w["dead"] for w in snapshot["workers"]] == [False] * 3
            text = router.export_prometheus()
            assert "repro_router_requests_total" in text
            assert "repro_replication_lag" in text

    def test_observe_many_books_one_latency_sample_per_call(
            self, seed_registry, tmp_path):
        with local_router(fresh_copy(seed_registry, tmp_path, "l")) as router:
            for _ in range(3):
                router.observe_many(interleaved_stream(10))
            router.observe(*interleaved_stream(1)[0])   # a batch of one
            family = router.metrics_registry.histogram(
                "repro_router_request_seconds", labels=("op",))
            counts = {labels["op"]: child.count
                      for labels, child in family.series()}
        assert counts == {"observe_many": 4}

    def test_replicated_cluster_fails_over_to_identical_standby(
            self, seed_registry, tmp_path):
        # End-to-end warm failover: serve, flush, promote, then compare
        # the promoted standby's decisions against the primary's.
        stream = interleaved_stream(20)
        primary = fresh_copy(seed_registry, tmp_path, "primary")
        standby = tmp_path / "standby"
        with local_router(primary, num_workers=2, standby=standby) as router:
            router.observe_many(stream)
            flushed = router.flush()
            assert flushed == len(TENANTS)
            stats = router.replication_stats()
            assert stats["applied"] >= flushed and stats["rejected"] == 0
            assert stats["last_error"] is None
            assert router.replication_lag() >= 0
            report = router.promote()
            assert report.tenants == len(TENANTS)
            assert report.seconds > 0
        probe = interleaved_stream(15)
        with ServingRuntime(primary) as runtime:
            expected = [runtime.observe(t, r) for t, r in probe]
        with ServingRuntime(standby) as runtime:
            got = [runtime.observe(t, r) for t, r in probe]
        assert got == expected

    def test_promote_without_standby_is_an_error(self, seed_registry,
                                                 tmp_path):
        from repro.serve.cluster import ClusterError
        with local_router(fresh_copy(seed_registry, tmp_path, "h")) as router:
            with pytest.raises(ClusterError, match="no standby"):
                router.promote()
