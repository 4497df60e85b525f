"""Real subprocess workers: the deployment shape, end to end.

One test drives the whole lifecycle over actual child processes and
stdio pipes (spawn, handshake, serve, replicate, shut down) — kept to a
single function so the interpreter start-up cost is paid once.
"""

import os

from conftest import synthetic_records
from repro.core import GEM, GEMConfig
from repro.embedding.bisage import BiSAGEConfig
from repro.serve import ServingRuntime
from repro.serve.cluster import Router

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))

# These hash to workers 0 and 1 of a 2-worker cluster (CRC-32
# shard_index), so both children really serve.
TENANTS = ["smoke-a", "smoke-d"]


def test_subprocess_cluster_serves_replicates_and_shuts_down(tmp_path):
    root = tmp_path / "registry"
    with ServingRuntime(root, model_factory=lambda: GEM(FAST_CONFIG)) as runtime:
        for index, tenant in enumerate(TENANTS):
            runtime.provision(tenant, synthetic_records(
                25, num_macs=10, seed=index, center=2.0 + index))

    stream = [(TENANTS[i % 2], record) for i, record in
              enumerate(synthetic_records(12, num_macs=10, seed=99))]
    standby = tmp_path / "standby"
    router = Router(root, num_workers=2, standby=standby, timeout=60.0)
    try:
        pings = router.ping()
        pids = [p["pid"] for p in pings]
        assert len(set(pids)) == 2              # two real children...
        assert os.getpid() not in pids          # ...and neither is us

        decisions = router.observe_many(stream)
        assert len(decisions) == len(stream)
        flushed = router.flush()
        assert flushed == len(TENANTS)

        # Replication rode the same pipes: by the time flush() answered,
        # the standby had been offered every flushed write.
        stats = router.replication_stats()
        assert stats["applied"] >= flushed
        assert stats["rejected"] == 0

        worker_stats = router.worker_stats()
        assert [s["worker"] for s in worker_stats] == [0, 1]
        assert all(s["requests"] >= 2 for s in worker_stats)
        assert all(s["shipped"] >= 1 for s in worker_stats)
    finally:
        router.close()

    # Graceful shutdown collected each child's final accounting.
    assert all(stats is not None for stats in router.final_worker_stats)
    assert router.live_workers == 0
