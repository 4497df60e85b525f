"""Workload definitions: inputs from the drift simulator, server set-up, load.

Every workload is a closed loop with one ``observe_many`` batch in
flight.  Every batch carries the same number of tenants and records, so
batch latency has one mode.  The amount of work is fixed by ``--seed``
and ``--seconds`` alone (``batches_per_second`` is a constant, not a
measurement), so two runs of one seed do exactly the same work.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Fewer batches would leave under ten samples beyond the reported p90.
MIN_BATCHES = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tenants: int
    batch_tenants: int           # tenants in every batch
    per_tenant: int              # records per tenant in every batch
    batches_per_second: float    # sizes the fixed work from --seconds
    capacity: int                # LRU budget of the serving fleet
    dim: int                     # BiSAGE embedding width
    fit_epochs: int              # BiSAGE training epochs (shortened)
    shock_fraction: float | None = None
    quarantine_size: int = 0
    reservoir_size: int | None = None
    routed: bool = False
    min_auc: float = 0.9
    sessions_per_epoch: int = 4
    session_duration_s: float = 60.0

    @property
    def groups(self) -> int:
        return self.tenants // self.batch_tenants

    @property
    def batch_size(self) -> int:
        return self.batch_tenants * self.per_tenant

    def num_batches(self, seconds: float) -> int:
        wanted = max(MIN_BATCHES, math.ceil(seconds * self.batches_per_second))
        return self.groups * math.ceil(wanted / self.groups)


# Two workloads, each timed over three replays of about 10 s (run.py
# reports medians over them).  They share no mechanism: one churns the
# LRU behind the router, the other keeps every tenant resident and drives
# quarantine recovery.  Between them every layer is measured.
WORKLOADS = {w.name: w for w in (
    # Three times more tenants than the LRU holds, visited in rotating
    # groups through a router with one subprocess worker: every batch
    # loads its tenants and evicts the previous group's dirty ones, and
    # crosses the router codec and the pipe.
    Workload("routed-churn",
             why="3x more tenants than the LRU capacity behind a Router with "
                 "one worker: every batch loads, evicts and crosses the codec",
             tenants=6, batch_tenants=2, per_tenant=4,
             batches_per_second=10.0, capacity=2, dim=8, fit_epochs=1,
             routed=True, min_auc=0.8),
    # 85 % of the ambient APs are replaced at most a third of the way into
    # each tenant's stream (the tenants join it staggered); the
    # consistency gate, refreshes and quarantine recovery fits carry the
    # time, beside the paper-default attach, embed, score and self-update.
    Workload("shock-recovery",
             why="85% ambient-AP replacement mid-stream under auto quarantine "
                 "recovery: consistency gate, refreshes and recovery fits",
             tenants=12, batch_tenants=12, per_tenant=2,
             batches_per_second=10.0, capacity=12, dim=32, fit_epochs=2,
             shock_fraction=0.85, quarantine_size=256, reservoir_size=256,
             min_auc=0.6, sessions_per_epoch=2, session_duration_s=30.0),
)}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """Generated records: training sets, batches and ground truth.

    ``labels[b][i]`` is the simulator's in/out truth for batch ``b``
    item ``i``; ``scored[b][i]`` says whether that item counts towards
    AUC (post-shock epochs only on the shock workload).
    """

    train: dict
    batches: list
    labels: list
    scored: list


def tenant_ids(workload: Workload) -> list[str]:
    return [f"tenant-{i:02d}" for i in range(workload.tenants)]


def make_inputs(workload: Workload, seed: int, num_batches: int) -> Inputs:
    from repro.datasets.users import user_scenario
    from repro.eval.drift import DriftHarness
    from repro.rf.dynamics import (APChurn, ChurnShock, DeviceGainDrift,
                                   DynamicsTimeline, TxPowerDrift, home_ap_ids)

    per_tenant_total = num_batches // workload.groups * workload.per_tenant
    per_epoch = workload.sessions_per_epoch * int(workload.session_duration_s)
    # Without a shock one generated epoch per tenant is replayed in order:
    # scanning costs about a millisecond per record.
    epochs, shock_epoch = 1, None
    if workload.shock_fraction is not None:
        used = math.ceil(per_tenant_total / per_epoch)
        epochs = used + 1
        shock_epoch = max(1, used // 3)
    train, streams = {}, {}
    for index, tenant in enumerate(tenant_ids(workload)):
        # Each tenant keeps its premises, its provisioning walk and its
        # world's drift (which APs the shock replaces) whatever the seed;
        # the seed moves the served walks and the scan noise.  Seeding the
        # training walk moved the self-update count by +-10 %, and seeding
        # the shock moved recovery work and post-shock AUC.
        scenario = user_scenario(3, seed=1000 + index)
        world_seed = seed * 1000 + index
        schedules = []
        if shock_epoch is not None:
            protect = home_ap_ids(scenario)
            schedules = [APChurn(rate=0.0, protect=protect), TxPowerDrift(),
                         DeviceGainDrift(),
                         ChurnShock(epoch=shock_epoch,
                                    fraction=workload.shock_fraction,
                                    protect=protect)]
        timeline = DynamicsTimeline(scenario, schedules, num_epochs=epochs,
                                    seed=1000 + index)
        train[tenant] = DriftHarness(timeline, seed=index,
                                     train_duration_s=90.0).training_records()
        # Odd tenants start outside, so every batch mixes inside sessions
        # (confident inliers, self-updates) with outside ones; in lockstep
        # the batch latency had one mode per session type.
        harness = DriftHarness(timeline, seed=world_seed, train_duration_s=90.0,
                               sessions_per_epoch=workload.sessions_per_epoch,
                               session_duration_s=workload.session_duration_s,
                               start_outside=index % 2 == 1)
        items = [(item.record, item.inside,
                  shock_epoch is None or epoch >= shock_epoch)
                 for epoch in range(epochs)
                 for item in harness.epoch_records(epoch)]
        # Each tenant joins its stream a different share of an epoch in, so
        # the tenants of one batch meet the shock, the recovery and their
        # sessions at different batches; in lockstep every phase was a
        # latency mode of its own and the percentiles jumped between them.
        offset = index * per_epoch // workload.tenants
        if len(items) < offset + per_tenant_total and shock_epoch is not None:
            raise ValueError("shock stream shorter than the run")
        streams[tenant] = [items[(offset + i) % len(items)]
                           for i in range(per_tenant_total)]

    tenants = tenant_ids(workload)
    cursor = {tenant: 0 for tenant in tenants}
    batches, labels, scored = [], [], []
    for b in range(num_batches):
        group = b % workload.groups
        members = tenants[group * workload.batch_tenants:
                          (group + 1) * workload.batch_tenants]
        batch, truth, counted = [], [], []
        for _ in range(workload.per_tenant):
            for tenant in members:
                record, inside, score_it = streams[tenant][cursor[tenant]]
                cursor[tenant] += 1
                batch.append((tenant, record))
                truth.append(inside)
                counted.append(score_it)
        batches.append(batch)
        labels.append(truth)
        scored.append(counted)
    return Inputs(train=train, batches=batches, labels=labels, scored=scored)


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------
def tenant_spec(workload: Workload):
    from repro.core.config import GEMConfig
    from repro.embedding.bisage import BiSAGEConfig
    from repro.pipeline import ComponentSpec, PipelineSpec
    config = GEMConfig(bisage=BiSAGEConfig(dim=workload.dim,
                                           epochs=workload.fit_epochs))
    return PipelineSpec(model=ComponentSpec("gem", config.to_dict()))


def maintenance_policy(workload: Workload):
    """bench_fleet_drift's quarantine-recover policy, or none."""
    if workload.shock_fraction is None:
        return None
    from repro.serve import MaintenancePolicy, RecoveryPolicy
    per_epoch = workload.sessions_per_epoch * int(workload.session_duration_s)
    return MaintenancePolicy(
        check_every=max(per_epoch // 4, 1), refresh_every=max(per_epoch // 2, 1),
        min_window=max(per_epoch // 4, 8), min_update_rate=0.05,
        recovery=RecoveryPolicy(after_stuck=2,
                                starvation_window=max(per_epoch // 2, 8),
                                min_quarantine=24, auto=True, max_fpr=0.7))


def _family_total(families: dict, name: str, **match) -> float:
    family = families.get(name) or {}
    # A router also exports each worker's copy under a "worker" label;
    # only the aggregated series count.
    return float(sum(entry.get("value", 0.0) for entry in family.get("series", ())
                     if "worker" not in entry["labels"]
                     and all(entry["labels"].get(k) == v for k, v in match.items())))


class InProcessServer:
    """A serial ``ServingRuntime``: maintenance runs only in ``maintain()``."""

    def __init__(self, workload: Workload, root: Path):
        from repro.serve import ServingRuntime
        kwargs = {}
        if workload.reservoir_size is not None:
            kwargs["reservoir_size"] = workload.reservoir_size
        self.runtime = ServingRuntime(
            str(root), capacity=workload.capacity, incremental=True,
            policy=maintenance_policy(workload), scheduler_interval=None,
            quarantine_size=workload.quarantine_size, **kwargs)

    def provision(self, tenant, records, spec) -> None:
        self.runtime.provision(tenant, records, spec=spec)

    def observe_many(self, batch):
        return self.runtime.observe_many(batch)

    def maintain(self) -> None:
        self.runtime.maintain()

    def counts(self) -> dict:
        totals = self.runtime.telemetry_totals()
        families = self.runtime.metrics()["families"]
        actions = [action for _, action in self.runtime.maintenance_actions()]
        return event_counts(totals.as_dict(), families, actions)

    def worker_pids(self) -> list[int]:
        return []

    def worker_busy_seconds(self) -> float:
        return 0.0

    def close(self) -> None:
        self.runtime.close()


class RoutedServer:
    """A ``Router`` in front of one subprocess worker."""

    def __init__(self, workload: Workload, root: Path,
                 worker_trace: Path | None = None):
        from repro.serve.cluster import Router
        self.router = Router(str(root), num_workers=1,
                             capacity=workload.capacity, incremental=True,
                             launcher=_launcher(worker_trace))
        self.pids = [entry["pid"] for entry in self.router.ping()]

    def provision(self, tenant, records, spec) -> None:
        self.router.provision(tenant, records, spec=spec)

    def observe_many(self, batch):
        return self.router.observe_many(batch)

    def maintain(self) -> None:
        self.router.maintain()

    def counts(self) -> dict:
        stats = self.router.stats()
        families = self.router.metrics()["families"]
        return event_counts(stats["totals"], families, [])

    def worker_pids(self) -> list[int]:
        return self.pids

    def worker_busy_seconds(self) -> float:
        return sum(stat["busy_seconds"] for stat in self.router.worker_stats())

    def close(self) -> None:
        self.router.close()


def _launcher(worker_trace: Path | None):
    """Spawn ``perfbench/worker.py``: the stock worker, traced on request."""
    from repro.serve.cluster.router import SubprocessWorkerHandle

    def spawn(_config):
        env = dict(os.environ)
        src_root = str(HERE.parent / "src")
        env["PYTHONPATH"] = src_root + (os.pathsep + env["PYTHONPATH"]
                                        if env.get("PYTHONPATH") else "")
        if worker_trace is not None:
            env["PERFBENCH_WORKER_TRACE"] = str(worker_trace)
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=env)
        return SubprocessWorkerHandle(proc)

    return spawn


def make_server(workload: Workload, root: Path, worker_trace: Path | None = None):
    if workload.routed:
        return RoutedServer(workload, root, worker_trace)
    return InProcessServer(workload, root)


def event_counts(totals: dict, families: dict, actions: list[str]) -> dict:
    """The counts that must repeat exactly across runs of one seed."""
    return {
        "observations": int(totals["observations"]),
        "loads": int(totals["loads"]),
        "saves": int(totals["saves"]),
        "delta_saves": int(totals["delta_saves"]),
        "evictions": int(totals["evictions"]),
        "refreshes": int(totals["refreshes"]),
        "recoveries": int(totals["reprovisions"]),
        "rollbacks": sum(1 for a in actions if a.startswith("recover-failed")),
        "quarantine_admissions": int(_family_total(
            families, "repro_quarantine_admissions_total", outcome="admitted")),
        "checkpoint_bytes": int(_family_total(families,
                                              "repro_checkpoint_bytes_total")),
    }


def expected_counts(workload: Workload, counts: dict, attempted: int,
                    num_batches: int) -> list[str]:
    """Check the window did the work the workload exists to exercise."""
    problems = []
    if counts["observations"] != attempted:
        problems.append(f"server counted {counts['observations']} observations "
                        f"for {attempted} sent")
    if workload.capacity >= workload.tenants:
        if counts["loads"] or counts["evictions"]:
            problems.append(f"resident tenants were loaded {counts['loads']} / "
                            f"evicted {counts['evictions']} times")
    elif counts["loads"] < num_batches * workload.batch_tenants:
        problems.append(f"{counts['loads']} loads for {num_batches} batches of "
                        f"{workload.batch_tenants} non-resident tenants")
    if workload.shock_fraction is not None and not (
            counts["recoveries"] and counts["quarantine_admissions"]):
        problems.append("no quarantine recovery after the shock")
    return problems
