"""Serving-runtime benchmark: observe latency under background
maintenance, incremental write-back accounting, the batch data plane
and observability overhead.

Questions about :class:`repro.serve.runtime.ServingRuntime`, the
serving daemon:

* **Observe latency during a background refresh** — the swap-on-commit
  fix's pinned claim.  A victim tenant is observed in a tight loop on
  the *same fleet* where the maintenance worker keeps refreshing a
  large tenant.  Because the fleet lock is released for the rebuild
  (held only for the model copy and the pointer swap), the observer's
  p99 latency must stay far below the refresh duration — under the old
  inline refresh it would *equal* it.
* **Write-back accounting** — full vs delta saves on a thrashing LRU,
  the compact companion to ``bench_fleet_drift``'s amplification run.
* **Batch data plane** — ``observe_many`` through the vectorized
  :class:`repro.serve.batchplane.BatchPlane` vs the scalar per-record
  loop on the same GEM/histogram tenant, decisions asserted identical.
  Two regimes: the pure scoring plane (``self_update=False``, the
  pinned >=10x claim at full scale) and a self-updating stream
  (``batch_update_size=64``, where mid-batch detector flushes force
  segment re-scoring and cap the win).
* **Observability overhead** — identical observe workload with the
  metrics/tracing layer on (the default) vs off.  The instrumented
  throughput must stay within 5 % of the bare runtime's, which is the
  contract that keeps ``observability=True`` defensible as a default;
  the instrumented run also leaves its metrics snapshot at
  ``benchmarks/results/runtime_metrics.jsonl`` for
  ``python -m repro obs render``.

Runs standalone; ``--quick`` is the CI smoke scale.  Every run writes
``benchmarks/results/runtime.{txt,json}`` (and ``--out`` if given); only
a full-scale run rewrites the committed ``BENCH_runtime.json`` at the
repository root, so a ``--quick`` smoke leaves the checkout clean.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from bench_common import (RESULTS_DIR, bench_metadata,  # noqa: E402
                          write_json_result, write_result)

from repro.core import GEM  # noqa: E402
from repro.core.config import GEMConfig  # noqa: E402
from repro.core.records import SignalRecord  # noqa: E402
from repro.embedding.bisage import BiSAGEConfig  # noqa: E402
from repro.eval.reporting import format_table  # noqa: E402
from repro.pipeline import ComponentSpec, PipelineSpec  # noqa: E402
from repro.serve import GeofenceFleet, MaintenancePolicy, ServingRuntime  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="ServingRuntime benchmark")
    parser.add_argument("--quick", action="store_true", help="CI smoke scale")
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall-clock budget per measured run")
    parser.add_argument("--out", help="also write the JSON payload to this path")
    return parser.parse_args(argv)


def spec(dim: int = 8) -> PipelineSpec:
    config = GEMConfig(bisage=BiSAGEConfig(dim=dim, epochs=1))
    return PipelineSpec(model=ComponentSpec("gem", config.to_dict()))


def make_records(n: int, num_macs: int, seed: int) -> list[SignalRecord]:
    """Cheap deterministic in-premises-looking scans (serving substrate
    benchmark: the model's quality is irrelevant, its shape is not).

    The MAC names do not depend on ``seed``, so a stream drawn with one
    seed senses the APs a tenant was trained on with another; scans
    sensing only MACs training never heard would all be unembeddable
    (footnote 3) and skip the embed and score work being measured."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        readings = {}
        for m in range(num_macs):
            rss = -50.0 - 3.0 * (m % 7) + rng.normal(0.0, 2.0)
            if rng.random() < 0.8:
                readings[f"mac-{m:03d}"] = float(max(rss, -95.0))
        if not readings:
            readings["mac-000"] = -70.0
        records.append(SignalRecord(readings, timestamp=float(i)))
    return records


def percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) if samples else 0.0


# ----------------------------------------------------------------------
# Arm 1: observe latency while the daemon refreshes a neighbour
# ----------------------------------------------------------------------
def run_latency_under_refresh(args) -> dict:
    heavy_train = 120 if args.quick else 600
    seconds = args.seconds if args.seconds is not None else (1.5 if args.quick else 5.0)
    victim_train = make_records(40, 12, seed=1)
    victim_stream = make_records(500, 12, seed=2)
    heavy_records = make_records(heavy_train, 24, seed=3)

    def measure(policy: MaintenancePolicy | None, interval: float | None) -> dict:
        latencies: list[float] = []
        with tempfile.TemporaryDirectory() as root:
            with ServingRuntime(root, capacity=8,
                                policy=policy,
                                scheduler_interval=interval) as runtime:
                runtime.provision("victim", victim_train, spec=spec())
                runtime.provision("heavy", heavy_records,
                                  spec=spec(dim=16 if args.quick else 32))
                # Feed the heavy tenant so its policy keeps demanding
                # refreshes for the whole measurement window.
                stop = time.perf_counter() + seconds
                position = 0
                while time.perf_counter() < stop:
                    runtime.observe("heavy", heavy_records[position % heavy_train])
                    t0 = time.perf_counter()
                    runtime.observe("victim", victim_stream[position % 500])
                    latencies.append(time.perf_counter() - t0)
                    position += 1
                totals = runtime.telemetry_totals()
                refreshes = totals.refreshes
                refresh_seconds = totals.refresh_seconds
        return {"observations": len(latencies),
                "p50_ms": 1e3 * percentile(latencies, 50),
                "p99_ms": 1e3 * percentile(latencies, 99),
                "max_ms": 1e3 * max(latencies),
                "refreshes": refreshes,
                "mean_refresh_ms": (1e3 * refresh_seconds / refreshes
                                    if refreshes else 0.0)}

    baseline = measure(policy=None, interval=None)
    refresh_policy = MaintenancePolicy(check_every=8, refresh_every=16)
    maintained = measure(policy=refresh_policy, interval=0.01)
    return {"baseline": baseline, "under_refresh": maintained}


# ----------------------------------------------------------------------
# Arm 2: write-back accounting on a thrashing LRU
# ----------------------------------------------------------------------
def run_writeback_accounting(args) -> dict:
    tenants = [f"wb-{i:02d}" for i in range(4 if args.quick else 12)]
    rounds = 3 if args.quick else 6
    train = {t: make_records(30, 10, seed=50 + i) for i, t in enumerate(tenants)}
    streams = {t: make_records(rounds * 5, 10, seed=150 + i)
               for i, t in enumerate(tenants)}
    out = {}
    for label, incremental in (("full_saves", False), ("incremental", True)):
        with tempfile.TemporaryDirectory() as root:
            with ServingRuntime(root, capacity=2,
                                incremental=incremental,
                                scheduler_interval=None) as runtime:
                for tenant in tenants:
                    runtime.provision(tenant, train[tenant], spec=spec())
                provision_saves = runtime.telemetry_totals().saves
                # Round-robin: every touch of a non-resident tenant is a
                # cold reload and someone else's dirty write-back.
                for round_index in range(rounds):
                    for tenant in tenants:
                        for step in range(5):
                            record = streams[tenant][round_index * 5 + step]
                            runtime.observe(tenant, record)
                totals = runtime.telemetry_totals()
        out[label] = {
            "streaming_full_saves": totals.saves - provision_saves,
            "streaming_delta_saves": totals.delta_saves,
            "full_saves_per_tenant": (totals.saves - provision_saves) / len(tenants),
        }
    return out


# ----------------------------------------------------------------------
# Arm 3: vectorized batch data plane vs the scalar observe loop
# ----------------------------------------------------------------------
def run_batch_throughput(args) -> dict:
    """``observe_many`` (BatchPlane fast path) vs per-record ``observe``.

    Both sides run at fleet level — same lock, same telemetry, same
    reservoir bookkeeping — so the ratio isolates the data plane.  Two
    independently provisioned fleets share the seed-pinned config, so
    their fitted models are identical and the decision streams must
    match exactly (the differential harness owns the bit-level proof;
    this re-checks it on the bench mix for free).
    """
    n_stream = 600 if args.quick else 2000
    chunk = 256
    train = make_records(300, 16, seed=21)
    stream = make_records(n_stream, 16, seed=22)
    base = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))
    regimes = (("scoring", {"self_update": False}),
               ("self_update", {"batch_update_size": 64}))

    out = {}
    for label, overrides in regimes:
        config = dataclasses.replace(base, **overrides)

        def make_fleet(root: str) -> GeofenceFleet:
            fleet = GeofenceFleet(Path(root) / "m", capacity=4,
                                  model_factory=lambda: GEM(config),
                                  reservoir_size=16)
            fleet.provision("t", train)
            return fleet

        with tempfile.TemporaryDirectory() as root:
            fleet = make_fleet(root)
            t0 = time.perf_counter()
            scalar = [fleet.observe("t", record) for record in stream]
            scalar_s = time.perf_counter() - t0
            fleet.close()
        with tempfile.TemporaryDirectory() as root:
            fleet = make_fleet(root)
            batch: list = []
            t0 = time.perf_counter()
            for start in range(0, n_stream, chunk):
                batch.extend(fleet.observe_many(
                    [("t", r) for r in stream[start:start + chunk]]))
            batch_s = time.perf_counter() - t0
            engaged = fleet.batchplane.engaged_total()
            fleet.close()

        out[label] = {
            "records": n_stream,
            "batch_size": chunk,
            "scalar_obs_per_s": n_stream / scalar_s,
            "batch_obs_per_s": n_stream / batch_s,
            "speedup": scalar_s / batch_s,
            "fastpath_engaged": engaged,
            "decisions_identical": batch == scalar,
        }
    return out


# ----------------------------------------------------------------------
# Arm 4: observability overhead on the observe path
# ----------------------------------------------------------------------
def run_observability_overhead(args) -> dict:
    """Instrumented vs bare observe throughput, best-of-repeats.

    Best-of damps scheduler noise on shared CI boxes: the fastest
    repeat of each arm is the closest to the workload's true cost, and
    the comparison is between two best cases measured interleaved.
    """
    repeats = 3
    n_obs = 400 if args.quick else 2000
    train = make_records(40, 12, seed=7)
    stream = make_records(500, 12, seed=8)

    def one_run(observability: bool, dump_to: Path | None = None) -> float:
        with tempfile.TemporaryDirectory() as root:
            with ServingRuntime(root, capacity=4,
                                scheduler_interval=None,
                                observability=observability) as runtime:
                runtime.provision("overhead", train, spec=spec())
                t0 = time.perf_counter()
                for i in range(n_obs):
                    runtime.observe("overhead", stream[i % 500])
                elapsed = time.perf_counter() - t0
                if dump_to is not None:
                    from repro.obs import MetricsDumper
                    MetricsDumper(runtime.metrics, dump_to).dump_now()
        return n_obs / elapsed

    metrics_path = RESULTS_DIR / "runtime_metrics.jsonl"
    RESULTS_DIR.mkdir(exist_ok=True)
    metrics_path.unlink(missing_ok=True)
    bare, instrumented = 0.0, 0.0
    for repeat in range(repeats):
        bare = max(bare, one_run(False))
        instrumented = max(instrumented, one_run(
            True, dump_to=metrics_path if repeat == repeats - 1 else None))
    overhead_pct = max(0.0, 100.0 * (bare - instrumented) / bare)
    return {"observations_per_run": n_obs,
            "bare_obs_per_s": bare,
            "instrumented_obs_per_s": instrumented,
            "overhead_pct": overhead_pct,
            "metrics_jsonl": str(metrics_path)}


def main(argv=None) -> int:
    args = parse_args(argv)
    payload = {
        "meta": bench_metadata("runtime", args),
        "latency": run_latency_under_refresh(args),
        "writeback": run_writeback_accounting(args),
        "batchplane": run_batch_throughput(args),
        "observability": run_observability_overhead(args),
        "quick": args.quick,
    }
    latency = payload["latency"]
    rows = [["p99 observe (no maintenance)",
             f"{latency['baseline']['p99_ms']:.2f} ms"]]
    rows.append(["p99 observe (refresh in background)",
                 f"{latency['under_refresh']['p99_ms']:.2f} ms"])
    rows.append(["mean background refresh",
                 f"{latency['under_refresh']['mean_refresh_ms']:.1f} ms"])
    rows.append(["full saves/tenant (full mode)",
                 f"{payload['writeback']['full_saves']['full_saves_per_tenant']:.1f}"])
    rows.append(["full saves/tenant (incremental)",
                 f"{payload['writeback']['incremental']['full_saves_per_tenant']:.1f}"])
    for label, arm in payload["batchplane"].items():
        rows.append([f"batch plane ({label})",
                     f"{arm['batch_obs_per_s']:.0f} obs/s vs "
                     f"{arm['scalar_obs_per_s']:.0f} scalar "
                     f"({arm['speedup']:.1f}x, identical="
                     f"{arm['decisions_identical']})"])
    obs = payload["observability"]
    rows.append(["observe throughput (bare)",
                 f"{obs['bare_obs_per_s']:.0f} obs/s"])
    rows.append(["observe throughput (instrumented)",
                 f"{obs['instrumented_obs_per_s']:.0f} obs/s"])
    rows.append(["observability overhead", f"{obs['overhead_pct']:.1f} %"])
    write_result("runtime", format_table(["metric", "value"], rows,
                                         title="ServingRuntime benchmark"))
    write_json_result("runtime", payload)
    if not args.quick:
        # Only a full-scale run re-pins the committed numbers.
        (REPO_ROOT / "BENCH_runtime.json").write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"payload written to {args.out}")

    # Invariants (loose enough for noisy CI boxes, tight enough to catch
    # a regression to inline refresh):
    under = latency["under_refresh"]
    assert under["refreshes"] > 0, "the background policy never fired"
    if under["mean_refresh_ms"] > 0:
        # Swap-on-commit: an observe must never wait out a whole rebuild.
        # Inline refresh would push p99 (and max) to ~mean_refresh_ms.
        assert under["p99_ms"] < max(0.6 * under["mean_refresh_ms"], 50.0), latency
    inc = payload["writeback"]["incremental"]
    full = payload["writeback"]["full_saves"]
    assert inc["streaming_delta_saves"] > 0
    assert inc["streaming_full_saves"] < full["streaming_full_saves"]
    # The batch plane's pinned claims: correctness is absolute (identical
    # decisions, fast path actually engaged); the throughput floor is
    # 10x on the pure scoring plane at full scale, relaxed to 3x at the
    # CI smoke scale where fixed costs dominate the short stream.
    plane = payload["batchplane"]
    for label, arm in plane.items():
        assert arm["decisions_identical"], \
            f"batch plane ({label}) diverged from the scalar loop: {arm}"
        assert arm["fastpath_engaged"] > 0, \
            f"batch plane ({label}) never engaged the fast path: {arm}"
    floor = 3.0 if args.quick else 10.0
    assert plane["scoring"]["speedup"] >= floor, \
        f"scoring-plane speedup {plane['scoring']['speedup']:.1f}x < {floor}x: {plane}"
    assert plane["self_update"]["speedup"] > 1.0, \
        f"self-update regime slower than scalar: {plane}"
    # The observability default must stay near-free on the hot path.
    assert obs["overhead_pct"] < 5.0, \
        f"observability overhead {obs['overhead_pct']:.1f}% >= 5% budget: {obs}"
    assert Path(obs["metrics_jsonl"]).is_file()
    return 0


if __name__ == "__main__":
    sys.exit(main())
