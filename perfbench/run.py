"""Serving benchmark: run one workload for one seed, print one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload shock-recovery --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``
as medians over ``REPLAYS`` fresh set-ups, each replaying the same
batches (the ``--seconds`` of work are split among them).  ``--trace 1``
runs one replay's batches twice in one process, untraced and then with
spans around every layer boundary, and reports the per-layer metrics.
The last line of standard output is the JSON result; the lines before it
print every metric with its unit, the host-drift probe and, for a traced
run, each layer's self time.
"""

import os

# One BLAS thread in this process and in every worker it spawns: a
# default pool spins threads the closed loop does not control.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
CACHE = ROOT / ".perfbench_cache"
# Every timed run sets up and replays the same batches this many times.
REPLAYS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Host readings
# ----------------------------------------------------------------------
def host_probe() -> float:
    """Milliseconds for a fixed pure-Python loop (host-drift diagnosis only)."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * i) % 7
    return 1e3 * (time.perf_counter() - start)


def process_cpu_seconds(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid="self") -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def directory_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def load_inputs(path: Path, workload, seed: int, num_batches: int):
    from workloads import make_inputs
    if path.exists():
        with path.open("rb") as handle:
            return pickle.load(handle)
    inputs = make_inputs(workload, seed, num_batches)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".tmp")
    with partial.open("wb") as handle:
        pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    partial.replace(path)
    return inputs


def setup(workload, inputs, runs_dir: Path, worker_trace=None):
    """Provision every tenant on a fresh registry; returns (server, s, root)."""
    from workloads import make_server, tenant_ids, tenant_spec
    root = Path(tempfile.mkdtemp(prefix="registry-", dir=runs_dir))
    spec = tenant_spec(workload)
    start = time.perf_counter()
    server = make_server(workload, root, worker_trace)
    try:
        for tenant in tenant_ids(workload):
            server.provision(tenant, inputs.train[tenant], spec)
    except BaseException:
        server.close()
        raise
    return server, time.perf_counter() - start, root


def drive(server, inputs, recorder=None) -> dict:
    """The timed window: one batch in flight, maintenance after each."""
    observe, maintain = server.observe_many, server.maintain
    if recorder is not None:
        observe = recorder.wrap(observe, "client.batch")
        maintain = recorder.wrap(maintain, "client.maintain")
    before = server.counts()
    pids = server.worker_pids()
    busy0 = server.worker_busy_seconds()
    gc.collect()
    child0 = sum(process_cpu_seconds(pid) for pid in pids)
    cpu0 = time.process_time()
    start = time.perf_counter()
    latencies, decisions, failed, errors = [], [], 0, []
    for index, batch in enumerate(inputs.batches):
        if recorder is not None:
            recorder.batch = index
        sent = time.perf_counter()
        try:
            answered = observe(batch)
        except Exception as error:  # noqa: BLE001 - a failed batch is counted
            answered = [None] * len(batch)
            failed += len(batch)
            errors.append(f"{type(error).__name__}: {error}")
        latencies.append(time.perf_counter() - sent)
        decisions.extend(answered)
        maintain()
    end = time.perf_counter()
    cpu = time.process_time() - cpu0
    child = sum(process_cpu_seconds(pid) for pid in pids) - child0
    busy = server.worker_busy_seconds() - busy0
    rss = peak_rss_mb() + sum(peak_rss_mb(pid) for pid in pids)
    after = server.counts()
    return {"window": (start, end), "latencies": latencies,
            "decisions": decisions, "failed": failed, "errors": errors[:3],
            "cpu_s": cpu, "child_cpu_s": child, "worker_busy_s": busy,
            "peak_rss_mb": rss,
            "counts": {key: after[key] - before[key] for key in after}}


def mean_auc(workload, inputs, decisions) -> float:
    """Mean per-tenant in/out AUC over the scored records ("out" positive)."""
    from repro.eval.roc import finite_scores, roc_curve
    by_tenant: dict[str, tuple[list, list]] = {}
    position = 0
    for batch, truth, counted in zip(inputs.batches, inputs.labels, inputs.scored):
        for (tenant, _), inside, score_it in zip(batch, truth, counted):
            decision = decisions[position]
            position += 1
            if score_it and decision is not None:
                scores, outside = by_tenant.setdefault(tenant, ([], []))
                scores.append(decision.score)
                outside.append(not inside)
    aucs = [float(roc_curve(finite_scores(scores), outside).auc)
            for scores, outside in by_tenant.values() if 0 < sum(outside) < len(outside)]
    return sum(aucs) / len(aucs) if aucs else 0.0


def repeat_record(workload, inputs, result) -> dict:
    """What must repeat exactly.  Checkpoint bytes are left out: manifests
    carry save times and nonces, so their length varies by a few bytes."""
    from stats import decision_digest
    counts = {k: v for k, v in result["counts"].items() if k != "checkpoint_bytes"}
    return {"digest": decision_digest(d for d in result["decisions"] if d is not None),
            "auc": repr(mean_auc(workload, inputs, result["decisions"])), **counts}


def check(workload, inputs, result) -> list[str]:
    """Problems with the program's outputs; empty when they are correct."""
    from workloads import expected_counts
    problems = []
    attempted = sum(len(batch) for batch in inputs.batches)
    if result["failed"]:
        problems.append(f"{result['failed']} observations failed: {result['errors']}")
    if len(result["decisions"]) != attempted:
        problems.append(f"{len(result['decisions'])} decisions for {attempted} records")
    auc = mean_auc(workload, inputs, result["decisions"])
    if auc < workload.min_auc:
        problems.append(f"auc {auc:.4f} below {workload.min_auc}")
    problems.extend(expected_counts(workload, result["counts"], attempted,
                                    len(inputs.batches)))
    return problems


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def timed_run(workload, inputs, runs_dir: Path) -> tuple[dict, dict]:
    """REPLAYS set-ups, each followed by a replay of the same batches.

    Each metric is the median over the replays: the host's speed swings
    within a run, and a median keeps a replay that met a burst of other
    load, or a lull, from setting the run's figure.
    """
    from stats import median, percentile
    setups, replays = [], []
    for _ in range(REPLAYS):
        server, seconds, root = setup(workload, inputs, runs_dir)
        setups.append(seconds)
        try:
            result = drive(server, inputs)
        finally:
            server.close()
        start, end = result["window"]
        returned = sum(1 for d in result["decisions"] if d is not None)
        result.update(wall_s=end - start, returned=returned,
                      checkpoint_mb=directory_bytes(root) / 1e6)
        replays.append(result)
    cpu = [r["cpu_s"] + r["child_cpu_s"] for r in replays]
    metrics = {
        "throughput_obs_per_s": median([r["returned"] / r["wall_s"] for r in replays]),
        "batch_p50_ms": median([1e3 * percentile(r["latencies"], 50) for r in replays]),
        "batch_p90_ms": median([1e3 * percentile(r["latencies"], 90) for r in replays]),
        "cpu_ms_per_kobs": median([1e6 * c / r["returned"]
                                   for c, r in zip(cpu, replays)]),
        "setup_s": median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in replays),
        "checkpoint_mb": median([r["checkpoint_mb"] for r in replays]),
        "auc": mean_auc(workload, inputs, replays[0]["decisions"]),
    }
    wall = sum(r["wall_s"] for r in replays)
    notes = {"batches": len(inputs.batches), "replays": REPLAYS, "wall_s": wall,
             "cpu_wall_ratio": sum(cpu) / wall,
             "client_cpu_wall_ratio": sum(r["cpu_s"] for r in replays) / wall,
             "setup_samples_s": setups,
             "written_mb": replays[0]["counts"]["checkpoint_bytes"] / 1e6}
    return metrics, {"passes": replays, "notes": notes}


def traced_run(workload, inputs, runs_dir: Path) -> tuple[dict, dict]:
    from layers import layer_metrics, self_time_table, window_pairs
    from spans import Recorder, Span, install
    server, _, _ = setup(workload, inputs, runs_dir)
    try:
        plain = drive(server, inputs)
    finally:
        server.close()
    recorder = Recorder()
    worker_trace = runs_dir / "worker-spans.json" if workload.routed else None
    uninstall = install(recorder, side="router" if workload.routed else "server")
    try:
        server, _, _ = setup(workload, inputs, runs_dir, worker_trace)
        try:
            traced = drive(server, inputs, recorder)
        finally:
            server.close()
    finally:
        uninstall()
    worker_spans = []
    if worker_trace is not None:
        worker_spans = [Span(**item) for item in json.loads(worker_trace.read_text())]

    def throughput(result):
        start, end = result["window"]
        return len(result["decisions"]) / (end - start)

    start, end = traced["window"]
    values = layer_metrics(
        recorder.spans, worker_spans, traced["window"],
        observations=len(traced["decisions"]), batches=len(inputs.batches),
        router_cpu_s=traced["cpu_s"], worker_busy_s=traced["worker_busy_s"],
        evictions=traced["counts"]["evictions"],
        plain_throughput=throughput(plain), traced_throughput=throughput(traced))
    wall = end - start
    tables = {"client": self_time_table(window_pairs(recorder.spans, start, end), wall)}
    if worker_spans:
        tables["worker"] = self_time_table(window_pairs(worker_spans, start, end), wall)
    # The client's per-span self times plus the residual make up the
    # traced wall; a negative residual would mean time counted twice.
    attributed = sum(ms for _, ms, _ in tables["client"])
    residual_ms = 1e3 * wall * values["trace.residual_pct"] / 100.0
    notes = {"batches": len(traced["latencies"]), "wall_s": wall,
             "cpu_wall_ratio": (traced["cpu_s"] + traced["child_cpu_s"]) / wall,
             "tables": tables,
             "sum_check": f"self {attributed:.3f} ms + residual {residual_ms:.3f} ms "
                          f"= {attributed + residual_ms:.3f} ms of {1e3 * wall:.3f} ms wall"}
    problems = []
    if residual_ms < -1e-6 * wall:
        problems.append(f"layer self times exceed the wall: {notes['sum_check']}")
    return values, {"passes": [traced, plain], "notes": notes,
                    "problems": problems}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro under the working directory; run it "
              "from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from stats import RepeatMismatch, check_repeat, source_hash
    from workloads import WORKLOADS

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # The --seconds of nominal work are split across the replays.
    num_batches = workload.num_batches(args.seconds / REPLAYS)
    key = f"{workload.name}-s{args.seed}-n{num_batches}-{source_hash(ROOT)}"

    probe_before = host_probe()
    inputs = load_inputs(CACHE / "inputs" / f"{key}.pkl", workload, args.seed,
                         num_batches)
    CACHE.mkdir(parents=True, exist_ok=True)
    runs_dir = Path(tempfile.mkdtemp(prefix="run-", dir=CACHE))
    try:
        run = traced_run if args.trace else timed_run
        metrics, detail = run(workload, inputs, runs_dir)
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
    probe_after = host_probe()

    passes = detail["passes"]
    problems = [problem for result in passes
                for problem in check(workload, inputs, result)]
    problems += detail.get("problems", [])
    try:
        for result in passes:
            check_repeat(CACHE / "repeats" / f"{key}.json",
                         repeat_record(workload, inputs, result))
    except RepeatMismatch as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3

    units = {m["name"]: m["unit"]
             for m in contract["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics missing from this run: {missing}", file=sys.stderr)
        return 4

    notes = detail["notes"]
    attempted = len(passes) * sum(len(batch) for batch in inputs.batches)
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"batches={notes['batches']} batch_size={workload.batch_size} "
          f"wall={notes['wall_s']:.3f}s cpu/wall={notes['cpu_wall_ratio']:.3f} "
          f"host_probe_ms={probe_before:.2f}->{probe_after:.2f}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for label, rows in notes.get("tables", {}).items():
        print(f"# self time by span ({label} process), ms and share of wall:")
        for name, ms, share in rows:
            print(f"#   {name:<28} {ms:10.2f} {share:6.2f}%")
    if "sum_check" in notes:
        print(f"# {notes['sum_check']}")
    for problem in problems:
        print(f"# INCORRECT: {problem}")
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "probe_ms": [probe_before, probe_after],
              "counts": passes[0]["counts"],
              **{k: v for k, v in notes.items() if k != "tables"},
              "metrics": {name: metrics[name] for name in units}}
    with (CACHE / "runs.jsonl").open("a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": not problems, "attempted": attempted,
        "failed": sum(result["failed"] for result in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
