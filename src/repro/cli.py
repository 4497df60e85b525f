"""``python -m repro`` — spec-driven train / eval / serve entry point.

The CLI is a thin shell over the declarative pipeline API: every
subcommand consumes or produces :class:`~repro.pipeline.spec.PipelineSpec`
JSON, so anything scriptable here is also scriptable as a library call.

Subcommands
-----------
``components``
    List every registered embedder / detector / model.
``spec``
    Emit the spec JSON of a named paper arm (a starting point to edit).
``train``
    Build a pipeline from a spec file (or arm name), fit it on a JSONL
    record stream or a synthetic user world, and save a checkpoint.
``eval``
    Run paper arms through the streaming evaluation harness on a
    synthetic user world; print (and optionally dump as JSON) metrics.
``serve``
    Replay a JSONL event stream through a multi-tenant fleet rooted at
    a checkpoint registry; print one decision JSON per line.
``runtime`` (alias ``serve-daemon``)
    The same replay through the :class:`ServingRuntime` daemon: one
    fleet behind a decision bus, a background maintenance
    worker executing the given :class:`MaintenancePolicy` (coordinated
    refresh, escalation, recovery) off the observe path,
    and incremental (delta) checkpoint write-backs.
``cluster``
    The replay through the multi-process cluster: a router
    hash-partitions tenants across N worker processes (each a serial
    runtime over its slice of the registry), optionally delta-shipping
    every committed checkpoint write to a warm standby registry
    (``--standby``) that ``--promote`` turns into a serving primary at
    the end.  ``--quick`` is self-contained (synthetic world, temp
    registry) for smoke tests.
``obs render``
    Pretty-print a metrics snapshot (the JSONL trail ``runtime
    --metrics-out`` appends, or any ``runtime.metrics()`` JSON) as
    latency/counter/health tables, Prometheus text exposition, or
    canonical JSON.
``maintain``
    Control-plane maintenance over a checkpoint registry: coordinated
    refresh (detector refit on each tenant's persisted recent-inlier
    reservoir, re-embedded by the frozen embedder) or full re-provision,
    per tenant, written back atomically.
``drift``
    Evolve a synthetic world over simulated days (AP churn, a one-shot
    churn shock, power/device drift) and replay the multi-epoch stream
    through an arm online — and through a frozen static snapshot — to
    get per-epoch AUC/FPR/FNR trajectories and time-to-recovery.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Spec-driven geofencing pipelines: train, evaluate, serve.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("components", help="list registered pipeline components")

    p = sub.add_parser("spec", help="print the PipelineSpec JSON of a paper arm")
    p.add_argument("--arm", required=True, help="paper arm name (see `eval --list`)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("-o", "--out", help="write to this file instead of stdout")

    p = sub.add_parser("train", help="fit a spec'd pipeline and checkpoint it")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help="PipelineSpec JSON file")
    source.add_argument("--arm", help="paper arm name instead of a spec file")
    data = p.add_mutually_exclusive_group(required=True)
    data.add_argument("--records", help="JSONL training records (repro.core.io format)")
    data.add_argument("--user", type=int, help="synthetic Table-II user world id")
    p.add_argument("--out", help="checkpoint directory to write")
    p.add_argument("--registry", help="tenant registry root (needs --tenant)")
    p.add_argument("--tenant", help="tenant id inside --registry")
    p.add_argument("--seed", type=int, default=0, help="arm seed (with --arm)")
    p.add_argument("--dim", type=int, default=32, help="arm dimension (with --arm)")
    p.add_argument("--quick", action="store_true",
                   help="small synthetic world + fast hyper-parameters")

    p = sub.add_parser("eval", help="evaluate paper arms on a synthetic user world")
    p.add_argument("--arms", default="GEM",
                   help="comma-separated arm names, or 'all'")
    p.add_argument("--list", action="store_true", help="list arm names and exit")
    p.add_argument("--user", type=int, default=3, help="synthetic user world id")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--quick", action="store_true",
                   help="small synthetic world + fast hyper-parameters")
    p.add_argument("--json", dest="json_out", help="also write metrics to this JSON file")

    p = sub.add_parser("drift", help="streaming drift evaluation over a dynamic world")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--arm", default="GEM", help="paper arm name (default GEM)")
    source.add_argument("--spec", help="PipelineSpec JSON file (its drift block, if "
                                       "present, defines the workload)")
    p.add_argument("--user", type=int, default=3, help="synthetic Table-II user world id")
    p.add_argument("--epochs", type=int, default=8, help="simulated days to evolve")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--churn", type=float, default=0.04,
                   help="per-epoch AP replacement probability")
    p.add_argument("--shock-epoch", type=int, default=None,
                   help="epoch of the one-shot churn shock (default: midpoint)")
    p.add_argument("--shock-fraction", type=float, default=0.3,
                   help="fraction of ambient APs replaced at the shock")
    p.add_argument("--sessions", type=int, default=4, help="test sessions per epoch")
    p.add_argument("--session-s", type=float, default=45.0, help="seconds per session")
    p.add_argument("--train-s", type=float, default=180.0, help="training walk seconds")
    p.add_argument("--no-baseline", action="store_true",
                   help="skip the frozen static-snapshot comparison run")
    p.add_argument("--fleet", action="store_true",
                   help="also replay through a GeofenceFleet tenant with forced "
                        "mid-stream evict/reload")
    p.add_argument("--maintain", type=int, metavar="N", default=0,
                   help="also replay through a fleet tenant whose controller "
                        "runs a coordinated refresh (detector refit on the "
                        "re-embedded inlier reservoir) every N observations")
    p.add_argument("--quick", action="store_true",
                   help="shrink the model's hyper-parameters (shorter GNN "
                        "training; the world and epochs are unchanged — "
                        "recovery is a data-volume effect). No effect with --spec")
    p.add_argument("--json", dest="json_out", help="also write trajectories to this JSON file")

    p = sub.add_parser("serve", help="replay a JSONL event stream through a fleet")
    p.add_argument("--registry", required=True, help="tenant registry root")
    p.add_argument("--events", required=True,
                   help='JSONL events: {"tenant": ..., "rss": {...}, "t": ...}')
    p.add_argument("--capacity", type=int, default=8)
    p.add_argument("-o", "--out", help="write decisions to this file instead of stdout")

    p = sub.add_parser("runtime", aliases=["serve-daemon"],
                       help="replay a JSONL event stream through the serving "
                            "daemon (one fleet, background maintenance)")
    p.add_argument("--registry", required=True, help="tenant registry root")
    p.add_argument("--events", required=True,
                   help='JSONL events: {"tenant": ..., "rss": {...}, "t": ...}')
    p.add_argument("--capacity", type=int, default=8, help="LRU budget")
    p.add_argument("--policy", help="MaintenancePolicy JSON file applied to every "
                                    "tenant (default: no maintenance)")
    p.add_argument("--interval", type=float, default=0.05,
                   help="background maintenance tick interval in seconds; "
                        "0 = serial mode (pump once at the end)")
    p.add_argument("--no-incremental", action="store_true",
                   help="write full checkpoints instead of deltas")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="append periodic runtime metrics snapshots (JSONL) "
                        "to this file while serving; render them afterwards "
                        "with `python -m repro obs render PATH`")
    p.add_argument("--metrics-interval", type=float, default=5.0, metavar="S",
                   help="seconds between metrics snapshots (with --metrics-out; "
                        "default 5)")
    p.add_argument("-o", "--out", help="write decisions to this file instead of stdout")

    p = sub.add_parser("cluster",
                       help="replay a JSONL event stream through the "
                            "multi-process router (tenants partitioned across "
                            "worker processes; optional warm standby)")
    p.add_argument("--registry", help="tenant registry root (omit with --quick "
                                      "for a temp registry)")
    p.add_argument("--events", help='JSONL events: {"tenant": ..., "rss": '
                                    '{...}, "t": ...} (generated with --quick)')
    p.add_argument("--workers", type=int, default=2, help="worker processes")
    p.add_argument("--capacity", type=int, default=8,
                   help="LRU budget per worker")
    p.add_argument("--policy", help="MaintenancePolicy JSON file applied to "
                                    "every tenant (default: no maintenance)")
    p.add_argument("--standby", metavar="DIR",
                   help="replicate committed checkpoint writes into this "
                        "standby registry root")
    p.add_argument("--promote", action="store_true",
                   help="after the replay, promote the standby to a serving "
                        "primary and report failover timing (needs --standby)")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="per-request worker response timeout in seconds")
    p.add_argument("--no-incremental", action="store_true",
                   help="write full checkpoints instead of deltas")
    p.add_argument("--local", action="store_true",
                   help="in-process worker threads instead of subprocesses "
                        "(debugging; same protocol, no fork)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="append merged cluster metrics snapshots (JSONL) to "
                        "this file: worker registries folded at the router, "
                        "every family also labeled per worker")
    p.add_argument("--metrics-interval", type=float, default=5.0, metavar="S",
                   help="seconds between cluster metrics snapshots (with "
                        "--metrics-out; default 5, the runtime daemon's "
                        "cadence)")
    p.add_argument("--health", action="store_true",
                   help="print the graded cluster health rollup (folded "
                        "probes + per-worker detail) after the replay")
    p.add_argument("--quick", action="store_true",
                   help="self-contained smoke run: tiny synthetic world, "
                        "temp registry, generated events")
    p.add_argument("-o", "--out", help="write decisions to this file instead "
                                       "of stdout")

    p = sub.add_parser("obs", help="observability utilities (metrics snapshots)")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    r = obs_sub.add_parser("render",
                           help="render a metrics snapshot (JSON, or JSONL as "
                                "written by --metrics-out) as a summary table "
                                "or Prometheus text exposition")
    r.add_argument("path", nargs="+",
                   help="metrics snapshot file: a JSON object, or JSONL "
                        "where the last line wins (see --line); with --diff, "
                        "one file (first line vs --line) or two files "
                        "(earlier, later)")
    r.add_argument("--format", choices=["summary", "prometheus", "json"],
                   default="summary",
                   help="summary: latency/counter/health tables (default); "
                        "prometheus: text exposition; json: canonical JSON")
    r.add_argument("--line", type=int, default=0, metavar="N",
                   help="1-based JSONL line to render; 0 or negative index "
                        "from the end (default: last line)")
    r.add_argument("--diff", action="store_true",
                   help="counter deltas and per-second rates between two "
                        "snapshots instead of absolute values (rates need "
                        "the 'at' timestamps --metrics-out records)")
    r.add_argument("-o", "--out", help="write to this file instead of stdout")

    p = sub.add_parser("maintain",
                       help="coordinated refresh / re-provision of registry tenants")
    p.add_argument("--registry", required=True, help="tenant registry root")
    p.add_argument("--tenants", default="all",
                   help="comma-separated tenant ids, or 'all'")
    p.add_argument("--action", choices=["refresh", "reprovision", "recover"],
                   default="refresh",
                   help="refresh: refit the detector on the re-embedded "
                        "persisted recent-inlier reservoir (default); "
                        "reprovision: full refit from the reservoir; "
                        "recover: full refit from the persisted quarantine "
                        "buffer, re-anchoring the trained MAC universe — the "
                        "operator approval of a starvation-recovery proposal")
    p.add_argument("--max-fpr", type=float, default=0.5, metavar="RATE",
                   help="recover only: roll back (keep the old model) when the "
                        "recovered model rejects more than this fraction of "
                        "its own quarantine evidence (default 0.5)")
    p.add_argument("--dry-run", action="store_true",
                   help="report each tenant's arm, refresh capability, "
                        "reservoir and quarantine size without touching any "
                        "checkpoint")
    p.add_argument("--json", dest="json_out", help="also write the report to this JSON file")
    return parser


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _quick_gem_config():
    from repro.core.config import GEMConfig
    from repro.embedding.bisage import BiSAGEConfig
    return GEMConfig(bisage=BiSAGEConfig(dim=16, epochs=2))


def _arm_dim(name: str, dim: int, quick: bool) -> int:
    from repro.eval.algorithms import arm_accepts
    if quick and dim == 32 and arm_accepts(name, "dim"):
        return 16
    return dim


def _load_spec(args):
    from repro.eval.algorithms import arm_spec
    from repro.pipeline import PipelineSpec
    if args.spec:
        return PipelineSpec.from_json(Path(args.spec).read_text())
    gem_config = _quick_gem_config() if args.quick else None
    return arm_spec(args.arm, seed=args.seed,
                    dim=_arm_dim(args.arm, args.dim, args.quick),
                    gem_config=gem_config, strict=False)


def _training_records(args):
    from repro.core.io import load_records
    if args.records:
        return load_records(args.records)
    dataset = _user_dataset(args.user, quick=args.quick)
    return dataset.train


def _user_dataset(user_id: int, quick: bool):
    from repro.datasets import user_dataset
    if quick:
        return user_dataset(user_id, train_duration_s=120.0, test_sessions=3,
                            session_duration_s=40.0)
    return user_dataset(user_id)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_components(args) -> int:
    from repro.eval.reporting import format_table
    from repro.pipeline import known_components
    rows = [[e.kind, e.name, "yes" if e.supports_update else "no",
             "yes" if e.supports_state_dict else "no",
             "yes" if e.supports_refresh else "no", e.description]
            for e in known_components()]
    print(format_table(["kind", "name", "update", "state_dict", "refresh",
                        "description"],
                       rows, title="Registered pipeline components"))
    return 0


def _cmd_spec(args) -> int:
    from repro.eval.algorithms import arm_spec
    text = arm_spec(args.arm, seed=args.seed, dim=args.dim, strict=False).to_json()
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_train(args) -> int:
    from repro.pipeline import build_pipeline
    from repro.serve import save_checkpoint
    if bool(args.registry) != bool(args.tenant):
        print("error: --registry and --tenant go together", file=sys.stderr)
        return 2
    if not args.out and not args.registry:
        print("error: pass --out DIR or --registry DIR --tenant ID", file=sys.stderr)
        return 2
    spec = _load_spec(args)
    records = _training_records(args)
    if args.registry:
        # Provision through a real fleet rather than re-implementing its
        # checkpoint shape: the tenant gets the identical manifest — spec
        # embedded, training records pinned as the reservoir anchor — so
        # it is immediately `maintain`-able.
        from repro.serve import GeofenceFleet
        with GeofenceFleet(args.registry, capacity=1) as fleet:
            pipeline = fleet.provision(args.tenant, records, spec=spec)
        print(f"fitted {spec.describe()} on {len(records)} records")
        print(f"tenant {args.tenant!r} saved under {args.registry}")
    else:
        pipeline = build_pipeline(spec)
        pipeline.fit(records)
        print(f"fitted {spec.describe()} on {len(records)} records")
    if args.out:
        path = save_checkpoint(pipeline, args.out)
        print(f"checkpoint written to {path}")
    return 0


def _cmd_eval(args) -> int:
    from repro.eval import ALGORITHM_NAMES, evaluate_streaming, make_algorithm
    from repro.eval.reporting import format_table
    if args.list:
        print("\n".join(ALGORITHM_NAMES))
        return 0
    names = list(ALGORITHM_NAMES) if args.arms.strip().lower() == "all" \
        else [a.strip() for a in args.arms.split(",") if a.strip()]
    unknown = [n for n in names if n not in ALGORITHM_NAMES]
    if unknown:
        print(f"error: unknown arm(s) {unknown}; known: {', '.join(ALGORITHM_NAMES)}",
              file=sys.stderr)
        return 2
    gem_config = _quick_gem_config() if args.quick else None
    dataset = _user_dataset(args.user, quick=args.quick)
    rows, payload = [], {}
    for name in names:
        model = make_algorithm(name, seed=args.seed,
                               dim=_arm_dim(name, args.dim, args.quick),
                               gem_config=gem_config)
        result = evaluate_streaming(model, dataset)
        m = result.metrics
        rows.append([name, f"{m.f_in:.3f}", f"{m.f_out:.3f}",
                     f"{result.fit_seconds:.2f}", f"{result.stream_seconds:.2f}"])
        payload[name] = {"p_in": m.p_in, "r_in": m.r_in, "f_in": m.f_in,
                         "p_out": m.p_out, "r_out": m.r_out, "f_out": m.f_out,
                         "fit_seconds": result.fit_seconds,
                         "stream_seconds": result.stream_seconds}
    print(format_table(["arm", "F(in)", "F(out)", "fit s", "stream s"],
                       rows, title=f"user-{args.user} streaming evaluation"))
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"metrics written to {args.json_out}")
    return 0


def _cmd_drift(args) -> int:
    import tempfile

    from repro.datasets.users import user_scenario
    from repro.eval.algorithms import arm_spec
    from repro.eval.drift import DriftHarness
    from repro.eval.reporting import format_table
    from repro.pipeline import ComponentSpec, DriftSpec, PipelineSpec, build_pipeline
    from repro.rf.dynamics import home_ap_ids

    sessions, session_s, train_s = args.sessions, args.session_s, args.train_s

    if args.spec:
        spec = PipelineSpec.from_json(Path(args.spec).read_text())
    else:
        # --quick shortens GNN training but keeps dim 32 (and the world
        # untouched): thin embeddings and thin streams both visibly slow
        # post-churn recovery, which is the subject here.
        gem_config = None
        if args.quick:
            from repro.core.config import GEMConfig
            from repro.embedding.bisage import BiSAGEConfig
            gem_config = GEMConfig(bisage=BiSAGEConfig(epochs=2))
        spec = arm_spec(args.arm, seed=args.seed, dim=32,
                        gem_config=gem_config, strict=False)
    if args.maintain and not spec.supports_refresh():
        print(f"error: --maintain needs a refresh-capable arm, but "
              f"{spec.describe()} is not (see `components` for capabilities)",
              file=sys.stderr)
        return 2
    scenario = user_scenario(args.user)
    drift = spec.drift
    if drift is None:
        epochs = args.epochs
        shock_epoch = args.shock_epoch if args.shock_epoch is not None \
            else max(1, epochs // 2 - 1)
        if not 1 <= shock_epoch < epochs:
            print(f"error: --shock-epoch must be in 1..{epochs - 1}, got {shock_epoch}",
                  file=sys.stderr)
            return 2
        # The user's own AP survives churn; the ambient neighbourhood does not.
        protect = list(home_ap_ids(scenario))
        drift = DriftSpec(num_epochs=epochs, seed=args.seed, schedules=(
            ComponentSpec("ap-churn", {"rate": args.churn, "protect": protect}),
            ComponentSpec("tx-power-drift", {}),
            ComponentSpec("device-gain-drift", {}),
            ComponentSpec("churn-shock", {"epoch": shock_epoch,
                                          "fraction": args.shock_fraction,
                                          "protect": protect}),
        ))
    else:
        # The spec's drift block is the whole workload: the CLI's epoch
        # and shock flags do not apply, and a workload without a
        # churn-shock schedule has no time-to-recovery to report.
        shock_epoch = next((entry.params.get("epoch") for entry in drift.schedules
                            if entry.name == "churn-shock"), None)
    harness = DriftHarness(drift.build_timeline(scenario), seed=args.seed,
                           train_duration_s=train_s, sessions_per_epoch=sessions,
                           session_duration_s=session_s)

    runs = [harness.run(build_pipeline(spec), label="online", online=True)]
    if not args.no_baseline:
        try:
            runs.append(harness.run(build_pipeline(spec), label="static", online=False))
        except TypeError as error:
            print(f"note: skipping static baseline: {error}", file=sys.stderr)
    if args.fleet:
        from repro.serve import GeofenceFleet
        with tempfile.TemporaryDirectory() as root:
            with GeofenceFleet(root, capacity=1) as fleet:
                fleet.provision("drift-tenant", harness.training_records(), spec=spec)
                runs.append(harness.run_fleet(fleet, "drift-tenant", label="fleet"))
    if args.maintain:
        from repro.serve import FleetController, GeofenceFleet, MaintenancePolicy
        policy = MaintenancePolicy(check_every=args.maintain,
                                   refresh_every=args.maintain)
        with tempfile.TemporaryDirectory() as root:
            with GeofenceFleet(root, capacity=1) as fleet:
                fleet.provision("maintained", harness.training_records(), spec=spec)
                controller = FleetController(fleet, policy)
                runs.append(harness.run_fleet(fleet, "maintained", label="refresh",
                                              controller=controller))

    headers = ["epoch", "records"]
    for run in runs:
        headers += [f"AUC {run.label}", f"FPR {run.label}"]
    headers.append("events")
    rows = []
    for i, base in enumerate(runs[0].epochs):
        row = [str(base.epoch), str(base.num_records)]
        for run in runs:
            m = run.epochs[i]
            row.append("--" if m.auc is None else f"{m.auc:.3f}")
            row.append(f"{m.fpr:.2f}")
        events = "; ".join(base.events)
        row.append(events[:44] or "-")
        rows.append(row)
    shock_note = f", shock at epoch {shock_epoch}" if shock_epoch is not None else ""
    print(format_table(headers, rows,
                       title=f"user-{args.user} drift: {spec.describe()}{shock_note}"))
    recovery = {}
    if shock_epoch is not None:
        recovery = {run.label: run.recovery_after(shock_epoch) for run in runs}
        for label, value in recovery.items():
            text = "never within this horizon" if value is None else f"{value} epoch(s)"
            print(f"time-to-recovery ({label}): {text}")
    if args.json_out:
        payload = {"user": args.user, "seed": args.seed, "shock_epoch": shock_epoch,
                   "pipeline": spec.to_dict(), "workload": drift.to_dict(),
                   "runs": [run.to_dict() for run in runs],
                   "recovery_epochs": recovery}
        Path(args.json_out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"trajectories written to {args.json_out}")
    return 0


class _GracefulShutdown:
    """SIGTERM/SIGINT -> a should-stop flag instead of a traceback.

    The serving subcommands check the flag between events, so a
    terminated replay still runs its full teardown: the scheduler stops,
    dirty tenants flush, and the final metrics snapshot is written.
    Calling the instance reads the flag (it is the ``should_stop``
    callable :func:`_replay_events` takes); handlers are restored on
    exit, and a second signal falls through to the previous handler so
    a wedged teardown can still be interrupted.
    """

    def __init__(self):
        self.signal_name: str | None = None
        self._previous: dict[int, object] = {}

    def __call__(self) -> bool:
        return self.signal_name is not None

    def _handle(self, signum, frame) -> None:
        import signal
        self.signal_name = signal.Signals(signum).name
        # Restore the previous disposition: one signal requests a
        # graceful stop, a second one escalates (default: terminate).
        for number, previous in self._previous.items():
            signal.signal(number, previous)

    def __enter__(self) -> "_GracefulShutdown":
        import signal
        for number in (signal.SIGTERM, signal.SIGINT):
            self._previous[number] = signal.signal(number, self._handle)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        import signal
        if self.signal_name is None:
            for number, previous in self._previous.items():
                signal.signal(number, previous)


def _replay_events(observe, events_path: Path, out_handle,
                   should_stop=None) -> int:
    """Stream JSONL events through ``observe``; returns events served.

    Raises ValueError with the offending line number on a malformed
    event, so callers surface one actionable error line.  A truthy
    ``should_stop()`` between events ends the replay early (graceful
    shutdown), leaving teardown to the caller.
    """
    from repro.core.io import record_from_dict
    served = 0
    with events_path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            if should_stop is not None and should_stop():
                break
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
                tenant = str(event["tenant"])
                record = record_from_dict(event)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                raise ValueError(f"{events_path}:{line_number}: bad event: {error}") \
                    from error
            decision = observe(tenant, record)
            out_handle.write(json.dumps({
                "tenant": tenant,
                "inside": decision.inside,
                # +inf means "could not be embedded"; JSON has no inf.
                "score": decision.score if math.isfinite(decision.score) else None,
                "confident": decision.confident,
            }) + "\n")
            served += 1
    return served


def _cmd_serve(args) -> int:
    from repro.serve import GeofenceFleet
    events_path = Path(args.events)
    if not events_path.is_file():
        print(f"error: no such events file: {events_path}", file=sys.stderr)
        return 2
    out_handle = open(args.out, "w") if args.out else sys.stdout
    try:
        with GeofenceFleet(args.registry, capacity=args.capacity) as fleet:
            served = _replay_events(fleet.observe, events_path, out_handle)
        print(f"served {served} events from {events_path}", file=sys.stderr)
    finally:
        if args.out:
            out_handle.close()
    return 0


def _cmd_runtime(args) -> int:
    from repro.serve import MaintenancePolicy, ServingRuntime
    events_path = Path(args.events)
    if not events_path.is_file():
        print(f"error: no such events file: {events_path}", file=sys.stderr)
        return 2
    policy = None
    if args.policy:
        policy = MaintenancePolicy.from_json(Path(args.policy).read_text())
    interval = args.interval if args.interval and args.interval > 0 else None
    out_handle = open(args.out, "w") if args.out else sys.stdout
    try:
        runtime = ServingRuntime(args.registry, capacity=args.capacity, policy=policy,
                                 incremental=not args.no_incremental,
                                 scheduler_interval=interval)
        dumper = None
        if args.metrics_out:
            from repro.obs import MetricsDumper
            dumper = MetricsDumper(runtime.metrics, args.metrics_out,
                                   interval=args.metrics_interval)
        with _GracefulShutdown() as shutdown, runtime:
            if dumper is not None:
                dumper.start()
            try:
                served = _replay_events(runtime.observe, events_path,
                                        out_handle, should_stop=shutdown)
                if runtime.scheduler is None:
                    # Serial mode: run the maintenance the daemon would have.
                    runtime.maintain()
            finally:
                if dumper is not None:
                    # Stop inside the runtime context: the final snapshot
                    # reads the live fleet, then close() can tear it down.
                    dumper.stop()
        # Report after close(): the final drain and flush write-backs
        # have happened, so the counters describe the whole replay.
        stats = runtime.stats()
        actions = runtime.maintenance_actions()
        if shutdown():
            print(f"{shutdown.signal_name}: stopped after {served} event(s); "
                  "scheduler drained, dirty tenants flushed", file=sys.stderr)
        print(f"served {served} events from {events_path}", file=sys.stderr)
        totals = stats["totals"]
        print(f"maintenance: {len(actions)} action(s); "
              f"refreshes={totals['refreshes']} reprovisions={totals['reprovisions']} "
              f"full saves={totals['saves']} delta saves={totals['delta_saves']}",
              file=sys.stderr)
        if stats["scheduler"] is not None:
            sched = stats["scheduler"]
            print(f"scheduler: {sched['ticks']} tick(s), "
                  f"{sched['decisions_drained']} decision(s) drained, "
                  f"{sched['errors']} error(s)", file=sys.stderr)
        if args.metrics_out:
            print(f"metrics snapshots appended to {args.metrics_out}",
                  file=sys.stderr)
    finally:
        if args.out:
            out_handle.close()
    return 0


def _quick_cluster_world(root: Path, router) -> Path:
    """Provision a tiny synthetic world through ``router``; returns the
    generated events file (two tenants, interleaved test sessions)."""
    from repro.core.io import record_to_dict
    from repro.eval.algorithms import arm_spec
    spec = arm_spec("GEM", seed=0, dim=16, gem_config=_quick_gem_config(),
                    strict=False)
    dataset = _user_dataset(1, quick=True)
    # These two hash to different workers of a 2-worker cluster
    # (shard_index: smoke-a -> 0, smoke-d -> 1), so the smoke run
    # exercises real fan-out, not one busy worker and one idle.
    tenants = ["smoke-a", "smoke-d"]
    for tenant in tenants:
        router.provision(tenant, dataset.train, spec=spec)
    events_path = root / "events.jsonl"
    with events_path.open("w") as handle:
        for position, labeled in enumerate(dataset.test):
            event = {"tenant": tenants[position % len(tenants)],
                     **record_to_dict(labeled.record)}
            handle.write(json.dumps(event) + "\n")
    return events_path


def _cmd_cluster(args) -> int:
    import tempfile

    from repro.serve import MaintenancePolicy
    from repro.serve.cluster import Router, spawn_local_worker

    if not args.quick and not (args.registry and args.events):
        print("error: pass --registry and --events, or --quick for a "
              "self-contained smoke run", file=sys.stderr)
        return 2
    if args.promote and not args.standby:
        print("error: --promote needs --standby", file=sys.stderr)
        return 2
    policy = MaintenancePolicy.from_json(Path(args.policy).read_text()) \
        if args.policy else None
    out_handle = open(args.out, "w") if args.out else sys.stdout
    scratch = tempfile.TemporaryDirectory() if args.quick else None
    try:
        root = Path(scratch.name) if scratch else None
        registry = args.registry or str(root / "registry")
        router = Router(registry, num_workers=args.workers,
                        capacity=args.capacity,
                        incremental=not args.no_incremental,
                        policy=policy, standby=args.standby,
                        timeout=args.timeout,
                        launcher=spawn_local_worker if args.local else None)
        dumper = None
        if args.metrics_out:
            from repro.obs import MetricsDumper
            dumper = MetricsDumper(router.metrics, args.metrics_out,
                                   interval=args.metrics_interval)
        with _GracefulShutdown() as shutdown, router:
            if dumper is not None:
                dumper.start()
            try:
                events_path = _quick_cluster_world(root, router) if args.quick \
                    else Path(args.events)
                if not events_path.is_file():
                    print(f"error: no such events file: {events_path}",
                          file=sys.stderr)
                    return 2
                served = _replay_events(router.observe, events_path,
                                        out_handle, should_stop=shutdown)
                router.maintain()
                flushed = router.flush()
                cluster_stats = router.stats()
                worker_stats = router.worker_stats()
                health = router.health_report() if args.health else None
                replication = router.replication_stats()
                report = router.promote() if args.promote else None
            finally:
                if dumper is not None:
                    dumper.stop()
        if shutdown():
            print(f"{shutdown.signal_name}: stopped after {served} event(s); "
                  "workers flushed and shut down", file=sys.stderr)
        print(f"served {served} events across {args.workers} worker(s); "
              f"flushed {flushed} tenant(s)", file=sys.stderr)
        totals = cluster_stats["totals"]
        print(f"cluster totals: {cluster_stats['requests']} request(s), "
              f"{totals['observations']} observation(s), "
              f"{cluster_stats['resident']} resident tenant(s), "
              f"{cluster_stats['busy_seconds']:.2f}s busy across "
              f"{cluster_stats['live_workers']} live worker(s)",
              file=sys.stderr)
        for stats in worker_stats:
            print(f"worker {stats['worker']} (pid {stats['pid']}): "
                  f"{stats['requests']} request(s), "
                  f"{stats['busy_seconds']:.2f}s busy", file=sys.stderr)
        if health is not None:
            print(_format_cluster_health(health), file=sys.stderr)
        if replication is not None:
            print(f"replication: {replication['applied']} applied, "
                  f"{replication['skipped']} skipped, "
                  f"{replication['rejected']} rejected; "
                  f"lag {replication['last_lag_seconds'] * 1e3:.1f} ms",
                  file=sys.stderr)
        if report is not None:
            print(f"promoted standby {args.standby}: {report.tenants} "
                  f"tenant(s), {report.compacted} compacted, "
                  f"{report.seconds * 1e3:.1f} ms failover", file=sys.stderr)
        if args.metrics_out:
            print(f"metrics snapshots appended to {args.metrics_out}",
                  file=sys.stderr)
    finally:
        if args.out:
            out_handle.close()
        if scratch is not None:
            scratch.cleanup()
    return 0


def _format_cluster_health(report: dict) -> str:
    """The ``--health`` table: folded probes, then per-worker rows."""
    from repro.eval.reporting import format_table
    rows = [["cluster" if name != "replication_lag" else "router",
             name, probe.get("status", "?"), f"{probe.get('value', 0):.6g}",
             str(probe.get("detail", ""))[:44] or "-"]
            for name, probe in sorted(report.get("probes", {}).items())]
    for worker in sorted(report.get("workers", {})):
        for name, probe in sorted(report["workers"][worker].items()):
            rows.append([worker, name, probe.get("status", "?"),
                         f"{probe.get('value', 0):.6g}",
                         str(probe.get("detail", ""))[:44] or "-"])
    return format_table(
        ["worker", "probe", "status", "value", "detail"], rows,
        title=f"Cluster health: {report.get('status', '?')}")


def _load_metrics_snapshot(path: Path, line: int) -> dict:
    """One metrics snapshot from a JSON or JSONL file.

    ``line`` is 1-based; 0 or negative indexes from the end (0 = last),
    matching how --metrics-out appends snapshots over time.
    """
    lines = [text for text in path.read_text().splitlines() if text.strip()]
    if not lines:
        raise ValueError(f"{path}: no metrics snapshots (empty file)")
    index = line - 1 if line > 0 else len(lines) - 1 + line
    if not 0 <= index < len(lines):
        raise ValueError(f"{path}: --line {line} out of range "
                         f"(file has {len(lines)} snapshot(s))")
    try:
        snapshot = json.loads(lines[index])
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: snapshot {index + 1} is not JSON: {error}") \
            from error
    if not isinstance(snapshot, dict):
        raise ValueError(f"{path}: snapshot {index + 1} is not a JSON object")
    return snapshot


def _summarise_metrics(snapshot: dict) -> str:
    from repro.eval.reporting import format_table
    from repro.obs import histogram_percentiles
    families = snapshot.get("families", snapshot)
    sections = []
    latency_rows, counter_rows = [], []
    for name in sorted(families):
        entry = families[name]
        if not isinstance(entry, dict) or "type" not in entry:
            continue
        for series in entry.get("series", ()):
            label_text = ",".join(f"{k}={v}" for k, v in
                                  sorted(series.get("labels", {}).items()))
            if entry["type"] == "histogram":
                p = histogram_percentiles(series)
                latency_rows.append([
                    name, label_text or "-", str(series["count"]),
                    *(("--" if p[q] is None else f"{p[q] * 1e3:.2f}")
                      for q in ("p50", "p90", "p99"))])
            else:
                value = series["value"]
                text = f"{value:.6g}" if isinstance(value, float) else str(value)
                counter_rows.append([name, entry["type"], label_text or "-", text])
    if latency_rows:
        sections.append(format_table(
            ["histogram", "labels", "count", "p50 ms", "p90 ms", "p99 ms"],
            latency_rows, title="Latency histograms"))
    if counter_rows:
        sections.append(format_table(["metric", "type", "labels", "value"],
                                     counter_rows, title="Counters and gauges"))
    health = snapshot.get("health")
    if isinstance(health, dict) and health:
        rows = [[name, probe.get("status", "?"), f"{probe.get('value', 0):.6g}",
                 f"{probe.get('warn_at', 0):.6g}",
                 f"{probe.get('critical_at', 0):.6g}",
                 str(probe.get("detail", ""))[:44] or "-"]
                for name, probe in sorted(health.items())]
        sections.append(format_table(
            ["probe", "status", "value", "warn", "critical", "detail"],
            rows, title="Health probes"))
    traces = snapshot.get("traces")
    if isinstance(traces, dict) and traces.get("slow_traces"):
        rows: list[list[str]] = []

        def _walk(span: dict, depth: int) -> None:
            # Indented tree rows: a cluster snapshot shows the worker
            # subtree stitched under the router span that caused it.
            rows.append([("  " * depth) + str(span.get("name", "?")),
                         f"{(span.get('seconds') or 0.0) * 1e3:.2f}",
                         ",".join(f"{k}={v}" for k, v in
                                  sorted(span.get("attrs", {}).items()))[:44]
                         or "-"])
            for child in span.get("children", ()):
                _walk(child, depth + 1)

        for trace in traces["slow_traces"]:
            _walk(trace, 0)
        sections.append(format_table(
            ["span", "ms", "attrs"], rows,
            title=f"Slow traces (threshold "
                  f"{traces.get('slow_threshold', 0.0):.3g}s)"))
    if not sections:
        return "(snapshot holds no metric families)"
    return "\n\n".join(sections)


def _summarise_diff(diff: dict) -> str:
    from repro.eval.reporting import format_table
    rows = []
    for name in sorted(diff.get("families", {})):
        family = diff["families"][name]
        for series in family.get("series", ()):
            delta = series.get("delta", 0)
            value = series.get("value")
            if not delta and value is None:
                continue              # unchanged counter/histogram: noise
            rate = series.get("rate")
            label_text = ",".join(f"{k}={v}" for k, v in
                                  sorted(series.get("labels", {}).items()))
            rows.append([name, family.get("type", "?"), label_text or "-",
                         f"{delta:.6g}",
                         "--" if rate is None else f"{rate:.6g}",
                         "--" if value is None else f"{value:.6g}"])
    if not rows:
        return "(no changes between the snapshots)"
    interval = diff.get("interval_seconds")
    title = "Snapshot deltas" if not interval \
        else f"Snapshot deltas over {interval:.2f}s"
    return format_table(["metric", "type", "labels", "delta", "rate/s",
                         "value"], rows, title=title)


def _cmd_obs(args) -> int:
    from repro.obs import diff_snapshots, render_prometheus, snapshot_to_json
    paths = [Path(p) for p in args.path]
    for path in paths:
        if not path.is_file():
            print(f"error: no such metrics file: {path}", file=sys.stderr)
            return 2
    if len(paths) > 2 or (len(paths) == 2 and not args.diff):
        print("error: pass one snapshot file, or two with --diff",
              file=sys.stderr)
        return 2
    if args.diff:
        if args.format == "prometheus":
            print("error: --diff has no Prometheus exposition form "
                  "(rates are what a real scraper computes server-side)",
                  file=sys.stderr)
            return 2
        if len(paths) == 2:
            earlier = _load_metrics_snapshot(paths[0], args.line)
            later = _load_metrics_snapshot(paths[1], args.line)
        else:
            # One JSONL trail: first snapshot vs the --line selection.
            earlier = _load_metrics_snapshot(paths[0], 1)
            later = _load_metrics_snapshot(paths[0], args.line)
        diff = diff_snapshots(earlier, later)
        text = snapshot_to_json(diff) + "\n" if args.format == "json" \
            else _summarise_diff(diff) + "\n"
    else:
        snapshot = _load_metrics_snapshot(paths[0], args.line)
        if args.format == "prometheus":
            text = render_prometheus(snapshot)
        elif args.format == "json":
            text = snapshot_to_json(snapshot) + "\n"
        else:
            text = _summarise_metrics(snapshot) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_maintain(args) -> int:
    from repro.eval.reporting import format_table
    from repro.serve import (QUARANTINE_METADATA_KEY, RESERVOIR_METADATA_KEY,
                             GeofenceFleet, ModelRegistry)
    from repro.serve.quarantine import DEFAULT_QUARANTINE_SIZE

    registry = ModelRegistry(args.registry)
    known = registry.tenants()
    if args.tenants.strip().lower() == "all":
        targets = known
    else:
        targets = [t.strip() for t in args.tenants.split(",") if t.strip()]
        missing = [t for t in targets if t not in known]
        if missing:
            print(f"error: no checkpoint for tenant(s) {missing} under "
                  f"{registry.root}", file=sys.stderr)
            return 2
    if not targets:
        print(f"error: no tenants under {registry.root}", file=sys.stderr)
        return 2

    rows, payload = [], {}
    if args.dry_run:
        from repro.core.io import records_from_columns
        from repro.serve.checkpoint import load_state, spec_from_manifest
        for tenant_id in targets:
            # load_state, not read_manifest: the record sets come back
            # from the npz inside the metadata.  An unreadable checkpoint
            # (e.g. an unsupported format version) raises CheckpointError.
            _, manifest = load_state(registry.path_for(tenant_id))
            spec = spec_from_manifest(manifest)
            reservoir = manifest["metadata"].get(RESERVOIR_METADATA_KEY) or {}
            size = sum(len(records_from_columns(reservoir.get(part, ())))
                       for part in ("anchor", "recent"))
            quarantine = manifest["metadata"].get(QUARANTINE_METADATA_KEY) or {}
            qsize = len(records_from_columns(quarantine.get("records", ())))
            capable = spec.supports_refresh()
            rows.append([tenant_id, spec.describe(),
                         "yes" if capable else "no", str(size), str(qsize)])
            payload[tenant_id] = {"arm": spec.describe(),
                                  "supports_refresh": capable,
                                  "reservoir": size,
                                  "quarantine": qsize}
        print(format_table(["tenant", "arm", "refresh?", "reservoir", "quarantine"],
                           rows, title=f"maintain --dry-run over {registry.root}"))
    else:
        import time as _time
        # The recover action needs a quarantine-armed fleet so the
        # persisted buffer is restored from checkpoint metadata (a
        # quarantine_size=0 fleet carries the metadata forward untouched
        # but never materialises the buffer).
        quarantine_size = DEFAULT_QUARANTINE_SIZE if args.action == "recover" else 0
        with GeofenceFleet(registry, capacity=1,
                           quarantine_size=quarantine_size) as fleet:
            for tenant_id in targets:
                start = _time.perf_counter()
                try:
                    if args.action == "refresh":
                        absorbed = fleet.refresh(tenant_id)
                        outcome = f"refit on {absorbed} inlier(s)"
                    elif args.action == "recover":
                        model = fleet.reprovision_from_quarantine(
                            tenant_id, max_fpr=args.max_fpr)
                        outcome = (f"recovered {type(model).__name__} from "
                                   "quarantine")
                    else:
                        model = fleet.reprovision(tenant_id)
                        outcome = f"refitted {type(model).__name__} from reservoir"
                    status = args.action
                except (TypeError, ValueError) as error:
                    status, outcome = "skipped", str(error)
                seconds = _time.perf_counter() - start
                # Write back (and free the slot) before the next tenant.
                fleet.evict(tenant_id)
                rows.append([tenant_id, status, f"{seconds:.2f}", outcome[:60]])
                payload[tenant_id] = {"status": status, "seconds": seconds,
                                      "outcome": outcome}
        print(format_table(["tenant", "status", "seconds", "outcome"], rows,
                           title=f"maintain --action {args.action} over {registry.root}"))
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"report written to {args.json_out}")
    return 0


_COMMANDS = {
    "components": _cmd_components,
    "spec": _cmd_spec,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "serve": _cmd_serve,
    "runtime": _cmd_runtime,
    "serve-daemon": _cmd_runtime,
    "cluster": _cmd_cluster,
    "maintain": _cmd_maintain,
    "drift": _cmd_drift,
    "obs": _cmd_obs,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    from repro.serve import CheckpointError
    try:
        return _COMMANDS[args.command](args)
    except (CheckpointError, OSError, ValueError) as error:
        # Expected operator mistakes (unknown arm, missing file, torn or
        # absent checkpoint, bad spec JSON): one line, no traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
