"""Streaming drift — temporal robustness as a continuous workload.

Not a single paper figure: this runs the paper's temporal claims
(Fig. 9/10 MAC churn, Sec. IV-C self-update) as *deployments* instead
of one-shot ablations.  A dynamic world evolves over simulated days
while one GEM serves it online (embed + detector self-update) and an
identically-trained frozen snapshot serves it statically.  Reported
shapes to watch:

* **churn shock**: after a one-shot replacement of 30 % of the ambient
  APs, online GEM's AUC dips then recovers within a few epochs while
  the static snapshot's false-alarm rate stays pinned near 1 — the
  Fig. 9/10 trend replayed through time;
* **progressive retirement**: APs disappearing a few per epoch (the
  MAC-removal ablation as a drift schedule) barely moves online GEM
  but steadily degrades the snapshot;
* **coordinated refresh**: a fleet tenant whose controller runs the
  coordinated refresh (detector refit on the anchored inlier reservoir,
  re-embedded by the frozen embedder) recovers from the
  churn shock at least as fast as pure online self-update, and strictly
  beats the frozen snapshot.  This is the headline number the
  control-plane redesign exists for.

Every trajectory also lands as machine-readable JSON under
``benchmarks/results/*.json`` for regression tooling.
"""

import tempfile

from bench_common import (FULL, churn_shock_schedules, write_json_result,
                          write_result)

from repro.core.config import GEMConfig
from repro.datasets.users import user_scenario
from repro.embedding.bisage import BiSAGEConfig
from repro.eval.algorithms import arm_spec
from repro.eval.drift import DriftHarness
from repro.eval.reporting import format_table
from repro.pipeline import build_pipeline
from repro.rf.dynamics import APChurn, DynamicsTimeline, home_ap_ids

NUM_EPOCHS = 10 if FULL else 8
SHOCK_EPOCH = 3
GEM_CONFIG = GEMConfig(bisage=BiSAGEConfig(epochs=2))


def make_harness(schedules, scenario) -> DriftHarness:
    timeline = DynamicsTimeline(scenario, schedules, num_epochs=NUM_EPOCHS, seed=0)
    return DriftHarness(timeline, seed=0, train_duration_s=180.0,
                        sessions_per_epoch=4, session_duration_s=45.0)


def gem():
    return build_pipeline(arm_spec("GEM", gem_config=GEM_CONFIG))


def run_pair(harness: DriftHarness):
    """The same trained arm replayed online and as a frozen snapshot."""
    online = harness.run(gem(), label="online", online=True)
    static = harness.run(gem(), label="static", online=False)
    return online, static


def run_churn_shock():
    scenario = user_scenario(3)
    schedules = churn_shock_schedules(scenario, SHOCK_EPOCH, 0.3)
    return run_pair(make_harness(schedules, scenario))


def run_progressive_retirement():
    scenario = user_scenario(3)
    schedules = [APChurn(rate=0.06, replace=False, protect=home_ap_ids(scenario))]
    return run_pair(make_harness(schedules, scenario))


def emit(name: str, title: str, online, static, extra: dict) -> None:
    rows = [[str(a.epoch), str(a.num_records),
             f"{a.auc:.3f}", f"{a.fpr:.2f}", str(a.updates_buffered),
             f"{b.auc:.3f}", f"{b.fpr:.2f}", "; ".join(a.events) or "-"]
            for a, b in zip(online.epochs, static.epochs)]
    write_result(name, format_table(
        ["epoch", "records", "AUC on", "FPR on", "updates", "AUC off", "FPR off",
         "events"], rows, title=title))
    write_json_result(name, {"online": online.to_dict(), "static": static.to_dict(),
                             **extra})


def test_drift_churn_shock(benchmark):
    online, static = benchmark.pedantic(run_churn_shock, rounds=1, iterations=1)
    online_recovery = online.recovery_after(SHOCK_EPOCH)
    static_recovery = static.recovery_after(SHOCK_EPOCH)
    emit("drift_churn_shock",
         f"Churn shock at epoch {SHOCK_EPOCH} (30% of ambient APs replaced)",
         online, static,
         {"shock_epoch": SHOCK_EPOCH,
          "recovery_epochs": {"online": online_recovery, "static": static_recovery}})
    last_on, last_off = online.epochs[-1], static.epochs[-1]
    pre_shock = [m.auc for m in online.epochs if m.epoch < SHOCK_EPOCH]
    # The Fig. 9/10 trend, replayed through time: the online model takes
    # the hit but climbs back to its pre-shock level...
    assert online_recovery is not None
    assert last_on.auc >= min(pre_shock) - 0.02
    # ...while the frozen snapshot stays degraded: false alarms pinned
    # high and ranking quality strictly below the online model's.
    assert last_off.fpr >= last_on.fpr + 0.3
    assert last_on.auc >= last_off.auc + 0.02


def run_refresh_comparison():
    """Three maintenance strategies over the identical churn-shock stream."""
    from repro.serve import FleetController, GeofenceFleet, MaintenancePolicy

    scenario = user_scenario(3)
    schedules = churn_shock_schedules(scenario, SHOCK_EPOCH, 0.3)
    harness = make_harness(schedules, scenario)
    per_epoch = len(harness.epoch_records(0))

    online = harness.run(gem(), label="online", online=True)
    static = harness.run(gem(), label="static", online=False)
    policy = MaintenancePolicy(check_every=max(per_epoch // 4, 1),
                               refresh_every=max(per_epoch // 2, 1))
    with tempfile.TemporaryDirectory() as root:
        with GeofenceFleet(root, capacity=1, reservoir_size=256) as fleet:
            fleet.provision("tenant", harness.training_records(),
                            spec=arm_spec("GEM", gem_config=GEM_CONFIG))
            controller = FleetController(fleet, policy)
            refresh = harness.run_fleet(fleet, "tenant", label="refresh",
                                        controller=controller)
            refresh.meta["refreshes"] = fleet.telemetry.totals().refreshes
    return online, static, refresh


def test_drift_coordinated_refresh(benchmark):
    """The control-plane headline: coordinated refresh recovers at least
    as fast as pure online self-update; the frozen snapshot is strictly
    worse."""
    online, static, refresh = benchmark.pedantic(
        run_refresh_comparison, rounds=1, iterations=1)
    recoveries = {run.label: run.recovery_after(SHOCK_EPOCH)
                  for run in (online, static, refresh)}
    rows = [[str(a.epoch), str(a.num_records),
             f"{a.auc:.3f}", f"{b.auc:.3f}", f"{c.auc:.3f}",
             "; ".join(a.events) or "-"]
            for a, b, c in zip(refresh.epochs, online.epochs, static.epochs)]
    write_result("drift_coordinated_refresh", format_table(
        ["epoch", "records", "AUC refresh", "AUC online", "AUC static",
         "events"], rows,
        title=f"Coordinated refresh vs alternatives (shock at epoch {SHOCK_EPOCH})"))
    write_json_result("drift_coordinated_refresh", {
        "shock_epoch": SHOCK_EPOCH,
        "recovery_epochs": recoveries,
        "runs": {run.label: run.to_dict()
                 for run in (online, static, refresh)}})
    # Coordinated refresh: at least as fast as pure online self-update...
    assert recoveries["refresh"] is not None
    assert recoveries["online"] is not None
    assert recoveries["refresh"] <= recoveries["online"]
    # ...with the false-alarm rate fully recovered by the horizon...
    assert refresh.epochs[-1].fpr <= online.epochs[-1].fpr + 0.05
    assert refresh.epochs[-1].auc >= min(m.auc for m in refresh.epochs
                                         if m.epoch < SHOCK_EPOCH) - 0.02
    # ...while the frozen snapshot stays strictly worse: slower to
    # recover (or never) and degraded at the end.
    slow = recoveries["static"]
    assert slow is None or slow > recoveries["refresh"]
    assert static.epochs[-1].auc <= refresh.epochs[-1].auc - 0.02
    assert static.epochs[-1].fpr >= refresh.epochs[-1].fpr + 0.3


def test_drift_progressive_retirement(benchmark):
    online, static = benchmark.pedantic(run_progressive_retirement,
                                        rounds=1, iterations=1)
    emit("drift_progressive_retirement",
         "Progressive AP retirement (MAC removal as a drift schedule)",
         online, static, {})
    last_on, last_off = online.epochs[-1], static.epochs[-1]
    # Online GEM keeps absorbing records over the surviving MACs and ends
    # essentially unimpaired; the snapshot's false-alarm rate collapses.
    assert last_on.auc >= 0.95
    assert last_on.fpr <= 0.2
    assert last_off.fpr >= last_on.fpr + 0.3
    assert all(a.auc >= b.auc - 0.03
               for a, b in zip(online.epochs, static.epochs) if a.auc and b.auc)
