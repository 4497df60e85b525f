"""``python -m repro`` CLI: spec emit, train, eval, serve, components."""

import json

import pytest

from conftest import synthetic_records, write_json_form
from repro.cli import main
from repro.core.io import record_to_dict, save_records
from repro.serve import ModelRegistry, load_checkpoint


def run(*argv):
    return main(list(argv))


class TestComponentsAndSpec:
    def test_components_lists_registry(self, capsys):
        assert run("components") == 0
        out = capsys.readouterr().out
        for name in ("bisage", "histogram", "lof", "gem", "inoa"):
            assert name in out

    def test_spec_emits_valid_json(self, tmp_path, capsys):
        spec_path = tmp_path / "arm.json"
        assert run("spec", "--arm", "BiSAGE+LOF", "--dim", "16",
                   "-o", str(spec_path)) == 0
        data = json.loads(spec_path.read_text())
        assert data["embedder"]["name"] == "bisage"
        assert data["embedder"]["params"]["dim"] == 16
        assert data["detector"]["name"] == "lof"


class TestTrainEvalServe:
    @pytest.fixture()
    def records_file(self, tmp_path):
        path = tmp_path / "train.jsonl"
        save_records(synthetic_records(30, seed=0, center=2.0), path)
        return path

    def test_train_from_spec_file_to_checkpoint(self, tmp_path, records_file, capsys):
        spec_path = tmp_path / "spec.json"
        assert run("spec", "--arm", "GEM(no-BiSAGE)", "-o", str(spec_path)) == 0
        out_dir = tmp_path / "ckpt"
        assert run("train", "--spec", str(spec_path),
                   "--records", str(records_file), "--out", str(out_dir)) == 0
        model = load_checkpoint(out_dir)
        assert model.spec.embedder.name == "imputed-matrix"

    def test_train_into_registry_then_serve(self, tmp_path, records_file, capsys):
        registry_root = tmp_path / "reg"
        assert run("train", "--arm", "GEM(no-BiSAGE)",
                   "--records", str(records_file),
                   "--registry", str(registry_root), "--tenant", "t1") == 0
        assert "t1" in ModelRegistry(registry_root)

        events = tmp_path / "events.jsonl"
        with events.open("w") as handle:
            for record in synthetic_records(4, seed=5, center=2.0):
                event = record_to_dict(record)
                event["tenant"] = "t1"
                handle.write(json.dumps(event) + "\n")
        out_path = tmp_path / "decisions.jsonl"
        assert run("serve", "--registry", str(registry_root),
                   "--events", str(events), "-o", str(out_path)) == 0
        decisions = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(decisions) == 4
        assert all(d["tenant"] == "t1" and isinstance(d["inside"], bool)
                   for d in decisions)

    def test_train_requires_a_destination(self, records_file, capsys):
        assert run("train", "--arm", "GEM", "--records", str(records_file)) == 2

    def test_eval_quick_writes_metrics_json(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert run("eval", "--arms", "GEM(no-BiSAGE)", "--quick",
                   "--json", str(metrics_path)) == 0
        payload = json.loads(metrics_path.read_text())
        assert set(payload) == {"GEM(no-BiSAGE)"}
        assert 0.0 <= payload["GEM(no-BiSAGE)"]["f_in"] <= 1.0

    def test_eval_rejects_unknown_arm(self, capsys):
        assert run("eval", "--arms", "MagicNet") == 2

    def test_eval_list(self, capsys):
        assert run("eval", "--list") == 0
        assert "SignatureHome" in capsys.readouterr().out

    def test_serve_rejects_bad_event(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text('{"no_tenant": true}\n')
        assert run("serve", "--registry", str(tmp_path / "reg"),
                   "--events", str(events)) == 2


class TestMaintain:
    @pytest.fixture()
    def registry_root(self, tmp_path):
        """Two refresh-capable tenants trained through the CLI."""
        records_path = tmp_path / "train.jsonl"
        save_records(synthetic_records(30, seed=0, center=2.0), records_path)
        spec_path = tmp_path / "spec.json"
        spec = {"spec_version": 1, "model": {"name": "gem", "params": {
            "bisage": {"dim": 8, "epochs": 1}}}}
        spec_path.write_text(json.dumps(spec))
        root = tmp_path / "reg"
        for tenant in ("t1", "t2"):
            assert run("train", "--spec", str(spec_path),
                       "--records", str(records_path),
                       "--registry", str(root), "--tenant", tenant) == 0
        return root

    def test_dry_run_reports_capability_and_reservoir(self, registry_root, tmp_path, capsys):
        assert run("maintain", "--registry", str(registry_root), "--dry-run") == 0
        out = capsys.readouterr().out
        assert "t1" in out and "t2" in out
        assert "model gem" in out
        assert "yes" in out          # refresh-capable
        assert "30" in out           # reservoir seeded from training records
        # The counts are what a fleet restores, from the columnar form and
        # from the JSON form earlier releases wrote.
        from repro.core import SignalRecord
        from repro.serve import GeofenceFleet
        from repro.serve.quarantine import home_anchor_macs
        with GeofenceFleet(registry_root, capacity=1, quarantine_size=32) as fleet:
            home = sorted(home_anchor_macs(fleet.reservoir("t1")))[:3]
            for i in range(40):
                fleet.observe("t1", SignalRecord(
                    {**{mac: -50.0 - i % 3 for mac in home},
                     **{f"new{k}": -55.0 - 4 * k for k in range(5)}}, timestamp=100.0 + i))
            for record in synthetic_records(6, seed=0, center=2.0):
                fleet.observe("t2", record)
            expected = {tenant: {"reservoir": len(fleet.reservoir(tenant)),
                                 "quarantine": len(fleet.quarantine(tenant))}
                        for tenant in ("t1", "t2")}
        assert expected["t1"]["quarantine"] > 0
        assert expected["t2"]["reservoir"] > 30
        report = tmp_path / "dry.json"
        for form in ("columns", "json"):
            if form == "json":
                for tenant in ("t1", "t2"):
                    write_json_form(registry_root / tenant)
            assert run("maintain", "--registry", str(registry_root), "--dry-run",
                       "--json", str(report)) == 0
            payload = json.loads(report.read_text())
            assert {tenant: {key: payload[tenant][key] for key in ("reservoir", "quarantine")}
                    for tenant in payload} == expected, form

    def test_refresh_all_tenants(self, registry_root, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run("maintain", "--registry", str(registry_root),
                   "--json", str(report)) == 0
        payload = json.loads(report.read_text())
        assert set(payload) == {"t1", "t2"}
        for entry in payload.values():
            assert entry["status"] == "refresh"
            assert "refit on 30" in entry["outcome"]

    def test_refresh_is_persisted(self, registry_root, capsys):
        from repro.serve import ModelRegistry
        before = ModelRegistry(registry_root).manifest("t1")["save_id"]
        assert run("maintain", "--registry", str(registry_root),
                   "--tenants", "t1") == 0
        after = ModelRegistry(registry_root).manifest("t1")["save_id"]
        assert after != before

    def test_reprovision_action(self, registry_root, capsys):
        assert run("maintain", "--registry", str(registry_root),
                   "--tenants", "t1", "--action", "reprovision") == 0
        assert "refitted GEM from reservoir" in capsys.readouterr().out

    def test_tenant_without_reservoir_is_skipped(self, tmp_path, capsys):
        """Legacy checkpoints (no reservoir) report, not crash."""
        from repro.serve import ModelRegistry
        from repro.pipeline import build_pipeline, PipelineSpec
        spec = PipelineSpec.from_dict({"model": {"name": "gem", "params": {
            "bisage": {"dim": 8, "epochs": 1}}}})
        model = build_pipeline(spec)
        model.fit(synthetic_records(20, seed=0, center=2.0))
        root = tmp_path / "reg"
        ModelRegistry(root).save("legacy", model)
        assert run("maintain", "--registry", str(root)) == 0
        out = capsys.readouterr().out
        assert "skipped" in out

    def test_dry_run_handles_format1_checkpoint(self, tmp_path, capsys):
        """Format-1 manifests (no embedded spec) migrate in the report."""
        from repro.core.config import GEMConfig
        from repro.core.gem import GEM
        from repro.embedding.bisage import BiSAGEConfig
        from repro.serve import save_checkpoint
        from repro.serve.checkpoint import MANIFEST_NAME
        model = GEM(GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1)))
        model.fit(synthetic_records(20, seed=0, center=2.0))
        root = tmp_path / "reg"
        directory = save_checkpoint(model, root / "legacy")
        manifest_path = directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        del manifest["pipeline_spec"]
        manifest_path.write_text(json.dumps(manifest))
        assert run("maintain", "--registry", str(root), "--dry-run") == 0
        out = capsys.readouterr().out
        assert "legacy" in out and "model gem" in out

    def test_unknown_tenant_exits_two(self, registry_root, capsys):
        assert run("maintain", "--registry", str(registry_root),
                   "--tenants", "nobody") == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_registry_exits_two(self, tmp_path, capsys):
        assert run("maintain", "--registry", str(tmp_path / "empty")) == 2


class TestDrift:
    def test_small_drift_run_emits_trajectories(self, tmp_path, capsys):
        json_path = tmp_path / "drift.json"
        assert run("drift", "--user", "1", "--epochs", "3", "--sessions", "2",
                   "--session-s", "20", "--train-s", "60", "--shock-epoch", "1",
                   "--quick", "--no-baseline", "--json", str(json_path)) == 0
        payload = json.loads(json_path.read_text())
        assert payload["shock_epoch"] == 1
        assert [e["name"] for e in payload["workload"]["schedules"]] == \
               ["ap-churn", "tx-power-drift", "device-gain-drift", "churn-shock"]
        (online,) = payload["runs"]
        assert online["label"] == "online"
        assert [m["epoch"] for m in online["epochs"]] == [0, 1, 2]
        for m in online["epochs"]:
            assert 0.0 <= m["fpr"] <= 1.0
            assert m["auc"] is None or 0.0 <= m["auc"] <= 1.0
        assert "time-to-recovery (online)" in capsys.readouterr().out

    def test_drift_run_is_deterministic(self, tmp_path, capsys):
        args = ("drift", "--user", "1", "--epochs", "3", "--sessions", "2",
                "--session-s", "20", "--train-s", "60", "--shock-epoch", "1",
                "--quick", "--no-baseline")
        assert run(*args, "--json", str(tmp_path / "a.json")) == 0
        assert run(*args, "--json", str(tmp_path / "b.json")) == 0
        assert json.loads((tmp_path / "a.json").read_text()) == \
               json.loads((tmp_path / "b.json").read_text())

    def test_drift_spec_file_with_drift_block(self, tmp_path, capsys):
        spec = {
            "spec_version": 1,
            "model": {"name": "gem", "params": {
                "bisage": {"dim": 8, "epochs": 1}}},
            "drift": {"num_epochs": 3, "seed": 0, "schedules": [
                {"name": "ap-churn", "params": {"rate": 0.2}},
                {"name": "churn-shock", "params": {"epoch": 2, "fraction": 0.4}},
            ]},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        json_path = tmp_path / "out.json"
        assert run("drift", "--spec", str(spec_path), "--user", "1",
                   "--sessions", "2", "--session-s", "20", "--train-s", "60",
                   "--no-baseline", "--json", str(json_path)) == 0
        payload = json.loads(json_path.read_text())
        # The spec's drift block wins over the CLI flags.
        assert payload["shock_epoch"] == 2
        assert len(payload["runs"][0]["epochs"]) == 3

    def test_drift_bad_shock_epoch(self, capsys):
        assert run("drift", "--epochs", "3", "--shock-epoch", "5") == 2
        assert "error:" in capsys.readouterr().err

    def test_drift_spec_missing_schedule_param_exits_two(self, tmp_path, capsys):
        """Operator mistakes exit 2 with one stderr line, never a traceback."""
        spec = {"spec_version": 1, "model": {"name": "gem", "params": {}},
                "drift": {"num_epochs": 3, "schedules": [
                    {"name": "churn-shock", "params": {"fraction": 0.4}}]}}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert run("drift", "--spec", str(spec_path), "--user", "1",
                   "--no-baseline") == 2
        err = capsys.readouterr().err
        assert "error:" in err and "churn-shock" in err

    def test_drift_spec_without_shock_reports_no_recovery(self, tmp_path, capsys):
        spec = {"spec_version": 1,
                "model": {"name": "gem", "params": {"bisage": {"dim": 8, "epochs": 1}}},
                "drift": {"num_epochs": 2, "schedules": [
                    {"name": "ap-churn", "params": {"rate": 0.2}}]}}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        json_path = tmp_path / "out.json"
        assert run("drift", "--spec", str(spec_path), "--user", "1",
                   "--sessions", "2", "--session-s", "20", "--train-s", "60",
                   "--no-baseline", "--json", str(json_path)) == 0
        out = capsys.readouterr().out
        assert "time-to-recovery" not in out
        payload = json.loads(json_path.read_text())
        # No churn-shock schedule: nothing to fabricate a recovery from.
        assert payload["shock_epoch"] is None
        assert payload["recovery_epochs"] == {}
        assert len(payload["runs"][0]["epochs"]) == 2

    @pytest.mark.slow
    def test_quick_drift_shows_recovery_against_static_baseline(self, tmp_path, capsys):
        """The acceptance shape: online GEM recovers from the churn shock,
        the frozen static snapshot stays degraded."""
        json_path = tmp_path / "drift.json"
        assert run("drift", "--quick", "--fleet", "--json", str(json_path)) == 0
        payload = json.loads(json_path.read_text())
        runs = {r["label"]: r for r in payload["runs"]}
        assert set(runs) == {"online", "static", "fleet"}
        assert payload["recovery_epochs"]["online"] is not None
        last_on = runs["online"]["epochs"][-1]
        last_off = runs["static"]["epochs"][-1]
        assert last_on.get("auc") >= last_off.get("auc") + 0.02
        assert last_off["fpr"] >= last_on["fpr"] + 0.3
        # The fleet replay (forced evict/reload mid-stream) matches the
        # plain online replay bit for bit.
        assert runs["fleet"]["epochs"] == runs["online"]["epochs"]


class TestErrorHandling:
    """Operator mistakes exit 2 with one stderr line, never a traceback."""

    def test_spec_unknown_arm(self, capsys):
        assert run("spec", "--arm", "Nope") == 2
        assert "error:" in capsys.readouterr().err

    def test_train_missing_records_file(self, tmp_path, capsys):
        assert run("train", "--arm", "GEM", "--records",
                   str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "o")) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_unknown_tenant(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text('{"tenant": "ghost", "rss": {"aa": -50.0}}\n')
        assert run("serve", "--registry", str(tmp_path / "reg"),
                   "--events", str(events)) == 2
        assert "error:" in capsys.readouterr().err


class TestRuntimeDaemon:
    @pytest.fixture()
    def served_world(self, tmp_path):
        """A registry with one GEM tenant plus an event stream for it."""
        records_path = tmp_path / "train.jsonl"
        save_records(synthetic_records(30, seed=0, center=2.0), records_path)
        registry_root = tmp_path / "reg"
        assert run("train", "--arm", "GEM", "--quick",
                   "--records", str(records_path),
                   "--registry", str(registry_root), "--tenant", "t1") == 0
        events = tmp_path / "events.jsonl"
        with events.open("w") as handle:
            for record in synthetic_records(24, seed=5, center=2.0):
                event = record_to_dict(record)
                event["tenant"] = "t1"
                handle.write(json.dumps(event) + "\n")
        return registry_root, events

    def test_runtime_replays_with_background_maintenance(self, tmp_path,
                                                         served_world, capsys):
        registry_root, events = served_world
        policy_path = tmp_path / "policy.json"
        policy_path.write_text('{"check_every": 4, "refresh_every": 8}\n')
        out_path = tmp_path / "decisions.jsonl"
        assert run("runtime", "--registry", str(registry_root),
                   "--events", str(events),
                   "--policy", str(policy_path), "--interval", "0.01",
                   "-o", str(out_path)) == 0
        decisions = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(decisions) == 24
        err = capsys.readouterr().err
        assert f"served 24 events from {events}" in err
        assert "scheduler:" in err and "drained" in err

    def test_serve_daemon_alias_serial_mode(self, tmp_path, served_world, capsys):
        registry_root, events = served_world
        policy_path = tmp_path / "policy.json"
        policy_path.write_text('{"check_every": 4, "refresh_every": 8}\n')
        assert run("serve-daemon", "--registry", str(registry_root),
                   "--events", str(events), "--interval", "0",
                   "--policy", str(policy_path)) == 0
        err = capsys.readouterr().err
        # Serial mode: maintenance ran synchronously at the end, and no
        # background scheduler line was printed.
        assert "refreshes=" in err
        assert "scheduler:" not in err

    def test_runtime_decisions_match_serve(self, tmp_path, served_world, capsys):
        import shutil
        registry_root, events = served_world
        # Separate registry copies: each replay advances its tenant's
        # checkpoint, so sharing one root would chain the streams.
        runtime_root = tmp_path / "reg-runtime"
        shutil.copytree(registry_root, runtime_root)
        serve_out = tmp_path / "serve.jsonl"
        runtime_out = tmp_path / "runtime.jsonl"
        assert run("serve", "--registry", str(registry_root),
                   "--events", str(events), "-o", str(serve_out)) == 0
        assert run("runtime", "--registry", str(runtime_root),
                   "--events", str(events),
                   "--interval", "0", "--no-incremental",
                   "-o", str(runtime_out)) == 0
        assert runtime_out.read_text() == serve_out.read_text()

    def test_runtime_missing_events_file(self, tmp_path, capsys):
        assert run("runtime", "--registry", str(tmp_path / "reg"),
                   "--events", str(tmp_path / "missing.jsonl")) == 2
        assert "error:" in capsys.readouterr().err


class TestObservabilityCLI:
    @pytest.fixture()
    def metrics_file(self, tmp_path, capsys):
        """Run the runtime daemon with --metrics-out; return the JSONL."""
        records_path = tmp_path / "train.jsonl"
        save_records(synthetic_records(30, seed=0, center=2.0), records_path)
        registry_root = tmp_path / "reg"
        assert run("train", "--arm", "GEM", "--quick",
                   "--records", str(records_path),
                   "--registry", str(registry_root), "--tenant", "t1") == 0
        events = tmp_path / "events.jsonl"
        with events.open("w") as handle:
            for record in synthetic_records(12, seed=5, center=2.0):
                event = record_to_dict(record)
                event["tenant"] = "t1"
                handle.write(json.dumps(event) + "\n")
        metrics_path = tmp_path / "metrics.jsonl"
        assert run("runtime", "--registry", str(registry_root),
                   "--events", str(events), "--interval", "0",
                   "--metrics-out", str(metrics_path)) == 0
        assert "metrics snapshots appended to" in capsys.readouterr().err
        return metrics_path

    def test_metrics_out_appends_parseable_snapshots(self, metrics_file):
        lines = metrics_file.read_text().splitlines()
        assert len(lines) >= 1          # at least the final stop() snapshot
        snapshot = json.loads(lines[-1])
        assert "at" in snapshot
        families = snapshot["families"]
        assert "repro_decisions_total" in families
        assert "repro_op_seconds" in families
        assert set(snapshot["health"]) >= {"stuck_refresh", "decision_bus_depth"}

    def test_obs_render_summary(self, metrics_file, capsys):
        assert run("obs", "render", str(metrics_file)) == 0
        out = capsys.readouterr().out
        assert "Latency histograms" in out
        assert "Counters and gauges" in out
        assert "Health probes" in out
        assert "repro_op_seconds" in out

    def test_obs_render_prometheus(self, metrics_file, capsys):
        assert run("obs", "render", str(metrics_file),
                   "--format", "prometheus") == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_op_seconds histogram" in out
        assert 'le="+Inf"' in out

    def test_obs_render_json_to_file(self, metrics_file, tmp_path, capsys):
        out_path = tmp_path / "snapshot.json"
        assert run("obs", "render", str(metrics_file),
                   "--format", "json", "-o", str(out_path)) == 0
        assert "wrote" in capsys.readouterr().out
        snapshot = json.loads(out_path.read_text())
        assert "families" in snapshot

    def test_obs_render_line_selection(self, metrics_file, capsys):
        # --line 1 (first snapshot) and --line 0 (last) both work.
        assert run("obs", "render", str(metrics_file), "--line", "1") == 0
        capsys.readouterr()
        assert run("obs", "render", str(metrics_file), "--line", "99") == 2
        assert "out of range" in capsys.readouterr().err

    def test_obs_render_missing_file(self, tmp_path, capsys):
        assert run("obs", "render", str(tmp_path / "nope.jsonl")) == 2
        assert "no such metrics file" in capsys.readouterr().err

    def test_obs_render_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("obs", "render", str(empty)) == 2
        assert "no metrics snapshots" in capsys.readouterr().err

    @staticmethod
    def snapshot_line(at, decisions, resident):
        return json.dumps({"at": at, "families": {
            "repro_decisions_total": {
                "type": "counter", "help": "", "labels": ["tenant_class"],
                "series": [{"labels": {"tenant_class": "all"},
                            "value": decisions}]},
            "repro_tenants_resident": {
                "type": "gauge", "help": "", "labels": ["tenant_class"],
                "series": [{"labels": {"tenant_class": "all"},
                            "value": resident}]},
        }}) + "\n"

    def test_obs_render_diff_two_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(self.snapshot_line(100.0, 10, 2))
        b.write_text(self.snapshot_line(110.0, 15, 2))
        assert run("obs", "render", str(a), str(b), "--diff") == 0
        out = capsys.readouterr().out
        assert "Snapshot deltas over 10.00s" in out
        assert "repro_decisions_total" in out
        assert "0.5" in out                 # 5 decisions / 10s
        # The unchanged gauge still shows its level; value column = 2.
        assert "repro_tenants_resident" in out

    def test_obs_render_diff_single_trail(self, tmp_path, capsys):
        trail = tmp_path / "trail.jsonl"
        trail.write_text(self.snapshot_line(100.0, 10, 2)
                         + self.snapshot_line(105.0, 30, 3))
        assert run("obs", "render", str(trail), "--diff") == 0
        out = capsys.readouterr().out
        assert "Snapshot deltas over 5.00s" in out
        assert "20" in out and "4" in out   # delta and rate/s

    def test_obs_render_diff_json(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(self.snapshot_line(100.0, 10, 2))
        b.write_text(self.snapshot_line(110.0, 15, 4))
        assert run("obs", "render", str(a), str(b), "--diff",
                   "--format", "json") == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["interval_seconds"] == 10.0
        family = diff["families"]["repro_decisions_total"]
        assert family["series"][0]["delta"] == 5
        assert family["series"][0]["rate"] == pytest.approx(0.5)
        gauge = diff["families"]["repro_tenants_resident"]["series"][0]
        assert (gauge["delta"], gauge["value"]) == (2, 4)

    def test_obs_render_diff_identical_snapshots(self, tmp_path, capsys):
        # Counter-only snapshot: a self-diff is pure noise and says so.
        # (Gauges always render — their level matters even unchanged.)
        trail = tmp_path / "one.jsonl"
        line = json.loads(self.snapshot_line(100.0, 10, 2))
        del line["families"]["repro_tenants_resident"]
        trail.write_text(json.dumps(line) + "\n")
        assert run("obs", "render", str(trail), "--diff") == 0
        assert "(no changes" in capsys.readouterr().out

    def test_obs_render_path_count_errors(self, tmp_path, capsys):
        trail = tmp_path / "t.jsonl"
        trail.write_text(self.snapshot_line(1.0, 1, 1))
        assert run("obs", "render", str(trail), str(trail)) == 2
        assert "one snapshot file, or two with --diff" \
            in capsys.readouterr().err
        assert run("obs", "render", str(trail), str(trail), str(trail),
                   "--diff") == 2
        assert "one snapshot file" in capsys.readouterr().err

    def test_obs_render_diff_rejects_prometheus(self, tmp_path, capsys):
        trail = tmp_path / "t.jsonl"
        trail.write_text(self.snapshot_line(1.0, 1, 1))
        assert run("obs", "render", str(trail), "--diff",
                   "--format", "prometheus") == 2
        assert "no Prometheus exposition form" in capsys.readouterr().err


class TestClusterCLI:
    @pytest.fixture()
    def cluster_world(self, tmp_path):
        """Two provisioned tenants (on different workers of 2) + events."""
        from repro.core import GEM, GEMConfig
        from repro.embedding.bisage import BiSAGEConfig
        from repro.serve import ServingRuntime

        fast = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))
        registry_root = tmp_path / "reg"
        tenants = ["smoke-a", "smoke-d"]    # shard_index(t, 2) = 0 and 1
        with ServingRuntime(registry_root, model_factory=lambda: GEM(fast),
                            scheduler_interval=None) as runtime:
            for index, tenant in enumerate(tenants):
                runtime.provision(tenant, synthetic_records(
                    25, num_macs=10, seed=index, center=2.0 + index))
        events = tmp_path / "events.jsonl"
        with events.open("w") as handle:
            for position, record in enumerate(synthetic_records(10, num_macs=10,
                                                                seed=77)):
                event = record_to_dict(record)
                event["tenant"] = tenants[position % 2]
                handle.write(json.dumps(event) + "\n")
        return registry_root, events

    def test_cluster_local_replay(self, tmp_path, cluster_world, capsys):
        registry_root, events = cluster_world
        out_path = tmp_path / "decisions.jsonl"
        assert run("cluster", "--registry", str(registry_root),
                   "--events", str(events), "--workers", "2", "--local",
                   "-o", str(out_path)) == 0
        decisions = [json.loads(line)
                     for line in out_path.read_text().splitlines()]
        assert len(decisions) == 10
        assert {d["tenant"] for d in decisions} == {"smoke-a", "smoke-d"}
        err = capsys.readouterr().err
        assert "served 10 events across 2 worker(s)" in err
        assert "worker 0" in err and "worker 1" in err

    def test_cluster_standby_promote_and_metrics(self, tmp_path, cluster_world,
                                                 capsys):
        from repro.serve import ModelRegistry
        registry_root, events = cluster_world
        standby = tmp_path / "standby"
        metrics_path = tmp_path / "metrics.jsonl"
        assert run("cluster", "--registry", str(registry_root),
                   "--events", str(events), "--workers", "2", "--local",
                   "--standby", str(standby), "--promote",
                   "--metrics-out", str(metrics_path),
                   "-o", str(tmp_path / "decisions.jsonl")) == 0
        err = capsys.readouterr().err
        assert "replication:" in err and "rejected" in err
        assert "promoted standby" in err
        # The promoted standby is a complete, loadable registry.
        promoted = ModelRegistry(standby)
        assert sorted(promoted.tenants()) == ["smoke-a", "smoke-d"]
        load_checkpoint(standby / "smoke-a")
        snapshots = [json.loads(line)
                     for line in metrics_path.read_text().splitlines()]
        assert snapshots and "families" in snapshots[-1]
        assert "repro_router_requests_total" in snapshots[-1]["families"]

    def test_cluster_without_registry_or_quick_exits_two(self, capsys):
        assert run("cluster", "--workers", "2") == 2
        assert "--registry and --events" in capsys.readouterr().err

    def test_cluster_promote_needs_standby(self, tmp_path, capsys):
        assert run("cluster", "--registry", str(tmp_path / "reg"),
                   "--events", str(tmp_path / "events.jsonl"),
                   "--promote") == 2
        assert "--promote needs --standby" in capsys.readouterr().err

    def test_cluster_missing_events_file(self, tmp_path, cluster_world, capsys):
        registry_root, _ = cluster_world
        assert run("cluster", "--registry", str(registry_root),
                   "--events", str(tmp_path / "nope.jsonl"), "--local") == 2
        assert "no such events file" in capsys.readouterr().err

    def test_cluster_health_and_live_totals(self, tmp_path, cluster_world,
                                            capsys):
        registry_root, events = cluster_world
        assert run("cluster", "--registry", str(registry_root),
                   "--events", str(events), "--workers", "2", "--local",
                   "--health", "-o", str(tmp_path / "decisions.jsonl")) == 0
        err = capsys.readouterr().err
        # Live Router.stats() aggregate, printed before per-worker lines.
        assert "cluster totals:" in err
        assert "10 observation(s)" in err
        assert "2 resident tenant(s)" in err
        assert "2 live worker(s)" in err
        # Health rollup table: folded grades plus per-worker rows.
        assert "Cluster health: ok" in err
        assert "worker_up" in err and "replication_lag" in err
        for probe_owner in ("cluster", "router", "0", "1"):
            assert probe_owner in err

    def test_cluster_merged_metrics_out(self, tmp_path, cluster_world,
                                        capsys):
        registry_root, events = cluster_world
        metrics_path = tmp_path / "metrics.jsonl"
        assert run("cluster", "--registry", str(registry_root),
                   "--events", str(events), "--workers", "2", "--local",
                   "--metrics-out", str(metrics_path),
                   "-o", str(tmp_path / "decisions.jsonl")) == 0
        capsys.readouterr()
        snapshot = json.loads(metrics_path.read_text().splitlines()[-1])
        families = snapshot["families"]
        decisions = families["repro_decisions_total"]
        assert decisions["labels"] == ["tenant_class", "result", "worker"]
        aggregated = sum(e["value"] for e in decisions["series"]
                         if "worker" not in e["labels"])
        per_worker = sum(e["value"] for e in decisions["series"]
                         if "worker" in e["labels"])
        assert aggregated == per_worker == 10
        assert snapshot["health"]["worker_up"]["status"] == "ok"
        # The aggregated JSONL renders through the same obs tooling.
        assert run("obs", "render", str(metrics_path)) == 0
        out = capsys.readouterr().out
        assert "repro_decisions_total" in out
        assert "worker=0" in out or "worker=1" in out


class TestGracefulShutdown:
    def test_signal_sets_flag_and_replay_stops(self, tmp_path):
        import os
        import signal

        from repro.cli import _GracefulShutdown, _replay_events

        events = tmp_path / "events.jsonl"
        with events.open("w") as handle:
            for record in synthetic_records(8, seed=3):
                event = record_to_dict(record)
                event["tenant"] = "t1"
                handle.write(json.dumps(event) + "\n")

        class FakeRuntime:
            def __init__(self):
                self.seen = 0

            def observe(self, tenant, record):
                self.seen += 1
                if self.seen == 3:      # the operator hits ctrl-C mid-replay
                    os.kill(os.getpid(), signal.SIGTERM)
                from repro.core.protocols import GeofenceDecision
                return GeofenceDecision(inside=True, score=0.1)

        fake = FakeRuntime()
        out = tmp_path / "decisions.jsonl"
        with out.open("w") as out_handle:
            with _GracefulShutdown() as shutdown:
                assert not shutdown()
                served = _replay_events(fake.observe, events, out_handle,
                                        should_stop=shutdown)
        assert shutdown() and shutdown.signal_name == "SIGTERM"
        # The in-flight event finished, the rest were skipped cleanly.
        assert served == 3 and fake.seen == 3

    def test_handlers_restored_after_clean_exit(self):
        import signal

        from repro.cli import _GracefulShutdown

        before = signal.getsignal(signal.SIGTERM)
        with _GracefulShutdown() as shutdown:
            assert signal.getsignal(signal.SIGTERM) != before
        assert not shutdown()
        assert signal.getsignal(signal.SIGTERM) == before


class TestConsoleScript:
    def test_entry_point_maps_to_cli_main(self):
        # `pip install .` exposes `repro`; the mapping must point at a
        # real callable even in a source-tree run.
        import tomllib
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["repro"] == "repro.cli:main"
        module_name, _, attr = scripts["repro"].partition(":")
        import importlib
        assert callable(getattr(importlib.import_module(module_name), attr))
