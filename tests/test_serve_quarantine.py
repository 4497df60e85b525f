"""Quarantine buffers + starvation recovery: admission, determinism,
persistence, the recovery control path, and bit-identity when disabled."""

import json

import numpy as np
import pytest

from conftest import synthetic_records, write_json_form
from repro.core import GEM, GEMConfig
from repro.core.io import record_to_dict
from repro.core.protocols import GeofenceDecision
from repro.core.records import SignalRecord
from repro.embedding.bisage import BiSAGEConfig
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    QUARANTINE_METADATA_KEY,
    RESERVOIR_METADATA_KEY,
    CheckpointError,
    ConsistencyGate,
    FleetController,
    GeofenceFleet,
    MaintenancePolicy,
    ModelRegistry,
    QuarantineBuffer,
    RecoveryPolicy,
    ServingRuntime,
    home_anchor_macs,
)
from repro.serve.checkpoint import load_state, read_manifest
from repro.serve.quarantine import ANCHOR_MARGIN_DB, HOME_ANCHOR_FRACTION

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))


def make_gem() -> GEM:
    return GEM(FAST_CONFIG)


def train_records(n: int = 30):
    return synthetic_records(n, num_macs=10, seed=0, center=2.0)


def new_world_record(i: int, home, rng) -> SignalRecord:
    """Post-shock scan: home APs still near the top, ambient replaced."""
    readings = {}
    for mac in sorted(home)[:3]:
        readings[mac] = float(-50.0 + rng.normal(0, 2.0))
    for k in range(5):
        readings[f"new{k:02d}"] = float(-55.0 - 4 * k + rng.normal(0, 2.0))
    return SignalRecord(readings, timestamp=1000.0 + i)


def drive_new_world(fleet, tenant: str, home, n: int = 120, seed: int = 7):
    rng = np.random.default_rng(seed)
    return [fleet.observe(tenant, new_world_record(i, home, rng))
            for i in range(n)]


class AcceptAll:
    def predict(self, record):
        return True


class RejectAll:
    def predict(self, record):
        return False


# ----------------------------------------------------------------------
# home_anchor_macs
# ----------------------------------------------------------------------
class TestHomeAnchorMacs:
    def test_majority_macs_only(self):
        records = [SignalRecord({"home": -50.0, f"amb{i}": -70.0})
                   for i in range(5)]
        assert home_anchor_macs(records) == {"home"}

    def test_threshold_is_inclusive(self):
        records = [SignalRecord({"a": -50.0, "b": -60.0, "c": -60.0}),
                   SignalRecord({"a": -50.0, "b": -60.0, "c": -60.0}),
                   SignalRecord({"a": -50.0, "b": -60.0, "d": -60.0}),
                   SignalRecord({"a": -50.0, "e": -60.0}),
                   SignalRecord({"a": -50.0, "e": -60.0})]
        # a: 5/5; b: 3/5 sits exactly on the 0.6 floor; c, e: 2/5 miss it.
        assert HOME_ANCHOR_FRACTION == 0.6
        assert home_anchor_macs(records) == {"a", "b"}

    def test_empty_records(self):
        assert home_anchor_macs([]) == frozenset()


# ----------------------------------------------------------------------
# ConsistencyGate
# ----------------------------------------------------------------------
class TestConsistencyGate:
    def test_augment_is_deterministic_per_rng(self):
        gate = ConsistencyGate()
        record = SignalRecord({f"m{i}": -50.0 - i for i in range(8)})
        a = gate.augment(record, np.random.default_rng(3))
        b = gate.augment(record, np.random.default_rng(3))
        assert a.readings == b.readings

    def test_augment_keeps_at_least_one_reading(self):
        gate = ConsistencyGate(dropout=0.99)
        record = SignalRecord({"a": -50.0, "b": -60.0})
        for seed in range(20):
            out = gate.augment(record, np.random.default_rng(seed))
            assert out.readings
            # When everything drops, the strongest survives.
            if len(out.readings) == 1 and "b" not in out.readings:
                assert "a" in out.readings

    def test_gain_is_global_and_clamped(self):
        gate = ConsistencyGate(dropout=0.0, gain_sigma_db=50.0, max_gain_db=3.0)
        record = SignalRecord({"a": -50.0, "b": -60.0})
        out = gate.augment(record, np.random.default_rng(0))
        shifts = {out.readings["a"] - (-50.0), out.readings["b"] - (-60.0)}
        assert len({round(s, 9) for s in shifts}) == 1     # one global offset
        assert abs(next(iter(shifts))) <= 3.0 + 1e-9

    def test_stable_rejection_semantics(self):
        gate = ConsistencyGate(passes=3)
        record = SignalRecord({"a": -50.0, "b": -60.0})
        assert gate.stable_rejection(RejectAll(), record,
                                     np.random.default_rng(0))
        assert not gate.stable_rejection(AcceptAll(), record,
                                         np.random.default_rng(0))

    @pytest.mark.parametrize("kwargs", [{"passes": 0}, {"passes": True},
                                        {"dropout": 1.0}, {"dropout": -0.1},
                                        {"gain_sigma_db": -1.0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ConsistencyGate(**kwargs)


# ----------------------------------------------------------------------
# QuarantineBuffer unit behaviour
# ----------------------------------------------------------------------
def anchored_record(i: int) -> SignalRecord:
    return SignalRecord({"home": -50.0, f"amb{i % 7}": -60.0},
                        timestamp=float(i))


class TestQuarantineBuffer:
    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            QuarantineBuffer(0)

    def test_no_anchor_is_rejected_without_rng_use(self):
        buffer = QuarantineBuffer(4)
        buffer.set_home({"home"})
        far = SignalRecord({"home": -90.0, "amb": -40.0})    # 50 dB off the top
        assert buffer.consider(RejectAll(), far) == "no-anchor"
        assert buffer.offered == 0 and buffer.seen == 0

    def test_anchor_margin(self):
        assert ANCHOR_MARGIN_DB == 12.0
        buffer = QuarantineBuffer(4)
        buffer.set_home({"home"})
        assert buffer.anchored(SignalRecord({"home": -61.9, "amb": -50.0}))
        assert not buffer.anchored(SignalRecord({"home": -62.1, "amb": -50.0}))

    def test_inconsistent_candidates_are_dropped(self):
        buffer = QuarantineBuffer(4, gate=ConsistencyGate())
        buffer.set_home({"home"})
        assert buffer.consider(AcceptAll(), anchored_record(0)) == "inconsistent"
        assert buffer.offered == 1 and buffer.seen == 0 and buffer.depth == 0

    def test_bounded_with_reservoir_turnover(self):
        buffer = QuarantineBuffer(8, tenant_key="t")
        buffer.set_home({"home"})
        outcomes = [buffer.consider(RejectAll(), anchored_record(i))
                    for i in range(100)]
        assert buffer.depth == 8
        assert buffer.seen == 100
        assert outcomes[:8] == ["admitted"] * 8
        tail = outcomes[8:]
        assert "sampled-out" in tail and "admitted" in tail

    def test_retained_set_is_seed_deterministic(self):
        def run(tenant_key):
            buffer = QuarantineBuffer(8, tenant_key=tenant_key)
            buffer.set_home({"home"})
            for i in range(200):
                buffer.consider(RejectAll(), anchored_record(i))
            return [r.timestamp for r in buffer.records]

        assert run("a") == run("a")
        assert run("a") != run("b")

    def test_slot_choice_is_frozen(self):
        """Exact admissions of a fixed stream, pinned: the slot hash and
        the gate's per-candidate generator must keep their input bytes,
        or persisted buffers continue a different sample after reload."""
        buffer = QuarantineBuffer(4, tenant_key="t", gate=None)
        buffer.set_home({"home"})
        outcomes = []
        for i in range(24):
            record = (SignalRecord({"home": -90.0, "amb": -40.0},
                                   timestamp=float(i))
                      if i % 5 == 3 else anchored_record(i))
            outcomes.append(buffer.consider(RejectAll(), record))
        A, N, S = "admitted", "no-anchor", "sampled-out"
        assert outcomes == [A, A, A, N, A, A, A, A, N, S, S, A,
                            S, N, S, S, A, S, N, S, S, S, S, N]
        assert [r.timestamp for r in buffer.records] == [6.0, 7.0, 16.0, 11.0]
        assert [r.readings for r in buffer.records] == [
            {"home": -50.0, "amb6": -60.0}, {"home": -50.0, "amb0": -60.0},
            {"home": -50.0, "amb2": -60.0}, {"home": -50.0, "amb4": -60.0}]
        assert (buffer.seen, buffer.offered) == (19, 19)
        assert [buffer._candidate_rng(i).random() for i in range(3)] == [
            0.7895547020280439, 0.32095789549131415, 0.34118585872591745]

    def test_round_trip_mid_stream_matches_uninterrupted(self):
        """Evict/reload anywhere in the stream must not change the sample."""
        def uninterrupted():
            buffer = QuarantineBuffer(8, tenant_key="t")
            buffer.set_home({"home"})
            for i in range(150):
                buffer.consider(RejectAll(), anchored_record(i))
            return buffer

        for cut in (0, 7, 8, 80, 149):
            buffer = QuarantineBuffer(8, tenant_key="t")
            buffer.set_home({"home"})
            for i in range(cut):
                buffer.consider(RejectAll(), anchored_record(i))
            reloaded = QuarantineBuffer.from_state(
                buffer.state_dict(), capacity=8, tenant_key="t")
            for i in range(cut, 150):
                reloaded.consider(RejectAll(), anchored_record(i))
            want = uninterrupted()
            assert [r.timestamp for r in reloaded.records] \
                == [r.timestamp for r in want.records]
            assert (reloaded.seen, reloaded.offered) == (want.seen, want.offered)

    def test_gate_rng_round_trips_via_offered_counter(self):
        """The gate's per-candidate randomness keys on ``offered``, so a
        reloaded buffer grades the next candidate identically."""
        gate = ConsistencyGate()
        a = QuarantineBuffer(4, tenant_key="t", gate=gate)
        a.set_home({"home"})
        for i in range(10):
            a.consider(RejectAll(), anchored_record(i))
        b = QuarantineBuffer.from_state(a.state_dict(), capacity=4,
                                        tenant_key="t", gate=gate)
        probe = anchored_record(999)
        assert a._candidate_rng(a.offered).random() \
            == b._candidate_rng(b.offered).random()
        assert a.consider(RejectAll(), probe) == b.consider(RejectAll(), probe)

    def test_state_dict_round_trip_and_shrunk_capacity(self):
        buffer = QuarantineBuffer(8, tenant_key="t")
        buffer.set_home({"home", "other"})
        for i in range(20):
            buffer.consider(RejectAll(), anchored_record(i))
        state = buffer.state_dict()
        assert isinstance(state["records"]["edges"], np.ndarray)   # columnar
        # The JSON form earlier releases persisted still loads.
        legacy = json.loads(json.dumps({**state, "records": [
            record_to_dict(record) for record in buffer.records]}))
        for persisted in (state, legacy):
            same = QuarantineBuffer.from_state(persisted, capacity=8,
                                               tenant_key="t")
            assert same.records == buffer.records
            assert same.home_macs == buffer.home_macs
            assert (same.seen, same.offered) == (buffer.seen, buffer.offered)
        smaller = QuarantineBuffer.from_state(state, capacity=3,
                                              tenant_key="t")
        assert smaller.depth == 3
        assert [r.timestamp for r in smaller.records] \
            == [r.timestamp for r in buffer.records[:3]]

    def test_dormant_and_clear(self):
        buffer = QuarantineBuffer(4)
        assert buffer.dormant
        buffer.set_home({"home"})
        buffer.consider(RejectAll(), anchored_record(0))
        assert not buffer.dormant
        assert buffer.depth == 1
        buffer.clear()
        assert buffer.dormant and buffer.depth == 0
        assert (buffer.seen, buffer.offered) == (0, 0)


# ----------------------------------------------------------------------
# RecoveryPolicy / MaintenancePolicy embedding
# ----------------------------------------------------------------------
class TestRecoveryPolicy:
    def test_defaults_serialise_empty(self):
        assert RecoveryPolicy().to_dict() == {}

    def test_json_round_trip(self):
        policy = RecoveryPolicy(after_stuck=3, starvation_window=50,
                                min_quarantine=24, auto=True, max_fpr=0.3)
        clone = RecoveryPolicy.from_dict(json.loads(json.dumps(policy.to_dict())))
        assert clone == policy

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            RecoveryPolicy.from_dict({"after_stuck": 2, "typo": 1})

    @pytest.mark.parametrize("kwargs", [{"after_stuck": 0},
                                        {"min_quarantine": 0},
                                        {"starvation_window": 0},
                                        {"auto": 1},
                                        {"max_fpr": 1.5}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kwargs)

    def test_maintenance_policy_coerces_mapping(self):
        policy = MaintenancePolicy(check_every=4,
                                   recovery={"after_stuck": 3, "auto": True})
        assert isinstance(policy.recovery, RecoveryPolicy)
        assert policy.recovery.after_stuck == 3
        clone = MaintenancePolicy.from_json(policy.to_json())
        assert clone == policy
        assert "recovery" in json.loads(policy.to_json())

    def test_maintenance_policy_rejects_bad_recovery(self):
        with pytest.raises(ValueError, match="recovery"):
            MaintenancePolicy(recovery="yes please")


# ----------------------------------------------------------------------
# Fleet integration: bit-identity, persistence, recovery mechanics
# ----------------------------------------------------------------------
@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "models")


def provisioned_fleet(registry, quarantine_size, **kwargs):
    fleet = GeofenceFleet(registry, capacity=2, model_factory=make_gem,
                          quarantine_size=quarantine_size, **kwargs)
    fleet.provision("t", train_records())
    return fleet


class TestFleetQuarantine:
    def test_quarantine_off_is_bit_identical(self, tmp_path):
        """Differential: the quarantine feed must not perturb decisions."""
        streams = {}
        for size in (0, 32):
            registry = ModelRegistry(tmp_path / f"m{size}")
            fleet = provisioned_fleet(registry, quarantine_size=size)
            home = home_anchor_macs(train_records())
            decisions = drive_new_world(fleet, "t", home, n=60)
            inliers = [fleet.observe("t", record)
                       for record in train_records(10)]
            streams[size] = [(d.inside, d.score, d.buffered, d.updated)
                             for d in decisions + inliers]
            fleet.close()
        assert streams[0] == streams[32]

    def test_negative_size_rejected(self, registry):
        with pytest.raises(ValueError, match="quarantine_size"):
            GeofenceFleet(registry, quarantine_size=-1)

    def test_inside_decisions_never_feed_quarantine(self, registry):
        fleet = provisioned_fleet(registry, quarantine_size=32)
        rejected = set()
        for record in train_records(20):
            if not fleet.observe("t", record).inside:
                rejected.add(record.timestamp)
        assert {r.timestamp for r in fleet.quarantine("t")} <= rejected

    @pytest.mark.parametrize("incremental", [False, True])
    def test_survives_evict_reload(self, registry, incremental):
        """Carry-forward across write-back + reload, full and delta formats."""
        fleet = provisioned_fleet(registry, quarantine_size=32,
                                  incremental=incremental)
        home = home_anchor_macs(train_records())
        drive_new_world(fleet, "t", home, n=40)
        depth = fleet.quarantine_depth("t")
        assert depth > 0
        evidence = [r.readings for r in fleet.quarantine("t")]
        assert fleet.evict("t")
        assert fleet.quarantine_depth("t") == 0        # load-free by design
        assert [r.readings for r in fleet.quarantine("t")] == evidence
        assert fleet.quarantine_depth("t") == depth
        fleet.close()

    def test_provision_over_a_resident_tenant_drops_its_evidence(self, registry):
        """Provisioning replaces the whole resident record, quarantine
        included, and the fleet-wide depth gauge follows."""
        fleet = provisioned_fleet(registry, quarantine_size=32)
        drive_new_world(fleet, "t", home_anchor_macs(train_records()), n=40)
        assert fleet.quarantine_depth("t") > 0
        fleet.provision("t", train_records())
        assert fleet.quarantine_depths() == {}
        gauge = fleet.telemetry.metrics.snapshot()["repro_quarantine_depth"]
        assert gauge["series"][0]["value"] == 0
        fleet.close()

    def test_reload_continues_the_same_sample(self, tmp_path):
        """A fleet evicted mid-stream retains exactly the records an
        uninterrupted fleet would have."""
        home = home_anchor_macs(train_records())

        def run(root, evict_at):
            fleet = provisioned_fleet(ModelRegistry(root), quarantine_size=8)
            rng = np.random.default_rng(7)
            for i in range(90):
                if i == evict_at:
                    fleet.evict("t")
                fleet.observe("t", new_world_record(i, home, rng))
            evidence = [r.timestamp for r in fleet.quarantine("t")]
            fleet.close()
            return evidence

        assert run(tmp_path / "a", evict_at=45) == run(tmp_path / "b", evict_at=-1)

    def test_quarantine_metadata_layout(self, registry):
        fleet = provisioned_fleet(registry, quarantine_size=32)
        home = home_anchor_macs(train_records())
        drive_new_world(fleet, "t", home, n=40)
        fleet.flush("t")
        # Counters and home MACs stay in the manifest JSON; the records
        # are columnar arrays in the npz.
        manifest = json.loads((registry.path_for("t") / "manifest.json").read_text())
        assert set(manifest["metadata"]) == {QUARANTINE_METADATA_KEY}
        assert set(manifest["metadata"][QUARANTINE_METADATA_KEY]) == {"seen", "offered", "home"}
        _, manifest = registry.load_with_manifest("t")
        records = manifest["metadata"][QUARANTINE_METADATA_KEY]["records"]
        assert len(records["records"]) == fleet.quarantine_depth("t")

    def test_disabled_fleet_carries_metadata_forward(self, registry):
        """A quarantine_size=0 fleet must neither consume nor drop the
        persisted buffer of a fleet that ran with it enabled."""
        fleet = provisioned_fleet(registry, quarantine_size=32)
        home = home_anchor_macs(train_records())
        drive_new_world(fleet, "t", home, n=40)
        fleet.close()
        plain = GeofenceFleet(registry, capacity=2, model_factory=make_gem)
        for record in train_records(5):
            plain.observe("t", record)
        plain.close()
        revived = GeofenceFleet(registry, capacity=2, model_factory=make_gem,
                                quarantine_size=32)
        assert revived.quarantine("t")
        revived.close()

    def test_recovery_refits_and_consumes_evidence(self, registry):
        fleet = provisioned_fleet(registry, quarantine_size=32)
        home = home_anchor_macs(train_records())
        drive_new_world(fleet, "t", home, n=120)
        evidence = fleet.quarantine("t")
        assert len(evidence) == 32
        fresh = fleet.reprovision_from_quarantine("t", max_fpr=0.5)
        # The evidence set became the pinned anchor...
        assert [r.readings for r in fleet.reservoir("t")] \
            == [r.readings for r in evidence]
        # ...the buffer was consumed, and its home anchor moved on.
        assert fleet.quarantine_depth("t") == 0
        accepted = sum(fresh.predict(record) for record in evidence)
        assert accepted / len(evidence) >= 0.5
        assert fleet.is_dirty("t")

    def test_recovery_rolls_back_on_high_fpr(self, registry):
        fleet = provisioned_fleet(registry, quarantine_size=32)
        home = home_anchor_macs(train_records())
        drive_new_world(fleet, "t", home, n=120)
        probe = new_world_record(999, home, np.random.default_rng(1))
        before = fleet.resident("t").score(probe)
        with pytest.raises(ValueError, match="rolled back"):
            fleet.reprovision_from_quarantine("t", max_fpr=0.0)
        # Old model keeps serving, evidence intact: that *is* the snapshot.
        assert fleet.resident("t").score(probe) == before
        assert fleet.quarantine_depth("t") == 32

    def test_recovery_requires_quarantine(self, registry):
        fleet = provisioned_fleet(registry, quarantine_size=0)
        with pytest.raises(ValueError, match="quarantine_size=0"):
            fleet.reprovision_from_quarantine("t")
        armed = GeofenceFleet(registry, capacity=2, model_factory=make_gem,
                              quarantine_size=32)
        with pytest.raises(ValueError, match="empty quarantine"):
            armed.reprovision_from_quarantine("t")


# ----------------------------------------------------------------------
# Checkpoint forms of the reservoir and quarantine records
# ----------------------------------------------------------------------
def holds_record_dicts(directory) -> bool:
    metadata = read_manifest(directory)["metadata"]
    return RESERVOIR_METADATA_KEY in metadata \
        or "records" in metadata.get(QUARANTINE_METADATA_KEY, {})


class TestJSONFormCheckpoints:
    """Checkpoints saved while the reservoir and quarantine records were
    JSON dicts inside the manifest."""

    FLEET = dict(capacity=1, model_factory=make_gem, reservoir_size=8, quarantine_size=8)

    def _saved_tenant(self, root, incremental):
        fleet = GeofenceFleet(root, incremental=incremental, **self.FLEET)
        fleet.provision("t", train_records())
        drive_new_world(fleet, "t", home_anchor_macs(train_records()), n=40)
        for record in train_records(6):
            fleet.observe("t", record)
        fleet.close()  # a delta write-back when incremental
        assert bool(read_manifest(root / "t").get("deltas")) == incremental
        return root / "t"

    def _serve(self, root, incremental):
        """Reservoir and quarantine on load, then decisions across an
        evict/reload, then both again."""
        fleet = GeofenceFleet(root, incremental=incremental, **self.FLEET)
        state = [fleet.reservoir("t"), fleet.quarantine("t")]
        home = home_anchor_macs(train_records())
        rng = np.random.default_rng(11)
        decisions = [fleet.observe("t", new_world_record(100 + i, home, rng)) for i in range(10)]
        fleet.evict("t")
        decisions += [fleet.observe("t", record) for record in train_records(8)]
        state += [fleet.reservoir("t"), fleet.quarantine("t")]
        fleet.close()
        return state, decisions

    @pytest.mark.parametrize("incremental", [False, True], ids=["full", "mid-chain"])
    def test_loads_identically_and_is_rewritten_as_columns(self, tmp_path, incremental):
        current = self._saved_tenant(tmp_path / "current", incremental)
        legacy = self._saved_tenant(tmp_path / "legacy", incremental)
        write_json_form(legacy)
        assert holds_record_dicts(legacy) and not holds_record_dicts(current)
        assert not [key for key in read_manifest(legacy)["array_keys"]
                    if key.startswith("__metadata__/")]
        served = self._serve(tmp_path / "legacy", incremental)
        assert served == self._serve(tmp_path / "current", incremental)
        assert served[0][1], "the quarantine must hold evidence"
        assert not holds_record_dicts(legacy)
        _, manifest = load_state(legacy)
        assert set(manifest["metadata"][RESERVOIR_METADATA_KEY]) == {"anchor", "recent"}

    @pytest.mark.parametrize("form", ["columns", "json"])
    def test_disabled_fleets_carry_both_forms_forward(self, tmp_path, form):
        """A quarantine-off fleet's write-backs carry the persisted buffer
        forward in whichever form it was saved."""
        directory = self._saved_tenant(tmp_path / "m", incremental=True)
        if form == "json":
            write_json_form(directory)
        with GeofenceFleet(tmp_path / "m", **self.FLEET) as fleet:
            before = fleet.reservoir("t"), fleet.quarantine("t")
        plain_config = dict(self.FLEET, quarantine_size=0)
        with GeofenceFleet(tmp_path / "m", incremental=True, **plain_config) as plain:
            for _ in range(5):
                # Unembeddable: dirties the tenant, never an inlier.
                plain.observe("t", SignalRecord({"unheard": -60.0}))
        assert read_manifest(directory).get("deltas"), "the disabled fleet wrote back"
        assert holds_record_dicts(directory) == (form == "json")
        with GeofenceFleet(tmp_path / "m", **self.FLEET) as fleet:
            assert (fleet.reservoir("t"), fleet.quarantine("t")) == before

    def _rewrite_arrays(self, directory, change) -> None:
        path = directory / read_manifest(directory)["arrays_file"]
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        change(arrays)
        np.savez(path, **arrays)

    @pytest.mark.parametrize("key, corrupt, match", [
        ("fleet_reservoir/anchor/records",
         lambda rows: rows.__setitem__("stop", rows["stop"][::-1]), "monotone"),
        ("fleet_reservoir/recent/edges",
         lambda edges: edges["mac"].__setitem__(0, 10_000), "outside"),
        ("fleet_quarantine/records/edges",
         lambda edges: edges["rss"].__setitem__(0, np.nan), "finite"),
        ("fleet_reservoir/anchor/edges",
         lambda edges: edges["rss"].__setitem__(3, np.nan), "finite"),
        ("fleet_reservoir/recent/macs", lambda macs: macs.__setitem__(1, ""), "non-empty"),
        ("fleet_reservoir/anchor/edges",
         lambda edges: edges["mac"].__setitem__(1, edges["mac"][0]), "repeats"),
        ("fleet_reservoir/recent/macs", lambda macs: macs.__setitem__(1, macs[0]), "twice"),
        ("fleet_reservoir/recent/records",
         lambda rows: rows["pos_len"].__setitem__(0, 1), "position length"),
    ], ids=["anchor-offsets", "recent-mac-index", "quarantine-rss", "anchor-rss",
            "recent-empty-mac", "anchor-mac-repeated-in-record", "recent-mac-stored-twice",
            "recent-position-length"])
    def test_corrupt_columns_fail_the_load(self, tmp_path, key, corrupt, match):
        """At load, not at the first refresh: the first observe already
        refuses the tenant."""
        directory = self._saved_tenant(tmp_path / "m", incremental=False)
        self._rewrite_arrays(directory, lambda arrays: corrupt(arrays["__metadata__/" + key]))
        fleet = GeofenceFleet(tmp_path / "m", **self.FLEET)
        with pytest.raises(CheckpointError, match=match):
            fleet.observe("t", train_records(1)[0])
        with pytest.raises(CheckpointError, match=match):
            fleet.reservoir("t")
        assert fleet.resident_tenants == [] and fleet.quarantine_depths() == {}

    def test_valid_non_canonical_columns_load_and_are_rewritten_canonical(self, tmp_path):
        """Columns no release wrote but that hold valid records (a wider,
        reordered MAC table with an unused entry; edges out of MAC order)
        are accepted as the same reservoir and written back canonical."""
        canonical = self._saved_tenant(tmp_path / "canonical", incremental=False)
        rewritten = self._saved_tenant(tmp_path / "rewritten", incremental=False)

        def scramble(arrays):
            for half in ("anchor", "recent"):
                prefix = f"__metadata__/fleet_reservoir/{half}/"
                macs, edges = arrays[prefix + "macs"], arrays[prefix + "edges"]
                table = np.append(macs[::-1], "zz:unused").astype("<U40")
                edges["mac"] = len(macs) - 1 - edges["mac"]
                stops = arrays[prefix + "records"]["stop"]
                for start, stop in zip(np.concatenate([[0], stops[:-1]]), stops):
                    edges[start:stop] = edges[start:stop][::-1].copy()
                arrays[prefix + "macs"] = table

        self._rewrite_arrays(rewritten, scramble)
        served = []
        for root in (canonical, rewritten):
            with GeofenceFleet(root.parent, **self.FLEET) as fleet:
                served.append(fleet.reservoir("t"))
                fleet.observe("t", train_records(3)[-1])
        assert served[0] == served[1] and served[0]
        expected, got = (load_state(root)[1]["metadata"]["fleet_reservoir"]
                         for root in (canonical, rewritten))
        for half in ("anchor", "recent"):
            for key, array in expected[half].items():
                assert got[half][key].dtype == array.dtype
                assert got[half][key].tobytes() == array.tobytes(), (half, key)


# ----------------------------------------------------------------------
# Controller: arming, auto recovery, proposals
# ----------------------------------------------------------------------
class StarvedFleet:
    """Refreshes always fail; quarantine is pre-filled; recovery succeeds."""

    def __init__(self, depth=32, recover_error=None, policy=None):
        self.depth = depth
        self.recover_error = recover_error
        self.policy = policy
        self.recoveries: list[str] = []
        self.resident_tenants: list[str] = []

    def refresh(self, tenant_id):
        raise ValueError("reservoir starved")

    def quarantine_depth(self, tenant_id):
        return self.depth

    def reprovision_from_quarantine(self, tenant_id, max_fpr=0.5):
        if self.recover_error is not None:
            raise self.recover_error
        self.recoveries.append(tenant_id)
        return object()

    def maintenance_policy(self, tenant_id):
        """Tenant ``"t"`` runs ``policy`` from its spec's maintenance block."""
        return self.policy if tenant_id == "t" else None

    def is_dirty(self, tenant_id):
        return False


def starving_policy(auto, **recovery_kwargs):
    recovery = RecoveryPolicy(after_stuck=2, starvation_window=8,
                              min_quarantine=4, auto=auto, **recovery_kwargs)
    return MaintenancePolicy(check_every=4, refresh_every=4, recovery=recovery)


def drive_outside(controller, tenant: str, rounds: int):
    decision = GeofenceDecision(inside=False, score=5.0)
    for _ in range(rounds * 4):
        controller.step(tenant, decision)


class TestControllerRecovery:
    def test_auto_recovery_fires_once_armed(self):
        fleet = StarvedFleet(policy=starving_policy(auto=True))
        controller = FleetController(fleet)
        drive_outside(controller, "t", rounds=3)
        assert fleet.recoveries == ["t"]
        actions = [a for _, a in controller.actions]
        assert "recover" in actions
        # Recovery consumed the maintenance slot and reset the streaks.
        assert controller.stuck_streaks() == {}
        assert controller.pending_recoveries() == {}

    def test_arming_needs_all_three_signals(self):
        # Deep quarantine + stuck refreshes, but inside decisions keep
        # arriving: not starving, so no recovery.
        fleet = StarvedFleet(policy=starving_policy(auto=True))
        controller = FleetController(fleet)
        inside = GeofenceDecision(inside=True, score=0.1)
        for _ in range(12):
            controller.step("t", inside)
        assert fleet.recoveries == []
        # Starving + stuck, but the quarantine is too shallow.
        shallow = StarvedFleet(depth=2, policy=starving_policy(auto=True))
        controller = FleetController(shallow)
        drive_outside(controller, "t", rounds=4)
        assert shallow.recoveries == []

    def test_stuck_streaks_fold_in_trigger_streak(self):
        """Mechanically-successful refreshes that never clear their trigger
        must still read as stuck — the starvation signature."""

        class PlaceboFleet(StarvedFleet):
            def refresh(self, tenant_id):
                return 1                      # succeeds, fixes nothing

        policy = MaintenancePolicy(check_every=4, min_update_rate=0.9,
                                   min_window=4)
        fleet = PlaceboFleet(policy=policy)
        controller = FleetController(fleet)
        drive_outside(controller, "t", rounds=3)
        assert controller.state("t").failed_refresh_streak == 0
        assert controller.stuck_streaks().get("t", 0) >= 2

    def test_proposal_path_and_approval(self):
        fleet = StarvedFleet(policy=starving_policy(auto=False))
        controller = FleetController(fleet)
        drive_outside(controller, "t", rounds=3)
        assert fleet.recoveries == []                   # nothing executed
        proposals = controller.pending_recoveries()
        assert set(proposals) == {"t"}
        evidence = proposals["t"]
        assert evidence["quarantine_depth"] == 32
        assert evidence["stuck_streak"] >= 2
        # Proposing again is idempotent.
        drive_outside(controller, "t", rounds=2)
        assert [a for _, a in controller.actions].count("recover-proposed") == 1
        controller.approve_recovery("t")
        assert fleet.recoveries == ["t"]
        assert controller.pending_recoveries() == {}
        assert controller.stuck_streaks() == {}

    def test_deny_recovery(self):
        fleet = StarvedFleet(policy=starving_policy(auto=False))
        controller = FleetController(fleet)
        drive_outside(controller, "t", rounds=3)
        assert controller.deny_recovery("t")
        assert not controller.deny_recovery("t")
        assert fleet.recoveries == []
        with pytest.raises(ValueError, match="no pending recovery"):
            controller.approve_recovery("t")

    def test_failed_auto_recovery_is_operational(self):
        fleet = StarvedFleet(recover_error=ValueError("rolled back"),
                             policy=starving_policy(auto=True))
        controller = FleetController(fleet)
        drive_outside(controller, "t", rounds=3)
        failed = [a for _, a in controller.actions
                  if a.startswith("recover-failed")]
        assert failed and "rolled back" in failed[0]
        assert controller.stuck_streaks()["t"] >= 1


# ----------------------------------------------------------------------
# Runtime surfaces: probe, metrics, end-to-end recovery
# ----------------------------------------------------------------------
class TestRuntimeQuarantine:
    def build(self, tmp_path, quarantine_size, policy=None):
        runtime = ServingRuntime(str(tmp_path / "reg"), model_factory=make_gem, policy=policy,
                                 quarantine_size=quarantine_size)
        runtime.provision("t", train_records())
        return runtime

    def test_probe_is_capability_gated(self, tmp_path):
        plain = self.build(tmp_path / "off", quarantine_size=0)
        assert "quarantine_saturation" not in plain.metrics()["health"]
        plain.close()

    def test_probe_metrics_and_passthroughs(self, tmp_path):
        runtime = self.build(tmp_path, quarantine_size=16)
        home = home_anchor_macs(train_records())
        drive_new_world(runtime, "t", home, n=60)
        snapshot = runtime.metrics()
        probe = snapshot["health"]["quarantine_saturation"]
        assert probe["status"] in ("warn", "critical")
        assert probe["value"] == 1.0
        assert "t" in probe["detail"]
        families = snapshot["families"]
        depth = families["repro_quarantine_depth"]["series"][0]["value"]
        assert depth == 16 == len(runtime.fleet.quarantine("t"))
        admissions = {s["labels"]["outcome"]: s["value"]
                      for s in families["repro_quarantine_admissions_total"]["series"]}
        assert admissions["admitted"] >= 16
        assert 16 <= sum(admissions.values()) <= 60
        runtime.close()

    def test_policy_driven_recovery_end_to_end(self, tmp_path):
        recovery = RecoveryPolicy(after_stuck=1, starvation_window=30,
                                  min_quarantine=16, auto=True, max_fpr=0.9)
        policy = MaintenancePolicy(check_every=10, min_update_rate=0.05,
                                   min_window=10, recovery=recovery)
        runtime = self.build(tmp_path, quarantine_size=64, policy=policy)
        home = home_anchor_macs(train_records())
        rng = np.random.default_rng(7)
        recovered = False
        for i in range(300):
            runtime.observe("t", new_world_record(i, home, rng))
            runtime.maintain()
            if any(a == "recover" for _, a in runtime.maintenance_actions()):
                recovered = True
                break
        assert recovered, "auto recovery never fired"
        assert runtime.controller.pending_recoveries() == {}
        runtime.close()

    def test_proposal_surfaces_through_runtime(self, tmp_path):
        recovery = RecoveryPolicy(after_stuck=1, starvation_window=30,
                                  min_quarantine=16, auto=False, max_fpr=0.9)
        policy = MaintenancePolicy(check_every=10, min_update_rate=0.05,
                                   min_window=10, recovery=recovery)
        runtime = self.build(tmp_path, quarantine_size=64, policy=policy)
        home = home_anchor_macs(train_records())
        rng = np.random.default_rng(7)
        for i in range(200):
            runtime.observe("t", new_world_record(i, home, rng))
            runtime.maintain()
            if runtime.controller.pending_recoveries():
                break
        assert set(runtime.controller.pending_recoveries()) == {"t"}
        runtime.controller.approve_recovery("t")
        assert runtime.controller.pending_recoveries() == {}
        actions = [a for _, a in runtime.maintenance_actions()]
        assert "recover-proposed" in actions and "recover" in actions
        assert not runtime.controller.deny_recovery("t")
        runtime.close()
