"""Registry + fleet serving: LRU eviction, write-back, telemetry."""

import math
from collections import deque

import numpy as np
import pytest

from conftest import synthetic_records, totals_from_families, user_metadata
from repro.core import GEM, GEMConfig, SignalRecord
from repro.core.io import records_from_columns, records_to_columns
from repro.embedding.bisage import BiSAGEConfig
from repro.serve import CheckpointError, GeofenceFleet, ModelRegistry, validate_tenant_id
from repro.serve.checkpoint import flatten_state, load_state, read_manifest
from repro.serve.fleet import RESERVOIR_METADATA_KEY

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))


def make_gem() -> GEM:
    return GEM(FAST_CONFIG)


def tenant_records(tenant: int, n: int = 25, seed_offset: int = 0):
    """Per-tenant world: each tenant's records cluster at its own center."""
    return synthetic_records(n, num_macs=10, seed=tenant + seed_offset,
                             center=2.0 + tenant)


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "models")


class TestTenantIds:
    @pytest.mark.parametrize("good", ["alice", "home-3", "u_1.2", "A" * 128])
    def test_valid(self, good):
        assert validate_tenant_id(good) == good

    @pytest.mark.parametrize("bad", ["", "../escape", "a/b", ".hidden", "-x",
                                     "A" * 129, "sp ace", None])
    def test_invalid(self, bad):
        with pytest.raises(ValueError, match="tenant id"):
            validate_tenant_id(bad)


class TestRegistry:
    def test_save_load_list(self, registry):
        gem = make_gem().fit(tenant_records(0))
        registry.save("home-0", gem, metadata={"area_m2": 50})
        assert registry.tenants() == ["home-0"]
        assert "home-0" in registry
        assert user_metadata(registry, "home-0") == {"area_m2": 50}
        clone = registry.load("home-0")
        record = tenant_records(0, n=1, seed_offset=99)[0]
        assert clone.score(record) == gem.score(record)

    def test_load_missing_tenant(self, registry):
        with pytest.raises(CheckpointError, match="ghost"):
            registry.load("ghost")

    def test_overwrite_replaces_model(self, registry):
        first = make_gem().fit(tenant_records(0))
        second = make_gem().fit(tenant_records(1))
        registry.save("t", first)
        registry.save("t", second)
        probe = tenant_records(1, n=1, seed_offset=42)[0]
        assert registry.load("t").score(probe) == second.score(probe)
        assert len(registry) == 1

    def test_traversal_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.save("../evil", make_gem().fit(tenant_records(0)))


class TestFleetServing:
    def test_requires_positive_capacity(self, registry):
        with pytest.raises(ValueError, match="capacity"):
            GeofenceFleet(registry, capacity=0)

    def test_three_tenants_capacity_two_no_drift(self, registry):
        """Acceptance: LRU budget < tenant count, zero decision drift."""
        tenants = ["home-0", "home-1", "home-2"]
        fleet = GeofenceFleet(registry, capacity=2, model_factory=make_gem)
        references = {}
        for t, tenant in enumerate(tenants):
            train = tenant_records(t)
            fleet.provision(tenant, train)
            references[tenant] = make_gem().fit(train)

        # Interleaved round-robin stream forces constant eviction churn.
        for i in range(8):
            for t, tenant in enumerate(tenants):
                record = tenant_records(t, n=1, seed_offset=100 + i)[0]
                expected = references[tenant].observe(record)
                assert fleet.observe(tenant, record) == expected

        assert len(fleet.resident_tenants) == 2
        totals = fleet.telemetry.totals()
        assert totals.observations == 24
        assert totals.evictions > 0
        assert totals.loads > 0

    def test_lazy_load_after_restart(self, registry):
        fleet = GeofenceFleet(registry, capacity=4, model_factory=make_gem)
        fleet.provision("solo", tenant_records(0))
        record = tenant_records(0, n=1, seed_offset=7)[0]
        first = fleet.observe("solo", record)
        fleet.close()

        # A brand-new fleet over the same registry resumes transparently,
        # including the effect of the earlier observation (write-back).
        fleet2 = GeofenceFleet(registry, capacity=4, model_factory=make_gem)
        assert fleet2.resident_tenants == []
        next_record = tenant_records(0, n=1, seed_offset=8)[0]
        reference = make_gem().fit(tenant_records(0))
        reference.observe(record)
        assert fleet2.observe("solo", next_record) == reference.observe(next_record)
        assert fleet2.telemetry.totals().loads == 1

    def test_dirty_write_back_persists_updates(self, registry):
        fleet = GeofenceFleet(registry, capacity=1, model_factory=make_gem)
        fleet.provision("a", tenant_records(0))
        base_samples = registry.load("a").detector.num_samples
        # Confident in-premises records trigger self-updates.
        absorbed = 0
        for i in range(10):
            decision = fleet.observe("a", tenant_records(0, n=1, seed_offset=200 + i)[0])
            absorbed += decision.updated
        assert absorbed > 0
        # Touching tenant b evicts a (capacity 1) and must write it back.
        fleet.provision("b", tenant_records(1))
        assert fleet.resident_tenants == ["b"]
        assert not fleet.is_dirty("a")
        assert registry.load("a").detector.num_samples == base_samples + absorbed

    def test_empty_record_does_not_dirty_model(self, registry):
        from repro.core import SignalRecord
        fleet = GeofenceFleet(registry, capacity=2, model_factory=make_gem)
        fleet.provision("a", tenant_records(0))
        decision = fleet.observe("a", SignalRecord({}))
        assert not decision.inside
        assert not fleet.is_dirty("a")
        assert fleet.flush() == 0

    def test_flush_writes_dirty_models(self, registry):
        fleet = GeofenceFleet(registry, capacity=4, model_factory=make_gem)
        fleet.provision("a", tenant_records(0))
        fleet.observe("a", tenant_records(0, n=1, seed_offset=5)[0])
        assert fleet.is_dirty("a")
        assert fleet.flush() == 1
        assert not fleet.is_dirty("a")
        assert fleet.flush() == 0

    def test_observe_many_preserves_order_and_groups(self, registry):
        tenants = ["t0", "t1", "t2"]
        fleet = GeofenceFleet(registry, capacity=2, model_factory=make_gem)
        references = {}
        for t, tenant in enumerate(tenants):
            train = tenant_records(t)
            fleet.provision(tenant, train)
            references[tenant] = make_gem().fit(train)

        items, expected = [], []
        for i in range(6):
            t = [0, 1, 2, 0, 2, 1][i]
            record = tenant_records(t, n=1, seed_offset=300 + i)[0]
            items.append((tenants[t], record))
        # References observe in the same per-tenant order the fleet will.
        for tenant, record in items:
            expected.append(references[tenant].observe(record))
        assert fleet.observe_many(items) == expected
        # Grouped dispatch: at most one load per tenant for the batch.
        assert fleet.telemetry.totals().loads <= len(tenants)

    def test_observe_many_rejects_bad_batch_untouched(self, registry):
        # An unknown tenant anywhere in the batch must fail before any
        # model is mutated, so the batch can be retried safely.
        fleet = GeofenceFleet(registry, capacity=2, model_factory=make_gem)
        fleet.provision("good", tenant_records(0))
        items = [("good", tenant_records(0, n=1, seed_offset=1)[0]),
                 ("ghost", tenant_records(1, n=1, seed_offset=2)[0])]
        with pytest.raises(CheckpointError, match="ghost"):
            fleet.observe_many(items)
        assert fleet.telemetry.totals().observations == 0
        assert not fleet.is_dirty("good")

    def test_failed_write_back_keeps_model_resident_and_dirty(self, registry, monkeypatch):
        # A transient save failure during eviction must not lose the
        # tenant's in-memory state or leak a stale dirty flag.
        fleet = GeofenceFleet(registry, capacity=1, model_factory=make_gem)
        fleet.provision("a", tenant_records(0))
        fleet.observe("a", tenant_records(0, n=1, seed_offset=2)[0])
        assert fleet.is_dirty("a")
        model = fleet.resident("a")

        def boom(*args, **kwargs):
            raise OSError("disk full")
        monkeypatch.setattr(fleet.registry, "save", boom)
        with pytest.raises(OSError):
            fleet.evict("a")
        # Still resident, still dirty — nothing was lost.
        assert fleet.resident_tenants == ["a"]
        assert fleet.is_dirty("a")
        assert fleet.resident("a") is model
        monkeypatch.undo()
        assert fleet.flush() == 1
        assert not fleet.is_dirty("a")

    def test_metadata_cache_evicted_with_model(self, registry):
        # The metadata cache must not outlive the model (unbounded growth):
        # it lives in the tenant record, which leaves as one unit.
        fleet = GeofenceFleet(registry, capacity=1, model_factory=make_gem)
        fleet.provision("a", tenant_records(0), metadata={"k": 1})
        fleet.provision("b", tenant_records(1))   # evicts a
        assert "a" not in fleet._tenants
        assert len(fleet._tenants) <= fleet.capacity
        # ...and is repopulated from disk on reload.
        fleet.observe("a", tenant_records(0, n=1, seed_offset=4)[0])
        fleet.evict("a")
        assert user_metadata(registry, "a") == {"k": 1}

    def test_metadata_preserved_across_write_back(self, registry):
        fleet = GeofenceFleet(registry, capacity=1, model_factory=make_gem)
        fleet.provision("a", tenant_records(0), metadata={"home": "apt"})
        fleet.observe("a", tenant_records(0, n=1, seed_offset=3)[0])
        fleet.evict("a")
        assert user_metadata(registry, "a") == {"home": "apt"}

    def test_context_manager_closes(self, registry):
        with GeofenceFleet(registry, capacity=2, model_factory=make_gem) as fleet:
            fleet.provision("a", tenant_records(0))
            fleet.observe("a", tenant_records(0, n=1, seed_offset=1)[0])
        assert fleet.resident_tenants == []

    def test_unknown_tenant_raises(self, registry):
        fleet = GeofenceFleet(registry, capacity=2, model_factory=make_gem)
        with pytest.raises(CheckpointError):
            fleet.observe("nobody", tenant_records(0, n=1)[0])


class TestTelemetry:
    def test_snapshot_shape(self, registry):
        """The counters are metric families in the fleet's own registry,
        labeled by tenant class and op, never by tenant id."""
        fleet = GeofenceFleet(registry, capacity=2, model_factory=make_gem)
        fleet.provision("a", tenant_records(0))
        fleet.observe("a", tenant_records(0, n=1, seed_offset=9)[0])
        families = fleet.telemetry.metrics.snapshot()
        assert families["repro_decisions_total"]["labels"] == ["tenant_class", "result"]
        assert families["repro_lifecycle_total"]["labels"] == ["op"]
        totals = fleet.telemetry.totals()
        assert totals.observations == 1
        assert totals.saves >= 1
        assert totals.observe_seconds > 0

    def test_totals_survive_eviction(self, registry):
        fleet = GeofenceFleet(registry, capacity=1, model_factory=make_gem)
        fleet.provision("a", tenant_records(0))
        fleet.observe("a", tenant_records(0, n=1, seed_offset=1)[0])
        fleet.provision("b", tenant_records(1))   # evicts a
        totals = fleet.telemetry.totals()
        assert totals.observations == 1
        assert totals.evictions == 1

    def test_totals_equal_the_metric_families(self, registry):
        """One source: after loads, evictions, delta and full saves,
        refreshes and reprovisions, the totals view reads exactly the
        family values of the metrics snapshot."""
        fleet = GeofenceFleet(registry, capacity=1, model_factory=make_gem,
                              incremental=True)
        for tenant in (0, 1):
            fleet.provision(f"t{tenant}", tenant_records(tenant))
        for step in range(3):
            for tenant in (0, 1):
                batch = tenant_records(tenant, n=4, seed_offset=10 + step)
                fleet.observe_many([(f"t{tenant}", record) for record in batch])
        fleet.observe("t0", synthetic_records(1, num_macs=3, seed=99,
                                              center=40.0)[0])
        fleet.refresh("t0")
        fleet.reprovision("t1")
        fleet.flush()
        totals = fleet.telemetry.totals()
        for name in ("loads", "saves", "delta_saves", "evictions",
                     "refreshes", "reprovisions", "inside", "outside"):
            assert getattr(totals, name) > 0, name
        assert totals.as_dict() == \
            totals_from_families(fleet.telemetry.metrics.snapshot())
        fleet.close()


def positioned(records):
    """The records with positions of width 0 (none), 2 and 3 in turn."""
    return [SignalRecord(r.readings, timestamp=r.timestamp,
                         position=(None, (1.0, -float(i)), (2.5, float(i), 1.0))[i % 3])
            for i, r in enumerate(records)]


def assert_columns_identical(got, expected):
    assert set(got) == set(expected)
    for key in expected:
        assert got[key].dtype == expected[key].dtype, key
        assert got[key].shape == expected[key].shape, key
        assert got[key].tobytes() == expected[key].tobytes(), key


def committed_reservoir(directory):
    return load_state(directory)[1]["metadata"][RESERVOIR_METADATA_KEY]


class TestColumnarReservoir:
    """A loaded reservoir stays columnar; every save must still commit what
    encoding the record lists (the eager path) commits."""

    @pytest.mark.parametrize("incremental", [False, True], ids=["full", "delta"])
    @pytest.mark.parametrize("size", [6, 40], ids=["smaller-than-anchor", "larger-than-anchor"])
    def test_committed_reservoir_matches_the_eager_path(self, tmp_path, size, incremental):
        train = positioned(tenant_records(0))
        stream = positioned(tenant_records(0, n=80, seed_offset=50))
        fleets = [GeofenceFleet(tmp_path / name, capacity=2, model_factory=make_gem,
                                reservoir_size=size, incremental=incremental)
                  for name in ("churned", "resident")]
        churned, resident = fleets
        for fleet in fleets:
            fleet.provision("t", train)
        # The eager reference: record lists, decoded at every load and
        # appended to per inlier, encoded whole at every save.
        anchor, recent = train[-size:], deque(maxlen=size)
        inliers = 0

        def serve(records):
            nonlocal inliers
            batch = [("t", record) for record in records]
            decisions = churned.observe_many(batch)
            assert decisions == resident.observe_many(batch)
            kept = [record for record, decision in zip(records, decisions)
                    if decision.inside and math.isfinite(decision.score)]
            recent.extend(kept)
            inliers += len(kept)

        for cycle in range(8):
            serve(stream[cycle * 10:cycle * 10 + 8])
            if cycle % 3 == 1:
                # Decoded mid-life, saved while resident, then served on:
                # both forms must keep moving together.
                assert churned.reservoir("t") == anchor + list(recent)
                assert churned.flush("t") == 1
            serve(stream[cycle * 10 + 8:cycle * 10 + 10])
            assert churned.reservoir("t") == resident.reservoir("t") == anchor + list(recent)
            churned.evict("t")
            committed = committed_reservoir(tmp_path / "churned" / "t")
            assert_columns_identical(committed["anchor"], records_to_columns(anchor))
            assert_columns_identical(committed["recent"], records_to_columns(recent))
            anchor = records_from_columns(committed["anchor"])[-size:]
            recent = deque(records_from_columns(committed["recent"]), maxlen=size)
        assert inliers > size, "the recent window must have rolled over"
        assert churned.reservoir("t") == resident.reservoir("t") == anchor + list(recent)
        arrays, leaves = flatten_state(churned.resident("t").state_dict())
        expected_arrays, expected_leaves = flatten_state(resident.resident("t").state_dict())
        assert leaves == expected_leaves and set(arrays) == set(expected_arrays)
        for key in arrays:
            assert np.array_equal(arrays[key], expected_arrays[key]), key

        # A fleet with a smaller bound trims both halves at load and
        # commits the trimmed lists' encoding at its next save.
        churned.close()
        with GeofenceFleet(tmp_path / "churned", capacity=1, model_factory=make_gem,
                           reservoir_size=3, incremental=incremental) as smaller:
            assert smaller.reservoir("t") == anchor[-3:] + list(recent)[-3:]
            smaller.observe("t", SignalRecord({"unheard": -60.0}))  # dirties, never an inlier
        committed = committed_reservoir(tmp_path / "churned" / "t")
        assert_columns_identical(committed["anchor"], records_to_columns(anchor[-3:]))
        assert_columns_identical(committed["recent"], records_to_columns(list(recent)[-3:]))


def fleet_traces(fleet, tenant_id):
    """Names of the fleet's tenant-keyed containers that still hold
    ``tenant_id`` (whatever the fleet names them)."""
    return sorted(name for name, value in vars(fleet).items()
                  if isinstance(value, (dict, set)) and tenant_id in value)


def failing_saves(monkeypatch, fleet):
    def boom(*args, **kwargs):
        raise OSError("disk full")
    monkeypatch.setattr(fleet.registry, "save", boom)
    monkeypatch.setattr(fleet.registry, "save_incremental", boom)


@pytest.mark.parametrize("incremental", [False, True], ids=["full", "delta"])
class TestAllOrNothingLifecycle:
    """A tenant enters the fleet whole or not at all: a load that fails
    validation and a provision whose save raises leave no trace."""

    def test_corrupt_reservoir_load_leaves_nothing(self, tmp_path, incremental):
        fleet = GeofenceFleet(tmp_path / "m", capacity=2, model_factory=make_gem,
                              reservoir_size=8, incremental=incremental)
        fleet.provision("t", tenant_records(0))
        fleet.evict("t")
        directory = tmp_path / "m" / "t"
        path = directory / read_manifest(directory)["arrays_file"]
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["__metadata__/fleet_reservoir/anchor/edges"]["rss"][0] = np.nan
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="corrupt persisted reservoir"):
            fleet.observe("t", tenant_records(0, n=1, seed_offset=5)[0])
        assert fleet.resident("t") is None
        assert fleet_traces(fleet, "t") == []
        assert fleet.telemetry.totals().loads == 0

    def test_failed_provision_of_an_evicted_tenant_leaves_disk_state(
            self, tmp_path, monkeypatch, incremental):
        fleet = GeofenceFleet(tmp_path / "m", capacity=2, model_factory=make_gem,
                              reservoir_size=8, incremental=incremental)
        train = tenant_records(0)
        old = fleet.provision("t", train, metadata={"v": 1})
        fleet.evict("t")
        failing_saves(monkeypatch, fleet)
        with pytest.raises(OSError, match="disk full"):
            fleet.provision("t", tenant_records(1), metadata={"v": 2})
        monkeypatch.undo()
        assert fleet.resident("t") is None
        assert fleet_traces(fleet, "t") == []
        # The next load serves the on-disk model, metadata and anchor...
        probe = tenant_records(0, n=1, seed_offset=9)[0]
        assert fleet.reservoir("t") == train[-8:]
        assert fleet.resident("t").score(probe) == old.score(probe)
        # ...and its write-back persists them, not the failed provision's.
        fleet.observe("t", SignalRecord({"unheard": -60.0}))
        fleet.close()
        assert user_metadata(ModelRegistry(tmp_path / "m"), "t") == {"v": 1}
        with GeofenceFleet(tmp_path / "m", capacity=2, reservoir_size=8) as reloaded:
            assert reloaded.reservoir("t") == train[-8:]
            assert reloaded.resident("t").score(probe) == old.score(probe)

    def test_failed_provision_of_a_resident_tenant_keeps_its_record(
            self, tmp_path, monkeypatch, incremental):
        fleet = GeofenceFleet(tmp_path / "m", capacity=2, model_factory=make_gem,
                              reservoir_size=8, incremental=incremental)
        train = tenant_records(0)
        old = fleet.provision("t", train, metadata={"v": 1})
        fleet.observe_many(("t", record) for record in tenant_records(0, n=4, seed_offset=3))
        before = fleet.reservoir("t")
        assert fleet.is_dirty("t")
        failing_saves(monkeypatch, fleet)
        with pytest.raises(OSError, match="disk full"):
            fleet.provision("t", tenant_records(1), metadata={"v": 2})
        monkeypatch.undo()
        assert fleet.resident("t") is old
        assert fleet.is_dirty("t")
        assert fleet.reservoir("t") == before
        fleet.evict("t")
        assert user_metadata(ModelRegistry(tmp_path / "m"), "t") == {"v": 1}
        assert fleet.reservoir("t") == before
        probe = tenant_records(0, n=1, seed_offset=9)[0]
        assert fleet.resident("t").score(probe) == old.score(probe)
