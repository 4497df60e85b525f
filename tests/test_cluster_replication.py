"""Delta-shipped replication: shipper capture, follower apply, promotion."""

import dataclasses
import io
import zipfile

import numpy as np
import pytest

from conftest import synthetic_records
from repro.core import GEM, GEMConfig, SignalRecord
from repro.embedding.bisage import BiSAGEConfig
from repro.serve import GeofenceFleet, ModelRegistry, load_checkpoint, read_manifest
from repro.serve.checkpoint import MANIFEST_NAME, flatten_state
from repro.serve.cluster import DeltaShipper, Follower, ReplicationError
from repro.serve.cluster.replicate import manifest_has_deltas
from repro.serve.quarantine import home_anchor_macs

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))
TENANT = "rep-tenant"


def make_gem() -> GEM:
    return GEM(FAST_CONFIG)


def records(seed: int, n: int = 25):
    return synthetic_records(n, num_macs=10, seed=seed)


def assert_states_equal(model_a, model_b) -> None:
    arrays_a, leaves_a = flatten_state(model_a.state_dict())
    arrays_b, leaves_b = flatten_state(model_b.state_dict())
    assert set(arrays_a) == set(arrays_b)
    for key in arrays_a:
        assert np.array_equal(arrays_a[key], arrays_b[key]), key
    assert leaves_a == leaves_b


def build_chain(root, deltas: int = 2, seed: int = 0):
    """A primary registry with one tenant: full save + ``deltas`` deltas.

    Returns ``(gem, shipped_writes)`` — the writes in commit order, as a
    shipper attached for the whole history captured them.
    """
    registry = ModelRegistry(root)
    shipper = DeltaShipper(source="test-primary").attach(registry)
    gem = make_gem().fit(records(seed))
    _, baseline = registry.save_incremental(TENANT, gem, None)
    for step in range(deltas):
        for record in records(100 + seed + step, n=5):
            gem.observe(record)
        kind, baseline = registry.save_incremental(TENANT, gem, baseline)
        assert kind == "delta"
    shipper.detach()
    return gem, shipper.drain()


@pytest.fixture
def chain(tmp_path):
    gem, writes = build_chain(tmp_path / "primary")
    return gem, writes, tmp_path


class TestShipper:
    def test_commits_are_captured_in_order(self, chain):
        _, writes, _ = chain
        assert [w.kind for w in writes] == ["full", "delta", "delta"]
        assert [w.seq for w in writes] == [1, 2, 3]
        assert all(w.tenant_id == TENANT for w in writes)
        assert all(w.source == "test-primary" for w in writes)
        assert all(w.shipped_at > 0 for w in writes)
        # Each delta's manifest carries the whole chain so far.
        assert [len(w.manifest.get("deltas", [])) for w in writes] == [0, 1, 2]

    def test_detach_stops_capture(self, tmp_path):
        registry = ModelRegistry(tmp_path / "primary")
        shipper = DeltaShipper().attach(registry)
        shipper.detach()
        registry.save(TENANT, make_gem().fit(records(0)))
        assert shipper.pending == 0

    def test_wire_roundtrip(self, chain):
        _, writes, _ = chain
        for write in writes:
            header, blobs = write.to_frame()
            assert header["type"] == "replicate"
            back = type(write).from_frame(header, blobs)
            assert back == write


class TestFollowerApply:
    def test_full_then_deltas_reach_identical_state(self, chain):
        gem, writes, tmp_path = chain
        follower = Follower(tmp_path / "standby")
        assert [follower.apply(w) for w in writes] == ["applied"] * 3
        stats = follower.stats()
        assert stats["applied"] == 3 and stats["rejected"] == 0
        assert stats["applied_by_source"] == {"test-primary": 3}
        assert stats["last_lag_seconds"] >= 0
        assert stats["max_lag_seconds"] >= stats["last_lag_seconds"]
        assert_states_equal(gem, load_checkpoint(tmp_path / "standby" / TENANT))

    def test_standby_manifest_is_byte_equal_to_the_primary(self, tmp_path):
        # Equal as dicts is not enough: both sides commit through one
        # manifest encoder, so the bytes match after a full and a delta.
        registry = ModelRegistry(tmp_path / "primary")
        shipper = DeltaShipper().attach(registry)
        follower = Follower(tmp_path / "standby")
        gem = make_gem().fit(records(0))
        baseline = None
        for step, expected_kind in enumerate(["full", "delta", "delta"]):
            for record in records(100 + step, n=5 * step):
                gem.observe(record)
            kind, baseline = registry.save_incremental(TENANT, gem, baseline)
            assert kind == expected_kind
            (write,) = shipper.drain()
            assert follower.apply(write) == "applied"
            primary = (tmp_path / "primary" / TENANT / MANIFEST_NAME).read_bytes()
            standby = (tmp_path / "standby" / TENANT / MANIFEST_NAME).read_bytes()
            assert standby == primary, f"after the {kind} write"
        shipper.detach()

    def test_replay_is_idempotent(self, chain):
        _, writes, tmp_path = chain
        follower = Follower(tmp_path / "standby")
        for write in writes:
            follower.apply(write)
        assert [follower.apply(w) for w in writes] == ["skipped"] * 3
        assert follower.stats()["applied"] == 3

    def test_restarted_follower_replays_idempotently(self, chain):
        # Satellite 3: a follower restart loses only its counters — a
        # fresh Follower over the same directory re-fed the same history
        # must skip everything and leave the standby loadable.
        gem, writes, tmp_path = chain
        Follower(standby := tmp_path / "standby").apply(writes[0])
        Follower(standby).apply(writes[1])          # "restart" mid-stream
        rebooted = Follower(standby)
        assert [rebooted.apply(w) for w in writes] == ["skipped", "skipped",
                                                       "applied"]
        assert_states_equal(gem, load_checkpoint(standby / TENANT))

    def test_torn_delta_rejected_without_corrupting_standby(self, chain):
        # Satellite 3: truncated shipped bytes must be detected before
        # anything touches the standby's disk.
        _, writes, tmp_path = chain
        follower = Follower(standby := tmp_path / "standby")
        follower.apply(writes[0])
        follower.apply(writes[1])
        before = load_checkpoint(standby / TENANT)
        torn = dataclasses.replace(
            writes[2], file_bytes=writes[2].file_bytes[:-20])
        with pytest.raises(ReplicationError, match="torn or truncated"):
            follower.apply(torn)
        assert follower.stats()["rejected"] == 1
        # The standby is untouched: same tip, still loadable.
        manifest = read_manifest(standby / TENANT)
        assert len(manifest["deltas"]) == 1
        assert_states_equal(before, load_checkpoint(standby / TENANT))
        # The intact original still applies afterwards.
        assert follower.apply(writes[2]) == "applied"

    @pytest.mark.parametrize("member", [None, "__save_id__", "embedder/graph/edge_weights"],
                             ids=["truncated", "crc-nonce", "crc-other-member"])
    def test_torn_full_write_rejected(self, chain, member):
        """A truncated shipped arrays file, or one with a member failing
        its CRC (the nonce or any other), never reaches the standby."""
        gem, writes, tmp_path = chain
        data = writes[0].file_bytes
        if member is None:
            data = data[:len(data) // 2]
        else:
            with zipfile.ZipFile(io.BytesIO(data)) as archive:
                info = archive.getinfo(member + ".npy")
            local = data[info.header_offset:]   # local header, then the member
            end = (info.header_offset + 30 + int.from_bytes(local[26:28], "little")
                   + int.from_bytes(local[28:30], "little") + info.compress_size)
            data = data[:end - 1] + bytes([data[end - 1] ^ 0xFF]) + data[end:]
        follower = Follower(standby := tmp_path / "standby")
        with pytest.raises(ReplicationError, match="torn or truncated"):
            follower.apply(dataclasses.replace(writes[0], file_bytes=data))
        assert not (standby / TENANT).exists()
        assert follower.apply(writes[0]) == "applied"
        assert follower.apply(writes[1]) == "applied"

    def test_gap_in_the_chain_rejected(self, chain):
        _, writes, tmp_path = chain
        follower = Follower(tmp_path / "standby")
        follower.apply(writes[0])
        with pytest.raises(ReplicationError, match="missed a write"):
            follower.apply(writes[2])               # skipped writes[1]

    def test_delta_cannot_seed_a_tenant(self, chain):
        _, writes, tmp_path = chain
        follower = Follower(tmp_path / "standby")
        with pytest.raises(ReplicationError, match="cannot seed"):
            follower.apply(writes[1])

    def test_delta_from_foreign_base_rejected(self, chain):
        _, writes, tmp_path = chain
        _, foreign = build_chain(tmp_path / "other-primary", deltas=1, seed=7)
        follower = Follower(tmp_path / "standby")
        follower.apply(writes[0])
        with pytest.raises(ReplicationError, match="base save"):
            follower.apply(foreign[1])

    def test_swapped_full_payload_fails_the_nonce_check(self, chain):
        # A *valid* npz from a different save must not pass as this one.
        _, writes, tmp_path = chain
        _, foreign = build_chain(tmp_path / "other-primary", deltas=0, seed=7)
        forged = dataclasses.replace(writes[0],
                                     file_bytes=foreign[0].file_bytes)
        follower = Follower(tmp_path / "standby")
        with pytest.raises(ReplicationError, match="nonce mismatch"):
            follower.apply(forged)


class TestPromotion:
    def test_promote_compacts_mid_chain_tenants(self, chain):
        # Satellite 3: promote() on a mid-chain follower replays the
        # chain and compacts, so the new primary serves with no debt.
        gem, writes, tmp_path = chain
        follower = Follower(standby := tmp_path / "standby")
        for write in writes:
            follower.apply(write)
        report = follower.promote()
        assert report.tenants == 1 and report.compacted == 1
        assert report.chain_lengths == {TENANT: 2}
        assert report.seconds > 0
        manifest = read_manifest(standby / TENANT)
        assert not manifest_has_deltas(manifest)
        assert_states_equal(gem, load_checkpoint(standby / TENANT))

    def test_promote_on_clean_standby_compacts_nothing(self, chain):
        _, writes, tmp_path = chain
        follower = Follower(tmp_path / "standby")
        follower.apply(writes[0])
        report = follower.promote()
        assert report.compacted == 0
        assert report.chain_lengths == {TENANT: 0}

    def test_promote_keeps_fleet_reservoir_and_quarantine(self, tmp_path):
        """Promotion rewrites mid-chain tenants from the loaded metadata,
        which carries the fleet's record sets."""
        config = dict(capacity=1, model_factory=make_gem, reservoir_size=8,
                      quarantine_size=8, incremental=True)
        registry = ModelRegistry(tmp_path / "primary")
        shipper = DeltaShipper().attach(registry)
        fleet = GeofenceFleet(registry, **config)
        fleet.provision(TENANT, records(0))
        home = sorted(home_anchor_macs(records(0)))[:3]
        for step in range(2):
            for i in range(30):
                fleet.observe(TENANT, SignalRecord(
                    {**{mac: -50.0 - i % 3 for mac in home},
                     **{f"new{k}": -55.0 - 4 * k for k in range(5)}},
                    timestamp=100.0 * step + i))
            for record in records(10 + step, n=5):
                fleet.observe(TENANT, record)
            assert fleet.flush(TENANT) == 1
        reservoir, quarantine = fleet.reservoir(TENANT), fleet.quarantine(TENANT)
        assert reservoir and quarantine
        fleet.close()
        shipper.detach()
        follower = Follower(standby := tmp_path / "standby")
        writes = shipper.drain()
        assert [w.kind for w in writes] == ["full", "delta", "delta"]
        for write in writes:
            follower.apply(write)
        assert follower.promote().compacted == 1
        with GeofenceFleet(standby, **config) as promoted:
            assert promoted.reservoir(TENANT) == reservoir
            assert promoted.quarantine(TENANT) == quarantine
