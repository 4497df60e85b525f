"""Incremental (delta) checkpoints: round trips, compaction, crash safety."""

import json

import numpy as np
import pytest

from conftest import synthetic_records
from repro.core import GEM, GEMConfig, SignalRecord
from repro.embedding.bisage import BiSAGEConfig
from repro.serve import (CheckpointError, GeofenceFleet, ModelRegistry,
                         load_checkpoint, load_checkpoint_with_baseline,
                         load_checkpoint_with_manifest, read_manifest,
                         save_checkpoint, save_incremental)
from repro.serve.checkpoint import (CHECKPOINT_VERSION, INCREMENTAL_VERSION,
                                    MANIFEST_NAME, MAX_DELTA_CHAIN,
                                    MAX_DELTA_FRACTION, flatten_state,
                                    load_state)

FAST_CONFIG = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0))


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


@pytest.fixture
def fitted(tmp_path):
    """A fitted GEM, its checkpoint dir and the post-save baseline."""
    gem = make_gem().fit(records(0))
    directory = tmp_path / "ckpt"
    kind, baseline = save_incremental(gem, directory, baseline=None)
    assert kind == "full"
    return gem, directory, baseline


class TestDeltaSaves:
    def test_observe_only_delta_carries_no_embedder_arrays(self, fitted):
        gem, directory, baseline = fitted
        for record in records(1, n=6):
            gem.observe(record)
        assert gem.detector.num_updates > 0
        kind, baseline = save_incremental(gem, directory, baseline)
        assert kind == "delta"
        manifest = read_manifest(directory)
        assert manifest["format_version"] == INCREMENTAL_VERSION
        assert len(manifest["deltas"]) == 1
        # Serving leaves the embedder as fit left it; only the detector's
        # self-updated training set grew, and travels as an append.
        entry = manifest["deltas"][0]
        written = entry["append"] + entry["replace"] + entry["remove"] + list(entry["leaves"])
        assert not [key for key in written if key.startswith("embedder/")]
        assert "detector/data" in entry["append"]
        assert_states_equal(gem, load_checkpoint(directory))

    def test_chained_deltas_reconstruct_exactly(self, fitted):
        gem, directory, baseline = fitted
        for step in range(3):
            for record in records(10 + step, n=4):
                gem.observe(record)
            kind, baseline = save_incremental(gem, directory, baseline)
            assert kind == "delta"
        assert len(read_manifest(directory)["deltas"]) == 3
        assert_states_equal(gem, load_checkpoint(directory))

    def test_full_save_compacts_the_chain(self, fitted):
        gem, directory, baseline = fitted
        for record in records(1, n=4):
            gem.observe(record)
        _, baseline = save_incremental(gem, directory, baseline)
        assert list(directory.glob("delta-*.npz"))
        save_checkpoint(gem, directory)
        manifest = read_manifest(directory)
        assert manifest["format_version"] == CHECKPOINT_VERSION
        assert "deltas" not in manifest
        assert not list(directory.glob("delta-*.npz"))
        assert_states_equal(gem, load_checkpoint(directory))

    def test_max_chain_forces_compaction(self, fitted):
        gem, directory, baseline = fitted
        kinds = []
        for step in range(MAX_DELTA_CHAIN + 1):
            for record in records(20 + step, n=3):
                gem.observe(record)
            kind, baseline = save_incremental(gem, directory, baseline)
            kinds.append(kind)
        assert kinds == ["delta"] * MAX_DELTA_CHAIN + ["full"]
        assert "deltas" not in read_manifest(directory)

    def test_wholesale_change_falls_back_to_full(self, fitted):
        gem, directory, baseline = fitted
        # A model refit on a new, larger world shares no array with the
        # baseline but its empty update buffer: the delta would be ~95 %
        # of the state, past MAX_DELTA_FRACTION (0.9).
        assert MAX_DELTA_FRACTION == 0.9
        gem.fit(records(42, n=90))
        kind, _ = save_incremental(gem, directory, baseline)
        assert kind == "full"
        assert_states_equal(gem, load_checkpoint(directory))

    def test_stale_baseline_falls_back_to_full(self, fitted):
        gem, directory, baseline = fitted
        # Another writer replaced the checkpoint: the baseline no longer
        # matches the on-disk tip, so a delta would corrupt the chain.
        save_checkpoint(make_gem().fit(records(9)), directory)
        for record in records(1, n=3):
            gem.observe(record)
        kind, _ = save_incremental(gem, directory, baseline)
        assert kind == "full"
        assert_states_equal(gem, load_checkpoint(directory))

    def test_load_with_baseline_resumes_the_chain(self, fitted):
        gem, directory, baseline = fitted
        for record in records(1, n=4):
            gem.observe(record)
        save_incremental(gem, directory, baseline)
        clone, manifest, resumed = load_checkpoint_with_baseline(directory)
        assert manifest["format_version"] == INCREMENTAL_VERSION
        assert resumed.chain_length == 1
        assert_states_equal(gem, clone)
        # The resumed baseline diffs cleanly: another observation on the
        # clone writes delta #2, and the chain still reconstructs.
        for record in records(2, n=4):
            clone.observe(record)
        kind, _ = save_incremental(clone, directory, resumed)
        assert kind == "delta"
        assert len(read_manifest(directory)["deltas"]) == 2
        assert_states_equal(clone, load_checkpoint(directory))

    def test_baseline_is_isolated_from_live_mutation(self, fitted):
        """In-place detector updates must not leak into the baseline.

        The histogram detector mutates its arrays in place; if the
        baseline aliased them the diff would see "no change" and the
        update would be silently lost.
        """
        gem, directory, baseline = fitted
        applied = 0
        for record in records(0, n=25):  # training-like records: inliers
            decision = gem.observe(record)
            applied += decision.updated
        assert applied > 0, "test needs at least one applied detector update"
        kind, _ = save_incremental(gem, directory, baseline)
        assert kind == "delta"
        assert_states_equal(gem, load_checkpoint(directory))

    def test_v2_checkpoint_loads_unchanged(self, tmp_path):
        gem = make_gem().fit(records(0))
        directory = tmp_path / "plain"
        save_checkpoint(gem, directory)
        assert read_manifest(directory)["format_version"] == CHECKPOINT_VERSION
        model, manifest, baseline = load_checkpoint_with_baseline(directory)
        assert baseline.chain_length == 0
        assert_states_equal(gem, model)


class TestMetadataArrays:
    """Numpy arrays inside save metadata travel in the npz, diffed with
    the state, and come back inside ``manifest["metadata"]``."""

    def metadata(self, tail=()):
        return {"user": {"note": "lab", "empty": {}},
                "sets": {"pinned": {"rows": np.arange(6.0)},
                         "window": {"rows": np.array([1.5, *tail])}},
                "count": len(tail)}

    def test_full_save_round_trip(self, tmp_path):
        gem = make_gem().fit(records(0))
        save_checkpoint(gem, tmp_path / "c", metadata=self.metadata())
        manifest = read_manifest(tmp_path / "c")
        # Only JSON leaves in the manifest; an all-array dict leaves no trace.
        assert manifest["metadata"] == {"user": {"note": "lab", "empty": {}}, "count": 0}
        assert "__metadata__/sets/pinned/rows" in manifest["array_keys"]
        _, loaded = load_checkpoint_with_manifest(tmp_path / "c")
        assert loaded["metadata"]["user"] == {"note": "lab", "empty": {}}
        assert np.array_equal(loaded["metadata"]["sets"]["pinned"]["rows"], np.arange(6.0))
        assert np.array_equal(load_state(tmp_path / "c")[1]["metadata"]["sets"]["window"]["rows"],
                              [1.5])

    def test_deltas_carry_only_changed_metadata_arrays(self, fitted):
        gem, directory, baseline = fitted
        kind, baseline = save_incremental(gem, directory, baseline, metadata=self.metadata())
        kind, baseline = save_incremental(gem, directory, baseline,
                                          metadata=self.metadata(tail=(2.5, 3.5)))
        assert kind == "delta"
        entry = read_manifest(directory)["deltas"][-1]
        assert entry["append"] == ["__metadata__/sets/window/rows"]
        assert entry["replace"] == [] and entry["leaves"] == {}
        _, manifest, _ = load_checkpoint_with_baseline(directory)
        assert manifest["metadata"]["count"] == 2
        assert manifest["metadata"]["sets"]["window"]["rows"].tolist() == [1.5, 2.5, 3.5]
        # Dropping a metadata array is a removal like any other.
        save_incremental(gem, directory, baseline, metadata={"count": 0})
        assert load_state(directory)[1]["metadata"] == {"count": 0}

    @pytest.mark.parametrize("metadata, match", [
        ({"bad/key": np.zeros(2)}, "must not contain"),
        ({"bad/key": {"rows": np.zeros(2)}}, "must not contain"),
        ({"rows": np.array([object()])}, "object dtype"),
    ], ids=["array-key", "dict-key", "object-dtype"])
    def test_unstorable_metadata_arrays_rejected(self, tmp_path, metadata, match):
        gem = make_gem().fit(records(0))
        with pytest.raises(ValueError, match=match):
            save_checkpoint(gem, tmp_path / "c", metadata=metadata)
        assert not (tmp_path / "c" / MANIFEST_NAME).exists()

    def test_array_under_a_json_leaf_is_torn(self, tmp_path):
        gem = make_gem().fit(records(0))
        save_checkpoint(gem, tmp_path / "c", metadata={"sets": {"rows": np.zeros(2)}})
        path = tmp_path / "c" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["metadata"]["sets"] = [1, 2]
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="non-dict"):
            load_checkpoint(tmp_path / "c")


class TestDeltaCrashSafety:
    def _delta_checkpoint(self, tmp_path):
        gem = make_gem().fit(records(0))
        directory = tmp_path / "ckpt"
        _, baseline = save_incremental(gem, directory, baseline=None)
        for record in records(1, n=5):
            gem.observe(record)
        _, baseline = save_incremental(gem, directory, baseline)
        return gem, directory, baseline

    def test_orphan_delta_file_is_ignored(self, tmp_path):
        """Crash between delta-file write and manifest commit: the torn
        tail is an orphan file the loader never reads."""
        gem, directory, baseline = self._delta_checkpoint(tmp_path)
        before, _ = load_state(directory)
        (directory / "delta-deadbeef.npz").write_bytes(b"not even a zip")
        after, _ = load_state(directory)
        arrays_a, leaves_a = flatten_state(before)
        arrays_b, leaves_b = flatten_state(after)
        assert leaves_a == leaves_b
        assert all(np.array_equal(arrays_a[k], arrays_b[k]) for k in arrays_a)
        # The next full save garbage-collects the orphan.
        save_checkpoint(gem, directory)
        assert not list(directory.glob("delta-*.npz"))

    def test_truncated_committed_delta_is_torn(self, tmp_path):
        gem, directory, baseline = self._delta_checkpoint(tmp_path)
        manifest = read_manifest(directory)
        delta_file = directory / manifest["deltas"][-1]["file"]
        delta_file.write_bytes(delta_file.read_bytes()[:40])
        with pytest.raises(CheckpointError, match="corrupt delta"):
            load_checkpoint(directory)

    def test_spliced_delta_nonce_mismatch_is_torn(self, tmp_path):
        gem, directory, baseline = self._delta_checkpoint(tmp_path)
        for record in records(2, n=5):
            gem.observe(record)
        save_incremental(gem, directory, baseline)
        manifest = read_manifest(directory)
        first, second = manifest["deltas"]
        # Splice: point the first entry at the second delta's file.
        first["file"] = second["file"]
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="torn|different writes"):
            load_checkpoint(directory)

    def test_broken_parent_chain_is_torn(self, tmp_path):
        gem, directory, baseline = self._delta_checkpoint(tmp_path)
        manifest = read_manifest(directory)
        manifest["deltas"][0]["parent"] = "0" * 32
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="chains off"):
            load_checkpoint(directory)

    def test_delta_chain_without_version_bump_is_torn(self, tmp_path):
        gem, directory, baseline = self._delta_checkpoint(tmp_path)
        manifest = read_manifest(directory)
        manifest["format_version"] = CHECKPOINT_VERSION
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="delta chain"):
            load_checkpoint(directory)

    def test_dtype_mismatched_append_tail_is_torn(self, tmp_path):
        """The writer never appends across dtypes, so a delta tail whose
        dtype disagrees with the base array proves corruption — it must
        raise, not silently promote the reconstructed array."""
        gem, directory, baseline = self._delta_checkpoint(tmp_path)
        manifest = read_manifest(directory)
        entry = manifest["deltas"][-1]
        appended = [k for k in entry["append"]]
        assert appended, "test needs at least one append op"
        delta_file = directory / entry["file"]
        with np.load(delta_file) as archive:
            stored = {key: archive[key] for key in archive.files}
        stored[appended[0]] = stored[appended[0]].astype(np.float32)
        with delta_file.open("wb") as handle:
            np.savez(handle, **stored)
        with pytest.raises(CheckpointError, match="torn"):
            load_checkpoint(directory)

    def test_missing_committed_delta_file_is_torn(self, tmp_path):
        gem, directory, baseline = self._delta_checkpoint(tmp_path)
        manifest = read_manifest(directory)
        (directory / manifest["deltas"][-1]["file"]).unlink()
        with pytest.raises(CheckpointError, match="missing committed"):
            load_checkpoint(directory)


class TestIncrementalFleet:
    def test_writebacks_are_deltas_and_reloads_resume_exactly(self, tmp_path):
        registry = ModelRegistry(tmp_path / "models")
        plain = GeofenceFleet(tmp_path / "plain", capacity=1,
                              model_factory=make_gem, reservoir_size=8)
        fleet = GeofenceFleet(registry, capacity=1, model_factory=make_gem,
                              reservoir_size=8, incremental=True)
        train = records(0)
        stream = records(5, n=30)
        plain.provision("t", train)
        fleet.provision("t", train)
        decisions_plain, decisions_inc = [], []
        for index, record in enumerate(stream):
            if index % 7 == 3:  # repeated evict/reload across the chain
                plain.evict("t")
                fleet.evict("t")
            decisions_plain.append(plain.observe("t", record))
            decisions_inc.append(fleet.observe("t", record))
        assert decisions_inc == decisions_plain
        fleet.close()
        plain.close()
        totals = fleet.telemetry.totals()
        assert totals.delta_saves > 0
        # Bit-identical reconstructed state vs the full-save fleet.
        state_inc, _ = load_state(registry.path_for("t"))
        state_plain, _ = load_state(tmp_path / "plain" / "t")
        arrays_a, leaves_a = flatten_state(state_inc)
        arrays_b, leaves_b = flatten_state(state_plain)
        assert set(arrays_a) == set(arrays_b)
        assert all(np.array_equal(arrays_a[k], arrays_b[k]) for k in arrays_a)
        assert leaves_a == leaves_b

    def test_metadata_and_reservoir_travel_with_deltas(self, tmp_path):
        fleet = GeofenceFleet(tmp_path / "m", capacity=1, model_factory=make_gem,
                              reservoir_size=8, incremental=True)
        fleet.provision("t", records(0), metadata={"home": "lab"})
        for record in records(1, n=6):
            fleet.observe("t", record)
        fleet.evict("t")
        assert fleet.registry.metadata("t") == {"home": "lab"}
        reservoir = fleet.reservoir("t")  # reloads from the delta'd manifest
        assert reservoir, "anchor must survive the delta write-back"
        fleet.close()

    def test_reprovision_compacts_to_full_save(self, tmp_path):
        fleet = GeofenceFleet(tmp_path / "m", capacity=1, model_factory=make_gem,
                              reservoir_size=32, incremental=True)
        fleet.provision("t", records(0))
        for record in records(0, n=10):
            fleet.observe("t", record)
        fleet.evict("t")
        assert read_manifest(fleet.registry.path_for("t")).get("deltas")
        fleet.reprovision("t")
        fleet.evict("t")
        manifest = read_manifest(fleet.registry.path_for("t"))
        assert manifest["format_version"] == CHECKPOINT_VERSION
        assert "deltas" not in manifest
        fleet.close()

    def test_telemetry_counts_full_and_delta_saves(self, tmp_path):
        fleet = GeofenceFleet(tmp_path / "m", capacity=1, model_factory=make_gem,
                              reservoir_size=8, incremental=True)
        fleet.provision("t", records(0))
        # One write-back more than a chain holds forces a compaction.
        steps = MAX_DELTA_CHAIN + 1
        for step in range(steps):
            for record in records(step + 1, n=3):
                fleet.observe("t", record)
            fleet.evict("t")
        totals = fleet.telemetry.totals()
        # provision (full) + chain-capped compactions + deltas
        assert totals.delta_saves >= 2
        assert totals.saves >= 2
        assert totals.saves + totals.delta_saves == steps + 1
        fleet.close()


def write_parent_format(directory, refresh_cache_every=0, refresh_every=0,
                        macs_admitted=None) -> None:
    """Rewrite a GEM checkpoint the way releases with the raw auto-refresh
    and MAC admission saved it: ``refresh_cache_every`` in the spec and
    config, the embedder's ``refresh_every`` and streaming counter in its
    state (and in each delta), and optionally a ``macs_admitted`` array."""
    manifest_path = directory / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["pipeline_spec"]["model"]["params"]["refresh_cache_every"] = \
        refresh_cache_every
    manifest["state"]["config/refresh_cache_every"] = refresh_cache_every
    manifest["state"]["embedder/refresh_every"] = refresh_every
    manifest["state"]["embedder/observed_since_refresh"] = 0
    for step, entry in enumerate(manifest.get("deltas", []), start=1):
        entry["leaves"]["embedder/observed_since_refresh"] = 5 * step
    if macs_admitted is not None:
        arrays_path = directory / manifest["arrays_file"]
        with np.load(arrays_path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["embedder/model/macs_admitted"] = np.asarray(macs_admitted, dtype=np.int64)
        np.savez(arrays_path, **arrays)
        manifest["array_keys"] = sorted(arrays)
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))


class TestParentFormatCheckpoints:
    """Checkpoints saved before the raw auto-refresh and MAC admission
    were removed still carry those options at their off value."""

    def _saved_tenant(self, root):
        fleet = GeofenceFleet(root, capacity=1, model_factory=make_gem,
                              reservoir_size=8, incremental=True)
        fleet.provision("t", records(0))
        for record in records(1, n=5):
            fleet.observe("t", record)
        fleet.close()  # delta write-back
        assert read_manifest(root / "t").get("deltas")
        return root / "t"

    def _serve(self, root):
        """Load, observe, delta write-back, reload, observe again."""
        fleet = GeofenceFleet(root, capacity=1, model_factory=make_gem,
                              reservoir_size=8, incremental=True)
        before = [fleet.observe("t", record) for record in records(2, n=6)]
        fleet.evict("t")
        assert fleet.telemetry.totals().delta_saves == 1
        after = [fleet.observe("t", record) for record in records(3, n=6)]
        fleet.close()
        return before + after

    def test_off_values_load_and_write_back_identically(self, tmp_path):
        current = self._saved_tenant(tmp_path / "current")
        legacy = self._saved_tenant(tmp_path / "legacy")
        write_parent_format(legacy)
        assert_states_equal(load_checkpoint(current), load_checkpoint(legacy))
        assert self._serve(tmp_path / "legacy") == self._serve(tmp_path / "current")
        assert_states_equal(load_checkpoint(current), load_checkpoint(legacy))
        # The write-back rewrote the manifest without the removed keys.
        text = (legacy / MANIFEST_NAME).read_text()
        assert "refresh_cache_every" not in text and "observed_since" not in text

    @pytest.mark.parametrize("legacy, option", [
        ({"refresh_cache_every": 5}, "refresh_cache_every=5"),
        ({"refresh_every": 3}, "refresh_every=3"),
        ({"macs_admitted": [10]}, "macs_admitted"),
    ], ids=["refresh_cache_every", "refresh_every", "macs_admitted"])
    def test_switched_on_options_are_refused(self, tmp_path, legacy, option):
        directory = self._saved_tenant(tmp_path / "m")
        write_parent_format(directory, **legacy)
        with pytest.raises(CheckpointError, match=option):
            load_checkpoint(directory)


def write_streamed_graph(directory, streamed, macs_aggregated=None) -> None:
    """Rewrite a full GEM checkpoint the way releases that connected
    streamed records into the graph saved it: the records appended to
    the graph arrays (interning MACs training never heard), cache rows
    for those MACs and — as after a refresh over the grown graph — for
    the records, and the ``macs_aggregated`` boundary leaf."""
    manifest_path = directory / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    arrays_path = directory / manifest["arrays_file"]
    with np.load(arrays_path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    names = list(manifest["state"]["embedder/graph/mac_names"])
    trained = len(names)
    indptr = list(arrays["embedder/graph/record_indptr"])
    edge_macs = list(arrays["embedder/graph/edge_macs"])
    edge_weights = list(arrays["embedder/graph/edge_weights"])
    for record in streamed:
        for mac, rss in record.readings.items():
            if mac not in names:
                names.append(mac)
            edge_macs.append(names.index(mac))
            edge_weights.append(rss + 120.0)
        indptr.append(len(edge_macs))
    arrays["embedder/graph/record_indptr"] = np.asarray(indptr, dtype=np.int64)
    arrays["embedder/graph/edge_macs"] = np.asarray(edge_macs, dtype=np.int64)
    arrays["embedder/graph/edge_weights"] = np.asarray(edge_weights, dtype=np.float64)
    rng = np.random.default_rng(0)
    for key in [key for key in arrays if key.startswith("embedder/model/cache_")]:
        extra = len(streamed) if key.split("/")[2].endswith("u") else len(names) - trained
        arrays[key] = np.vstack([arrays[key], rng.normal(size=(extra, arrays[key].shape[1]))])
    np.savez(arrays_path, **arrays)
    manifest["array_keys"] = sorted(arrays)
    manifest["state"]["embedder/graph/mac_names"] = names
    manifest["state"]["embedder/model/macs_aggregated"] = (
        trained if macs_aggregated is None else macs_aggregated)
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))


def streamed_records(n: int = 8):
    """Streamed scans, every other one also hearing an AP training never heard."""
    return [SignalRecord({**record.readings, **({f"late-ap-{i}": -55.0} if i % 2 else {})})
            for i, record in enumerate(records(7, n=n))]


class TestStreamedGraphCheckpoints:
    """Checkpoints saved while streamed records were still connected into
    the graph load cut down to the training graph."""

    def test_loads_with_the_training_graph_and_identical_decisions(self, tmp_path):
        gem = make_gem().fit(records(0))
        save_checkpoint(gem, tmp_path / "legacy")
        write_streamed_graph(tmp_path / "legacy", streamed_records())
        assert len(load_state(tmp_path / "legacy")[0]["embedder"]["graph"]["record_indptr"]) == 34
        loaded = load_checkpoint(tmp_path / "legacy")
        assert loaded.graph.num_records == 25
        assert loaded.graph.num_macs == gem.graph.num_macs
        assert_states_equal(loaded, gem)
        probe = streamed_records(12)
        assert all(loaded.embedder.prepare(r) is not None for r in probe)
        assert [loaded.score(r) for r in probe] == [gem.score(r) for r in probe]
        assert loaded.observe_many(probe) == [gem.observe(r) for r in probe]

    def test_write_back_leaves_the_streamed_rows_out(self, tmp_path):
        with GeofenceFleet(tmp_path / "m", capacity=1, model_factory=make_gem,
                           reservoir_size=8, incremental=True) as fleet:
            fleet.provision("t", records(0))
        write_streamed_graph(tmp_path / "m" / "t", streamed_records())
        with GeofenceFleet(tmp_path / "m", capacity=1, model_factory=make_gem,
                           reservoir_size=8, incremental=True) as fleet:
            for record in records(2, n=6):
                fleet.observe("t", record)
        state, _ = load_state(tmp_path / "m" / "t")
        graph = state["embedder"]["graph"]
        assert len(graph["record_indptr"]) == 26
        assert not [name for name in graph["mac_names"] if name.startswith("late-ap")]
        assert "macs_aggregated" not in state["embedder"]["model"]
        assert all(len(layer) == 25 for layer in state["embedder"]["model"]["cache_hu"].values())

    def test_training_edges_past_the_boundary_are_refused(self, tmp_path):
        gem = make_gem().fit(records(0))
        save_checkpoint(gem, tmp_path / "bad")
        write_streamed_graph(tmp_path / "bad", streamed_records(),
                             macs_aggregated=gem.graph.num_macs - 1)
        with pytest.raises(ValueError, match="past the"):
            GEM.from_state_dict(load_state(tmp_path / "bad")[0])
        with pytest.raises(CheckpointError, match="past the"):
            load_checkpoint(tmp_path / "bad")
