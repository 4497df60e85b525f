"""Checkpoint format: round-trip identity, versioning, failure modes."""

import io
import json
import zipfile

import numpy as np
import pytest

import reference
from conftest import synthetic_records
from repro.core import GEM, GEMConfig, SignalRecord
from repro.core.io import records_to_columns
from repro.detection.histogram import HistogramConfig, HistogramDetector
from repro.embedding.bisage import BiSAGE, BiSAGEConfig
from repro.graph.bipartite import WeightedBipartiteGraph
from repro.graph.builder import build_graph
from repro.serve.checkpoint import (
    ARRAYS_PREFIX,
    ARRAYS_SUFFIX,
    CHECKPOINT_VERSION,
    MANIFEST_NAME,
    CheckpointError,
    _HEADER_CACHE_SIZE,
    _npy_dtype,
    flatten_state,
    load_checkpoint,
    read_manifest,
    read_npz,
    save_checkpoint,
    unflatten_state,
)


def arrays_path(directory):
    manifest = read_manifest(directory)
    return directory / manifest["arrays_file"]

FAST_BISAGE = BiSAGEConfig(dim=8, epochs=1, seed=0)
FAST_CONFIG = GEMConfig(bisage=FAST_BISAGE)


def fitted_gem(center: float = 2.0, n: int = 30, seed: int = 0,
               config: GEMConfig = FAST_CONFIG) -> GEM:
    return GEM(config).fit(synthetic_records(n, seed=seed, center=center))


class TestFlatten:
    def test_roundtrip_nested(self):
        state = {"a": {"b": np.arange(3), "c": 1.5}, "d": [1, 2], "e": {"f": {"g": True}}}
        arrays, leaves = flatten_state(state)
        assert set(arrays) == {"a/b"}
        assert leaves["a/c"] == 1.5 and leaves["e/f/g"] is True
        rebuilt = unflatten_state(arrays, leaves)
        assert rebuilt["d"] == [1, 2]
        np.testing.assert_array_equal(rebuilt["a"]["b"], np.arange(3))

    def test_separator_in_key_rejected(self):
        with pytest.raises(ValueError, match="/"):
            flatten_state({"bad/key": 1})

    def test_numpy_scalars_become_json(self):
        _, leaves = flatten_state({"n": np.int64(3), "x": np.float64(0.5), "b": np.bool_(True)})
        assert json.dumps(leaves)  # all JSON-safe
        assert leaves == {"n": 3, "x": 0.5, "b": True}


class TestGraphState:
    def test_roundtrip_preserves_structure(self):
        graph = build_graph(synthetic_records(12, seed=3))
        clone = WeightedBipartiteGraph.from_state_dict(graph.state_dict())
        assert clone.num_records == graph.num_records
        assert clone.num_macs == graph.num_macs
        assert clone.num_edges == graph.num_edges
        assert clone.state_dict()["mac_names"] == graph.state_dict()["mac_names"]
        for ours, theirs in zip(graph.record_adjacency(), clone.record_adjacency()):
            np.testing.assert_array_equal(ours, theirs)
        for j in range(graph.num_macs):
            ours, theirs = graph.neighbors("V", j), clone.neighbors("V", j)
            np.testing.assert_array_equal(ours[0], theirs[0])
            np.testing.assert_array_equal(ours[1], theirs[1])

    def test_inconsistent_edges_rejected(self):
        state = build_graph(synthetic_records(5, seed=0)).state_dict()
        state["edge_weights"] = state["edge_weights"][:-1]
        with pytest.raises(ValueError, match="inconsistent"):
            WeightedBipartiteGraph.from_state_dict(state)

    def test_unknown_mac_index_rejected(self):
        state = build_graph(synthetic_records(5, seed=0)).state_dict()
        state["mac_names"] = state["mac_names"][:1]
        with pytest.raises(ValueError, match="MAC"):
            WeightedBipartiteGraph.from_state_dict(state)

    def test_non_monotonic_indptr_rejected(self):
        state = build_graph(synthetic_records(5, seed=0)).state_dict()
        indptr = state["record_indptr"].copy()
        indptr[1], indptr[2] = indptr[2], indptr[1]   # interior decrease
        state["record_indptr"] = indptr
        with pytest.raises(ValueError, match="inconsistent"):
            WeightedBipartiteGraph.from_state_dict(state)

    def test_negative_mac_index_rejected(self):
        state = build_graph(synthetic_records(5, seed=0)).state_dict()
        state["edge_macs"] = state["edge_macs"].copy()
        state["edge_macs"][0] = -1
        with pytest.raises(ValueError, match="MAC"):
            WeightedBipartiteGraph.from_state_dict(state)

    @pytest.mark.parametrize("weight", [0.0, -5.0, np.nan, np.inf])
    def test_bad_edge_weight_rejected(self, weight):
        state = build_graph(synthetic_records(5, seed=0)).state_dict()
        state["edge_weights"] = state["edge_weights"].copy()
        state["edge_weights"][3] = weight
        with pytest.raises(ValueError, match="finite and positive"):
            WeightedBipartiteGraph.from_state_dict(state)

    def test_duplicate_mac_names_rejected(self):
        state = build_graph(synthetic_records(5, seed=0)).state_dict()
        state["mac_names"][1] = state["mac_names"][0]
        with pytest.raises(ValueError, match="duplicate MAC names"):
            WeightedBipartiteGraph.from_state_dict(state)

    def test_mac_repeated_within_record_rejected(self):
        state = build_graph(synthetic_records(5, seed=0)).state_dict()
        assert state["record_indptr"][1] >= 2
        state["edge_macs"] = state["edge_macs"].copy()
        state["edge_macs"][1] = state["edge_macs"][0]
        with pytest.raises(ValueError, match="repeated within one record"):
            WeightedBipartiteGraph.from_state_dict(state)

    def test_corrupt_graph_fails_load_checkpoint(self, tmp_path):
        # Graph validation raises ValueError, which the loader maps to
        # CheckpointError (an AssertionError would escape it).
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        path = arrays_path(tmp_path / "ckpt")
        with np.load(path) as stored:
            arrays = dict(stored)
        [key] = [k for k in arrays if k.endswith("graph/edge_weights")]
        arrays[key] = arrays[key].copy()
        arrays[key][0] = np.nan
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(CheckpointError, match="finite and positive"):
            load_checkpoint(tmp_path / "ckpt")


class TestBiSAGEState:
    def test_embeddings_identical_after_reload(self):
        records = synthetic_records(25, seed=1)
        graph = build_graph(records)
        model = BiSAGE(FAST_BISAGE).fit(graph)
        clone = BiSAGE(FAST_BISAGE).load_state_dict(
            model.state_dict(), WeightedBipartiteGraph.from_state_dict(graph.state_dict()))
        np.testing.assert_array_equal(clone.record_embeddings(), model.record_embeddings())
        readings = synthetic_records(1, seed=77)[0].readings
        np.testing.assert_array_equal(reference.embed_readings(clone, readings),
                                      reference.embed_readings(model, readings))

    def test_config_mismatch_rejected(self):
        graph = build_graph(synthetic_records(10, seed=0))
        model = BiSAGE(FAST_BISAGE).fit(graph)
        with pytest.raises(ValueError, match="config"):
            BiSAGE(BiSAGEConfig(dim=4, epochs=1, seed=0)).load_state_dict(
                model.state_dict(), graph)


class TestHistogramState:
    def test_scores_identical_after_reload(self, rng):
        data = rng.normal(size=(60, 6))
        detector = HistogramDetector(HistogramConfig()).fit(data)
        detector.update(rng.normal(size=(5, 6)))
        clone = HistogramDetector(HistogramConfig()).load_state_dict(detector.state_dict())
        queries = rng.normal(size=(20, 6))
        np.testing.assert_array_equal(clone.decision_scores(queries),
                                      detector.decision_scores(queries))
        assert clone.num_updates == detector.num_updates
        assert clone.num_samples == detector.num_samples

    def test_config_mismatch_rejected(self, rng):
        detector = HistogramDetector(HistogramConfig()).fit(rng.normal(size=(30, 4)))
        other = HistogramDetector(HistogramConfig(num_bins=7))
        with pytest.raises(ValueError, match="config"):
            other.load_state_dict(detector.state_dict())


class TestGEMCheckpoint:
    def test_decision_scores_and_decisions_identical(self, tmp_path):
        gem = fitted_gem()
        held = synthetic_records(15, num_macs=10, seed=9, center=2.0)
        save_checkpoint(gem, tmp_path / "ckpt", metadata={"home": "apt-3"})
        clone = load_checkpoint(tmp_path / "ckpt")
        assert [gem.score(r) for r in held] == [clone.score(r) for r in held]
        # Held-out observe stream: decisions (and self-update behaviour)
        # must track the original exactly.
        stream = synthetic_records(10, seed=21, center=2.0)
        assert gem.observe_many(stream) == clone.observe_many(stream)
        assert gem.flush_updates() == clone.flush_updates()
        assert gem.detector.num_samples == clone.detector.num_samples

    def test_partial_update_buffer_survives(self, tmp_path):
        from dataclasses import replace
        gem = fitted_gem(config=replace(FAST_CONFIG, batch_update_size=50))
        gem.observe_many(synthetic_records(10, seed=5, center=2.0))
        assert gem.pending_updates > 0
        save_checkpoint(gem, tmp_path / "ckpt")
        clone = load_checkpoint(tmp_path / "ckpt")
        assert clone.pending_updates == gem.pending_updates

    def test_manifest_contents(self, tmp_path):
        save_checkpoint(fitted_gem(), tmp_path / "ckpt", metadata={"note": "x"})
        manifest = read_manifest(tmp_path / "ckpt")
        assert manifest["format_version"] == CHECKPOINT_VERSION
        assert manifest["model_class"] == "GEM"
        assert manifest["metadata"] == {"note": "x"}
        assert manifest["array_keys"]
        assert isinstance(manifest["saved_at"], int)   # nanoseconds

    def test_float_saved_at_from_earlier_releases_loads(self, tmp_path):
        gem = fitted_gem()
        save_checkpoint(gem, tmp_path / "ckpt")
        path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["saved_at"] = 1760860000.1234567
        path.write_text(json.dumps(manifest))
        held = synthetic_records(5, num_macs=10, seed=9, center=2.0)
        clone = load_checkpoint(tmp_path / "ckpt")
        assert [gem.score(r) for r in held] == [clone.score(r) for r in held]

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="unfitted"):
            save_checkpoint(GEM(FAST_CONFIG), tmp_path / "ckpt")

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "nope")

    def test_future_version_rejected(self, tmp_path):
        from repro.serve.checkpoint import SUPPORTED_VERSIONS
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["format_version"] = max(SUPPORTED_VERSIONS) + 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(tmp_path / "ckpt")

    def test_torn_checkpoint_detected(self, tmp_path):
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["array_keys"] = manifest["array_keys"][:-1]
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="torn"):
            load_checkpoint(tmp_path / "ckpt")

    def test_crash_before_manifest_commit_keeps_old_checkpoint(self, tmp_path):
        # Simulate a crash after the new arrays file landed but before
        # the manifest commit: the old checkpoint must load untouched.
        gem = fitted_gem()
        save_checkpoint(gem, tmp_path / "ckpt")
        held = synthetic_records(5, seed=40, center=2.0)
        old_scores = [gem.score(r) for r in held]
        orphan = tmp_path / "ckpt" / f"{ARRAYS_PREFIX}deadbeef{ARRAYS_SUFFIX}"
        orphan.write_bytes(b"half-written garbage")
        clone = load_checkpoint(tmp_path / "ckpt")
        assert [clone.score(r) for r in held] == old_scores
        # The next successful save cleans the orphan up.
        save_checkpoint(gem, tmp_path / "ckpt")
        assert not orphan.exists()

    def test_mixed_generation_files_detected(self, tmp_path):
        # A manually recombined manifest + arrays pair from different
        # saves (same structural key names) is rejected by the nonce.
        gem = fitted_gem()
        save_checkpoint(gem, tmp_path / "ckpt")
        old_arrays = arrays_path(tmp_path / "ckpt")
        blob = old_arrays.read_bytes()
        gem.observe(synthetic_records(1, seed=33, center=2.0)[0])
        save_checkpoint(gem, tmp_path / "ckpt")
        arrays_path(tmp_path / "ckpt").write_bytes(blob)
        with pytest.raises(CheckpointError, match="different saves"):
            load_checkpoint(tmp_path / "ckpt")

    def test_corrupt_manifest_detected(self, tmp_path):
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        (tmp_path / "ckpt" / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(tmp_path / "ckpt")

    def test_missing_state_leaf_raises_checkpoint_error(self, tmp_path):
        # Structurally invalid state surfaces as CheckpointError, not a
        # bare KeyError the fleet's error handling would miss.
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        del manifest["state"]["self_update"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="structurally invalid"):
            load_checkpoint(tmp_path / "ckpt")

    def test_crashed_save_temp_files_cleaned_up(self, tmp_path):
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        orphan = tmp_path / "ckpt" / f".{ARRAYS_PREFIX}old{ARRAYS_SUFFIX}.abc123"
        orphan.write_bytes(b"crashed temp")
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        assert not orphan.exists()

    def test_missing_arrays_detected(self, tmp_path):
        save_checkpoint(fitted_gem(), tmp_path / "ckpt")
        arrays_path(tmp_path / "ckpt").unlink()
        with pytest.raises(CheckpointError, match="missing its arrays file"):
            load_checkpoint(tmp_path / "ckpt")

    def test_load_into_mismatched_pipeline_config_rejected(self, tmp_path):
        from dataclasses import replace
        gem = fitted_gem()
        save_checkpoint(gem, tmp_path / "ckpt")
        other = GEM(replace(FAST_CONFIG, batch_update_size=5))
        with pytest.raises(ValueError, match="config"):
            other.load_state_dict(gem.state_dict())

    def test_corrupt_state_leaves_live_model_untouched(self):
        # All-or-nothing restore: a bad detector payload must not leave
        # a live model with a new embedder and the old detector.
        gem = fitted_gem()
        held = synthetic_records(5, seed=41, center=2.0)
        before = [gem.score(r) for r in held]
        state = fitted_gem(seed=1).state_dict()
        state["detector"]["data"] = np.full_like(state["detector"]["data"], np.nan)
        with pytest.raises(ValueError):
            gem.load_state_dict(state)
        assert [gem.score(r) for r in held] == before


# Maintenance clauses that no longer exist, each switched on as an older
# release would have persisted it (``to_dict`` omits default values).
REMOVED_CLAUSES = {"flush_every": 64, "evict_idle_sweeps": 2,
                   "max_unembeddable_rate": 0.3}


@pytest.mark.parametrize("clause", sorted(REMOVED_CLAUSES))
class TestRemovedMaintenanceClauses:
    """A spec or policy file that still carries a removed clause is
    refused with its name, never loaded with the clause silently off."""

    def registry_with_clause(self, root, clause):
        from repro.pipeline import ComponentSpec, PipelineSpec
        from repro.serve import GeofenceFleet, MaintenancePolicy
        spec = PipelineSpec(model=ComponentSpec("gem", FAST_CONFIG.to_dict()),
                            maintenance=MaintenancePolicy(check_every=4))
        with GeofenceFleet(root) as fleet:
            fleet.provision("home", synthetic_records(30, seed=0, center=2.0),
                            spec=spec)
        path = root / "home" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["pipeline_spec"]["maintenance"][clause] = REMOVED_CLAUSES[clause]
        path.write_text(json.dumps(manifest))
        return root

    def test_fleet_load_names_the_clause(self, clause, tmp_path):
        from repro.serve import GeofenceFleet
        root = self.registry_with_clause(tmp_path / "reg", clause)
        with GeofenceFleet(root) as fleet:
            with pytest.raises(CheckpointError, match=clause):
                fleet.observe("home", synthetic_records(1, seed=5, center=2.0)[0])
            assert fleet.resident_tenants == []

    def test_maintain_dry_run_exits_two(self, clause, tmp_path, capsys):
        from repro.cli import main
        root = self.registry_with_clause(tmp_path / "reg", clause)
        assert main(["maintain", "--registry", str(root), "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert clause in err

    def test_runtime_policy_file_exits_two(self, clause, tmp_path, capsys):
        from repro.cli import main
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"check_every": 4,
                                      clause: REMOVED_CLAUSES[clause]}))
        events = tmp_path / "events.jsonl"
        events.write_text("")
        assert main(["runtime", "--registry", str(tmp_path / "reg"),
                     "--events", str(events), "--policy", str(policy)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert clause in err


class TestPersistedActivation:
    """Checkpoints written while ``activation`` was a SAGE option name it
    in the spec and in every persisted SAGE config: ``"tanh"``, the only
    activation, still loads; any other value is refused by name."""

    def registry_naming(self, root, activation):
        from repro.pipeline import ComponentSpec, PipelineSpec
        from repro.serve import GeofenceFleet
        spec = PipelineSpec(model=ComponentSpec("gem", FAST_CONFIG.to_dict()))
        with GeofenceFleet(root) as fleet:
            fleet.provision("home", synthetic_records(30, seed=0, center=2.0),
                            spec=spec)
        if activation is not None:
            path = root / "home" / MANIFEST_NAME
            manifest = json.loads(path.read_text())
            manifest["pipeline_spec"]["model"]["params"]["bisage"]["activation"] = activation
            state = manifest["state"]
            for key in [key for key in state if key.endswith("/negative_power")]:
                state[key.replace("/negative_power", "/activation")] = activation
            path.write_text(json.dumps(manifest))
        return root

    def test_tanh_loads_with_identical_decisions(self, tmp_path):
        from repro.serve import GeofenceFleet
        stream = synthetic_records(40, seed=5, center=2.0)
        decisions = []
        for name, activation in (("current", None), ("persisted", "tanh")):
            root = self.registry_naming(tmp_path / name, activation)
            with GeofenceFleet(root) as fleet:
                decisions.append([(d.inside, d.score.hex(), d.confident)
                                  for d in fleet.observe_many(
                                      ("home", record) for record in stream)])
        assert decisions[0] == decisions[1]

    def test_other_values_are_refused_by_name(self, tmp_path):
        from repro.serve import GeofenceFleet
        root = self.registry_naming(tmp_path / "reg", "relu")
        with GeofenceFleet(root) as fleet:
            with pytest.raises(CheckpointError, match="'activation'"):
                fleet.observe("home", synthetic_records(1, seed=5, center=2.0)[0])
            assert fleet.resident_tenants == []


def npz_bytes(**arrays) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def zip_of(members: dict[str, bytes]) -> bytes:
    """An npz-shaped zip holding the given raw member bytes."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return buffer.getvalue()


def npy_bytes(array, version=None) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, version=version)
    return buffer.getvalue()


def np_load_all(data: bytes) -> dict:
    with np.load(io.BytesIO(data)) as archive:
        return {key: archive[key] for key in archive.files}


def positioned_columns(width: int):
    records = [SignalRecord({"aa:01": -50.0, "b": -61.5}, timestamp=1.0,
                            position=tuple(float(i) for i in range(width))),
               SignalRecord({}, timestamp=2.0)]
    return records_to_columns(records)


class TestNpzReader:
    """The checkpoint's one npz reader against ``np.load``."""

    def checkpoint_arrays(self, tmp_path) -> bytes:
        gem = fitted_gem()
        metadata = {"reservoir": {"anchor": positioned_columns(3),
                                  "recent": positioned_columns(2),
                                  "empty": records_to_columns([])}}
        save_checkpoint(gem, tmp_path / "ck", metadata=metadata)
        return arrays_path(tmp_path / "ck").read_bytes()

    def assert_same_as_np_load(self, data: bytes) -> None:
        got, expected = read_npz(io.BytesIO(data)), np_load_all(data)
        assert list(got) == list(expected)
        for key, want in expected.items():
            array = got[key]
            assert array.dtype == want.dtype and array.shape == want.shape, key
            assert array.tobytes() == want.tobytes(), key
            assert array.flags.writeable and want.flags.writeable, key
            assert array.flags.c_contiguous == want.flags.c_contiguous, key
            assert array.flags.f_contiguous == want.flags.f_contiguous, key

    def test_every_array_a_checkpoint_writes(self, tmp_path):
        data = self.checkpoint_arrays(tmp_path)
        self.assert_same_as_np_load(data)
        names = np_load_all(data)
        assert names["__save_id__"].dtype == np.uint8
        assert names["__metadata__/reservoir/anchor/records"].dtype["pos"].shape == (3,)
        assert names["__metadata__/reservoir/empty/macs"].shape == (0,)

    def test_odd_dtypes_and_shapes(self):
        self.assert_same_as_np_load(npz_bytes(
            rows=positioned_columns(2)["records"], no_pos=positioned_columns(0)["records"],
            table=np.array(["aa:01", "b"]), empty_table=np.array([], dtype=str),
            scalar=np.float64(3.5), flag=np.array(True), empty=np.zeros(0),
            empty_rows=np.zeros((4, 0)), nonce=np.frombuffer(b"0123abcd", dtype=np.uint8),
            fortran=np.asfortranarray(np.arange(12.0).reshape(3, 4)),
            big_endian=np.arange(6, dtype=">i2").reshape(2, 3),
            record0d=np.zeros((), dtype=[("x", "<i4"), ("y", "<f8", (2,))])))

    @pytest.mark.parametrize("member", [
        npy_bytes(np.arange(5.0), version=(2, 0)),
        npy_bytes(np.arange(5.0), version=(3, 0)),
        b"\x93NUMPY\x01\x00" + (lambda h: len(h).to_bytes(2, "little") + h)(
            b"{'shape': (5,), 'fortran_order': False, 'descr': '<f8'}".ljust(117) + b"\n")
        + np.arange(5.0).tobytes(),
    ], ids=["version-2", "version-3", "keys-out-of-order"])
    def test_headers_it_does_not_parse_go_to_numpy(self, member):
        self.assert_same_as_np_load(zip_of({"a.npy": member}))

    @pytest.mark.parametrize("make, match", [
        (lambda: npz_bytes(objects=np.array([{"a": 1}], dtype=object)), "Object arrays"),
        (lambda: zip_of({"a.npy": npy_bytes(np.arange(8.0))[:-8]}), "EOF"),
        (lambda: zip_of({"a.npy": npy_bytes(np.arange(3.0)).replace(b"(3,), }", b"(3), } ")}),
         "shape"),
        (lambda: zip_of({"a.npy": npy_bytes(np.arange(3.0)).replace(b"(3,), } ", b"(03,), }")}),
         "header"),
        (lambda: flip_payload_byte(npz_bytes(a=np.arange(64.0))), "CRC"),
        (lambda: npz_bytes(a=np.zeros(2, dtype=[(f"field{i:04d}", "<f8") for i in range(600)])),
         "large"),
    ], ids=["object-dtype", "short-member", "shape-not-a-tuple", "shape-leading-zero", "crc",
            "header-too-long"])
    def test_refuses_what_np_load_refuses(self, make, match):
        data = make()
        with pytest.raises((ValueError, zipfile.BadZipFile)):
            np_load_all(data)
        with pytest.raises((ValueError, zipfile.BadZipFile), match=match):
            read_npz(io.BytesIO(data))

    def test_refuses_a_member_that_is_not_an_npy_array(self):
        # np.load hands such a member back as raw bytes, which no
        # checkpoint array can be; the reader refuses it outright.
        data = zip_of({"a.npy": b"\x93NUMPX" + npy_bytes(np.arange(3.0))[6:]})
        assert isinstance(np_load_all(data)["a"], bytes)
        with pytest.raises(ValueError, match="magic"):
            read_npz(io.BytesIO(data))
        data = zip_of({"a.npy": npy_bytes(np.arange(3.0)), "notes.txt": b"not an array"})
        assert isinstance(np_load_all(data)["notes.txt"], bytes)
        with pytest.raises(ValueError, match="not a .npy array"):
            read_npz(io.BytesIO(data))

    def test_a_crc_mismatch_fails_the_load(self, tmp_path):
        save_checkpoint(fitted_gem(), tmp_path / "ck")
        path = arrays_path(tmp_path / "ck")
        path.write_bytes(flip_payload_byte(path.read_bytes()))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(tmp_path / "ck")

    def test_header_cache_stays_bounded(self):
        """Row counts change at every save; the cache is keyed on the
        header without its shape, so it holds one entry per dtype."""
        _npy_dtype.cache_clear()
        for rows in range(1, 1001):
            columns = records_to_columns(
                [SignalRecord({"aa:01": -50.0 - i % 7}, timestamp=float(i))
                 for i in range(rows % 50)])
            read_npz(io.BytesIO(npz_bytes(data=np.zeros((rows, 8)), **columns)))
        # data, macs (<U5, and <U1 for the empty sets), edges, records
        assert _npy_dtype.cache_info().currsize == 5 < _HEADER_CACHE_SIZE


def flip_payload_byte(data: bytes) -> bytes:
    """``data`` with the last payload byte of its first member flipped:
    the headers still parse, the member fails its CRC."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        info = archive.infolist()[0]
    local = data[info.header_offset:]
    start = (info.header_offset + 30 + int.from_bytes(local[26:28], "little")
             + int.from_bytes(local[28:30], "little"))
    at = start + info.compress_size - 1
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]
