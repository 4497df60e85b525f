"""Differential bit-identity harness: scalar vs vectorized data plane.

Replays identical record streams — drift epochs, unknown-MAC records,
empty-reading records (+inf scores), empty batches, batch-size 1 vs N
splits — through the scalar per-record loop and through the batch plane
for **every registry arm**, asserting bit-identical decisions and
byte-identical post-stream ``state_dict()`` trees.  Arms without batch
support must come out identical too (the plane falls back to the same
scalar loop), so the whole fallback matrix is exercised, not just the
fast path.  One level up, the fleet's single ``observe`` (a batch of
one) must match its ``observe_many`` over a whole stream.

The off-batch callers of the inference kernel are held to the same
standard: ``predict_many``, the quarantine's consistency gate on a
shocked stream, a coordinated refresh and the detector's training
embeddings must match the per-record scalar embed and ``is_outlier``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields

import numpy as np
import pytest

from conftest import synthetic_records
from repro.core.config import GEMConfig
from repro.core.io import records_to_columns
from repro.core.records import SignalRecord
from repro.embedding.bisage import BiSAGEConfig
from repro.eval.algorithms import ALGORITHM_NAMES, arm_accepts, arm_spec
from repro.pipeline import build_pipeline
from repro.serve import GeofenceFleet, ModelRegistry
from repro.serve.batchplane import BatchPlane, arm_label, fastpath_reason
from repro.serve.quarantine import ConsistencyGate, QuarantineBuffer, home_anchor_macs
from repro.serve.telemetry import TenantStats

# The outcome the batch plane must report per arm: only graph-embedder +
# histogram compositions may engage; everything else names its reason.
EXPECTED_OUTCOME = {
    "GEM": "engaged",
    "GraphSAGE+OD": "engaged",
    "GEM(plain-HBOS)": "engaged",
    "SignatureHome": "fallback_model",
    "INOA": "fallback_model",
    "Autoencoder+OD": "fallback_embedder",
    "MDS+OD": "fallback_embedder",
    "GEM(no-BiSAGE)": "fallback_embedder",
    "BiSAGE+FeatureBagging": "fallback_detector",
    "BiSAGE+iForest": "fallback_detector",
    "BiSAGE+LOF": "fallback_detector",
}


def small_gem_config() -> GEMConfig:
    return GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1), batch_update_size=4)


def small_arm_spec(name: str):
    dim = 8 if arm_accepts(name, "dim") else 32
    return arm_spec(name, dim=dim, gem_config=small_gem_config())


def build_arm(name: str):
    return build_pipeline(small_arm_spec(name))


def adversarial_stream(n: int = 48, seed: int = 7) -> list[SignalRecord]:
    """Drift epochs + unknown MACs + empty readings, deterministically mixed."""
    rng = np.random.default_rng(seed)
    inliers = synthetic_records(n, seed=seed, center=0.0)
    drifted = synthetic_records(n, seed=seed + 1, center=4.0)
    stream = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.08:
            stream.append(SignalRecord({}, timestamp=float(9000 + i)))
        elif roll < 0.18:
            stream.append(SignalRecord({f"zz{m:02d}": -60.0 - m for m in range(3)},
                                       timestamp=float(9000 + i)))
        elif roll < 0.55:
            stream.append(inliers[i])
        else:
            stream.append(drifted[i])
    return stream


def assert_trees_identical(a, b, path="state"):
    """Byte-exact recursive comparison of two state_dict trees."""
    assert type(a) is type(b), f"{path}: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, dict):
        assert set(a) == set(b), f"{path}: keys differ: {set(a) ^ set(b)}"
        for key in a:
            assert_trees_identical(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.dtype == b.dtype, f"{path}: shape/dtype"
        assert a.tobytes() == b.tobytes(), f"{path}: array bytes differ"
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_trees_identical(x, y, f"{path}[{i}]")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def assert_decisions_identical(scalar, batch):
    assert len(scalar) == len(batch)
    for i, (s, b) in enumerate(zip(scalar, batch)):
        assert s == b, f"decision {i}: scalar {s} vs batch {b}"
        # GeofenceDecision equality covers the floats; make the
        # bit-identity explicit for the score (== would pass -0.0/0.0).
        if not (math.isinf(s.score) or math.isinf(b.score)):
            assert np.float64(s.score).tobytes() == np.float64(b.score).tobytes(), \
                f"decision {i}: score bits differ"


@pytest.mark.parametrize("arm", ALGORITHM_NAMES)
def test_scalar_vs_batch_bit_identity(arm):
    model = build_arm(arm)
    train = synthetic_records(60, seed=3)
    model.fit(train)
    scalar_model = copy.deepcopy(model)
    batch_model = copy.deepcopy(model)
    stream = adversarial_stream()

    plane = BatchPlane()
    scalar = [scalar_model.observe(r) for r in stream]
    batch = []
    outcomes = set()
    for start in range(0, len(stream), 16):
        chunk, outcome = plane.observe_batch(batch_model, stream[start:start + 16])
        batch.extend(chunk)
        outcomes.add(outcome)

    assert outcomes == {EXPECTED_OUTCOME[arm]}
    assert fastpath_reason(model) == (None if EXPECTED_OUTCOME[arm] == "engaged"
                                      else EXPECTED_OUTCOME[arm].removeprefix("fallback_"))
    assert_decisions_identical(scalar, batch)
    assert_trees_identical(scalar_model.state_dict(), batch_model.state_dict())


@pytest.mark.parametrize("arm", ["GEM", "GraphSAGE+OD", "GEM(plain-HBOS)"])
def test_batch_size_one_vs_n_splits(arm):
    """Every split of the same stream yields the same decisions + state."""
    model = build_arm(arm)
    model.fit(synthetic_records(60, seed=3))
    stream = adversarial_stream()

    one = copy.deepcopy(model)
    whole = copy.deepcopy(model)
    ragged = copy.deepcopy(model)

    by_one = []
    for record in stream:
        by_one.extend(one.observe_many([record]))
    at_once = whole.observe_many(stream)
    by_ragged = []
    sizes = [1, 3, 7, 1, 16, 5]
    start = 0
    while start < len(stream):
        size = sizes[start % len(sizes)]
        by_ragged.extend(ragged.observe_many(stream[start:start + size]))
        start += size

    assert_decisions_identical(at_once, by_one)
    assert_decisions_identical(at_once, by_ragged)
    assert_trees_identical(whole.state_dict(), one.state_dict())
    assert_trees_identical(whole.state_dict(), ragged.state_dict())


def fastpath_counts(fleet) -> dict[tuple[str, str], float]:
    family = fleet.telemetry.metrics.snapshot()["repro_batch_fastpath_total"]
    return {(series["labels"]["arm"], series["labels"]["outcome"]): series["value"]
            for series in family["series"]}


@pytest.mark.parametrize("arm,quarantine_size", [("GEM", 64), ("INOA", 0)])
def test_fleet_observe_is_a_batch_of_one(arm, quarantine_size, tmp_path):
    """``GeofenceFleet.observe`` record by record equals one
    ``observe_many`` over the whole stream: decisions, model state,
    reservoir and the telemetry totals.  Its quarantine equals the
    per-record reference loop.  Each single observe is one batch of the
    plane (engaged, or the per-record fallback for models without
    ``observe_many``)."""
    train = synthetic_records(60, seed=3)
    stream = adversarial_stream(96)
    fleets = {}
    for mode in ("single", "whole"):
        fleet = GeofenceFleet(ModelRegistry(tmp_path / mode), capacity=2,
                              quarantine_size=quarantine_size)
        fleet.provision("t", train, spec=small_arm_spec(arm))
        fleets[mode] = fleet
    single, whole = fleets["single"], fleets["whole"]
    by_one = [single.observe("t", record) for record in stream]
    at_once = whole.observe_many([("t", record) for record in stream])

    assert_decisions_identical(at_once, by_one)
    assert_trees_identical(whole.resident("t").state_dict(),
                           single.resident("t").state_dict())
    assert_trees_identical(records_to_columns(whole.reservoir("t")),
                           records_to_columns(single.reservoir("t")))
    if quarantine_size:
        # observe_many gates a group's rejected records after the whole
        # group is observed, so a detector self-update later in the
        # group can change a whole-stream quarantine.  A single observe
        # gates with the detector that rejected the record, as the
        # per-record loop below does.
        reference = build_arm(arm).fit(train)
        buffer = QuarantineBuffer(quarantine_size, tenant_key="t",
                                  gate=ConsistencyGate())
        buffer.set_home(home_anchor_macs(train, buffer.min_anchor_fraction))
        for record in stream:
            decision = reference.observe(record)
            if record.readings and not decision.inside:
                buffer.consider(reference, record)
        assert buffer.records, "stream admitted no quarantine evidence"
        assert_trees_identical(single._quarantine["t"].state_dict(),
                               buffer.state_dict())
    untimed = [f.name for f in fields(TenantStats) if not f.name.endswith("_seconds")]
    assert ({name: getattr(whole.telemetry.totals(), name) for name in untimed}
            == {name: getattr(single.telemetry.totals(), name) for name in untimed})
    label = arm_label(single.resident("t"))
    outcome = EXPECTED_OUTCOME[arm]
    assert fastpath_counts(single) == {(label, outcome): len(stream)}
    assert fastpath_counts(whole) == {(label, outcome): 1}


def test_empty_batch_is_a_no_op():
    model = build_arm("GEM")
    assert model.observe_many([]) == []  # even unfitted, like the scalar loop
    model.fit(synthetic_records(40, seed=3))
    before = model.state_dict()
    assert model.observe_many([]) == []
    assert_trees_identical(before, model.state_dict())


def test_unfitted_observe_many_fails_like_scalar():
    """Upfront validation parity: same exception type and message, and no
    partial state mutation on the vectorized path."""
    scalar_model = build_arm("GEM")
    batch_model = build_arm("GEM")
    stream = adversarial_stream(8)
    with pytest.raises(RuntimeError) as scalar_err:
        scalar_model.observe(stream[0])
    with pytest.raises(RuntimeError) as batch_err:
        batch_model.observe_many(stream)
    assert str(batch_err.value) == str(scalar_err.value)
    # Nothing attached, nothing buffered: fitting afterwards still works
    # and the failed batch left no graph/buffer residue behind.
    assert batch_model.pending_updates == 0
    batch_model.fit(synthetic_records(40, seed=3))
    assert batch_model.embedder.graph.num_records == 40


def test_unknown_macs_score_plus_inf_on_both_paths():
    model = build_arm("GEM")
    model.fit(synthetic_records(40, seed=3))
    alien = SignalRecord({"zz00": -50.0, "zz01": -60.0}, timestamp=1.0)
    scalar = copy.deepcopy(model).observe(alien)
    batch = copy.deepcopy(model).observe_many([alien])[0]
    assert scalar == batch
    assert math.isinf(batch.score) and not batch.inside


def test_update_flush_mid_batch_matches_scalar():
    """A detector update inside the batch must re-score the remainder:
    force confident inliers (training-like records) through a tiny
    update buffer and compare against the scalar loop."""
    cfg = GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1), batch_update_size=2)
    spec = arm_spec("GEM", dim=8, gem_config=cfg)
    model = build_pipeline(spec)
    model.fit(synthetic_records(60, seed=3))
    stream = synthetic_records(40, seed=11, center=0.0)  # mostly inliers
    scalar_model = copy.deepcopy(model)
    batch_model = copy.deepcopy(model)
    scalar = [scalar_model.observe(r) for r in stream]
    batch = batch_model.observe_many(stream)
    assert any(d.updated for d in scalar), "stream never flushed an update"
    assert_decisions_identical(scalar, batch)
    assert_trees_identical(scalar_model.state_dict(), batch_model.state_dict())


# ----------------------------------------------------------------------
# Off-batch callers of the kernel: predict, the gate, refresh, fit
# ----------------------------------------------------------------------
PREDICT_ARMS = [arm for arm in ALGORITHM_NAMES
                if EXPECTED_OUTCOME[arm] != "fallback_model"]


def scalar_predict(model, record) -> bool:
    """The per-record reference: scalar embed, then ``is_outlier``."""
    if not record.readings:
        return False
    row = model.embedder.embed(record)
    return row is not None and not bool(model.detector.is_outlier(row[None, :])[0])


@dataclass(frozen=True)
class ScalarGate(ConsistencyGate):
    """The gate scoring one copy at a time and stopping at the first
    accepted copy, through :func:`scalar_predict`."""

    def stable_rejection(self, model, record, rng, kernel=None):
        return all(not scalar_predict(model, self.augment(record, rng))
                   for _ in range(self.passes))


def shocked_stream(train, n: int = 120, seed: int = 21) -> list[SignalRecord]:
    """Home APs kept, a growing share of the ambient APs replaced, with
    some records pulled away from the training centre."""
    home = home_anchor_macs(train)
    rng = np.random.default_rng(seed)
    base = synthetic_records(n, seed=seed, center=0.0)
    stream = []
    for i, record in enumerate(base):
        share = (i % 5) / 4.0
        shift = 6.0 * rng.random() if i % 3 == 0 else 0.0
        readings = {}
        for mac, rss in record.readings.items():
            if mac not in home and rng.random() < share:
                mac = f"shk{mac}"
            readings[mac] = rss - shift
        stream.append(SignalRecord(readings, timestamp=record.timestamp))
    return stream


@pytest.mark.parametrize("arm", PREDICT_ARMS)
def test_predict_many_matches_scalar_predict(arm):
    model = build_arm(arm)
    model.fit(synthetic_records(60, seed=3))
    stream = adversarial_stream()
    expected = [scalar_predict(model, record) for record in stream]
    batch = model.predict_many(stream, kernel=BatchPlane().kernel_for(model))
    assert batch.dtype == bool and batch.tolist() == expected
    assert [model.predict(record) for record in stream] == expected
    assert model.predict_many([]).tolist() == []


@pytest.mark.parametrize("arm", ["GEM", "GraphSAGE+OD", "BiSAGE+LOF", "GEM(no-BiSAGE)"])
def test_consistency_gate_on_shocked_stream_matches_scalar(arm):
    model = build_arm(arm)
    train = synthetic_records(60, seed=3)
    model.fit(train)
    state = copy.deepcopy(model.state_dict()) if hasattr(model, "state_dict") else None
    home = home_anchor_macs(train)
    scalar = QuarantineBuffer(4, seed=5, tenant_key="t", gate=ScalarGate(passes=3))
    batched = QuarantineBuffer(4, seed=5, tenant_key="t", gate=ConsistencyGate(passes=3))
    scalar.set_home(home)
    batched.set_home(home)
    kernel = BatchPlane().kernel_for(model)
    stream = shocked_stream(train)
    scalar_outcomes = [scalar.consider(model, record) for record in stream]
    batched_outcomes = [batched.consider(model, record, kernel) for record in stream]

    assert batched_outcomes == scalar_outcomes
    assert {"admitted", "inconsistent", "sampled-out"} <= set(scalar_outcomes)
    assert [id(r) for r in batched.records] == [id(r) for r in scalar.records]
    assert (batched.seen, batched.offered) == (scalar.seen, scalar.offered)
    if state is not None:  # the gate never touches the model
        assert_trees_identical(state, model.state_dict())


@pytest.mark.parametrize("arm", ["GEM", "GraphSAGE+OD"])
def test_training_embeddings_match_scalar_embed(arm):
    model = build_arm(arm)
    # An empty training record is an isolated node: the scalar path
    # returns the shared initial row for it.
    model.fit(synthetic_records(60, seed=3) + [SignalRecord({}, timestamp=99.0)])
    embedder = model.embedder
    expected = np.vstack([embedder.model.embed_record_node(i)
                          for i in range(embedder.graph.num_records)])
    assert_trees_identical(expected, embedder.training_embeddings())


@pytest.mark.parametrize("arm", ["GEM", "GraphSAGE+OD", "GEM(plain-HBOS)"])
def test_refresh_matches_scalar_embed(arm):
    model = build_arm(arm)
    model.fit(synthetic_records(60, seed=3))
    records = [r for r in adversarial_stream() if r.readings]
    rows = [model.embedder.embed(record) for record in records]
    expected = copy.deepcopy(model.detector).refit(
        np.vstack([row for row in rows if row is not None]))
    absorbed = model.refresh(records)
    assert absorbed == sum(row is not None for row in rows)
    assert_trees_identical(expected.state_dict(), model.detector.state_dict())
