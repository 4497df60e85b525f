"""Differential bit-identity harness: scalar vs vectorized data plane.

Replays identical record streams — drift epochs, unknown-MAC records,
empty-reading records (+inf scores), empty batches, batch-size 1 vs N
splits — through the scalar per-record loop and through the batch plane
for **every registry arm**, asserting bit-identical decisions and
byte-identical post-stream ``state_dict()`` trees.  Arms without batch
support must come out identical too (the plane falls back to the same
scalar loop), so the whole fallback matrix is exercised, not just the
fast path.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from conftest import synthetic_records
from repro.core.config import GEMConfig
from repro.core.records import SignalRecord
from repro.embedding.bisage import BiSAGEConfig
from repro.eval.algorithms import ALGORITHM_NAMES, arm_accepts, arm_spec
from repro.pipeline import build_pipeline
from repro.serve.batchplane import BatchPlane, fastpath_reason

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


def build_arm(name: str):
    dim = 8 if arm_accepts(name, "dim") else 32
    spec = arm_spec(name, dim=dim, gem_config=small_gem_config())
    return build_pipeline(spec)


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
