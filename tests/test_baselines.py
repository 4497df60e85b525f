"""SignatureHome and INOA baselines."""

import numpy as np
import pytest

from repro.baselines import INOA, SignatureHome
from repro.core.records import SignalRecord

from conftest import synthetic_records


def home_records(n=40, seed=0):
    """Records with one dominant 'home' AP plus weaker ambient MACs."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        readings = {"home-ap": float(-45 + rng.normal(0, 2))}
        for m in range(5):
            readings[f"ambient{m}"] = float(-70 - 4 * m + rng.normal(0, 2))
        records.append(SignalRecord(readings))
    return records


class TestSignatureHome:
    def test_fit_builds_signature(self):
        model = SignatureHome().fit(home_records())
        assert "home-ap" in model.signature
        assert "home-ap" in model.association_set

    def test_association_set_excludes_weak_macs(self):
        model = SignatureHome().fit(home_records())
        assert "ambient4" not in model.association_set

    def test_inside_record_accepted(self):
        model = SignatureHome().fit(home_records())
        assert model.predict(home_records(1, seed=9)[0])

    def test_unknown_world_rejected(self):
        model = SignatureHome().fit(home_records())
        faraway = SignalRecord({"other1": -50.0, "other2": -60.0})
        assert not model.predict(faraway)

    def test_sticky_association_near_boundary(self):
        # Home AP heard above the floor but fewer overlapping MACs: the
        # association keeps the score up (the boundary failure mode).
        model = SignatureHome().fit(home_records())
        boundary = SignalRecord({"home-ap": -60.0, "stranger1": -55.0,
                                 "stranger2": -50.0, "ambient0": -75.0})
        score = model.inside_score(boundary)
        assert score >= 0.5  # association hit dominates

    def test_association_lost_when_weak(self):
        model = SignatureHome().fit(home_records())
        away = SignalRecord({"home-ap": -90.0, "stranger1": -50.0})
        assert model.inside_score(away) < 0.75

    def test_empty_record_scores_zero(self):
        model = SignatureHome().fit(home_records())
        assert model.inside_score(SignalRecord({})) == 0.0

    def test_observe_interface(self):
        model = SignatureHome().fit(home_records())
        decision = model.observe(home_records(1, seed=3)[0])
        assert decision.inside
        assert 0.0 <= decision.score <= 1.0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SignatureHome().inside_score(SignalRecord({"a": -50.0}))

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            SignatureHome().fit([])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SignatureHome(association_weight=0.7, overlap_weight=0.5)


class TestINOA:
    def test_fit_builds_pair_learners(self):
        model = INOA(min_support=3).fit(home_records())
        assert len(model._learners) > 0

    def test_min_support_filters_rare_pairs(self):
        records = home_records(10)
        records.append(SignalRecord({"rare1": -50.0, "rare2": -60.0}))
        model = INOA(min_support=3).fit(records)
        assert ("rare1", "rare2") not in model._learners

    def test_inside_record_low_score(self):
        model = INOA().fit(home_records())
        assert model.outlier_score(home_records(1, seed=11)[0]) < 0.4

    def test_shifted_rss_high_score(self):
        model = INOA().fit(home_records())
        shifted = SignalRecord({"home-ap": -85.0, "ambient0": -40.0,
                                "ambient1": -45.0})
        assert model.outlier_score(shifted) > 0.5

    def test_unseen_pairs_vote_outlier(self):
        model = INOA().fit(home_records())
        stranger = SignalRecord({"x1": -50.0, "x2": -55.0, "x3": -60.0})
        assert model.outlier_score(stranger) == 1.0

    def test_single_reading_is_outlier(self):
        model = INOA().fit(home_records())
        assert model.outlier_score(SignalRecord({"home-ap": -50.0})) == 1.0

    def test_predict_and_observe_agree(self):
        model = INOA().fit(home_records())
        record = home_records(1, seed=12)[0]
        assert model.predict(record) == model.observe(record).inside

    def test_self_calibration(self):
        model = INOA(threshold=None).fit(home_records())
        assert model.threshold is not None
        assert 0.0 < model.threshold <= 1.0

    def test_fixed_threshold_preserved(self):
        model = INOA(threshold=0.5).fit(home_records())
        assert model.threshold == 0.5

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            INOA().outlier_score(SignalRecord({"a": -50.0, "b": -60.0}))

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            INOA().fit([])

    def test_radius_floor_prevents_degenerate_spheres(self):
        # Identical training points would give radius 0 without the floor.
        records = [SignalRecord({"a": -50.0, "b": -60.0}) for _ in range(5)]
        model = INOA(min_support=3).fit(records)
        jittered = SignalRecord({"a": -50.5, "b": -60.5})
        assert model.outlier_score(jittered) == 0.0
