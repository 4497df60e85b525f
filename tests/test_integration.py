"""End-to-end integration tests on small simulated worlds."""

import numpy as np
import pytest

from repro.core import GEM, GEMConfig
from repro.core.records import SignalRecord
from repro.datasets import generate_dataset, remove_macs
from repro.embedding.bisage import BiSAGEConfig
from repro.eval import evaluate_streaming, make_algorithm
from repro.rf.scenarios import home_scenario

FAST_GEM = GEMConfig(bisage=BiSAGEConfig(dim=16, epochs=3, seed=0))


@pytest.fixture(scope="module")
def world():
    scenario = home_scenario(area_m2=40.0, aps_inside=1, aps_near=6, aps_far=3, seed=11)
    return generate_dataset(scenario, seed=12, train_duration_s=180,
                            test_sessions=4, session_duration_s=50)


class TestEndToEnd:
    def test_gem_beats_chance_comfortably(self, world):
        result = evaluate_streaming(GEM(FAST_GEM), world)
        assert result.metrics.f_in > 0.75
        assert result.metrics.f_out > 0.75

    def test_streaming_is_deterministic(self, world):
        a = evaluate_streaming(GEM(FAST_GEM), world)
        b = evaluate_streaming(GEM(FAST_GEM), world)
        assert [d.inside for d in a.decisions] == [d.inside for d in b.decisions]
        np.testing.assert_allclose(a.scores, b.scores)

    def test_update_grows_detector(self, world):
        gem = GEM(FAST_GEM)
        result = evaluate_streaming(gem, world)
        assert result.num_updates > 0
        assert gem.detector.num_samples > len(world.train)

    def test_graph_stays_at_training_size(self, world):
        fitted = GEM(FAST_GEM).fit(world.train)
        gem = GEM(FAST_GEM)
        evaluate_streaming(gem, world)
        assert gem.graph.num_records == len(world.train)
        assert (gem.graph.num_edges, gem.graph.num_macs) == \
            (fitted.graph.num_edges, fitted.graph.num_macs)

    def test_all_arms_run_end_to_end(self, world):
        # Every comparison arm fits and streams without error on a real
        # simulated world (smoke-level integration, correctness above).
        for name in ("SignatureHome", "INOA", "GEM(no-BiSAGE)"):
            result = evaluate_streaming(make_algorithm(name, seed=0), world)
            assert len(result.decisions) == len(world.test)

    def test_scores_separate_classes(self, world):
        gem = GEM(FAST_GEM)
        result = evaluate_streaming(gem, world)
        scores = result.scores
        labels = np.asarray(result.labels)
        finite = np.isfinite(scores)
        inside_scores = scores[labels & finite]
        outside_scores = scores[~labels & finite]
        if len(outside_scores) and len(inside_scores):
            assert np.median(outside_scores) > np.median(inside_scores)

    def test_roc_auc_high(self, world):
        result = evaluate_streaming(GEM(FAST_GEM), world)
        assert result.roc().auc > 0.8


class TestRobustnessPaths:
    def test_mac_removal_does_not_collapse(self, world):
        pruned = remove_macs(world, 0.2, seed=5, which="train")
        result = evaluate_streaming(GEM(FAST_GEM), pruned)
        assert result.metrics.f_in > 0.6
        assert result.metrics.f_out > 0.6

    def test_footnote3_all_new_macs_alerts(self, world):
        gem = GEM(FAST_GEM)
        gem.fit(world.train)
        alien = SignalRecord({"ff:ff:00:00:00:01": -40.0,
                              "ff:ff:00:00:00:02": -45.0})
        decision = gem.observe(alien)
        assert not decision.inside

    def test_empty_records_mid_stream(self, world):
        gem = GEM(FAST_GEM)
        gem.fit(world.train)
        # A scan glitch (empty record) must not corrupt subsequent state.
        assert not gem.observe(SignalRecord({})).inside
        follow_up = gem.observe(world.test[0].record)
        assert isinstance(follow_up.inside, bool)

    def test_duplicate_training_records_ok(self, world):
        train = world.train[:20] + world.train[:20]
        gem = GEM(FAST_GEM)
        gem.fit(train)
        assert gem.detector.num_samples == 40

    def test_single_training_record(self):
        gem = GEM(FAST_GEM)
        gem.fit([SignalRecord({"a": -50.0, "b": -60.0})])
        decision = gem.observe(SignalRecord({"a": -50.0, "b": -60.0}))
        assert isinstance(decision.inside, bool)
