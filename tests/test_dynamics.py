"""World-mutation schedules and the dynamics timeline."""

import dataclasses
import json

import numpy as np
import pytest

from repro.rf.dynamics import (
    APChurn,
    ChurnShock,
    DeviceGainDrift,
    DynamicsTimeline,
    MacRandomization,
    MarkovOnOff,
    TransientHotspots,
    TxPowerDrift,
    build_schedule,
    home_ap_ids,
)
from repro.rf.scenarios import home_scenario, lab_scenario


def small_scenario(seed: int = 0):
    return lab_scenario(seed=seed, lab_aps=2, corridor_aps=2, building_aps=4)


def ap_fingerprint(environment):
    return [(ap.ap_id, ap.position, ap.floor, ap.macs,
             tuple(r.tx_power_dbm for r in ap.radios))
            for ap in environment.aps]


class TestTimeline:
    def test_epoch_zero_is_pristine(self):
        scenario = small_scenario()
        timeline = DynamicsTimeline(scenario, [APChurn(rate=1.0)], num_epochs=3)
        assert timeline.world(0).environment is scenario.environment
        assert timeline.world(0).events == ()

    def test_epochs_are_cached_and_stable(self):
        timeline = DynamicsTimeline(small_scenario(), [APChurn(rate=0.5)],
                                    num_epochs=4, seed=1)
        first = ap_fingerprint(timeline.world(2).environment)
        again = ap_fingerprint(timeline.world(2).environment)
        assert first == again
        assert timeline.world(2) is timeline.world(2)

    def test_random_access_equals_sequential(self):
        args = dict(schedules=[APChurn(rate=0.4), TxPowerDrift()], num_epochs=5, seed=3)
        sequential = DynamicsTimeline(small_scenario(), **args)
        fingerprints = [ap_fingerprint(w.environment) for w in sequential]
        random_access = DynamicsTimeline(small_scenario(), **args)
        assert ap_fingerprint(random_access.world(4).environment) == fingerprints[4]
        assert ap_fingerprint(random_access.world(1).environment) == fingerprints[1]

    def test_iteration_yields_num_epochs_worlds(self):
        timeline = DynamicsTimeline(small_scenario(), [], num_epochs=3)
        worlds = list(timeline)
        assert [w.epoch for w in worlds] == [0, 1, 2]
        assert len(timeline) == 3

    def test_epoch_out_of_range(self):
        timeline = DynamicsTimeline(small_scenario(), [], num_epochs=2)
        with pytest.raises(IndexError):
            timeline.world(2)

    def test_bad_num_epochs(self):
        with pytest.raises(ValueError):
            DynamicsTimeline(small_scenario(), [], num_epochs=0)

    def test_non_schedule_rejected(self):
        with pytest.raises(TypeError):
            DynamicsTimeline(small_scenario(), [object()], num_epochs=2)

    def test_total_retirement_keeps_one_survivor(self):
        # One lone AP always survives APChurn; emptying needs the shock.
        timeline = DynamicsTimeline(small_scenario(), [APChurn(rate=1.0, replace=False)],
                                    num_epochs=4, seed=0)
        assert len(timeline.world(3).environment.aps) == 1


class TestAPChurn:
    def test_replacement_preserves_positions_and_count(self):
        scenario = small_scenario()
        timeline = DynamicsTimeline(scenario, [APChurn(rate=1.0)], num_epochs=2, seed=0)
        before = scenario.environment.aps
        after = timeline.world(1).environment.aps
        assert len(after) == len(before)
        assert sorted(ap.position for ap in after) == sorted(ap.position for ap in before)
        assert set(a.ap_id for a in after).isdisjoint(b.ap_id for b in before)

    def test_fresh_macs_never_collide(self):
        timeline = DynamicsTimeline(small_scenario(), [APChurn(rate=0.6)],
                                    num_epochs=6, seed=0)
        seen: set[str] = set(timeline.world(0).macs)
        for epoch in range(1, 6):
            world = timeline.world(epoch)
            fresh = world.macs - seen
            retired = seen - world.macs
            # A retired MAC never comes back under a different AP.
            assert not (fresh & retired)
            seen |= world.macs

    def test_protect_exempts_aps(self):
        scenario = small_scenario()
        keep = scenario.environment.aps[0].ap_id
        timeline = DynamicsTimeline(scenario, [APChurn(rate=1.0, protect=(keep,))],
                                    num_epochs=3, seed=0)
        for epoch in range(3):
            assert keep in {ap.ap_id for ap in timeline.world(epoch).environment.aps}

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            APChurn(rate=1.5)


class TestChurnShock:
    def test_fires_only_at_its_epoch(self):
        timeline = DynamicsTimeline(small_scenario(),
                                    [ChurnShock(epoch=2, fraction=0.5)],
                                    num_epochs=4, seed=0)
        assert timeline.world(1).events == ()
        assert any("churn-shock" in e for e in timeline.world(2).events)
        assert timeline.world(3).events == ()

    def test_fraction_of_eligible_replaced(self):
        scenario = small_scenario()
        total = len(scenario.environment.aps)
        timeline = DynamicsTimeline(scenario, [ChurnShock(epoch=1, fraction=0.5)],
                                    num_epochs=2, seed=0)
        before_ids = {ap.ap_id for ap in scenario.environment.aps}
        after_ids = {ap.ap_id for ap in timeline.world(1).environment.aps}
        assert len(before_ids - after_ids) == round(0.5 * total)

    def test_epoch_validation(self):
        with pytest.raises(ValueError):
            ChurnShock(epoch=0)


class TestTxPowerDrift:
    def test_walk_stays_clamped(self):
        timeline = DynamicsTimeline(small_scenario(),
                                    [TxPowerDrift(sigma_db=5.0, max_drift_db=2.0)],
                                    num_epochs=8, seed=0)
        origins = {ap.ap_id: ap.radios[0].tx_power_dbm
                   for ap in timeline.world(0).environment.aps}
        for epoch in range(1, 8):
            for ap in timeline.world(epoch).environment.aps:
                drift = abs(ap.radios[0].tx_power_dbm - origins[ap.ap_id])
                assert drift <= 2.0 + 1e-9

    def test_zero_sigma_is_identity(self):
        timeline = DynamicsTimeline(small_scenario(), [TxPowerDrift(sigma_db=0.0)],
                                    num_epochs=3, seed=0)
        assert ap_fingerprint(timeline.world(2).environment) == \
               ap_fingerprint(timeline.world(0).environment)


class TestMacRandomization:
    def test_cohort_rotates_every_period(self):
        timeline = DynamicsTimeline(small_scenario(),
                                    [MacRandomization(cohort_fraction=0.5, period=2)],
                                    num_epochs=5, seed=0)
        macs = [timeline.world(e).macs for e in range(5)]
        assert macs[1] == macs[0]           # off-period epoch: unchanged
        assert macs[2] != macs[1]           # rotation epoch
        assert macs[3] == macs[2]
        assert macs[4] != macs[3]

    def test_rotation_keeps_population_size(self):
        scenario = small_scenario()
        timeline = DynamicsTimeline(scenario,
                                    [MacRandomization(cohort_fraction=0.5, period=1)],
                                    num_epochs=4, seed=0)
        for epoch in range(4):
            assert len(timeline.world(epoch).environment.aps) == \
                   len(scenario.environment.aps)


class TestTransientHotspots:
    def test_hotspots_last_one_epoch(self):
        timeline = DynamicsTimeline(small_scenario(),
                                    [TransientHotspots(max_active=4)],
                                    num_epochs=6, seed=1)
        base = timeline.world(0).macs
        previous_extra: frozenset[str] = frozenset()
        saw_any = False
        for epoch in range(1, 6):
            extra = timeline.world(epoch).macs - base
            assert not (extra & previous_extra)   # never carried over
            saw_any = saw_any or bool(extra)
            previous_extra = extra
        assert saw_any

    def test_hotspots_positioned_in_requested_regions(self):
        scenario = small_scenario()
        timeline = DynamicsTimeline(scenario, [TransientHotspots(max_active=4)],
                                    num_epochs=6, seed=1)
        base_ids = {ap.ap_id for ap in scenario.environment.aps}
        regions = scenario.outside_regions
        for epoch in range(1, 6):
            for ap in timeline.world(epoch).environment.aps:
                if ap.ap_id not in base_ids:
                    assert any(polygon.contains(ap.position) and floor == ap.floor
                               for polygon, floor in regions)


class TestDeviceGainDrift:
    def test_gain_clamped_and_moving(self):
        timeline = DynamicsTimeline(small_scenario(),
                                    [DeviceGainDrift(sigma_db=2.0, max_gain_db=1.5)],
                                    num_epochs=8, seed=0)
        gains = [timeline.world(e).device_gain_db for e in range(8)]
        assert gains[0] == 0.0
        assert all(abs(g) <= 1.5 for g in gains)
        assert len(set(gains)) > 1


class TestMarkovOnOff:
    def test_off_aps_return_with_identical_macs(self):
        """Unlike churn, an OFF AP is the *same* device when it returns."""
        scenario = small_scenario()
        baseline = {ap.ap_id: ap.macs for ap in scenario.environment.aps}
        timeline = DynamicsTimeline(scenario, [MarkovOnOff(p=0.6, q=0.6)],
                                    num_epochs=8, seed=1)
        seen_off = seen_return = False
        previous = set(baseline)
        for world in timeline:
            ids = {ap.ap_id for ap in world.environment.aps}
            assert ids <= set(baseline)
            if len(ids) < len(baseline):
                seen_off = True
            if ids - previous:
                seen_return = True
            for ap in world.environment.aps:
                assert ap.macs == baseline[ap.ap_id]
            previous = ids
        assert seen_off and seen_return

    def test_protect_pins_aps_on(self):
        scenario = small_scenario()
        protect = tuple(ap.ap_id for ap in scenario.environment.aps)[:2]
        timeline = DynamicsTimeline(scenario, [MarkovOnOff(p=1.0, q=0.0,
                                                           protect=protect)],
                                    num_epochs=4, seed=0)
        for world in timeline:
            ids = {ap.ap_id for ap in world.environment.aps}
            assert set(protect) <= ids

    def test_never_empties_world(self):
        scenario = small_scenario()
        timeline = DynamicsTimeline(scenario, [MarkovOnOff(p=1.0, q=0.0)],
                                    num_epochs=5, seed=0)
        for world in timeline:
            assert len(world.environment.aps) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovOnOff(p=1.5)
        with pytest.raises(ValueError):
            MarkovOnOff(q=-0.1)

    def test_off_aps_escape_concurrent_churn(self):
        """A powered-down AP is invisible to other schedules while OFF."""
        scenario = small_scenario()
        baseline_ids = {ap.ap_id for ap in scenario.environment.aps}
        timeline = DynamicsTimeline(
            scenario, [MarkovOnOff(p=0.5, q=0.5), APChurn(rate=0.0)],
            num_epochs=6, seed=3)
        for world in timeline:
            assert {ap.ap_id for ap in world.environment.aps} <= baseline_ids


class TestDeclarativeRegistry:
    @pytest.mark.parametrize("name", ["ap-churn", "churn-shock", "tx-power-drift",
                                      "mac-randomization", "markov-onoff",
                                      "transient-hotspots", "device-gain-drift"])
    def test_round_trip(self, name):
        schedule = build_schedule(name, {"epoch": 2} if name == "churn-shock" else {})
        # Parameters come back from a spec's JSON as lists, not tuples.
        params = json.loads(json.dumps(dataclasses.asdict(schedule)))
        assert build_schedule(name, params) == schedule

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown dynamics schedule"):
            build_schedule("nope")

    def test_unknown_param_lists_accepted(self):
        with pytest.raises(ValueError, match="accepted"):
            build_schedule("ap-churn", {"rtae": 0.1})

    def test_missing_required_param_is_a_value_error(self):
        # churn-shock has no default epoch; the TypeError from the
        # constructor must surface as operator-input ValueError.
        with pytest.raises(ValueError, match="churn-shock"):
            build_schedule("churn-shock", {"fraction": 0.4})

    def test_protect_list_coerced(self):
        schedule = build_schedule("ap-churn", {"protect": [1, 2]})
        assert schedule.protect == (1, 2)


class TestHomeApIds:
    def test_home_aps_are_the_inside_ones(self):
        scenario = home_scenario(area_m2=50.0, aps_inside=2, aps_near=4,
                                 aps_far=2, seed=0)
        ids = home_ap_ids(scenario)
        assert set(ids) == {1, 2}
