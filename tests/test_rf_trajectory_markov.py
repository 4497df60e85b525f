"""Trajectories and the ON-OFF Markov model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import SignalRecord
from repro.rf.geometry import Rect
from repro.rf.markov import OnOffMarkov, apply_ap_onoff, markov_entropy_rate
from repro.rf.trajectory import perimeter_walk, random_waypoint_walk


class TestTrajectories:
    def test_perimeter_walk_stays_inside(self):
        region = Rect(0, 0, 10, 8)
        poses = perimeter_walk(region, speed=0.8, laps=2)
        assert len(poses) > 10
        assert all(region.contains(p.position) for p in poses)

    def test_perimeter_walk_time_monotone(self):
        poses = perimeter_walk(Rect(0, 0, 10, 8), speed=1.0, laps=1)
        times = [p.time for p in poses]
        assert times == sorted(times)
        assert times[1] - times[0] == pytest.approx(1.0)

    def test_speed_scales_spacing(self):
        region = Rect(0, 0, 20, 20)
        slow = perimeter_walk(region, speed=0.4, laps=1)
        fast = perimeter_walk(region, speed=1.2, laps=1)
        assert len(slow) > len(fast)

    def test_floor_and_start_time_propagate(self):
        poses = perimeter_walk(Rect(0, 0, 5, 5), floor=3, start_time=100.0)
        assert all(p.floor == 3 for p in poses)
        assert poses[0].time == 100.0

    def test_random_waypoint_duration(self):
        region = Rect(0, 0, 10, 10)
        poses = random_waypoint_walk(region, duration=60.0, rng=0)
        assert poses[-1].time <= 60.0 + 1.0
        assert all(region.contains(p.position) for p in poses)

    def test_random_waypoint_moves(self):
        poses = random_waypoint_walk(Rect(0, 0, 10, 10), duration=60.0, rng=0,
                                     pause_probability=0.0)
        positions = {tuple(np.round(p.position, 3)) for p in poses}
        assert len(positions) > 10

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            perimeter_walk(Rect(0, 0, 5, 5), speed=0.0)


class TestOnOffMarkov:
    def test_degenerate_chain_stays_on(self):
        chain = OnOffMarkov(p=0.0, q=0.0)
        assert all(chain.simulate(20, rng=0))

    def test_simulation_length(self):
        assert len(OnOffMarkov(0.5, 0.5).simulate(37, rng=0)) == 37

    def test_empirical_stationary(self):
        chain = OnOffMarkov(p=0.3, q=0.6)
        states = chain.simulate(20000, rng=0)
        # Long-run fraction in ON is q / (p + q).
        assert np.mean(states) == pytest.approx(0.6 / (0.3 + 0.6), abs=0.03)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            OnOffMarkov(p=1.5, q=0.5)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_property_entropy_rate_bounds(self, p, q):
        rate = markov_entropy_rate(p, q)
        assert 0.0 <= rate <= 1.0

    def test_entropy_rate_peaks_at_half(self):
        center = markov_entropy_rate(0.5, 0.5)
        for p, q in [(0.1, 0.1), (0.9, 0.9), (0.1, 0.9)]:
            assert center >= markov_entropy_rate(p, q)


class TestApplyOnOff:
    def _records(self, n=90):
        return [SignalRecord({"a": -50.0, "b": -60.0, "c": -70.0}, timestamp=float(i))
                for i in range(n)]

    def test_off_removes_in_blocks(self):
        out = apply_ap_onoff(self._records(), p=0.9, q=0.1, period=30, rng=0)
        assert len(out) == 90
        # Within one 30-sample block, presence of each mac is constant.
        for block in range(3):
            macs = {out[block * 30].macs}
            for record in out[block * 30:(block + 1) * 30]:
                assert record.macs == out[block * 30].macs

    def test_p_zero_keeps_everything(self):
        records = self._records(60)
        out = apply_ap_onoff(records, p=0.0, q=1.0, period=30, rng=0)
        assert all(a.macs == b.macs for a, b in zip(records, out))

    def test_restricted_mac_list(self):
        out = apply_ap_onoff(self._records(60), p=1.0, q=0.0, period=30, rng=0,
                             macs=["a"])
        # Only 'a' can disappear; b and c always survive.
        assert all({"b", "c"} <= record.macs for record in out)

    def test_empty_stream(self):
        assert apply_ap_onoff([], p=0.5, q=0.5) == []

    def test_timestamps_preserved(self):
        records = self._records(30)
        out = apply_ap_onoff(records, p=0.5, q=0.5, period=10, rng=0)
        assert [r.timestamp for r in out] == [r.timestamp for r in records]

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            apply_ap_onoff(self._records(10), p=0.5, q=0.5, period=0)
