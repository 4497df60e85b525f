"""Device model, scanner, AP factory."""

import numpy as np
import pytest

from repro.rf.ap import AccessPoint, Radio, make_mac
from repro.rf.device import Device
from repro.rf.environment import Environment
from repro.rf.geometry import Rect
from repro.rf.propagation import PropagationConfig
from repro.rf.scanner import Scanner
from repro.rf.trajectory import TimedPosition


def tiny_environment(seed=0):
    room = Rect(0, 0, 10, 8)
    # AP 3 sits ~350 m out: its beacons land inside the device's soft
    # detection ramp, so it is heard only sporadically.
    aps = [AccessPoint.create(1, (5, 4)), AccessPoint.create(2, (20, 4)),
           AccessPoint.create(3, (350, 4))]
    return Environment(walls=[], aps=aps, geofence=room,
                       propagation_config=PropagationConfig(seed=seed))


class TestAccessPoint:
    def test_create_dual_band(self):
        ap = AccessPoint.create(7, (1.0, 2.0))
        assert len(ap.radios) == 2
        assert {radio.band for radio in ap.radios} == {"2.4", "5"}
        assert len(set(ap.macs)) == 2

    def test_single_band(self):
        ap = AccessPoint.create(7, (1.0, 2.0), bands=("2.4",))
        assert len(ap.macs) == 1

    def test_macs_deterministic(self):
        assert make_mac(42, "2.4") == make_mac(42, "2.4")
        assert make_mac(42, "2.4") != make_mac(42, "5")
        assert make_mac(42, "2.4") != make_mac(43, "2.4")

    def test_mac_format(self):
        mac = make_mac(999, "5")
        parts = mac.split(":")
        assert len(parts) == 6
        assert all(len(p) == 2 for p in parts)

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            Radio("aa:bb:cc:dd:ee:ff", "60")


class TestDevice:
    def test_detection_probability_ramp(self):
        device = Device(sensitivity_dbm=-95, soft_range_db=10)
        assert device.detection_probability(-100) == 0.0
        assert device.detection_probability(-90) == pytest.approx(0.5)
        assert device.detection_probability(-50) == 1.0

    def test_band_filter(self):
        device = Device(bands=("2.4",))
        assert device.hears_band("2.4")
        assert not device.hears_band("5")

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            Device(bands=("60",))

    def test_invalid_soft_range(self):
        with pytest.raises(ValueError):
            Device(soft_range_db=0.0)


class TestEnvironment:
    def test_is_inside_respects_floor(self):
        env = tiny_environment()
        assert env.is_inside((5, 4), floor=0)
        assert not env.is_inside((5, 4), floor=1)
        assert not env.is_inside((50, 4), floor=0)

    def test_all_macs(self):
        env = tiny_environment()
        assert len(env.all_macs) == 6  # 3 APs x 2 bands

    def test_requires_aps(self):
        with pytest.raises(ValueError):
            Environment(walls=[], aps=[], geofence=Rect(0, 0, 1, 1))


class TestScanner:
    def test_scan_returns_record_with_position(self):
        scanner = Scanner(tiny_environment(), rng=0)
        pose = TimedPosition((5.0, 4.0), 0, 12.0)
        record = scanner.scan(pose)
        assert record.timestamp == 12.0
        assert record.position == (5.0, 4.0, 0)
        assert len(record) >= 1

    def test_nearby_ap_always_heard(self):
        env = tiny_environment()
        scanner = Scanner(env, rng=0)
        record = scanner.scan(TimedPosition((5.0, 4.0), 0, 0.0))
        assert any(mac in record.readings for mac in env.aps[0].macs)

    def test_far_ap_weak_or_missing(self):
        env = tiny_environment()
        scanner = Scanner(env, rng=0)
        record = scanner.scan(TimedPosition((5.0, 4.0), 0, 0.0))
        for mac in env.aps[2].macs:
            if mac in record.readings:
                assert record.readings[mac] < -60

    def test_band_restricted_device(self):
        env = tiny_environment()
        scanner = Scanner(env, Device(bands=("2.4",)), rng=0)
        record = scanner.scan(TimedPosition((5.0, 4.0), 0, 0.0))
        five_ghz_macs = {r.mac for ap in env.aps for r in ap.radios if r.band == "5"}
        assert not (record.macs & five_ghz_macs)

    def test_device_offset_shifts_rss(self):
        env = tiny_environment()
        base = Scanner(env, rng=1).scan(TimedPosition((5.0, 4.0), 0, 0.0))
        shifted = Scanner(env, rng=1, device_offset_db=10.0).scan(
            TimedPosition((5.0, 4.0), 0, 0.0))
        common = base.macs & shifted.macs
        assert common
        diffs = [shifted.readings[m] - base.readings[m] for m in common]
        assert np.mean(diffs) > 5.0

    def test_scan_path(self):
        scanner = Scanner(tiny_environment(), rng=0)
        poses = [TimedPosition((x, 4.0), 0, float(x)) for x in range(3)]
        records = scanner.scan_path(poses)
        assert len(records) == 3

    def test_records_are_variable_length(self):
        # Scan from a spot where the far AP sits near the sensitivity edge:
        # the soft detection edge makes repeated scans return different
        # MAC sets.
        scanner = Scanner(tiny_environment(), rng=0)
        mac_sets = {scanner.scan(TimedPosition((5.0, 4.0), 0, float(t))).macs
                    for t in range(40)}
        assert len(mac_sets) > 1

    def test_invalid_penalty(self):
        with pytest.raises(ValueError):
            Scanner(tiny_environment(), crowd_penalty_db=-1.0)
