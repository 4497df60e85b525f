"""SignalRecord / LabeledRecord behaviour."""

import math

import pytest

from repro.core.records import LabeledRecord, SignalRecord, unique_macs


class TestSignalRecord:
    def test_basic_construction(self):
        record = SignalRecord({"aa": -50.0, "bb": -70.0}, timestamp=3.0)
        assert len(record) == 2
        assert record.readings["aa"] == -50.0
        assert record.timestamp == 3.0

    def test_readings_are_copied(self):
        source = {"aa": -50.0}
        record = SignalRecord(source)
        source["bb"] = -60.0
        assert "bb" not in record.readings

    def test_empty_record_allowed(self):
        assert len(SignalRecord({})) == 0

    def test_rejects_non_mapping(self):
        with pytest.raises(TypeError):
            SignalRecord([("aa", -50.0)])

    def test_rejects_empty_mac(self):
        with pytest.raises(ValueError):
            SignalRecord({"": -50.0})

    def test_rejects_non_string_mac(self):
        with pytest.raises(ValueError):
            SignalRecord({7: -50.0})

    def test_rejects_nan_rss(self):
        with pytest.raises(ValueError):
            SignalRecord({"aa": math.nan})

    def test_rejects_mac_ending_in_nul(self):
        """numpy str tables (the checkpoint's record columns) drop a
        trailing NUL, so such a MAC is refused where records are made."""
        with pytest.raises(ValueError, match="NUL"):
            SignalRecord({"aa": -50.0, "ab\0": -60.0})
        assert SignalRecord({"a\0b": -50.0}).readings["a\0b"] == -50.0

    def test_macs_frozenset(self):
        record = SignalRecord({"aa": -50.0, "bb": -60.0})
        assert record.macs == frozenset({"aa", "bb"})

    def test_strongest_mac(self):
        record = SignalRecord({"aa": -50.0, "bb": -40.0, "cc": -70.0})
        assert record.strongest_mac() == "bb"

    def test_strongest_mac_empty(self):
        assert SignalRecord({}).strongest_mac() is None

    def test_without(self):
        record = SignalRecord({"aa": -50.0, "bb": -60.0})
        assert record.without({"aa"}).macs == frozenset({"bb"})

    def test_without_preserves_position(self):
        record = SignalRecord({"aa": -50.0}, position=(1.0, 2.0, 0))
        assert record.without({"zz"}).position == (1.0, 2.0, 0)


class TestHelpers:
    def test_unique_macs(self):
        records = [SignalRecord({"aa": -50.0}), SignalRecord({"aa": -51.0, "bb": -60.0})]
        assert unique_macs(records) == {"aa", "bb"}

    def test_unique_macs_empty(self):
        assert unique_macs([]) == set()

    def test_labeled_record(self):
        item = LabeledRecord(SignalRecord({"aa": -40.0}), inside=True, meta={"s": 1})
        assert item.inside
        assert item.meta["s"] == 1
