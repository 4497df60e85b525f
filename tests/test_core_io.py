"""JSONL persistence round-trips and error reporting."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.io import (
    check_record_columns,
    join_record_columns,
    load_labeled_records,
    load_records,
    record_from_dict,
    record_to_dict,
    records_from_columns,
    records_to_columns,
    save_labeled_records,
    save_records,
)
from repro.core.records import LabeledRecord, SignalRecord


def sample_records():
    return [
        SignalRecord({"aa": -50.0, "bb": -61.5}, timestamp=1.0, position=(2.0, 3.0, 0)),
        SignalRecord({"cc": -70.0}, timestamp=2.0),
        SignalRecord({}, timestamp=3.0),
    ]


class TestRecordDicts:
    def test_roundtrip(self):
        record = sample_records()[0]
        clone = record_from_dict(record_to_dict(record))
        assert clone.readings == record.readings
        assert clone.timestamp == record.timestamp
        assert clone.position == record.position

    def test_position_optional(self):
        record = record_from_dict({"t": 1.0, "rss": {"a": -50.0}})
        assert record.position is None

    def test_missing_rss_rejected(self):
        with pytest.raises(ValueError, match="rss"):
            record_from_dict({"t": 1.0})

    @pytest.mark.parametrize("pos", [["a", 1.0], "xy", [None]])
    def test_non_numeric_position_rejected(self, pos):
        with pytest.raises(ValueError, match="pos"):
            record_from_dict({"t": 1.0, "rss": {"a": -50.0}, "pos": pos})


class TestRecordColumns:
    def records(self):
        return sample_records() + [
            SignalRecord({"bb": -40.25, "aa": -90}, timestamp=4.5, position=(1.0, 2.0)),
            SignalRecord({"dd": -55.0}, timestamp=-1.0, position=()),
        ]

    def test_roundtrip_is_exact(self):
        records = self.records()
        columns = records_to_columns(records)
        assert columns["macs"].tolist() == ["aa", "bb", "cc", "dd"]
        assert columns["edges"]["rss"].tolist() == [-50.0, -61.5, -70.0, -90.0, -40.25, -55.0]
        back = records_from_columns(columns)
        assert back == records
        # Readings come back in sorted MAC order, as from the JSON form.
        assert [list(r.readings) for r in back] == [sorted(r.readings) for r in records]
        assert [r.position for r in back] == [(2.0, 3.0, 0.0), None, None, (1.0, 2.0), ()]

    def test_mac_ending_in_nul_is_refused(self):
        """numpy str tables drop trailing NULs: "ab\\0" would reload as "ab",
        so no record can carry such a MAC into the columns."""
        assert np.array(["ab\0"], dtype=str).tolist() == ["ab"]
        with pytest.raises(ValueError, match="NUL"):
            SignalRecord({"ab\0": -50.0, "ab": -60.0})
        with pytest.raises(ValueError, match="NUL"):
            record_from_dict({"rss": {"ab\0": -50.0}})
        # A NUL inside a MAC survives the table, so it is stored as is.
        inner = [SignalRecord({"a\0b": -50.0})]
        assert records_from_columns(records_to_columns(inner)) == inner

    def test_empty_set(self):
        columns = records_to_columns([])
        assert [len(array) for array in columns.values()] == [0, 0, 0]
        assert records_from_columns(columns) == []

    def test_reading_order_does_not_change_the_columns(self):
        """A reloaded set (readings in sorted order) re-encodes to the
        very arrays it was loaded from, so a delta stays an append."""
        records = self.records()
        shuffled = [SignalRecord(dict(reversed(list(r.readings.items()))),
                                 timestamp=r.timestamp, position=r.position) for r in records]
        columns = records_to_columns(records)
        for again in (records_to_columns(shuffled),
                      records_to_columns(records_from_columns(columns))):
            assert all(np.array_equal(again[key], columns[key]) for key in columns)

    def test_appending_records_appends_rows(self):
        records = self.records()
        head = records_to_columns(records[:2])
        full = records_to_columns(records)
        for key, array in head.items():
            assert np.array_equal(full[key][:len(array)], array), key

    def test_json_form_accepted(self):
        records = self.records()
        assert records_from_columns([record_to_dict(r) for r in records]) == records
        assert records_from_columns(()) == []

    @pytest.mark.parametrize("corrupt, match", [
        (lambda c: c.pop("edges"), "missing"),
        (lambda c: c.__setitem__("macs", np.arange(3)), "string table"),
        (lambda c: c.__setitem__("edges", c["edges"]["rss"]), "edges must be"),
        (lambda c: c.__setitem__("records", c["records"][["stop", "t"]]), "records must be"),
        (lambda c: c["records"].__setitem__("stop", [3, 1, 3, 5, 6]), "monotone"),
        (lambda c: c["records"].__setitem__("stop", [-1, 3, 3, 5, 6]), "monotone"),
        (lambda c: c.__setitem__("edges", c["edges"][:-1]), "monotone"),
        (lambda c: c["edges"]["mac"].__setitem__(0, 4), "outside"),
        (lambda c: c["edges"]["mac"].__setitem__(0, -1), "outside"),
        (lambda c: c["edges"]["mac"].__setitem__(1, 0), "repeats"),
        (lambda c: c["records"]["pos_len"].__setitem__(0, 4), "position length"),
        (lambda c: c["edges"]["rss"].__setitem__(0, np.inf), "finite"),
        (lambda c: c.__setitem__("macs", np.array(["", "bb", "cc", "dd"])), "non-empty"),
    ], ids=["missing", "macs-dtype", "edges-dtype", "records-dtype", "non-monotone",
            "negative-offset", "short-edges", "mac-past-table", "mac-negative",
            "repeated-mac", "position-length", "non-finite-rss", "empty-mac"])
    def test_corrupt_columns_rejected(self, corrupt, match):
        columns = records_to_columns(self.records())
        corrupt(columns)
        with pytest.raises(ValueError, match=match):
            records_from_columns(columns)

    @pytest.mark.parametrize("corrupt, match", [
        (lambda c: c["edges"]["rss"].__setitem__(2, np.nan), "finite"),
        (lambda c: c["edges"]["rss"].__setitem__(2, -np.inf), "finite"),
        (lambda c: c.__setitem__("macs", np.array(["aa", "bb", "", "dd"])), "non-empty"),
        (lambda c: c["edges"]["mac"].__setitem__(4, 0), "repeats"),
        (lambda c: c.__setitem__("macs", np.array(["aa", "bb", "cc", "aa"])), "twice"),
        (lambda c: c.__setitem__("macs", np.array(["aa", "bb", "cc", "cc"])), "twice"),
        (lambda c: c["records"]["pos_len"].__setitem__(3, -2), "position length"),
    ], ids=["nan-rss", "infinite-rss", "empty-mac-in-use", "repeat-across-run",
            "name-twice-across-records", "name-twice-in-one-record", "position-length-low"])
    def test_array_checks_match_record_checks(self, corrupt, match):
        """What a SignalRecord or a dict would refuse on decode, the array
        validator refuses up front: a resident reservoir is never decoded
        on the serving path, so it must not rely on the decode."""
        columns = records_to_columns(self.records())
        corrupt(columns)
        with pytest.raises(ValueError, match=match):
            check_record_columns(columns)
        with pytest.raises(ValueError, match=match):
            records_from_columns(columns)

    def test_canonical_columns_come_back_as_the_same_arrays(self):
        columns = records_to_columns(self.records())
        checked = check_record_columns(columns)
        assert all(checked[key] is columns[key] for key in columns)
        empty = records_to_columns([])
        assert all(check_record_columns(empty)[key] is empty[key] for key in empty)

    @pytest.mark.parametrize("rewrite", [
        lambda c: c["edges"].__setitem__(slice(0, 2), c["edges"][[1, 0]]),
        lambda c: c.__setitem__("macs", c["macs"].astype("<U9")),
        lambda c: c.__setitem__("macs", np.append(c["macs"], "unused")),
        lambda c: (c.__setitem__("macs", c["macs"][[1, 0, 2, 3]]),
                   c["edges"]["mac"].__setitem__(slice(None), [1, 0, 2, 1, 0, 3])),
        lambda c: c.__setitem__("records", widened(c["records"], 5)),
        lambda c: c["records"]["pos"].__setitem__((1, 0), -0.0),
        lambda c: c["records"]["pos"].__setitem__((3, 2), 7.0),
    ], ids=["edges-out-of-mac-order", "wide-table", "unused-table-entry",
            "table-not-in-first-use-order", "wide-positions", "negative-zero-padding",
            "non-zero-padding"])
    def test_valid_non_canonical_columns_are_canonicalised(self, rewrite):
        records = self.records()
        columns = records_to_columns(records)
        rewrite(columns)
        assert records_from_columns(columns) == records
        canonical = check_record_columns(columns)
        expected = records_to_columns(records)
        for key in expected:
            assert canonical[key].dtype == expected[key].dtype
            assert canonical[key].tobytes() == expected[key].tobytes(), key


def widened(rows: np.ndarray, width: int) -> np.ndarray:
    """The same record rows with the position block zero-padded to ``width``."""
    out = np.zeros(len(rows), dtype=[("stop", "<i8"), ("t", "<f8"), ("pos_len", "<i8"),
                                     ("pos", "<f8", (width,))])
    for name in ("stop", "t", "pos_len"):
        out[name] = rows[name]
    out["pos"][:, :rows.dtype["pos"].shape[0]] = rows["pos"]
    return out


# Records with MACs of different lengths (one shared with the other
# draws), possibly no readings, and positions of width 0, 2 or 3.
_records = st.lists(st.builds(
    SignalRecord,
    st.dictionaries(st.sampled_from(["a", "bb", "cc:dd", "ee:ff:00:11", "mac07", "z"]),
                    st.floats(-100.0, -20.0, allow_nan=False), max_size=4),
    timestamp=st.floats(-1e3, 1e3, allow_nan=False),
    position=st.one_of(st.none(), st.sampled_from([0, 2, 3]).flatmap(
        lambda width: st.tuples(*[st.floats(-50.0, 50.0)] * width)))), max_size=6)


@settings(max_examples=200, deadline=None)
@given(_records, _records, st.data())
def test_property_join_equals_encoding_the_joined_records(head, tail, data):
    """``join(cols(A), cols(B), keep) == cols((A + B)[-keep:])`` bit for bit:
    edges sorted by MAC, table renumbered by first use, table and position
    widths taken from the kept records."""
    keep = data.draw(st.integers(1, len(head) + len(tail) + 2), label="keep")
    joined = join_record_columns([records_to_columns(head), records_to_columns(tail)], keep)
    expected = records_to_columns((head + tail)[-keep:])
    for key in expected:
        assert joined[key].dtype == expected[key].dtype, key
        assert joined[key].shape == expected[key].shape, key
        assert joined[key].tobytes() == expected[key].tobytes(), key
    assert records_from_columns(joined) == (head + tail)[-keep:]


class TestRecordFiles:
    def test_save_load_roundtrip(self, tmp_path):
        records = sample_records()
        path = tmp_path / "stream.jsonl"
        assert save_records(records, path) == 3
        loaded = load_records(path)
        assert [r.readings for r in loaded] == [r.readings for r in records]
        assert [r.timestamp for r in loaded] == [1.0, 2.0, 3.0]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"t": 1, "rss": {"a": -50}}\n\n\n')
        assert len(load_records(path)) == 1

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"t": 1, "rss": {"a": -50}}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_records(path)

    def test_blank_lines_do_not_shift_error_line_numbers(self, tmp_path):
        # The reported line number is the *file* line, not the record count.
        path = tmp_path / "stream.jsonl"
        path.write_text('{"t": 1, "rss": {"a": -50}}\n\n\n{bad\n')
        with pytest.raises(ValueError, match=":4:"):
            load_records(path)

    def test_non_mapping_rss_reports_location(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"t": 1, "rss": [1, 2]}\n')
        with pytest.raises(ValueError, match=":1:"):
            load_records(path)

    def test_invalid_rss_value_reports_location(self, tmp_path):
        # NaN parses as valid JSON via Python's json but SignalRecord
        # rejects non-finite RSS; the loader must still point at the line.
        path = tmp_path / "stream.jsonl"
        path.write_text('{"t": 1, "rss": {"a": NaN}}\n')
        with pytest.raises(ValueError, match=":1:"):
            load_records(path)

    def test_roundtrip_preserves_positions_and_order(self, tmp_path):
        records = sample_records()
        path = tmp_path / "stream.jsonl"
        save_records(records, path)
        loaded = load_records(path)
        assert [r.position for r in loaded] == [(2.0, 3.0, 0), None, None]
        # Round-tripping the loaded stream is byte-stable.
        path2 = tmp_path / "again.jsonl"
        save_records(loaded, path2)
        assert path.read_text() == path2.read_text()


class TestLabeledFiles:
    def test_roundtrip_with_meta(self, tmp_path):
        items = [
            LabeledRecord(sample_records()[0], inside=True, meta={"session": 1}),
            LabeledRecord(sample_records()[1], inside=False),
        ]
        path = tmp_path / "test.jsonl"
        assert save_labeled_records(items, path) == 2
        loaded = load_labeled_records(path)
        assert [item.inside for item in loaded] == [True, False]
        assert loaded[0].meta["session"] == 1

    def test_nonjson_meta_stringified(self, tmp_path):
        items = [LabeledRecord(sample_records()[0], inside=True,
                               meta={"obj": object()})]
        path = tmp_path / "test.jsonl"
        save_labeled_records(items, path)
        assert isinstance(load_labeled_records(path)[0].meta["obj"], str)

    def test_missing_label_rejected(self, tmp_path):
        path = tmp_path / "test.jsonl"
        path.write_text('{"t": 1, "rss": {"a": -50}}\n')
        with pytest.raises(ValueError, match=":1:"):
            load_labeled_records(path)

    def test_roundtrip_preserves_position_and_meta(self, tmp_path):
        items = [LabeledRecord(sample_records()[0], inside=True,
                               meta={"session": 2, "note": "walk"})]
        path = tmp_path / "test.jsonl"
        save_labeled_records(items, path)
        loaded = load_labeled_records(path)
        assert loaded[0].record.position == (2.0, 3.0, 0)
        assert loaded[0].record.timestamp == 1.0
        assert loaded[0].meta == {"session": 2, "note": "walk"}

    def test_blank_lines_skipped_in_labeled_stream(self, tmp_path):
        path = tmp_path / "test.jsonl"
        path.write_text('\n{"t": 1, "rss": {"a": -50}, "inside": true}\n\n')
        assert len(load_labeled_records(path)) == 1

    def test_bad_json_reports_file_line_number(self, tmp_path):
        path = tmp_path / "test.jsonl"
        path.write_text('{"t": 1, "rss": {"a": -50}, "inside": true}\n\n}{\n')
        with pytest.raises(ValueError, match=":3:"):
            load_labeled_records(path)

    def test_non_mapping_rss_reports_location(self, tmp_path):
        path = tmp_path / "test.jsonl"
        path.write_text('{"t": 1, "rss": "oops", "inside": false}\n')
        with pytest.raises(ValueError, match=":1:"):
            load_labeled_records(path)

    def test_end_to_end_with_gem(self, tmp_path):
        # Saved streams feed the pipeline exactly like fresh ones.
        from repro.core import GEM, GEMConfig
        from repro.embedding.bisage import BiSAGEConfig
        from conftest import synthetic_records

        train = synthetic_records(30, seed=0, center=2.0)
        path = tmp_path / "train.jsonl"
        save_records(train, path)
        gem = GEM(GEMConfig(bisage=BiSAGEConfig(dim=8, epochs=1, seed=0)))
        gem.fit(load_records(path))
        assert gem.graph.num_records == 30
