"""Persistence for record streams and datasets (JSON Lines).

Real deployments collect scans on a device and evaluate elsewhere; these
helpers serialise :class:`SignalRecord` streams and labelled test
streams to a line-oriented JSON format that is diff-able, append-able
and language-neutral.

Format: one JSON object per line.
``{"t": 12.0, "rss": {"aa:bb:..": -61.5}, "pos": [x, y, floor]}`` for
records; labelled records add ``"inside": true`` and optional ``"meta"``.

Record *sets* kept inside checkpoints (the fleet reservoir, the
quarantine buffer) use a columnar form instead, see
:func:`records_to_columns`: a scan is a variable-length set of
(AP, RSS) edges (Sec. III-A), so a sequence of scans packs into one
CSR block of numpy arrays that the checkpoint stores in its npz.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.records import LabeledRecord, SignalRecord

__all__ = [
    "record_to_dict",
    "record_from_dict",
    "records_to_columns",
    "records_from_columns",
    "save_records",
    "load_records",
    "save_labeled_records",
    "load_labeled_records",
]


def record_to_dict(record: SignalRecord) -> dict:
    """JSON-safe dict form of one record."""
    out: dict = {"t": record.timestamp, "rss": dict(record.readings)}
    if record.position is not None:
        out["pos"] = list(record.position)
    return out


def record_from_dict(data: dict) -> SignalRecord:
    """Inverse of :func:`record_to_dict`; validates required keys and
    that a position holds only numbers (the checkpoint stores it as
    float64, see :func:`records_to_columns`)."""
    if "rss" not in data:
        raise ValueError("record object missing 'rss' field")
    position = tuple(data["pos"]) if "pos" in data else None
    if position is not None and not all(isinstance(value, (int, float)) for value in position):
        raise ValueError(f"record 'pos' must hold numbers, got {data['pos']!r}")
    return SignalRecord(dict(data["rss"]), timestamp=float(data.get("t", 0.0)),
                        position=position)


# Row types of the columnar record form: one row per (AP, RSS) edge, and
# one per record with the end of its edge run, its timestamp, its
# position's length (-1: no position) and the position zero-padded to
# the set's longest.
_EDGE_DTYPE = np.dtype([("mac", "<i4"), ("rss", "<f8")])
_RECORD_FIELDS = ("stop", "t", "pos_len", "pos")


def _record_dtype(width: int) -> np.dtype:
    return np.dtype([("stop", "<i8"), ("t", "<f8"), ("pos_len", "<i8"),
                     ("pos", "<f8", (width,))])


def records_to_columns(records: Iterable[SignalRecord]) -> dict[str, np.ndarray]:
    """Columnar (CSR) form of a record sequence.

    Round trips are exact up to types and order: positions (numeric)
    come back as float tuples, and each record's readings in sorted MAC
    order, the order a reload has always produced (the JSON form was
    written with sorted keys) and that a refit on reloaded records
    depends on bit for bit.

    ``macs``
        ``(M,)`` str: the interned MAC table, in first-heard order.
    ``edges``
        ``(E,)`` rows of ``mac`` (int32 row in ``macs``) and ``rss``
        (float64): every reading, record after record.
    ``records``
        ``(n,)`` rows of ``stop`` (record ``i`` owns edges
        ``records[i - 1]["stop"]:records[i]["stop"]``), ``t``, ``pos_len``
        (-1 for no position) and ``pos`` (float64, zero-padded).

    Appending records appends rows to every array (new MACs extend the
    table), so a checkpoint delta of a grown set stores only the tail.

    A MAC ending in a NUL character raises ValueError: a numpy str
    table drops trailing NULs, so it would reload as a different MAC.
    """
    records = list(records)
    table: dict[str, int] = {}
    edges = np.empty(sum(len(record.readings) for record in records), dtype=_EDGE_DTYPE)
    edges["mac"] = [table.setdefault(mac, len(table))
                    for record in records for mac in record.readings]
    for mac in table:
        if mac.endswith("\0"):
            raise ValueError(f"MAC {mac!r} ends in a NUL character, which the "
                             "columnar form cannot store")
    edges["rss"] = [value for record in records for value in record.readings.values()]
    macs = np.array(list(table), dtype=str)
    lengths = [len(record.readings) for record in records]
    # Sort each record's edges by MAC (table rank in sorted order, within
    # the owning record), then renumber the table by first use in that
    # order, so the columns do not depend on the records' reading order
    # and re-encoding a reloaded set reproduces them exactly.
    rank = np.empty(len(macs), dtype=np.int64)
    rank[np.argsort(macs)] = np.arange(len(macs))
    owner = np.repeat(np.arange(len(records)), lengths)
    edges = edges[np.lexsort((rank[edges["mac"]], owner))]
    used, first = np.unique(edges["mac"], return_index=True)
    order = used[np.argsort(first)]
    renumber = np.empty(len(macs), dtype=np.int32)
    renumber[order] = np.arange(len(order))
    edges["mac"] = renumber[edges["mac"]]
    macs = macs[order]
    positions = [() if record.position is None else tuple(record.position)
                 for record in records]
    width = max(map(len, positions), default=0)
    rows = np.zeros(len(records), dtype=_record_dtype(width))
    rows["stop"] = np.cumsum(lengths, dtype=np.int64)
    rows["t"] = [record.timestamp for record in records]
    rows["pos_len"] = [-1 if record.position is None else len(record.position)
                       for record in records]
    if width:
        rows["pos"] = [position + (0.0,) * (width - len(position)) for position in positions]
    return {"macs": macs, "edges": edges, "records": rows}


def records_from_columns(columns: Mapping[str, np.ndarray] | Sequence[dict]
                         ) -> list[SignalRecord]:
    """Inverse of :func:`records_to_columns`; validates the layout.

    Also accepts a sequence of :func:`record_to_dict` dicts, the form
    checkpoints held before the columnar one.  Raises ValueError on
    inconsistent columns (edge offsets not monotone or out of range, a
    MAC index past the table, lengths that disagree, a MAC repeated
    within one record) and on records :class:`SignalRecord` refuses.
    """
    if not isinstance(columns, Mapping):
        return [record_from_dict(item) for item in columns]
    missing = {"macs", "edges", "records"} - set(columns)
    if missing:
        raise ValueError(f"record columns missing {sorted(missing)}")
    macs, edges, rows = (np.asarray(columns[key]) for key in ("macs", "edges", "records"))
    if macs.ndim != 1 or (macs.size and macs.dtype.kind != "U"):
        raise ValueError(f"record columns: macs must be a 1-D string table, "
                         f"not {macs.dtype} {macs.shape}")
    if edges.ndim != 1 or edges.dtype != _EDGE_DTYPE:
        raise ValueError(f"record columns: edges must be 1-D {_EDGE_DTYPE}, "
                         f"not {edges.dtype} {edges.shape}")
    pos = rows.dtype.fields.get("pos") if rows.dtype.names == _RECORD_FIELDS else None
    width = pos[0].shape[0] if pos is not None and pos[0].ndim == 1 else -1
    if rows.ndim != 1 or width < 0 or rows.dtype != _record_dtype(width):
        raise ValueError(f"record columns: records must be 1-D rows of "
                         f"{_RECORD_FIELDS}, not {rows.dtype} {rows.shape}")
    stops = rows["stop"]
    if np.any(np.diff(stops, prepend=0) < 0) or (stops[-1] if len(stops) else 0) != len(edges):
        raise ValueError(f"record columns: edge offsets are not monotone over "
                         f"{len(edges)} edges")
    if len(edges) and (edges["mac"].min() < 0 or edges["mac"].max() >= len(macs)):
        raise ValueError(f"record columns: MAC index outside the {len(macs)}-entry table")
    if np.any((rows["pos_len"] < -1) | (rows["pos_len"] > width)):
        raise ValueError("record columns: position length out of range")
    table = macs.tolist()
    names = [table[index] for index in edges["mac"].tolist()]
    values = edges["rss"].tolist()
    out = []
    start = 0
    for stop, stamp, length, position in zip(stops.tolist(), rows["t"].tolist(),
                                             rows["pos_len"].tolist(), rows["pos"].tolist()):
        readings = dict(zip(names[start:stop], values[start:stop]))
        if len(readings) != stop - start:
            raise ValueError(f"record columns: record {len(out)} repeats a MAC")
        out.append(SignalRecord(readings, timestamp=stamp,
                                position=None if length < 0 else tuple(position[:length])))
        start = stop
    return out


def save_records(records: Iterable[SignalRecord], path: str | Path) -> int:
    """Write records as JSONL; returns the number written."""
    path = Path(path)
    count = 0
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record)) + "\n")
            count += 1
    return count


def load_records(path: str | Path) -> list[SignalRecord]:
    """Read a JSONL record stream written by :func:`save_records`."""
    path = Path(path)
    records = []
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(record_from_dict(json.loads(line)))
            except (json.JSONDecodeError, TypeError, ValueError) as error:
                raise ValueError(f"{path}:{line_number}: bad record line: {error}") from error
    return records


def save_labeled_records(items: Sequence[LabeledRecord], path: str | Path) -> int:
    """Write a labelled test stream as JSONL."""
    path = Path(path)
    with path.open("w") as handle:
        for item in items:
            data = record_to_dict(item.record)
            data["inside"] = bool(item.inside)
            if item.meta:
                data["meta"] = _json_safe(item.meta)
            handle.write(json.dumps(data) + "\n")
    return len(items)


def load_labeled_records(path: str | Path) -> list[LabeledRecord]:
    """Read a labelled stream written by :func:`save_labeled_records`."""
    path = Path(path)
    items = []
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                record = record_from_dict(data)
                items.append(LabeledRecord(record, inside=bool(data["inside"]),
                                           meta=data.get("meta", {})))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                raise ValueError(f"{path}:{line_number}: bad labelled line: {error}") from error
    return items


def _json_safe(meta: dict) -> dict:
    """Best-effort conversion of metadata values to JSON-safe types."""
    out = {}
    for key, value in meta.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[str(key)] = value
        else:
            out[str(key)] = str(value)
    return out
