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
The columns are a complete stand-in for the records:
:func:`check_record_columns` validates them with array checks alone
(refusing whatever building the records would refuse) and puts them in
the one canonical form :func:`records_to_columns` writes, and
:func:`join_record_columns` appends and trims canonical sets without
decoding them.  A fleet keeps a resident tenant's reservoir this way
and builds :class:`SignalRecord` objects only when a refit reads them.
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
    "check_record_columns",
    "join_record_columns",
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
    (A numpy str table drops trailing NULs; :class:`SignalRecord`
    refuses a MAC ending in one, so none reaches the table.)
    """
    records = list(records)
    table: dict[str, int] = {}
    edges = np.empty(sum(len(record.readings) for record in records), dtype=_EDGE_DTYPE)
    edges["mac"] = [table.setdefault(mac, len(table))
                    for record in records for mac in record.readings]
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
    """Inverse of :func:`records_to_columns`; validates the layout first.

    Also accepts a sequence of :func:`record_to_dict` dicts, the form
    checkpoints held before the columnar one.  Raises ValueError on
    columns :func:`check_record_columns` refuses.
    """
    if not isinstance(columns, Mapping):
        return [record_from_dict(item) for item in columns]
    macs, edges, rows, _ = _validated(columns)
    return _decode(macs, edges, rows)


def check_record_columns(columns: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Validate a columnar record set and return it in canonical form.

    Refuses (ValueError) whatever a decode would refuse, with array
    checks only: a missing or mistyped array, edge offsets not monotone
    or out of range, a MAC index past the table, a position length out
    of range, a non-finite RSS, an empty or repeated MAC name in the
    table, a MAC repeated within one record.  Valid columns that
    :func:`records_to_columns` would not have written (edges out of MAC
    order, a table not in first-use order or wider than its longest
    MAC, a position block wider than the longest position or padded
    with non-zeros) are re-encoded once; canonical ones come back as
    the same arrays, so holding them is as good as holding the records.
    """
    macs, edges, rows, canonical = _validated(columns)
    if not canonical:
        return records_to_columns(_decode(macs, edges, rows))
    return {"macs": macs, "edges": edges, "records": rows}


def _validated(columns: Mapping[str, np.ndarray]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """``(macs, edges, records, canonical)`` of valid columns, else ValueError."""
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
    lengths = stops.copy()
    lengths[1:] -= stops[:-1]
    if np.any(lengths < 0) or (stops[-1] if len(stops) else 0) != len(edges):
        raise ValueError(f"record columns: edge offsets are not monotone over "
                         f"{len(edges)} edges")
    index = edges["mac"]
    if len(edges) and (index.min() < 0 or index.max() >= len(macs)):
        raise ValueError(f"record columns: MAC index outside the {len(macs)}-entry table")
    pos_len = rows["pos_len"]
    if np.any((pos_len < -1) | (pos_len > width)):
        raise ValueError("record columns: position length out of range")
    if not np.isfinite(edges["rss"]).all():
        raise ValueError("record columns: every RSS must be finite")
    name_length = np.strings.str_len(macs) if len(macs) else np.zeros(0, dtype=np.int64)
    if np.any(name_length == 0):
        raise ValueError("record columns: MAC addresses must be non-empty strings")
    by_name = np.argsort(macs, kind="stable")
    repeated = np.flatnonzero(macs[by_name][1:] == macs[by_name][:-1])
    if len(repeated):
        raise ValueError(f"record columns: the MAC table stores "
                         f"{macs[by_name][repeated[0]]!r} twice")
    # Each record's edges, ranked by MAC name: strictly increasing runs
    # are the canonical order; an equal neighbour after sorting a run is
    # a MAC the record repeats.
    rank = np.empty(len(macs), dtype=np.int64)
    rank[by_name] = np.arange(len(macs))
    ranked = rank[index]
    rising = ranked[1:] > ranked[:-1]
    starts = stops[:-1]
    rising[starts[(starts > 0) & (starts < len(edges))] - 1] = True  # across records
    in_order = bool(rising.all())
    if not in_order:
        owner = np.repeat(np.arange(len(rows)), lengths)
        order = np.lexsort((ranked, owner))
        twice = (ranked[order][1:] == ranked[order][:-1]) \
            & (owner[order][1:] == owner[order][:-1])
        if np.any(twice):
            raise ValueError(f"record columns: record {owner[order][1:][twice][0]} "
                             "repeats a MAC")
    canonical = in_order and _canonical_table(macs, index, name_length) \
        and _canonical_positions(rows, width)
    return macs, edges, rows, canonical


def _canonical_table(macs: np.ndarray, index: np.ndarray, name_length: np.ndarray) -> bool:
    """Is the table exactly the used MACs, numbered by first use, at the
    width of its longest name (``<U1`` when empty)?"""
    if not len(index):
        return not len(macs) and macs.dtype == np.dtype("<U1")
    seen = np.maximum.accumulate(index)
    return (index[0] == 0 and seen[-1] == len(macs) - 1
            and bool(np.all(index[1:] <= seen[:-1] + 1))
            and macs.dtype == np.dtype(f"<U{name_length.max()}"))


def _canonical_positions(rows: np.ndarray, width: int) -> bool:
    """Is the position block as wide as the longest position and padded
    with +0.0 (bitwise) past each record's length?"""
    if width != rows["pos_len"].max(initial=0):
        return False
    padding = rows["pos"][np.arange(width) >= rows["pos_len"][:, None]]
    return not padding.view(np.int64).any()


def _decode(macs: np.ndarray, edges: np.ndarray, rows: np.ndarray) -> list[SignalRecord]:
    """Records of validated columns, readings in stored edge order."""
    table = macs.tolist()
    names = [table[index] for index in edges["mac"].tolist()]
    values = edges["rss"].tolist()
    out = []
    start = 0
    for stop, stamp, length, position in zip(rows["stop"].tolist(), rows["t"].tolist(),
                                             rows["pos_len"].tolist(), rows["pos"].tolist()):
        out.append(SignalRecord(dict(zip(names[start:stop], values[start:stop])),
                                timestamp=stamp,
                                position=None if length < 0 else tuple(position[:length])))
        start = stop
    return out


def join_record_columns(parts: Iterable[Mapping[str, np.ndarray]],
                        keep: int) -> dict[str, np.ndarray]:
    """Canonical columns of the concatenated record sets, last ``keep`` kept.

    For canonical parts (what :func:`records_to_columns` and
    :func:`check_record_columns` return) this equals, bit for bit,
    ``records_to_columns((A + B + ...)[-keep:])`` over the parts'
    records (``keep >= 1``), without building a
    record: the kept rows and edges are sliced and concatenated, the
    MAC tables are merged by name and renumbered by first use, and the
    table and position widths shrink to what the kept records use.
    """
    parts = list(parts)
    drop = max(sum(len(part["records"]) for part in parts) - keep, 0)
    names, indices, edge_runs, row_runs = [], [], [], []
    for part in parts:
        rows = part["records"]
        skip = min(drop, len(rows))
        drop -= skip
        first = int(rows["stop"][skip - 1]) if skip else 0
        edge_runs.append(part["edges"][first:])
        row_runs.append((rows[skip:], first))
        indices.append(edge_runs[-1]["mac"] + sum(map(len, names)))
        names.append(part["macs"])
    edges = np.concatenate(edge_runs)
    # One id per distinct name across the parts' tables, then the ids
    # the kept edges use, renumbered in order of first use.
    table, by_name = np.unique(np.concatenate(names), return_inverse=True)
    named = by_name[np.concatenate(indices)]
    used, first_use = np.unique(named, return_index=True)
    order = used[np.argsort(first_use)]
    renumber = np.empty(len(table), dtype=np.int32)
    renumber[order] = np.arange(len(order), dtype=np.int32)
    edges["mac"] = renumber[named]
    table = table[order]
    macs = table.astype(f"<U{np.strings.str_len(table).max() if len(table) else 1}")
    width = max(int(rows["pos_len"].max(initial=0)) for rows, _ in row_runs)
    out = np.zeros(sum(len(rows) for rows, _ in row_runs), dtype=_record_dtype(width))
    at = base = 0
    for (rows, first), run in zip(row_runs, edge_runs):
        block = out[at:at + len(rows)]
        block["stop"] = rows["stop"] - first + base
        block["t"] = rows["t"]
        block["pos_len"] = rows["pos_len"]
        shared = min(width, rows.dtype["pos"].shape[0])
        block["pos"][:, :shared] = rows["pos"][:, :shared]
        at += len(rows)
        base += len(run)
    return {"macs": macs, "edges": edges, "records": out}


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
