"""RF signal record types.

A *signal record* is one scan event: the set of MAC addresses the device
heard, each with a received-signal-strength (RSS) value in dBm.  Records
are variable-length by nature — the central difficulty the paper's
bipartite-graph model removes (Sec. III-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = ["SignalRecord", "LabeledRecord", "unique_macs"]


@dataclass(frozen=True)
class SignalRecord:
    """A single RF scan: MAC address -> RSS (dBm).

    Attributes
    ----------
    readings:
        Mapping from MAC address string to RSS in dBm (negative values,
        typically -30 .. -95).
    timestamp:
        Seconds since the start of the collection (monotone within a
        stream); used only for bookkeeping and timing experiments.
    position:
        Optional ground-truth (x, y) or (x, y, floor) position, filled by
        the simulator; never consumed by the models.
    """

    readings: Mapping[str, float]
    timestamp: float = 0.0
    position: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.readings, Mapping):
            raise TypeError("readings must be a mapping of MAC -> RSS")
        for mac, rss in self.readings.items():
            if not isinstance(mac, str) or not mac:
                raise ValueError(f"MAC addresses must be non-empty strings, got {mac!r}")
            if mac[-1] == "\0":
                # numpy str arrays (the checkpoint's columnar record
                # form) drop trailing NULs: it would reload as another MAC.
                raise ValueError(f"MAC {mac!r} ends in a NUL character")
            if not math.isfinite(rss):
                raise ValueError(f"RSS for {mac} must be finite, got {rss!r}")
        object.__setattr__(self, "readings", dict(self.readings))

    @property
    def macs(self) -> frozenset[str]:
        return frozenset(self.readings)

    def __len__(self) -> int:
        return len(self.readings)

    def strongest_mac(self) -> str | None:
        """The MAC with the highest RSS (the AP a device would associate to)."""
        if not self.readings:
            return None
        return max(self.readings, key=self.readings.get)

    def without(self, macs: Iterable[str]) -> "SignalRecord":
        """A copy dropping readings whose MAC is in ``macs``."""
        banned = set(macs)
        kept = {mac: rss for mac, rss in self.readings.items() if mac not in banned}
        return SignalRecord(kept, timestamp=self.timestamp, position=self.position)


@dataclass(frozen=True)
class LabeledRecord:
    """A signal record with its ground-truth geofence label."""

    record: SignalRecord
    inside: bool
    meta: dict = field(default_factory=dict)


def unique_macs(records: Iterable[SignalRecord]) -> set[str]:
    """Union of all MAC addresses appearing in ``records``."""
    macs: set[str] = set()
    for record in records:
        macs.update(record.readings)
    return macs

