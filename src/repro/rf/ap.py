"""Access points: positions, radios, MAC addresses.

Each physical AP carries one radio per supported band, and each radio
has its own MAC address — matching the paper's observation that "each AP
can have one or more MAC addresses associated with its transceivers"
(Sec. III-A footnote).  MAC strings are deterministic functions of the
AP id so scenario regeneration is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rf.geometry import Point

__all__ = ["Radio", "AccessPoint", "make_mac"]


def make_mac(ap_id: int, band: str) -> str:
    """Deterministic, locally-administered style MAC string for a radio."""
    band_code = 0x24 if band == "2.4" else 0x50
    return f"02:{band_code:02x}:{(ap_id >> 16) & 0xFF:02x}:{(ap_id >> 8) & 0xFF:02x}:{ap_id & 0xFF:02x}:01"


@dataclass(frozen=True)
class Radio:
    """One transceiver of an AP."""

    mac: str
    band: str               # '2.4' or '5'
    tx_power_dbm: float = 20.0

    def __post_init__(self):
        if self.band not in ("2.4", "5"):
            raise ValueError(f"band must be '2.4' or '5', got {self.band!r}")


@dataclass(frozen=True)
class AccessPoint:
    """A physical AP at a position, on a floor, with one radio per band."""

    ap_id: int
    position: Point
    floor: int = 0
    radios: tuple[Radio, ...] = ()

    @staticmethod
    def create(ap_id: int, position: Point, floor: int = 0,
               bands: tuple[str, ...] = ("2.4", "5"),
               tx_power_dbm: float = 20.0) -> "AccessPoint":
        """Build an AP with one radio (and distinct MAC) per band."""
        radios = tuple(Radio(make_mac(ap_id, band), band, tx_power_dbm) for band in bands)
        return AccessPoint(ap_id=ap_id, position=tuple(map(float, position)),
                           floor=floor, radios=radios)

    @property
    def macs(self) -> tuple[str, ...]:
        return tuple(radio.mac for radio in self.radios)
