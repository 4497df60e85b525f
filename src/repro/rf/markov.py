"""Two-state ON-OFF Markov dynamics for APs (Fig. 11 / Fig. 12).

Each AP/MAC independently follows a two-state chain: in state ON its
readings survive, in state OFF they disappear from the records.  State
transitions (including self-transitions) occur every ``period`` samples:
ON→OFF with probability ``p``, OFF→ON with probability ``q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.records import SignalRecord, unique_macs
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int, check_probability

__all__ = ["OnOffMarkov", "apply_ap_onoff", "markov_entropy_rate"]


@dataclass(frozen=True)
class OnOffMarkov:
    """The chain of Fig. 11: ``p`` = Pr(ON→OFF), ``q`` = Pr(OFF→ON)."""

    p: float
    q: float

    def __post_init__(self):
        check_probability(self.p, "p")
        check_probability(self.q, "q")

    def simulate(self, steps: int, rng=None, start_on: bool = True) -> list[bool]:
        """State sequence of length ``steps`` (True = ON)."""
        check_positive_int(steps, "steps")
        rng = as_rng(rng)
        state = start_on
        out = []
        for _ in range(steps):
            out.append(state)
            if state:
                state = rng.random() >= self.p
            else:
                state = rng.random() < self.q
        return out


def apply_ap_onoff(records: Sequence[SignalRecord], p: float, q: float,
                   period: int = 30, rng=None,
                   macs: Sequence[str] | None = None) -> list[SignalRecord]:
    """Apply independent ON-OFF chains per MAC over a record stream.

    Every MAC holds its state for ``period`` consecutive records, then
    transitions (the paper: "each state transition … takes place every 30
    samples").  OFF blocks have that MAC's readings removed.
    """
    check_positive_int(period, "period")
    rng = as_rng(rng)
    records = list(records)
    if not records:
        return []
    chain = OnOffMarkov(p, q)
    target_macs = list(macs) if macs is not None else sorted(unique_macs(records))
    blocks = (len(records) + period - 1) // period
    off_by_block: list[set[str]] = [set() for _ in range(blocks)]
    for mac in target_macs:
        states = chain.simulate(blocks, rng=rng)
        for block, on in enumerate(states):
            if not on:
                off_by_block[block].add(mac)
    out = []
    for i, record in enumerate(records):
        off = off_by_block[i // period]
        out.append(record.without(off) if off else record)
    return out


def markov_entropy_rate(p: float, q: float) -> float:
    """Entropy rate (bits/step) of the two-state chain — the quantity the
    paper invokes to explain the Fig. 12 dip near (0.5, 0.5)."""
    import math

    check_probability(p, "p")
    check_probability(q, "q")

    def h(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    if p + q == 0:
        return 0.0
    pi_on = q / (p + q)
    return pi_on * h(p) + (1 - pi_on) * h(q)
