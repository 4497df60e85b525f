"""Quarantine evidence buffers: recovery fuel for starved reservoirs.

``BENCH_fleet_drift.json``'s worst-case arm pins the failure mode this
module exists for: above ~45 % ambient-AP replacement every decision
goes *outside*, the anchor+recent inlier reservoir stops filling, and
nothing reservoir-fed (refresh or reprovision) can ever recover — the
model rejects the new world, so the new world never reaches the model.

The escape hatch is a second, strictly separated buffer.  A
:class:`QuarantineBuffer` holds **rejected-but-home-AP-anchored**
records: scans the model called outside (or could not embed at all) but
that still hear one of the premises' own access points near the top of
the scan.  Those are exactly the records a post-shock *inside* device
produces — the home APs survive (they belong to the premises; churn and
shock replace ambient infrastructure), while the ambient universe the
model was trained on is gone.  Crucially the buffer is **never used for
refresh**: a coordinated refresh refits the detector only on the
inlier reservoir, so an attacker parked outside the fence cannot teach the detector
through the quarantine.  Quarantined evidence is consumed only by the
explicit, policy- or operator-approved full refit
(:meth:`~repro.serve.fleet.GeofenceFleet.reprovision_from_quarantine`).

Admission is defended in depth, in the spirit of consistency-regularized
semi-supervised RF fingerprinting (arxiv 2304.14795):

1. **Home-AP anchor** — some home MAC's RSS must be within
   :data:`ANCHOR_MARGIN_DB` of the scan's strongest reading.  Home MACs
   are derived from the tenant's pinned anchor records (the training
   set): MACs present in at least :data:`HOME_ANCHOR_FRACTION` of them.
2. **Consistency gate** — the rejection must be *stable under RSS
   augmentation*: a :class:`ConsistencyGate` re-scores ``passes``
   augmented copies (AP dropout + one clamped global gain offset per
   copy, mirroring :class:`~repro.rf.dynamics.DeviceGainDrift`) in one
   side-effect-free ``predict_many`` call; a record whose decision
   flips on any copy sits on the decision boundary and is discarded —
   only confident, augmentation-stable model-world mismatches qualify
   as recovery evidence.
3. **Deterministic reservoir sampling** — a bounded buffer over an
   unbounded rejection stream.  Instead of serialising RNG state, slot
   choices hash ``(tenant, admission index)``, so the retained
   set is a pure function of the admitted sequence: bit-identical
   across evict/reload, delta-checkpoint round trips and process
   restarts.

The buffer travels inside checkpoint metadata (next to the fleet's
``fleet_reservoir`` key, stripped from user metadata the same way — see
:mod:`repro.serve.registry`), so an evicted or offline tenant keeps its
evidence: its records as columnar arrays in the checkpoint's npz, its
counters and home MACs in the manifest.  The *when to recover* policy
lives in :class:`~repro.serve.policy.RecoveryPolicy`; the arming logic
(stuck refreshes + reservoir starvation, the two health probes) lives in
:class:`~repro.serve.controller.FleetController`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.io import records_from_columns, records_to_columns
from repro.core.records import SignalRecord

__all__ = [
    "ANCHOR_MARGIN_DB",
    "ConsistencyGate",
    "DEFAULT_QUARANTINE_SIZE",
    "HOME_ANCHOR_FRACTION",
    "QuarantineBuffer",
    "home_anchor_macs",
    "predict_records",
]

# Default buffer capacity when quarantine is switched on (fleets default
# to 0 = disabled; `repro maintain --action recover` and the drift bench
# use this bound).  One buffer of SignalRecords is small — the cost that
# matters is the refit, which is explicit.
DEFAULT_QUARANTINE_SIZE = 256

# Admission anchor: a home MAC must read within this many dB of the
# scan's strongest reading.
ANCHOR_MARGIN_DB = 12.0
# Home MACs are those heard in at least this fraction of anchor records.
HOME_ANCHOR_FRACTION = 0.6
# Hashed into every slot choice and gate generator.  Persisted buffers
# continue their sample from these exact bytes; changing it would
# reshuffle every tenant's evidence after a reload.
_SAMPLING_SEED = 0


def home_anchor_macs(records: Sequence[SignalRecord]) -> frozenset[str]:
    """MACs present in at least :data:`HOME_ANCHOR_FRACTION` of the
    anchor records.

    The anchor is the provision-time training set: scans taken inside
    the premises.  A MAC heard in most of them is (with overwhelming
    likelihood) the premises' own AP — ambient neighbours fade in and
    out across the walk, the home APs do not.  Churn/shock schedules
    model exactly this: they replace ambient infrastructure and protect
    ``home_ap_ids``, which is what makes the derived set a stable
    post-shock anchor.
    """
    if not records:
        return frozenset()
    counts: dict[str, int] = {}
    for record in records:
        for mac in record.readings:
            counts[mac] = counts.get(mac, 0) + 1
    floor = HOME_ANCHOR_FRACTION * len(records)
    return frozenset(mac for mac, n in counts.items() if n >= floor)


def predict_records(model, records: Sequence[SignalRecord]) -> np.ndarray:
    """The model's in-premises verdict per record, as a boolean array.

    One ``predict_many`` pass when the model has one, else ``predict``
    per record; both leave the model untouched.
    """
    if hasattr(model, "predict_many"):
        return model.predict_many(records)
    return np.array([model.predict(record) for record in records], dtype=bool)


@dataclass(frozen=True)
class ConsistencyGate:
    """Decision-stability filter under RSS augmentation.

    A candidate (a record the model rejected) passes only when the
    model still rejects every one of ``passes`` augmented copies.  Each
    copy drops each reading independently with probability ``dropout``
    (at least the strongest survives — an empty scan tests nothing) and
    shifts every surviving RSS by one global gain offset drawn
    ``N(0, gain_sigma_db)`` and clamped to ``±max_gain_db`` — the same
    clamped-global-offset shape as
    :class:`~repro.rf.dynamics.DeviceGainDrift`, because that is the
    measured device-side variation a real decision must be invariant
    to.  Records that flip on any copy are boundary cases, not
    confident model-world mismatches, and make poor recovery evidence.

    Scoring uses the model's side-effect-free ``predict_many`` (the
    same embed and score the served ``observe_many`` runs: for a graph
    embedder one embed per copy through the model's own inference
    kernel, and one scoring pass over all copies), or ``predict`` per
    copy for models without it.  Neither mutates the embedder or the
    detector — the gate is invisible to the decision stream, which is
    what keeps quarantine-off and quarantine-on fleets bit-identical.
    """

    passes: int = 3
    dropout: float = 0.2
    gain_sigma_db: float = 1.0
    max_gain_db: float = 3.0

    def __post_init__(self):
        if isinstance(self.passes, bool) or not isinstance(self.passes, int) \
                or self.passes < 1:
            raise ValueError(f"passes must be an integer >= 1, got {self.passes!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.gain_sigma_db < 0 or self.max_gain_db < 0:
            raise ValueError("gain_sigma_db and max_gain_db must be >= 0")

    def augment(self, record: SignalRecord, rng: np.random.Generator) -> SignalRecord:
        """One augmented copy: AP dropout + clamped global gain offset."""
        gain = float(np.clip(rng.normal(0.0, self.gain_sigma_db),
                             -self.max_gain_db, self.max_gain_db))
        # Sorted iteration: the number and order of rng draws must not
        # depend on dict insertion order, or determinism dies quietly.
        kept = [mac for mac in sorted(record.readings)
                if rng.random() >= self.dropout]
        if not kept:
            kept = [record.strongest_mac()]
        readings = {mac: record.readings[mac] + gain for mac in kept}
        return SignalRecord(readings, timestamp=record.timestamp,
                            position=record.position)

    def stable_rejection(self, model, record: SignalRecord,
                         rng: np.random.Generator) -> bool:
        """True when the model rejects all ``passes`` augmented copies.

        All copies are drawn before any is scored, then scored in one
        :func:`predict_records` call.  ``rng`` is the candidate's own
        generator and is discarded afterwards, so drawing the copies a
        short-circuit would have skipped changes no admission.
        """
        copies = [self.augment(record, rng) for _ in range(self.passes)]
        return not predict_records(model, copies).any()


class QuarantineBuffer:
    """Bounded, deterministic evidence buffer for one tenant.

    The anchor margin and the sampling seed are module constants, so
    the retained set depends only on ``tenant_key`` and the admitted
    sequence.

    Not thread-safe on its own: the owning
    :class:`~repro.serve.fleet.GeofenceFleet` mutates it under the
    fleet lock, exactly like the inlier reservoir.

    ``seen`` counts admitted candidates ever (the reservoir-sampling
    index); ``offered`` counts home-anchored candidates ever (the
    per-candidate RNG index for the gate).  Both persist with the
    records, so a reloaded buffer continues the *same* deterministic
    sample the resident one would have taken.
    """

    def __init__(self, capacity: int, tenant_key: str = "",
                 gate: ConsistencyGate | None = None):
        if capacity < 1:
            raise ValueError(f"quarantine capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.tenant_key = str(tenant_key)
        self.gate = gate
        self.home_macs: frozenset[str] = frozenset()
        self.records: list[SignalRecord] = []
        self.seen = 0
        self.offered = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def set_home(self, macs: Iterable[str]) -> None:
        """Pin the home-AP anchor set (derived from the anchor reservoir)."""
        self.home_macs = frozenset(macs)

    def anchored(self, record: SignalRecord) -> bool:
        """Does some home MAC sit within :data:`ANCHOR_MARGIN_DB` of the top?"""
        if not self.home_macs or not record.readings:
            return False
        strongest = max(record.readings.values())
        floor = strongest - ANCHOR_MARGIN_DB
        return any(record.readings.get(mac, -float("inf")) >= floor
                   for mac in self.home_macs)

    def consider(self, model, record: SignalRecord) -> str:
        """Offer one rejected record; returns the admission outcome.

        Outcomes (the ``outcome`` label on
        ``repro_quarantine_admissions_total``): ``"admitted"`` (in the
        buffer now), ``"no-anchor"`` (no home AP near the top of the
        scan), ``"inconsistent"`` (decision flipped under augmentation),
        ``"sampled-out"`` (passed both gates, lost the reservoir draw).
        """
        if not self.anchored(record):
            return "no-anchor"
        rng = self._candidate_rng(self.offered)
        self.offered += 1
        if self.gate is not None and hasattr(model, "predict") \
                and not self.gate.stable_rejection(model, record, rng):
            return "inconsistent"
        index = self.seen
        self.seen += 1
        if len(self.records) < self.capacity:
            self.records.append(record)
            return "admitted"
        # Algorithm R with a hash in place of an RNG: candidate `index`
        # lands in slot hash % (index + 1); it survives iff that slot is
        # a real one.  Admission probability capacity/(index+1), same as
        # classic reservoir sampling, but stateless — determinism needs
        # only the persisted counter, not serialised generator state.
        slot = self._slot_hash(index) % (index + 1)
        if slot < self.capacity:
            self.records[slot] = record
            return "admitted"
        return "sampled-out"

    def _slot_hash(self, index: int) -> int:
        return zlib.crc32(f"{_SAMPLING_SEED}:{self.tenant_key}:{index}".encode())

    def _candidate_rng(self, index: int) -> np.random.Generator:
        key = zlib.crc32(self.tenant_key.encode())
        return np.random.default_rng(
            np.random.SeedSequence(entropy=_SAMPLING_SEED, spawn_key=(key, index)))

    # ------------------------------------------------------------------
    # Introspection / consumption
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self.records)

    @property
    def saturation(self) -> float:
        """Fill fraction in [0, 1] — the ``quarantine_saturation`` probe."""
        return len(self.records) / self.capacity

    def clear(self) -> None:
        """Consume the evidence (after a recovery refit): reset everything.

        The counters reset too — post-recovery the world is new, and the
        next sample should not be biased toward surviving the tail of
        the previous epoch's stream.
        """
        self.records = []
        self.seen = 0
        self.offered = 0

    # ------------------------------------------------------------------
    # Persistence (checkpoint metadata)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """State for checkpoint metadata: the records as columnar arrays
        (:func:`~repro.core.io.records_to_columns`), the rest JSON-safe."""
        return {
            "records": records_to_columns(self.records),
            "seen": self.seen,
            "offered": self.offered,
            "home": sorted(self.home_macs),
        }

    @classmethod
    def from_state(cls, state: Mapping, capacity: int, tenant_key: str = "",
                   gate: ConsistencyGate | None = None) -> "QuarantineBuffer":
        """Rebuild from :meth:`state_dict` output.

        Records in the JSON form earlier releases persisted load too.
        The *fleet's* capacity and gate win over whatever wrote the
        state (config is not data); a shrunk capacity keeps the first
        ``capacity`` persisted records deterministically.
        """
        buffer = cls(capacity, tenant_key=tenant_key, gate=gate)
        buffer.records = records_from_columns(state.get("records", ()))[:capacity]
        buffer.seen = int(state.get("seen", len(buffer.records)))
        buffer.offered = int(state.get("offered", buffer.seen))
        buffer.set_home(state.get("home", ()))
        return buffer

    @property
    def dormant(self) -> bool:
        """True when there is nothing worth persisting."""
        return not self.records and not self.seen and not self.offered
