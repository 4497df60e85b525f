"""Delta-shipped replication: committed writes -> standby registry.

The format-3 checkpoint chain (PR 5) is already the exact unit a warm
standby needs: every committed write is either a full save (arrays file
+ manifest) or one delta entry (append-tails/replacements + manifest
rewrite), and both carry nonces the loader validates.  Replication
therefore ships the *committed artifacts themselves* instead of
inventing a second log:

* :class:`DeltaShipper` subscribes to a registry's commit events
  (:meth:`~repro.serve.registry.ModelRegistry.subscribe`, fired on the
  saving thread right after each commit), packages the committed file's
  bytes plus the manifest as a :class:`ShippedWrite`, and queues it for
  the transport (the cluster worker's protocol link, or a direct
  in-process hand-off in tests).
* :class:`Follower` applies shipped writes to a standby registry with
  the same nonce/parent-chain discipline the loader enforces: a delta
  must chain off the standby's current tip, its npz nonce must match
  the manifest entry, and a torn or truncated payload is rejected
  *before* anything touches the standby's disk.  Replays are
  idempotent (a write whose tip the standby already holds is skipped),
  so a restarted follower can be re-fed from any earlier point.
* :meth:`Follower.promote` turns the standby into a serving primary:
  every tenant still mid-chain is loaded (chain replayed) and
  compacted to a plain format-2 checkpoint, so the promoted registry
  starts clean — the measured ``seconds`` is the failover cost.

What warm failover guarantees — and what it does not: the standby holds
every **committed** write the shipper delivered; in-memory state the
primary had not yet written back (dirty tenants between flushes) is
lost with the primary, exactly as it would be in a single-node crash.
A tenant's state reaches the standby when it is written back: an
explicit ``flush()``, its eviction, or the close of its fleet.
"""

from __future__ import annotations

import io
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.serve.checkpoint import (
    ARRAYS_PREFIX,
    ARRAYS_SUFFIX,
    DELTA_PREFIX,
    DELTA_SUFFIX,
    MANIFEST_NAME,
    _DELTA_ID_KEY,
    _SAVE_ID_KEY,
    CheckpointError,
    CommitInfo,
    _replace_into,
    _write_manifest,
    load_checkpoint_with_manifest,
    read_manifest,
    read_npz,
    save_checkpoint,
    spec_from_manifest,
)
from repro.serve.registry import ModelRegistry, validate_tenant_id

__all__ = ["DeltaShipper", "Follower", "PromotionReport", "ReplicationError",
           "ShippedWrite"]


class ReplicationError(RuntimeError):
    """A shipped write is torn, out of order, or otherwise unappliable."""


@dataclass(frozen=True)
class ShippedWrite:
    """One committed checkpoint write, packaged for a follower.

    ``manifest`` is the complete post-commit manifest (for a delta, the
    whole chain including the new entry), ``file_bytes`` the one file
    this commit added.  ``source`` identifies the shipper (one per
    worker process) and ``seq`` is its monotonic counter, so a receiver
    can account for per-source delivery; ``shipped_at`` is the commit
    wall-clock time the replication-lag measurement subtracts from.
    """

    tenant_id: str
    kind: str                # "full" | "delta"
    save_id: str
    delta_id: str | None
    tip_id: str
    chain_length: int
    file_name: str
    manifest: dict
    file_bytes: bytes
    source: str = "local"
    seq: int = 0
    shipped_at: float = 0.0

    # ------------------------------------------------------------------
    # Wire form (protocol frame header + blobs)
    # ------------------------------------------------------------------
    def to_frame(self) -> tuple[dict, list[bytes]]:
        header = {"type": "replicate", "tenant": self.tenant_id,
                  "kind": self.kind, "save_id": self.save_id,
                  "delta_id": self.delta_id, "tip_id": self.tip_id,
                  "chain_length": self.chain_length,
                  "file_name": self.file_name, "manifest": self.manifest,
                  "source": self.source, "seq": self.seq,
                  "shipped_at": self.shipped_at}
        return header, [self.file_bytes]

    @classmethod
    def from_frame(cls, header: dict, blobs: list[bytes]) -> "ShippedWrite":
        try:
            return cls(tenant_id=str(header["tenant"]), kind=str(header["kind"]),
                       save_id=str(header["save_id"]),
                       delta_id=header.get("delta_id"),
                       tip_id=str(header["tip_id"]),
                       chain_length=int(header["chain_length"]),
                       file_name=str(header["file_name"]),
                       manifest=dict(header["manifest"]),
                       file_bytes=blobs[0] if blobs else b"",
                       source=str(header.get("source", "remote")),
                       seq=int(header.get("seq", 0)),
                       shipped_at=float(header.get("shipped_at", 0.0)))
        except (KeyError, TypeError, ValueError, IndexError) as error:
            raise ReplicationError(f"malformed replicate frame: {error}") from error


class DeltaShipper:
    """Packages a registry's committed writes for shipping.

    Subscribe with :meth:`attach`; the listener runs on the saving
    thread (synchronously, before the next save of the same tenant can
    begin), reads the just-committed file and manifest, and appends a
    :class:`ShippedWrite` to a thread-safe queue.  The transport drains
    the queue from whatever thread owns the link (:meth:`drain`).
    """

    def __init__(self, source: str = "local"):
        self.source = source
        self._queue: list[ShippedWrite] = []
        self._lock = threading.Lock()
        self._seq = 0
        self.shipped_total = 0
        self._unsubscribe = None

    def attach(self, registry: ModelRegistry) -> "DeltaShipper":
        """Subscribe to ``registry``'s commit events (idempotent-ish:
        call once per shipper)."""
        self._unsubscribe = registry.subscribe(self.on_commit)
        return self

    def detach(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def on_commit(self, tenant_id: str, info: CommitInfo) -> None:
        """Registry listener: package one committed write."""
        directory = Path(info.directory)
        # The saving thread is still inside the registry call, so the
        # manifest and file it just committed cannot be superseded yet.
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        file_bytes = (directory / info.file_name).read_bytes()
        with self._lock:
            self._seq += 1
            write = ShippedWrite(
                tenant_id=tenant_id, kind=info.kind, save_id=info.save_id,
                delta_id=info.delta_id, tip_id=info.tip_id,
                chain_length=info.chain_length, file_name=info.file_name,
                manifest=manifest, file_bytes=file_bytes,
                source=self.source, seq=self._seq, shipped_at=time.time())
            self._queue.append(write)
            self.shipped_total += 1

    def drain(self) -> list[ShippedWrite]:
        """Pop everything queued since the last drain, in commit order."""
        with self._lock:
            out, self._queue = self._queue, []
            return out


@dataclass(frozen=True)
class PromotionReport:
    """Outcome of one standby promotion."""

    tenants: int             # complete checkpoints found on the standby
    compacted: int           # mid-chain tenants compacted to format 2
    seconds: float           # wall-clock promote duration (failover cost)
    chain_lengths: dict      # pre-promotion delta-chain length per tenant

    def as_dict(self) -> dict:
        return {"tenants": self.tenants, "compacted": self.compacted,
                "seconds": self.seconds, "chain_lengths": dict(self.chain_lengths)}


class Follower:
    """Applies shipped writes to a standby registry, then promotes it.

    The standby is a plain :class:`~repro.serve.registry.ModelRegistry`
    directory tree: every applied write leaves it loadable by the
    ordinary checkpoint reader (same nonce and chain validation), so a
    follower crash loses nothing — restart it over the same directory
    and replay; already-applied writes skip idempotently.
    """

    def __init__(self, registry: ModelRegistry | str | Path):
        self.registry = registry if isinstance(registry, ModelRegistry) \
            else ModelRegistry(registry)
        self._lock = threading.Lock()
        self.applied_total = 0
        self.skipped_total = 0
        self.rejected_total = 0
        self.applied_by_source: dict[str, int] = {}
        # Replication lag of the most recently applied write: apply
        # wall-clock minus the shipper's commit stamp (same machine for
        # the in-tree deployment, so the clocks agree).
        self.last_lag_seconds = 0.0
        self.max_lag_seconds = 0.0

    # ------------------------------------------------------------------
    # Applying
    # ------------------------------------------------------------------
    def apply(self, write: ShippedWrite) -> str:
        """Apply one shipped write; returns ``"applied"`` or ``"skipped"``.

        Raises :class:`ReplicationError` — with the standby untouched —
        when the payload is torn (npz nonce mismatch, truncated bytes),
        the manifest does not describe the shipped file, or a delta does
        not chain off the standby's current tip (a gap: the follower
        missed a write and must be re-seeded from a full save).
        """
        with self._lock:
            try:
                outcome = self._apply_locked(write)
            except ReplicationError:
                self.rejected_total += 1
                raise
            if outcome == "applied":
                self.applied_total += 1
                self.applied_by_source[write.source] = \
                    self.applied_by_source.get(write.source, 0) + 1
                if write.shipped_at:
                    lag = max(0.0, time.time() - write.shipped_at)
                    self.last_lag_seconds = lag
                    self.max_lag_seconds = max(self.max_lag_seconds, lag)
            else:
                self.skipped_total += 1
            return outcome

    def _apply_locked(self, write: ShippedWrite) -> str:
        validate_tenant_id(write.tenant_id)
        if write.kind not in ("full", "delta"):
            raise ReplicationError(f"unknown shipped write kind {write.kind!r}")
        manifest = write.manifest
        if manifest.get("save_id") != write.save_id:
            raise ReplicationError(
                f"shipped manifest save_id {manifest.get('save_id')!r} does not "
                f"match the write's {write.save_id!r}")
        directory = self.registry.path_for(write.tenant_id)
        current = self._current_manifest(directory)
        if write.kind == "full":
            return self._apply_full(write, directory, current)
        return self._apply_delta(write, directory, current)

    def _current_manifest(self, directory: Path) -> dict | None:
        if not (directory / MANIFEST_NAME).is_file():
            return None
        try:
            return read_manifest(directory)
        except CheckpointError as error:
            raise ReplicationError(
                f"standby checkpoint at {directory} is unreadable ({error}); "
                "re-seed this tenant from a full save") from error

    @staticmethod
    def _tip(manifest: dict) -> str:
        deltas = manifest.get("deltas", [])
        return deltas[-1]["delta_id"] if deltas else manifest.get("save_id")

    def _nonce(self, write: ShippedWrite, key: str) -> str:
        """The nonce stored inside the shipped npz bytes (torn detection).

        Every member is read (:func:`~repro.serve.checkpoint.read_npz`),
        so a member failing its CRC refuses the write here rather than
        at the standby's first load.
        """
        try:
            arrays = read_npz(io.BytesIO(write.file_bytes))
            nonce = arrays.get(key)
            if nonce is None:
                raise ReplicationError(
                    f"shipped file {write.file_name} carries no {key} nonce")
            return bytes(nonce).decode("ascii")
        except ReplicationError:
            raise
        except Exception as error:  # truncated/corrupt zip, bad CRC, bad header, ...
            raise ReplicationError(
                f"shipped file {write.file_name} is torn or truncated: "
                f"{error}") from error

    def _apply_full(self, write: ShippedWrite, directory: Path,
                    current: dict | None) -> str:
        if manifest_has_deltas(manifest := write.manifest):
            raise ReplicationError(
                f"full write for {write.tenant_id!r} ships a manifest that "
                "still carries a delta chain")
        if manifest.get("arrays_file") != write.file_name:
            raise ReplicationError(
                f"shipped manifest commits {manifest.get('arrays_file')!r} but "
                f"the write carries {write.file_name!r}")
        # Idempotent replay: if the standby already holds this base save
        # (with or without deltas stacked on it), re-applying the full
        # would roll the chain back — skip it instead.
        if current is not None and current.get("save_id") == write.save_id:
            return "skipped"
        if self._nonce(write, _SAVE_ID_KEY) != write.save_id:
            raise ReplicationError(
                f"shipped arrays file {write.file_name} and its manifest come "
                "from different saves (nonce mismatch)")
        directory.mkdir(parents=True, exist_ok=True)
        # Same commit discipline as the writer: file first, manifest
        # second (the commit point), superseded files deleted last.
        _replace_into(directory, write.file_name,
                      lambda handle: handle.write(write.file_bytes))
        _write_manifest(directory, manifest)
        for stale in directory.glob(f"{ARRAYS_PREFIX}*{ARRAYS_SUFFIX}"):
            if stale.name != write.file_name:
                stale.unlink(missing_ok=True)
        for stale in directory.glob(f"{DELTA_PREFIX}*{DELTA_SUFFIX}"):
            stale.unlink(missing_ok=True)
        return "applied"

    def _apply_delta(self, write: ShippedWrite, directory: Path,
                     current: dict | None) -> str:
        manifest = write.manifest
        deltas = manifest.get("deltas") or []
        if not deltas:
            raise ReplicationError(
                f"delta write for {write.tenant_id!r} ships a manifest with no "
                "delta chain")
        entry = deltas[-1]
        if entry.get("delta_id") != write.delta_id \
                or entry.get("file") != write.file_name:
            raise ReplicationError(
                f"shipped manifest's newest delta entry "
                f"({entry.get('delta_id')!r}, {entry.get('file')!r}) does not "
                f"describe the shipped write ({write.delta_id!r}, "
                f"{write.file_name!r})")
        if current is None:
            raise ReplicationError(
                f"standby has no checkpoint for {write.tenant_id!r}; a delta "
                "cannot seed a tenant — re-seed from a full save")
        if current.get("save_id") != write.save_id:
            raise ReplicationError(
                f"delta for {write.tenant_id!r} chains off base save "
                f"{write.save_id!r} but the standby holds "
                f"{current.get('save_id')!r}; re-seed from a full save")
        tip = self._tip(current)
        if tip == write.delta_id or any(d.get("delta_id") == write.delta_id
                                        for d in current.get("deltas", [])):
            return "skipped"       # idempotent replay
        if entry.get("parent") != tip:
            raise ReplicationError(
                f"delta for {write.tenant_id!r} chains off {entry.get('parent')!r} "
                f"but the standby tip is {tip!r}; the follower missed a write — "
                "re-seed from a full save")
        if self._nonce(write, _DELTA_ID_KEY) != write.delta_id:
            raise ReplicationError(
                f"shipped delta file {write.file_name} and its manifest entry "
                "come from different writes (nonce mismatch)")
        _replace_into(directory, write.file_name,
                      lambda handle: handle.write(write.file_bytes))
        _write_manifest(directory, manifest)
        return "applied"

    # ------------------------------------------------------------------
    # Promotion and introspection
    # ------------------------------------------------------------------
    def promote(self) -> PromotionReport:
        """Turn the standby into a serving primary; returns the report.

        Every tenant whose checkpoint is still mid-chain (format 3) is
        loaded — which replays and validates the chain — and compacted
        to a plain format-2 checkpoint, so the promoted registry serves
        with zero replay debt and any orphaned delta files are swept.
        Tenants already at format 2 are left byte-identical.  The
        report's ``seconds`` is the whole promotion wall-clock: that is
        the failover time a runbook budgets for.
        """
        start = time.perf_counter()
        chain_lengths: dict[str, int] = {}
        compacted = 0
        tenants = self.registry.tenants()
        for tenant_id in tenants:
            directory = self.registry.path_for(tenant_id)
            manifest = read_manifest(directory)
            chain = len(manifest.get("deltas", []))
            chain_lengths[tenant_id] = chain
            if chain == 0:
                continue
            model, manifest = load_checkpoint_with_manifest(directory)
            save_checkpoint(model, directory,
                            metadata=manifest.get("metadata", {}),
                            spec=spec_from_manifest(manifest))
            compacted += 1
        return PromotionReport(tenants=len(tenants), compacted=compacted,
                               seconds=time.perf_counter() - start,
                               chain_lengths=chain_lengths)

    def stats(self) -> dict:
        with self._lock:
            return {"applied": self.applied_total, "skipped": self.skipped_total,
                    "rejected": self.rejected_total,
                    "applied_by_source": dict(self.applied_by_source),
                    "last_lag_seconds": self.last_lag_seconds,
                    "max_lag_seconds": self.max_lag_seconds}

    def lag_seconds(self) -> float:
        """Replication lag of the most recently applied write."""
        with self._lock:
            return self.last_lag_seconds


def manifest_has_deltas(manifest: dict) -> bool:
    return bool(manifest.get("deltas"))
