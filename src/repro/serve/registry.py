"""Per-tenant checkpoint store rooted at one directory.

Layout: ``root/<tenant_id>/`` is one checkpoint directory (see
:mod:`repro.serve.checkpoint`).  Tenant ids are restricted to a safe
character set so an id can never escape the root or collide with the
registry's own temp files.  All writes inherit the checkpoint module's
crash-safe semantics: ``save`` over an existing tenant commits by an
atomic manifest swap, so a concurrent ``load`` (or a crash mid-save)
sees either the old or the new complete checkpoint, never a chimera.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.serve.checkpoint import (
    MANIFEST_NAME,
    CheckpointError,
    CommitInfo,
    StateBaseline,
    last_commit,
    load_checkpoint_with_baseline,
    load_checkpoint_with_manifest,
    read_manifest,
    save_checkpoint,
    save_incremental,
)

__all__ = ["ModelRegistry", "QUARANTINE_METADATA_KEY", "RESERVOIR_METADATA_KEY",
           "validate_tenant_id"]

_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")

# Checkpoint-metadata key the fleet stores its per-tenant inlier
# reservoir under, as columnar record arrays the checkpoint keeps in its
# npz.  Serve-internal: :meth:`ModelRegistry.metadata` strips it so user
# metadata round-trips clean; :meth:`ModelRegistry.load_with_manifest`
# returns it.
RESERVOIR_METADATA_KEY = "fleet_reservoir"

# Same contract for the quarantine buffer (rejected-but-home-anchored
# recovery evidence, see repro.serve.quarantine): persisted next to the
# reservoir, stripped from user metadata the same way.
QUARANTINE_METADATA_KEY = "fleet_quarantine"


def validate_tenant_id(tenant_id: str) -> str:
    """Return ``tenant_id`` if it is registry-safe, else raise ValueError."""
    if not isinstance(tenant_id, str) or not _TENANT_RE.match(tenant_id):
        raise ValueError(
            f"invalid tenant id {tenant_id!r}: must be 1-128 chars of "
            "[A-Za-z0-9._-] starting with an alphanumeric")
    return tenant_id


class ModelRegistry:
    """Stores one checkpoint per tenant under a root directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Commit listeners: callables invoked synchronously, on the
        # saving thread, right after each committed write.  The caller
        # that serialises saves per tenant (the fleet lock) therefore
        # also serialises what the listener observes, so a listener may
        # safely read the just-committed files before the next save.
        self._listeners: list = []

    def path_for(self, tenant_id: str) -> Path:
        """The checkpoint directory a tenant's model lives in."""
        return self.root / validate_tenant_id(tenant_id)

    # ------------------------------------------------------------------
    # Commit events (the replication hook)
    # ------------------------------------------------------------------
    def subscribe(self, listener) -> "callable":
        """Call ``listener(tenant_id, CommitInfo)`` after every commit.

        Fires for full and delta saves alike (a provision, flush,
        eviction write-back or compaction all commit through here);
        returns an unsubscribe callable.  Listeners run on the saving
        thread — keep them cheap, or hand off to a queue.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass
        return unsubscribe

    def _notify(self, tenant_id: str) -> None:
        if not self._listeners:
            return
        info = last_commit()
        if info is None:  # pragma: no cover - save paths always note commits
            return
        for listener in list(self._listeners):
            listener(tenant_id, info)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def save(self, tenant_id: str, model, metadata: dict | None = None) -> Path:
        """Checkpoint ``model`` as ``tenant_id``'s current model."""
        path = save_checkpoint(model, self.path_for(tenant_id), metadata=metadata)
        self._notify(tenant_id)
        return path

    def save_incremental(self, tenant_id: str, model,
                         baseline: StateBaseline | None,
                         metadata: dict | None = None,
                         ) -> tuple[str, StateBaseline]:
        """Write-back via the incremental format when a delta suffices.

        Returns ``("delta" | "full", new_baseline)``; see
        :func:`repro.serve.checkpoint.save_incremental`.
        """
        result = save_incremental(model, self.path_for(tenant_id), baseline,
                                  metadata=metadata)
        self._notify(tenant_id)
        return result

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def exists(self, tenant_id: str) -> bool:
        return (self.path_for(tenant_id) / MANIFEST_NAME).is_file()

    def load(self, tenant_id: str):
        """Reconstruct the tenant's fitted model (raises if absent/torn)."""
        model, _ = self.load_with_manifest(tenant_id)
        return model

    def load_with_manifest(self, tenant_id: str) -> tuple:
        """``(model, manifest)`` from one read, so the pair is coherent."""
        path = self.path_for(tenant_id)
        if not self.exists(tenant_id):
            raise CheckpointError(f"tenant {tenant_id!r} has no checkpoint under {self.root}")
        return load_checkpoint_with_manifest(path)

    def load_with_baseline(self, tenant_id: str) -> tuple:
        """``(model, manifest, baseline)`` for incremental write-back."""
        path = self.path_for(tenant_id)
        if not self.exists(tenant_id):
            raise CheckpointError(f"tenant {tenant_id!r} has no checkpoint under {self.root}")
        return load_checkpoint_with_baseline(path)

    def tenants(self) -> list[str]:
        """Sorted ids of every tenant with a complete checkpoint."""
        out = []
        for entry in self.root.iterdir():
            if entry.is_dir() and (entry / MANIFEST_NAME).is_file() and _TENANT_RE.match(entry.name):
                out.append(entry.name)
        return sorted(out)

    def __contains__(self, tenant_id: str) -> bool:
        try:
            return self.exists(tenant_id)
        except ValueError:
            return False

    def __len__(self) -> int:
        return len(self.tenants())
