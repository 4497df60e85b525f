"""Versioned on-disk checkpoints for fitted geofencing pipelines.

A checkpoint is a directory holding two files:

``arrays-<save_id>.npz``
    Every numpy array of the model's (nested) ``state_dict``, stored
    under its flattened key path (``"embedder/graph/edge_weights"``).
``manifest.json``
    Format version, model class, the declarative pipeline spec the
    model was built from, library version, user metadata, the name of
    the arrays file it commits, and every non-array leaf of the state
    under the same flattened keys.

Numpy arrays inside the save ``metadata`` are stored in the npz too,
under ``__metadata__/`` plus their key path, and come back in
``manifest["metadata"]`` on load; the manifest keeps only the JSON
leaves.

The split keeps the format language-neutral and diffable: the manifest
is plain JSON you can read with any tool, and the arrays are standard
npz.  Saves are crash-safe: the arrays are written under a fresh
per-save name, then the manifest — the single commit point — is
swapped in with ``os.replace``, and only then are superseded arrays
files deleted.  A crash at any step leaves the previous complete
checkpoint loadable; both files also carry the save nonce so a
manually mixed pair is rejected as torn.

Version history: format 1 only ever held :class:`GEM` models and
carried no spec; it is no longer read (loading one raises
:class:`CheckpointError` naming the version).  Format 2 embeds the
``pipeline_spec`` so *any* registered arm round-trips.  Format 3 (the
**incremental** extension) is format 2 plus a ``deltas`` chain in the
manifest: each entry names a ``delta-<id>.npz`` file of
append-tails / replacements / removals against the state the previous
entry produced, so a write-back whose heavy arrays only *grew* (the
histogram detector's training set, which every self-update appends to)
costs the tail, not the model.  The graph and the embedding caches do
not change between fits, so an observe-only delta carries no embedder
array at all.  A full save compacts the chain back to
a plain format-2 checkpoint; format-2 checkpoints load unchanged.

Incremental crash safety extends the full-save story: the delta file is
written first (same temp-file + ``os.replace`` + directory fsync), the
manifest rewrite is the single commit point, and every delta carries a
nonce that must match its manifest entry while each entry names its
parent write — so a crash before the manifest commit leaves an orphan
delta file the loader never reads (the torn tail), and a manually
spliced or truncated chain is rejected as torn rather than replayed.

User metadata is committed by *every* save — full and delta alike —
so sidecar state the fleet keeps there (the ``fleet_reservoir`` inlier
reservoir and the ``fleet_quarantine`` recovery buffer, see
:mod:`repro.serve.fleet` / :mod:`repro.serve.quarantine`) is always
exactly as fresh as the commit point, with no separate persistence path
to tear against the model.  Its record sets are columnar arrays
(:func:`repro.core.io.records_to_columns`), diffed with the state like
any other array: a delta carries the grown tail of the recent window,
never the unchanged anchor.  The JSON leaves (counters, home MACs, user
keys) are rewritten with the manifest on every save.

Every npz (arrays file, delta file, a standby's shipped file) is read by
:func:`read_npz`, which makes the checks ``np.load`` makes without its
per-member ``ast.literal_eval`` of the header.
"""

from __future__ import annotations

import ast
import functools
import io
import json
import math
import os
import re
import tempfile
import threading
import time
import uuid
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import __version__
from repro.pipeline import PipelineSpec, build_pipeline, infer_spec

__all__ = [
    "CHECKPOINT_VERSION",
    "INCREMENTAL_VERSION",
    "SUPPORTED_VERSIONS",
    "MANIFEST_NAME",
    "ARRAYS_PREFIX",
    "ARRAYS_SUFFIX",
    "DELTA_PREFIX",
    "DELTA_SUFFIX",
    "MAX_DELTA_CHAIN",
    "MAX_DELTA_FRACTION",
    "CheckpointError",
    "CommitInfo",
    "StateBaseline",
    "WriteStats",
    "last_commit",
    "last_write",
    "flatten_state",
    "unflatten_state",
    "save_checkpoint",
    "save_incremental",
    "load_checkpoint",
    "load_checkpoint_with_manifest",
    "load_checkpoint_with_baseline",
    "load_state",
    "read_manifest",
    "read_npz",
    "spec_from_manifest",
]

CHECKPOINT_VERSION = 2
# Format version stamped while a manifest carries an uncompacted delta
# chain; a full save compacts back down to CHECKPOINT_VERSION.  Readers
# that predate the incremental format refuse version 3 outright instead
# of silently serving the base state without its deltas.
INCREMENTAL_VERSION = 3
SUPPORTED_VERSIONS = (CHECKPOINT_VERSION, INCREMENTAL_VERSION)
MANIFEST_NAME = "manifest.json"
ARRAYS_PREFIX = "arrays-"
ARRAYS_SUFFIX = ".npz"
DELTA_PREFIX = "delta-"
DELTA_SUFFIX = ".npz"

# Compaction cadence: after this many chained deltas the next write is a
# full save, bounding both replay work on load and chain-validation cost.
MAX_DELTA_CHAIN = 4
# A delta whose stored arrays exceed this fraction of the full state's
# bytes is not worth the chain bookkeeping (e.g. a re-provisioned model
# where everything changed): write a compacting full save instead.
MAX_DELTA_FRACTION = 0.9

_SEP = "/"
# Reserved npz entry holding the save nonce (also recorded in the
# manifest).  Array *names* are structural and identical across saves of
# the same model, so matching key sets cannot prove the two files come
# from the same save; matching nonces can.
_SAVE_ID_KEY = "__save_id__"
# Same role for delta files: the npz nonce must match the manifest
# entry's delta_id or the pair is rejected as spliced.
_DELTA_ID_KEY = "__delta_id__"
# Npz key prefix of the arrays found inside save metadata.
_METADATA_PREFIX = "__metadata__" + _SEP

# Options removed from the pipeline, by where earlier releases saved
# them.  Those releases wrote them into every GEM/BiSAGE/GraphSAGE
# checkpoint at their off value; ``read_manifest`` drops them, and
# refuses a checkpoint that had one switched on, which would otherwise
# load with different decisions than it was saved with.
_REMOVED_SPEC_PARAMS = (("model", "refresh_cache_every"), ("embedder", "refresh_every"))
_REMOVED_LEAVES = ("config/refresh_cache_every", "embedder/refresh_every")
_REMOVED_COUNTER = "embedder/observed_since_refresh"
_REMOVED_ADMISSIONS = "embedder/model/macs_admitted"


class CheckpointError(RuntimeError):
    """A checkpoint is missing, torn, or structurally invalid."""


@dataclass(frozen=True)
class WriteStats:
    """Accounting for the most recent committed save on this thread.

    ``kind`` is ``"full"`` or ``"delta"``; ``bytes_written`` counts the
    arrays/delta file plus the manifest rewrite; ``chain_length`` is the
    delta-chain length *after* the save (0 for a compacting full save).
    Recorded thread-locally — saves happen on the calling thread, so a
    caller reading :func:`last_write` immediately after a save sees its
    own write even with concurrent fleets in other threads.
    """

    kind: str
    bytes_written: int
    chain_length: int


@dataclass(frozen=True)
class CommitInfo:
    """Identity of the most recent committed save on this thread.

    Where :class:`WriteStats` answers "how expensive was the write",
    ``CommitInfo`` answers "*which* write committed": the save/delta ids,
    the file the commit added, and the directory it landed in — exactly
    what a replication shipper needs to package the committed entry for
    a follower.  ``tip_id`` is the chain tip after the commit (equal to
    ``save_id`` for a full save, to ``delta_id`` for a delta).
    """

    kind: str                # "full" | "delta"
    directory: str           # checkpoint directory the commit landed in
    save_id: str             # id of the base full save the chain hangs off
    delta_id: str | None     # id of the committed delta (None for a full save)
    tip_id: str              # chain tip after this commit
    chain_length: int        # committed deltas after this write
    file_name: str           # the arrays-*/delta-* file this commit added


_LAST_WRITE = threading.local()


def _note_write(kind: str, bytes_written: int, chain_length: int) -> None:
    _LAST_WRITE.stats = WriteStats(kind, bytes_written, chain_length)


def _note_commit(info: CommitInfo) -> None:
    _LAST_WRITE.commit = info


def last_write() -> WriteStats | None:
    """The calling thread's most recent save accounting, if any."""
    return getattr(_LAST_WRITE, "stats", None)


def last_commit() -> CommitInfo | None:
    """The calling thread's most recent commit identity, if any.

    This is the committed-write event hook the replication layer hangs
    off: a caller that just ran :func:`save_checkpoint` /
    :func:`save_incremental` (directly or through a registry) reads back
    which file the commit added and where the chain tip moved to.
    """
    return getattr(_LAST_WRITE, "commit", None)


# ----------------------------------------------------------------------
# State-tree flattening
# ----------------------------------------------------------------------
def flatten_state(state: dict, prefix: str = "") -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Split a nested state dict into (arrays, JSON-safe leaves).

    Dicts are structure and are recursed into; numpy arrays become npz
    entries; everything else (scalars, strings, bools, lists of
    scalars) becomes a manifest leaf.  Keys must not contain ``"/"``.
    """
    arrays: dict[str, np.ndarray] = {}
    leaves: dict[str, Any] = {}
    for key, value in state.items():
        key = str(key)
        if _SEP in key:
            raise ValueError(f"state keys must not contain {_SEP!r}: {key!r}")
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            sub_arrays, sub_leaves = flatten_state(value, prefix=path + _SEP)
            arrays.update(sub_arrays)
            leaves.update(sub_leaves)
        elif isinstance(value, np.ndarray):
            arrays[path] = value
        else:
            leaves[path] = _json_safe(value)
    return arrays, leaves


def unflatten_state(arrays: dict[str, np.ndarray], leaves: dict[str, Any]) -> dict:
    """Rebuild the nested state dict from flattened arrays + leaves."""
    state: dict = {}
    for path, value in list(leaves.items()) + list(arrays.items()):
        parts = path.split(_SEP)
        node = state
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise CheckpointError(f"key {path!r} descends through a non-dict entry")
        node[parts[-1]] = value
    return state


def _split_metadata(metadata: dict, prefix: str = _METADATA_PREFIX
                    ) -> tuple[dict, dict[str, np.ndarray]]:
    """``(json_metadata, arrays)``: numpy arrays anywhere in the nested
    dicts of save metadata become npz entries keyed ``prefix`` + key path.

    A dict left empty by the move is dropped from the JSON side, so the
    manifest never shows skeletons of what the npz holds.
    """
    leaves: dict = {}
    arrays: dict[str, np.ndarray] = {}
    for key, value in metadata.items():
        key = str(key)
        if isinstance(value, dict):
            sub_leaves, sub_arrays = _split_metadata(value, prefix + key + _SEP)
            if sub_leaves or not sub_arrays:
                leaves[key] = sub_leaves
        elif isinstance(value, np.ndarray):
            if value.dtype.hasobject:
                raise ValueError(f"metadata array {key!r} has object dtype")
            sub_arrays = {prefix + key: value}
        else:
            leaves[key] = _json_safe(value)
            continue
        if sub_arrays and _SEP in key:
            raise ValueError(f"metadata keys holding arrays must not contain "
                             f"{_SEP!r}: {key!r}")
        arrays.update(sub_arrays)
    return leaves, arrays


def _attach_metadata(manifest: dict, arrays: dict[str, np.ndarray]
                     ) -> dict[str, np.ndarray]:
    """Inverse of :func:`_split_metadata` on a loaded checkpoint.

    Moves the metadata arrays into ``manifest["metadata"]`` in place and
    returns the remaining (state) arrays.
    """
    metadata = manifest.setdefault("metadata", {})
    state: dict[str, np.ndarray] = {}
    for key, value in arrays.items():
        if not key.startswith(_METADATA_PREFIX):
            state[key] = value
            continue
        *parents, name = key[len(_METADATA_PREFIX):].split(_SEP)
        node = metadata
        for part in parents:
            node = node.setdefault(part, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise CheckpointError(f"metadata array {key!r} descends through a "
                                  "non-dict entry")
        node[name] = value
    return state


def _json_safe(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"state leaf of type {type(value).__name__} is not JSON-serialisable")


# ----------------------------------------------------------------------
# Incremental baselines and diffs
# ----------------------------------------------------------------------
@dataclass
class StateBaseline:
    """In-memory image of a tenant's last *committed* write.

    ``save_incremental`` diffs the model's current flattened state
    against this image to decide what a delta must carry.  The arrays
    are isolated copies: live models mutate their arrays in place (the
    histogram detector's update does), and a baseline aliasing live
    memory would diff as "unchanged" and silently lose that state.
    """

    save_id: str        # id of the base full save the chain hangs off
    tip_id: str         # id of the most recent committed write
    chain_length: int   # committed deltas since the base full save
    arrays: dict[str, np.ndarray]
    leaves: dict[str, Any]

    @classmethod
    def capture(cls, save_id: str, tip_id: str, chain_length: int,
                arrays: dict[str, np.ndarray], leaves: dict[str, Any]) -> "StateBaseline":
        return cls(save_id=save_id, tip_id=tip_id, chain_length=chain_length,
                   arrays={k: np.array(v, copy=True) for k, v in arrays.items()
                           if k != _SAVE_ID_KEY},
                   leaves=json.loads(json.dumps(leaves)))


def _arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise-intent equality: NaN == NaN for float arrays.

    Plain ``np.array_equal`` treats a NaN-bearing array as unequal to
    itself, which would make every delta re-store it as "changed";
    ``equal_nan`` is only legal for inexact dtypes, hence the guard.
    """
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    equal_nan = np.issubdtype(a.dtype, np.inexact)
    return bool(np.array_equal(a, b, equal_nan=equal_nan))


def _is_append(old: np.ndarray, new: np.ndarray) -> bool:
    """True when ``new`` is ``old`` plus rows appended along axis 0."""
    return (old.ndim == new.ndim and old.ndim >= 1
            and old.shape[1:] == new.shape[1:]
            and new.shape[0] > old.shape[0]
            and old.dtype == new.dtype
            and _arrays_equal(new[: old.shape[0]], old))


def _diff_state(baseline: StateBaseline, arrays: dict[str, np.ndarray],
                leaves: dict[str, Any]) -> tuple[dict[str, np.ndarray], dict]:
    """Ops needed to turn the baseline state into the current one.

    Returns ``(stored_arrays, entry)`` where ``entry`` is the manifest
    delta entry (sans id/file bookkeeping): ``append``/``replace``/
    ``remove`` key lists for arrays, plus changed/removed leaves.
    """
    stored: dict[str, np.ndarray] = {}
    append: list[str] = []
    replace: list[str] = []
    for key, value in arrays.items():
        old = baseline.arrays.get(key)
        if old is None:
            replace.append(key)
            stored[key] = value
        elif _is_append(old, value):
            append.append(key)
            stored[key] = value[old.shape[0]:]
        elif not _arrays_equal(old, value):
            replace.append(key)
            stored[key] = value
    removed = sorted(set(baseline.arrays) - set(arrays))
    new_leaves = {key: value for key, value in leaves.items()
                  if key not in baseline.leaves or baseline.leaves[key] != value}
    removed_leaves = sorted(set(baseline.leaves) - set(leaves))
    entry = {"append": sorted(append), "replace": sorted(replace),
             "remove": removed, "leaves": new_leaves,
             "removed_leaves": removed_leaves}
    return stored, entry


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------
def _fsync_dir(directory: Path) -> None:
    """Flush directory entries (renames/unlinks) to stable storage.

    Best effort: directories cannot be opened on some platforms
    (Windows); there the rename is as durable as the OS makes it.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _replace_into(directory: Path, name: str, writer) -> None:
    """Write a file via a same-directory temp file + atomic os.replace.

    The directory is fsynced after the rename so a power loss cannot
    reorder a later unlink ahead of this commit.
    """
    fd, tmp_name = tempfile.mkstemp(prefix=f".{name}.", dir=directory)
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            writer(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, directory / name)
        _fsync_dir(directory)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_manifest(directory: Path, manifest: dict) -> None:
    """Commit ``manifest`` as the directory's manifest: compact, keys sorted.

    The one manifest encoder: the writer and a replication standby both
    commit through it, so a standby's manifest is byte-equal to the
    primary's.
    """
    _replace_into(directory, MANIFEST_NAME,
                  lambda h: h.write(json.dumps(manifest, sort_keys=True).encode()))


def _flatten_model(model, spec: PipelineSpec | None, metadata: dict | None):
    """Shared save-path preamble: spec, flattened and validated state
    (metadata arrays included), and the JSON side of the metadata."""
    spec = spec if spec is not None else infer_spec(model)
    spec.require_state_dict()
    arrays, leaves = flatten_state(model.state_dict())
    if _SAVE_ID_KEY in arrays or _DELTA_ID_KEY in arrays \
            or any(key.startswith(_METADATA_PREFIX) for key in arrays):
        raise ValueError(f"state must not use the reserved keys "
                         f"{_SAVE_ID_KEY!r} / {_DELTA_ID_KEY!r} / {_METADATA_PREFIX!r}")
    metadata, metadata_arrays = _split_metadata(metadata or {})
    arrays.update(metadata_arrays)
    return spec, arrays, leaves, metadata


def _write_full(model, directory: Path, arrays: dict[str, np.ndarray],
                leaves: dict[str, Any], spec: PipelineSpec, metadata: dict) -> str:
    """Commit a full (compacting) save; returns its save_id."""
    save_id = uuid.uuid4().hex
    arrays = dict(arrays)
    arrays[_SAVE_ID_KEY] = np.frombuffer(save_id.encode("ascii"), dtype=np.uint8).copy()
    arrays_name = f"{ARRAYS_PREFIX}{save_id}{ARRAYS_SUFFIX}"
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model_class": type(model).__name__,
        "pipeline_spec": spec.to_dict(),
        "repro_version": __version__,
        # Integer nanoseconds: fixed width (unlike a float's repr), so
        # identical runs write identical byte counts.
        "saved_at": time.time_ns(),
        "save_id": save_id,
        "arrays_file": arrays_name,
        "array_keys": sorted(arrays),
        "metadata": metadata,
        "state": leaves,
    }
    _replace_into(directory, arrays_name, lambda h: np.savez(h, **arrays))
    _write_manifest(directory, manifest)
    _note_write("full", (directory / arrays_name).stat().st_size
                + (directory / MANIFEST_NAME).stat().st_size, 0)
    _note_commit(CommitInfo(kind="full", directory=str(directory),
                            save_id=save_id, delta_id=None, tip_id=save_id,
                            chain_length=0, file_name=arrays_name))
    # Post-commit cleanup: drop arrays/delta files no manifest references
    # (a full save compacts any delta chain) and dot-prefixed temp files
    # orphaned by earlier crashed saves (safe under the
    # single-writer-per-directory assumption).
    for stale in directory.glob(f"{ARRAYS_PREFIX}*{ARRAYS_SUFFIX}"):
        if stale.name != arrays_name:
            stale.unlink(missing_ok=True)
    for stale in directory.glob(f"{DELTA_PREFIX}*{DELTA_SUFFIX}"):
        stale.unlink(missing_ok=True)
    for orphan in (list(directory.glob(f".{ARRAYS_PREFIX}*"))
                   + list(directory.glob(f".{DELTA_PREFIX}*"))
                   + list(directory.glob(f".{MANIFEST_NAME}.*"))):
        orphan.unlink(missing_ok=True)
    return save_id


def save_checkpoint(model, directory: str | Path, metadata: dict | None = None,
                    spec: PipelineSpec | None = None) -> Path:
    """Persist a fitted model's ``state_dict`` under ``directory``.

    ``model`` must expose ``state_dict()``; the manifest embeds the
    model's :class:`~repro.pipeline.spec.PipelineSpec` (the one stamped
    by ``build_pipeline``, the explicit ``spec=`` argument, or one
    inferred for the hand-constructed built-ins) so loading can rebuild
    the exact arm without knowing its class.  ``metadata`` is JSON
    leaves plus, anywhere in its nested dicts, numpy arrays, which are
    stored in the npz.  Returns the checkpoint directory.  Overwriting an existing checkpoint never destroys it:
    the new arrays land under a fresh name, the manifest swap is the
    atomic commit, and the superseded arrays (and any delta chain this
    save compacts) are only deleted after the commit — a crash anywhere
    leaves the previous (or the new) complete checkpoint loadable.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    spec, arrays, leaves, metadata = _flatten_model(model, spec, metadata)
    _write_full(model, directory, arrays, leaves, spec, metadata)
    return directory


def save_incremental(model, directory: str | Path, baseline: StateBaseline | None,
                     metadata: dict | None = None, spec: PipelineSpec | None = None
                     ) -> tuple[str, StateBaseline]:
    """Write the cheapest sufficient save: a delta when possible.

    Diffs the model's current state against ``baseline`` (the image of
    the last committed write, from :func:`load_checkpoint_with_baseline`
    or a previous ``save_incremental``) and appends a
    ``delta-<id>.npz`` + manifest entry when the change is small —
    append-tails for arrays that only grew, replacements for the few
    that didn't.  Falls back to a full compacting save when there is no
    usable baseline, the chain has reached :data:`MAX_DELTA_CHAIN`, the
    on-disk tip no longer matches the baseline (an out-of-band writer),
    or the delta would store more than :data:`MAX_DELTA_FRACTION` of the
    full state's array bytes (e.g. after a re-provision).

    Returns ``("delta" | "full", new_baseline)``.  Either way the
    caller's next diff is against exactly what this call committed.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    spec, arrays, leaves, metadata = _flatten_model(model, spec, metadata)

    def full() -> tuple[str, StateBaseline]:
        save_id = _write_full(model, directory, arrays, leaves, spec, metadata)
        return "full", StateBaseline.capture(save_id, save_id, 0, arrays, leaves)

    if baseline is None or baseline.chain_length >= MAX_DELTA_CHAIN:
        return full()
    try:
        manifest = read_manifest(directory)
    except CheckpointError:
        return full()
    deltas = manifest.get("deltas", [])
    tip = deltas[-1]["delta_id"] if deltas else manifest.get("save_id")
    if manifest.get("save_id") != baseline.save_id or tip != baseline.tip_id:
        # The directory moved under us (external writer / manual edit):
        # the baseline no longer describes the on-disk state, so a delta
        # against it would corrupt the chain.  Compact instead.
        return full()
    if manifest.get("pipeline_spec") != spec.to_dict():
        # The arm itself changed (it shouldn't without a re-provision,
        # which replaces every array anyway): deltas only patch state,
        # never the spec, so compact.
        return full()
    stored, entry = _diff_state(baseline, arrays, leaves)
    full_bytes = sum(value.nbytes for value in arrays.values())
    delta_bytes = sum(value.nbytes for value in stored.values())
    if full_bytes and delta_bytes > MAX_DELTA_FRACTION * full_bytes:
        return full()
    delta_id = uuid.uuid4().hex
    delta_name = f"{DELTA_PREFIX}{delta_id}{DELTA_SUFFIX}"
    stored = dict(stored)
    stored[_DELTA_ID_KEY] = np.frombuffer(delta_id.encode("ascii"), dtype=np.uint8).copy()
    entry.update({"delta_id": delta_id, "parent": tip, "file": delta_name,
                  "saved_at": time.time_ns()})
    manifest["deltas"] = deltas + [entry]
    manifest["format_version"] = INCREMENTAL_VERSION
    manifest["metadata"] = metadata
    manifest["saved_at"] = entry["saved_at"]
    # Delta file first, manifest second: the manifest rewrite is the
    # commit point, so a crash in between leaves an orphan delta file
    # the loader never reads (cleaned up at the next full save).
    _replace_into(directory, delta_name, lambda h: np.savez(h, **stored))
    _write_manifest(directory, manifest)
    _note_write("delta", (directory / delta_name).stat().st_size
                + (directory / MANIFEST_NAME).stat().st_size,
                len(manifest["deltas"]))
    _note_commit(CommitInfo(kind="delta", directory=str(directory),
                            save_id=baseline.save_id, delta_id=delta_id,
                            tip_id=delta_id, chain_length=len(manifest["deltas"]),
                            file_name=delta_name))
    return "delta", StateBaseline.capture(baseline.save_id, delta_id,
                                          baseline.chain_length + 1, arrays, leaves)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def read_manifest(directory: str | Path) -> dict:
    """Read and validate the manifest of a checkpoint directory."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise CheckpointError(f"no checkpoint at {directory} (missing {MANIFEST_NAME})")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise CheckpointError(f"{manifest_path}: corrupt manifest: {error}") from error
    version = manifest.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
        raise CheckpointError(f"{manifest_path}: format version {version!r} is not "
                              f"supported (this build reads versions {supported})")
    _drop_removed_options(manifest, manifest_path)
    return manifest


def _drop_removed_options(manifest: dict, manifest_path: Path) -> None:
    """Normalise, in place, the keys of options this release removed.

    The raw auto-refresh (``refresh_cache_every`` / ``refresh_every``)
    and its streaming counter, and MAC admission at refresh (the
    ``macs_admitted`` array written under ``admit_new_macs_after``).
    Zero values are dropped; a switched-on option is refused.
    """
    def drop(mapping, key: str) -> None:
        value = mapping.pop(key, 0) if isinstance(mapping, dict) else 0
        if value:
            raise CheckpointError(
                f"{manifest_path}: saved with {key.rsplit(_SEP, 1)[-1]}={value!r}, "
                "but the raw auto-refresh was removed; it would load with different "
                "decisions (re-provision the tenant instead)")

    spec = manifest.get("pipeline_spec")
    for part, key in _REMOVED_SPEC_PARAMS:
        component = spec.get(part) if isinstance(spec, dict) else None
        drop(component.get("params") if isinstance(component, dict) else None, key)
    deltas = [entry for entry in manifest.get("deltas", []) if isinstance(entry, dict)]
    for leaves in [manifest.get("state")] + [entry.get("leaves") for entry in deltas]:
        for key in _REMOVED_LEAVES:
            drop(leaves, key)
        if isinstance(leaves, dict):
            leaves.pop(_REMOVED_COUNTER, None)
    written = set(manifest.get("array_keys", []))
    for entry in deltas:
        written |= set(entry.get("append", [])) | set(entry.get("replace", []))
    # Earlier releases wrote this array only when at least one MAC was
    # admitted, so its presence means admission was switched on.
    if _REMOVED_ADMISSIONS in written:
        raise CheckpointError(
            f"{manifest_path}: saved with MACs admitted past the trained universe "
            "(macs_admitted, from admit_new_macs_after), but MAC admission was "
            "removed; it would load with different decisions (re-provision the "
            "tenant instead)")


def read_npz(source) -> dict[str, np.ndarray]:
    """Every array of one ``.npz`` archive (a path or a binary file).

    The checkpoint's one npz reader.  Equal to ``np.load`` with
    ``allow_pickle=False`` in dtype, shape, values and writability, and
    refuses (ValueError, or ``zipfile.BadZipFile`` for a corrupt
    archive or a member failing its CRC) whatever it refuses: bad
    magic or version, a malformed header, an object dtype, a member
    shorter than its shape.  What it saves is the header parse: numpy
    runs ``ast.literal_eval`` on every member header, this reads the
    headers ``np.save`` writes with one regular expression, parses the
    shape as a strict integer tuple and looks the dtype up in a small
    cache keyed on the header without its shape (row counts change at
    every save, dtypes do not).  Any header it does not recognise goes
    to numpy's own reader.
    """
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(source) as archive:
        for info in archive.infolist():
            if not info.filename.endswith(".npy"):
                raise ValueError(f"member {info.filename!r} is not a .npy array")
            arrays[info.filename[:-4]] = _npy_array(archive.read(info))
    return arrays


# A v1.0 header exactly as ``np.save`` writes it (keys in sorted order,
# space padding, newline), split into the dtype text and the shape.
_NPY_HEADER = re.compile(r"\{'descr': (?P<descr>.+), 'fortran_order': (?P<fortran>True|False), "
                         r"'shape': \((?P<shape>[0-9, ]*)\), \} *\n")
# Distinct dtypes a reader meets (a handful per model arm); the bound
# only caps what odd archives can add.
_HEADER_CACHE_SIZE = 256
# np.load's default ``max_header_size``: a longer header is left to
# numpy, which refuses it rather than literal_eval it.
_MAX_HEADER_SIZE = 10_000


def _npy_array(data: bytes) -> np.ndarray:
    """One ``.npy`` member's array (see :func:`read_npz`)."""
    header = _npy_header(data)
    if header is None:
        return np.lib.format.read_array(io.BytesIO(data), allow_pickle=False)
    dtype, fortran_order, shape, offset = header
    if dtype.hasobject:
        raise ValueError("Object arrays cannot be loaded when allow_pickle=False")
    count = math.prod(shape)
    if len(data) - offset < count * dtype.itemsize:
        raise ValueError(f"EOF: reading array data, expected {count * dtype.itemsize} "
                         f"bytes got {len(data) - offset}")
    flat = np.frombuffer(data, dtype=dtype, count=count, offset=offset).copy()
    return flat.reshape(shape[::-1]).transpose() if fortran_order else flat.reshape(shape)


def _npy_header(data: bytes) -> tuple[np.dtype, bool, tuple[int, ...], int] | None:
    """``(dtype, fortran_order, shape, data offset)`` of a version 1.0
    header as ``np.save`` writes it, else None."""
    if data[:8] != np.lib.format.MAGIC_PREFIX + b"\x01\x00" or len(data) < 10:
        return None
    offset = 10 + int.from_bytes(data[8:10], "little")
    match = _NPY_HEADER.fullmatch(data[10:offset].decode("latin1")) \
        if offset <= min(len(data), 10 + _MAX_HEADER_SIZE) else None
    if match is None:
        return None
    dtype, shape = _npy_dtype(match["descr"]), _npy_shape(match["shape"])
    if dtype is None or shape is None or not dtype.itemsize:
        return None
    return dtype, match["fortran"] == "True", shape, offset


@functools.lru_cache(maxsize=_HEADER_CACHE_SIZE)
def _npy_dtype(descr: str) -> np.dtype | None:
    """The dtype a header's ``descr`` text names; None sends the member
    to numpy's reader (text that is not a plain str or list literal, or
    names no valid dtype)."""
    try:
        value = ast.literal_eval(descr)
        return np.lib.format.descr_to_dtype(value) if isinstance(value, (str, list)) else None
    except (SyntaxError, TypeError, ValueError):
        return None


def _npy_shape(text: str) -> tuple[int, ...] | None:
    """A header's shape tuple, or None for anything but decimal integers
    in tuple syntax (``()``, ``(3,)``, ``(3, 4)``)."""
    parts = [part.strip() for part in text.split(",")]
    if len(parts) == 1:
        return () if not parts[0] else None
    if not parts[-1]:
        parts.pop()
    if not all(part and (part == "0" or part[0] != "0") and part.isdigit() for part in parts):
        return None
    return tuple(map(int, parts))


def _read_npz(directory: Path, name: str, what: str) -> dict[str, np.ndarray]:
    """Every array of one committed npz file (:func:`read_npz`), mapping
    IO failures to :class:`CheckpointError` (FileNotFoundError passes
    through for the caller's concurrent-writer retry)."""
    path = directory / name
    try:
        return read_npz(path)
    except FileNotFoundError:
        raise
    except Exception as error:  # truncated/corrupt zip, bad CRC, bad header, ...
        raise CheckpointError(f"{path}: corrupt {what} archive: {error}") from error


def _check_member_name(directory: Path, name, what: str) -> str:
    if not isinstance(name, str) or not name or _SEP in name or os.sep in name:
        raise CheckpointError(f"checkpoint at {directory} has a bad {what} entry: {name!r}")
    return name


def _apply_delta(directory: Path, arrays: dict[str, np.ndarray],
                 leaves: dict[str, Any], entry: dict, parent: str) -> str:
    """Apply one committed delta entry in place; returns its delta_id."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"checkpoint at {directory} has a malformed delta entry")
    delta_id = entry.get("delta_id")
    name = _check_member_name(directory, entry.get("file"), "delta file")
    if entry.get("parent") != parent:
        raise CheckpointError(
            f"checkpoint at {directory} is torn: delta {name} chains off "
            f"{entry.get('parent')!r} but the previous write is {parent!r}")
    stored = _read_npz(directory, name, "delta")
    stored_id = bytes(stored.pop(_DELTA_ID_KEY, np.empty(0, dtype=np.uint8))).decode("ascii")
    if not delta_id or stored_id != delta_id:
        raise CheckpointError(f"checkpoint at {directory} is torn: {MANIFEST_NAME} and "
                              f"{name} come from different writes")
    expected = set(entry.get("append", [])) | set(entry.get("replace", []))
    if set(stored) != expected:
        raise CheckpointError(f"checkpoint at {directory} is torn: delta {name} holds "
                              f"{len(stored)} arrays, its manifest entry lists {len(expected)}")
    for key in entry.get("append", []):
        base = arrays.get(key)
        tail = stored[key]
        if base is None or base.ndim != tail.ndim or base.shape[1:] != tail.shape[1:] \
                or base.dtype != tail.dtype:
            # The writer never appends across dtypes (_is_append checks),
            # so a mismatched tail proves corruption — reject it rather
            # than letting np.concatenate silently promote the array.
            raise CheckpointError(f"checkpoint at {directory} is torn: delta {name} "
                                  f"appends to {key!r} but the base state has no "
                                  "compatible array")
        arrays[key] = np.concatenate([base, tail], axis=0)
    for key in entry.get("replace", []):
        arrays[key] = stored[key]
    for key in entry.get("remove", []):
        if key not in arrays:
            raise CheckpointError(f"checkpoint at {directory} is torn: delta {name} "
                                  f"removes unknown array {key!r}")
        del arrays[key]
    new_leaves = entry.get("leaves", {})
    if not isinstance(new_leaves, dict):
        raise CheckpointError(f"checkpoint at {directory} has a malformed delta entry")
    leaves.update(new_leaves)
    for key in entry.get("removed_leaves", []):
        leaves.pop(key, None)
    return delta_id


def _load_flat(directory: Path, _retries: int = 2
               ) -> tuple[dict[str, np.ndarray], dict[str, Any], dict, str]:
    """``(arrays, leaves, manifest, tip_id)`` with any delta chain applied.

    Safe against one concurrent writer: if a save commits a new manifest
    and garbage-collects a file this reader was about to open, the read
    is retried against the fresh manifest.  Concurrent *saves* to the
    same directory are not supported (the fleet serialises them).
    """
    manifest = read_manifest(directory)
    arrays_name = _check_member_name(directory, manifest.get("arrays_file"), "arrays_file")
    try:
        arrays = _read_npz(directory, arrays_name, "array")
    except FileNotFoundError:
        if _retries > 0:
            return _load_flat(directory, _retries=_retries - 1)
        raise CheckpointError(f"checkpoint at {directory} is missing its arrays file "
                              f"{arrays_name}")
    expected = set(manifest.get("array_keys", []))
    if set(arrays) != expected:
        raise CheckpointError(f"checkpoint at {directory} is torn: manifest expects "
                              f"{len(expected)} arrays, {arrays_name} holds {len(arrays)}")
    arrays_save_id = bytes(arrays.pop(_SAVE_ID_KEY, np.empty(0, dtype=np.uint8))).decode("ascii")
    if arrays_save_id != manifest.get("save_id"):
        raise CheckpointError(f"checkpoint at {directory} is torn: {MANIFEST_NAME} and "
                              f"{arrays_name} come from different saves")
    leaves = dict(manifest.get("state", {}))
    tip = manifest.get("save_id")
    deltas = manifest.get("deltas", [])
    if deltas and manifest.get("format_version") != INCREMENTAL_VERSION:
        raise CheckpointError(f"checkpoint at {directory} carries a delta chain but "
                              f"declares format {manifest.get('format_version')!r}")
    for entry in deltas:
        try:
            tip = _apply_delta(directory, arrays, leaves, entry, tip)
        except FileNotFoundError:
            # A concurrent full save compacted the chain away between our
            # manifest read and this delta read: start over.
            if _retries > 0:
                return _load_flat(directory, _retries=_retries - 1)
            raise CheckpointError(f"checkpoint at {directory} is missing committed "
                                  f"delta file {entry.get('file')}")
    return arrays, leaves, manifest, tip


def load_state(directory: str | Path, _retries: int = 2) -> tuple[dict, dict]:
    """Load ``(state, manifest)`` from a checkpoint directory.

    Any committed delta chain is replayed onto the base save, so the
    state returned is exactly what the last ``save_incremental`` (or
    full save) captured.  Metadata arrays are back inside
    ``manifest["metadata"]``.
    """
    arrays, leaves, manifest, _ = _load_flat(Path(directory), _retries=_retries)
    return unflatten_state(_attach_metadata(manifest, arrays), leaves), manifest


def spec_from_manifest(manifest: dict) -> PipelineSpec:
    """The pipeline spec a checkpoint was saved with (its ``pipeline_spec``)."""
    raw = manifest.get("pipeline_spec")
    if raw is None:
        raise CheckpointError(
            f"format-{manifest.get('format_version')} checkpoint carries no "
            "pipeline_spec")
    try:
        return PipelineSpec.from_dict(raw)
    except (TypeError, ValueError) as error:
        raise CheckpointError(f"checkpoint has an invalid pipeline_spec: {error}") from error


def load_checkpoint_with_manifest(directory: str | Path) -> tuple:
    """Reconstruct a fitted pipeline plus the manifest it came from.

    The pipeline is rebuilt from the manifest's embedded spec and
    restored all-or-nothing from the saved state; any registered arm
    loads through this one path.  One disk read serves model and
    metadata, so the pair is guaranteed to belong to the same save even
    with a concurrent writer.
    """
    state, manifest = load_state(directory)
    spec = spec_from_manifest(manifest)
    try:
        model = build_pipeline(spec)
        model.load_state_dict(state)
    except (KeyError, TypeError, ValueError) as error:
        # Missing state leaves, wrong config types, shape mismatches:
        # all mean the checkpoint is structurally invalid.
        raise CheckpointError(f"checkpoint at {directory} is structurally invalid: "
                              f"{error}") from error
    return model, manifest


def load_checkpoint_with_baseline(directory: str | Path) -> tuple:
    """``(model, manifest, baseline)``: a pipeline plus the diff image.

    The :class:`StateBaseline` captures the flattened state exactly as
    committed on disk (base save + replayed deltas), ready to hand to
    :func:`save_incremental` so the tenant's next write-back only pays
    for what changed since this load.
    """
    directory = Path(directory)
    arrays, leaves, manifest, tip = _load_flat(directory)
    state = unflatten_state(_attach_metadata(manifest, arrays), leaves)
    spec = spec_from_manifest(manifest)
    try:
        model = build_pipeline(spec)
        model.load_state_dict(state)
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(f"checkpoint at {directory} is structurally invalid: "
                              f"{error}") from error
    chain = len(manifest.get("deltas", []))
    baseline = StateBaseline.capture(manifest.get("save_id"), tip, chain, arrays, leaves)
    return model, manifest, baseline


def load_checkpoint(directory: str | Path):
    """Reconstruct the fitted pipeline a checkpoint directory describes."""
    model, _ = load_checkpoint_with_manifest(directory)
    return model
