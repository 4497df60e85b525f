"""The benchmark's own arithmetic: percentiles, digests and the repeat guard."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# The reported percentile must have at least this many samples beyond it.
MIN_TAIL = 10


def percentile(samples: list[float], q: float, min_tail: int = MIN_TAIL) -> float:
    """The ``q``-th percentile (nearest rank), refusing thin tails.

    Raises ValueError unless at least ``min_tail`` samples lie strictly
    beyond the reported rank, so a p90 needs at least 100 samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_tail:
        raise ValueError(f"p{q:g} of {n} samples leaves {n - rank} beyond it; "
                         f"at least {min_tail} are needed")
    return sorted(samples)[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def decision_digest(decisions) -> str:
    """SHA-256 over every decision field, in order, scores bit-exact."""
    digest = hashlib.sha256()
    for d in decisions:
        digest.update(f"{int(d.inside)}{float(d.score).hex()}{int(d.confident)}"
                      f"{int(d.buffered)}{int(d.updated)};".encode())
    return digest.hexdigest()


def source_hash(root: Path) -> str:
    """Hash of the program and benchmark sources a result depends on."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class RepeatMismatch(RuntimeError):
    """A run did different work from an earlier run of the same seed."""


def check_repeat(store: Path, observed: dict) -> bool:
    """Compare ``observed`` with the first run stored at ``store``.

    The first run of a key records itself and returns True; a later run
    returns True when it matches exactly and raises
    :class:`RepeatMismatch` naming every differing field otherwise.
    """
    if not store.exists():
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(observed, sort_keys=True))
        return True
    expected = json.loads(store.read_text())
    differences = sorted(key for key in set(expected) | set(observed)
                         if expected.get(key) != observed.get(key))
    if differences:
        raise RepeatMismatch(
            "run differs from the first run of this seed in "
            + ", ".join(f"{key} ({expected.get(key)!r} -> {observed.get(key)!r})"
                        for key in differences))
    return True
