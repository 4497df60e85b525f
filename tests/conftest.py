"""Shared test fixtures and helpers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.io import record_to_dict, records_from_columns
from repro.core.records import SignalRecord
from repro.serve import QUARANTINE_METADATA_KEY, RESERVOIR_METADATA_KEY
from repro.serve.checkpoint import MANIFEST_NAME, load_state, read_manifest


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        f_plus = fn(x)
        flat[i] = original - eps
        f_minus = fn(x)
        flat[i] = original
        grad_flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def totals_from_families(families: dict) -> dict:
    """The ``TenantStats`` fields, computed from a metrics snapshot's
    family values (``MetricsRegistry.snapshot()`` form)."""
    def total(name: str, key: str = "value", **match) -> float:
        return sum(entry[key] for entry in families[name]["series"]
                   if all(entry["labels"][k] == v for k, v in match.items()))

    def count(op: str) -> int:
        return int(total("repro_lifecycle_total", op=op))

    def seconds(*ops: str) -> float:
        return sum(total("repro_op_seconds", "sum", op=op) for op in ops)

    inside = int(total("repro_decisions_total", result="inside"))
    outside = int(total("repro_decisions_total", result="outside"))
    return {
        "observations": inside + outside, "inside": inside, "outside": outside,
        "unembeddable": int(total("repro_unembeddable_total")),
        "buffered": int(total("repro_update_buffered_total")),
        "updates_applied": int(total("repro_updates_applied_total")),
        "loads": count("load"), "saves": count("save"),
        "delta_saves": count("delta_save"), "evictions": count("evict"),
        "refreshes": count("refresh"), "reprovisions": count("reprovision"),
        "observe_seconds": seconds("observe"), "load_seconds": seconds("load"),
        "save_seconds": seconds("save", "delta_save"),
        "refresh_seconds": seconds("refresh", "reprovision"),
    }


def mac_names(graph) -> list[str]:
    """A graph's MAC name table: MAC node ``j`` is ``mac_names(graph)[j]``."""
    return graph.state_dict()["mac_names"]


def user_metadata(registry, tenant_id: str) -> dict:
    """The metadata a caller stored with a tenant: its manifest's
    metadata without the fleet's reservoir and quarantine keys."""
    metadata = read_manifest(registry.path_for(tenant_id))["metadata"]
    return {key: value for key, value in metadata.items()
            if key not in (RESERVOIR_METADATA_KEY, QUARANTINE_METADATA_KEY)}


def write_records(records, path) -> None:
    """A JSONL record file as ``repro.core.io.load_records`` reads it."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record)) + "\n")


def make_record(macs_rss: dict[str, float] | None = None, t: float = 0.0) -> SignalRecord:
    """A small deterministic record for unit tests."""
    readings = macs_rss if macs_rss is not None else {"aa": -50.0, "bb": -60.0, "cc": -70.0}
    return SignalRecord(readings, timestamp=t)


def synthetic_records(n: int, num_macs: int = 8, seed: int = 0,
                      center: float = 0.0) -> list[SignalRecord]:
    """Records whose RSS pattern depends smoothly on ``center``.

    Gives embedding/detection tests a cheap stand-in for real scans:
    records generated at nearby centers look similar, distant centers
    look different, and each record senses a random subset of MACs.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        readings = {}
        for m in range(num_macs):
            rss = -45.0 - 6.0 * abs(m - center) + rng.normal(0, 1.5)
            if rss > -95 and rng.random() < 0.9:
                readings[f"mac{m:02d}"] = float(rss)
        if not readings:
            readings["mac00"] = -80.0
        records.append(SignalRecord(readings, timestamp=float(i)))
    return records


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def write_json_form(directory) -> None:
    """Rewrite a checkpoint the way releases before the columnar form
    saved it: reservoir and quarantine records as ``record_to_dict``
    lists in the manifest metadata, none of them in the npz files."""
    _, loaded = load_state(directory)

    def as_json(value):
        if isinstance(value, dict) and "edges" in value:
            return [record_to_dict(r) for r in records_from_columns(value)]
        if isinstance(value, dict):
            return {key: as_json(item) for key, item in value.items()}
        return value

    manifest_path = directory / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["metadata"] = as_json(loaded["metadata"])
    kept = lambda keys: [key for key in keys if not key.startswith("__metadata__/")]
    for name in [manifest["arrays_file"]] + [e["file"] for e in manifest.get("deltas", [])]:
        with np.load(directory / name) as archive:
            arrays = {key: archive[key] for key in kept(archive.files)}
        np.savez(directory / name, **arrays)
    manifest["array_keys"] = kept(manifest["array_keys"])
    for entry in manifest.get("deltas", []):
        entry["append"], entry["replace"] = kept(entry["append"]), kept(entry["replace"])
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
