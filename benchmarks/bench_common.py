"""Shared helpers for the reproduction benchmarks.

Each ``bench_*.py`` regenerates one table or figure of the paper at
laptop scale: the dataset sizes are reduced from the paper's multi-hour
campaigns, so *absolute* numbers differ while the comparisons (who wins,
roughly by how much, where the knees are) are the reproduction target.

Every benchmark writes its result table to ``benchmarks/results/`` so
the numbers survive pytest's stdout capture.
"""

from __future__ import annotations

import functools
import os
import platform
import sys
import time
from pathlib import Path

from repro.datasets import generate_dataset, user_dataset
from repro.eval import arm_accepts, evaluate_streaming, make_algorithm

RESULTS_DIR = Path(__file__).parent / "results"

# Version of the shared metadata block benchmarks embed in their JSON
# payloads (``bench_metadata``); bump on incompatible shape changes.
BENCH_META_SCHEMA = 1

# REPRO_BENCH_FULL=1 runs the full 10-user / full-sweep versions.
FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

BENCH_USERS = list(range(1, 11)) if FULL else [1, 3, 6, 10]
TEST_SESSIONS = 6
SESSION_S = 80.0


def churn_shock_schedules(scenario, shock_epoch: int, fraction: float,
                          churn: float = 0.04) -> list:
    """The canonical churn-shock drift workload over ``scenario``.

    Shared between ``bench_drift.py`` (the headline coordinated-refresh
    comparison) and ``bench_fleet_drift.py``'s worst-case arm so the
    two benches keep measuring the *same* world: gradual AP churn +
    TX-power and device-gain drift, with a one-shot replacement of
    ``fraction`` of the ambient APs at ``shock_epoch``.  The home's
    own APs are protected throughout.
    """
    from repro.rf.dynamics import (APChurn, ChurnShock, DeviceGainDrift,
                                   TxPowerDrift, home_ap_ids)
    protect = home_ap_ids(scenario)
    return [APChurn(rate=churn, protect=protect), TxPowerDrift(),
            DeviceGainDrift(),
            ChurnShock(epoch=shock_epoch, fraction=fraction, protect=protect)]


def bench_metadata(bench: str, args=None) -> dict:
    """Shared metadata block for benchmark JSON payloads.

    Every machine-readable result embeds the same ``meta`` shape —
    schema version, which bench produced it with which arguments, and
    enough host context to judge whether two recorded runs are
    comparable at all (absolute numbers off a laptop and a CI box are
    not).  ``args`` is an ``argparse.Namespace`` (or mapping) whose
    values are recorded verbatim when JSON-representable.
    """
    if args is None:
        arg_items = {}
    else:
        arg_items = dict(args) if isinstance(args, dict) else vars(args)
    recorded = {key: value for key, value in sorted(arg_items.items())
                if isinstance(value, (bool, int, float, str)) or value is None}
    return {
        "schema_version": BENCH_META_SCHEMA,
        "bench": bench,
        "args": recorded,
        "full": FULL,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": sys.version.split()[0],
            "cpus": os.cpu_count(),
        },
    }


def write_result(name: str, text: str) -> None:
    """Persist one benchmark's table; also echo to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(text)


def write_json_result(name: str, payload) -> None:
    """Persist one benchmark's machine-readable result as JSON.

    Human tables (``write_result``) are for eyeballs; dashboards and
    regression tooling read ``benchmarks/results/<name>.json``.
    """
    import json
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


@functools.lru_cache(maxsize=None)
def cached_user_dataset(user_id: int):
    """User dataset with the bench-scale stream (cached across benches)."""
    return user_dataset(user_id, test_sessions=TEST_SESSIONS,
                        session_duration_s=SESSION_S)


def run_arm(name: str, dataset, seed: int = 0):
    """Fit + stream one algorithm arm; returns the EvaluationResult.

    Seed-less arms (SignatureHome, INOA, ...) get the default seed so a
    per-user sweep does not trip the inapplicable-parameter warning.
    """
    model = make_algorithm(name, seed=seed if arm_accepts(name, "seed") else 0)
    return evaluate_streaming(model, dataset)
