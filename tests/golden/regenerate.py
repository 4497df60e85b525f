"""Regenerate the golden decision fixtures.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

Each fixture is a seed-pinned JSONL of the decisions the **scalar**
reference (``tests/reference.py``: Algorithm 2 written out, record by
record) produces for one arm on the lab world.  ``tests/test_golden_decisions.py`` then asserts the
*vectorized* path reproduces the files byte-for-byte — so these files
are the frozen ground truth of the batch data plane, regenerated only
when the underlying model maths deliberately changes.

Scores are serialised with ``float.hex()``: bit-exact round-trips, no
repr-precision ambiguity.

``fit_fingerprint.json`` pins the *training* side the same way: digests
of ``loss_history``, every parameter, every inference-cache layer and
the flattened ``state_dict`` of BiSAGE and GraphSAGE fitted over each
``FIT_CASES`` entry of ``tests/test_fit_differential.py``
(``tests/test_fit_fingerprint.py`` checks it).  The per-step reference
in ``test_fit_differential.py`` trains on the tape (``sage_tape.py``)
but still calls the models' own cache build and persistence, so only a
frozen fixture catches a change in code the two models share there.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent
FINGERPRINT_FILE = "fit_fingerprint.json"

# One entry per fixture: (filename, arm name). "GEM" is the paper's
# tuned BiSAGE + enhanced-histogram system; "GEM(plain-HBOS)" is the
# same graph embedder over the plain histogram (no enhancement, no
# self-update) — together they cover both histogram decision surfaces.
FIXTURES = (
    ("gem_lab_decisions.jsonl", "GEM"),
    ("plain_hbos_lab_decisions.jsonl", "GEM(plain-HBOS)"),
)

SEED = 0
DIM = 8
STREAM_REPEATS = 2  # replay the test sessions twice: updates accumulate


def lab_stream():
    """The pinned lab-world experiment: training set + labeled stream."""
    from repro.datasets.synthetic import generate_dataset
    from repro.rf.scenarios import lab_scenario

    dataset = generate_dataset(lab_scenario(seed=SEED), seed=SEED,
                               train_duration_s=90.0, test_sessions=4,
                               session_duration_s=45.0)
    stream = [labeled.record for labeled in dataset.test] * STREAM_REPEATS
    return dataset.train, stream


def build_model(arm: str):
    from repro.core.config import GEMConfig
    from repro.embedding.bisage import BiSAGEConfig
    from repro.eval.algorithms import arm_spec
    from repro.pipeline import build_pipeline

    gem_config = GEMConfig(bisage=BiSAGEConfig(dim=DIM, epochs=2, seed=SEED),
                           batch_update_size=8)
    return build_pipeline(arm_spec(arm, seed=SEED, dim=DIM, gem_config=gem_config))


def decision_lines(decisions) -> str:
    lines = []
    for i, decision in enumerate(decisions):
        lines.append(json.dumps({
            "i": i,
            "inside": decision.inside,
            "score_hex": float(decision.score).hex(),
            "confident": decision.confident,
            "buffered": decision.buffered,
            "updated": decision.updated,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


def _digest(array) -> str:
    array = np.ascontiguousarray(array)
    return hashlib.sha256(array.tobytes()).hexdigest()[:16]


def _flatten(tree, prefix: str = ""):
    """``(key, dtype, shape, digest)`` per array leaf, JSON per other leaf,
    in the tree's own key order."""
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, path + "/")
        elif isinstance(value, np.ndarray):
            yield [path, value.dtype.str, list(value.shape), _digest(value)]
        else:
            yield [path, json.dumps(value, sort_keys=True)]


def fit_fingerprint(model) -> dict:
    """Digests of everything a fit leaves behind in ``model``."""
    state = model.state_dict()
    caches = {key: [_digest(layer) for layer in layers.values()]
              for key, layers in state.items() if key.startswith("cache_")}
    return {
        "loss_history": _digest(np.asarray(model.loss_history, dtype=np.float64)),
        "parameters": [_digest(p.data) for p in model.parameters()],
        "caches": caches,
        "state_dict": list(_flatten(state)),
    }


def fit_fingerprints() -> dict:
    """``{case id: {"bisage": ..., "graphsage": ...}}`` over ``FIT_CASES``."""
    from test_fit_differential import FIT_CASES, GRAPHS, case_id, fit_configs

    from repro.embedding.bisage import BiSAGE
    from repro.embedding.graphsage import GraphSAGE

    out = {}
    for case in FIT_CASES:
        graph_name, seed, *params = case
        bisage_config, graphsage_config = fit_configs(seed, *params)
        out[case_id(case)] = {
            "bisage": fit_fingerprint(BiSAGE(bisage_config).fit(GRAPHS[graph_name](seed))),
            "graphsage": fit_fingerprint(
                GraphSAGE(graphsage_config).fit(GRAPHS[graph_name](seed))),
        }
    return out


def main() -> None:
    sys.path.insert(0, str(GOLDEN_DIR.parent))
    import reference

    path = GOLDEN_DIR / FINGERPRINT_FILE
    path.write_text(json.dumps(fit_fingerprints(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    train, stream = lab_stream()
    for filename, arm in FIXTURES:
        model = build_model(arm)
        model.fit(train)
        decisions = [reference.observe(model, record) for record in stream]
        path = GOLDEN_DIR / filename
        path.write_text(decision_lines(decisions))
        inside = sum(d.inside for d in decisions)
        print(f"wrote {path.name}: {len(decisions)} decisions "
              f"({inside} inside, arm={arm})")


if __name__ == "__main__":
    main()
