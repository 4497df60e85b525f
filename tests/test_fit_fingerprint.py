"""Whole BiSAGE / GraphSAGE fits must match a frozen fingerprint.

``tests/golden/fit_fingerprint.json`` holds digests of the loss
history, every parameter, every inference-cache layer and the flattened
``state_dict`` (key order, dtype, shape, bytes) of both models fitted
over each ``FIT_CASES`` entry of ``test_fit_differential.py``.  Unlike
the per-step references there, it does not call any model code, so a
change in the training, cache or persistence code both models share
shows up here, down to one bit or one reordered checkpoint key.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))

from regenerate import FINGERPRINT_FILE, fit_fingerprint  # noqa: E402
from test_fit_differential import FIT_CASES, GRAPHS, case_id, fit_configs  # noqa: E402

from repro.embedding.bisage import BiSAGE  # noqa: E402
from repro.embedding.graphsage import GraphSAGE  # noqa: E402

FIXTURE = json.loads((GOLDEN_DIR / FINGERPRINT_FILE).read_text())


def test_fixture_covers_every_fit_case():
    assert sorted(FIXTURE) == sorted(case_id(case) for case in FIT_CASES)


@pytest.mark.parametrize("case", FIT_CASES, ids=case_id)
@pytest.mark.parametrize("model_name", ["bisage", "graphsage"])
def test_fit_matches_frozen_fingerprint(case, model_name):
    graph_name, seed, *params = case
    bisage_config, graphsage_config = fit_configs(seed, *params)
    model = (BiSAGE(bisage_config) if model_name == "bisage"
             else GraphSAGE(graphsage_config)).fit(GRAPHS[graph_name](seed))
    expected = FIXTURE[case_id(case)][model_name]
    # JSON turns the state_dict rows' tuples into lists; compare likewise.
    assert json.loads(json.dumps(fit_fingerprint(model))) == expected, (
        f"{model_name} fit diverged from {FINGERPRINT_FILE}; if the training "
        "maths changed on purpose, rerun tests/golden/regenerate.py")
