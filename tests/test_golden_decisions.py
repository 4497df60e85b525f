"""The vectorized path must reproduce the golden fixtures byte-for-byte.

The fixtures under ``tests/golden/`` were generated by the **scalar**
reference loop (``tests/golden/regenerate.py``); here the same pinned
lab-world stream runs through ``observe_many`` — via the fleet's
:class:`~repro.serve.batchplane.BatchPlane`, the model's kernel included —
and the re-serialised decisions are compared against the committed
files as exact text.  Any divergence, down to one mantissa bit of one
score, fails the byte comparison.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))

from regenerate import FIXTURES, build_model, decision_lines, lab_stream  # noqa: E402

from repro.serve.batchplane import BatchPlane  # noqa: E402


@pytest.fixture(scope="module")
def lab_world():
    return lab_stream()


@pytest.mark.parametrize("filename,arm", FIXTURES)
def test_vectorized_path_reproduces_golden_decisions(filename, arm, lab_world):
    train, stream = lab_world
    model = build_model(arm)
    model.fit(train)
    plane = BatchPlane()
    decisions = []
    for start in range(0, len(stream), 64):
        chunk, outcome = plane.observe_batch(model, stream[start:start + 64])
        assert outcome == "engaged"
        decisions.extend(chunk)
    golden = (GOLDEN_DIR / filename).read_text()
    assert decision_lines(decisions) == golden, (
        f"vectorized decisions diverged from {filename}; if the model maths "
        "changed on purpose, rerun tests/golden/regenerate.py")
