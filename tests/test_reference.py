"""The scalar reference (``tests/reference.py``) against the pipeline.

Every embedder + detector arm, over the adversarial stream of the
differential harness: the reference's Algorithm 2 loop gives the
pipeline's ``observe`` decisions and post-stream state, its ``score``
the pipeline's ``score``, its embedding the embedder's ``embed``, and
its training-node embedding the detector's fit rows.  Decisions are
compared bit for bit.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

import reference
from conftest import synthetic_records
from repro.core.records import SignalRecord
from test_batch_differential import (
    PIPELINE_ARMS,
    adversarial_stream,
    assert_decisions_identical,
    assert_trees_identical,
    build_arm,
)


def fitted_arm(arm: str):
    return build_arm(arm).fit(synthetic_records(60, seed=3))


@pytest.mark.parametrize("arm", PIPELINE_ARMS)
def test_reference_observe_matches_pipeline(arm):
    model = fitted_arm(arm)
    expected_model = copy.deepcopy(model)
    stream = adversarial_stream()
    expected = [reference.observe(expected_model, record) for record in stream]
    got = [model.observe(record) for record in stream]
    assert any(decision.inside for decision in got)
    assert any(math.isinf(decision.score) for decision in got)
    assert_decisions_identical(expected, got)
    assert_trees_identical(expected_model.state_dict(), model.state_dict())


@pytest.mark.parametrize("arm", PIPELINE_ARMS)
def test_reference_score_and_embed_match_pipeline(arm):
    model = fitted_arm(arm)
    for record in adversarial_stream():
        expected = reference.score(model, record)
        assert (np.float64(model.score(record)).tobytes()
                == np.float64(expected).tobytes())
        row = reference.embed(model, record)
        got = model.embedder.embed(record)
        assert (got is None) == (row is None)
        if row is not None:
            assert_trees_identical(row, got)


@pytest.mark.parametrize("arm", ["GEM", "GraphSAGE+OD"])
def test_reference_record_nodes_match_training_embeddings(arm):
    # An empty training record is an isolated node: it keeps the shared
    # inference-node initial row.
    model = build_arm(arm).fit(synthetic_records(60, seed=3)
                               + [SignalRecord({}, timestamp=99.0)])
    embedder = model.embedder
    expected = np.vstack([reference.embed_record_node(embedder.model, i)
                          for i in range(embedder.graph.num_records)])
    assert_trees_identical(expected, embedder.training_embeddings())
