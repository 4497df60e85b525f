"""Alias tables, weighted neighbour sampling, negative sampling, walks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mac_names
from repro.core.records import SignalRecord
from repro.embedding.common import NeighborSampler
from repro.graph import (
    RECORD,
    AliasTable,
    NegativeSampler,
    RandomWalker,
    WalkConfig,
    build_graph,
    global_csr,
    walk_pairs,
)


CHAIN = [SignalRecord({"a": -50.0, "b": -60.0}), SignalRecord({"b": -55.0, "c": -70.0})]


def chain_graph(*extra):
    """r0 - {a,b}, r1 - {b,c}: a 5-node path in bipartite form, then ``extra``."""
    return build_graph(CHAIN + list(extra))


class TestAliasTable:
    def test_probabilities_normalised(self):
        table = AliasTable([1.0, 3.0])
        np.testing.assert_allclose(table.probabilities, [0.25, 0.75])

    def test_empirical_distribution_matches(self):
        table = AliasTable([1.0, 2.0, 7.0])
        rng = np.random.default_rng(0)
        draws = table.sample(rng, size=20000)
        freq = np.bincount(draws, minlength=3) / 20000
        np.testing.assert_allclose(freq, [0.1, 0.2, 0.7], atol=0.02)

    def test_single_draw_returns_int(self):
        assert isinstance(AliasTable([1.0]).sample(np.random.default_rng(0)), int)

    def test_zero_weight_never_sampled(self):
        table = AliasTable([0.0, 1.0])
        draws = table.sample(np.random.default_rng(0), size=1000)
        assert (draws == 1).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AliasTable([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AliasTable([1.0, -1.0])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            AliasTable([0.0, 0.0])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=10))
    def test_property_draws_in_range(self, weights):
        table = AliasTable(weights)
        draws = table.sample(np.random.default_rng(1), size=100)
        assert ((draws >= 0) & (draws < len(weights))).all()


class TestWeightedNeighborSampler:
    """Eq. 8 neighbour sampling, as the per-fit :class:`NeighborSampler` does it."""

    @staticmethod
    def sampled(graph, sample_size, node, rng):
        rows, cols, weights = NeighborSampler(*global_csr(graph), sample_size).sample(rng)
        return cols[rows == node], weights[rows == node]

    def test_small_degree_returns_full_neighborhood(self):
        # Record 0 has degree 2: kept whole at or below the sample size.
        graph = chain_graph()
        for sample_size in (2, 10):
            neighbors, weights = self.sampled(graph, sample_size, 0, np.random.default_rng(0))
            assert len(neighbors) == 2
            np.testing.assert_array_equal(weights, graph.neighbors(RECORD, 0)[1])

    def test_large_degree_subsamples(self):
        graph = build_graph([SignalRecord({f"m{i}": -50.0 for i in range(30)})])
        neighbors, _ = self.sampled(graph, 5, 0, np.random.default_rng(0))
        assert len(neighbors) == 5

    def test_weight_bias(self):
        # Degree (6) exceeds the sample size (2) so true sampling happens;
        # 'strong' (w=90) should dominate the five weak MACs (w=10 each).
        readings = {f"weak{i}": -110.0 for i in range(5)}
        readings["strong"] = -30.0
        graph = build_graph([SignalRecord(readings)])
        sampler = NeighborSampler(*global_csr(graph), 2)
        strong = graph.num_records + mac_names(graph).index("strong")
        rng = np.random.default_rng(0)
        hits = 0
        total = 0
        for _ in range(300):
            rows, cols, _ = sampler.sample(rng)
            hits += (cols[rows == 0] == strong).sum()
            total += (rows == 0).sum()
        assert hits / total > 0.5  # 90/140 ≈ 0.64 expected vs 0.167 uniform

    def test_isolated_node_empty(self):
        graph = chain_graph(SignalRecord({}))
        neighbors, _ = self.sampled(graph, 5, 2, np.random.default_rng(0))
        assert len(neighbors) == 0

    def test_invalid_sample_size(self):
        with pytest.raises(ValueError):
            NeighborSampler(*global_csr(chain_graph()), 0)


class TestNegativeSampler:
    def test_returns_requested_count(self):
        sampler = NegativeSampler(chain_graph(), rng=0)
        ids = sampler.sample_global(7)
        assert ids.shape == (7,) and ids.dtype == np.int64

    def test_refs_are_valid(self):
        # Every node, the isolated record's included, can be drawn.
        graph = chain_graph(SignalRecord({}))
        ids = NegativeSampler(graph, power=0.0, rng=0).sample_global(500)
        assert set(ids.tolist()) == set(range(graph.num_records + graph.num_macs))

    def test_degree_bias(self):
        # MAC 'b' has degree 2, others degree 1: it should be sampled most
        # among MAC nodes under deg^{3/4}.
        graph = chain_graph()
        sampler = NegativeSampler(graph, power=0.75, rng=0)
        macs = sampler.sample_global(6000) - graph.num_records
        counts = np.bincount(macs[macs >= 0], minlength=graph.num_macs)
        assert counts.argmax() == mac_names(graph).index("b")

    def test_sample_global_range(self):
        graph = chain_graph()
        sampler = NegativeSampler(graph, rng=0)
        ids = sampler.sample_global(100)
        assert ((ids >= 0) & (ids < graph.num_records + graph.num_macs)).all()

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            NegativeSampler(chain_graph(), power=-1.0)


class TestRandomWalks:
    def test_walk_alternates_partitions(self):
        graph = chain_graph()
        walks = RandomWalker(graph, WalkConfig(walk_length=5), rng=0).corpus()
        is_record = walks < graph.num_records
        assert (is_record[:, 1:] != is_record[:, :-1]).all()

    def test_walk_respects_length(self):
        walks = RandomWalker(chain_graph(), WalkConfig(walk_length=4), rng=0).corpus()
        assert walks.shape[1] == 4

    def test_walk_stops_at_isolated_node(self):
        # No walk starts at, or steps onto, an isolated node.
        graph = chain_graph(SignalRecord({}))
        walks = RandomWalker(graph, WalkConfig(walk_length=5), rng=0).corpus()
        assert len(walks) and not (walks == 2).any()

    def test_corpus_skips_isolated_nodes(self):
        graph = chain_graph(SignalRecord({}))
        walker = RandomWalker(graph, WalkConfig(walk_length=3, walks_per_node=2), rng=0)
        corpus = walker.corpus()
        # 5 connected nodes x 2 walks (isolated record excluded)
        assert len(corpus) == 10

    def test_walk_weight_bias(self):
        graph = build_graph([SignalRecord({"strong": -25.0, "weak": -115.0})])
        walker = RandomWalker(graph, WalkConfig(walk_length=2, walks_per_node=200), rng=0)
        walks = walker.corpus()
        strong = graph.num_records + mac_names(graph).index("strong")
        from_record = walks[walks[:, 0] == 0]
        assert len(from_record) == 200
        assert (from_record[:, 1] == strong).sum() > 160

    def test_walk_pairs_window_one(self):
        pairs = walk_pairs(np.array([[0, 3, 2]]), window=1)
        assert pairs.tolist() == [[0, 3], [3, 2]]

    def test_walk_pairs_window_two(self):
        pairs = walk_pairs(np.array([[0, 3, 2]]), window=2)
        assert [0, 2] in pairs.tolist()
        assert len(pairs) == 3

    def test_walk_pairs_invalid_window(self):
        with pytest.raises(ValueError):
            walk_pairs([], window=0)

    def test_walk_config_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(walk_length=0)
