"""The weighted bipartite graph (Sec. III-A), built once per fit, and its samplers."""

from repro.graph.bipartite import MAC, RECORD, WeightedBipartiteGraph, global_csr
from repro.graph.builder import build_graph
from repro.graph.sampling import AliasTable, NegativeSampler
from repro.graph.walks import RandomWalker, WalkConfig, walk_pairs

__all__ = [
    "MAC",
    "RECORD",
    "WeightedBipartiteGraph",
    "global_csr",
    "build_graph",
    "AliasTable",
    "NegativeSampler",
    "RandomWalker",
    "WalkConfig",
    "walk_pairs",
]
