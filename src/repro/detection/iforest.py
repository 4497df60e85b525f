"""Isolation forest (Liu, Ting & Zhou, ICDM 2008), from scratch.

"BiSAGE + iForest" row of Table I.  Trees are grown on subsamples with
uniformly random split dimensions and split values; the anomaly score is
``2^(-E[path length] / c(ψ))`` with the usual harmonic-number
normaliser.
"""

from __future__ import annotations

import numpy as np

from repro.detection.batch import row_wise_score_batch
from repro.detection.threshold import contamination_threshold
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int, check_probability

__all__ = ["IsolationForest"]

_EULER_GAMMA = 0.5772156649015329


def _average_path_length(n: int | np.ndarray) -> np.ndarray:
    """c(n): expected path length of an unsuccessful BST search."""
    n = np.asarray(n, dtype=np.float64)
    out = np.zeros_like(n)
    big = n > 2
    out[big] = 2.0 * (np.log(n[big] - 1.0) + _EULER_GAMMA) - 2.0 * (n[big] - 1.0) / n[big]
    out[n == 2] = 1.0
    return out


class _Node:
    __slots__ = ("feature", "value", "left", "right", "size")

    def __init__(self, feature=None, value=None, left=None, right=None, size=0):
        self.feature = feature
        self.value = value
        self.left = left
        self.right = right
        self.size = size


class IsolationForest:
    """Ensemble of isolation trees over embedding vectors."""

    def __init__(self, n_trees: int = 100, subsample_size: int = 256,
                 contamination: float = 0.05, seed=None):
        check_positive_int(n_trees, "n_trees")
        check_positive_int(subsample_size, "subsample_size")
        check_probability(contamination, "contamination")
        self.n_trees = n_trees
        self.subsample_size = subsample_size
        self.contamination = contamination
        self.seed = seed
        self._rng = as_rng(seed)
        self._trees: list[_Node] = []
        self._subsample_used = 0
        self.threshold_: float | None = None
        self.train_scores_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "IsolationForest":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if len(x) < 2:
            raise ValueError("isolation forest requires at least two samples")
        self._subsample_used = min(self.subsample_size, len(x))
        height_limit = int(np.ceil(np.log2(max(self._subsample_used, 2))))
        self._trees = []
        for _ in range(self.n_trees):
            sample_idx = self._rng.choice(len(x), size=self._subsample_used, replace=False)
            self._trees.append(self._grow(x[sample_idx], 0, height_limit))
        self.train_scores_ = self.decision_scores(x)
        self.threshold_ = contamination_threshold(self.train_scores_, self.contamination)
        return self

    def _grow(self, x: np.ndarray, depth: int, limit: int) -> _Node:
        n = len(x)
        if depth >= limit or n <= 1:
            return _Node(size=n)
        # Pick among features that still vary in this partition.
        spans = x.max(axis=0) - x.min(axis=0)
        varying = np.nonzero(spans > 0)[0]
        if varying.size == 0:
            return _Node(size=n)
        feature = int(self._rng.choice(varying))
        low, high = x[:, feature].min(), x[:, feature].max()
        value = float(self._rng.uniform(low, high))
        mask = x[:, feature] < value
        if mask.all() or (~mask).all():
            return _Node(size=n)
        return _Node(feature=feature, value=value,
                     left=self._grow(x[mask], depth + 1, limit),
                     right=self._grow(x[~mask], depth + 1, limit),
                     size=n)

    def _path_length(self, row: np.ndarray, node: _Node, depth: int) -> float:
        while node.feature is not None:
            node = node.left if row[node.feature] < node.value else node.right
            depth += 1
        if node.size > 1:
            return depth + float(_average_path_length(np.asarray([node.size]))[0])
        return float(depth)

    def decision_scores(self, x: np.ndarray) -> np.ndarray:
        """Anomaly scores in (0, 1); higher = easier to isolate = outlier."""
        self._require_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        depths = np.empty((len(x), len(self._trees)))
        for t, tree in enumerate(self._trees):
            for i, row in enumerate(x):
                depths[i, t] = self._path_length(row, tree, 0)
        c = float(_average_path_length(np.asarray([self._subsample_used]))[0])
        c = max(c, 1e-12)
        return 2.0 ** (-depths.mean(axis=1) / c)

    def is_outlier(self, x: np.ndarray) -> np.ndarray:
        return self.decision_scores(x) > self.threshold_

    score_batch = row_wise_score_batch

    def refit(self, x: np.ndarray) -> "IsolationForest":
        """Re-baseline on fresh embeddings (coordinated refresh).

        The ensemble RNG is re-derived from the constructor seed so that
        two detectors with the same seed refit on the same embeddings
        grow bit-identical forests, regardless of how much randomness the
        previous fit consumed.
        """
        self._rng = as_rng(self.seed)
        return self.fit(x)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state: hyper-parameters + flattened trees.

        Every tree is serialised into shared node arrays (feature -1
        marks a leaf, child index -1 marks "no child"); scoring is a
        deterministic function of the trees, so a restored forest scores
        bit-for-bit identically.  The RNG is *not* saved — it only
        matters for a future ``fit``, never for scoring.
        """
        self._require_fitted()
        feature, value, left, right, size, roots = [], [], [], [], [], []

        def add(node: _Node) -> int:
            index = len(feature)
            feature.append(-1 if node.feature is None else int(node.feature))
            value.append(0.0 if node.value is None else float(node.value))
            left.append(-1)
            right.append(-1)
            size.append(int(node.size))
            if node.feature is not None:
                left[index] = add(node.left)
                right[index] = add(node.right)
            return index

        for tree in self._trees:
            roots.append(add(tree))
        return {
            "n_trees": self.n_trees,
            "subsample_size": self.subsample_size,
            "contamination": self.contamination,
            "subsample_used": self._subsample_used,
            "threshold": float(self.threshold_),
            "train_scores": self.train_scores_.copy(),
            "node_feature": np.asarray(feature, dtype=np.int64),
            "node_value": np.asarray(value, dtype=np.float64),
            "node_left": np.asarray(left, dtype=np.int64),
            "node_right": np.asarray(right, dtype=np.int64),
            "node_size": np.asarray(size, dtype=np.int64),
            "tree_roots": np.asarray(roots, dtype=np.int64),
        }

    def load_state_dict(self, state: dict) -> "IsolationForest":
        """Restore a forest saved by :meth:`state_dict`."""
        feature = np.asarray(state["node_feature"], dtype=np.int64)
        value = np.asarray(state["node_value"], dtype=np.float64)
        left = np.asarray(state["node_left"], dtype=np.int64)
        right = np.asarray(state["node_right"], dtype=np.int64)
        size = np.asarray(state["node_size"], dtype=np.int64)
        roots = np.asarray(state["tree_roots"], dtype=np.int64)
        n = len(feature)
        for name, arr in (("node_value", value), ("node_left", left),
                          ("node_right", right), ("node_size", size)):
            if len(arr) != n:
                raise ValueError(f"iforest state {name} has {len(arr)} entries, expected {n}")
        children = np.concatenate([left, right, roots])
        if children.size and (children.min() < -1 or children.max() >= n):
            raise ValueError("iforest state references a node index outside the arrays")

        def build(index: int) -> _Node:
            node = _Node(feature=None if feature[index] < 0 else int(feature[index]),
                         value=None if feature[index] < 0 else float(value[index]),
                         size=int(size[index]))
            if node.feature is not None:
                if left[index] < 0 or right[index] < 0:
                    raise ValueError(f"iforest state node {index} splits but lacks children")
                node.left = build(int(left[index]))
                node.right = build(int(right[index]))
            return node

        trees = [build(int(root)) for root in roots]
        if not trees:
            raise ValueError("iforest state holds no trees")
        check_positive_int(int(state["n_trees"]), "n_trees")
        check_positive_int(int(state["subsample_size"]), "subsample_size")
        check_probability(float(state["contamination"]), "contamination")
        self.n_trees = int(state["n_trees"])
        self.subsample_size = int(state["subsample_size"])
        self.contamination = float(state["contamination"])
        self._subsample_used = int(state["subsample_used"])
        self._trees = trees
        self.threshold_ = float(state["threshold"])
        self.train_scores_ = np.asarray(state["train_scores"], dtype=np.float64)
        return self

    def _require_fitted(self) -> None:
        if not self._trees:
            raise RuntimeError("IsolationForest has not been fitted; call fit first")
