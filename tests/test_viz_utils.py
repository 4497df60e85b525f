"""t-SNE and the utils package."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import (
    check_positive,
    check_positive_int,
    check_probability,
)
from repro.viz import tsne


class TestTsne:
    def test_output_shape(self):
        x = np.random.default_rng(0).standard_normal((30, 8))
        y = tsne(x, dim=2, iterations=50, seed=0)
        assert y.shape == (30, 2)
        assert np.isfinite(y).all()

    def test_separates_two_clusters(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((20, 6)) * 0.2
        b = rng.standard_normal((20, 6)) * 0.2 + 8.0
        y = tsne(np.vstack([a, b]), dim=2, iterations=250, seed=0)
        ya, yb = y[:20], y[20:]
        within = np.linalg.norm(ya - ya.mean(0), axis=1).mean()
        between = np.linalg.norm(ya.mean(0) - yb.mean(0))
        assert between > 2 * within

    def test_deterministic_with_seed(self):
        x = np.random.default_rng(2).standard_normal((12, 4))
        np.testing.assert_allclose(tsne(x, iterations=30, seed=3),
                                   tsne(x, iterations=30, seed=3))

    def test_output_is_centered(self):
        x = np.random.default_rng(3).standard_normal((15, 5))
        y = tsne(x, iterations=40, seed=0)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tsne(np.zeros((2, 3)))

    def test_perplexity_clamped(self):
        # Requesting perplexity above (n-1)/3 must still work.
        x = np.random.default_rng(4).standard_normal((6, 3))
        assert tsne(x, perplexity=50.0, iterations=20, seed=0).shape == (6, 2)


class TestRngHelpers:
    def test_as_rng_from_int(self):
        a, b = as_rng(7), as_rng(7)
        assert a.random() == b.random()

    def test_as_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_rng(rng) is rng

    def test_spawn_independent(self):
        children = spawn_rngs(0, 3)
        values = [c.random() for c in children]
        assert len(set(values)) == 3

    def test_spawn_deterministic(self):
        a = [r.random() for r in spawn_rngs(5, 2)]
        b = [r.random() for r in spawn_rngs(5, 2)]
        assert a == b

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(0), 2)
        assert len(children) == 2

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestValidation:
    def test_check_positive(self):
        assert check_positive(2.0, "x") == 2.0
        with pytest.raises(ValueError):
            check_positive(0.0, "x")
        with pytest.raises(ValueError):
            check_positive(float("nan"), "x")

    def test_check_positive_int(self):
        assert check_positive_int(3, "n") == 3
        with pytest.raises(ValueError):
            check_positive_int(0, "n")
        with pytest.raises(TypeError):
            check_positive_int(2.5, "n")
        with pytest.raises(TypeError):
            check_positive_int(True, "n")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(-0.1, "p")
        with pytest.raises(ValueError):
            check_probability(1.1, "p")
