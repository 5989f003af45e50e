"""Tests for the numpy MLP classifier, including a finite-difference check."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.metrics import softmax
from repro.ml.mlp import MLPClassifier
from repro.ml.preprocessing import one_hot


def blobs(n_per_class=40, k=3, dim=5, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c in range(k):
        center = rng.normal(0, 3, size=dim)
        xs.append(center + rng.normal(0, 0.5, size=(n_per_class, dim)))
        ys.append(np.full(n_per_class, c))
    return np.concatenate(xs), np.concatenate(ys)


class TestFit:
    def test_learns_separable_blobs(self):
        x, y = blobs()
        model = MLPClassifier(hidden_sizes=(16,), epochs=150, learning_rate=0.01, seed=0)
        model.fit(x, y)
        assert (model.predict(x) == y).mean() > 0.95

    def test_linear_model_learns(self):
        x, y = blobs()
        model = MLPClassifier(hidden_sizes=(), epochs=200, learning_rate=0.05, seed=0)
        model.fit(x, y)
        assert (model.predict(x) == y).mean() > 0.9

    def test_loss_decreases(self):
        x, y = blobs()
        y_onehot = one_hot(y, 3)

        def cross_entropy(epochs: int) -> float:
            model = MLPClassifier(hidden_sizes=(8,), epochs=epochs, seed=0).fit(x, y)
            return float(-(y_onehot * np.log(model.predict_proba(x) + 1e-12)).sum(axis=1).mean())

        assert cross_entropy(50) < cross_entropy(1)

    def test_deterministic_given_seed(self):
        x, y = blobs()
        a = MLPClassifier(hidden_sizes=(8,), epochs=20, seed=3).fit(x, y).predict_proba(x)
        b = MLPClassifier(hidden_sizes=(8,), epochs=20, seed=3).fit(x, y).predict_proba(x)
        assert np.allclose(a, b)

    def test_num_classes_override(self):
        x, y = blobs(k=2)
        model = MLPClassifier(epochs=5).fit(x, y, num_classes=5)
        assert model.predict_proba(x).shape == (x.shape[0], 5)

    def test_num_classes_too_small(self):
        x, y = blobs(k=3)
        with pytest.raises(ValueError):
            MLPClassifier(epochs=5).fit(x, y, num_classes=2)

    def test_empty_data(self):
        with pytest.raises(ValueError):
            MLPClassifier().fit(np.empty((0, 3)), np.empty(0, dtype=int))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            MLPClassifier().predict(np.ones((1, 3)))


class TestValidation:
    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_rejects_nonpositive_batch_size(self, batch_size):
        """A batch below 1 would take no optimizer step (or fail mid-fit)."""
        with pytest.raises(ValueError, match="batch_size"):
            MLPClassifier(batch_size=batch_size)

    @pytest.mark.parametrize("learning_rate", [0, -0.01])
    def test_rejects_nonpositive_learning_rate(self, learning_rate):
        """Checked at construction, not first when ``fit`` builds Adam."""
        with pytest.raises(ValueError, match="learning_rate"):
            MLPClassifier(learning_rate=learning_rate)

    def test_accepts_full_batch_and_positive_sizes(self):
        x, y = blobs()
        for batch_size in (None, 1, 7):
            model = MLPClassifier(epochs=2, batch_size=batch_size).fit(x, y)
            assert model.predict_proba(x).shape == (x.shape[0], 3)

class TestPredictProba:
    def test_rows_sum_to_one(self):
        x, y = blobs()
        model = MLPClassifier(hidden_sizes=(8,), epochs=20, seed=0).fit(x, y)
        p = model.predict_proba(x)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all()


class TestClone:
    def test_clone_is_unfitted_copy(self):
        model = MLPClassifier(hidden_sizes=(4,), learning_rate=0.42)
        clone = model.clone()
        assert clone.weights_ is None
        assert clone.learning_rate == 0.42
        assert clone.hidden_sizes == (4,)


class TestGradients:
    def test_backward_matches_finite_differences(self):
        """Analytic gradients agree with numerical differentiation."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, size=6)
        model = MLPClassifier(hidden_sizes=(5,), epochs=1, seed=1)
        model.fit(x, y)  # initializes and trains one epoch; weights now fixed

        y_onehot = one_hot(y, 3)

        def loss() -> float:
            probs = softmax(model.predict_logits(x))
            return float(-(y_onehot * np.log(probs + 1e-12)).sum() / x.shape[0])

        logits, activations = model._forward(x)
        probs = softmax(logits)
        grads_w, grads_b = model._backward(x.shape[0], probs - y_onehot, activations)

        eps = 1e-6
        for layer in range(2):
            w = model.weights_[layer]
            for idx in [(0, 0), (1, 2)]:
                original = w[idx]
                w[idx] = original + eps
                up = loss()
                w[idx] = original - eps
                down = loss()
                w[idx] = original
                numeric = (up - down) / (2 * eps)
                assert grads_w[layer][idx] == pytest.approx(numeric, rel=1e-4, abs=1e-7)
