"""Tests for classification metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.metrics import (
    accuracy,
    entropy,
    misclassification_ratios,
    softmax,
)


class TestSoftmax:
    def test_sums_to_one(self):
        p = softmax(np.array([1.0, 2.0, 3.0]))
        assert p.sum() == pytest.approx(1.0)

    def test_stable_for_large_logits(self):
        p = softmax(np.array([1000.0, 1000.0]))
        assert np.allclose(p, [0.5, 0.5])

    def test_batch_axis(self):
        p = softmax(np.zeros((3, 4)), axis=1)
        assert np.allclose(p, 0.25)

    @given(arrays(np.float64, 5, elements=st.floats(-50, 50)))
    def test_valid_distribution(self, logits):
        p = softmax(logits)
        assert p.sum() == pytest.approx(1.0)
        assert (p >= 0).all()


class TestEntropy:
    def test_uniform_is_max(self):
        k = 4
        h_uniform = entropy(np.full(k, 1 / k))
        h_peaked = entropy(np.array([0.97, 0.01, 0.01, 0.01]))
        assert h_uniform > h_peaked

    def test_onehot_is_zero(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)

    def test_base_two(self):
        assert entropy(np.array([0.5, 0.5]), base=2) == pytest.approx(1.0)

    def test_batched(self):
        h = entropy(np.array([[0.5, 0.5], [1.0, 0.0]]), axis=1)
        assert h.shape == (2,)
        assert h[0] > h[1]


class TestAccuracy:
    def test_basic(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))


class TestMisclassificationRatios:
    def test_per_class(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 1, 1, 1])
        w = misclassification_ratios(y_true, y_pred, num_classes=3)
        assert w[0] == pytest.approx(0.5)
        assert w[1] == pytest.approx(0.0)
        assert w[2] == 0.0  # absent class gets no evidence of bias

    def test_unparsed_predictions_count_as_wrong(self):
        # -1 (parse failure sentinel) never equals a true label
        w = misclassification_ratios(np.array([0, 0]), np.array([-1, 0]), num_classes=1)
        assert w[0] == pytest.approx(0.5)
