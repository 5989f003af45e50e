"""Tests for preprocessing helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.preprocessing import one_hot


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2, 1]), num_classes=3)
        assert out.tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]

    def test_empty(self):
        assert one_hot(np.array([], dtype=int), 3).shape == (0, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), num_classes=3)
