"""Tests for the Adam optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.optim import Adam


def quadratic_grad(params):
    """Gradient of f(x) = ||x||^2 / 2 is x itself."""
    return [p.copy() for p in params]


class TestAdam:
    def test_descends_quadratic(self):
        opt = Adam(learning_rate=0.1)
        x = [np.array([10.0, -10.0])]
        for _ in range(500):
            opt.step(x, quadratic_grad(x))
        assert np.abs(x[0]).max() < 1e-2

    def test_bias_correction_first_step(self):
        """First Adam step moves by ~learning_rate regardless of grad scale."""
        for scale in (1e-3, 1.0, 1e3):
            opt = Adam(learning_rate=0.1)
            x = [np.array([1.0])]
            opt.step(x, [np.array([scale])])
            assert 1.0 - x[0][0] == pytest.approx(0.1, rel=1e-3)

    def test_handles_multiple_params(self):
        opt = Adam(learning_rate=0.05)
        params = [np.array([5.0]), np.array([[1.0, -1.0]])]
        for _ in range(400):
            opt.step(params, quadratic_grad(params))
        assert all(np.abs(p).max() < 0.05 for p in params)

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=-0.1)
