"""Tests for argument-validation helpers."""

from __future__ import annotations

import pytest

from repro.utils.validation import check_fraction, check_positive


class TestNumericChecks:
    def test_positive_accepts(self):
        check_positive("x", 0.1)

    def test_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)

    def test_fraction_bounds(self):
        check_fraction("f", 0.0)
        check_fraction("f", 1.0)
        with pytest.raises(ValueError):
            check_fraction("f", 1.0001)
        with pytest.raises(ValueError):
            check_fraction("f", -0.0001)
