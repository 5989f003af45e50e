"""Small argument-validation helpers used across the library.

These raise ``ValueError`` with consistent, descriptive messages so that
misuse fails at the public API boundary rather than deep inside numpy code.
"""

from __future__ import annotations


def check_positive(name: str, value: float) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_fraction(name: str, value: float) -> None:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
