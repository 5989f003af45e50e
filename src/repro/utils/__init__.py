"""Shared utilities: deterministic RNG derivation, validation, logging."""

from repro.utils.rng import derive_seed, spawn_rng, stable_hash
from repro.utils.validation import check_fraction, check_positive

__all__ = [
    "derive_seed",
    "spawn_rng",
    "stable_hash",
    "check_fraction",
    "check_positive",
]
