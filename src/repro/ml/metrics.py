"""Classification metrics and probability helpers."""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def entropy(probabilities: np.ndarray, axis: int = -1, base: float | None = None) -> np.ndarray:
    """Shannon entropy of probability vectors (Eq. 8's ``H(p_i)``).

    Zero entries contribute zero.  ``base=None`` uses nats; pass ``base=2``
    for bits.  Works on a single vector or batches along ``axis``.
    """
    p = np.asarray(probabilities, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0, np.log(p), 0.0)
    h = -(p * logp).sum(axis=axis)
    if base is not None:
        h = h / np.log(base)
    return h


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact matches; raises on shape mismatch or empty input."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("cannot compute accuracy of empty arrays")
    return float((y_true == y_pred).mean())


def misclassification_ratios(
    y_true: np.ndarray, y_pred: np.ndarray, num_classes: int
) -> np.ndarray:
    """Per-class misclassification ratio ``w_k`` (paper Sec. V-A1).

    ``w_k`` is the fraction of class-``k`` calibration nodes the LLM got
    wrong.  Classes absent from ``y_true`` get ratio 0 (no evidence of
    bias).  Out-of-range predictions (e.g. the ``-1`` unparseable-response
    sentinel) simply count as wrong.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size and (y_true.min() < 0 or y_true.max() >= num_classes):
        raise ValueError("true labels out of range")
    out = np.zeros(num_classes, dtype=float)
    for k in range(num_classes):
        members = y_true == k
        total = int(members.sum())
        if total:
            out[k] = float((y_pred[members] != k).sum()) / total
    return out
