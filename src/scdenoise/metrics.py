"""Per-symbol error metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["mse", "ser"]


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared symbol error (1/n) sum |a_k - b_k|^2."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError("sequence length mismatch")
    d = a - b
    return float(np.mean(d.real**2 + d.imag**2))


def ser(sent_idx: np.ndarray, recovered_idx: np.ndarray) -> float:
    """Symbol error rate: fraction of mismatched indices."""
    sent_idx = np.asarray(sent_idx)
    recovered_idx = np.asarray(recovered_idx)
    if sent_idx.shape != recovered_idx.shape:
        raise ValueError("sequence length mismatch")
    return float(np.mean(sent_idx != recovered_idx))
