"""Kernel functions for the Nadaraya-Watson estimator.

Two kernels are supported: the naive (unit-ball indicator) kernel and the
Gaussian kernel ``exp(-||u||^2)``. Both depend on the input only through
its Euclidean norm.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class KernelKind(Enum):
    NAIVE = "naive"
    GAUSSIAN = "gaussian"


def kernel_profile(kind: KernelKind, norms: np.ndarray) -> np.ndarray:
    """Evaluate the kernel on precomputed Euclidean norms.

    Vectorized workhorse shared by the weight and prediction code. The
    naive kernel uses the closed unit ball (norm == 1 counts as inside).
    """
    s = np.asarray(norms, dtype=np.float64)
    if kind is KernelKind.NAIVE:
        return (s <= 1.0).astype(np.float64)
    if kind is KernelKind.GAUSSIAN:
        # one buffer, bitwise np.exp(-(s**2)); empty_like keeps 0-d inputs 0-d
        u = np.square(s, out=np.empty_like(s))
        np.negative(u, out=u)
        return np.exp(u, out=u)
    raise ValueError(f"unknown kernel kind: {kind!r}")

