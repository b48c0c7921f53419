"""Single-block local average regression: NWK and k-NN predictions.

The NWK weight of sample ``i`` at query ``x`` is ``K((x - X_i)/h)``
normalized by the sum over the block; when every raw weight vanishes the
query is *degenerate* and the prediction is 0 (the 0/0 convention).
k-NN averages the responses of the ``k`` nearest samples, with exact
distance ties broken toward the lower original sample index.

The scalar predictors wrap the estimator core in ``avm``: ``nwk_mean`` and
``knn_mean``, where the k-NN tie rule lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .avm import _query_matrix, knn_mean, nwk_mean
from .core import Dataset
from .kernels import KernelKind, kernel_profile


@dataclass(frozen=True)
class WeightVector:
    """Normalized localization weights aligned with a block's samples.

    ``degenerate`` is True when all raw kernel weights were zero; the
    weights are then all zero instead of summing to one.
    """

    weights: np.ndarray
    degenerate: bool


def _distances(block: Dataset, x: np.ndarray) -> np.ndarray:
    """Distances from the single query point ``x`` to the block, shape (1, n)."""
    return cdist(_query_matrix(np.reshape(x, (1, -1)), block.d), block.x)


def _check_h(h: float) -> None:
    if h <= 0:
        raise ValueError(f"bandwidth h must be positive, got {h}")


def nwk_weights(
    block: Dataset, kind: KernelKind, h: float, x: np.ndarray
) -> WeightVector:
    """NWK weights of every block sample at the query point ``x``."""
    _check_h(h)
    raw = kernel_profile(kind, _distances(block, x)[0] / h)
    total = raw.sum()
    if total == 0.0:
        return WeightVector(np.zeros_like(raw), degenerate=True)
    return WeightVector(raw / total, degenerate=False)


def nwk_predict(block: Dataset, kind: KernelKind, h: float, x: np.ndarray) -> float:
    """NWK prediction at ``x``; 0 for degenerate queries (0/0 convention)."""
    _check_h(h)
    estimates, _ = nwk_mean(_distances(block, x), block.y, kind, h)
    return float(estimates[0])


def _check_k(block: Dataset, k: int) -> int:
    k = int(k)
    if not 1 <= k <= block.n:
        raise ValueError(f"k must satisfy 1 <= k <= {block.n}, got {k}")
    return k


def knn_predict(block: Dataset, k: int, x: np.ndarray) -> float:
    """Mean response of the ``k`` samples nearest to ``x``."""
    k = _check_k(block, k)
    return float(knn_mean(_distances(block, x), block.y, k)[0])


def knn_effective_radius(block: Dataset, k: int, x: np.ndarray) -> float:
    """Distance from ``x`` to its ``k``-th nearest block sample."""
    k = _check_k(block, k)
    return float(np.partition(_distances(block, x)[0], k - 1)[k - 1])
