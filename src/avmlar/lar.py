"""Single-block NWK localization weights.

The NWK weight of sample ``i`` at query ``x`` is ``K((x - X_i)/h)``
normalized by the sum over the block; when every raw weight vanishes the
query is *degenerate* and every weight is 0 (the 0/0 convention).

A single-block estimate is the ``m=1`` case of the block-averaged
estimator: ``predict_batch`` on a one-block model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .avm import _query_matrix
from .core import Dataset
from .kernels import KernelKind, gaussian_block_weights, kernel_profile


@dataclass(frozen=True)
class WeightVector:
    """Normalized localization weights aligned with a block's samples.

    ``degenerate`` is True when all raw kernel weights were zero; the
    weights are then all zero instead of summing to one.
    """

    weights: np.ndarray
    degenerate: bool


def nwk_weights(
    block: Dataset, kind: KernelKind, h: float, x: np.ndarray
) -> WeightVector:
    """NWK weights of every block sample at the query point ``x``.

    The raw weights are those of ``predict_batch``: from one squared
    ``cdist`` row, ``kernel_profile`` of the distance over h for the naive
    kernel and ``gaussian_block_weights`` for the Gaussian one.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"bandwidth h must be positive and finite, got {h}")
    q = _query_matrix(np.reshape(x, (1, -1)), block.d)
    sq = cdist(q, block.x, "sqeuclidean")[0]
    if kind is KernelKind.GAUSSIAN:
        raw = gaussian_block_weights(sq, h)
    else:
        raw = kernel_profile(kind, np.sqrt(sq) / h)
    total = raw.sum()
    if total == 0.0:
        return WeightVector(np.zeros_like(raw), degenerate=True)
    return WeightVector(raw / total, degenerate=False)
