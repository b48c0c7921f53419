"""Cross-validated selection of the localization-rule constant.

The dataset is split into seeded folds; each candidate constant is scored
by fitting the single-machine estimator on the remaining folds (parameter
rule applied at the training-fold size) and averaging the held-out MSE.
The winner is the grid argmin, ties going to the smaller constant.

Every constant is scored by the prediction engine. For NWK, naive and
Gaussian, the training folds form one block and ``block_estimates``
predicts the held-out fold, so naive d=1 CV runs on the sorted-window
path. For k-NN, one ``knn_mean`` call per fold scores every candidate k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

from .avm import _rule_h_or_k, block_estimates, knn_mean
from .core import Dataset, EstimatorConfig, EstimatorFamily, mse
# kernel_profile is unused here but traced on this module by perfbench/spans.py
from .kernels import kernel_profile  # noqa: F401
from .partition import PartitionedDataset, random_partition


@dataclass(frozen=True)
class CvConfig:
    """Fold count, candidate-constant grid, and fold seed."""

    grid: tuple[float, ...]
    folds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        grid = tuple(float(c) for c in self.grid)
        if not grid:
            raise ValueError("candidate grid must be nonempty")
        if not all(0 < c < np.inf for c in grid):
            raise ValueError("candidate constants must be positive and finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("candidate grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)


def default_constant_grid(lo: float = 0.05, hi: float = 5.0, n: int = 20) -> tuple[float, ...]:
    """Log-spaced candidate constants."""
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (lo,)
    return tuple(np.geomspace(lo, hi, n))


def cv_score_grid(
    dataset: Dataset, config: EstimatorConfig, cv: CvConfig
) -> np.ndarray:
    """Mean cross-validation MSE of every candidate constant, in grid order."""
    if dataset.n < cv.folds:
        raise ValueError(f"need at least {cv.folds} samples, got {dataset.n}")
    folds = random_partition(dataset, cv.folds, cv.seed)
    scores = np.zeros((len(cv.grid), cv.folds))
    for i, (a, b) in enumerate(itertools.pairwise(folds.offsets)):
        test_x, test_y = folds.data.x[a:b], folds.data.y[a:b]
        block = PartitionedDataset.from_indices(
            dataset, [np.delete(folds.rows, slice(a, b))]
        )
        train = block.data
        params = [
            _rule_h_or_k(replace(config, constant_c=c), train.n, 1, train.n)
            for c in cv.grid
        ]
        if config.family is EstimatorFamily.KNN:
            ks = [int(k) for k in params]
            estimates = knn_mean(cdist(test_x, train.x), train.y, ks)
        else:
            estimates = [
                block_estimates(block, config.family, h, test_x)[0][0] for h in params
            ]
        for gi, fold_estimates in enumerate(estimates):
            scores[gi, i] = mse(fold_estimates, test_y)
    return scores.mean(axis=1)


def cv_select_constant(
    dataset: Dataset, config: EstimatorConfig, cv: CvConfig
) -> float:
    """Constant with the smallest mean CV-MSE; ties go to the smaller value.

    The grid is strictly increasing, so the first argmin is the tie-break
    winner.
    """
    scores = cv_score_grid(dataset, config, cv)
    return float(cv.grid[int(np.argmin(scores))])
