"""Cross-validated selection of the localization-rule constant.

The dataset is split into seeded folds; each candidate constant is scored
by fitting the single-machine estimator on the remaining folds (parameter
rule applied at the training-fold size) and averaging the held-out MSE.
The winner is the grid argmin, ties going to the smaller constant.

Every constant is scored by the prediction engine: per fold, the training
folds form one block and one ``block_estimates`` call predicts the
held-out fold at every candidate h or k. So each family and dimension runs
on its prediction path (the sorted-run engine for naive NWK and k-NN at
d=1, dense query chunks otherwise).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
# cdist and kernel_profile are unused here but traced on this module by perfbench/spans.py
from scipy.spatial.distance import cdist  # noqa: F401

from .avm import _rule_h_or_k, block_estimates
from .core import Dataset, EstimatorConfig, mse
from .kernels import kernel_profile  # noqa: F401
from .partition import PartitionedDataset, random_partition


@dataclass(frozen=True)
class CvConfig:
    """Fold count, candidate-constant grid, and fold seed."""

    grid: tuple[float, ...]
    folds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.folds < np.inf or self.folds != int(self.folds):
            raise ValueError(f"folds must be an integer >= 2, got {self.folds}")
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
    if config.d != dataset.d:
        raise ValueError(f"config d={config.d} != data d={dataset.d}")
    if dataset.n < cv.folds:
        raise ValueError(f"need at least {cv.folds} samples, got {dataset.n}")
    folds = random_partition(dataset, cv.folds, cv.seed)
    scores = np.zeros((len(cv.grid), cv.folds))
    for i, (a, b) in enumerate(itertools.pairwise(folds.offsets)):
        test_x, test_y = folds.data.x[a:b], folds.data.y[a:b]
        rows = np.delete(folds.rows, slice(a, b))
        block, n = PartitionedDataset.from_indices(dataset, [rows]), len(rows)
        params = [_rule_h_or_k(replace(config, constant_c=c), n, 1, n) for c in cv.grid]
        estimates = block_estimates(block, config.family, params, test_x)[0][:, 0]
        scores[:, i] = [mse(fold_estimates, test_y) for fold_estimates in estimates]
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
