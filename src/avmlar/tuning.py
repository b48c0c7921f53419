"""Cross-validated selection of the localization-rule constant.

The dataset is split into seeded folds; each candidate constant is scored
by fitting the single-machine estimator on the remaining folds (parameter
rule applied at the training-fold size) and averaging the held-out MSE.
The winner is the grid argmin, ties going to the smaller constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

from .avm import _rule_h_or_k, nwk_mean
from .core import Dataset, EstimatorConfig, EstimatorFamily
# kernel_profile is unused here but traced on this module by perfbench/spans.py
from .kernels import KernelKind, kernel_profile  # noqa: F401
from .partition import random_partition


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
        if any(c <= 0 for c in grid):
            raise ValueError("candidate constants must be positive")
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


def _naive_holdout_mses(
    dist: np.ndarray, train_y: np.ndarray, test_y: np.ndarray, bandwidths: np.ndarray
) -> np.ndarray:
    """Held-out MSE of the naive-kernel estimator at several bandwidths.

    The naive-kernel prediction at bandwidth h is the mean response over
    distances <= h, so one pass binning every distance into the sorted
    bandwidth grid yields cumulative counts and response sums for all
    bandwidths at once.
    """
    n_test, n_train = dist.shape
    n_b = bandwidths.shape[0]
    # bin b means: bandwidths[b-1] < d <= bandwidths[b] (closed ball)
    bins = np.searchsorted(bandwidths, dist, side="left")
    flat = (np.arange(n_test)[:, None] * (n_b + 1) + bins).ravel()
    counts = np.bincount(flat, minlength=n_test * (n_b + 1))
    sums = np.bincount(
        flat,
        weights=np.broadcast_to(train_y, dist.shape).ravel(),
        minlength=n_test * (n_b + 1),
    )
    counts = counts.reshape(n_test, n_b + 1)[:, :n_b].cumsum(axis=1)
    sums = sums.reshape(n_test, n_b + 1)[:, :n_b].cumsum(axis=1)
    preds = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return np.mean((preds - test_y[:, None]) ** 2, axis=0)


def cv_score_grid(
    dataset: Dataset, config: EstimatorConfig, cv: CvConfig
) -> np.ndarray:
    """Mean cross-validation MSE of every candidate constant, in grid order."""
    if dataset.n < cv.folds:
        raise ValueError(f"need at least {cv.folds} samples, got {dataset.n}")
    folds = random_partition(dataset, cv.folds, cv.seed)
    scores = np.zeros((len(cv.grid), cv.folds))
    for i in range(cv.folds):
        test_idx = folds.indices[i]
        train_idx = np.concatenate(
            [folds.indices[j] for j in range(cv.folds) if j != i]
        )
        train_x, train_y = dataset.x[train_idx], dataset.y[train_idx]
        test_x, test_y = dataset.x[test_idx], dataset.y[test_idx]
        n_train = train_x.shape[0]
        params = [
            _rule_h_or_k(replace(config, constant_c=c), n_train, 1, n_train)
            for c in cv.grid
        ]
        dist = cdist(test_x, train_x)
        if config.family is EstimatorFamily.KNN:
            order = np.argsort(dist, axis=1, kind="stable")
            prefix = np.cumsum(train_y[order], axis=1)
            for gi, k in enumerate(map(int, params)):
                pred = prefix[:, k - 1] / k
                scores[gi, i] = float(np.mean((pred - test_y) ** 2))
        elif config.family is EstimatorFamily.NWK_NAIVE:
            scores[:, i] = _naive_holdout_mses(dist, train_y, test_y, np.array(params))
        else:
            for gi, h in enumerate(params):
                pred, _ = nwk_mean(dist, train_y, KernelKind.GAUSSIAN, h)
                scores[gi, i] = float(np.mean((pred - test_y) ** 2))
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
