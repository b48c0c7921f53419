"""Divide-and-conquer block-averaged estimators and their parameter rules.

Three ways to combine per-block local estimates at a query point:

* plain averaging (``A1``): unweighted mean of the ``m`` block estimates,
  degenerate blocks contributing 0;
* data-dependent bandwidth (``A2``): plain averaging, but every block uses
  a common bandwidth derived from the block covering radii;
* qualified averaging (``A3``): the mean over *active* blocks only — those
  with at least one sample within distance ``h`` of the query.

For the k-NN family the localization radius adapts per block, so every
block is always active and all three variants coincide with A1.

Every prediction path runs through the core below: ``nwk_mean`` and
``knn_mean`` (home of the k-NN tie rule), ``block_estimates``, ``combine``,
and ``_rule_h_or_k`` for h and k.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from .core import Dataset, EstimatorConfig, EstimatorFamily
from .kernels import KernelKind, kernel_profile
from .partition import (
    MeshNormReport,
    PartitionedDataset,
    default_candidates,
    mesh_norm_report,
    random_partition,
)

_FAMILY_KERNEL = {
    EstimatorFamily.NWK_NAIVE: KernelKind.NAIVE,
    EstimatorFamily.NWK_GAUSSIAN: KernelKind.GAUSSIAN,
}


class Variant(Enum):
    A1_PLAIN = "a1"
    A2_DATA_DEPENDENT = "a2"
    A3_QUALIFIED = "a3"


class KnnRule(NamedTuple):
    k: int
    clamped: bool


def nwk_bandwidth_rule(N: int, r: float, d: int, c: float) -> float:
    """Bandwidth ``c * N^(-1/(2r+d))``."""
    if N < 1 or r <= 0 or d < 1 or c <= 0:
        raise ValueError("nwk_bandwidth_rule arguments must be positive")
    return c * float(N) ** (-1.0 / (2.0 * r + d))


def knn_k_rule(N: int, m: int, r: float, d: int, c: float) -> KnnRule:
    """Neighbor count ``round(c * N^(2r/(2r+d)) / m)``, clamped below at 1.

    The ``clamped`` flag records whether the floor was hit.
    """
    if N < 1 or m < 1 or r <= 0 or d < 1 or c <= 0:
        raise ValueError("knn_k_rule arguments must be positive")
    raw = c * float(N) ** (2.0 * r / (2.0 * r + d)) / m
    k = int(round(raw))
    if k < 1:
        return KnnRule(1, True)
    return KnnRule(k, False)


def data_dependent_bandwidth(
    mesh: MeshNormReport, m: int, r: float, d: int
) -> float:
    """Common bandwidth from block covering radii.

    Returns ``max(m^(-1/(2r+d)) * H^(d/(2r+d)), H)`` with ``H`` the largest
    block covering radius, so the result dominates every block's radius.
    Raises when all radii are zero (the rule degenerates to a zero
    bandwidth).
    """
    if m < 1 or r <= 0 or d < 1:
        raise ValueError("data_dependent_bandwidth arguments must be positive")
    h_max = max(mesh.per_block)
    if h_max <= 0.0:
        raise ValueError("all block covering radii are zero; no usable bandwidth")
    exponent = 1.0 / (2.0 * r + d)
    return max(float(m) ** (-exponent) * h_max ** (d * exponent), h_max)


@dataclass(frozen=True)
class AvmModel:
    """A partition, an estimator configuration, and localization parameters.

    ``h_or_k`` is the bandwidth (NWK) or neighbor count (k-NN); ``tilde_h``
    is the data-dependent bandwidth, set only for NWK A2 models, which
    localize with it instead of ``h_or_k``.
    """

    partition: PartitionedDataset
    config: EstimatorConfig
    variant: Variant
    h_or_k: float
    tilde_h: float | None = None

    def __post_init__(self) -> None:
        if self.config.family is EstimatorFamily.KNN:
            k = int(self.h_or_k)
            if not 1 <= k <= self.partition.min_block_size:
                raise ValueError(
                    f"k={k} out of range [1, {self.partition.min_block_size}]"
                )
        elif self.h_or_k <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.h_or_k}")
        nwk_a2 = (
            self.variant is Variant.A2_DATA_DEPENDENT
            and self.config.family is not EstimatorFamily.KNN
        )
        if nwk_a2 != (self.tilde_h is not None):
            raise ValueError("tilde_h is required for, and only for, NWK A2 models")

    @property
    def m(self) -> int:
        return self.partition.m


@dataclass(frozen=True)
class PredictionReport:
    """Combined prediction plus per-query block diagnostics."""

    value: float
    active_blocks: int
    degenerate_blocks: int


@dataclass(frozen=True)
class BatchPrediction:
    """Vectorized prediction results for a batch of query points."""

    values: np.ndarray
    active_blocks: np.ndarray
    degenerate_blocks: np.ndarray


def _rule_h_or_k(config: EstimatorConfig, n: int, m: int, min_block: int) -> float:
    """Rule h (NWK) or k (k-NN) at size ``n``, ``m`` blocks; k in [1, min_block]."""
    if config.family is EstimatorFamily.KNN:
        k = knn_k_rule(n, m, config.r, config.d, config.constant_c).k
        return float(min(k, min_block))
    return nwk_bandwidth_rule(n, config.r, config.d, config.constant_c)


def fit_avm(
    dataset: Dataset,
    config: EstimatorConfig,
    m: int,
    seed: int,
    variant: Variant = Variant.A1_PLAIN,
    *,
    h: float | None = None,
    k: int | None = None,
    candidates: np.ndarray | None = None,
) -> AvmModel:
    """Partition the data and resolve localization parameters.

    When ``h``/``k`` are omitted they come from the parameter rules at the
    full sample size ``N``, a rule ``k`` being clamped to the smallest
    block; an explicit ``k`` above it raises. For A2 the covering radii are
    computed over ``candidates`` (default: ``default_candidates(dataset)``)
    to set the common bandwidth.
    """
    part = random_partition(dataset, m, seed)
    knn = config.family is EstimatorFamily.KNN
    h_or_k = k if knn else h
    if h_or_k is None:
        h_or_k = _rule_h_or_k(config, dataset.n, m, part.min_block_size)
    tilde_h = None
    if variant is Variant.A2_DATA_DEPENDENT and not knn:
        cand = candidates if candidates is not None else default_candidates(dataset)
        mesh = mesh_norm_report(part, cand)
        tilde_h = data_dependent_bandwidth(mesh, m, config.r, config.d)
    return AvmModel(part, config, variant, float(h_or_k), tilde_h)


def _query_matrix(X: np.ndarray, d: int) -> np.ndarray:
    """Queries as a finite float64 matrix of shape (q, d)."""
    Q = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if Q.ndim != 2 or Q.shape[1] != d:
        raise ValueError(f"queries have shape {Q.shape}, expected (q, {d})")
    if not np.all(np.isfinite(Q)):
        raise ValueError("query points must be finite")
    return Q


def nwk_mean(
    dist: np.ndarray,
    y: np.ndarray,
    kind: KernelKind,
    h: float,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """NWK estimates and degenerate flags (estimate 0) per row of ``dist``.

    A given ``out`` must be zero-filled; it saves a copy per block.
    """
    raw = kernel_profile(kind, dist / h)
    den = raw.sum(axis=1)
    num = raw @ y
    ok = den > 0.0
    if out is None:
        out = np.zeros_like(num)
    return np.divide(num, den, out=out, where=ok), ~ok


def knn_mean(dist: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Mean response of the ``k`` nearest samples per row of ``dist``.

    Ties go to the lower sample index: rows whose ``k``-th distance recurs
    past the ``argpartition`` pick are re-picked with a stable sort.
    """
    if k >= dist.shape[1]:
        return np.full(dist.shape[0], y.mean())
    nearest = np.argpartition(dist, k - 1, axis=1)[:, :k]
    estimates = y[nearest].mean(axis=1)
    kth = dist[np.arange(dist.shape[0]), nearest[:, k - 1]]
    within = dist <= kth[:, None]
    # every row has at least k samples within its k-th distance
    if np.count_nonzero(within) > within.shape[0] * k:
        tied = np.count_nonzero(within, axis=1) > k
        stable = np.argsort(dist[tied], axis=1, kind="stable")[:, :k]
        estimates[tied] = y[stable].mean(axis=1)
    return estimates


def block_estimates(
    partition: PartitionedDataset,
    family: EstimatorFamily,
    h_or_k: float,
    Q: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block estimates at each query.

    Returns ``(estimates, active, degenerate)``, each of shape (m, q):
    estimates are 0 where a block is degenerate; ``active`` marks blocks
    with a sample within ``h`` of the query (every k-NN block is active
    and none is degenerate).
    """
    shape = (partition.m, Q.shape[0])
    estimates = np.zeros(shape)
    active = np.ones(shape, dtype=bool)
    degenerate = np.zeros(shape, dtype=bool)
    kind = _FAMILY_KERNEL.get(family)
    for j, block in enumerate(partition.blocks):
        dist = cdist(Q, block.x)
        if family is EstimatorFamily.KNN:
            estimates[j] = knn_mean(dist, block.y, int(h_or_k))
        else:
            _, degenerate[j] = nwk_mean(dist, block.y, kind, h_or_k, estimates[j])
            active[j] = dist.min(axis=1) <= h_or_k
    return estimates, active, degenerate


def combine(variant: Variant, estimates: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Average (m, q) block estimates per query: A3 over active blocks only."""
    if variant is Variant.A3_QUALIFIED:
        m0 = active.sum(axis=0)
        qualified = np.where(active, estimates, 0.0).sum(axis=0)
        return np.divide(qualified, m0, out=np.zeros_like(qualified), where=m0 > 0)
    return estimates.mean(axis=0)


def predict_batch(model: AvmModel, X: np.ndarray) -> BatchPrediction:
    """Evaluate the model at many query points; they must be finite."""
    Q = _query_matrix(X, model.config.d)
    h_or_k = model.h_or_k if model.tilde_h is None else model.tilde_h
    estimates, active, degenerate = block_estimates(
        model.partition, model.config.family, h_or_k, Q
    )
    return BatchPrediction(
        combine(model.variant, estimates, active),
        active.sum(axis=0),
        degenerate.sum(axis=0),
    )


def _predict_one(model: AvmModel, x: np.ndarray, variant: Variant) -> PredictionReport:
    if model.variant is not variant:
        raise ValueError(f"model variant is {model.variant}, expected {variant}")
    batch = predict_batch(model, np.asarray(x, dtype=np.float64).reshape(1, -1))
    return PredictionReport(
        float(batch.values[0]),
        int(batch.active_blocks[0]),
        int(batch.degenerate_blocks[0]),
    )


def avm_predict_a1(model: AvmModel, x: np.ndarray) -> PredictionReport:
    """Plain block average at ``x``; degenerate blocks contribute 0."""
    return _predict_one(model, x, Variant.A1_PLAIN)


def avm_predict_a2(model: AvmModel, x: np.ndarray) -> PredictionReport:
    """Block average with the data-dependent common bandwidth."""
    return _predict_one(model, x, Variant.A2_DATA_DEPENDENT)


def avm_predict_a3(model: AvmModel, x: np.ndarray) -> PredictionReport:
    """Average over active blocks only; 0 when no block qualifies."""
    return _predict_one(model, x, Variant.A3_QUALIFIED)
