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

Every prediction path and CV score runs through the core below: ``nwk_mean``
(dense NWK), ``_naive_sorted_1d`` and ``_knn_sorted_1d`` (sorted NWK-naive
and k-NN at d=1), ``knn_mean`` (the one k-NN selector and tie rule, over a
grid of k), ``block_estimates``, ``combine``, and ``_rule_h_or_k`` for h
and k.

``block_estimates`` takes a grid of h or k and returns (P, m, q) arrays,
one row per parameter, reading the partition once for the grid. It picks
its path by family and input dimension. At d=1 the naive kernel and k-NN
take sorted paths over the partition's ``x_order`` (each block sorted once
per partition) and build no query x sample matrix. Every other case
(Gaussian, d>1) takes the dense path over one ``cdist`` matrix per block.
Every path measures the distance ``cdist`` computes; at d=1 that is
``distance_1d``.

* Naive NWK: a query's kernel window is the run of samples between two
  ``searchsorted`` edges, summed with ``np.add.reduceat``. The edges are
  placed by the test ``distance_1d(q, x) <= h`` itself (``_lower_edge``),
  not by ``q - h`` and ``q + h``, which can be off by many doubles. For
  finite positive ``d`` and ``h``, ``fl(d / h) <= 1`` holds exactly when
  ``d <= h``, so the naive kernel weight is nonzero exactly when the A3
  activity test holds: on this path a block is active exactly when it is
  not degenerate.
* k-NN: the k nearest samples lie in a window of 2k sorted samples around
  the query. A (block, query) pair is decided by the window alone when
  exactly k window samples lie within the k-th smallest window distance
  and both samples just outside the window are farther; those k are then
  the unique k nearest. Every other pair (duplicate runs or equal
  distances at a window edge) goes to ``knn_mean``, so ties are still
  ordered in one place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .core import Dataset, EstimatorConfig, EstimatorFamily, distance_1d
from .kernels import KernelKind, kernel_profile
from .partition import (
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


def data_dependent_bandwidth(radii: np.ndarray, r: float, d: int) -> float:
    """Common bandwidth from the covering radii of the ``m = len(radii)`` blocks.

    Returns ``max(m^(-1/(2r+d)) * H^(d/(2r+d)), H)`` with ``H`` the largest
    block covering radius, so the result dominates every block's radius.
    Raises when all radii are zero (the rule degenerates to a zero
    bandwidth).
    """
    m = len(radii)
    if m < 1 or r <= 0 or d < 1:
        raise ValueError("data_dependent_bandwidth arguments must be positive")
    h_max = float(np.max(radii))
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
        for name in ("h_or_k", "tilde_h"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.config.family is EstimatorFamily.KNN:
            k, top = self.h_or_k, self.partition.min_block_size
            if k != int(k) or not 1 <= k <= top:
                raise ValueError(f"k={k} is not an integer in [1, {top}]")
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

    ``h`` is for NWK and ``k`` for k-NN; passing the other one raises. When
    omitted they come from the parameter rules at the full sample size
    ``N``, a rule ``k`` being clamped to the smallest block; an explicit
    ``k`` above it raises. For NWK A2 the covering radii are computed over
    ``candidates`` (default: ``default_candidates(dataset)``) to set the
    common bandwidth; no other model takes ``candidates``.
    """
    knn = config.family is EstimatorFamily.KNN
    nwk_a2 = variant is Variant.A2_DATA_DEPENDENT and not knn
    if (h if knn else k) is not None:
        raise ValueError("h= is for NWK estimators and k= for k-NN only")
    if candidates is not None and not nwk_a2:
        raise ValueError("candidates= is for NWK A2 models only")
    part = random_partition(dataset, m, seed)
    h_or_k = k if knn else h
    if h_or_k is None:
        h_or_k = _rule_h_or_k(config, dataset.n, m, part.min_block_size)
    tilde_h = None
    if nwk_a2:
        cand = candidates if candidates is not None else default_candidates(dataset)
        radii = mesh_norm_report(part, cand)
        tilde_h = data_dependent_bandwidth(radii, config.r, config.d)
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
    dist: np.ndarray, y: np.ndarray, kind: KernelKind, h: float, out: np.ndarray
) -> np.ndarray:
    """Write NWK estimates per row of ``dist`` into ``out``; return degenerate flags.

    ``out`` must be zero-filled: a degenerate row (every kernel weight 0)
    keeps its estimate 0.
    """
    raw = kernel_profile(kind, dist / h)
    den = raw.sum(axis=1)
    ok = den > 0.0
    np.divide(raw @ y, den, out=out, where=ok)
    return ~ok


def knn_mean(dist: np.ndarray, y: np.ndarray, ks: Sequence[int]) -> np.ndarray:
    """Mean response of the k nearest samples per row of ``dist``, shape (len(ks), rows).

    Ties go to the lower sample index: rows whose ``max(ks)``-th distance
    recurs past the ``argpartition`` pick are re-picked with a stable sort.
    The picks are summed in (distance, index) order, so each k's row is
    bitwise the same whatever the other ks.
    """
    top = max(ks)
    nearest = np.argpartition(dist, top - 1, axis=1)[:, :top]
    kth = dist[np.arange(dist.shape[0]), nearest[:, top - 1]]
    within = dist <= kth[:, None]
    # every row has at least top samples within its top-th distance
    if np.count_nonzero(within) > within.shape[0] * top:
        tied = np.count_nonzero(within, axis=1) > top
        nearest[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :top]
    near = np.take_along_axis(dist, nearest, axis=1)
    nearest = np.take_along_axis(nearest, np.lexsort((nearest, near)), axis=1)
    sums = np.cumsum(y[nearest], axis=1)
    return np.stack([sums[:, k - 1] / k for k in ks])


# the doubles ordered as int64: sign-magnitude bits, negative half negated
_MAGNITUDE = np.int64(2**63 - 1)
_SIGN = np.int64(-(2**63))
_ORDINAL_INF = np.int64(0x7FF0000000000000)


def _ordinal(x: np.ndarray) -> np.ndarray:
    """Doubles as int64 in the same order (-0.0 and 0.0 both map to 0)."""
    bits = x.view(np.int64)
    return np.where(bits < 0, -(bits & _MAGNITUDE), bits)


def _double(i: np.ndarray) -> np.ndarray:
    """Inverse of ``_ordinal``."""
    return np.where(i < 0, -i | _SIGN, i).view(np.float64)


def _lower_edge(q: np.ndarray, h: float) -> np.ndarray:
    """Smallest double ``x`` with ``x >= q`` or ``distance_1d(q, x) <= h``, per ``q``.

    Below ``q`` the distance falls as ``x`` grows, so the samples left of
    ``q`` within ``h`` are exactly those at or above this edge. ``q - h``
    alone can miss it by many doubles, because ``q - x`` rounds when ``x``
    is far from ``q`` and its square rounds or overflows outside the
    normal range, and a run of duplicate samples can sit in that gap. The
    edge is bisected over the doubles, ordered as integers, inside a
    bracket around ``q - h``; where the bracket does not hold the edge, it
    is widened to the infinities.
    """

    def inside(x: np.ndarray) -> np.ndarray:
        return (x >= q) | (distance_1d(q, x) <= h)

    with np.errstate(over="ignore", invalid="ignore"):
        # several times the rounding of q - h and of q - x near the edge
        delta = 2.0**-48 * (np.abs(q) + h)
        lo = _ordinal(q - h - delta)  # below the edge ...
        hi = _ordinal(q - h + delta)  # ... and at or above it
    lo[inside(_double(lo))] = -_ORDINAL_INF
    hi[~inside(_double(hi))] = _ORDINAL_INF
    while True:
        # floor((lo + hi) / 2) without int64 overflow; above lo while hi - lo > 1
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
        gap = mid > lo
        if not gap.any():
            return _double(hi)
        admit = inside(_double(mid))
        hi = np.where(gap & admit, mid, hi)
        lo = np.where(gap & ~admit, mid, lo)


def _naive_sorted_1d(
    partition: PartitionedDataset, hs: Sequence[float], q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Naive-kernel block estimates and degenerate flags, shape (len(hs), m, len(q)).

    A sample is in a query's window exactly when ``distance_1d(q, x) <= h``.
    That is the dense path's kernel test ``cdist / h <= 1``: at d=1
    ``cdist`` is ``distance_1d``, and ``fl(d / h) <= 1`` holds exactly when
    ``d <= h``. Block sums run in sorted-x order.
    """
    order = np.argsort(q, kind="stable")
    # rounding is symmetric: the upper edge at q is the lower edge at -q, negated
    both = np.concatenate([q[order], -q[order]])
    estimates = np.empty((len(hs), partition.m, len(q)))
    degenerate = np.empty(estimates.shape, dtype=bool)
    # one h at a time, so the grid adds no temporaries
    sums = np.empty((partition.m, len(q)))
    counts = np.empty(sums.shape, dtype=np.intp)
    edges = np.empty(2 * len(q), dtype=np.intp)
    left, right = edges[0::2], edges[1::2]
    by_x = partition.x_order
    # one trailing sentinel makes right == n a valid reduceat index in every block
    x, y = partition.data.x[by_x, 0], np.append(partition.data.y[by_x], 0.0)
    for p, h in enumerate(hs):
        bounds = _lower_edge(both, h)
        lower, upper = bounds[: len(q)], -bounds[len(q) :]
        for j, (a, b) in enumerate(itertools.pairwise(partition.offsets)):
            left[:] = np.searchsorted(x[a:b], lower, side="left")
            right[:] = np.searchsorted(x[a:b], upper, side="right")
            # an empty window (left == right) sums one element; it is zeroed below
            sums[j] = np.add.reduceat(y[a : b + 1], edges)[0::2]
            counts[j] = right - left
        empty = counts == 0
        np.divide(sums, counts, out=sums, where=~empty)
        sums[empty] = 0.0
        estimates[p][:, order] = sums
        degenerate[p][:, order] = empty
    return estimates, degenerate


# entries of one window array of ``_knn_sorted_1d``: 1 MiB of float64, so the
# arrays stay in cache and memory stays bounded as m grows
_KNN_WINDOW_ELEMENTS = 2**17


def _knn_sorted_1d(
    partition: PartitionedDataset, ks: Sequence[int], q: np.ndarray
) -> np.ndarray:
    """k-NN block estimates at 1-d queries ``q``, shape (len(ks), m, len(q)).

    In a block sorted by x the k nearest samples of q lie among the 2k
    around q's place, so each (block, query) pair reads a window of
    w = min(2k, smallest block) samples starting at ``pos - k``, clipped to
    the block. Let D be the k-th smallest window distance. Distances fall
    then rise across the block, so when exactly k window samples lie
    within D and both samples just outside the window are farther, those k
    are the only k nearest and their mean needs no tie rule. Every other
    pair (a duplicate run, or equal distances on both sides of q, at or
    past a window edge) goes to ``knn_mean`` over its block, which orders
    the ties. Window sums run in sorted-x order. Blocks are taken in groups
    of at most ``_KNN_WINDOW_ELEMENTS`` window entries.
    """
    m, order = partition.m, np.argsort(q, kind="stable")
    qs = q[order]
    offsets, by_x = partition.offsets, partition.x_order
    x, y = partition.data.x[by_x, 0], partition.data.y[by_x]
    estimates = np.empty((len(ks), m, len(q)))
    decided = np.empty(estimates.shape, dtype=bool)
    for p, k in enumerate(ks):
        w = min(2 * k, partition.min_block_size)
        step = max(1, _KNN_WINDOW_ELEMENTS // ((len(q) + 1) * (w + 2)))
        for j in range(0, m, step):
            a, b, blocks = offsets[j], offsets[min(j + step, m)], slice(j, j + step)
            group = offsets[j : j + step + 1] - a
            means, decided[p, blocks] = _knn_windows(x[a:b], y[a:b], group, k, w, qs)
            estimates[p][blocks, order] = means
    x, y = partition.data.x, partition.data.y
    for p, j in zip(*np.nonzero(~decided.all(axis=2))):
        a, b = offsets[j : j + 2]
        rows = order[~decided[p, j]]
        estimates[p, j, rows] = knn_mean(cdist(q[rows, None], x[a:b]), y[a:b], [ks[p]])[0]
    return estimates


def _knn_windows(
    x: np.ndarray, y: np.ndarray, offsets: np.ndarray, k: int, w: int, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Window means and decided flags, shape (blocks, len(q)), at sorted ``q``.

    ``x`` and ``y`` hold the blocks ``offsets`` delimits, each sorted by x.
    """
    m, t = len(offsets) - 1, len(q)
    starts, sizes = offsets[:-1, None], np.diff(offsets)[:, None]
    # pos[j, i]: the samples of block j below query i. A sample is below the
    # sorted queries from the first one above it on, so count per block the
    # samples whose first query above is each query, and accumulate
    above = np.searchsorted(q, x, side="right")
    block = np.repeat(np.arange(m), sizes[:, 0])
    counts = np.bincount(block * (t + 1) + above, minlength=m * (t + 1))
    pos = counts.reshape(m, t + 1).cumsum(axis=1)[:, :t]
    first = np.clip(pos - k, 0, sizes - w) + starts
    # the window with one sample either side; a side past the block end is inf
    idx = first + np.arange(-1, w + 1)[:, None, None]
    dist = x.take(idx, mode="clip")
    distance_1d(q, dist, out=dist)
    dist[0][first == starts] = np.inf
    dist[-1][first + w == starts + sizes] = np.inf
    window = dist[1:-1]
    # over a run of k the larger end distance is the run's largest, and the
    # least of those over the window's runs is its k-th smallest distance
    kth = np.maximum(window[: w - k + 1], window[k - 1 :]).min(axis=0)
    outside = window > kth
    decided = (outside.sum(axis=0) == w - k) & (dist[0] > kth) & (dist[-1] > kth)
    # responses overwrite distances: allocating window arrays is most of the cost
    ys = y.take(idx[1:-1], out=window, mode="clip")
    np.copyto(ys, 0.0, where=outside)
    return ys.sum(axis=0) / k, decided


def block_estimates(
    partition: PartitionedDataset,
    family: EstimatorFamily,
    params: Sequence[float],
    Q: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block estimates at each query, for every h or k in ``params``.

    Returns ``(estimates, active, degenerate)``, each of shape (P, m, q)
    with P = len(params); row p is bitwise the result for ``[params[p]]``.
    Estimates are 0 where a block is degenerate; ``active`` marks blocks
    with a sample within ``h`` of the query (every k-NN block is active
    and none is degenerate).

    At d=1 the naive kernel and k-NN take the sorted paths
    ``_naive_sorted_1d`` and ``_knn_sorted_1d``, which share one query sort
    over the grid; on the naive path a block is active exactly when it is
    not degenerate (see the module docstring). Every other case builds one
    ``cdist`` matrix per block, which serves the whole grid.
    """
    shape = (len(params), partition.m, Q.shape[0])
    if family is EstimatorFamily.KNN:
        params = [int(k) for k in params]
    if Q.shape[1] == 1 and family is EstimatorFamily.NWK_NAIVE:
        estimates, degenerate = _naive_sorted_1d(partition, params, Q[:, 0])
        return estimates, ~degenerate, degenerate
    if Q.shape[1] == 1 and family is EstimatorFamily.KNN:
        estimates = _knn_sorted_1d(partition, params, Q[:, 0])
        return estimates, np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)
    estimates = np.zeros(shape)
    active = np.ones(shape, dtype=bool)
    degenerate = np.zeros(shape, dtype=bool)
    kind = _FAMILY_KERNEL.get(family)
    x, y = partition.data.x, partition.data.y
    for j, (a, b) in enumerate(itertools.pairwise(partition.offsets)):
        dist = cdist(Q, x[a:b])
        if family is EstimatorFamily.KNN:
            estimates[:, j] = knn_mean(dist, y[a:b], params)
        else:
            nearest = dist.min(axis=1)
            for p, h in enumerate(params):
                degenerate[p, j] = nwk_mean(dist, y[a:b], kind, h, estimates[p, j])
                active[p, j] = nearest <= h
    return estimates, active, degenerate


def combine(variant: Variant, estimates: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Average (m, q) block estimates per query: A3 over active blocks only."""
    if variant is Variant.A3_QUALIFIED:
        m0 = active.sum(axis=0)
        qualified = np.where(active, estimates, 0.0).sum(axis=0)
        return np.divide(qualified, m0, out=np.zeros_like(qualified), where=m0 > 0)
    return estimates.mean(axis=0)


def predict_batch(model: AvmModel, X: np.ndarray) -> BatchPrediction:
    """Evaluate the model at finite query points, one per row of ``X``.

    This is the only prediction entry point: the model carries its variant,
    and one query is a one-row batch (a 1-d ``X`` is read as one row).
    """
    Q = _query_matrix(X, model.config.d)
    h_or_k = model.h_or_k if model.tilde_h is None else model.tilde_h
    estimates, active, degenerate = block_estimates(
        model.partition, model.config.family, [h_or_k], Q
    )
    return BatchPrediction(
        combine(model.variant, estimates[0], active[0]),
        active[0].sum(axis=0),
        degenerate[0].sum(axis=0),
    )
