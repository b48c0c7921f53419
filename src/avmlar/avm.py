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

Every prediction path and CV score runs through the core below:
``_sorted_1d`` (NWK-naive and k-NN at d=1), ``_naive_tree`` (NWK-naive
at d>1 on small balls), ``knn_mean`` (the one k-NN selector and tie rule,
over a grid of k, called by ``_knn_dense`` alone), ``_nwk_dense`` (the
other NWK cases), ``block_estimates``, ``combine``, and ``_rule_h_or_k``
for h and k.

``block_estimates`` takes a grid of h or k and returns (P, m, q) arrays,
one row per parameter, reading the partition once for the grid. It picks
its path by family and input dimension. At d=1 the naive kernel and k-NN
take ``_sorted_1d`` over the partition's ``x_order`` (x sorted once per
partition, then each block by one stable pass), build no query x sample
matrix, and write their outputs in block groups of about ``_GROUP_PAIRS``
(block, query) pairs. At d>1 a naive h
whose ball is small takes ``_naive_tree`` over the partition's ``kdtree``
(built once per partition, and only then): ``_ball_share``, the share of
the partition's ``probe_distances`` (a fixed sample of its pair distances)
at most h, is below ``_TREE_BALL_SHARE`` (2 %, halved for each dimension
past 5). That rule reads only the partition and h, so no query's value
depends on the others in its batch, and it measures the data's own
occupancy, clustered or not. The tree's candidates come in batches of
fewer than ``_CHUNK_PAIRS``, or one query's ball (``_ball_candidates``).
Every other case (Gaussian, k-NN and wide naive balls at d>1, Gaussian at
d=1) is dense, in query chunks of about ``_CHUNK_PAIRS`` distances. NWK
(``_nwk_dense``) takes one squared ``cdist`` per chunk into a buffer of
the call, and each h its weights into a second one: the Gaussian
``gaussian_weights``, ``exp(s * (-1 / h**2))``, and the naive kernel's
``s <= _square_bound(h)``. It sums each block's columns of the block-major
samples with ``np.add.reduceat``, or, where blocks are many and small
(``_takes_grid``), over the position axis of the partition's
``position_grid`` (built once per partition, and only then). k-NN takes
one ``cdist`` per block and chunk for ``knn_mean``. Every path
decides which samples count and which blocks are active by the distance
``cdist`` computes: at d=1 that is ``distance_1d``, on the tree a
sequential sum of squared gaps, and on the dense path the bound on its
square, which holds exactly where the root is within h. The Gaussian
weights take the square itself, a few ulps of ``(dist / h)**2`` from the
distance formula ``kernel_profile(GAUSSIAN, dist / h)``; a pair whose
weights sum below ``GAUSSIAN_EXACT_BELOW``, where they may be subnormal,
is summed by the distance formula, bitwise, unless its nearest square is
past ``gaussian_zero_beyond(h)``, where every weight is exactly 0 by
either formula (``kernels.gaussian_block_weights`` is the rule for one
query and one block). The tree path sums each (query, block) pair's
samples within h alone, the dense one each block's row of kernel
weights, zeros included, so the two may differ in the last bit, never in
which samples they count.

At d=1 both estimates are the mean of a run [lo, hi) of the sorted block,
lo and hi counts of samples or keys below a threshold. Along a block's
sorted queries the run changes only where a sample starts to count, so a
block of n samples has at most 2n + 1 distinct runs. ``_runs`` lists them:
where blocks are small, from placing each sample once among the sorted
queries, O(N + m) of them; where they are large, from a search per block.
``_run_means`` sums each run once with ``np.add.reduceat`` (a k-NN run of
one sample is its y), and each block group repeats the means and the run
flags by run length into sorted query order and takes them into query order.

* Naive NWK: the run is the window ``distance_1d(q, x) <= h``, its edges
  the first samples inside it, found by bisecting the sorted samples with
  that test itself (``_naive_edges``), not from ``q - h`` and ``q + h``,
  which can be off by many doubles. For finite positive ``d`` and ``h``,
  ``fl(d / h) <= 1`` holds exactly when ``d <= h``, so the naive kernel
  weight is nonzero exactly when the A3 activity test holds: on this path
  a block is active exactly when it is not degenerate.
* k-NN: lo counts the keys ``x[i] + x[i + k]`` exactly below ``2q``, as
  the run moves past sample i while ``x[i + k]`` is nearer q, and hi is
  lo + k. The key can overflow and ``distance_1d`` rounds, so it only
  steers: a pair is decided when both samples just outside the run are
  farther, by ``distance_1d``, than the larger run end (distances fall then
  rise along the block, so the run is the unique k nearest; ``_run_sides``
  reads them). Each run is decided once where it can be: ``_knn_certified``
  proves the test for all its pairs from one exact margin at each of its
  end queries, and only the pairs of the flagged runs take the per-pair
  test. Every undecided pair goes to ``_knn_dense``, so ties are still
  ordered in one place.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .core import Dataset, EstimatorConfig, EstimatorFamily, cdist_norms, distance_1d
# kernel_profile is unused here but traced on this module by perfbench/spans.py
from .kernels import (
    GAUSSIAN_EXACT_BELOW,
    KernelKind,
    exact_gaussian_weights,
    gaussian_weights,
    gaussian_zero_beyond,
    kernel_profile,  # noqa: F401
)
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


def _check_rule_args(rule: str, counts: Sequence[float], reals: Sequence[float]) -> None:
    """Raise unless every count is a positive whole number and every real is
    positive and finite."""
    if not (
        all(1 <= n < np.inf and n == int(n) for n in counts)
        and all(0 < v < np.inf for v in reals)
    ):
        raise ValueError(f"{rule} takes whole counts >= 1 and finite positive r and c")


def nwk_bandwidth_rule(N: int, r: float, d: int, c: float) -> float:
    """Bandwidth ``c * N^(-1/(2r+d))``."""
    _check_rule_args("nwk_bandwidth_rule", (N, d), (r, c))
    return c * float(N) ** (-1.0 / (2.0 * r + d))


def knn_k_rule(N: int, m: int, r: float, d: int, c: float) -> KnnRule:
    """Neighbor count ``round(c * N^(2r/(2r+d)) / m)``, clamped below at 1.

    The ``clamped`` flag records whether the floor was hit.
    """
    _check_rule_args("knn_k_rule", (N, m, d), (r, c))
    k = c * float(N) ** (2.0 * r / (2.0 * r + d)) / m
    if k == np.inf:
        raise ValueError(f"knn_k_rule overflows at c={c}")
    k = int(round(k))
    return KnnRule(max(k, 1), k < 1)


def data_dependent_bandwidth(radii: np.ndarray, r: float, d: int) -> float:
    """Common bandwidth from the covering radii of the ``m = len(radii)`` blocks.

    Returns ``max(m^(-1/(2r+d)) * H^(d/(2r+d)), H)`` with ``H`` the largest
    block covering radius, so the result dominates every block's radius.
    Raises when a radius is not finite or all radii are zero (the rule
    degenerates to a zero bandwidth).
    """
    m = len(radii)
    if m < 1 or r <= 0 or d < 1:
        raise ValueError("data_dependent_bandwidth arguments must be positive")
    if not np.all(np.isfinite(radii)):
        raise ValueError("block covering radii must be finite")
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
        if self.config.d != self.partition.data.d:
            raise ValueError(f"config d={self.config.d} != data d={self.partition.data.d}")
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


def _naive_edges(xs: np.ndarray, q: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Naive window edges ``(lower, upper)`` at sorted ``q`` among the sorted samples ``xs``.

    ``lower`` is the first sample that passes ``x >= q or distance_1d(q, x) <= h``
    (inf where none does), and ``upper``, as rounding is symmetric, the same
    search at ``-q`` over ``-xs[::-1]``, negated: one bisection over 2t lanes,
    in ceil(log2(N + 1)) steps. The edges are exact:

    * ``distance_1d`` rounds monotonically, so the samples that fail the test
      are a prefix of ``xs``, and those below the first passing sample are
      exactly the failing ones: ``_runs`` gets the lo and hi of the exact edge;
    * a sample that passes at ``q`` passes at every smaller ``q``, so the edges
      are nondecreasing in ``q``, as ``_runs`` requires to place the samples
      among them;
    * the test is the dense path's, so subnormal or overflowing squares need
      no special case.
    """
    n, t = len(xs), len(q)
    # the two searches over one array, each half closed by inf, which passes
    values = np.concatenate([xs, [np.inf], -xs[::-1], [np.inf]])
    lanes = np.concatenate([q, -q])
    pos = np.repeat([0, n + 1], t)  # each lane's start plus its samples known to fail
    last = pos + n  # each lane's closing inf
    for s in 2 ** np.arange(n.bit_length())[::-1]:
        x = values[np.minimum(pos + (s - 1), last)]
        pos += s * ~((x >= lanes) | (distance_1d(lanes, x) <= h))
    edges = values[pos]
    return edges[:t], -edges[t:]


# distances per dense query chunk or ``knn_mean`` call: temporaries stay
# O(pairs) as N, m and k grow, and a dense chunk stays cache-sized
_CHUNK_PAIRS = 2**16

# (block, query) pairs per block group of ``_sorted_1d``: a group's expanded
# float arrays take 256 KiB each, so the few alive at once stay about L2-sized
# (2 MiB a core). At N=10,000 and 1,000 queries (two runs of interleaved
# calls), 2**13 took 1.13-1.37 times the time of 2**15 at m=350 and m=2,000,
# 2**14 1.01-1.12 and 2**16 0.96-1.06, for both families; the naive kernel
# at m=5 and m=50 moved by at most 3 %, and k-NN at m=50 took 0.89-0.94
# times as long at 2**13 and 2**14
_GROUP_PAIRS = 2**15

# a naive h at d>1 takes the k-d tree while ``_ball_share``, the measured
# share of samples in a ball, is below this share, halved for each dimension
# past 5, and a wider ball the dense loop: ball queries grow with the ball and
# with d, the dense loop does not. On N=10,000 (50 queries at m=8 and 1,000
# at m=5; uniform d=2, 3, 5, 6 and 8, points along 30 line segments at d=2
# and 20 Gaussian clusters at d=5; one core of a 2-core VM) the two broke
# even at about 2.5 % at d=5, 3.5-5 % on the d=2, d=3 and clustered data,
# above 1 % at d=6 and about 1 % at d=8; at the limit the tree took 0.44-0.75
# times the dense loop's time at d <= 5, 0.48-0.57 at d=6 and d=8
_TREE_BALL_SHARE = 0.02
# ball queries take radius h * (1 + _TREE_SLACK), as the tree sums squared
# gaps in its own order; the sum in ``cdist``'s order then decides membership
_TREE_SLACK = 1e-9
# ``cKDTree`` raises once a squared distance it takes overflows; with h and
# every side of the samples' box below this span, none within h of the box can
_TREE_MAX_SPAN = 1e150
# the dense NWK loop sums over the partition's ``position_grid`` where there
# are more blocks than the largest holds samples, and its padding averages at
# most this many columns a block; else each block by ``np.add.reduceat``. At
# N=10,000 and 50 or 1,000 queries on random partitions (both kernels at d=5,
# Gaussian at d=1) the grid took 1.14-1.88 times the time of ``reduceat`` at
# m=20 to 50 (500 to 200 samples a block), 1.01-1.12 at m=100 (100 samples),
# 0.88-0.94 at m=200 and 0.63-0.80 at m=1024, and 0.53-0.76 at m=4,000 and
# 6,667 (0.5 padding columns a block). With m=1,000 uneven blocks (20 or 12
# samples and one sample, d=5) it took 0.74-0.83 at 1.1 padding columns a
# block, 0.93-1.00 at 3.5, 0.98-1.07 at 4.0, 1.03-1.11 at 5, 1.10-1.23 at 6
# and 1.36-2.34 at 9.5-13.3: the break-even lies between 3.5 and 4
_GRID_PADDING = 3.5
# ``_ball_candidates`` yields a batch from this many candidates, so one holds
# fewer than ``_CHUNK_PAIRS`` where a query's ball could not hold more
_TREE_PAIRS = _CHUNK_PAIRS // 2


def _sorted_1d(
    partition: PartitionedDataset, family: EstimatorFamily, params: Sequence[float], q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run means and flags at 1-d queries ``q``, shape (len(params), m, len(q)).

    Flags mark the degenerate pairs (naive) or the undecided ones (k-NN).
    Each h or k lists the partition's runs (``_runs``), sums each once and
    flags the runs that are empty (naive) or that ``_knn_certified`` does
    not certify (k-NN). Then each block group of about ``_GROUP_PAIRS``
    (block, query) pairs repeats the run means and flags by run length into
    sorted query order and takes them into query order; a group with no
    flagged run writes False flags. k-NN then re-tests each flagged pair
    alone, with the samples of ``_run_sides``.
    """
    m, t, naive = partition.m, len(q), family is EstimatorFamily.NWK_NAIVE
    estimates = np.empty((len(params), m, t))
    flags = np.empty(estimates.shape, dtype=bool)
    if not t:
        return estimates, flags
    order = np.argsort(q, kind="stable")
    qs = q[order]
    inv = np.empty_like(order)  # each query's position in qs
    inv[order] = np.arange(t)
    offsets, ranks = partition.offsets, partition.x_rank
    xs = partition.data.x[partition.x_sort, 0]
    x, y = xs[ranks], partition.data.y[partition.x_order]
    edge = np.zeros(len(x) + 1, dtype=bool)  # where a block starts or the samples end
    edge[offsets] = True
    step = max(1, _GROUP_PAIRS // t)
    groups = np.arange(0, m, step)
    for p, h_or_k in enumerate(params):
        if naive:
            # the edges are samples: lo counts those below lower, hi those at or below upper
            lower, upper = _naive_edges(xs, qs, h_or_k)
            starts, (lo, hi) = _runs(
                offsets, t, [(x, lower, "left"), (x, upper, "right")], (xs, ranks)
            )
            means, flagged = _run_means(y, lo, hi), hi == lo
        else:
            # key[i] = x[i] + x[i + k], one double down where it rounded up
            # (TwoSum's error is negative), so ``key < 2q`` is exact; inf where
            # i + k is past i's block, so that key counts for no query
            k, key = h_or_k, np.empty_like(x)
            with np.errstate(over="ignore", invalid="ignore"):
                twice = 2 * qs
                near, far = x[:-k], x[k:]
                s = np.add(near, far, out=key[:-k])
                err = (near - (s - (s - near))) + (far - (s - near))
                np.nextafter(s, -np.inf, out=s, where=err < 0)
            key[(offsets[1:, None] - k + np.arange(k)).ravel()] = np.inf
            starts, (lo,) = _runs(offsets, t, [(key, twice, "left")])
            # a run of one sample is its y: its sum, over a count of 1
            means = y[lo] if k == 1 else _run_means(y, lo, lo + k)
            flagged = ~_knn_certified(x, qs, edge, starts, lo, k)
        bounds = np.searchsorted(starts, np.append(groups, m) * t)
        for j, r0, r1 in zip(groups, bounds, bounds[1:]):
            # the group's runs, repeated by length into (block, sorted query) pairs
            g, runs = min(step, m - j), slice(r0, r1)
            size = np.diff(starts[runs], append=(j + g) * t)
            sorted_means = np.repeat(means[runs], size).reshape(g, t)
            np.take(sorted_means, inv, axis=1, out=estimates[p, j : j + g], mode="clip")
            open_runs = flagged[runs]
            if not open_runs.any():
                flags[p, j : j + g] = False
                continue
            flag = np.repeat(open_runs, size)
            if not naive:
                # each pair of an uncertified run alone: decided where each side's
                # outside sample is past a block end or farther than both run ends
                pair = np.flatnonzero(flag)
                qp = qs[pair % t]
                run_lo = np.repeat(lo[runs][open_runs], size[open_runs])
                a, u, v, b, no_left, no_right = _run_sides(x, edge, run_lo, k)
                end = np.maximum(distance_1d(qp, u), distance_1d(qp, v))
                decided = (distance_1d(qp, a) > end) | no_left
                decided &= (distance_1d(qp, b) > end) | no_right
                flag[pair] = ~decided
            np.take(flag.reshape(g, t), inv, axis=1, out=flags[p, j : j + g], mode="clip")
    return estimates, flags


# a run's margin certifies it when above this share of the run's widest
# distance (rounding needs about 10 * 2**-53 of it) and this floor, with the
# widest distance at most this ceiling, so that every square of the per-pair
# test is a normal double or below the margin's (``_knn_certified``)
_MARGIN_SHARE = 2.0**-48
_MARGIN_FLOOR = 2.0**-500
_WIDTH_CEILING = 2.0**500


def _run_sides(x: np.ndarray, edge: np.ndarray, lo: np.ndarray, k: int) -> tuple:
    """``(a, u, v, b, no_left, no_right)`` of the k-NN runs at ``lo`` of the
    block-sorted ``x``: a run holds ``u = x[lo] <= v = x[lo + k - 1]``, just
    outside it are ``a = x[lo - 1]`` and ``b = x[lo + k]``, and where a block
    end (``edge``) bounds a side, it has no sample there and a is u, or b is v."""
    after = lo + k
    no_left, no_right = edge[lo], edge[after]
    return x[lo - 1 + no_left], x[lo], x[after - 1], x[after - no_right], no_left, no_right


def _knn_certified(
    x: np.ndarray, qs: np.ndarray, edge: np.ndarray, starts: np.ndarray, lo: np.ndarray, k: int
) -> np.ndarray:
    """Runs of k-NN ``_sorted_1d`` whose every pair its per-pair test decides.

    ``starts`` and ``lo`` are the runs of ``_runs`` (their first pairs,
    block * t + query, and lo) over the block-sorted samples ``x`` and the
    sorted queries ``qs``; ``edge`` marks the block ends. A run holds the
    block samples ``u <= v`` of ``_run_sides`` for the sorted queries
    ``q0 <= q <= q1``, and ``a`` and ``b`` are the samples just outside it,
    where its block has them. Exactly, the margins of the per-pair test
    are, for q > a and q < b,

    * ``M_L(q) = |q - a| - max(|q - u|, |q - v|) = min(u - a, 2q - a - v)``,
      nondecreasing in q; and ``M_L(q0) > 0`` gives ``q0 > a``, as at
      ``q <= a`` the right side is at most ``a - v <= 0``;
    * ``M_R(q) = |b - q| - max(|q - u|, |q - v|) = min(b - v, b + u - 2q)``,
      nonincreasing in q, and ``M_R(q1) > 0`` gives ``q1 < b``.

    So positive margins at the run's end queries hold at every query of
    the run. In floats, with eps = 2**-53, every distance of the run is at
    most ``W = max(q1 - a, b - q0)`` (with u for a and v for b where a side
    has no sample). The margins, computed as
    ``min(u - a, (q0 - a) - (v - q0))`` and
    ``min(b - v, (b - q1) - (q1 - u))``, are off by at most 4 eps W, and
    ``distance_1d`` by at most 2.5 eps of each distance while its square is
    a normal double, so a true margin above 6 eps W makes the outsider's
    distance strictly the larger. A certified margin exceeds
    ``_MARGIN_SHARE * W`` (32 eps W) and ``_MARGIN_FLOOR``, and W is at most
    ``_WIDTH_CEILING``. Then the outsider's distance, at least the margin,
    squares to a normal double, and every distance of the run to a finite
    one; a run end whose square is subnormal is at most 2**-511 away, nearer
    than the outsider. A side with no sample needs no margin.

    The certificate reads only the samples and queries of the run, not how
    the run was found, so a run from an overflowing key is certified only
    where it is the unique k nearest. O(runs) memory.
    """
    # a run's pairs are block * t + query (the block is 0 where no run is
    # past the first); its last query is one before the next run's first, or
    # the block's last (index -1) where the next run opens a block
    t = len(qs)
    first = starts - starts // t * t if starts[-1] >= t else starts
    q0, q1 = qs[first], qs[np.append(first[1:], 0) - 1]
    a, u, v, b, no_left, no_right = _run_sides(x, edge, lo, k)
    with np.errstate(over="ignore", invalid="ignore"):
        width = np.maximum(q1 - a, b - q0)
        bound = np.maximum(width * _MARGIN_SHARE, _MARGIN_FLOOR)
        left = np.minimum(u - a, (q0 - a) - (v - q0)) > bound
        right = np.minimum(b - v, (b - q1) - (q1 - u)) > bound
        return (left | no_left) & (right | no_right) & (width <= _WIDTH_CEILING)


def _runs(
    offsets: np.ndarray,
    t: int,
    counts: Sequence[tuple[np.ndarray, np.ndarray, str]],
    sort: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Runs of equal counts over the (block, threshold) pairs, block-major.

    Each ``(v, thr, side)`` of ``counts`` counts, at block j and threshold
    i, block j's start plus its samples ``v[offsets[j]:offsets[j + 1]]``
    below (``side="right"``: at or below) ``thr[i]``. Each block's ``v``
    and ``thr`` are sorted, so the counts rise along a block. Returns the
    pair ``j * t + i`` at which each run begins, every block's first pair
    among them, and each count there.

    Blocks that hold more samples, on average, than half the thresholds
    are searched one by one, per threshold. Smaller ones place each sample
    once among the thresholds: it counts from the first one it is below
    (at or below), its key is ``block * t + place``, and the keys rise in
    block-major order. One merge of every count's keys, tagged, with the
    blocks' first pairs gives the runs, which begin at the distinct keys,
    and each count, the number of its keys up to a key's last copy: O(N +
    m) values, however many pairs. With ``sort``, a sorted ``vs`` and the
    ``ranks`` with ``v = vs[ranks]`` (the same for every count), the places
    come from where the thresholds fall among ``vs``, without a search per
    sample: naive ``block_estimates`` at m=50 to 2,000 took 0.80-0.88 times
    the time of a search per sample.

    At N=10,000 and 1,000 queries (two runs) the search per block took
    0.50-0.79 times the placement's time at m <= 5 and 0.78-0.99 at m=10
    to 20, and 1.03-1.17 times at m=30 and 1.28-1.83 at m=100; at 200
    queries, 0.91-0.97 times at 200 samples per block and 1.04-1.16 at 100.
    """
    m = len(offsets) - 1
    if 2 * offsets[-1] > m * t:
        pairs = [
            np.concatenate(
                [np.searchsorted(v[a:b], thr, side) + a for a, b in itertools.pairwise(offsets)]
            )
            for v, thr, side in counts
        ]
        new = np.zeros(m * t, dtype=bool)
        new[::t] = True
        for c in pairs:
            new[1:] |= c[1:] != c[:-1]
        starts = np.flatnonzero(new)
        return starts, [c[starts] for c in pairs]
    first, tags = np.arange(0, m * t, t), len(counts) + 1
    block = np.repeat(first, np.diff(offsets))
    keys = [first * tags]
    for tag, (v, thr, side) in enumerate(counts, 1):
        if sort is None:
            place = np.searchsorted(thr, v, "right" if side == "left" else "left")
        else:
            # vs[r] counts from the first threshold whose position among vs is r or less
            vs, ranks = sort
            at = np.searchsorted(vs, thr, side)
            place = np.bincount(at, minlength=len(vs) + 1).cumsum()[ranks]
        keys.append((block + place) * tags + tag)
    # a stable sort merges the sorted runs; a key m * t counts for no pair
    key, tag = np.divmod(np.sort(np.concatenate(keys), kind="stable"), tags)
    last = np.flatnonzero(np.diff(key, append=-1))
    last = last[key[last] < m * t]
    return key[last], [np.cumsum(tag == c)[last] for c in range(1, tags)]


def _run_means(y: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mean of ``y[lo:hi]`` per entry of ``lo`` and ``hi``, 0 where the run
    is empty, each run summed once by ``np.add.reduceat`` over the
    interleaved edges (lo, hi); a trailing 0 makes a run end at ``len(y)``
    a valid index."""
    sums = np.add.reduceat(np.append(y, 0.0), np.stack([lo, hi], axis=1).ravel())[0::2]
    size = hi - lo
    return np.divide(sums, size, out=np.zeros_like(sums), where=size > 0)


def _knn_dense(
    partition: PartitionedDataset,
    ks: Sequence[int],
    Q: np.ndarray,
    estimates: np.ndarray,
    todo: np.ndarray,
) -> None:
    """Write ``knn_mean`` into the (len(ks), m, q) ``estimates`` where ``todo`` is set.

    Per block, the rows with a pair to do take one ``cdist`` per chunk of
    about ``_CHUNK_PAIRS`` distances; a row's means do not depend on the
    other rows or ks, so no value written depends on the chunks or on
    which other pairs are to do.
    """
    x, y, offsets = partition.data.x, partition.data.y, partition.offsets
    for j in np.flatnonzero(todo.any(axis=(0, 2))):
        a, b = offsets[j : j + 2]
        rows, size = np.flatnonzero(todo[:, j].any(axis=0)), max(1, _CHUNK_PAIRS // (b - a))
        for r in np.array_split(rows, range(size, len(rows), size)):
            means = knn_mean(cdist(Q[r], x[a:b]), y[a:b], ks)
            estimates[:, j, r] = np.where(todo[:, j, r], means, estimates[:, j, r])


def _ball_share(partition: PartitionedDataset, h: float) -> float:
    """Share of the partition's ``probe_distances`` at most ``h``, 1 with none:
    how many samples a ball of radius h around a sample holds, measured."""
    probe = partition.probe_distances
    return np.searchsorted(probe, h, "right") / probe.size if probe.size else 1.0


def _tree_params(partition: PartitionedDataset, params: Sequence[float]) -> list[int]:
    """Rows of the naive ``params`` at d>1 that take ``_naive_tree``.

    An h takes the tree while its ``_ball_share`` is below
    ``_TREE_BALL_SHARE``, halved for each dimension past 5, unless h or a
    side of the samples' box reaches ``_TREE_MAX_SPAN``. Only then is the
    partition's tree built.
    """
    limit = _TREE_BALL_SHARE / 2 ** max(0, partition.data.d - 5)
    small = [
        p
        for p, h in enumerate(params)
        if h < _TREE_MAX_SPAN and _ball_share(partition, h) < limit
    ]
    if small:
        tree = partition.kdtree
        with np.errstate(over="ignore"):
            if not (tree.maxes - tree.mins).max() < _TREE_MAX_SPAN:
                return []
    return small


def _ball_candidates(tree, Q: np.ndarray, rows: np.ndarray, radius: float):
    """``(row, idx)`` arrays pairing each of the query ``rows`` with the tree's
    samples within ``radius``, in row then sample order.

    Each ball query takes as many rows as would hold ``_TREE_PAIRS``
    candidates were every sample one (at least one row), and a batch is
    yielded once it holds ``_TREE_PAIRS`` candidates or the rows run out:
    so a batch holds fewer than ``_TREE_PAIRS`` plus the larger of
    ``_TREE_PAIRS`` and N candidates whatever the data, and many small
    balls make few batches.
    """
    size, found, held, start = max(1, _TREE_PAIRS // tree.n), [], 0, 0
    for r in range(0, len(rows), size):
        group = tree.query_ball_point(Q[rows[r : r + size]], radius, return_sorted=True)
        found.extend(group)
        held += sum(map(len, group))
        if held >= _TREE_PAIRS or r + size >= len(rows):
            counts = np.fromiter(map(len, found), np.intp, len(found))
            idx = np.fromiter(itertools.chain.from_iterable(found), np.intp, held)
            found, held, group = [], 0, None
            yield np.repeat(rows[start : r + size], counts), idx
            start = r + size


def _naive_tree(
    partition: PartitionedDataset, params: Sequence[float], Q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Naive NWK means and degenerate flags at d>1, shape (len(params), m, q),
    from k-d tree ball candidates.

    A query's candidates are the samples within ``max(params)``, widened by
    ``_TREE_SLACK``, listed in sample order by ``_ball_candidates``; a
    candidate is within h when its distance, summed as ``cdist`` sums it,
    is at most h, so the balls are the dense path's. Each (query, block)
    pair's samples within h are then one run of the candidates, which
    ``_run_means`` sums in sample order. No sample is within h of a query
    farther than h from the samples' box, as each distance is at least the
    box's, rounded alike: such a query takes no ball.
    """
    x, y, offsets = partition.data.x, partition.data.y, partition.offsets
    m, t, tree, top = partition.m, len(Q), partition.kdtree, max(params)
    estimates = np.zeros((len(params), m, t))
    degenerate = np.ones(estimates.shape, dtype=bool)
    with np.errstate(over="ignore"):
        box = np.maximum(np.maximum(tree.mins - Q, Q - tree.maxes), 0.0)
    near = np.flatnonzero(cdist_norms(box.T) <= top)
    for row, idx in _ball_candidates(tree, Q, near, top * (1 + _TREE_SLACK)):
        dist = cdist_norms(Q[row, c] - x[idx, c] for c in range(x.shape[1]))
        # (query, block) keys never fall: rows ascend, and each query's
        # candidates ascend through the block-major samples
        key = row * m + np.searchsorted(offsets, idx, "right") - 1
        for p, h in enumerate(params):
            inside = dist <= h
            k = key[inside]
            edges = np.flatnonzero(np.diff(k, prepend=-1, append=-1))
            lo, hi = edges[:-1], edges[1:]
            q, block = np.divmod(k[lo], m)
            estimates[p, block, q] = _run_means(y[idx[inside]], lo, hi)
            degenerate[p, block, q] = False
    return estimates, degenerate


def _square_bound(h: float) -> float:
    """The largest double ``s`` with ``sqrt(s) <= h``.

    ``np.sqrt`` rounds correctly, so monotonically: ``sqrt(s) <= h`` holds
    exactly when ``s <= _square_bound(h)``, and a squared distance decides
    whether the distance itself is within h. It starts from ``h * h``,
    which is within a few doubles of the bound (inf past about 1.3e154,
    which one step takes to the largest double), and steps to it.
    """
    h = float(h)
    s = h * h
    while s < math.inf and math.sqrt(math.nextafter(s, math.inf)) <= h:
        s = math.nextafter(s, math.inf)
    while math.sqrt(s) > h:
        s = math.nextafter(s, -math.inf)
    return s


def _takes_grid(partition: PartitionedDataset) -> bool:
    """Whether the dense NWK loop takes the partition's ``position_grid``:
    where there are more blocks than the largest one holds samples, and the
    padding averages at most ``_GRID_PADDING`` columns a block."""
    largest = int(np.diff(partition.offsets).max())
    m, n = partition.m, partition.data.n
    return m > largest and m * largest <= n + _GRID_PADDING * m


def _exact_gaussian_sums(
    sq: np.ndarray,
    y: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray],
    columns: tuple[np.ndarray, int],
    sizes: np.ndarray,
    h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian weight and weighted-response sums of the (row, block) ``pairs``
    of the squared distances ``sq``, by ``exact_gaussian_weights``.

    ``columns`` is ``(base, step)``: block j's k-th sample is column
    ``base[j] + k * step`` of ``sq`` and ``y``. Each pair's samples are
    gathered in block order and summed by ``np.add.reduceat``, as a
    block-major row of weights is, so the sums are bitwise those of the
    weights of ``cdist``'s distances.
    """
    row, block = pairs
    (base, step), n = columns, sizes[block]
    first = np.cumsum(n) - n
    cols = np.repeat(base[block] - first * step, n) + np.arange(n.sum()) * step
    raw = exact_gaussian_weights(sq[np.repeat(row, n), cols], h)
    return np.add.reduceat(raw, first), np.add.reduceat(raw * y[cols], first)


def _nwk_dense(
    partition: PartitionedDataset,
    kind: KernelKind,
    dense: Sequence[tuple[int, float]],
    Q: np.ndarray,
    estimates: np.ndarray,
    active: np.ndarray,
    degenerate: np.ndarray,
) -> None:
    """Write the dense NWK rows ``dense``, (p, h) pairs, into the (P, m, q) outputs.

    Each chunk of about ``_CHUNK_PAIRS`` squared distances takes one
    ``cdist(..., "sqeuclidean")`` into a buffer of the call, and each h its
    weights into a second one: the naive kernel's ``s <= _square_bound(h)``,
    which is exactly the test ``dist / h <= 1``, and ``gaussian_weights``. A
    (query, block) pair counts as active when its nearest squared distance
    is within the bound, so when its nearest distance is within h. Each
    Gaussian pair takes the rule of ``kernels.gaussian_block_weights``: one
    whose weights sum below ``GAUSSIAN_EXACT_BELOW`` is summed again by
    ``_exact_gaussian_sums``, unless its nearest squared distance is past
    ``gaussian_zero_beyond(h)``, where both formulas' weights and sums are
    exactly 0.

    The columns are the block-major samples, each block's summed by
    ``np.add.reduceat``, or where ``_takes_grid`` the partition's
    ``position_grid``, summed over its position axis in position order.
    Either way each (row, block) is reduced alone, so no value depends on
    the chunk size or on the other queries.
    """
    m, offsets = partition.m, partition.offsets
    if _takes_grid(partition):
        x, y = partition.position_grid
        columns = (np.arange(m), m)

        def block_sum(ufunc, a):
            return ufunc.reduce(a.reshape(len(a), -1, m), axis=1)

    else:
        x, y = partition.data.x, partition.data.y
        columns = (offsets[:-1], 1)

        def block_sum(ufunc, a):
            return ufunc.reduceat(a, offsets[:-1], axis=1)

    gaussian, sizes = kind is KernelKind.GAUSSIAN, np.diff(offsets)
    bounds = [(_square_bound(h), gaussian_zero_beyond(h)) for _, h in dense]
    size = max(1, _CHUNK_PAIRS // len(x))
    sq_buffer, weight_buffer = np.empty((2, min(size, len(Q)), len(x)))
    for r in range(0, len(Q), size):
        rows = slice(r, r + size)
        n = min(size, len(Q) - r)
        sq = cdist(Q[rows], x, "sqeuclidean", out=sq_buffer[:n])
        if gaussian:
            nearest = block_sum(np.minimum, sq)
        for (p, h), (bound, zero_beyond) in zip(dense, bounds):
            if gaussian:
                w = gaussian_weights(sq, h, out=weight_buffer[:n])
            else:
                w = np.less_equal(sq, bound, out=weight_buffer[:n])
            den = block_sum(np.add, w)
            num = block_sum(np.add, np.multiply(w, y, out=w))
            if gaussian:
                low = np.nonzero((den < GAUSSIAN_EXACT_BELOW) & (nearest <= zero_beyond))
                if low[0].size:
                    den[low], num[low] = _exact_gaussian_sums(sq, y, low, columns, sizes, h)
            ok = den > 0.0
            np.divide(num.T, den.T, out=estimates[p, :, rows], where=ok.T)
            degenerate[p, :, rows] = ~ok.T
            active[p, :, rows] = (nearest <= bound).T if gaussian else ok.T


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

    At d=1 the naive kernel and k-NN take ``_sorted_1d``, which sorts the
    queries once for the grid, and k-NN's undecided pairs go to
    ``_knn_dense``, as every k-NN pair does at d>1. At d>1 the naive h
    that ``_tree_params`` picks (small measured balls) take ``_naive_tree``,
    whose ball queries serve all of them. The other NWK h take
    ``_nwk_dense``: one squared ``cdist`` matrix per chunk of query rows,
    against all the samples, for the whole grid. Every block and row is
    reduced alone, so no result depends on the chunk size or on the other
    queries in the batch.
    """
    shape = (len(params), partition.m, Q.shape[0])
    if family is EstimatorFamily.KNN:
        params = [int(k) for k in params]
    if Q.shape[1] == 1 and family is EstimatorFamily.NWK_NAIVE:
        estimates, degenerate = _sorted_1d(partition, family, params, Q[:, 0])
        return estimates, ~degenerate, degenerate
    active, degenerate = np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)
    if family is EstimatorFamily.KNN:
        # at d=1 only the undecided pairs are left to do, at d>1 every pair
        if Q.shape[1] == 1:
            estimates, todo = _sorted_1d(partition, family, params, Q[:, 0])
        else:
            estimates, todo = np.zeros(shape), active
        _knn_dense(partition, params, Q, estimates, todo)
        return estimates, active, degenerate
    estimates = np.zeros(shape)
    kind = _FAMILY_KERNEL[family]
    dense = list(enumerate(params))
    if kind is KernelKind.NAIVE:
        # small balls from the k-d tree, wide ones from the dense loop below
        small = _tree_params(partition, params)
        if small:
            hs = [params[p] for p in small]
            estimates[small], degenerate[small] = _naive_tree(partition, hs, Q)
            active[small] = ~degenerate[small]
            dense = [(p, h) for p, h in dense if p not in small]
    if dense:
        _nwk_dense(partition, kind, dense, Q, estimates, active, degenerate)
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
