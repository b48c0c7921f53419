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
over a grid of k, called by ``_knn_dense`` alone), ``block_estimates``
(which also holds the dense NWK path), ``combine``, and ``_rule_h_or_k``
for h and k.

``block_estimates`` takes a grid of h or k and returns (P, m, q) arrays,
one row per parameter, reading the partition once for the grid. It picks
its path by family and input dimension. At d=1 the naive kernel and k-NN
take ``_sorted_1d`` over the partition's ``x_order`` (each block sorted
once per partition) and build no query x sample matrix. At d>1 a naive h
whose ball is small takes ``_naive_tree`` over the partition's ``kdtree``
(built once per partition, and only then): ``_ball_share``, the share of
the partition's ``probe_distances`` (a fixed sample of its pair distances)
at most h, is below ``_TREE_BALL_SHARE`` (2 %, halved for each dimension
past 5). That rule reads only the partition and h, so no query's value
depends on the others in its batch, and it measures the data's own
occupancy, clustered or not. The tree's candidates come in batches of
fewer than ``_CHUNK_PAIRS``, or one query's ball (``_ball_candidates``).
Every other case (Gaussian, k-NN and wide naive balls at d>1, Gaussian at
d=1) is dense, in query chunks of about ``_CHUNK_PAIRS`` distances: NWK
takes one ``cdist`` per chunk over the block-major samples and sums each
block's columns with ``np.add.reduceat``; k-NN takes one ``cdist`` per
block and chunk for ``knn_mean``. Every path measures the distance
``cdist`` computes; at d=1 that is ``distance_1d``, and on the tree a
sequential sum of squared gaps. The tree path sums each (query, block)
pair's samples within h alone, the dense one each block's row of kernel
weights, zeros included, so the two may differ in the last bit, never in
which samples they count.

At d=1 both estimates are the mean of a run [lo, hi) of the sorted block:
``_counts`` places lo and hi by counting samples or keys below a threshold,
and ``_run_means`` sums each distinct run once with ``np.add.reduceat``.

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
  rise along the block, so the run is the unique k nearest). Every other
  pair goes to ``_knn_dense``, so ties are still ordered in one place.
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
      exactly the failing ones: ``_counts`` gets the lo and hi of the exact edge;
    * a sample that passes at ``q`` passes at every smaller ``q``, so the edges
      are nondecreasing in ``q``, as the pooled ``_counts`` requires;
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


# (block, query) pairs per block group of ``_sorted_1d``, and distances per
# dense query chunk or ``knn_mean`` call: temporaries stay O(pairs) as N, m and
# k grow, and a dense chunk stays cache-sized
_CHUNK_PAIRS = 2**16

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
# ``_ball_candidates`` yields a batch from this many candidates, so one holds
# fewer than ``_CHUNK_PAIRS`` where a query's ball could not hold more
_TREE_PAIRS = _CHUNK_PAIRS // 2


def _sorted_1d(
    partition: PartitionedDataset, family: EstimatorFamily, params: Sequence[float], q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run means and flags at 1-d queries ``q``, shape (len(params), m, len(q)).

    Flags mark the degenerate pairs (naive) or the undecided ones (k-NN).
    Each h or k walks the blocks in groups of about ``_CHUNK_PAIRS`` pairs.
    """
    m, t, naive = partition.m, len(q), family is EstimatorFamily.NWK_NAIVE
    order = np.argsort(q, kind="stable")
    qs = q[order]
    offsets, by_x = partition.offsets, partition.x_order
    x, y = partition.data.x[by_x, 0], partition.data.y[by_x]
    estimates = np.empty((len(params), m, t))
    flags = np.zeros(estimates.shape, dtype=bool)
    step = max(1, _CHUNK_PAIRS // max(1, t))
    if naive:
        xs = np.sort(x)
    for p, h_or_k in enumerate(params):
        if naive:
            # the edges are samples: lo counts those below lower, hi those at or below upper
            lower, upper = _naive_edges(xs, qs, h_or_k)
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
        for j in range(0, m, step):
            a, b, blocks = offsets[j], offsets[min(j + step, m)], slice(j, j + step)
            group, xg = offsets[j : j + step + 1] - a, x[a:b]
            if naive:
                lo = _counts(xg, group, lower, "left")
                hi = _counts(xg, group, upper, "right")
                flag = hi == lo
            else:
                lo = _counts(key[a:b], group, twice, "left")
                hi = lo + k
                # decided: the sample just outside each side is past the block
                # end or farther than both run ends
                end = np.maximum(distance_1d(qs, xg[lo]), distance_1d(qs, xg[hi - 1]))
                left = distance_1d(qs, xg.take(lo - 1, mode="clip")) > end
                right = distance_1d(qs, xg.take(hi, mode="clip")) > end
                flag = ~((left | (lo == group[:-1, None])) & (right | (hi == group[1:, None])))
            estimates[p][blocks, order] = _run_means(y[a:b], lo, hi)
            if flag.any():
                flags[p][blocks, order] = flag
    return estimates, flags


def _counts(v: np.ndarray, offsets: np.ndarray, thr: np.ndarray, side: str) -> np.ndarray:
    """Per block, its start plus its samples below (``side="right"``: at or
    below) each sorted threshold; block j is ``v[offsets[j]:offsets[j + 1]]``
    and ``offsets[0]`` is 0. One block (every CV fold) is searched per
    threshold; several share one pass that places each sample among them.
    """
    if len(offsets) == 2:
        return np.searchsorted(v, thr, side)[None]
    # each sample counts from the first threshold it is below (at or below);
    # every sample is placed, so one running sum goes on from each block's start
    m, t = len(offsets) - 1, len(thr)
    block = np.repeat(np.arange(m), np.diff(offsets))
    place = np.searchsorted(thr, v, "right" if side == "left" else "left")
    counts = np.bincount(block * (t + 1) + place, minlength=m * (t + 1))
    return counts.cumsum().reshape(m, t + 1)[:, :t]


def _run_means(y: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mean of ``y[lo:hi]`` per entry of ``lo`` and ``hi``, 0 where the run is empty.

    ``lo`` and ``hi`` rise in (block, query) order, so equal runs are
    adjacent: each distinct run is summed once over the interleaved edges
    (lo, hi) and repeated back; a trailing 0 makes a run end at ``len(y)`` a
    valid ``reduceat`` index.
    """
    lo, hi, shape = lo.ravel(), hi.ravel(), lo.shape
    new = np.ones(lo.size, dtype=bool)
    new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    first = np.flatnonzero(new)
    lo, hi = lo[first], hi[first]
    sums = np.add.reduceat(np.append(y, 0.0), np.stack([lo, hi], axis=1).ravel())[0::2]
    size = hi - lo
    means = np.divide(sums, size, out=np.zeros_like(sums), where=size > 0)
    return np.repeat(means, np.diff(first, append=new.size)).reshape(shape)


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


def _norms(gaps) -> np.ndarray:
    """Root of the squared ``gaps`` summed in order, as ``cdist`` sums coordinates."""
    total = 0.0
    with np.errstate(over="ignore"):
        for gap in gaps:
            total = total + gap * gap
    return np.sqrt(total)


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
    near = np.flatnonzero(_norms(box.T) <= top)
    for row, idx in _ball_candidates(tree, Q, near, top * (1 + _TREE_SLACK)):
        dist = _norms(Q[row, c] - x[idx, c] for c in range(x.shape[1]))
        # (query, block) keys never fall: rows ascend, and each query's
        # candidates ascend through the block-major samples
        key = row * m + np.searchsorted(offsets, idx, "right") - 1
        for p, h in enumerate(params):
            inside = dist <= h
            k = key[inside]
            lo = np.flatnonzero(np.diff(k, prepend=-1))
            q, block = np.divmod(k[lo], m)
            estimates[p, block, q] = _run_means(y[idx[inside]], lo, np.append(lo[1:], len(k)))
            degenerate[p, block, q] = False
    return estimates, degenerate


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
    whose ball queries serve all of them. The other NWK h take one
    ``cdist`` matrix per chunk of query rows, against all the samples, for
    the whole grid. Every block and row is reduced alone, so no result
    depends on the chunk size or on the other queries in the batch.
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
    x, y, offsets = partition.data.x, partition.data.y, partition.offsets
    kind, starts = _FAMILY_KERNEL[family], offsets[:-1]
    dense = list(enumerate(params))
    if kind is KernelKind.NAIVE:
        # small balls from the k-d tree, wide ones from the dense loop below
        small = _tree_params(partition, params)
        if small:
            hs = [params[p] for p in small]
            estimates[small], degenerate[small] = _naive_tree(partition, hs, Q)
            active[small] = ~degenerate[small]
            dense = [(p, h) for p, h in dense if p not in small]
    size = max(1, _CHUNK_PAIRS // len(x))
    for r in range(0, Q.shape[0] if dense else 0, size):
        # one block-major matrix per chunk; each block's columns reduce alone
        rows = slice(r, r + size)
        dist = cdist(Q[rows], x)
        if kind is KernelKind.GAUSSIAN:
            nearest = np.minimum.reduceat(dist, starts, axis=1).T
        for p, h in dense:
            with np.errstate(over="ignore"):  # a subnormal h
                raw = kernel_profile(kind, dist / h)
            den = np.add.reduceat(raw, starts, axis=1).T
            raw *= y
            ok = den > 0.0
            num = np.add.reduceat(raw, starts, axis=1).T
            np.divide(num, den, out=estimates[p, :, rows], where=ok)
            degenerate[p, :, rows] = ~ok
            # a naive weight is nonzero exactly when d <= h (module docstring)
            active[p, :, rows] = ok if kind is KernelKind.NAIVE else nearest <= h
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
