"""Random block-major division of a dataset, and block covering radii.

The covering radius (mesh norm) of a block is the largest distance from
any domain point to its nearest block sample. The continuous supremum is
approximated on a finite candidate set; ``default_candidates`` supplies
the standard choice and callers may override it.

``mesh_norm_report`` takes every block at d=1 in one pass over its gaps,
to -inf and +inf at the ends, scoring the two candidates that bracket each
gap's midpoint, with no loop over blocks. At d>1 it takes each block by
one of three rules, by its size: a small block by ``_pruned_radii``,
which bounds the distances from the leaves of a k-d tree over the
candidates to the block and measures exactly only the leaves that could
hold its farthest candidate; a mid-size block by directed Hausdorff (Taha
& Hanbury 2015), which stops scanning a candidate at the first sample
nearer than the largest distance found so far; and a large block by a k-d
tree over the block. Every radius is a ``cdist`` distance.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, directed_hausdorff

from .core import Dataset, cdist_norms, distance_1d

# at d>1 a block of at most this many samples per dimension is taken by
# directed Hausdorff, a larger one by a k-d tree. Measured on uniform data,
# the two cost the same at about 2,000 samples for d=2 (20,000 candidates)
# and 3,000 for d=3 (10,000); at d=5 the tree wins only from about 8,000
# and at d=8 not yet at 16,000, so the rule is conservative there
_HAUSDORFF_SAMPLES_PER_DIM = 1000
# at d>1 a block of at most this many samples, halved for each dimension, is
# taken by ``_pruned_radii``, a larger one by directed Hausdorff. On N=10,000
# uniform samples (candidates: the samples and the box corners), the two cost
# the same at about 250-450 samples for d=2 (two runs), 175-200 for d=3, 110
# for d=4, 55 for d=5 and 12-17 for d=8, and at 75-100 for d=5 on 20
# Gaussian clusters
_PRUNED_SAMPLES = 1600
# candidates per leaf, at most, of the k-d tree over the candidates that
# ``_pruned_radii`` bounds by. On g2 data at N=10,000, d=5 (10,032
# candidates), at most 8, 16 and 32 took about 170, 145 and 280 ms for 1,024
# blocks and 155, 130 and 275 ms for 250 blocks
_CANDIDATE_LEAF = 16
# ``_pruned_radii`` shuts a (block, leaf) pair only where the pair's distance
# bound, widened by d times this relative margin, is below the block's lower
# bound, the lower bound is at least 1 / ``_PRUNE_RANGE`` and the distance
# bound at most ``_PRUNE_RANGE``: their squares are then normal doubles
_PRUNE_MARGIN = 2.0**-40
_PRUNE_RANGE = 2.0**480
# distances per ``cdist`` call of ``_pruned_radii``, as in a dense chunk of
# ``avm``
_CHUNK_DISTANCES = 2**16
# samples per leaf of ``PartitionedDataset.kdtree``. On uniform data at N=10,000
# and 1,000 queries, ball queries of about 50 samples took 20 ms at d=5 with
# leaves of 128 against 28 ms with scipy's default 16, 34 against 68 ms at
# d=8, and about the same at d=2 and d=3, also at N=200,000
_TREE_LEAF_SIZE = 128
# ``PartitionedDataset.probe_distances`` takes up to this many rows of
# ``data`` against up to ``_PROBE_OTHERS`` other rows: 65,536 distances, a
# dense chunk's worth
_PROBE_ROWS = 64
_PROBE_OTHERS = 1024


@dataclass(frozen=True)
class PartitionedDataset:
    """Disjoint blocks of a parent dataset, stored block-major.

    ``data`` holds the parent rows in block order and ``rows`` their row
    numbers in the parent; block ``j`` is rows ``offsets[j]:offsets[j+1]``
    of both. Build one with ``from_indices`` (or ``random_partition``).
    """

    data: Dataset
    rows: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_indices(
        cls, dataset: Dataset, indices: list[np.ndarray]
    ) -> PartitionedDataset:
        """Block ``j`` is rows ``indices[j]`` of ``dataset``.

        No block may be empty, and the rows must be distinct rows of the parent.
        """
        sizes = np.fromiter(map(len, indices), np.intp, len(indices))
        rows = np.concatenate([np.empty(0, np.intp), *indices])
        return cls._from_rows(dataset, rows, np.concatenate(([0], np.cumsum(sizes))))

    @classmethod
    def _from_rows(
        cls, dataset: Dataset, rows: np.ndarray, offsets: np.ndarray
    ) -> PartitionedDataset:
        """Block ``j`` is rows ``rows[offsets[j]:offsets[j+1]]`` of ``dataset``,
        checked in O(N) as ``from_indices`` promises."""
        if len(offsets) < 2 or np.diff(offsets).min() < 1:
            raise ValueError("every block must hold at least one row")
        if rows.min() < 0 or rows.max() >= dataset.n or np.bincount(rows).max() > 1:
            raise ValueError(f"block rows must be distinct rows in [0, {dataset.n})")
        return cls(dataset.subset(rows), rows, offsets)

    @property
    def m(self) -> int:
        return len(self.offsets) - 1

    @property
    def min_block_size(self) -> int:
        return int(np.diff(self.offsets).min())

    @functools.cached_property
    def x_sort(self) -> np.ndarray:
        """Rows of ``data`` that sort all of x at d=1, ties in row order.

        The order ``np.argsort(x, kind="stable")`` gives, from one default
        ``argsort`` of x and positions put back in ascending order within
        each run of equal x (only where x repeats). ``x_order`` comes from
        it, so x is sorted once per partition.
        """
        x, n = self.data.x[:, 0], self.data.n
        order = np.argsort(x)
        xs = x[order]
        tie = xs[1:] == xs[:-1]
        if tie.any():
            # keys (run of equal x, row): rows ascend within each run
            run = np.concatenate(([0], np.cumsum(~tie)))
            order = np.sort(run * n + order) % n
        return order

    @functools.cached_property
    def x_rank(self) -> np.ndarray:
        """Each position of ``x_order`` as a position of ``x_sort``:
        ``x_order`` is ``x_sort[x_rank]``.

        One stable pass over ``x_sort`` by block, on the smallest unsigned
        key, which numpy radix-sorts up to 2**16 blocks.
        """
        if self.m == 1:
            return np.arange(self.data.n)
        dtype = np.min_scalar_type(self.m - 1)
        block = np.repeat(np.arange(self.m, dtype=dtype), np.diff(self.offsets))
        return np.argsort(block[self.x_sort], kind="stable")

    @functools.cached_property
    def x_order(self) -> np.ndarray:
        """Rows of ``data`` that sort each block by x at d=1, ties in block order:
        the order ``np.lexsort((x, block))`` gives, as ``x_sort[x_rank]``.
        Block ``j`` keeps rows ``offsets[j]:offsets[j+1]`` of the result.
        """
        return self.x_sort[self.x_rank]

    @functools.cached_property
    def kdtree(self) -> cKDTree:
        """k-d tree (Bentley 1975) over ``data.x``, built on first use.

        Its indices are rows of ``data``, block-major, so row ``i`` lies in
        block ``searchsorted(offsets, i, "right") - 1``. Leaves hold up to
        ``_TREE_LEAF_SIZE`` samples.
        """
        return cKDTree(self.data.x, leafsize=_TREE_LEAF_SIZE)

    @functools.cached_property
    def probe_distances(self) -> np.ndarray:
        """``cdist`` distances from up to ``_PROBE_ROWS`` rows of ``data`` to
        up to ``_PROBE_OTHERS`` other rows, drawn once by a fixed-seed
        generator, sorted into one array; empty for a single sample.

        The share of them at most h measures how many samples a ball of
        radius h around a sample holds, on the data themselves, whatever
        their distribution.
        """
        n = self.data.n
        rows = min(_PROBE_ROWS, n // 2)
        pick = np.random.default_rng(0).choice(
            n, rows + min(_PROBE_OTHERS, n - rows), replace=False
        )
        return np.sort(cdist(self.data.x[pick[:rows]], self.data.x[pick[rows:]]), axis=None)

    @functools.cached_property
    def position_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """``(x, y)`` position-major over the blocks, built on first use.

        Row ``k * m + j`` is block j's k-th sample, for k below the largest
        block's size; a block's missing positions are padded with +inf
        samples and y = 0, whose naive and Gaussian weights are exactly 0.
        """
        sizes = np.diff(self.offsets)
        position = np.arange(sizes.max())[:, None]
        real = (position < sizes).ravel()
        rows = (self.offsets[:-1] + position).ravel()[real]
        x = np.full((real.size, self.data.d), np.inf)
        x[real] = self.data.x[rows]
        y = np.zeros(real.size)
        y[real] = self.data.y[rows]
        return x, y

    @functools.cached_property
    def blocks(self) -> tuple[Dataset, ...]:
        """Each block as a ``Dataset`` viewing ``data`` (no rows are copied)."""
        return tuple(
            self.data.subset(slice(a, b)) for a, b in itertools.pairwise(self.offsets)
        )


def random_partition(dataset: Dataset, m: int, seed: int) -> PartitionedDataset:
    """Split ``dataset`` into ``m`` random blocks of near-equal size.

    A seeded uniform permutation (PCG64) of the sample indices is cut at
    ``offsets[j] = j * (N // m) + min(j, N mod m)``, so when ``m`` does not
    divide ``N`` the first ``N mod m`` blocks receive one extra sample. The
    same (dataset, m, seed) always produces the identical partition.
    """
    if not 1 <= m <= dataset.n or m != int(m):
        raise ValueError(f"m must be an integer in [1, {dataset.n}], got {m}")
    m = int(m)
    q, extra = divmod(dataset.n, m)
    ends = np.arange(m + 1)
    rows = np.random.default_rng(seed).permutation(dataset.n)
    return PartitionedDataset._from_rows(dataset, rows, ends * q + np.minimum(ends, extra))


def default_candidates(dataset: Dataset) -> np.ndarray:
    """Standard candidate set for covering-radius computations.

    For d=1, a uniform 1001-point grid over the domain bounds. For d>1,
    the union of all parent sample inputs and the corners of the bounding
    box; corners are omitted beyond d=10 to cap their count at 2^10.
    """
    bounds = dataset.domain_bounds
    if dataset.d == 1:
        return np.linspace(bounds[0, 0], bounds[0, 1], 1001)[:, None]
    if dataset.d <= 10:
        corners = np.array(
            list(itertools.product(*(tuple(b) for b in bounds))), dtype=np.float64
        )
        return np.vstack([dataset.x, corners])
    return np.array(dataset.x)


def _candidate_leaves(cand: np.ndarray):
    """``cand`` in the leaf order of a k-d tree over it, and each leaf's first
    row, representative and radius.

    Leaves hold at most ``_CANDIDATE_LEAF`` candidates. A leaf's
    representative is its candidate nearest the centre of its bounding box,
    and its radius the largest distance, summed as ``cdist`` sums it, from
    one of its candidates to the representative.
    """
    tree = cKDTree(cand, leafsize=_CANDIDATE_LEAF)
    nodes, firsts = [tree.tree], []
    while nodes:
        node = nodes.pop()
        if node.lesser is None:
            firsts.append(node.start_idx)
        else:
            nodes += (node.lesser, node.greater)
    firsts = np.sort(firsts)
    c = cand[tree.indices]
    leaf = np.repeat(np.arange(len(firsts)), np.diff(firsts, append=len(c)))
    centre = np.minimum.reduceat(c, firsts) * 0.5 + np.maximum.reduceat(c, firsts) * 0.5
    with np.errstate(over="ignore"):
        off = cdist_norms((c - centre[leaf]).T)
        rep = np.lexsort((off, leaf))[firsts]
        radius = np.maximum.reduceat(cdist_norms((c - c[rep][leaf]).T), firsts)
    return c, firsts, c[rep], radius


def _pruned_radii(
    x: np.ndarray, offsets: np.ndarray, blocks: np.ndarray, cand: np.ndarray
) -> np.ndarray:
    """Covering radii of the ``blocks`` of block-major samples ``x``, from
    exact ``cdist`` distances only where a candidate leaf could hold a
    block's farthest candidate (see ``mesh_norm_report``).

    Blocks go in groups of ``_CHUNK_DISTANCES`` // max(k, n) for k
    candidates and blocks of at most n samples, and each ``cdist`` call
    takes at most ``_CHUNK_DISTANCES`` distances where one block holds
    fewer samples, so no temporary grows with the number of blocks.
    """
    c, firsts, reps, reach = _candidate_leaves(cand)
    counts = np.diff(firsts, append=len(c))
    sizes = offsets[blocks + 1] - offsets[blocks]
    group = max(1, _CHUNK_DISTANCES // max(len(c), sizes.max()))
    widen = 1 + x.shape[1] * _PRUNE_MARGIN
    radii = np.empty(len(blocks))
    for g in range(0, len(blocks), group):
        size = sizes[g : g + group]
        ends = np.cumsum(size)
        xs = x[np.repeat(offsets[blocks[g : g + group]] - ends + size, size) + np.arange(ends[-1])]
        # near[b, l]: the distance from block b to leaf l's representative
        near = np.empty((len(size), len(reps)))
        step = max(1, _CHUNK_DISTANCES // len(xs))
        for r in range(0, len(reps), step):
            dist = cdist(xs, reps[r : r + step])
            for b, e in enumerate(ends):
                near[b, r : r + step] = dist[e - size[b] : e].min(axis=0)
        low = near.max(axis=1, keepdims=True)
        with np.errstate(over="ignore"):
            bound = near + reach
            shut = (bound * widen < low) & (bound <= _PRUNE_RANGE) & (low >= 1 / _PRUNE_RANGE)
        # every candidate of each open (block, leaf) pair, block by block
        b_open, l_open = np.nonzero(~shut)
        held = counts[l_open]
        picked = c[np.repeat(firsts[l_open] - np.cumsum(held) + held, held) + np.arange(held.sum())]
        stop = np.cumsum(np.bincount(b_open, held, len(size)).astype(np.intp))
        for b, (lo, hi) in enumerate(itertools.pairwise(np.append(0, stop))):
            block = xs[ends[b] - size[b] : ends[b]]
            step = max(1, _CHUNK_DISTANCES // size[b])
            radii[g + b] = max(
                cdist(block, picked[i : min(i + step, hi)]).min(axis=0).max()
                for i in range(lo, hi, step)
            )
    return radii


def mesh_norm_report(
    partition: PartitionedDataset, candidates: np.ndarray
) -> np.ndarray:
    """Covering radius of every block over one shared candidate set, shape (m,).

    Each radius is the ``max`` over candidates of the Euclidean distance to
    the nearest block sample; this lower-bounds the continuous covering
    radius. Candidates are finite, shape (k, d); a 1-d array is one point.

    At d=1 a block of n samples, sorted by ``x_order``, has n + 1 gaps
    ``(lo, hi)``, the first from -inf and the last to +inf. A candidate
    ``c`` scores ``min(c - lo, hi - c)`` in a gap; its largest score is its
    distance to the block. Rounding is monotone, so the float score, also
    where it overflows to inf, is nondecreasing in the exact one, ``(hi -
    lo)/2 - |c - mid|``, and the candidate nearest the exact midpoint is
    best. Each gap scores the sorted candidates at ``place - 1`` and
    ``place``, the insertion point of ``lo*0.5 + hi*0.5``. Where that sum
    is a double nearest the exact midpoint, a candidate nearer it than both
    would make one of them, or itself, a nearer double, so the two hold the
    best score, repeated candidates too; an end gap's two are the extreme
    candidate. A half is exact from 2**-1021 up; a smaller one rounds by at
    most 2**-1075, to at most 2**-1022, under half the step beside the
    other half if that end is at least 2**-966 in magnitude. So the sum,
    rounded once, is a nearest double unless both ends are below 2**-966.
    There it is within one double of ``[lo, hi]``: if such a gap holds a
    block's largest score, it and the score found lie within 2**-966 of 0,
    and ``distance_1d``, which measures as ``cdist`` does, squares both to 0.

    At d>1 a block takes one of three rules by its size n.

    While n is at most ``_PRUNED_SAMPLES / 2**d``, ``_pruned_radii`` takes
    it. The candidates are split into the leaves of a k-d tree over them.
    Leaf l has a representative candidate r_l and a radius p_l, the largest
    distance from one of its candidates to r_l. ``cdist`` over groups of
    blocks gives D_jl, the distance from block j to r_l, and L_j = max_l
    D_jl, a candidate's distance to the block and so at most its radius. A
    candidate c of leaf l lies within |c - r_l| + D_jl of the block sample
    nearest r_l (triangle inequality), so it cannot lie farther than
    D_jl + p_l from the block. In floats, ``cdist`` measures each distance
    within a relative (d + 2) * 2**-52 of the exact one while no squared
    gap overflows, plus sqrt(d) * 2**-537 from squares that underflow. So
    the pair (j, l) is shut only where (D_jl + p_l) * (1 + d * 2**-40) <
    L_j, with L_j at least 2**-480 and D_jl + p_l at most 2**480: there
    every candidate of the leaf is nearer the block than L_j by ``cdist``
    too, and cannot hold the radius. Each open pair takes the exact
    ``cdist`` distances from the leaf's candidates to the block's samples,
    and the radius is the largest of their minima: the leaf holding L_j is
    open, so that is the largest over every candidate. With squared gaps
    outside the normal range (inputs near 1e-160 or 1e160) no pair shuts,
    and every distance is taken.

    While n is at most ``_HAUSDORFF_SAMPLES_PER_DIM * d``,
    ``directed_hausdorff`` takes it. It breaks off a candidate as soon as
    one sample is nearer than the largest distance found so far (Taha &
    Hanbury 2015), and sums squared gaps in order, as ``cdist`` does.

    A larger block is taken by a k-d tree over its samples, and each
    candidate's nearest sample found is measured again as ``cdist`` sums
    it. The tree picks that sample by its own sums, which round
    differently from d=8 on: where two samples' distances to a candidate
    differ only in their last bits, it may pick the one ``cdist`` puts
    farther, and the radius may then exceed ``cdist``'s in its last bit.
    """
    cand = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    if cand.shape[0] < 1:
        raise ValueError("candidate set must be nonempty")
    x = partition.data.x
    d = x.shape[1]
    if cand.ndim > 2 or cand.shape[1] != d:
        raise ValueError(f"candidates must have shape (k, {d}), got {cand.shape}")
    if not np.all(np.isfinite(cand)):
        raise ValueError("candidates must be finite")
    if d > 1:
        offsets = partition.offsets
        sizes = np.diff(offsets)
        radii = np.empty(partition.m)
        pruned = sizes <= _PRUNED_SAMPLES * 0.5**d
        if pruned.any():
            radii[pruned] = _pruned_radii(x, offsets, np.flatnonzero(pruned), cand)
        for j in np.flatnonzero(~pruned):
            block = x[offsets[j] : offsets[j + 1]]
            if len(block) <= _HAUSDORFF_SAMPLES_PER_DIM * d:
                radii[j] = directed_hausdorff(cand, block)[0]
            else:
                # the tree marks a candidate whose squared distances all
                # overflow with the index len(block)
                idx = cKDTree(block).query(cand)[1]
                with np.errstate(over="ignore"):
                    gaps = cand - block[np.minimum(idx, len(block) - 1)]
                radii[j] = np.where(idx < len(block), cdist_norms(gaps.T), np.inf).max()
        return radii
    c = np.sort(cand[:, 0])
    xs = x[partition.x_order, 0]
    starts = partition.offsets[:-1]
    # no gap holds both infinities; an overflow to inf still rounds monotonically
    lo = np.insert(xs, starts, -np.inf)
    hi = np.insert(xs, partition.offsets[1:], np.inf)
    place = np.searchsorted(c, lo * 0.5 + hi * 0.5)
    near = c[np.clip(place + np.arange(-1, 1)[:, None], 0, len(c) - 1)]
    with np.errstate(over="ignore"):
        best = np.minimum(near - lo, hi - near).max(axis=0)
    return distance_1d(np.maximum.reduceat(best, starts + np.arange(partition.m)), 0.0)
