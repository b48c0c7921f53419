"""Random block-major division of a dataset, and block covering radii.

The covering radius (mesh norm) of a block is the largest distance from
any domain point to its nearest block sample. The continuous supremum is
approximated on a finite candidate set; ``default_candidates`` supplies
the standard choice and callers may override it.

``mesh_norm_report`` takes every block at d=1 in one pass over its gaps,
to -inf and +inf at the ends, scoring the two candidates that bracket each
gap's midpoint, with no loop over blocks. At d>1 it takes a small block
by directed Hausdorff (Taha & Hanbury 2015), which stops scanning a
candidate at the first sample nearer than the largest distance found so
far, and a large block by a k-d tree.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import directed_hausdorff

from .core import Dataset, distance_1d

# at d>1 a block of at most this many samples per dimension is taken by
# directed Hausdorff, a larger one by a k-d tree. Measured on uniform data,
# the two cost the same at about 2,000 samples for d=2 (20,000 candidates)
# and 3,000 for d=3 (10,000); at d=5 the tree wins only from about 8,000
# and at d=8 not yet at 16,000, so the rule is conservative there
_HAUSDORFF_SAMPLES_PER_DIM = 1000


@dataclass(frozen=True)
class PartitionedDataset:
    """Disjoint blocks of a parent dataset, stored block-major.

    ``data`` holds the parent rows in block order and ``rows`` their row
    numbers in the parent; block ``j`` is rows ``offsets[j]:offsets[j+1]``
    of both. Build one with ``from_indices``.
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
        if not indices or min(len(idx) for idx in indices) < 1:
            raise ValueError("every block must hold at least one row")
        rows = np.concatenate(indices)
        if rows.min() < 0 or rows.max() >= dataset.n or np.bincount(rows).max() > 1:
            raise ValueError(f"block rows must be distinct rows in [0, {dataset.n})")
        offsets = np.cumsum([0] + [len(idx) for idx in indices])
        return cls(dataset.subset(rows), rows, offsets)

    @property
    def m(self) -> int:
        return len(self.offsets) - 1

    @property
    def min_block_size(self) -> int:
        return int(np.diff(self.offsets).min())

    @functools.cached_property
    def x_order(self) -> np.ndarray:
        """Rows of ``data`` that sort each block by x at d=1, ties in block order.

        One stable sort keyed by (block, x); block ``j`` keeps rows
        ``offsets[j]:offsets[j+1]`` of the result.
        """
        block = np.repeat(np.arange(self.m), np.diff(self.offsets))
        return np.lexsort((self.data.x[:, 0], block))

    @functools.cached_property
    def blocks(self) -> tuple[Dataset, ...]:
        """Each block as a ``Dataset`` viewing ``data`` (no rows are copied)."""
        return tuple(
            self.data.subset(slice(a, b)) for a, b in itertools.pairwise(self.offsets)
        )


def random_partition(dataset: Dataset, m: int, seed: int) -> PartitionedDataset:
    """Split ``dataset`` into ``m`` random blocks of near-equal size.

    A seeded uniform permutation (PCG64) of the sample indices is sliced
    contiguously; when ``m`` does not divide ``N`` the first ``N mod m``
    blocks receive one extra sample. The same (dataset, m, seed) always
    produces the identical partition.
    """
    if not 1 <= m <= dataset.n or m != int(m):
        raise ValueError(f"m must be an integer in [1, {dataset.n}], got {m}")
    perm = np.random.default_rng(seed).permutation(dataset.n)
    return PartitionedDataset.from_indices(dataset, np.array_split(perm, int(m)))


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

    At d>1 a block of at most ``_HAUSDORFF_SAMPLES_PER_DIM * d`` samples
    is taken by ``directed_hausdorff``, which breaks off a candidate as
    soon as one sample is nearer than the largest distance found so far
    (Taha & Hanbury 2015), and sums squared gaps in order, as ``cdist``
    does. A larger block is taken by a k-d tree, whose sums round
    differently from d=8 on and may then differ in the last bit.
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
        radii = np.empty(partition.m)
        for j, (a, b) in enumerate(itertools.pairwise(partition.offsets)):
            if b - a <= _HAUSDORFF_SAMPLES_PER_DIM * d:
                radii[j] = directed_hausdorff(cand, x[a:b])[0]
            else:
                radii[j] = np.max(cKDTree(x[a:b]).query(cand)[0])
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
