"""Random block-major division of a dataset, and block covering radii.

The covering radius (mesh norm) of a block is the largest distance from
any domain point to its nearest block sample. The continuous supremum is
approximated on a finite candidate set; ``default_candidates`` supplies
the standard choice and callers may override it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import Dataset, distance_1d


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
    radius. At d=1 the nearest sample is a neighbour of the candidate's
    place in the block sorted by ``x_order``, and the radius is measured
    with ``distance_1d``, as ``cdist`` measures it; for d>1 the nearest
    sample is found with a k-d tree.
    """
    cand = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    if cand.shape[0] < 1:
        raise ValueError("candidate set must be nonempty")
    x = partition.data.x
    if cand.shape[1] != x.shape[1]:
        raise ValueError(f"candidates have dimension {cand.shape[1]}, not {x.shape[1]}")
    radii = np.empty(partition.m)
    if x.shape[1] > 1:
        for j, (a, b) in enumerate(itertools.pairwise(partition.offsets)):
            radii[j] = np.max(cKDTree(x[a:b]).query(cand)[0])
        return radii
    c = cand[:, 0]
    xs = x[partition.x_order, 0]
    for j, (a, b) in enumerate(itertools.pairwise(partition.offsets)):
        block = xs[a:b]
        pos = np.searchsorted(block, c)
        # clipped at the ends, both neighbours are the one nearest sample
        below = c - block[np.maximum(pos - 1, 0)]
        above = block[np.minimum(pos, b - a - 1)] - c
        radii[j] = np.max(np.minimum(np.abs(below), np.abs(above)))
    # the distance grows with the gap, so the largest least gap gives the radius
    return distance_1d(radii, 0.0)
