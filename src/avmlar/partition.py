"""Random division of a dataset into blocks, and block covering radii.

The covering radius (mesh norm) of a block is the largest distance from
any domain point to its nearest block sample. The continuous supremum is
approximated on a finite candidate set; ``default_candidates`` supplies
the standard choice and callers may override it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import Dataset


@dataclass(frozen=True)
class PartitionedDataset:
    """Disjoint blocks of a parent dataset.

    ``indices[j]`` holds block ``j``'s row numbers in the parent; ``blocks``
    are the corresponding datasets (parent domain bounds retained).
    """

    blocks: tuple[Dataset, ...]
    indices: tuple[np.ndarray, ...]

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def min_block_size(self) -> int:
        return min(b.n for b in self.blocks)


def random_partition(dataset: Dataset, m: int, seed: int) -> PartitionedDataset:
    """Split ``dataset`` into ``m`` random blocks of near-equal size.

    A seeded uniform permutation (PCG64) of the sample indices is sliced
    contiguously; when ``m`` does not divide ``N`` the first ``N mod m``
    blocks receive one extra sample. The same (dataset, m, seed) always
    produces the identical partition.
    """
    m = int(m)
    n_total = dataset.n
    if not 1 <= m <= n_total:
        raise ValueError(f"m must satisfy 1 <= m <= {n_total}, got {m}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_total)
    base, extra = divmod(n_total, m)
    sizes = [base + 1 if j < extra else base for j in range(m)]
    bounds = np.cumsum([0] + sizes)
    indices = tuple(perm[bounds[j] : bounds[j + 1]] for j in range(m))
    blocks = tuple(dataset.subset(idx) for idx in indices)
    return PartitionedDataset(blocks, indices)


def mesh_norm(block: Dataset, candidates: np.ndarray) -> float:
    """Covering radius of the block over a finite candidate set.

    Returns ``max`` over candidates of the Euclidean distance to the nearest
    block sample; this lower-bounds the continuous covering radius. At d=1
    the nearest sample is a neighbour of the candidate's place in the
    sorted block; for d>1 it is found with a k-d tree.
    """
    cand = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    if cand.shape[0] < 1:
        raise ValueError("candidate set must be nonempty")
    if cand.shape[1] != block.d:
        raise ValueError(
            f"candidates have dimension {cand.shape[1]}, block has {block.d}"
        )
    if block.n < 1:
        raise ValueError("block must be nonempty")
    if block.d == 1:
        xs = np.sort(block.x[:, 0])
        c = cand[:, 0]
        pos = np.searchsorted(xs, c)
        # clipped at the ends, both neighbours are the one nearest sample
        below = c - xs[np.maximum(pos - 1, 0)]
        above = xs[np.minimum(pos, block.n - 1)] - c
        return float(np.max(np.minimum(np.abs(below), np.abs(above))))
    dist, _ = cKDTree(block.x).query(cand)
    return float(np.max(dist))


def default_candidates(dataset: Dataset) -> np.ndarray:
    """Standard candidate set for covering-radius computations.

    For d=1, a uniform 1001-point grid over the domain bounds. For d>1,
    the union of all parent sample inputs and the corners of the bounding
    box; corners are omitted beyond d=10 to cap their count at 2^10.
    """
    if dataset.n < 1:
        raise ValueError("dataset must be nonempty")
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
    """Covering radius of every block over one shared candidate set, shape (m,)."""
    cand = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    return np.array([mesh_norm(block, cand) for block in partition.blocks])
