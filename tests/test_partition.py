import itertools
import tracemalloc

import numpy as np
import pytest

import oracles
from avmlar import (
    Dataset,
    PartitionedDataset,
    default_candidates,
    mesh_norm_report,
    random_partition,
)


def uniform_dataset(n, d=1, seed=0):
    rng = np.random.default_rng(seed)
    bounds = np.tile([0.0, 1.0], (d, 1))
    return Dataset(rng.random((n, d)), rng.normal(size=n), bounds)


def test_single_block_is_whole_dataset():
    ds = uniform_dataset(8)
    part = random_partition(ds, 1, 3)
    assert part.m == 1
    assert sorted(part.rows) == list(range(8))


def test_even_split_sizes():
    ds = uniform_dataset(10)
    part = random_partition(ds, 5, 0)
    assert [b.n for b in part.blocks] == [2, 2, 2, 2, 2]
    assert np.array_equal(np.sort(part.rows), np.arange(10))


def test_remainder_distribution():
    ds = uniform_dataset(10)
    part = random_partition(ds, 3, 0)
    assert [b.n for b in part.blocks] == [4, 3, 3]


def test_partition_invariants_random_cases():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(1, n + 1))
        seed = int(rng.integers(0, 2**32))
        ds = uniform_dataset(n, seed=seed)
        part = random_partition(ds, m, seed)
        sizes = [b.n for b in part.blocks]
        assert max(sizes) - min(sizes) <= 1
        assert np.array_equal(np.sort(part.rows), np.arange(n))
        again = random_partition(ds, m, seed)
        assert np.array_equal(part.rows, again.rows)
        assert np.array_equal(part.offsets, again.offsets)


def test_block_major_layout():
    # data is the parent rows in block order; the first N mod m blocks
    # hold one extra row; every block view shares data's memory
    for n, m in ((10, 3), (12, 4), (7, 7), (9, 1)):
        ds = uniform_dataset(n, d=2, seed=n)
        part = random_partition(ds, m, 4)
        assert np.array_equal(part.data.x, ds.x[part.rows])
        assert np.array_equal(part.data.y, ds.y[part.rows])
        sizes = [n // m + (j < n % m) for j in range(m)]
        assert part.offsets.tolist() == np.cumsum([0] + sizes).tolist()
        assert part.m == m and part.min_block_size == min(sizes)
        for j, blk in enumerate(part.blocks):
            a, b = part.offsets[j], part.offsets[j + 1]
            assert np.array_equal(blk.x, part.data.x[a:b])
            assert np.array_equal(blk.y, part.data.y[a:b])
            assert np.shares_memory(blk.x, part.data.x)
            assert np.shares_memory(blk.y, part.data.y)


def test_partition_membership_is_pinned():
    # recorded before the block-major layout; membership and in-block
    # order must not change, or every sweep CSV would
    ds = Dataset(np.arange(11.0)[:, None], np.zeros(11))
    part = random_partition(ds, 3, 5)
    assert part.rows.tolist() == [10, 7, 1, 3, 2, 4, 6, 0, 9, 5, 8]
    assert part.offsets.tolist() == [0, 4, 8, 11]
    blocks = [[int(v) for v in blk.x[:, 0]] for blk in part.blocks]
    assert blocks == [[10, 7, 1, 3], [2, 4, 6, 0], [9, 5, 8]]


def test_from_indices_rejects_an_empty_block():
    ds = uniform_dataset(4)
    with pytest.raises(ValueError, match="at least one row"):
        PartitionedDataset.from_indices(ds, [np.array([0, 1]), np.array([], dtype=int)])
    with pytest.raises(ValueError):
        PartitionedDataset.from_indices(ds, [])
    # blocks are disjoint rows of the parent: no repeats, nothing out of range
    for bad in ([[0, 0], [1]], [[0, 1], [1]], [[0], [-1]], [[0], [4]]):
        with pytest.raises(ValueError, match="distinct rows"):
            PartitionedDataset.from_indices(ds, [np.array(idx) for idx in bad])


def test_partition_rejects_m_out_of_range():
    ds = uniform_dataset(5)
    with pytest.raises(ValueError):
        random_partition(ds, 6, 0)
    with pytest.raises(ValueError):
        random_partition(ds, 0, 0)
    for bad in (2.7, 0.5, np.nan, np.inf):  # never truncated to an integer
        with pytest.raises(ValueError):
            random_partition(ds, bad, 0)


def grid_1d(step=0.01):
    return np.arange(0.0, 1.0 + step / 2, step)[:, None]


def one_block_radius(blk, candidates):
    """Covering radius of ``blk`` as the one block of a partition."""
    whole = PartitionedDataset.from_indices(blk, [np.arange(blk.n)])
    return mesh_norm_report(whole, candidates)[0]


def test_mesh_norm_two_point_block():
    blk = Dataset(np.array([[0.2], [0.8]]), [0.0, 0.0], np.array([[0.0, 1.0]]))
    assert one_block_radius(blk, grid_1d()) == pytest.approx(0.30, abs=0.01)


def test_mesh_norm_zero_when_candidates_covered():
    blk = Dataset(np.array([[0.2], [0.8]]), [0.0, 0.0])
    assert one_block_radius(blk, np.array([[0.2], [0.8]])) == 0.0


def test_mesh_norm_center_block():
    blk = Dataset(np.array([[0.5]]), [0.0], np.array([[0.0, 1.0]]))
    assert one_block_radius(blk, grid_1d()) == pytest.approx(0.50, abs=0.01)


def oracle_radius(x, candidates):
    return oracles.mesh_norm([tuple(r) for r in x], [tuple(r) for r in candidates])


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e160])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_mesh_norm_matches_brute_force(d, scale):
    # at 1e-160 the squared gaps are subnormal or zero, at 1e160 they overflow
    rng = np.random.default_rng(6 + d)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        c = int(rng.integers(1, 15))
        blk = Dataset(rng.random((n, d)) * scale, np.zeros(n))
        cand = rng.random((c, d)) * scale
        assert one_block_radius(blk, cand) == oracle_radius(blk.x, cand)


@pytest.mark.parametrize("scale", [1.0, 2.0**-1072])
def test_mesh_norm_1d_is_exact(scale):
    # lattice blocks with duplicates, one-sample blocks, and candidates
    # beyond both ends of every block; a step of 1/10 is not a dyadic
    # fraction, so candidate - sample rounds and only the same arithmetic
    # as the oracle gives the same bits. At 2**-1072 the 31 candidates
    # collapse into 13 distinct subnormals and halving a sample rounds
    rng = np.random.default_rng(10)
    cand = (np.arange(-5, 26) / 10 * scale)[:, None]
    for n in [1] * 10 + list(rng.integers(2, 16, size=190)):
        x = rng.integers(0, 21, size=n)[:, None] / 10 * scale
        if n > 1:
            x[-1] = x[0]  # at least one duplicate input
        expected = oracles.mesh_norm([tuple(r) for r in x], [tuple(r) for r in cand])
        assert one_block_radius(Dataset(x, np.zeros(n)), cand) == expected


def test_mesh_norm_1d_blocks_match_oracle():
    # one pass serves every block: one-sample blocks, duplicate inputs, m = N,
    # and unsorted candidates on a 1/20 lattice, each four times, beyond
    # both domain ends. The last two inputs are 3 ulps apart; their midpoint
    # is a tie that rounds down onto a run of 7 equal candidates, which are
    # merged before the three around the midpoint are scored
    rng = np.random.default_rng(12)
    ulp = 2.0**-52
    x = np.append(rng.integers(0, 21, size=60) / 10, [1 + ulp, 1 + 4 * ulp])[:, None]
    cand = np.concatenate(
        [np.repeat(np.arange(-10, 51) / 20, 4), np.full(7, 1 + 2 * ulp), [1 + 3 * ulp]]
    )
    cand = rng.permutation(cand)[:, None]
    ds = Dataset(x, np.zeros(62))
    sizes = [1, 1, 7, 1, 2, 12, 1, 3, 1, 20, 1, 12]
    order = np.append(rng.permutation(60), [60, 61])
    for part in (
        PartitionedDataset.from_indices(ds, np.split(order, np.cumsum(sizes)[:-1])),
        random_partition(ds, 62, 1),
        random_partition(ds, 4, 2),
    ):
        expected = [oracle_radius(b.x, cand) for b in part.blocks]
        assert mesh_norm_report(part, cand).tolist() == expected
    # candidates only inside that gap: its score alone is the radius
    part = PartitionedDataset.from_indices(ds, [np.arange(60), np.array([61, 60])])
    inside = np.append(np.full(7, 1 + 2 * ulp), 1 + 3 * ulp)[:, None]
    expected = [oracle_radius(b.x, inside) for b in part.blocks]
    assert mesh_norm_report(part, inside).tolist() == expected
    assert expected[1] == ulp
    # differences between far candidates and samples overflow to inf
    big = np.array([[-1e308], [0.0], [1e308]])
    part = PartitionedDataset.from_indices(Dataset(big, np.zeros(3)), [np.arange(3)])
    assert mesh_norm_report(part, big).tolist() == [oracle_radius(big, big)] == [0.0]


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e160])
def test_mesh_norm_both_d2_rules_match_oracle(scale):
    # one block above the directed Hausdorff limit (2,000 samples at d=2)
    # takes the k-d tree; the 1-10 sample blocks take directed Hausdorff
    rng = np.random.default_rng(13)
    sizes = [2100] + rng.integers(1, 11, size=50).tolist()
    n = sum(sizes)
    ds = Dataset(rng.random((n, 2)) * scale, np.zeros(n))
    indices = np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
    part = PartitionedDataset.from_indices(ds, indices)
    cand = rng.random((40, 2)) * 1.2 * scale
    expected = [oracle_radius(b.x, cand) for b in part.blocks]
    assert mesh_norm_report(part, cand).tolist() == expected


@pytest.mark.parametrize("n, d", [(5, 1), (5, 2), (2500, 2)], ids=["d1", "hausdorff", "tree"])
def test_mesh_norm_rejects_non_finite_candidates(n, d):
    rng = np.random.default_rng(14)
    part = random_partition(Dataset(rng.random((n, d)), np.zeros(n)), 1, 0)
    for bad in (np.nan, np.inf, -np.inf):
        cand = rng.random((6, d))
        cand[3, -1] = bad
        with pytest.raises(ValueError, match="candidates must be finite"):
            mesh_norm_report(part, cand)


def test_x_order_sorts_each_block_stably():
    # a 1/4 lattice: many equal inputs in every block keep their block order
    rng = np.random.default_rng(11)
    ds = Dataset(rng.integers(0, 5, 40)[:, None] / 4, np.zeros(40))
    part = random_partition(ds, 3, 2)
    x = part.data.x[:, 0]
    expected = [
        a + np.argsort(x[a:b], kind="stable")
        for a, b in itertools.pairwise(part.offsets)
    ]
    assert np.array_equal(part.x_order, np.concatenate(expected))
    assert part.x_order is part.x_order  # sorted once per partition


@pytest.mark.parametrize(
    "n, d, m",
    [(1000, 5, 1), (1000, 5, 100), (20_000, 1, 10_000)],
    ids=["d5-one-block", "d5-small-blocks", "d1-half"],
)
def test_mesh_norm_memory_is_bounded(n, d, m):
    # a candidate-by-sample distance array would take 4000 * n * d * 8 B;
    # one k-d tree (one block), many directed Hausdorff calls (m = n/10),
    # and the d=1 gap pass at m = n/2
    rng = np.random.default_rng(9)
    part = random_partition(Dataset(rng.random((n, d)), np.zeros(n)), m, 0)
    cand = rng.random((4000, d))
    tracemalloc.start()
    try:
        mesh_norm_report(part, cand)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_mesh_norm_monotone_in_samples_and_candidates():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        blk_x = rng.random((n, 2))
        cand = rng.random((8, 2))
        base = one_block_radius(Dataset(blk_x, np.zeros(n)), cand)
        bigger_block = np.vstack([blk_x, rng.random((1, 2))])
        assert one_block_radius(Dataset(bigger_block, np.zeros(n + 1)), cand) <= base + 1e-12
        more_cand = np.vstack([cand, rng.random((3, 2))])
        assert one_block_radius(Dataset(blk_x, np.zeros(n)), more_cand) >= base - 1e-12


def test_mesh_norm_bounded_by_domain_diameter():
    ds = uniform_dataset(30, d=2, seed=8)
    part = random_partition(ds, 5, 1)
    cand = default_candidates(ds)
    diam = np.linalg.norm(ds.domain_bounds[:, 1] - ds.domain_bounds[:, 0])
    assert np.all(mesh_norm_report(part, cand) <= diam)


def test_mesh_norm_rejects_bad_inputs():
    blk = Dataset(np.array([[0.5]]), [0.0])
    with pytest.raises(ValueError):
        one_block_radius(blk, np.empty((0, 1)))
    with pytest.raises(ValueError):
        one_block_radius(blk, np.array([[0.1, 0.2]]))


def test_default_candidates_1d_grid():
    ds = uniform_dataset(10)
    cand = default_candidates(ds)
    assert cand.shape == (1001, 1)
    assert cand[0, 0] == 0.0 and cand[-1, 0] == 1.0
    steps = np.diff(cand[:, 0])
    assert np.allclose(steps, steps[0])


def test_default_candidates_2d_samples_plus_corners():
    ds = uniform_dataset(100, d=2, seed=3)
    cand = default_candidates(ds)
    assert cand.shape == (104, 2)


def test_default_candidates_high_dim_corner_cap():
    rng = np.random.default_rng(9)
    ds = Dataset(rng.random((20, 11)), rng.normal(size=20))
    cand = default_candidates(ds)
    assert cand.shape == (20, 11)


def test_mesh_norm_report_collects_blocks():
    ds = uniform_dataset(40, seed=11)
    part = random_partition(ds, 4, 2)
    cand = default_candidates(ds)
    radii = mesh_norm_report(part, cand)
    assert radii.shape == (4,) and radii.dtype == np.float64
    assert np.all(radii >= 0)
    expected = [
        oracles.mesh_norm([tuple(r) for r in b.x], [tuple(r) for r in cand])
        for b in part.blocks
    ]
    assert radii.tolist() == expected


def test_covering_probability_decreases_with_block_size():
    # empirical frequency of {covering radius > h} at fixed h drops as n grows
    h = 0.05
    freqs = []
    cand = grid_1d(0.005)
    for n in (50, 200, 800):
        hits = 0
        reps = 120
        for rep in range(reps):
            ds = uniform_dataset(n, seed=1000 + 7 * n + rep)
            part = random_partition(ds, 1, rep)
            if mesh_norm_report(part, cand)[0] > h:
                hits += 1
        freqs.append(hits / reps)
    assert freqs[0] >= freqs[1] - 0.05
    assert freqs[1] >= freqs[2] - 0.05
    assert freqs[2] <= freqs[0] + 0.05
