import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import oracles
from avmlar import partition as partition_module
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
    for bad in ([], [np.array([], dtype=int)]):
        with pytest.raises(ValueError, match="at least one row"):
            PartitionedDataset.from_indices(ds, bad)
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
    # is a tie that rounds down onto a run of 7 equal candidates; the first
    # of the run and the candidate below it bracket it and are scored
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


def test_mesh_norm_1d_end_gaps_overflow_to_inf():
    # each block's one sample is more than the largest double from the
    # candidate beyond its end, first above it, then below it
    x = np.array([[-1e308], [1e308]])
    part = PartitionedDataset.from_indices(Dataset(x, np.zeros(2)), [[0], [1]])
    expected = [oracle_radius(b.x, x) for b in part.blocks]
    assert mesh_norm_report(part, x).tolist() == expected == [np.inf, np.inf]


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e160])
def test_mesh_norm_both_d2_rules_match_oracle(scale):
    # one partition on all three d>1 rules: a block above the directed
    # Hausdorff limit (2,000 samples at d=2) takes the k-d tree, one of 600
    # samples directed Hausdorff, and the 1-10 sample blocks the pruned path
    assert 10 <= partition_module._PRUNED_SAMPLES / 4 < 600
    rng = np.random.default_rng(13)
    sizes = [2100, 600] + rng.integers(1, 11, size=50).tolist()
    n = sum(sizes)
    ds = Dataset(rng.random((n, 2)) * scale, np.zeros(n))
    indices = np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
    part = PartitionedDataset.from_indices(ds, indices)
    cand = rng.random((40, 2)) * 1.2 * scale
    expected = [oracle_radius(b.x, cand) for b in part.blocks]
    assert mesh_norm_report(part, cand).tolist() == expected


def distance_counter(monkeypatch):
    """Counts the distances ``mesh_norm_report``'s ``cdist`` calls return."""
    seen = [0]

    def counting(a, b, *args, **kwargs):
        seen[0] += len(a) * len(b)
        return cdist(a, b, *args, **kwargs)

    monkeypatch.setattr(partition_module, "cdist", counting)
    return seen


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e160])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_mesh_norm_pruned_blocks_match_oracle(monkeypatch, d, scale):
    # blocks of 1-10 samples on the pruned path, one-sample blocks among
    # them: half the inputs uniform, half in four tight clusters, one input
    # repeated five times, and candidates that are samples, lie in the box
    # or lie beyond it. At 1e-160 squared gaps underflow, at 1e160 they
    # overflow: no pair may be shut there, so every distance is taken
    rng = np.random.default_rng(20 + d)
    centres = rng.random((4, d))
    x = np.vstack(
        [rng.random((150, d)), centres[rng.integers(0, 4, 150)] + rng.normal(0, 0.01, (150, d))]
    )
    x[-5:] = x[0]
    cand = np.vstack([x[::3], rng.random((60, d)), rng.random((40, d)) * 1.4 - 0.2])
    ds = Dataset(x * scale, np.zeros(len(x)))
    sizes = [1] * 10 + [10] * 4 + rng.integers(1, 11, size=40).tolist()
    indices = np.split(rng.permutation(len(x))[: sum(sizes)], np.cumsum(sizes)[:-1])
    part = PartitionedDataset.from_indices(ds, indices)
    seen = distance_counter(monkeypatch)
    expected = [oracle_radius(b.x, cand * scale) for b in part.blocks]
    assert mesh_norm_report(part, cand * scale).tolist() == expected
    # distances to the leaf representatives, then to every candidate of
    # every open (block, leaf) pair
    leaves = len(partition_module._candidate_leaves(cand * scale)[1])
    every = (leaves + len(cand)) * part.data.n
    assert seen[0] < every if scale == 1.0 else seen[0] == every


def test_mesh_norm_pruned_calls_stay_at_chunk_scale(monkeypatch):
    # few candidates and blocks of 100 samples: a group sized by the
    # candidates alone would send all 2,000 samples to one cdist call
    monkeypatch.setattr(partition_module, "_CHUNK_DISTANCES", 1024)
    sizes = []

    def spy(a, b, *args, **kwargs):
        sizes.append(len(a) * len(b))
        return cdist(a, b, *args, **kwargs)

    monkeypatch.setattr(partition_module, "cdist", spy)
    rng = np.random.default_rng(15)
    part = random_partition(Dataset(rng.random((2000, 2)), np.zeros(2000)), 20, 0)
    cand = rng.random((8, 2))
    expected = [oracle_radius(b.x, cand) for b in part.blocks]
    assert mesh_norm_report(part, cand).tolist() == expected
    assert 0 < max(sizes) <= 1024


@pytest.mark.parametrize("d", [8, 9, 10, 11, 12])
def test_mesh_norm_tree_side_is_exact_at_high_d(monkeypatch, d):
    # from d=8 on, the tree's own sums of squared gaps round differently from
    # cdist's; each nearest sample it finds is measured again. Both size
    # limits are lowered so that blocks small enough for the oracle take the
    # tree
    monkeypatch.setattr(partition_module, "_HAUSDORFF_SAMPLES_PER_DIM", 0)
    monkeypatch.setattr(partition_module, "_PRUNED_SAMPLES", 0)
    rng = np.random.default_rng(30 + d)
    sizes = rng.integers(1, 30, size=60)
    ds = Dataset(rng.random((sizes.sum(), d)), np.zeros(sizes.sum()))
    part = PartitionedDataset.from_indices(ds, np.split(np.arange(ds.n), np.cumsum(sizes)[:-1]))
    cand = rng.random((20, d))
    expected = [oracle_radius(b.x, cand) for b in part.blocks]
    assert mesh_norm_report(part, cand).tolist() == expected


@pytest.mark.parametrize("rule", ["pruned", "hausdorff", "tree"])
def test_mesh_norm_d2_gaps_overflow_to_inf(monkeypatch, rule):
    # differences between samples and candidates at +-1e308 overflow to inf
    # on each d>1 rule, with no warning
    limits = {"pruned": (1600, 1000), "hausdorff": (0, 1000), "tree": (0, 0)}[rule]
    monkeypatch.setattr(partition_module, "_PRUNED_SAMPLES", limits[0])
    monkeypatch.setattr(partition_module, "_HAUSDORFF_SAMPLES_PER_DIM", limits[1])
    x = np.array([[-1e308, 0.0], [1e308, 0.0], [1e308, 1e308]])
    part = PartitionedDataset.from_indices(Dataset(x, np.zeros(3)), [[0], [1, 2]])
    cand = np.vstack([x, [[0.0, 0.0], [-1e308, 1e308]]])
    expected = [oracle_radius(b.x, cand) for b in part.blocks]
    assert mesh_norm_report(part, cand).tolist() == expected == [np.inf, np.inf]


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


def lexsort_order(part):
    block = np.repeat(np.arange(part.m), np.diff(part.offsets))
    return np.lexsort((part.data.x[:, 0], block))


def sorts_match(part):
    """x_order is the lexsort order, x_sort one stable sort of x, and
    x_rank places the first in the second."""
    return (
        np.array_equal(part.x_order, lexsort_order(part))
        and np.array_equal(part.x_sort, np.argsort(part.data.x[:, 0], kind="stable"))
        and np.array_equal(part.x_sort[part.x_rank], part.x_order)
    )


def test_x_order_is_the_lexsort_order():
    # x_sort comes from an unstable argsort and a tie fix, x_order from it and
    # a block pass; they must equal one stable sort by x and by (block, x),
    # ties in stored order
    rng = np.random.default_rng(12)
    for case in range(60):
        n = int(rng.integers(1, 400))
        if case % 2:  # tie-heavy: a few distinct values, -0.0 and 0.0 among them
            x = rng.integers(-3, 4, n) / 2 * rng.choice([1.0, 1.0, -1.0], n)
        else:
            x = rng.random(n)
        part = random_partition(Dataset(x[:, None], np.zeros(n)), int(rng.integers(1, n + 1)), case)
        assert sorts_match(part), case
    for n, m in ((500, 1), (500, 500), (300, 256), (300, 257)):
        x = rng.integers(0, 20, n) / 20
        part = random_partition(Dataset(x[:, None], np.zeros(n)), m, 1)
        assert sorts_match(part), (n, m)
    # uneven blocks, and one value everywhere
    ds = Dataset(rng.integers(0, 6, (50, 1)) / 5, np.zeros(50))
    perm = rng.permutation(50)
    for x in (ds.x, np.full((50, 1), 0.5)):
        blocks = np.split(perm, [1, 3, 30, 31, 45])
        part = PartitionedDataset.from_indices(Dataset(x, np.zeros(50)), blocks)
        assert sorts_match(part)
    # past 2**16 blocks the block key no longer fits 16 bits
    n = 140_000
    part = random_partition(Dataset(rng.integers(0, 1000, (n, 1)) / 1000, np.zeros(n)), 66_000, 3)
    assert sorts_match(part)


def test_random_partition_is_the_array_split_of_a_permutation():
    # rows, offsets and data bitwise as splitting the seeded permutation
    # with np.array_split and joining the pieces
    for n, m in ((12, 4), (12, 5), (10, 3), (7, 1), (7, 7), (1, 1), (10_000, 350)):
        ds = uniform_dataset(n, d=2, seed=n)
        perm = np.random.default_rng(m).permutation(n)
        pieces = np.array_split(perm, m)
        rows = np.concatenate(pieces)
        offsets = np.cumsum([0] + [len(p) for p in pieces])
        part = random_partition(ds, m, m)
        for got, want in ((part.rows, rows), (part.offsets, offsets)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, m)
        assert part.data.x.tobytes() == ds.x[rows].tobytes()
        assert part.data.y.tobytes() == ds.y[rows].tobytes()
        again = PartitionedDataset.from_indices(ds, pieces)
        assert again.rows.tobytes() == rows.tobytes()
        assert again.offsets.tobytes() == offsets.tobytes()


@pytest.mark.parametrize(
    "n, d, m, k",
    [
        (1000, 5, 1, 4000),
        (1000, 5, 100, 4000),
        (20_000, 1, 10_000, 4000),
        (20_000, 5, 4000, 20_000),
    ],
    ids=["d5-one-block", "d5-small-blocks", "d1-half", "d5-pruned"],
)
def test_mesh_norm_memory_is_bounded(n, d, m, k):
    # a candidate-by-sample distance array would take k * n * 8 B: one k-d
    # tree (one block), the pruned path at 10 and at 5 samples per block (a
    # leaf-by-block array would take 2,048 * 4,000 * 8 B = 66 MB there), and
    # the d=1 gap pass at m = n/2
    rng = np.random.default_rng(9)
    part = random_partition(Dataset(rng.random((n, d)), np.zeros(n)), m, 0)
    cand = rng.random((k, d))
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
    with pytest.raises(ValueError, match="shape"):
        one_block_radius(blk, np.zeros((2, 1, 1)))
    # a 1-d array is one point
    assert one_block_radius(blk, np.array([0.1])) == pytest.approx(0.4)


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
