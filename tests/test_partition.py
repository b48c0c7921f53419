import tracemalloc

import numpy as np
import pytest

import oracles
from avmlar import (
    Dataset,
    default_candidates,
    mesh_norm,
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
    assert sorted(part.indices[0]) == list(range(8))


def test_even_split_sizes():
    ds = uniform_dataset(10)
    part = random_partition(ds, 5, 0)
    assert [b.n for b in part.blocks] == [2, 2, 2, 2, 2]
    union = np.sort(np.concatenate(part.indices))
    assert np.array_equal(union, np.arange(10))


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
        union = np.sort(np.concatenate(part.indices))
        assert np.array_equal(union, np.arange(n))
        again = random_partition(ds, m, seed)
        for a, b in zip(part.indices, again.indices):
            assert np.array_equal(a, b)


def test_partition_rejects_m_out_of_range():
    ds = uniform_dataset(5)
    with pytest.raises(ValueError):
        random_partition(ds, 6, 0)
    with pytest.raises(ValueError):
        random_partition(ds, 0, 0)


def grid_1d(step=0.01):
    return np.arange(0.0, 1.0 + step / 2, step)[:, None]


def test_mesh_norm_two_point_block():
    blk = Dataset(np.array([[0.2], [0.8]]), [0.0, 0.0], np.array([[0.0, 1.0]]))
    assert mesh_norm(blk, grid_1d()) == pytest.approx(0.30, abs=0.01)


def test_mesh_norm_zero_when_candidates_covered():
    blk = Dataset(np.array([[0.2], [0.8]]), [0.0, 0.0])
    assert mesh_norm(blk, np.array([[0.2], [0.8]])) == 0.0


def test_mesh_norm_center_block():
    blk = Dataset(np.array([[0.5]]), [0.0], np.array([[0.0, 1.0]]))
    assert mesh_norm(blk, grid_1d()) == pytest.approx(0.50, abs=0.01)


def test_mesh_norm_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(25):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 12))
        c = int(rng.integers(1, 15))
        blk = Dataset(rng.random((n, d)), np.zeros(n))
        cand = rng.random((c, d))
        expected = oracles.mesh_norm([tuple(r) for r in blk.x], [tuple(r) for r in cand])
        assert mesh_norm(blk, cand) == pytest.approx(expected, abs=1e-12)


def test_mesh_norm_1d_is_exact():
    # lattice blocks with duplicates, one-sample blocks, and candidates
    # beyond both ends of every block; a step of 1/10 is not a dyadic
    # fraction, so candidate - sample rounds and only the same arithmetic
    # as the oracle gives the same bits
    rng = np.random.default_rng(10)
    cand = (np.arange(-5, 26) / 10)[:, None]
    for n in [1] * 10 + list(rng.integers(2, 16, size=190)):
        x = rng.integers(0, 21, size=n)[:, None] / 10
        if n > 1:
            x[-1] = x[0]  # at least one duplicate input
        expected = oracles.mesh_norm([tuple(r) for r in x], [tuple(r) for r in cand])
        assert mesh_norm(Dataset(x, np.zeros(n)), cand) == expected


def test_mesh_norm_memory_is_bounded():
    # a candidate-by-sample distance array would take 4000 * 1000 * 5 * 8 B
    rng = np.random.default_rng(9)
    blk = Dataset(rng.random((1000, 5)), np.zeros(1000))
    cand = rng.random((4000, 5))
    tracemalloc.start()
    try:
        mesh_norm(blk, cand)
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
        base = mesh_norm(Dataset(blk_x, np.zeros(n)), cand)
        bigger_block = np.vstack([blk_x, rng.random((1, 2))])
        assert mesh_norm(Dataset(bigger_block, np.zeros(n + 1)), cand) <= base + 1e-12
        more_cand = np.vstack([cand, rng.random((3, 2))])
        assert mesh_norm(Dataset(blk_x, np.zeros(n)), more_cand) >= base - 1e-12


def test_mesh_norm_bounded_by_domain_diameter():
    ds = uniform_dataset(30, d=2, seed=8)
    part = random_partition(ds, 5, 1)
    cand = default_candidates(ds)
    diam = np.linalg.norm(ds.domain_bounds[:, 1] - ds.domain_bounds[:, 0])
    for blk in part.blocks:
        assert mesh_norm(blk, cand) <= diam


def test_mesh_norm_rejects_bad_inputs():
    blk = Dataset(np.array([[0.5]]), [0.0])
    with pytest.raises(ValueError):
        mesh_norm(blk, np.empty((0, 1)))
    with pytest.raises(ValueError):
        mesh_norm(blk, np.array([[0.1, 0.2]]))


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
    assert radii.tolist() == [mesh_norm(b, cand) for b in part.blocks]


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
            if mesh_norm(part.blocks[0], cand) > h:
                hits += 1
        freqs.append(hits / reps)
    assert freqs[0] >= freqs[1] - 0.05
    assert freqs[1] >= freqs[2] - 0.05
    assert freqs[2] <= freqs[0] + 0.05
