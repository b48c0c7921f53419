import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import oracles
from avmlar import (
    AvmModel,
    Dataset,
    EstimatorConfig,
    EstimatorFamily,
    PartitionedDataset,
    Variant,
    data_dependent_bandwidth,
    default_candidates,
    fit_avm,
    knn_k_rule,
    mesh_norm_report,
    nwk_bandwidth_rule,
    predict_batch,
    random_partition,
)
from avmlar import avm
from avmlar.avm import block_estimates, knn_mean

NWK = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=1)


def uniform_dataset(n, d=1, seed=0, const_y=None):
    rng = np.random.default_rng(seed)
    y = np.full(n, const_y) if const_y is not None else rng.normal(size=n)
    return Dataset(rng.random((n, d)), y, np.tile([0.0, 1.0], (d, 1)))


def two_block_partition(xs, ys, first_indices):
    """Deterministic two-block split used to pin down per-block estimates."""
    ds = Dataset(np.asarray(xs, dtype=float)[:, None], ys, np.array([[0.0, 1.0]]))
    rest = [i for i in range(len(xs)) if i not in first_indices]
    return PartitionedDataset.from_indices(ds, [np.array(first_indices), np.array(rest)])


def oracle_blocks(model):
    """The model's blocks as the (xs, ys) lists that ``oracles`` takes."""
    return [([tuple(r) for r in b.x], list(b.y)) for b in model.partition.blocks]


def oracle_flags(blocks, kind, h, q):
    """Brute-force (active, degenerate) block counts at query ``q``."""
    active = sum(any(oracles.euclid(q, x) <= h for x in xs) for xs, _ in blocks)
    degenerate = sum(
        sum(oracles.kernel_value(kind, oracles.euclid(q, x) / h) for x in xs) == 0.0
        for xs, _ in blocks
    )
    return active, degenerate


def assert_matches_oracle(batch, blocks, kind, h, queries, fn, tol):
    """Values within ``tol`` of ``fn`` and block counts equal to the oracle's."""
    np.testing.assert_allclose(
        batch.values, [fn(blocks, kind, h, q) for q in queries], rtol=0, atol=tol
    )
    active, degenerate = zip(*(oracle_flags(blocks, kind, h, q) for q in queries))
    np.testing.assert_array_equal(batch.active_blocks, active)
    np.testing.assert_array_equal(batch.degenerate_blocks, degenerate)


# --- parameter rules ---------------------------------------------------


def test_bandwidth_rule_values():
    assert nwk_bandwidth_rule(10_000, 1, 1, 1.0) == pytest.approx(0.046416, abs=1e-5)
    assert nwk_bandwidth_rule(1, 2.0, 3, 0.5) == 0.5
    assert nwk_bandwidth_rule(413_363, 1.0, 2, 0.13) == pytest.approx(
        0.005127, abs=1e-5
    )


def test_knn_rule_values():
    assert knn_k_rule(10_000, 10, 1, 1, 1.0) == (46, False)
    assert knn_k_rule(10_000, 10_000, 1, 1, 1.0) == (1, True)
    assert knn_k_rule(10_000, 1, 1, 1, 1.0) == (464, False)


def test_data_dependent_bandwidth_values():
    # m is the number of radii: 4 blocks, the largest radius 0.1
    assert data_dependent_bandwidth(
        np.array([0.1, 0.02, 0.05, 0.0]), 1, 1
    ) == pytest.approx(0.29240, abs=1e-4)
    assert data_dependent_bandwidth(np.array([0.25]), 1, 1) == pytest.approx(
        0.62996, abs=1e-4
    )


def test_data_dependent_bandwidth_dominates_radii():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(1, 30))
        radii = rng.uniform(0.01, 0.9, size=m)
        r = float(rng.uniform(0.5, 3.0))
        d = int(rng.integers(1, 6))
        out = data_dependent_bandwidth(radii, r, d)
        assert out >= radii.max()


def test_data_dependent_bandwidth_all_zero_errors():
    with pytest.raises(ValueError):
        data_dependent_bandwidth(np.zeros(2), 1, 1)
    with pytest.raises(ValueError):
        data_dependent_bandwidth(np.zeros(0), 1, 1)  # no blocks


# --- variant predictions ------------------------------------------------


def test_m1_collapses_to_single_block_lar():
    ds = uniform_dataset(30, seed=2)
    model = fit_avm(ds, NWK, 1, 7, Variant.A1_PLAIN, h=0.2)
    q = [0.4]
    [(xs, ys)] = oracle_blocks(model)
    expected = oracles.nwk_estimate(xs, ys, "naive", 0.2, q)
    assert predict_batch(model, [q]).values[0] == pytest.approx(expected, abs=1e-12)


def test_a1_average_of_two_blocks():
    part = two_block_partition(
        [0.1, 0.12, 0.5, 0.52], [2.0, 2.0, 4.0, 4.0], [0, 1]
    )
    model = AvmModel(part, NWK, Variant.A1_PLAIN, 1.0)
    batch = predict_batch(model, [[0.3]])
    assert batch.values[0] == pytest.approx(3.0)
    assert batch.degenerate_blocks[0] == 0


def test_a1_degenerate_block_contributes_zero():
    part = two_block_partition([0.1, 0.9], [1.0, 4.0], [0])
    model = AvmModel(part, NWK, Variant.A1_PLAIN, 0.2)
    batch = predict_batch(model, [[0.8]])
    assert batch.values[0] == pytest.approx(2.0)  # (0 + 4) / 2
    assert batch.degenerate_blocks[0] == 1
    assert batch.active_blocks[0] == 1


def test_a3_averages_only_active_blocks():
    part = two_block_partition([0.1, 0.9], [1.0, 4.0], [0])
    model = AvmModel(part, NWK, Variant.A3_QUALIFIED, 0.2)
    batch = predict_batch(model, [[0.8]])
    assert batch.values[0] == pytest.approx(4.0)
    assert batch.active_blocks[0] == 1


def test_a3_no_active_blocks_returns_zero():
    part = two_block_partition([0.1, 0.9], [1.0, 4.0], [0])
    model = AvmModel(part, NWK, Variant.A3_QUALIFIED, 0.05)
    batch = predict_batch(model, [[0.5]])
    assert batch.values[0] == 0.0
    assert batch.active_blocks[0] == 0


def test_a3_equals_a1_when_all_blocks_active():
    ds = uniform_dataset(200, seed=3)
    h = 0.5  # large enough that every block sees every query
    m1 = fit_avm(ds, NWK, 4, 11, Variant.A1_PLAIN, h=h)
    m3 = fit_avm(ds, NWK, 4, 11, Variant.A3_QUALIFIED, h=h)
    grid = np.linspace(0.0, 1.0, 100)[:, None]
    b1 = predict_batch(m1, grid)
    b3 = predict_batch(m3, grid)
    assert np.all(b1.active_blocks == 4)
    np.testing.assert_allclose(b3.values, b1.values, atol=1e-12)


def test_a3_never_averages_structural_zero():
    # naive kernel: a block is degenerate exactly when it is inactive
    rng = np.random.default_rng(4)
    ds = uniform_dataset(60, seed=4)
    model = fit_avm(ds, NWK, 6, 1, Variant.A3_QUALIFIED, h=0.05)
    queries = rng.random((200, 1))
    batch = predict_batch(model, queries)
    assert np.all((batch.degenerate_blocks + batch.active_blocks) == model.m)


def test_a2_uses_common_bandwidth():
    ds = uniform_dataset(50, seed=5)
    model = fit_avm(ds, NWK, 5, 9, Variant.A2_DATA_DEPENDENT)
    radii = mesh_norm_report(model.partition, default_candidates(ds))
    assert radii.shape == (5,)
    assert model.tilde_h == pytest.approx(
        data_dependent_bandwidth(radii, NWK.r, NWK.d)
    )
    assert model.tilde_h >= radii.max()
    # common bandwidth covers the domain: no degenerate blocks at covered queries
    batch = predict_batch(model, np.linspace(0, 1, 50)[:, None])
    assert np.all(batch.degenerate_blocks == 0)


def test_a2_m1_equals_single_lar_with_tilde():
    ds = uniform_dataset(40, seed=6)
    model = fit_avm(ds, NWK, 1, 7, Variant.A2_DATA_DEPENDENT)
    q = [0.3]
    [(xs, ys)] = oracle_blocks(model)
    expected = oracles.nwk_estimate(xs, ys, "naive", model.tilde_h, q)
    assert predict_batch(model, [q]).values[0] == pytest.approx(expected, abs=1e-12)


def test_constant_responses_reproduced_by_all_variants():
    ds = uniform_dataset(60, seed=7, const_y=2.5)
    for variant in Variant:
        model = fit_avm(ds, NWK, 3, 5, variant, h=0.3)
        assert predict_batch(model, [[0.5]]).values[0] == pytest.approx(2.5)


def test_values_within_response_range_when_all_blocks_fine():
    rng = np.random.default_rng(8)
    ds = uniform_dataset(120, seed=8)
    model = fit_avm(ds, NWK, 4, 3, Variant.A1_PLAIN, h=0.6)
    queries = rng.random((50, 1))
    batch = predict_batch(model, queries)
    ok = batch.degenerate_blocks == 0
    assert np.all(batch.values[ok] >= ds.y.min() - 1e-12)
    assert np.all(batch.values[ok] <= ds.y.max() + 1e-12)


def test_active_fraction_nonincreasing_under_refinement():
    # contiguous seeded slicing nests for m = 1, 2, 4, 8 when sizes divide
    ds = uniform_dataset(16, seed=9)
    h = 0.07
    q = [0.37]
    fractions = []
    for m in (1, 2, 4, 8):
        model = fit_avm(ds, NWK, m, 13, Variant.A1_PLAIN, h=h)
        fractions.append(predict_batch(model, [q]).active_blocks[0] / m)
    assert all(a >= b - 1e-12 for a, b in zip(fractions, fractions[1:]))


def test_fit_clamps_rule_k_to_smallest_block():
    ds = uniform_dataset(10, seed=14)
    cfg = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1, constant_c=100.0)
    assert knn_k_rule(10, 2, cfg.r, cfg.d, cfg.constant_c).k > 5
    model = fit_avm(ds, cfg, 2, 0)
    assert model.h_or_k == model.partition.min_block_size == 5
    with pytest.raises(ValueError):
        fit_avm(ds, cfg, 2, 0, k=6)  # an explicit k is not clamped


def test_knn_variants_coincide():
    cfg = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1)
    ds = uniform_dataset(40, seed=10)
    q = np.linspace(0, 1, 20)[:, None]
    vals = {}
    for variant in Variant:
        model = fit_avm(ds, cfg, 4, 21, variant, k=3)
        vals[variant] = predict_batch(model, q).values
    np.testing.assert_array_equal(vals[Variant.A1_PLAIN], vals[Variant.A2_DATA_DEPENDENT])
    np.testing.assert_array_equal(vals[Variant.A1_PLAIN], vals[Variant.A3_QUALIFIED])


def test_knn_mean_over_a_k_grid_matches_oracle():
    # dyadic lattice: each input three times, at scattered indices, and queries
    # on and halfway between inputs, so distances tie exactly; every k from 1
    # to n, k = n included
    rng = np.random.default_rng(12)
    x = rng.permutation(np.repeat(np.arange(7) / 8, 3))
    y = rng.integers(-1000, 1000, x.size) / 100
    queries = np.arange(-2, 16) / 16
    dist = cdist(queries[:, None], x[:, None])
    ks = list(range(1, x.size + 1))
    grid = knn_mean(dist, y, ks)
    assert grid.shape == (len(ks), len(queries))
    xs, tol = [(v,) for v in x], 1e-12 * np.abs(y).max()
    for k, row in zip(ks, grid):
        expected = [oracles.knn_estimate(xs, list(y), k, (q,)) for q in queries]
        np.testing.assert_allclose(row, expected, rtol=0, atol=tol)
        # a one-k call selects the same samples and sums them in the same order
        np.testing.assert_array_equal(knn_mean(dist, y, [k])[0], row)
    # rows follow the order of ks, which need not be sorted
    np.testing.assert_array_equal(knn_mean(dist, y, [5, 2, 9]), grid[[4, 1, 8]])


def test_batch_matches_scalar_api():
    # a one-row call is bitwise the matching row of a larger batch
    ds = uniform_dataset(50, seed=11)
    model = fit_avm(ds, NWK, 5, 2, Variant.A1_PLAIN, h=0.1)
    queries = np.random.default_rng(11).random((20, 1))
    batch = predict_batch(model, queries)
    for i, q in enumerate(queries):
        one = predict_batch(model, q)
        assert one.values.tobytes() == batch.values[i : i + 1].tobytes()
        assert one.active_blocks[0] == batch.active_blocks[i]
        assert one.degenerate_blocks[0] == batch.degenerate_blocks[i]


@pytest.mark.parametrize(
    "family, d, params",
    [
        (EstimatorFamily.NWK_NAIVE, 1, [0.2, 0.05, 0.5, 0.2]),
        (EstimatorFamily.KNN, 1, [3, 1, 7, 3]),
        (EstimatorFamily.NWK_GAUSSIAN, 1, [0.2, 0.05, 0.5, 0.2]),
        (EstimatorFamily.NWK_NAIVE, 2, [0.2, 0.05, 0.5, 0.2]),
        (EstimatorFamily.KNN, 2, [40, 3, 90, 40]),
    ],
    ids=["naive-d1", "knn-d1", "gaussian-d1", "naive-d2", "knn-d2"],
)
def test_block_estimates_over_a_grid_matches_single_calls(monkeypatch, family, d, params):
    # params unsorted and with a repeat: row p is the one-parameter call at params[p]
    rng = np.random.default_rng(16)
    if family is EstimatorFamily.KNN and d == 1:
        # every input of a 1/8 lattice four times: duplicate runs reach knn_mean
        x = rng.permutation(np.repeat(np.arange(9) / 8, 4))[:, None]
        queries = np.arange(-4, 21)[:, None] / 16
    else:
        x, queries = rng.random((1500, d)), rng.random((100, d))
    part = random_partition(Dataset(x, rng.normal(size=len(x))), 3, 4)
    calls = []
    monkeypatch.setattr(avm, "knn_mean", lambda *a: calls.append(a) or knn_mean(*a))
    grid = block_estimates(part, family, params, queries)
    # k-NN reaches knn_mean at d=2 always, at d=1 for the lattice's duplicate runs
    assert bool(calls) == (family is EstimatorFamily.KNN)
    for got in grid:
        assert got.shape == (len(params), part.m, len(queries))
    single = [block_estimates(part, family, [p], queries) for p in params]
    for got, one in zip(grid, zip(*single)):
        assert got.tobytes() == np.concatenate(one).tobytes()


def test_model_validation():
    ds = uniform_dataset(10, seed=12)
    part = random_partition(ds, 2, 0)
    with pytest.raises(ValueError):
        AvmModel(part, NWK, Variant.A1_PLAIN, -0.5)
    with pytest.raises(ValueError):
        AvmModel(part, NWK, Variant.A2_DATA_DEPENDENT, 0.5)  # missing tilde_h
    with pytest.raises(ValueError):
        AvmModel(part, NWK, Variant.A1_PLAIN, 0.5, tilde_h=0.6)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            fit_avm(ds, NWK, 2, 0, h=bad)
        with pytest.raises(ValueError):
            AvmModel(part, NWK, Variant.A2_DATA_DEPENDENT, 0.5, tilde_h=bad)
    knn_cfg = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1)
    with pytest.raises(ValueError):
        AvmModel(part, knn_cfg, Variant.A1_PLAIN, 6)  # k > min block size
    with pytest.raises(ValueError):
        AvmModel(part, knn_cfg, Variant.A1_PLAIN, np.inf)
    # a non-integral m or k is rejected, never truncated
    with pytest.raises(ValueError, match="integer"):
        AvmModel(part, knn_cfg, Variant.A1_PLAIN, 2.5)
    with pytest.raises(ValueError, match="integer"):
        fit_avm(ds, knn_cfg, 2, 0, k=2.5)
    with pytest.raises(ValueError, match="integer"):
        fit_avm(ds, NWK, 2.7, 0)
    with pytest.raises(ValueError):
        fit_avm(ds, knn_cfg, 4, 0, h=0.5)  # h is for NWK only
    with pytest.raises(ValueError):
        fit_avm(ds, NWK, 2, 0, k=3)  # k is for k-NN only
    # only NWK A2 computes covering radii, so only it takes candidates
    cand = default_candidates(ds)
    for cfg, variant in (
        (NWK, Variant.A1_PLAIN),
        (NWK, Variant.A3_QUALIFIED),
        (knn_cfg, Variant.A2_DATA_DEPENDENT),
    ):
        with pytest.raises(ValueError, match="candidates"):
            fit_avm(ds, cfg, 2, 0, variant, candidates=cand)
    a2 = fit_avm(ds, NWK, 2, 0, Variant.A2_DATA_DEPENDENT, candidates=cand)
    assert a2.tilde_h == fit_avm(ds, NWK, 2, 0, Variant.A2_DATA_DEPENDENT).tilde_h
    model = fit_avm(ds, NWK, 2, 0, Variant.A1_PLAIN, h=0.2)
    with pytest.raises(ValueError):
        predict_batch(model, np.zeros((3, 2)))  # dimension mismatch
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            predict_batch(model, [[0.5], [bad]])  # non-finite query


def test_naive_window_edge_holds_duplicate_run():
    # x_in lies below q - h, yet |q - x_in| <= h in float arithmetic, because
    # q - x_in rounds; x_out, the next double down, is outside. Runs of three
    # copies sit at the left edge of q and, negated, at the right edge of -q,
    # so an edge found from q - h alone, or widened by one sample and
    # trimmed, drops part of the run.
    q, h = 0.20712384061388567, 0.3306078838121382
    x_in, x_out = -0.12348404319825253, -0.12348404319825254
    assert x_in < q - h and abs(q - x_in) <= h < abs(q - x_out)
    edge = [x_in] * 3 + [x_out] * 3
    x = edge + [-v for v in edge] + [0.0, 0.1, 0.3]
    ds = Dataset(np.array(x)[:, None], 2.0 ** np.arange(len(x)))
    queries = np.array([[q], [-q], [0.05], [5.0]])
    tol = 1e-12 * np.abs(ds.y).max()
    everything = np.arange(ds.n)
    left_runs = np.arange(len(edge))  # block 0 of m=2: only the edge runs at q
    rest = np.arange(len(edge), ds.n)
    for indices in ((everything,), (left_runs, rest)):
        part = PartitionedDataset.from_indices(ds, list(indices))
        for variant, fn in (
            (Variant.A1_PLAIN, oracles.avm_a1_nwk),
            (Variant.A3_QUALIFIED, oracles.avm_a3_nwk),
        ):
            model = AvmModel(part, NWK, variant, h)
            batch = predict_batch(model, queries)
            blocks = oracle_blocks(model)
            assert_matches_oracle(batch, blocks, "naive", h, queries, fn, tol)


KNN = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1)


def assert_knn_matches_oracle(ds, queries, ms, seed=0):
    """k-NN ``predict_batch`` against the oracle at k = 1, 3 and the smallest block."""
    tol = 1e-12 * np.abs(ds.y).max()
    for m in ms:
        part = random_partition(ds, m, seed)
        for k in sorted({1, min(3, part.min_block_size), part.min_block_size}):
            model = AvmModel(part, KNN, Variant.A1_PLAIN, k)
            blocks = oracle_blocks(model)
            with np.errstate(over="ignore"):  # the oracle squares past the range
                expected = [oracles.avm_knn(blocks, k, q) for q in queries]
            got = predict_batch(model, queries).values
            np.testing.assert_allclose(
                got, expected, rtol=0, atol=tol, err_msg=f"{m=} {k=}"
            )


def test_knn_window_edges_match_oracle():
    rng = np.random.default_rng(13)
    # every input of a 1/8 lattice four times, at scattered indices: duplicate
    # runs straddle both window edges, and queries halfway between inputs see
    # equal distances on both sides, the left sample often the later one
    lattice = rng.permutation(np.repeat(np.arange(9) / 8, 4))
    lattice_q = np.arange(-20, 29) / 16  # beyond both ends of every block
    # distinct inputs at equal rounded distance: 1 - x rounds to 1 for all of
    # them, and at 1e-160 the squares of distinct gaps round to one subnormal
    # or to 0, where |q - x| would tell them apart
    near_zero = rng.permutation([0.0, 1e-17, 2e-17, 3e-17] * 3 + [2.0] * 4)
    tiny = 1e-160 * rng.permutation(np.repeat(1 + rng.integers(0, 8, 12) * 2.0**-12, 3))
    cases = (
        (lattice, lattice_q),
        (near_zero, np.array([1.0, -1.0, 1.5, 0.5])),
        (tiny, 1e-160 * np.array([0.0, 0.5, 1.0, 1.001, 1.002, 3.0])),
    )
    for x, queries in cases:
        ds = Dataset(x[:, None], rng.integers(-1000, 1000, x.size) / 100.0)
        assert_knn_matches_oracle(ds, queries[:, None], ms=(1, 2, 7))


@pytest.mark.parametrize("scale, spread", [(1e-160, 1.0), (1e160, 1e-5)])
def test_sorted_paths_match_oracle_outside_the_normal_range(scale, spread):
    # at 1e-160 the squared gaps are subnormal and round; at 1e160 gaps past
    # 1.3e154 square to inf. Every path must use cdist's distance there, not |q - x|.
    rng = np.random.default_rng(14)
    x = scale * (0.5 + spread * rng.uniform(-0.5, 0.5, 60))
    x[-6:] = x[:6]  # duplicate inputs
    ds = Dataset(x[:, None], rng.normal(size=x.size))
    queries = scale * (0.5 + spread * rng.uniform(-0.7, 0.7, 50))[:, None]
    cand = scale * (0.5 + spread * np.linspace(-0.7, 0.7, 41))[:, None]
    h = scale * spread * 0.3
    tol = 1e-12 * np.abs(ds.y).max()
    for m in (1, 3):
        part = random_partition(ds, m, 1)
        blocks = [([tuple(r) for r in b.x], list(b.y)) for b in part.blocks]
        with np.errstate(over="ignore"):  # the oracle squares past the range
            for variant, fn in (
                (Variant.A1_PLAIN, oracles.avm_a1_nwk),
                (Variant.A3_QUALIFIED, oracles.avm_a3_nwk),
            ):
                batch = predict_batch(AvmModel(part, NWK, variant, h), queries)
                assert_matches_oracle(batch, blocks, "naive", h, queries, fn, tol)
            points = [tuple(c) for c in cand]
            expected = [oracles.mesh_norm(xs, points) for xs, _ in blocks]
        assert mesh_norm_report(part, cand).tolist() == expected
    assert_knn_matches_oracle(ds, queries, ms=(1, 3))


@pytest.mark.parametrize("n, m, k, t", [(50_000, 1, 32, 1000), (20_000, 10_000, 1, 50)])
def test_knn_memory_is_bounded(n, m, k, t):
    # one block: query x sample distance and argpartition matrices would take
    # 800 MB. Many blocks: windows over all (block, query) pairs at once would
    # take 68 MiB
    ds = uniform_dataset(n, seed=15)
    model = fit_avm(ds, KNN, m, 0, k=k)
    queries = np.random.default_rng(15).random((t, 1))
    tracemalloc.start()
    try:
        predict_batch(model, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# dyadic lattice (multiples of 1/8): distances are exact, so distance ties,
# duplicate inputs and |x - q| = h occur exactly; a coordinate of 40 puts a
# query so far out that every Gaussian weight underflows to 0
_INPUT = [i / 8 for i in range(9)]
_QUERY = [i / 8 for i in range(-2, 11)] + [40.0]


@st.composite
def lattice_problems(draw):
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, min(4, n)))

    def points(coords, **size):
        return st.lists(st.tuples(*[st.sampled_from(coords)] * d), **size)

    x = draw(points(_INPUT, min_size=n, max_size=n))
    y = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    queries = draw(points(_QUERY, min_size=1, max_size=6))
    h = draw(st.integers(1, 8)) / 8
    k = draw(st.integers(1, n // m))
    seed = draw(st.integers(0, 2**16))
    return Dataset(x, np.array(y) / 100), np.array(queries), m, h, k, seed


@settings(max_examples=200)
@given(lattice_problems())
def test_variants_match_brute_force_oracle(problem):
    ds, queries, m, h, k, seed = problem
    tol = 1e-12 * np.abs(ds.y).max()
    # half-step candidates: every covering radius is at least 1/16
    cand = np.array(list(itertools.product(np.arange(0.5, 9) / 8, repeat=ds.d)))
    oracle = {
        Variant.A1_PLAIN: oracles.avm_a1_nwk,
        Variant.A2_DATA_DEPENDENT: oracles.avm_a2_nwk,
        Variant.A3_QUALIFIED: oracles.avm_a3_nwk,
    }
    for family, kind in (
        (EstimatorFamily.NWK_NAIVE, "naive"),
        (EstimatorFamily.NWK_GAUSSIAN, "gaussian"),
    ):
        cfg = EstimatorConfig(family, 1.0, ds.d)
        for variant, fn in oracle.items():
            a2 = variant is Variant.A2_DATA_DEPENDENT
            model = fit_avm(
                ds, cfg, m, seed, variant, h=h, candidates=cand if a2 else None
            )
            blocks = oracle_blocks(model)
            bandwidth = h
            if a2:
                radii = [oracles.mesh_norm(xs, cand) for xs, _ in blocks]
                tilde = oracles.tilde_bandwidth(radii, m, cfg.r, cfg.d)
                assert model.tilde_h == pytest.approx(tilde, rel=1e-12, abs=0)
                bandwidth = model.tilde_h
            batch = predict_batch(model, queries)
            assert_matches_oracle(batch, blocks, kind, bandwidth, queries, fn, tol)
    # k-NN ties go to the lower index within each block
    model = fit_avm(ds, EstimatorConfig(EstimatorFamily.KNN, 1.0, ds.d), m, seed, k=k)
    blocks = oracle_blocks(model)
    np.testing.assert_allclose(
        predict_batch(model, queries).values,
        [oracles.avm_knn(blocks, k, q) for q in queries],
        rtol=0,
        atol=tol,
    )
