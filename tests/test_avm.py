import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import oracles
from avmlar import (
    AvmModel,
    Dataset,
    EstimatorConfig,
    EstimatorFamily,
    PartitionedDataset,
    TargetKind,
    TargetModel,
    Variant,
    data_dependent_bandwidth,
    default_candidates,
    fit_avm,
    generate_dataset,
    generate_test_set,
    knn_k_rule,
    mesh_norm_report,
    nwk_bandwidth_rule,
    predict_batch,
    random_partition,
)
from avmlar import avm
from avmlar import partition as partition_module
from avmlar.avm import block_estimates, knn_mean
from avmlar.core import distance_1d
from avmlar.kernels import KernelKind, exact_gaussian_weights, gaussian_weights, kernel_profile

NWK = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=1)
NAIVE_D2 = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=2)
GAUSSIAN_D2 = EstimatorConfig(EstimatorFamily.NWK_GAUSSIAN, r=1.0, d=2)


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
    # whole counts may be given as floats
    assert knn_k_rule(10_000.0, 10.0, 1, 1.0, 1.0) == (46, False)
    assert nwk_bandwidth_rule(100.0, 1, 2.0, 1) == nwk_bandwidth_rule(100, 1, 2, 1)


@pytest.mark.parametrize(
    "rule, args",
    [
        (nwk_bandwidth_rule, (100, 1, 1.5, 1)),
        (nwk_bandwidth_rule, (100, 1, np.nan, 1)),
        (nwk_bandwidth_rule, (100, 1, np.inf, 1)),
        (nwk_bandwidth_rule, (2.5, 1, 1, 1)),
        (nwk_bandwidth_rule, (np.nan, 1, 1, 1)),
        (nwk_bandwidth_rule, (np.inf, 1, 1, 1)),
        (nwk_bandwidth_rule, (100, np.nan, 1, 1)),
        (nwk_bandwidth_rule, (100, np.inf, 1, 1)),
        (nwk_bandwidth_rule, (100, 1, 1, np.nan)),
        (nwk_bandwidth_rule, (100, 1, 1, np.inf)),
        (nwk_bandwidth_rule, (100, 1, 0, 1)),
        (knn_k_rule, (100, 2, 1, 1, np.inf)),
        (knn_k_rule, (100, 2, 1, 1, np.nan)),
        (knn_k_rule, (100, 2, 1, 1, 1e308)),  # k overflows
        (knn_k_rule, (100, 2, np.inf, 1, 1)),
        (knn_k_rule, (100, 2, np.nan, 1, 1)),
        (knn_k_rule, (100, 2.5, 1, 1, 1)),
        (knn_k_rule, (100, np.inf, 1, 1, 1)),
        (knn_k_rule, (100, np.nan, 1, 1, 1)),
        (knn_k_rule, (100.5, 2, 1, 1, 1)),
        (knn_k_rule, (np.inf, 2, 1, 1, 1)),
        (knn_k_rule, (100, 2, 1, 1.5, 1)),
        (knn_k_rule, (100, 2, 1, np.nan, 1)),
        (knn_k_rule, (100, 0, 1, 1, 1)),
    ],
)
def test_rules_reject_bad_arguments(rule, args):
    # counts must be whole numbers >= 1, r and c positive and finite
    with pytest.raises(ValueError):
        rule(*args)


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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            data_dependent_bandwidth(np.array([bad, 1.0]), 1, 1)


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
    # a one-row call is bitwise the matching row of a larger batch; repeated
    # queries share one k-NN run in the batch, which each one-row call sums
    # alone, and a dense batch spans several query chunks
    ds, ds2 = uniform_dataset(50, seed=11), uniform_dataset(3000, d=2, seed=11)
    rng = np.random.default_rng(11)
    queries1 = rng.random((20, 1))[[*range(20), 3, 17, 3, 0]]
    queries2 = rng.random((60, 2))[[*range(60), 3, 59, 3]]
    for model, queries in (
        (fit_avm(ds, NWK, 5, 2, Variant.A1_PLAIN, h=0.1), queries1),
        (fit_avm(ds, KNN, 5, 2, Variant.A1_PLAIN, k=3), queries1),
        (fit_avm(ds2, GAUSSIAN_D2, 7, 2, Variant.A3_QUALIFIED, h=0.02), queries2),
        (fit_avm(ds2, NAIVE_D2, 7, 2, Variant.A3_QUALIFIED, h=0.03), queries2),
    ):
        batch = predict_batch(model, queries)
        for i, q in enumerate(queries):
            one = predict_batch(model, q)
            assert one.values.tobytes() == batch.values[i : i + 1].tobytes()
            assert one.active_blocks[0] == batch.active_blocks[i]
            assert one.degenerate_blocks[0] == batch.degenerate_blocks[i]


@pytest.mark.parametrize("d", [1, 2])
def test_empty_batch_predicts_nothing(d):
    ds = uniform_dataset(60, d=d, seed=12)
    for family in EstimatorFamily:
        model = fit_avm(ds, EstimatorConfig(family, r=1.0, d=d), 3, 0)
        batch = predict_batch(model, np.empty((0, d)))
        for out in (batch.values, batch.active_blocks, batch.degenerate_blocks):
            assert out.shape == (0,), family


@pytest.mark.parametrize(
    "family, d, params",
    [
        (EstimatorFamily.NWK_NAIVE, 1, [0.2, 0.05, 0.5, 0.2]),
        (EstimatorFamily.KNN, 1, [3, 1, 7, 3]),
        (EstimatorFamily.NWK_GAUSSIAN, 1, [0.2, 0.05, 0.5, 0.2]),
        (EstimatorFamily.NWK_NAIVE, 2, [0.2, 0.05, 0.5, 0.2]),
        (EstimatorFamily.KNN, 2, [40, 3, 90, 40]),
        (EstimatorFamily.NWK_NAIVE, 5, [0.3, 0.2, 0.5, 0.3]),
    ],
    ids=["naive-d1", "knn-d1", "gaussian-d1", "naive-d2", "knn-d2", "naive-d5"],
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
    if d == 5:  # the grid spans the crossover: one call takes both naive paths
        shares = [avm._ball_share(part, h) for h in params]
        assert min(shares) < avm._TREE_BALL_SHARE < max(shares)
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


@pytest.mark.parametrize(
    "family, d, params",
    [
        (EstimatorFamily.NWK_NAIVE, 1, [0.05, 0.2]),
        (EstimatorFamily.KNN, 1, [1, 7]),
        (EstimatorFamily.NWK_GAUSSIAN, 1, [0.05, 0.2]),
        (EstimatorFamily.KNN, 2, [1, 7]),
    ],
    ids=["naive-d1", "knn-d1", "dense-d1", "dense-d2"],
)
def test_block_estimates_are_c_contiguous(family, d, params):
    # combine's mean over blocks sums in memory order, so a strided result
    # would move the sweep CSVs in the last bit
    rng = np.random.default_rng(17)
    part = random_partition(Dataset(rng.random((300, d)), rng.normal(size=300)), 4, 0)
    for got in block_estimates(part, family, params, rng.random((40, d))):
        assert got.flags.c_contiguous


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
    # a d=1 estimator must not fit d=5 data on its first coordinate alone
    ds5 = uniform_dataset(10, d=5, seed=12)
    for cfg in (NWK, knn_cfg):
        with pytest.raises(ValueError, match="d=1"):
            fit_avm(ds5, cfg, 2, 0)
    with pytest.raises(ValueError, match="d=2"):
        AvmModel(part, GAUSSIAN_D2, Variant.A1_PLAIN, 0.5)


@pytest.mark.parametrize("cfg", [NWK, GAUSSIAN_D2], ids=["d1", "d2"])
def test_a2_rejects_non_finite_candidates(cfg):
    ds = uniform_dataset(40, d=cfg.d, seed=3)
    for bad in (np.nan, np.inf, -np.inf):
        cand = default_candidates(ds)
        cand[5, -1] = bad
        with pytest.raises(ValueError, match="candidates must be finite"):
            fit_avm(ds, cfg, 4, 0, Variant.A2_DATA_DEPENDENT, candidates=cand)


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


@pytest.mark.parametrize("scale, h", [(1e-160, 3e-161), (1.0, 0.3), (1e160, 1e154)])
def test_naive_edges_match_oracle_at_every_double_near_both_edges(scale, h):
    # two copies of each of the three doubles below and above q - h and q + h,
    # and of those ends themselves. At 1e-160 the squared gaps are subnormal
    # and round, at 1e160 they are near the overflow, and at |q| << h, q - x
    # rounds: the window's ends are then not q - h and q + h
    rng = np.random.default_rng(15)
    queries = np.array([0.5 * scale, -0.25 * scale, 1e-6 * h, -1e-6 * h, 0.0])
    x = []
    for q in queries:
        for end in (q - h, q + h):
            below = above = end
            x += [end] * 2
            for _ in range(3):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                x += [below, above] * 2
    ds = Dataset(np.array(x)[:, None], rng.integers(-1000, 1000, len(x)) / 100.0)
    tol, family = 1e-12 * np.abs(ds.y).max(), EstimatorFamily.NWK_NAIVE
    for m in (1, 3):
        part = random_partition(ds, m, 2)
        estimates, active, degenerate = block_estimates(part, family, [h], queries[:, None])
        for j, b in enumerate(part.blocks):
            xs, ys = [tuple(r) for r in b.x], list(b.y)
            expected = [oracles.nwk_estimate(xs, ys, "naive", h, [q]) for q in queries]
            flags = np.array([oracle_flags([(xs, ys)], "naive", h, [q]) for q in queries])
            np.testing.assert_allclose(estimates[0, j], expected, rtol=0, atol=tol)
            np.testing.assert_array_equal(active[0, j], flags[:, 0])
            np.testing.assert_array_equal(degenerate[0, j], flags[:, 1])


KNN = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1)


def assert_knn_matches_oracle(ds, queries, ms, seed=0):
    """k-NN ``predict_batch`` against the oracle at k = 1, 3 and the smallest block."""
    tol = 1e-12 * np.abs(ds.y).max()
    for m in ms:
        part = random_partition(ds, m, seed)
        for k in sorted({1, min(3, part.min_block_size), part.min_block_size}):
            model = AvmModel(part, KNN, Variant.A1_PLAIN, k)
            blocks = oracle_blocks(model)
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


@pytest.mark.parametrize("layout", ["one-sample", "uneven", "grid", "padded"])
def test_dense_nwk_matches_oracle_per_block(layout):
    # every block's columns are reduced alone, whatever its size. Inputs and
    # lattice queries are multiples of 1/16, so samples lie exactly at
    # distance h; a far query underflows every Gaussian weight. Many small
    # uneven blocks (8 of 3 samples, 16 of 1) take the position grid; 20
    # blocks of 1 and one of 20 would pad it past 2N and take reduceat
    rng = np.random.default_rng(23)
    ds = Dataset(rng.integers(0, 17, (40, 2)) / 16, rng.normal(size=40))
    if layout == "one-sample":
        part = random_partition(ds, ds.n, 3)
    else:
        sizes = {"uneven": [1, 2, 13, 1, 20], "grid": [3] * 8 + [1] * 15, "padded": [1] * 20}
        split = np.cumsum(sizes[layout])
        part = PartitionedDataset.from_indices(ds, np.split(rng.permutation(40), split))
    assert avm._takes_grid(part) == (layout in ("one-sample", "grid"))
    lattice = rng.integers(-2, 19, (40, 2)) / 16
    queries = np.vstack([rng.random((20, 2)), lattice, [[40.0, 40.0]]])
    tol = 1e-12 * np.abs(ds.y).max()
    blocks = [([tuple(r) for r in b.x], list(b.y)) for b in part.blocks]
    for config, kind in ((NAIVE_D2, "naive"), (GAUSSIAN_D2, "gaussian")):
        for h in (2 / 16, 5 / 16):
            for variant, fn in (
                (Variant.A1_PLAIN, oracles.avm_a1_nwk),
                (Variant.A3_QUALIFIED, oracles.avm_a3_nwk),
            ):
                batch = predict_batch(AvmModel(part, config, variant, h), queries)
                assert_matches_oracle(batch, blocks, kind, h, queries, fn, tol)


def test_dense_sums_do_not_depend_on_the_chunk_size(monkeypatch):
    # at 16 distances per chunk every query row is its own chunk; each row and
    # block is reduced alone, so the estimates and flags are bitwise the same
    # (m=200 blocks of 2 samples take the position grid, 5 blocks reduceat;
    # k is at most the smallest block, so k=7 runs on the 5 blocks only)
    rng = np.random.default_rng(24)
    ds = Dataset(rng.random((400, 2)), rng.normal(size=400))
    parts = [random_partition(ds, 5, 0), random_partition(ds, 200, 0)]
    assert [avm._takes_grid(part) for part in parts] == [False, True]
    queries = rng.random((300, 2))
    cases = [
        (part, family, params)
        for part, k in zip(parts, (7, 2))
        for family, params in (
            (EstimatorFamily.NWK_NAIVE, [0.05, 0.3]),
            (EstimatorFamily.NWK_GAUSSIAN, [0.05, 0.3]),
            (EstimatorFamily.KNN, [1, k]),
        )
    ]
    default = [block_estimates(*case, queries) for case in cases]
    monkeypatch.setattr(avm, "_CHUNK_PAIRS", 16)
    for case, expected in zip(cases, default):
        got = block_estimates(*case, queries)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes(), case[1:]


def dense_reference(part, kind, h, queries):
    """Dense NWK (estimates, active, degenerate), shape (m, q), and the pairs
    whose weights are all subnormal or 0, by the weights of ``cdist``'s
    distances over h, each block's row summed by ``np.add.reduceat``."""
    shape = (part.m, len(queries))
    estimates, tiny = np.zeros(shape), np.zeros(shape, dtype=bool)
    active, degenerate = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    for j, block in enumerate(part.blocks):
        dist = cdist(queries, block.x)
        with np.errstate(over="ignore"):
            raw = kernel_profile(kind, dist / h)
        den = np.add.reduceat(raw, [0], axis=1)[:, 0]
        num = np.add.reduceat(raw * block.y, [0], axis=1)[:, 0]
        np.divide(num, den, out=estimates[j], where=den > 0)
        active[j], degenerate[j] = dist.min(axis=1) <= h, den == 0
        tiny[j] = raw.max(axis=1) < 2.0**-1022
    return estimates, active, degenerate, tiny


def far_queries(x, count, h, rng):
    """Queries 25-28 h outside the box of ``x`` along one axis, where the
    Gaussian weights are normal, subnormal or 0."""
    lo, hi = x.min(axis=0), x.max(axis=0)
    queries = lo + rng.random((count, x.shape[1])) * (hi - lo)
    axis, up = rng.integers(0, x.shape[1], count), rng.random(count) < 0.5
    gap = rng.uniform(25, 28, count) * h
    queries[np.arange(count), axis] = np.where(up, hi[axis] + gap, lo[axis] - gap)
    return queries


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gaussian_weights_match_the_distance_formula(d):
    # the dense Gaussian weights come from squared distances; pairs whose
    # weights are all subnormal or 0 are summed by the distance formula, so
    # their estimates and every flag are bitwise the distance formula's, and
    # the others within a few ulps of |u| = (dist / h)**2 per weight
    rng = np.random.default_rng(40 + d)
    n, h = 60, 0.2
    ds = Dataset(rng.random((n, d)), rng.normal(size=n))
    queries = np.vstack([far_queries(ds.x, 60, h, rng), rng.random((20, d))])
    tol = 2e-13 * np.abs(ds.y).max()
    for m in (1, 7, n // 2):
        part = random_partition(ds, m, 1)
        got = [a[0] for a in block_estimates(part, EstimatorFamily.NWK_GAUSSIAN, [h], queries)]
        *expected, tiny = dense_reference(part, KernelKind.GAUSSIAN, h, queries)
        assert tiny.any() and not tiny.all(), m
        assert got[0][tiny].tobytes() == expected[0][tiny].tobytes(), m
        np.testing.assert_allclose(got[0], expected[0], rtol=0, atol=tol)
        for a, b in zip(got[1:], expected[1:]):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("scale, h", [(1e-160, 1e-160), (1e153, 1e160)])
def test_gaussian_weights_outside_the_squared_range_are_exact(scale, h):
    # 1 / h**2 overflows or underflows: the weights are the distance formula's,
    # and blocks that take reduceat sum them as it does
    rng = np.random.default_rng(44)
    ds = Dataset(scale * rng.random((40, 3)), rng.normal(size=40))
    queries = scale * rng.uniform(-0.5, 1.5, (30, 3))
    sq = cdist(queries, ds.x, "sqeuclidean")
    assert gaussian_weights(sq, h).tobytes() == exact_gaussian_weights(sq, h).tobytes()
    for m in (1, 3):
        part = random_partition(ds, m, 1)
        got = block_estimates(part, EstimatorFamily.NWK_GAUSSIAN, [h], queries)
        expected = dense_reference(part, KernelKind.GAUSSIAN, h, queries)[:3]
        for a, b in zip(got, expected):
            assert a[0].tobytes() == b.tobytes(), m


def test_naive_dense_membership_matches_the_distance_formula(monkeypatch):
    # squared distances against the largest square whose root is within h are
    # the test dist / h <= 1 itself. Samples and queries on the 1/16 lattice
    # lie exactly at distance h; responses 2**-i make every block's sum, and
    # so its mean, exact in any order, so counts and members show bitwise
    monkeypatch.setattr(avm, "_TREE_BALL_SHARE", 0.0)
    rng = np.random.default_rng(45)
    n = 48
    ds = Dataset(rng.integers(0, 17, (n, 2)) / 16, 2.0 ** -rng.permutation(n))
    queries = rng.integers(-2, 19, (60, 2)) / 16
    for m in (1, 7, n // 2):
        part = random_partition(ds, m, 2)
        for h in (1 / 16, 2 / 16, 5 / 16, np.sqrt(5) / 16):
            got = block_estimates(part, EstimatorFamily.NWK_NAIVE, [h], queries)
            expected = dense_reference(part, KernelKind.NAIVE, h, queries)[:3]
            for a, b in zip(got, expected):
                assert a[0].tobytes() == b.tobytes(), (m, h)


def test_square_bound_is_the_largest_square_within_h():
    for h in (5e-324, 1e-160, 2.0**-500, 0.3, 1.0, 2.0**500, 1e154, 1.5e154, 1e300):
        s = avm._square_bound(h)
        assert math.sqrt(s) <= h < math.sqrt(math.nextafter(s, math.inf))


@pytest.mark.parametrize(
    "family, n, m, t, share",
    [
        (EstimatorFamily.NWK_NAIVE, 200_000, 1, 1000, None),
        (EstimatorFamily.NWK_NAIVE, 200_000, 1, 1000, 0.0),
        (EstimatorFamily.NWK_GAUSSIAN, 50_000, 1, 1000, None),
        (EstimatorFamily.NWK_GAUSSIAN, 50_000, 20_000, 50, None),
        (EstimatorFamily.KNN, 50_000, 1, 1000, None),
    ],
    ids=["naive", "naive-dense", "gaussian", "gaussian-grid", "knn"],
)
def test_dense_memory_is_bounded(monkeypatch, family, n, m, t, share):
    # one d=2 block: a query x sample matrix would take 1.5 GiB (naive) or
    # 400 MB; query chunks of about _CHUNK_PAIRS distances hold a few MiB.
    # The rule h sends naive to the k-d tree; a share of 0 forces it dense.
    # 20,000 blocks take the position grid as well as their (m, q) outputs,
    # 10 MB at 50 queries
    if share is not None:
        monkeypatch.setattr(avm, "_TREE_BALL_SHARE", share)
    ds = uniform_dataset(n, d=2, seed=25)
    model = fit_avm(ds, EstimatorConfig(family, r=1.0, d=2), m, 0)
    assert avm._takes_grid(model.partition) == (m > 1)
    queries = np.random.default_rng(25).random((t, 2))
    tracemalloc.start()
    try:
        predict_batch(model, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.fixture
def tree_spy(monkeypatch):
    """Counts the k-d trees that partitions build and the ball queries they answer."""
    spy = {"builds": 0, "balls": 0}

    class SpyTree(cKDTree):
        def __init__(self, *args, **kwargs):
            spy["builds"] += 1
            super().__init__(*args, **kwargs)

        def query_ball_point(self, *args, **kwargs):
            spy["balls"] += 1
            return super().query_ball_point(*args, **kwargs)

    monkeypatch.setattr(partition_module, "cKDTree", SpyTree)
    return spy


def test_tree_memory_is_bounded_on_clustered_data(monkeypatch, tree_spy):
    # 4,999 samples in a 0.01 square and one far off: each query's ball
    # holds every clustered sample, where uniform occupancy of the samples'
    # box would put 1e-6 of them. The measured share sends the rule dense;
    # forced onto the tree, 1.5 million candidates go by in bounded batches
    rng = np.random.default_rng(29)
    x = np.vstack([0.01 * rng.random((4999, 2)), [[100.0, 100.0]]])
    part = random_partition(Dataset(x, rng.normal(size=len(x))), 4, 0)
    cfg = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=2)
    model = AvmModel(part, cfg, Variant.A3_QUALIFIED, 0.05)
    queries = 0.01 * rng.random((300, 2))
    assert avm._ball_share(part, 0.05) > 0.99
    batches = []
    for share in (avm._TREE_BALL_SHARE, np.inf):
        monkeypatch.setattr(avm, "_TREE_BALL_SHARE", share)
        tracemalloc.start()
        try:
            batches.append(predict_batch(model, queries))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert (tree_spy["balls"] > 0) == (share == np.inf)
    assert batches[0].active_blocks.tolist() == batches[1].active_blocks.tolist()
    np.testing.assert_allclose(batches[0].values, batches[1].values, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d, limit", [(2, 0.02), (5, 0.02), (6, 0.01), (8, 0.0025)])
def test_tree_share_limit_halves_past_d5(d, limit):
    # an h takes the tree just below the measured share limit, 2 % halved
    # for each dimension past 5, and the dense loop just above it
    rng = np.random.default_rng(30)
    part = random_partition(Dataset(rng.random((2000, d)), rng.normal(size=2000)), 2, 0)
    probe = part.probe_distances
    below = probe[int(limit * probe.size) - 2]
    above = probe[int(limit * probe.size) + 1]
    assert avm._ball_share(part, below) < limit < avm._ball_share(part, above)
    assert avm._tree_params(part, [above, below, above]) == [1]


def test_tree_falls_back_to_dense_where_the_samples_span_too_wide(tree_spy):
    # h is small, so the measured share picks the tree; but one sample near
    # 1e151 makes the samples' box span past _TREE_MAX_SPAN, where cKDTree's
    # squared distances could overflow, so the built tree answers no ball
    # and the dense loop matches the oracle with no RuntimeWarning
    rng = np.random.default_rng(46)
    x = rng.random((200, 2))
    x[0] = [1e151, 0.5]
    ds = Dataset(x, rng.normal(size=len(x)))
    queries = np.vstack([rng.random((30, 2)), x[:1]])
    h = 0.05
    tol = 1e-12 * np.abs(ds.y).max()
    for m in (1, 4):
        part = random_partition(ds, m, 0)
        assert avm._ball_share(part, h) < avm._TREE_BALL_SHARE
        assert avm._tree_params(part, [h]) == []
        blocks = oracle_blocks(AvmModel(part, NAIVE_D2, Variant.A1_PLAIN, h))
        for variant, fn in (
            (Variant.A1_PLAIN, oracles.avm_a1_nwk),
            (Variant.A3_QUALIFIED, oracles.avm_a3_nwk),
        ):
            batch = predict_batch(AvmModel(part, NAIVE_D2, variant, h), queries)
            assert_matches_oracle(batch, blocks, "naive", h, queries, fn, tol)
    assert tree_spy == {"builds": 2, "balls": 0}


def test_naive_d5_takes_the_tree_and_matches_oracle(tree_spy):
    # serve-like density: at the rule h (c=1) a ball holds about 1 % of the
    # samples, and the default rule sends every query to the k-d tree
    ds = uniform_dataset(4000, d=5, seed=26)
    cfg = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=5)
    queries = np.random.default_rng(26).random((40, 5))
    tol = 1e-12 * np.abs(ds.y).max()
    for m in (1, 8):
        model = fit_avm(ds, cfg, m, 0, Variant.A3_QUALIFIED)
        balls = tree_spy["balls"]
        batch = predict_batch(model, queries)
        assert tree_spy["balls"] > balls
        blocks, h = oracle_blocks(model), model.h_or_k
        assert_matches_oracle(batch, blocks, "naive", h, queries, oracles.avm_a3_nwk, tol)
    assert 0 < batch.active_blocks.min() < 8  # some blocks are inactive at m=8


def test_tree_is_built_once_per_partition(tree_spy):
    # repeated batches and every h of a grid reuse the partition's tree, the
    # same ball queries (one per group of _TREE_PAIRS // N rows) serve the
    # whole grid, and a call whose every ball is wide builds no tree
    ds = uniform_dataset(3000, d=3, seed=27)
    cfg = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=3)
    model = fit_avm(ds, cfg, 4, 0, Variant.A3_QUALIFIED, h=0.05)
    queries = np.random.default_rng(27).random((30, 3))
    groups = -(-len(queries) // (avm._TREE_PAIRS // ds.n))
    for _ in range(3):
        predict_batch(model, queries)
    block_estimates(model.partition, cfg.family, [0.02, 0.05, 0.08], queries)
    assert tree_spy == {"builds": 1, "balls": 4 * groups}
    predict_batch(fit_avm(ds, cfg, 4, 0, Variant.A3_QUALIFIED, h=0.05), queries)
    assert tree_spy == {"builds": 2, "balls": 5 * groups}
    wide = fit_avm(ds, cfg, 4, 0, Variant.A3_QUALIFIED, h=0.5)
    assert avm._ball_share(wide.partition, 0.5) > avm._TREE_BALL_SHARE
    predict_batch(wide, queries)
    assert tree_spy == {"builds": 2, "balls": 5 * groups}


def naive_path_case(case, rng):
    """Inputs, queries and bandwidths for ``test_naive_paths_match_oracle``.

    Inputs and queries lie on a 1/16 lattice, scaled, so duplicates and
    samples exactly at distance h occur; two queries lie h outside the
    samples' box and two far outside. In the "axes" and "sphere" cases
    every sample lies near distance h from a query: on an axis through it,
    at the seven doubles nearest to that distance on either side, or on a
    sphere at d=8, where the tree sums squared gaps in another order.
    """
    hs = np.array([2, 5]) / 16
    d = {"d3": 3, "flat": 3, "sphere": 8}.get(case, 2)
    if case in ("axes", "sphere"):
        queries, hs = rng.random((4, d)), np.array([0.3])
        samples = []
        for q in queries:
            if case == "sphere":
                u = rng.normal(size=(50, d))
                samples += list(q + 0.3 * u / np.linalg.norm(u, axis=1)[:, None])
                continue
            for axis, side, step in itertools.product(range(d), (-0.3, 0.3), range(-3, 4)):
                end = q[axis] + side
                samples.append(q.copy())
                samples[-1][axis] = end + step * np.spacing(end)
        samples = rng.permutation(np.array(samples))
    else:
        samples = rng.integers(0, 17, (60, d)) / 16
        samples[0] = 1.0
        if case == "flat":
            samples[:, 1] = 0.25  # a zero-width coordinate
        queries = np.vstack([rng.integers(-2, 19, (30, d)) / 16, samples[[0, 0]]])
        queries[-2:, 0] += hs  # exactly h from the samples' box
    scale, shift = {
        "tiny": (1e-160, 0.0),
        "subnormal": (2.0**-1060, 0.0),
        "huge": (1e155, 1e160),  # squared gaps overflow; tree spans are too wide
    }.get(case, (1.0, 0.0))
    far = [[40.0] * d, [1e200, -1e200] * (d // 2) + [1e200] * (d % 2)]
    queries = np.vstack([shift + scale * queries, far])
    y = rng.normal(size=len(samples))
    return Dataset(shift + scale * samples, y), queries, (scale * hs).tolist()


@pytest.mark.parametrize("path", ["tree", "dense"])
@pytest.mark.parametrize(
    "case", ["d2", "d3", "flat", "axes", "sphere", "tiny", "subnormal", "huge"]
)
def test_naive_paths_match_oracle(monkeypatch, tree_spy, path, case):
    # the rule's share forced to inf sends every naive h at d>1 to the tree
    # (except where cKDTree could overflow), and 0 sends every one to the
    # dense loop; both match the oracle in values and block counts
    monkeypatch.setattr(avm, "_TREE_BALL_SHARE", np.inf if path == "tree" else 0.0)
    ds, queries, hs = naive_path_case(case, np.random.default_rng(28))
    tol = 1e-12 * np.abs(ds.y).max()
    cfg = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=ds.d)
    for m in (1, 3):
        part = random_partition(ds, m, 5)
        blocks = [([tuple(r) for r in b.x], list(b.y)) for b in part.blocks]
        for h in hs:
            for variant, fn in (
                (Variant.A1_PLAIN, oracles.avm_a1_nwk),
                (Variant.A3_QUALIFIED, oracles.avm_a3_nwk),
            ):
                batch = predict_batch(AvmModel(part, cfg, variant, h), queries)
                assert_matches_oracle(batch, blocks, "naive", h, queries, fn, tol)
    assert (tree_spy["balls"] > 0) == (path == "tree" and case != "huge")


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


def test_knn_falls_back_wherever_the_run_key_overflows(monkeypatch):
    # near +-1.7e308 the run keys x[i] + x[i + k] and 2q overflow, and every
    # gap between distinct doubles squares to inf, so no query (none is a
    # sample) has a finite distance and no run short of the block can be
    # decided: every pair must reach knn_mean, which ranks the ties by index
    rng = np.random.default_rng(19)
    x = rng.choice([-1.7e308, -1.6e308, -1e308, 1e308, 1.6e308, 1.7e308], 30)
    ds = Dataset(x[:, None], rng.integers(-1000, 1000, x.size) / 100.0)
    queries = np.array([-1.75e308, -1.65e308, -1.2e308, 0.0, 1.2e308, 1.65e308])[:, None]
    tol = 1e-12 * np.abs(ds.y).max()
    rows = []
    monkeypatch.setattr(avm, "knn_mean", lambda d, *a: rows.append(len(d)) or knn_mean(d, *a))
    for m in (1, 3):
        part = random_partition(ds, m, 0)
        for k in (1, 3):
            rows.clear()
            model = AvmModel(part, KNN, Variant.A1_PLAIN, k)
            got = predict_batch(model, queries).values
            expected = [oracles.avm_knn(oracle_blocks(model), k, q) for q in queries]
            np.testing.assert_allclose(got, expected, rtol=0, atol=tol, err_msg=f"{m=} {k=}")
            assert sum(rows) == m * len(queries)


def test_knn_falls_back_only_where_the_kth_nearest_ties(monkeypatch):
    # inputs and queries on a 1/1000 grid: x[i] + x[i + k] often rounds onto
    # 2q while one of the two is strictly nearer, so a rounded run key would
    # misplace the run and fall back; the exact key decides every (block,
    # query) pair whose k nearest are unique, and no other
    rng = np.random.default_rng(21)
    ds = Dataset(np.round(rng.random((3000, 1)), 3), rng.normal(size=3000))
    queries = np.round(rng.random((500, 1)), 3)
    part = random_partition(ds, 7, 2)
    rows = []
    monkeypatch.setattr(avm, "knn_mean", lambda d, *a: rows.append(len(d)) or knn_mean(d, *a))
    for k in (1, 3, 214, part.min_block_size):
        rows.clear()
        block_estimates(part, EstimatorFamily.KNN, [k], queries)
        dists = [np.sort(cdist(queries, b.x), axis=1) for b in part.blocks]
        ties = sum((d[:, k - 1] == d[:, k]).sum() for d in dists if k < d.shape[1])
        assert sum(rows) == ties, k


def test_sorted_runs_do_not_depend_on_the_group_size(monkeypatch):
    # by default the 3 blocks form one group, the 40 blocks a few; at 16 pairs
    # per group each block is its own group, and at 1,200 a group holds 3 to
    # 30 blocks. Blocks of about 133 samples are searched one by one at 40
    # queries and placed among the queries at 400, of which the 40 are the
    # first; blocks of 10 are always placed. A run's ends and sum depend only
    # on its block, so every output is bitwise the same. On the 1/1024
    # lattice h = 20/1024 puts samples exactly on window edges, and h = 2**-12
    # leaves most windows empty
    rng = np.random.default_rng(20)
    x = rng.integers(0, 1024, (400, 1)) / 1024
    ds = Dataset(x, rng.normal(size=400))
    queries = rng.integers(0, 1024, (400, 1)) / 1024
    for m in (3, 40):
        part = random_partition(ds, m, 0)
        cases = [
            (EstimatorFamily.NWK_NAIVE, [2**-12, 20 / 1024, 0.3]),
            (EstimatorFamily.KNN, [k for k in (1, 7, 60) if k < part.min_block_size]
             + [part.min_block_size]),
        ]
        monkeypatch.undo()
        one_group = [block_estimates(part, family, params, queries) for family, params in cases]
        assert one_group[0][2][0].mean() > 0.5  # degenerate
        for pairs in (None, 16, 1200):
            if pairs:
                monkeypatch.setattr(avm, "_CHUNK_PAIRS", pairs)
                monkeypatch.setattr(avm, "_GROUP_PAIRS", pairs)
            for t in (40, 400):
                for (family, params), expected in zip(cases, one_group):
                    got = block_estimates(part, family, params, queries[:t])
                    for a, b in zip(got, expected):
                        assert a.tobytes() == b[..., :t].tobytes(), (m, family, pairs, t)


def sorted_reference(part, family, param, queries):
    """d=1 ``block_estimates`` (estimates, degenerate) at one h or k, from each
    (block, query) pair alone.

    The pair's samples within h, or its k nearest, are found from all its
    distances; they must be one run of the block sorted by ``x_order``, which
    is summed by itself. k-NN pairs whose k-th and (k+1)-th nearest tie take
    ``knn_mean`` over the block in stored order.
    """
    q, naive = queries[:, 0], family is EstimatorFamily.NWK_NAIVE
    estimates = np.zeros((part.m, len(q)))
    degenerate = np.zeros(estimates.shape, dtype=bool)
    for j, (a, b) in enumerate(itertools.pairwise(part.offsets)):
        rows = part.x_order[a:b]
        dist = distance_1d(q[:, None], part.data.x[rows, 0])
        if naive:
            inside = dist <= param
        else:
            inside = np.zeros(dist.shape, dtype=bool)
            nearest = np.argsort(dist, axis=1, kind="stable")[:, :param]
            np.put_along_axis(inside, nearest, True, axis=1)
            tied = np.zeros(len(q), dtype=bool)
            if param < b - a:
                near = np.sort(dist, axis=1)
                tied = near[:, param - 1] == near[:, param]
        size = inside.sum(axis=1)
        lo = inside.argmax(axis=1)
        hi = lo + size
        span = np.arange(b - a)
        run = (span >= lo[:, None]) & (span < hi[:, None])
        decided = slice(None) if naive else ~tied
        assert np.array_equal(inside[decided], run[decided])
        edges = np.stack([lo, hi], axis=1).ravel()
        sums = np.add.reduceat(np.append(part.data.y[rows], 0.0), edges)[0::2]
        estimates[j] = np.divide(sums, size, out=np.zeros(len(q)), where=size > 0)
        degenerate[j] = size == 0
        if not naive and tied.any():
            block = part.blocks[j]
            estimates[j, tied] = knn_mean(cdist(queries[tied], block.x), block.y, [param])[0]
    return estimates, degenerate


@pytest.mark.parametrize("inputs", ["random", "lattice", "duplicated"])
def test_sorted_runs_match_a_per_pair_reference(inputs):
    # m from 1 to N and t from 1 to 400 put N above and below m * t, so the
    # blocks are searched or placed. On the lattice h = 2**-7 leaves every
    # window empty; h = 4 is wider than the domain, and k reaches the
    # smallest block
    rng = np.random.default_rng(23)
    n = 120
    x = {
        "random": rng.random(n),
        "lattice": rng.integers(0, 16, n) / 16,  # about 8 samples at each point
        "duplicated": rng.permutation(np.repeat(rng.random(n // 4), 4)),
    }[inputs]
    ds = Dataset(x[:, None], rng.normal(size=n))
    # odd multiples of 2**-6, beyond both ends too, at least 2**-6 from the
    # lattice; the other half anywhere, or on the lattice and halfway, where
    # the k-NN keys x[i] + x[i + k] meet 2q
    queries = (2 * rng.integers(-8, 72, (400, 1)) + 1) / 64
    queries[::2] = rng.uniform(-0.1, 1.1, (200, 1))
    if inputs == "lattice":
        queries[::2] = rng.integers(-2, 35, (200, 1)) / 32
    for m in (1, 2, n // 3, n):
        part = random_partition(ds, m, m)
        cases = [
            (EstimatorFamily.NWK_NAIVE, [2**-7, 0.05, 0.3, 4.0]),
            (EstimatorFamily.KNN, sorted({1, min(2, part.min_block_size), part.min_block_size})),
        ]
        for t in (1, 2, 37, 400):
            for family, params in cases:
                estimates, active, degenerate = block_estimates(part, family, params, queries[:t])
                for p, param in enumerate(params):
                    want, empty = sorted_reference(part, family, param, queries[:t])
                    assert estimates[p].tobytes() == want.tobytes(), (m, t, family, param)
                    assert np.array_equal(degenerate[p], empty), (m, t, family, param)
                    assert np.array_equal(active[p], ~empty), (m, t, family, param)
                if inputs == "lattice" and family is EstimatorFamily.NWK_NAIVE:
                    assert degenerate[0, :, 1::2].all()  # h = 2**-7


@pytest.mark.parametrize("family, param", [(EstimatorFamily.NWK_NAIVE, 2e-4), (EstimatorFamily.KNN, 1)])
def test_sorted_memory_is_bounded_with_many_small_blocks(family, param):
    # 10,000 blocks of 2 samples and 400 queries: the outputs take 4e6 pairs,
    # and one more int64 array over every (block, query) pair would take 32 MB
    # beyond them; the runs take O(N + m) and each block group a few buffers
    ds = uniform_dataset(20_000, seed=24)
    part = random_partition(ds, 10_000, 0)
    part.x_order
    queries = np.random.default_rng(24).random((400, 1))
    tracemalloc.start()
    try:
        got = block_estimates(part, family, [param], queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(a.nbytes for a in got) < 16 * 2**20


def certificate_spy(monkeypatch):
    """Record (runs, certified runs, pairs in uncertified runs) per ``_knn_certified`` call."""
    calls, certify = [], avm._knn_certified

    def spy(x, qs, edge, starts, lo, k):
        ok = certify(x, qs, edge, starts, lo, k)
        # edge marks each block's start and the samples' end: m + 1 entries
        size = np.diff(starts, append=(edge.sum() - 1) * len(qs))
        calls.append((ok.size, ok.sum(), size[~ok].sum()))
        return ok

    monkeypatch.setattr(avm, "_knn_certified", spy)
    return calls


def test_sorted_knn_memory_is_bounded_with_many_uncertified_runs(monkeypatch):
    # blocks of 2 samples on a 1/64 lattice, queries on it too: a query often
    # sits where a block's two samples are equally near, or both samples are
    # one point, and then its run fails the certificate. About a quarter of
    # the 4e6 pairs take the per-pair test; gathered all at once, their
    # indices, samples and distances would take 8 MB an array
    rng = np.random.default_rng(24)
    ds = Dataset(rng.integers(0, 65, (20_000, 1)) / 64, rng.normal(size=20_000))
    part = random_partition(ds, 10_000, 0)
    part.x_order
    queries = rng.integers(0, 65, (400, 1)) / 64
    calls = certificate_spy(monkeypatch)
    tracemalloc.start()
    try:
        got = block_estimates(part, EstimatorFamily.KNN, [1], queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(a.nbytes for a in got) < 16 * 2**20
    [(_, _, uncertified_pairs)] = calls
    assert uncertified_pairs > 0.2 * part.m * len(queries)


def certify_none(x, qs, edge, starts, lo, k):
    return np.zeros(starts.size, dtype=bool)


def certificate_inputs(name, rng):
    """(x, queries) of the certificate-on/off test: its named input family."""
    if name in ("random", "lattice", "duplicated"):
        x = {
            "random": rng.random(120),
            "lattice": rng.integers(0, 16, 120) / 16,
            "duplicated": rng.permutation(np.repeat(rng.random(30), 4)),
        }[name]
        return x, rng.uniform(-0.1, 1.1, 40)
    if name == "rounding":  # distinct inputs whose distances to 1 and -1 all round to 1
        x = rng.permutation([0.0, 1e-17, 2e-17, 3e-17] * 3 + [2.0] * 4)
        return x, np.array([1.0, -1.0, 1.5, 0.5])
    if name == "overflow":  # the set of test_knn_falls_back_wherever_the_run_key_overflows
        x = rng.choice([-1.7e308, -1.6e308, -1e308, 1e308, 1.6e308, 1.7e308], 30)
        return x, np.array([-1.75e308, -1.65e308, -1.2e308, 0.0, 1.2e308, 1.65e308])
    # the inputs of test_sorted_paths_match_oracle_outside_the_normal_range
    scale, spread = {"tiny": (1e-160, 1.0), "huge": (1e160, 1e-5)}[name]
    x = scale * (0.5 + spread * rng.uniform(-0.5, 0.5, 60))
    x[-6:] = x[:6]
    return x, scale * (0.5 + spread * rng.uniform(-0.7, 0.7, 50))


@pytest.mark.parametrize(
    "inputs", ["random", "lattice", "duplicated", "rounding", "tiny", "huge", "overflow"]
)
def test_knn_certificate_changes_no_output(monkeypatch, inputs):
    # the certificate only skips per-pair tests that would decide their
    # pairs: with it certifying no run, every output and flag is bitwise the
    # same. Queries sit at the midpoints (x[i] + x[i + k]) / 2 of each
    # sorted block, where the k-th and (k+1)-th nearest may tie, and 1 to 4
    # doubles either side of them
    rng = np.random.default_rng(25)
    x, base = certificate_inputs(inputs, rng)
    ds = Dataset(x[:, None], rng.integers(-1000, 1000, x.size) / 100.0)
    certified = 0
    for m in (1, 3, x.size // 3, x.size):
        part = random_partition(ds, m, m)
        sorted_x = part.data.x[part.x_order, 0]
        for k in sorted({1, min(2, part.min_block_size), part.min_block_size}):
            blocks = np.split(sorted_x, part.offsets[1:-1])
            mids = np.concatenate([b[:-k] / 2 + b[k:] / 2 for b in blocks])
            mids = rng.permutation(mids)[:30]
            down, up, near = mids, mids, [base, mids]
            for _ in range(4):
                down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
                near += [down, up]
            q = np.concatenate(near)
            monkeypatch.undo()
            calls = certificate_spy(monkeypatch)
            on = block_estimates(part, EstimatorFamily.KNN, [k], q[:, None])
            on_flags = avm._sorted_1d(part, EstimatorFamily.KNN, [k], q)[1]
            certified += sum(c[1] for c in calls)
            monkeypatch.setattr(avm, "_knn_certified", certify_none)
            off = block_estimates(part, EstimatorFamily.KNN, [k], q[:, None])
            off_flags = avm._sorted_1d(part, EstimatorFamily.KNN, [k], q)[1]
            for a, b in zip((*on, on_flags), (*off, off_flags)):
                assert a.tobytes() == b.tobytes(), (m, k)
    # at 1e-160 only runs that fill their block are certified, and past the
    # width ceiling (1e160, 1.7e308) none
    assert certified > 0 or inputs in ("huge", "overflow")


def test_knn_needs_no_per_pair_test_on_continuous_data(monkeypatch):
    # g1 data at the sweep's size and its last cell (m=350, k=1): every run
    # has a margin, so no (block, query) pair takes distance_1d
    model = TargetModel(TargetKind.G1)
    data, test = generate_dataset(model, 10_000, 0), generate_test_set(model, 1_000, 1)
    part = random_partition(data, 350, 0)
    sizes = []
    monkeypatch.setattr(
        avm, "distance_1d", lambda q, x: sizes.append(np.broadcast(q, x).size) or distance_1d(q, x)
    )
    calls = certificate_spy(monkeypatch)
    block_estimates(part, EstimatorFamily.KNN, [1], test.x)
    assert sum(sizes) == 0
    [(runs, certified, _)] = calls
    assert certified == runs


def test_knn_fallback_memory_is_bounded(monkeypatch):
    # inputs and queries on a 1/100 lattice: about 100 samples share each
    # query's point, so its 32nd and 33rd nearest tie at distance 0 and every
    # pair falls back; one rows x block matrix would take 60 MiB
    rng = np.random.default_rng(22)
    ds = Dataset(rng.integers(0, 100, (10_000, 1)) / 100, rng.normal(size=10_000))
    part = random_partition(ds, 1, 0)
    queries = rng.integers(0, 100, (200, 1)) / 100
    rows = []
    monkeypatch.setattr(avm, "knn_mean", lambda d, *a: rows.append(len(d)) or knn_mean(d, *a))
    tracemalloc.start()
    try:
        got = block_estimates(part, EstimatorFamily.KNN, [32], queries)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert sum(rows) == len(queries) and len(rows) > 1
    # the fallback reads the block in stored order, in calls of whole rows
    block = part.blocks[0]
    expected = knn_mean(cdist(queries, block.x), block.y, [32])
    assert got[:, 0].tobytes() == expected.tobytes()


def test_knn_memory_is_bounded_at_half_the_block():
    # one block, k = N/2: a 2k-sample window per query would take 400 MB
    ds = uniform_dataset(50_000, seed=18)
    model = fit_avm(ds, KNN, 1, 0, k=25_000)
    queries = np.random.default_rng(18).random((1000, 1))
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
def lattice_problems(draw, dims=(1, 2)):
    d = draw(st.integers(*dims))
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


def assert_nwk_variants_match_oracle(problem, kinds):
    """A1, A2 and A3 ``predict_batch`` against the oracle, for NWK ``kinds``."""
    ds, queries, m, h, _, seed = problem
    tol = 1e-12 * np.abs(ds.y).max()
    # half-step candidates: every covering radius is at least 1/16
    cand = np.array(list(itertools.product(np.arange(0.5, 9) / 8, repeat=ds.d)))
    oracle = {
        Variant.A1_PLAIN: oracles.avm_a1_nwk,
        Variant.A2_DATA_DEPENDENT: oracles.avm_a2_nwk,
        Variant.A3_QUALIFIED: oracles.avm_a3_nwk,
    }
    families = {"naive": EstimatorFamily.NWK_NAIVE, "gaussian": EstimatorFamily.NWK_GAUSSIAN}
    for kind in kinds:
        cfg = EstimatorConfig(families[kind], 1.0, ds.d)
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


@settings(max_examples=200)
@given(lattice_problems())
def test_variants_match_brute_force_oracle(problem):
    ds, queries, m, h, k, seed = problem
    tol = 1e-12 * np.abs(ds.y).max()
    assert_nwk_variants_match_oracle(problem, ("naive", "gaussian"))
    # k-NN ties go to the lower index within each block
    model = fit_avm(ds, EstimatorConfig(EstimatorFamily.KNN, 1.0, ds.d), m, seed, k=k)
    blocks = oracle_blocks(model)
    np.testing.assert_allclose(
        predict_batch(model, queries).values,
        [oracles.avm_knn(blocks, k, q) for q in queries],
        rtol=0,
        atol=tol,
    )


@settings(max_examples=200)
@given(lattice_problems(dims=(2, 3)))
def test_naive_tree_matches_brute_force_oracle(problem):
    # every naive h at d>1, A2's wide tilde_h too, forced onto the k-d tree
    with mock.patch.object(avm, "_TREE_BALL_SHARE", np.inf):
        assert_nwk_variants_match_oracle(problem, ("naive",))
