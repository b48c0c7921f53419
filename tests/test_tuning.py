import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import oracles
from avmlar import avm
from avmlar import (
    CvConfig,
    Dataset,
    EstimatorConfig,
    EstimatorFamily,
    TargetKind,
    TargetModel,
    cv_score_grid,
    cv_select_constant,
    default_constant_grid,
    generate_dataset,
    knn_k_rule,
    mse,
    nwk_bandwidth_rule,
    random_partition,
)

NWK = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=1)
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
KERNEL = {EstimatorFamily.NWK_NAIVE: "naive", EstimatorFamily.NWK_GAUSSIAN: "gaussian"}


def test_singleton_grid_returned_unconditionally():
    ds = generate_dataset(TargetModel(TargetKind.G1), 100, 0)
    cv = CvConfig((0.5,), folds=5, seed=1)
    assert cv_select_constant(ds, NWK, cv) == 0.5


def test_constant_zero_target_ties_to_smallest():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.random((60, 1)), np.zeros(60))
    cv = CvConfig((0.3, 0.7, 1.5), folds=3, seed=0)
    scores = cv_score_grid(ds, NWK, cv)
    assert np.all(scores == 0.0)
    assert cv_select_constant(ds, NWK, cv) == 0.3


def test_selection_is_grid_argmin():
    ds = generate_dataset(TargetModel(TargetKind.G1), 800, 3)
    cv = CvConfig(default_constant_grid(0.05, 5.0, 8), folds=5, seed=4)
    scores = cv_score_grid(ds, NWK, cv)
    chosen = cv_select_constant(ds, NWK, cv)
    assert chosen in cv.grid
    assert scores[list(cv.grid).index(chosen)] == scores.min()
    # winner beats both endpoints
    assert scores[list(cv.grid).index(chosen)] <= scores[0]
    assert scores[list(cv.grid).index(chosen)] <= scores[-1]


def test_deterministic_given_config():
    ds = generate_dataset(TargetModel(TargetKind.G1), 300, 9)
    cv = CvConfig(default_constant_grid(0.1, 2.0, 6), folds=4, seed=11)
    assert np.array_equal(cv_score_grid(ds, NWK, cv), cv_score_grid(ds, NWK, cv))


def test_rejects_bad_configs():
    ds = generate_dataset(TargetModel(TargetKind.G1), 4, 0)
    with pytest.raises(ValueError):
        cv_select_constant(ds, NWK, CvConfig((0.5,), folds=5, seed=0))
    with pytest.raises(ValueError):
        CvConfig((), folds=5, seed=0)
    with pytest.raises(ValueError):
        CvConfig((0.5, 0.4), folds=5, seed=0)
    with pytest.raises(ValueError):
        CvConfig((0.5,), folds=1, seed=0)
    with pytest.raises(ValueError, match="folds"):
        CvConfig((0.5,), folds=2.5, seed=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            CvConfig((0.5, bad), folds=5, seed=0)
    # a d=5 rule exponent must not score d=1 data
    d5 = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=5)
    with pytest.raises(ValueError, match="d=5"):
        cv_score_grid(ds, d5, CvConfig((0.5,), folds=2))


def _exhaustive_fold_scores(ds, config, cv):
    """Re-score every candidate with the brute-force oracles, one query at a time."""
    folds = random_partition(ds, cv.folds, cv.seed)
    out = np.zeros((len(cv.grid), cv.folds))
    for i in range(cv.folds):
        fold = slice(folds.offsets[i], folds.offsets[i + 1])
        test_idx = folds.rows[fold]
        train_idx = np.delete(folds.rows, fold)
        xs, ys = [tuple(r) for r in ds.x[train_idx]], list(ds.y[train_idx])
        n = len(xs)
        for gi, c in enumerate(cv.grid):
            if config.family is EstimatorFamily.KNN:
                k = min(knn_k_rule(n, 1, config.r, config.d, c).k, n)
                preds = [oracles.knn_estimate(xs, ys, k, ds.x[t]) for t in test_idx]
            else:
                h = nwk_bandwidth_rule(n, config.r, config.d, c)
                kind = KERNEL[config.family]
                preds = [oracles.nwk_estimate(xs, ys, kind, h, ds.x[t]) for t in test_idx]
            out[gi, i] = mse(preds, ds.y[test_idx])
    return out.mean(axis=1)


@pytest.mark.parametrize(
    "family, d",
    [
        (EstimatorFamily.NWK_NAIVE, 1),
        (EstimatorFamily.NWK_GAUSSIAN, 1),
        (EstimatorFamily.NWK_NAIVE, 2),
    ],
    ids=["naive-d1", "gaussian-d1", "naive-d2"],
)
def test_nwk_scores_match_exhaustive_rescoring(family, d):
    cfg = EstimatorConfig(family, r=1.0, d=d)
    if d == 1:
        ds = generate_dataset(TargetModel(TargetKind.G1), 150, 5)
    else:
        rng = np.random.default_rng(5)
        x = rng.random((150, d))
        ds = Dataset(x, np.sin(4.0 * x.sum(axis=1)) + 0.3 * rng.standard_normal(150))
    cv = CvConfig((0.2, 0.8, 2.0), folds=3, seed=6)
    fast = cv_score_grid(ds, cfg, cv)
    slow = _exhaustive_fold_scores(ds, cfg, cv)
    np.testing.assert_allclose(fast, slow, atol=1e-12)
    assert cv_select_constant(ds, cfg, cv) == cv.grid[int(np.argmin(slow))]


@pytest.mark.parametrize("data", ["g1", "lattice", "d2"])
def test_knn_scores_match_exhaustive_rescoring(data):
    cfg = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=2 if data == "d2" else 1)
    if data == "g1":
        ds = generate_dataset(TargetModel(TargetKind.G1), 120, 6)
    elif data == "d2":
        # d > 1 scores every k from one cdist matrix per fold
        rng = np.random.default_rng(6)
        x = rng.random((120, 2))
        ds = Dataset(x, np.sin(4.0 * x.sum(axis=1)) + 0.3 * rng.standard_normal(120))
    else:
        # x = i/8, each value repeated in shuffled order: every distance
        # recurs, so the k-th nearest of each query is tied
        rng = np.random.default_rng(6)
        x = rng.permutation(np.arange(120) % 9) / 8
        ds = Dataset(x[:, None], np.sin(4.0 * x) + 0.3 * rng.standard_normal(120))
    cv = CvConfig((0.3, 1.0, 3.0), folds=4, seed=7)
    fast = cv_score_grid(ds, cfg, cv)
    slow = _exhaustive_fold_scores(ds, cfg, cv)
    np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_gaussian_cv_measures_each_fold_distance_once(monkeypatch):
    # the fold's distances serve every candidate bandwidth: its query chunks
    # take several cdist calls, which together hold each test x train pair once
    sizes = []

    def counting_cdist(*args, **kwargs):
        dist = cdist(*args, **kwargs)
        sizes.append(dist.size)
        return dist

    monkeypatch.setattr(avm, "cdist", counting_cdist)
    ds = generate_dataset(TargetModel(TargetKind.G1), 1_000, 8)
    cfg = EstimatorConfig(EstimatorFamily.NWK_GAUSSIAN, r=1.0, d=1)
    cv = CvConfig(default_constant_grid(0.1, 2.0, 6), folds=4, seed=9)
    cv_score_grid(ds, cfg, cv)
    test = np.diff(random_partition(ds, cv.folds, cv.seed).offsets)
    assert sum(sizes) == np.sum(test * (ds.n - test))
    assert len(sizes) > cv.folds


def test_naive_cv_memory_is_bounded_at_sweep_size():
    # a fold x fold matrix at this size would take hundreds of MiB
    ds = generate_dataset(TargetModel(TargetKind.G1), 10_000, 0)
    cv = CvConfig(default_constant_grid(), folds=5, seed=0)
    tracemalloc.start()
    try:
        cv_select_constant(ds, NWK, cv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_knn_cv_memory_is_bounded_at_sweep_size():
    # one sorted-run pass per fold and k, not a fold x fold matrix
    ds = generate_dataset(TargetModel(TargetKind.G1), 10_000, 0)
    cfg = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1)
    cv = CvConfig(default_constant_grid(), folds=5, seed=0)
    tracemalloc.start()
    try:
        cv_select_constant(ds, cfg, cv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_gaussian_cv_memory_is_bounded():
    # each fold is predicted in query chunks, not one 600 x 2,400 matrix per h
    ds = generate_dataset(TargetModel(TargetKind.G1), 3_000, 0)
    cfg = EstimatorConfig(EstimatorFamily.NWK_GAUSSIAN, r=1.0, d=1)
    cv = CvConfig(default_constant_grid(), folds=5, seed=0)
    tracemalloc.start()
    try:
        cv_select_constant(ds, cfg, cv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("sweep", ["sim1-variants", "sim1-knn"])
def test_selection_matches_benchmark_reference(sweep):
    # the constants the benchmark records for its reduced-size sweeps
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))["smoke"][sweep]
    family = EstimatorFamily.KNN if sweep == "sim1-knn" else EstimatorFamily.NWK_NAIVE
    cfg = EstimatorConfig(family, r=1.0, d=1)
    cv = CvConfig(default_constant_grid(), folds=5, seed=0)
    for seed, entry in recorded.items():
        ds = generate_dataset(TargetModel(TargetKind.G1), 1000, int(seed))
        assert cv_select_constant(ds, cfg, cv) == entry["cv_constant"], seed


def test_selected_constant_beats_endpoints_on_g1():
    ds = generate_dataset(TargetModel(TargetKind.G1), 2000, 8)
    grid = default_constant_grid(0.05, 5.0, 10)
    cv = CvConfig(grid, folds=5, seed=9)
    scores = cv_score_grid(ds, NWK, cv)
    winner = cv_select_constant(ds, NWK, cv)
    wi = list(grid).index(winner)
    assert scores[wi] <= scores[0] and scores[wi] <= scores[-1]


def test_default_grid_shape():
    grid = default_constant_grid()
    assert len(grid) == 20
    assert grid[0] == pytest.approx(0.05)
    assert grid[-1] == pytest.approx(5.0)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert default_constant_grid(0.3, 2.0, 1) == (0.3,)
    for lo, hi, n in [(0.0, 1.0, 5), (-1.0, 1.0, 5), (2.0, 2.0, 5), (3.0, 2.0, 5), (0.1, 1.0, 0)]:
        with pytest.raises(ValueError):
            default_constant_grid(lo, hi, n)
