import numpy as np
import pytest

import oracles
from avmlar import (
    AvmModel,
    Dataset,
    EstimatorConfig,
    EstimatorFamily,
    KernelKind,
    PartitionedDataset,
    Variant,
    nwk_weights,
    predict_batch,
)

NAIVE = EstimatorFamily.NWK_NAIVE
GAUSSIAN = EstimatorFamily.NWK_GAUSSIAN
KNN = EstimatorFamily.KNN


def block_1d(xs, ys=None):
    xs = np.asarray(xs, dtype=float)[:, None]
    if ys is None:
        ys = np.zeros(len(xs))
    return Dataset(xs, ys)


def one_block(blk, family, h_or_k):
    """The m=1 model of ``blk``: a single-block estimate is ``predict_batch`` on it."""
    part = PartitionedDataset.from_indices(blk, [np.arange(blk.n)])
    config = EstimatorConfig(family, r=1.0, d=blk.d)
    return AvmModel(part, config, Variant.A1_PLAIN, h_or_k)


def test_nwk_weights_single_in_range_sample():
    wv = nwk_weights(block_1d([0.0], [2.0]), KernelKind.NAIVE, 0.5, [0.2])
    assert not wv.degenerate
    assert wv.weights == pytest.approx([1.0])


def test_nwk_weights_two_within_bandwidth():
    wv = nwk_weights(block_1d([0.0, 0.3, 0.9]), KernelKind.NAIVE, 0.5, [0.1])
    assert not wv.degenerate
    assert wv.weights == pytest.approx([0.5, 0.5, 0.0])


def test_nwk_weights_degenerate_all_zero():
    wv = nwk_weights(block_1d([0.0]), KernelKind.NAIVE, 0.5, [5.0])
    assert wv.degenerate
    assert wv.weights == pytest.approx([0.0])


def test_nwk_predict_weighted_mean():
    blk = block_1d([0.0, 0.3, 0.9], [1.0, 3.0, 10.0])
    batch = predict_batch(one_block(blk, NAIVE, 0.5), [[0.1]])
    assert batch.values[0] == pytest.approx(2.0)


def test_nwk_predict_single_sample_full_weight():
    blk = block_1d([0.0], [2.0])
    for family in (NAIVE, GAUSSIAN):
        batch = predict_batch(one_block(blk, family, 0.5), [[0.1]])
        assert batch.values[0] == pytest.approx(2.0)


def test_nwk_predict_empty_neighborhood_is_zero():
    blk = block_1d([0.0], [2.0])
    batch = predict_batch(one_block(blk, NAIVE, 0.5), [[5.0]])
    assert batch.values[0] == 0.0
    assert batch.degenerate_blocks[0] == 1


def test_knn_predict_nearest_two():
    blk = block_1d([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    batch = predict_batch(one_block(blk, KNN, 2), [[0.0]])
    assert batch.values[0] == pytest.approx(0.5)


def test_knn_full_average():
    rng = np.random.default_rng(0)
    blk = block_1d(rng.random(6), rng.normal(size=6))
    batch = predict_batch(one_block(blk, KNN, 6), [[0.3]])
    assert batch.values[0] == pytest.approx(blk.y.mean())


def test_knn_tie_resolved_to_lower_index():
    blk = block_1d([-1.0, 1.0], [5.0, 7.0])
    assert predict_batch(one_block(blk, KNN, 1), [[0.0]]).values[0] == 5.0


def test_errors_on_bad_arguments():
    blk = block_1d([0.0, 1.0])
    for h in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            nwk_weights(blk, KernelKind.NAIVE, h, [0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            nwk_weights(blk, KernelKind.GAUSSIAN, 0.5, [bad])
    with pytest.raises(ValueError):
        predict_batch(one_block(blk, NAIVE, 0.5), [[0.0, 0.0]])
    with pytest.raises(ValueError):
        one_block(blk, KNN, 0)
    with pytest.raises(ValueError):
        one_block(blk, KNN, 3)


def test_weights_sum_to_one_unless_degenerate():
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 30))
        blk = Dataset(rng.random((n, d)), rng.normal(size=n))
        h = float(rng.uniform(0.01, 0.6))
        kind = KernelKind.NAIVE if rng.random() < 0.5 else KernelKind.GAUSSIAN
        wv = nwk_weights(blk, kind, h, rng.uniform(-0.5, 1.5, size=d))
        assert np.all(wv.weights >= 0.0)
        if wv.degenerate:
            assert np.all(wv.weights == 0.0)
        else:
            assert wv.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_predictions_within_response_range():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 25))
        blk = Dataset(rng.random((n, 2)), rng.normal(size=n))
        q = rng.random(2)
        k = int(rng.integers(1, n + 1))
        p = predict_batch(one_block(blk, KNN, k), [q]).values[0]
        assert blk.y.min() - 1e-12 <= p <= blk.y.max() + 1e-12
        p = predict_batch(one_block(blk, GAUSSIAN, 0.3), [q]).values[0]
        wv = nwk_weights(blk, KernelKind.GAUSSIAN, 0.3, q)
        if not wv.degenerate:
            assert blk.y.min() - 1e-12 <= p <= blk.y.max() + 1e-12


def test_nwk_big_bandwidth_equals_block_mean():
    rng = np.random.default_rng(9)
    blk = Dataset(rng.random((12, 1)), rng.normal(size=12))
    batch = predict_batch(one_block(blk, NAIVE, 10.0), [[0.5]])
    assert batch.values[0] == pytest.approx(blk.y.mean())


def test_permutation_invariance():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        x = rng.random((n, 1))
        y = rng.normal(size=n)
        q = rng.random(1)
        perm = rng.permutation(n)
        a = Dataset(x, y)
        b = Dataset(x[perm], y[perm])
        pa = predict_batch(one_block(a, GAUSSIAN, 0.2), [q]).values[0]
        pb = predict_batch(one_block(b, GAUSSIAN, 0.2), [q]).values[0]
        assert pa == pytest.approx(pb, abs=1e-12)
        # distances are almost surely distinct for continuous draws
        k = int(rng.integers(1, n + 1))
        pa = predict_batch(one_block(a, KNN, k), [q]).values[0]
        pb = predict_batch(one_block(b, KNN, k), [q]).values[0]
        assert pa == pytest.approx(pb, abs=1e-12)


def test_constant_responses_reproduced():
    rng = np.random.default_rng(11)
    blk = Dataset(rng.random((9, 1)), np.full(9, 3.25))
    q = [0.4]
    for family, h_or_k in ((NAIVE, 0.3), (GAUSSIAN, 0.3), (KNN, 4)):
        batch = predict_batch(one_block(blk, family, h_or_k), [q])
        assert batch.values[0] == pytest.approx(3.25)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(12)
    for _ in range(60):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, 20))
        x = rng.random((n, d))
        y = rng.normal(size=n)
        blk = Dataset(x, y)
        q = rng.random(d)
        h = float(rng.uniform(0.05, 0.8))
        xs, ys = [tuple(r) for r in x], list(y)
        for family, kind in ((NAIVE, "naive"), (GAUSSIAN, "gaussian")):
            batch = predict_batch(one_block(blk, family, h), [q])
            assert batch.values[0] == pytest.approx(
                oracles.nwk_estimate(xs, ys, kind, h, q), abs=1e-12
            )
        k = int(rng.integers(1, n + 1))
        batch = predict_batch(one_block(blk, KNN, k), [q])
        assert batch.values[0] == pytest.approx(
            oracles.knn_estimate(xs, ys, k, q), abs=1e-12
        )
