import numpy as np
import pytest

import oracles
from avmlar import (
    AvmModel,
    Dataset,
    EstimatorConfig,
    EstimatorFamily,
    KernelKind,
    MeshNormReport,
    Variant,
    data_dependent_bandwidth,
    default_candidates,
    fit_avm,
    knn_k_rule,
    mesh_norm_report,
    nwk_bandwidth_rule,
    nwk_predict,
    predict_batch,
    random_partition,
)

NWK = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=1)


def uniform_dataset(n, d=1, seed=0, const_y=None):
    rng = np.random.default_rng(seed)
    y = np.full(n, const_y) if const_y is not None else rng.normal(size=n)
    return Dataset(rng.random((n, d)), y, np.tile([0.0, 1.0], (d, 1)))


def two_block_partition(xs, ys, first_indices):
    """Deterministic two-block split used to pin down per-block estimates."""
    ds = Dataset(np.asarray(xs, dtype=float)[:, None], ys, np.array([[0.0, 1.0]]))
    idx_a = np.array(first_indices)
    idx_b = np.array([i for i in range(len(xs)) if i not in first_indices])
    from avmlar.partition import PartitionedDataset

    return PartitionedDataset(
        (ds.subset(idx_a), ds.subset(idx_b)), (idx_a, idx_b), 0, len(xs)
    )


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
    assert data_dependent_bandwidth(
        MeshNormReport((0.1, 0.02), 5), 4, 1, 1
    ) == pytest.approx(0.29240, abs=1e-4)
    assert data_dependent_bandwidth(
        MeshNormReport((0.25,), 5), 1, 1, 1
    ) == pytest.approx(0.62996, abs=1e-4)


def test_data_dependent_bandwidth_dominates_radii():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(1, 30))
        radii = tuple(rng.uniform(0.01, 0.9, size=m))
        r = float(rng.uniform(0.5, 3.0))
        d = int(rng.integers(1, 6))
        out = data_dependent_bandwidth(MeshNormReport(radii, 5), m, r, d)
        assert out >= max(radii)


def test_data_dependent_bandwidth_all_zero_errors():
    with pytest.raises(ValueError):
        data_dependent_bandwidth(MeshNormReport((0.0, 0.0), 5), 2, 1, 1)


# --- variant predictions ------------------------------------------------


def test_m1_collapses_to_single_block_lar():
    ds = uniform_dataset(30, seed=2)
    model = fit_avm(ds, NWK, 1, 7, Variant.A1_PLAIN, h=0.2)
    q = [0.4]
    expected = nwk_predict(model.partition.blocks[0], KernelKind.NAIVE, 0.2, q)
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
    mesh = mesh_norm_report(model.partition, default_candidates(ds))
    assert model.tilde_h == pytest.approx(
        data_dependent_bandwidth(mesh, 5, NWK.r, NWK.d)
    )
    assert model.tilde_h >= mesh.max
    # common bandwidth covers the domain: no degenerate blocks at covered queries
    batch = predict_batch(model, np.linspace(0, 1, 50)[:, None])
    assert np.all(batch.degenerate_blocks == 0)


def test_a2_m1_equals_single_lar_with_tilde():
    ds = uniform_dataset(40, seed=6)
    model = fit_avm(ds, NWK, 1, 7, Variant.A2_DATA_DEPENDENT)
    q = [0.3]
    expected = nwk_predict(
        model.partition.blocks[0], KernelKind.NAIVE, model.tilde_h, q
    )
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


def test_model_validation():
    ds = uniform_dataset(10, seed=12)
    part = random_partition(ds, 2, 0)
    with pytest.raises(ValueError):
        AvmModel(part, NWK, Variant.A1_PLAIN, -0.5)
    with pytest.raises(ValueError):
        AvmModel(part, NWK, Variant.A2_DATA_DEPENDENT, 0.5)  # missing tilde_h
    with pytest.raises(ValueError):
        AvmModel(part, NWK, Variant.A1_PLAIN, 0.5, tilde_h=0.6)
    knn_cfg = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1)
    with pytest.raises(ValueError):
        AvmModel(part, knn_cfg, Variant.A1_PLAIN, 6)  # k > min block size
    with pytest.raises(ValueError):
        fit_avm(ds, knn_cfg, 4, 0, h=0.5)  # h is for NWK only
    with pytest.raises(ValueError):
        fit_avm(ds, NWK, 2, 0, k=3)  # k is for k-NN only
    model = fit_avm(ds, NWK, 2, 0, Variant.A1_PLAIN, h=0.2)
    with pytest.raises(ValueError):
        predict_batch(model, np.zeros((3, 2)))  # dimension mismatch
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            predict_batch(model, [[0.5], [bad]])  # non-finite query


def test_variants_match_brute_force_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(6, 30))
        m = int(rng.integers(1, 4))
        ds = Dataset(
            rng.random((n, d)), rng.normal(size=n), np.tile([0.0, 1.0], (d, 1))
        )
        h = float(rng.uniform(0.05, 0.5))
        q = rng.random(d)
        a1 = fit_avm(ds, EstimatorConfig(EstimatorFamily.NWK_NAIVE, 1.0, d), m, 3, h=h)
        blocks = [
            ([tuple(r) for r in b.x], list(b.y)) for b in a1.partition.blocks
        ]
        assert predict_batch(a1, [q]).values[0] == pytest.approx(
            oracles.avm_a1_nwk(blocks, "naive", h, q), abs=1e-12
        )
        a3 = AvmModel(a1.partition, a1.config, Variant.A3_QUALIFIED, h)
        assert predict_batch(a3, [q]).values[0] == pytest.approx(
            oracles.avm_a3_nwk(blocks, "naive", h, q), abs=1e-12
        )
    # duplicate inputs tie k-NN distances, and ties go to the lower index
    for _ in range(25):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(6, 30))
        m = int(rng.integers(1, 4))
        lattice = rng.integers(0, 3, size=(n, d)) / 2
        ds = Dataset(lattice, rng.normal(size=n), np.tile([0.0, 1.0], (d, 1)))
        k = int(rng.integers(1, n // m + 1))
        cfg = EstimatorConfig(EstimatorFamily.KNN, 1.0, d)
        model = fit_avm(ds, cfg, m, 3, k=k)
        blocks = [
            ([tuple(r) for r in b.x], list(b.y)) for b in model.partition.blocks
        ]
        queries = rng.integers(0, 5, size=(8, d)) / 4
        np.testing.assert_allclose(
            predict_batch(model, queries).values,
            [oracles.avm_knn(blocks, k, q) for q in queries],
            rtol=0,
            atol=1e-12,
        )
