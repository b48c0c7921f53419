import math

import numpy as np
import pytest

from avmlar import (
    InvalidDataError,
    TargetKind,
    TargetModel,
    eval_target,
    generate_dataset,
    generate_test_set,
    load_road_network,
)

G1 = TargetModel(TargetKind.G1)
G2 = TargetModel(TargetKind.G2)
G3 = TargetModel(TargetKind.G3)


def test_g1_values():
    assert eval_target(G1, [0.6]) == 0.0
    assert eval_target(G1, [0.25]) == pytest.approx(0.3125)
    assert eval_target(G1, [0.0]) == 1.0
    assert all(eval_target(G1, [x]) == 0.0 for x in np.linspace(0.5, 1.0, 11))


def test_g2_values():
    assert eval_target(G2, [0.0] * 5) == 1.0
    assert eval_target(G2, [1.0, 0, 0, 0, 0]) == pytest.approx(0.2)
    v = np.full(5, 1.0 / math.sqrt(5.0))
    assert eval_target(G2, v) == pytest.approx(0.2)


def test_g3_values():
    assert eval_target(G3, [0.3]) == pytest.approx(0.3)
    assert eval_target(G3, [0.7]) == pytest.approx(0.3)
    assert eval_target(G3, [0.5]) == 0.5
    xs = np.linspace(0, 1, 101)
    assert max(eval_target(G3, [x]) for x in xs) == 0.5


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        eval_target(G1, [0.1, 0.2])
    with pytest.raises(ValueError):
        eval_target(G2, [0.1])


def test_targets_continuous_on_grid():
    # max adjacent difference shrinks linearly with the grid step
    for model in (G1, G3):
        diffs = []
        for n in (100, 200, 400):
            xs = np.linspace(0, 1, n + 1)
            vals = np.array([eval_target(model, [x]) for x in xs])
            diffs.append(np.abs(np.diff(vals)).max())
        assert diffs[1] <= diffs[0] * 0.6
        assert diffs[2] <= diffs[1] * 0.6


def test_g2_continuous_along_rays():
    rng = np.random.default_rng(0)
    v = rng.normal(size=5)
    v /= np.linalg.norm(v)
    diffs = []
    for n in (100, 200, 400):
        ts = np.linspace(0.0, 2.0, n + 1)
        vals = np.array([eval_target(G2, t * np.abs(v)) for t in ts])
        diffs.append(np.abs(np.diff(vals)).max())
    assert diffs[1] <= diffs[0] * 0.6
    assert diffs[2] <= diffs[1] * 0.6


def test_default_noise_levels():
    assert G1.noise_sd == pytest.approx(math.sqrt(0.1))
    assert G2.noise_sd == pytest.approx(math.sqrt(0.1))
    assert G3.noise_sd == pytest.approx(math.sqrt(0.2))


def test_noise_sd_must_be_finite_and_nonnegative():
    assert TargetModel(TargetKind.G1, noise_sd=0.0).noise_sd == 0.0
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_sd"):
            TargetModel(TargetKind.G1, noise_sd=bad)


def test_generation_deterministic():
    a = generate_dataset(G1, 100, 7)
    b = generate_dataset(G1, 100, 7)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    c = generate_dataset(G1, 100, 8)
    assert not np.array_equal(a.y, c.y)


def test_noiseless_generation_matches_target():
    silent = TargetModel(TargetKind.G1, noise_sd=0.0)
    ds = generate_dataset(silent, 50, 3)
    for xi, yi in zip(ds.x, ds.y):
        assert yi == eval_target(silent, xi)


def test_inputs_in_unit_cube_and_uniform():
    ds = generate_dataset(G2, 4000, 1)
    assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0
    bound = 3.0 / math.sqrt(12.0 * ds.n)
    assert np.all(np.abs(ds.x.mean(axis=0) - 0.5) <= bound)


def test_noise_is_centered():
    n = 100_000
    ds = generate_dataset(G1, n, 5)
    clean = np.array([eval_target(G1, xi) for xi in ds.x])
    resid = ds.y - clean
    assert abs(resid.mean()) <= 3.0 * G1.noise_sd / math.sqrt(n)
    assert resid.std() == pytest.approx(G1.noise_sd, rel=0.05)


def test_test_set_noiseless_and_seeded():
    ts = generate_test_set(G3, 1000, 11)
    assert ts.n == 1000
    for xi, yi in zip(ts.x, ts.y):
        assert yi == eval_target(G3, xi)
    other = generate_test_set(G3, 1000, 12)
    assert not np.array_equal(ts.x, other.x)


def test_road_loader_field_mapping(tmp_path):
    path = tmp_path / "road.txt"
    path.write_text("144552912,9.3498486,56.7408757,17.0527015\n")
    road = load_road_network(path)
    assert road.skipped_rows == 0
    assert road.dataset.d == 2
    assert road.dataset.x[0] == pytest.approx([9.3498486, 56.7408757])
    assert road.dataset.y[0] == pytest.approx(17.0527015)


def test_road_loader_skips_malformed(tmp_path):
    # blank lines are no rows; a row with a wrong field count, a non-numeric
    # field or a non-finite value is skipped and counted
    path = tmp_path / "road.txt"
    path.write_text(
        "1,9.34,56.74,17.05\n"
        "garbage line without commas\n"
        "\n"
        "   \n"
        "3,9.35,north,18.11\n"
        "4,9.36,56.76,\n"
        "5,inf,56.77,19.0\n"
        "6,9.38,nan,19.5\n"
        "7,9.39,56.79,-inf\n"
        "2,9.35,56.75,18.11\n"
    )
    road = load_road_network(path)
    assert road.dataset.x.tolist() == [[9.34, 56.74], [9.35, 56.75]]
    assert road.dataset.y.tolist() == [17.05, 18.11]
    assert road.skipped_rows == 6


def test_road_loader_errors(tmp_path):
    with pytest.raises(OSError):
        load_road_network(tmp_path / "missing.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("only,three,fields\n")
    with pytest.raises(InvalidDataError):
        load_road_network(empty)


def test_road_loader_bounds_are_observed_bbox(tmp_path):
    path = tmp_path / "road.txt"
    path.write_text("1,0.0,10.0,5.0\n2,2.0,12.0,6.0\n3,1.0,11.0,7.0\n")
    ds = load_road_network(path).dataset
    assert np.array_equal(ds.domain_bounds, np.array([[0.0, 2.0], [10.0, 12.0]]))
