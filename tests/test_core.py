import numpy as np
import pytest

from avmlar import Dataset, InvalidDataError, mse, read_csv, write_csv
from avmlar.core import EstimatorConfig, EstimatorFamily


def test_mse_identical_lists():
    assert mse([1, 2], [1, 2]) == 0.0


def test_mse_unit_offsets():
    assert mse([0, 0], [1, 1]) == 1.0


def test_mse_hand_computed():
    assert mse([1, 3], [2, 1]) == pytest.approx(2.5)


def test_mse_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        mse([], [])
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0])


def test_mse_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        v = mse(a, b)
        assert v >= 0.0
        assert v == pytest.approx(mse(b, a))
        perm = rng.permutation(n)
        assert v == pytest.approx(mse(a[perm], b[perm]))
    assert mse(a, a) == 0.0


def test_dataset_basic_invariants():
    ds = Dataset(np.array([[0.1, 0.2], [0.5, 0.9]]), [1.0, 2.0])
    assert ds.n == 2 and ds.d == 2


def test_dataset_immutable():
    ds = Dataset(np.array([[0.0]]), [1.0])
    with pytest.raises(AttributeError):
        ds.x = None
    with pytest.raises(ValueError):
        ds.x[0, 0] = 3.0


def test_dataset_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Dataset(np.empty((0, 1)), [])
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan]]), [1.0])
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0]]), [np.inf])
    with pytest.raises(ValueError):
        Dataset(np.array([[2.0]]), [1.0], domain_bounds=np.array([[0.0, 1.0]]))
    for bounds in ([[np.nan, 1.0]], [[0.0, np.inf]]):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[0.5]]), [1.0], domain_bounds=bounds)


def test_dataset_bounds_advisory_for_ingested():
    ds = Dataset(
        np.array([[2.0]]), [1.0],
        domain_bounds=np.array([[0.0, 1.0]]),
        validate_bounds=False,
    )
    assert ds.n == 1


def test_dataset_keeps_insertion_order():
    xs = np.array([[0.9], [0.1], [0.5]])
    ds = Dataset(xs, [9.0, 1.0, 5.0])
    assert np.array_equal(ds.x, xs)


def test_estimator_config_validation():
    EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=1)
    with pytest.raises(ValueError):
        EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=0.0, d=1)
    with pytest.raises(ValueError):
        EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1, constant_c=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=bad, d=1)
        with pytest.raises(ValueError):
            EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=1, constant_c=bad)
    # a family name instead of the enum, and a fractional or non-finite d
    with pytest.raises(ValueError, match="family"):
        EstimatorConfig("knn", r=1.0, d=1)
    for bad in (1.5, 0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dimension"):
            EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=bad)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    ds = Dataset(rng.random((7, 3)), rng.normal(size=7))
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,y"
    back = read_csv(path)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(InvalidDataError):
        read_csv(path)


def test_csv_rejects_non_numeric_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n0.1,1\nabc,2\n")
    with pytest.raises(InvalidDataError, match=r"bad\.csv:3: .*'abc'"):
        read_csv(path)
