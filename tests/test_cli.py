import csv

import numpy as np
import pytest

from avmlar import (
    CvConfig,
    EstimatorConfig,
    EstimatorFamily,
    TargetKind,
    TargetModel,
    cv_select_constant,
    default_constant_grid,
    generate_dataset,
    read_csv,
)
from avmlar.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


def test_gen_writes_loadable_csv(tmp_path):
    out = tmp_path / "g1.csv"
    assert run_cli("gen", "--target", "g1", "--n", 50, "--seed", 3, "--out", out) == 0
    ds = read_csv(out)
    assert ds.n == 50 and ds.d == 1


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("gen", "--target", "g3", "--n", 20, "--seed", 5, "--out", a)
    run_cli("gen", "--target", "g3", "--n", 20, "--seed", 5, "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_non_finite_noise_sd(tmp_path, capsys):
    out = tmp_path / "g1.csv"
    code = run_cli("gen", "--target", "g1", "--n", 3, "--noise-sd", "nan", "--out", out)
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_gen_test_set_noiseless(tmp_path):
    out = tmp_path / "t.csv"
    run_cli("gen", "--target", "g1", "--n", 10, "--seed", 1, "--test", "--out", out)
    ds = read_csv(out)
    from avmlar import TargetKind, TargetModel, eval_target

    tm = TargetModel(TargetKind.G1)
    for xi, yi in zip(ds.x, ds.y):
        assert yi == eval_target(tm, xi)


@pytest.mark.parametrize("variant", ["a1", "a2", "a3"])
def test_predict_round_trip(tmp_path, variant):
    train = tmp_path / "train.csv"
    query = tmp_path / "query.csv"
    out = tmp_path / f"pred_{variant}.csv"
    run_cli("gen", "--target", "g1", "--n", 200, "--seed", 2, "--out", train)
    run_cli("gen", "--target", "g1", "--n", 20, "--seed", 9, "--test", "--out", query)
    code = run_cli(
        "predict", "--variant", variant, "--kernel", "naive",
        "--blocks", 4, "--seed", 1, "--c", 0.5,
        "--train", train, "--query", query, "--out", out,
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    assert set(rows[0]) == {"x1", "prediction", "active_blocks", "degenerate_blocks"}
    for row in rows:
        assert 0 <= int(row["active_blocks"]) <= 4
        float(row["prediction"])


def test_predict_knn(tmp_path):
    train = tmp_path / "train.csv"
    query = tmp_path / "query.csv"
    out = tmp_path / "pred.csv"
    run_cli("gen", "--target", "g1", "--n", 100, "--seed", 4, "--out", train)
    run_cli("gen", "--target", "g1", "--n", 5, "--seed", 5, "--test", "--out", query)
    code = run_cli(
        "predict", "--kernel", "knn", "--blocks", 5, "--seed", 2, "--k", 3,
        "--train", train, "--query", query, "--out", out,
    )
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(int(r["active_blocks"]) == 5 for r in rows)


def test_predict_rejects_parameter_of_other_family(tmp_path, capsys):
    train = tmp_path / "train.csv"
    query = tmp_path / "query.csv"
    run_cli("gen", "--target", "g1", "--n", 100, "--seed", 4, "--out", train)
    run_cli("gen", "--target", "g1", "--n", 5, "--seed", 5, "--test", "--out", query)
    for kernel, option, value in (
        ("knn", "--h", 0.3), ("naive", "--k", 3), ("naive", "--h", "nan")
    ):
        code = run_cli(
            "predict", "--kernel", kernel, "--blocks", 5, option, value,
            "--train", train, "--query", query, "--out", tmp_path / "o.csv",
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["", "x1,y\n"], ids=["empty", "header-only"])
def test_predict_query_file_without_rows_fails(tmp_path, capsys, content):
    train = tmp_path / "train.csv"
    query = tmp_path / "query.csv"
    run_cli("gen", "--target", "g1", "--n", 100, "--seed", 4, "--out", train)
    query.write_text(content)
    code = run_cli(
        "predict", "--blocks", 5, "--train", train, "--query", query,
        "--out", tmp_path / "o.csv",
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_predict_explicit_bandwidth_matches_library(tmp_path):
    train = tmp_path / "train.csv"
    query = tmp_path / "query.csv"
    out = tmp_path / "pred.csv"
    run_cli("gen", "--target", "g1", "--n", 80, "--seed", 6, "--out", train)
    run_cli("gen", "--target", "g1", "--n", 7, "--seed", 7, "--test", "--out", query)
    run_cli(
        "predict", "--blocks", 2, "--seed", 3, "--h", 0.25,
        "--train", train, "--query", query, "--out", out,
    )
    from avmlar import (
        EstimatorConfig,
        EstimatorFamily,
        Variant,
        fit_avm,
        predict_batch,
    )

    ds = read_csv(train)
    qs = read_csv(query)
    model = fit_avm(
        ds,
        EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=1),
        2,
        3,
        Variant.A1_PLAIN,
        h=0.25,
    )
    expected = predict_batch(model, qs.x).values
    with out.open() as fh:
        got = [float(r["prediction"]) for r in csv.DictReader(fh)]
    np.testing.assert_allclose(got, expected, rtol=0, atol=0)


def test_tune_prints_constant(tmp_path, capsys):
    code = run_cli(
        "tune", "--target", "g1", "--n", 300, "--kernel", "naive",
        "--folds", 3, "--grid-lo", 0.2, "--grid-hi", 2.0, "--grid-n", 4,
        "--seed", 8,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "selected constant:" in out


def test_experiment_writes_csvs(tmp_path):
    out = tmp_path / "res.csv"
    code = run_cli(
        "experiment", "--scenario", "sim1-nwk", "--n", 150, "--t", 40,
        "--trials", 2, "--seed", 11, "--m-grid", "1,3", "--out", out,
    )
    assert code == 0
    assert out.exists()
    summary = tmp_path / "res.summary.csv"
    assert summary.exists()
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "trial,m,ge,le,ae_a1,inactive_blocks"
    assert len(lines) == 5


def test_experiment_m_grid_range_syntax(tmp_path):
    out = tmp_path / "res.csv"
    code = run_cli(
        "experiment", "--scenario", "sim1-nwk", "--n", 200, "--t", 30,
        "--trials", 1, "--seed", 1, "--m-grid", "2:6:2", "--out", out,
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    ms = [int(l.split(",")[1]) for l in lines[1:]]
    assert ms == [2, 4, 6]


def test_experiment_default_grid_fits_small_n(tmp_path):
    out = tmp_path / "res.csv"
    code = run_cli(
        "experiment", "--scenario", "sim2", "--n", 300, "--t", 20,
        "--trials", 1, "--out", out,
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert [int(l.split(",")[1]) for l in lines[1:]] == [8, 16, 32, 64, 128, 256]


def test_experiment_d5_flag(tmp_path):
    out = tmp_path / "res.csv"
    code = run_cli(
        "experiment", "--scenario", "sim1-nwk", "--n", 120, "--t", 20,
        "--trials", 1, "--seed", 2, "--m-grid", "2", "--d", 5, "--out", out,
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert '"d": 5' in header


def test_experiment_road_missing_file_fails(tmp_path):
    code = run_cli(
        "experiment", "--scenario", "road", "--data", tmp_path / "nope.txt",
        "--out", tmp_path / "r.csv",
    )
    assert code == 1


def test_experiment_rejects_repeated_m(tmp_path, capsys):
    code = run_cli(
        "experiment", "--scenario", "sim1-nwk", "--n", 50, "--trials", 1,
        "--m-grid", "4,4", "--out", tmp_path / "r.csv",
    )
    assert code == 1
    assert "repeats" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_bad_arguments_exit_nonzero(tmp_path):
    code = run_cli(
        "predict", "--blocks", 5, "--train", tmp_path / "missing.csv",
        "--query", tmp_path / "missing.csv", "--out", tmp_path / "o.csv",
    )
    assert code == 1


@pytest.mark.parametrize("grid", ["1:4", "1:a:1", "5:1:1", "1:5:0", "1,a", ""])
def test_experiment_rejects_malformed_m_grid(tmp_path, capsys, grid):
    # a malformed grid is a usage error: argparse exits with status 2
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "experiment", "--scenario", "sim1-nwk", "--n", 50, "--m-grid", grid,
            "--out", tmp_path / "r.csv",
        )
    assert exc.value.code == 2
    assert "error: argument --m-grid: bad m-grid" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_experiment_cv_records_the_tuned_constant(tmp_path):
    # --cv tunes the constant on the first trial's training data, as
    # `avmlar tune` does with its default grid and --seed
    out = tmp_path / "res.csv"
    code = run_cli(
        "experiment", "--scenario", "sim1-knn", "--n", 200, "--t", 30,
        "--trials", 2, "--seed", 4, "--m-grid", "1,4", "--cv", "--out", out,
    )
    assert code == 0
    notes = [l for l in out.read_text().splitlines() if l.startswith("# tuned_constant: ")]
    assert len(notes) == 1
    tuned = float(notes[0].split(": ")[1])
    train = generate_dataset(TargetModel(TargetKind.G1), 200, 4)
    config = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1)
    assert tuned == cv_select_constant(train, config, CvConfig(default_constant_grid(), seed=4))


def test_tune_reads_a_training_csv(tmp_path, capsys):
    train = tmp_path / "train.csv"
    run_cli("gen", "--target", "g3", "--n", 150, "--seed", 6, "--out", train)
    code = run_cli(
        "tune", "--train", train, "--kernel", "knn", "--folds", 3,
        "--grid-lo", 0.2, "--grid-hi", 2.0, "--grid-n", 4, "--seed", 1,
    )
    assert code == 0
    cv = CvConfig(default_constant_grid(0.2, 2.0, 4), folds=3, seed=1)
    config = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1)
    expected = cv_select_constant(read_csv(train), config, cv)
    assert capsys.readouterr().out.splitlines()[-1] == f"selected constant: {expected!r}"
