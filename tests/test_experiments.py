import dataclasses

import numpy as np
import pytest

import oracles
from avmlar import (
    CvConfig,
    EstimatorConfig,
    EstimatorFamily,
    ExperimentConfig,
    Scenario,
    TargetKind,
    TargetModel,
    Variant,
    compute_ge_le_ae,
    generate_dataset,
    generate_test_set,
    run_experiment,
    summarize,
    write_result_csv,
    write_summary_csv,
)
from avmlar.experiments import _mesh_candidates, format_summary_text
from avmlar.partition import default_candidates

NWK = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=1, constant_c=0.5)
ALL = (Variant.A1_PLAIN, Variant.A2_DATA_DEPENDENT, Variant.A3_QUALIFIED)


def small_data(n=300, seed=0, kind=TargetKind.G1):
    tm = TargetModel(kind)
    return generate_dataset(tm, n, seed), generate_test_set(tm, 100, seed + 1)


@pytest.mark.parametrize(
    "estimator", [NWK, EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1)], ids=["nwk", "knn"]
)
def test_m1_collapse_identities(estimator):
    train, test = small_data()
    row = compute_ge_le_ae(train, test, estimator, 1, seed=5, variants=ALL)
    assert row["ae_a1"] == row["ge"]
    assert row["le"] == row["ge"]


def test_knn_rejects_covering_radius_candidates():
    train, test = small_data(n=60)
    knn = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1)
    cand = np.linspace(0.0, 1.0, 11)[:, None]
    with pytest.raises(ValueError, match="candidates"):
        compute_ge_le_ae(train, test, knn, 2, seed=1, candidates=cand)


def test_kernel_sweep_rejects_non_finite_candidates():
    train, test = small_data(n=60)
    for bad in (np.nan, np.inf, -np.inf):
        cand = np.linspace(0.0, 1.0, 11)[:, None]
        cand[4, 0] = bad
        with pytest.raises(ValueError, match="candidates must be finite"):
            compute_ge_le_ae(train, test, NWK, 2, seed=1, variants=ALL, candidates=cand)


def test_ge_constant_across_m():
    train, test = small_data(seed=2)
    rows = [
        compute_ge_le_ae(train, test, NWK, m, seed=7, variants=(Variant.A1_PLAIN,))
        for m in (1, 2, 5, 10)
    ]
    ge = rows[0]["ge"]
    assert all(r["ge"] == ge for r in rows)


def test_constant_target_all_errors_zero():
    tm = TargetModel(TargetKind.G1, noise_sd=0.0)
    rng = np.random.default_rng(3)
    from avmlar import Dataset

    train = Dataset(rng.random((200, 1)), np.full(200, 4.0), np.array([[0.0, 1.0]]))
    test = Dataset(rng.random((50, 1)), np.full(50, 4.0), np.array([[0.0, 1.0]]))
    row = compute_ge_le_ae(train, test, NWK, 4, seed=1, variants=ALL)
    for key in ("ge", "le", "ae_a1", "ae_a2", "ae_a3"):
        assert row[key] == pytest.approx(0.0, abs=1e-24)


def test_row_matches_oracle_mse():
    train, test = small_data(n=60, seed=4)
    m = 3
    row = compute_ge_le_ae(train, test, NWK, m, seed=9, variants=ALL)
    from avmlar.experiments import _mix_seed
    from avmlar import (
        data_dependent_bandwidth,
        default_candidates,
        mesh_norm_report,
        nwk_bandwidth_rule,
        random_partition,
    )

    part = random_partition(train, m, _mix_seed(9, m))
    blocks = [([tuple(r) for r in b.x], list(b.y)) for b in part.blocks]
    h = nwk_bandwidth_rule(train.n, NWK.r, NWK.d, NWK.constant_c)
    radii = mesh_norm_report(part, default_candidates(train))
    tilde = data_dependent_bandwidth(radii, NWK.r, NWK.d)
    for col, fn, bw in (
        ("ae_a1", oracles.avm_a1_nwk, h),
        ("ae_a2", oracles.avm_a2_nwk, tilde),
        ("ae_a3", oracles.avm_a3_nwk, h),
    ):
        preds = [fn(blocks, "naive", bw, q) for q in test.x]
        expected = float(np.mean((np.array(preds) - test.y) ** 2))
        assert row[col] == pytest.approx(expected, abs=1e-12)
    assert row["inactive_blocks"] == sum(v > h for v in radii)


def test_run_experiment_row_structure():
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_VARIANTS, n=200, t=50, trials=2, m_grid=(1, 4), base_seed=3
    )
    result = run_experiment(config)
    assert len(result.rows) == 4
    keys = [(r["trial"], r["m"]) for r in result.rows]
    assert keys == [(0, 1), (0, 4), (1, 1), (1, 4)]
    assert result.columns == (
        "trial", "m", "ge", "le", "ae_a1", "ae_a2", "ae_a3", "inactive_blocks",
    )


def test_knn_inadmissible_m_marked_skipped(tmp_path):
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_KNN, n=100, t=30, trials=1, m_grid=(2, 50), base_seed=1
    )
    # admissible bound is 100^(2/3) ~ 21.5, so m=50 must be skipped
    result = run_experiment(config)
    by_m = {r["m"]: r for r in result.rows}
    assert by_m[2]["skipped"] == 0
    assert by_m[2]["ae_a1"] is not None
    assert by_m[50]["skipped"] == 1
    assert "ae_a1" not in by_m[50]
    summary = summarize(result)
    srows = {r["m"]: r for r in summary.rows}
    assert srows[50]["skipped"] == 1
    assert srows[50]["ae_a1_mean"] is None
    # m=50 skips in every trial: its error cells are empty in the summary
    # CSV and "-" in the text table
    p = tmp_path / "summary.csv"
    write_summary_csv(result, p)
    data = [l.split(",") for l in p.read_text().splitlines() if not l.startswith("#")]
    columns, rows = data[0], {row[0]: row for row in data[1:]}
    assert columns == list(summary.columns) and columns[-1] == "skipped"
    assert rows["2"][-1] == "0" and all(rows["2"][1:-1])
    assert rows["50"][-1] == "1" and not any(rows["50"][1:-1])
    text = format_summary_text(result).splitlines()
    assert text[0].split() == columns
    cells = {line.split()[0]: line.split() for line in text[1:]}
    assert cells["50"][1:-1] == ["-"] * (len(columns) - 2) and cells["50"][-1] == "1"
    assert "-" not in cells["2"]


def test_summary_single_trial_sd_zero():
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_NWK, n=150, t=40, trials=1, m_grid=(3,), base_seed=2
    )
    summary = summarize(run_experiment(config))
    assert summary.rows[0]["ae_a1_sd"] == 0.0


def test_summary_population_sd():
    # population form: two values {1, 3} give mean 2 and sd 1
    assert oracles.population_sd([1.0, 3.0]) == pytest.approx(1.0)
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_NWK, n=150, t=40, trials=3, m_grid=(2, 5), base_seed=4
    )
    result = run_experiment(config)
    summary = summarize(result)
    for srow in summary.rows:
        vals = [r["ae_a1"] for r in result.rows if r["m"] == srow["m"]]
        assert srow["ae_a1_mean"] == pytest.approx(np.mean(vals))
        assert srow["ae_a1_sd"] == pytest.approx(oracles.population_sd(vals))


def test_summary_column_order():
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_VARIANTS, n=120, t=30, trials=1, m_grid=(2,), base_seed=5
    )
    summary = summarize(run_experiment(config))
    assert summary.columns == (
        "m",
        "ge_mean", "ge_sd",
        "le_mean", "le_sd",
        "ae_a1_mean", "ae_a1_sd",
        "ae_a2_mean", "ae_a2_sd",
        "ae_a3_mean", "ae_a3_sd",
        "inactive_blocks_mean", "inactive_blocks_sd",
    )


def csv_twice(config, tmp_path):
    """Two result CSVs of the same config, as lines without ``# generated_at``."""
    runs = []
    for i in range(2):
        p = tmp_path / f"run{i}.csv"
        write_result_csv(run_experiment(config), p)
        lines = p.read_bytes().split(b"\n")
        runs.append([line for line in lines if not line.startswith(b"# generated_at")])
    return runs


def test_result_csv_deterministic_modulo_timestamp(tmp_path):
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_VARIANTS, n=150, t=40, trials=2, m_grid=(1, 3), base_seed=6
    )
    first, second = csv_twice(config, tmp_path)
    assert first == second
    header = (tmp_path / "run0.csv").read_text().splitlines()
    assert header[0].startswith("# config:")
    assert any(line.startswith("# generated_at:") for line in header[:3])


def test_knn_cv_sweep_csv_is_deterministic(tmp_path):
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_KNN, n=300, t=40, trials=2, m_grid=(1, 4, 12), base_seed=8,
        cv=CvConfig((0.1, 0.4, 1.6), folds=3, seed=2),
    )
    first, second = csv_twice(config, tmp_path)
    assert first == second


def test_summary_csv_and_text(tmp_path):
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_NWK, n=120, t=30, trials=2, m_grid=(2, 4), base_seed=7
    )
    result = run_experiment(config)
    p = tmp_path / "summary.csv"
    write_summary_csv(result, p)
    lines = p.read_text().splitlines()
    assert any(line.startswith("# sd: population") for line in lines)
    data_lines = [l for l in lines if not l.startswith("#")]
    assert data_lines[0].split(",")[0] == "m"
    assert len(data_lines) == 3
    text = format_summary_text(result)
    assert "ae_a1_mean" in text.splitlines()[0]


def test_mesh_candidate_cap_draws_a_seeded_subset():
    train, _ = small_data(n=300, kind=TargetKind.G2)
    full = {tuple(row) for row in default_candidates(train)}
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_NWK, n=300, mesh_candidate_cap=40, base_seed=3
    )
    assert len(full) > 40
    cand = _mesh_candidates(config, train)
    assert cand.shape == (40, 5)
    assert len({tuple(row) for row in cand} & full) == 40
    assert np.array_equal(cand, _mesh_candidates(config, train))
    other = dataclasses.replace(config, base_seed=4)
    assert not np.array_equal(cand, _mesh_candidates(other, train))
    # a cap at or above the set's size keeps the whole set
    whole = dataclasses.replace(config, mesh_candidate_cap=len(full))
    assert np.array_equal(_mesh_candidates(whole, train), default_candidates(train))


def test_road_scenario_pipeline(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "road.txt"
    lines = []
    for i in range(400):
        lon, lat = rng.uniform(9, 10), rng.uniform(56, 57)
        elev = 10.0 + 5.0 * np.sin(lon * 3) + rng.normal(scale=0.1)
        lines.append(f"{i},{lon},{lat},{elev}")
    path.write_text("\n".join(lines) + "\n")
    config = ExperimentConfig.for_scenario(
        Scenario.ROAD, data_path=str(path), t=50, n=None, m_grid=(2, 4), trials=1
    )
    result = run_experiment(config)
    assert len(result.rows) == 2
    for row in result.rows:
        for col in ("ge", "le", "ae_a1", "ae_a2", "ae_a3"):
            assert row[col] >= 0.0
    # n=None reads every row; a given n must be positive
    for bad in (0, -3):
        with pytest.raises(ValueError, match="n must be positive"):
            dataclasses.replace(config, n=bad)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig.for_scenario(Scenario.SIM1_NWK, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig.for_scenario(Scenario.SIM1_NWK, m_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig.for_scenario(Scenario.ROAD)  # missing data_path
    with pytest.raises(ValueError, match="test size"):
        ExperimentConfig.for_scenario(Scenario.SIM1_NWK, t=0)
    with pytest.raises(ValueError, match="mesh_candidate_cap"):
        ExperimentConfig.for_scenario(Scenario.SIM1_NWK, mesh_candidate_cap=0)
    with pytest.raises(ValueError, match="repeats"):
        ExperimentConfig.for_scenario(Scenario.SIM1_NWK, m_grid=(4, 4))
    for grid in ((2.5, 5), (0, 5), (np.inf,)):  # never truncated to integers
        with pytest.raises(ValueError, match="positive integer"):
            ExperimentConfig.for_scenario(Scenario.SIM1_NWK, m_grid=grid)
    # the estimator dimension must be one the scenario has data for
    d5 = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=5)
    with pytest.raises(ValueError, match="dimension"):
        ExperimentConfig.for_scenario(Scenario.SIM2, estimator=d5)
    with pytest.raises(ValueError, match="dimension"):
        ExperimentConfig.for_scenario(Scenario.ROAD, data_path="road.txt", estimator=d5)
    d2 = dataclasses.replace(d5, d=2)
    with pytest.raises(ValueError, match="dimension"):
        ExperimentConfig.for_scenario(Scenario.SIM1_NWK, estimator=d2)
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_NWK, n=50, t=10, trials=1, m_grid=(60,)
    )
    with pytest.raises(ValueError):
        run_experiment(config)  # m exceeds training size


@pytest.mark.parametrize("field", ["n", "t", "trials", "mesh_candidate_cap"])
def test_config_rejects_non_integral_counts(field):
    # a float count would reach numpy as an array size and raise TypeError there
    for bad in (300.5, np.inf):
        with pytest.raises(ValueError, match="integral"):
            ExperimentConfig.for_scenario(Scenario.SIM1_NWK, m_grid=(2,), **{field: bad})
    whole = ExperimentConfig.for_scenario(Scenario.SIM1_NWK, m_grid=(2,), **{field: 300.0})
    assert type(getattr(whole, field)) is int


def test_grid_checked_before_cv(monkeypatch):
    def no_cv(*args):
        raise AssertionError("CV ran before the m grid was checked")

    monkeypatch.setattr("avmlar.experiments.cv_select_constant", no_cv)
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_NWK, n=50, t=10, trials=1, m_grid=(60,),
        cv=CvConfig((0.5, 1.0), folds=2),
    )
    with pytest.raises(ValueError, match="m_grid"):
        run_experiment(config)


SIM1_GRID = tuple(range(5, 351, 5))
NWK_COLUMNS = ("trial", "m", "ge", "le", "ae_a1", "ae_a2", "ae_a3", "inactive_blocks")


def test_default_grids():
    a1 = (Variant.A1_PLAIN,)
    naive, knn = EstimatorFamily.NWK_NAIVE, EstimatorFamily.KNN
    # scenario: variants, default m grid, (family, d, c), target, n, trials, columns
    table = {
        Scenario.SIM1_NWK: (
            a1, SIM1_GRID, (naive, 1, 1.0), TargetKind.G1, 10_000, 20,
            ("trial", "m", "ge", "le", "ae_a1", "inactive_blocks"),
        ),
        Scenario.SIM1_KNN: (
            a1, SIM1_GRID, (knn, 1, 1.0), TargetKind.G1, 10_000, 20,
            ("trial", "m", "ge", "le", "ae_a1", "skipped"),
        ),
        Scenario.SIM1_VARIANTS: (
            ALL, SIM1_GRID, (naive, 1, 1.0), TargetKind.G1, 10_000, 20, NWK_COLUMNS,
        ),
        Scenario.SIM2: (
            ALL, tuple(2**p for p in range(3, 12)), (naive, 1, 1.0), TargetKind.G3,
            10_000, 20, NWK_COLUMNS,
        ),
        Scenario.ROAD: (
            ALL, tuple(2**p for p in range(1, 11)), (naive, 2, 0.13), None,
            413_363, 1, NWK_COLUMNS,
        ),
    }
    assert set(table) == set(Scenario)
    for scenario, (variants, grid, est, target, n, trials, columns) in table.items():
        road = {"data_path": "road.txt"} if scenario is Scenario.ROAD else {}
        cfg = ExperimentConfig.for_scenario(scenario, **road)
        assert cfg.variants() == variants, scenario
        assert cfg.m_grid == grid, scenario
        e = cfg.estimator
        assert (e.family, e.d) == est[:2], scenario
        assert e.constant_c == pytest.approx(est[2]), scenario
        resolved = cfg.resolved_target()
        assert (resolved and resolved.kind) == target, scenario
        assert (cfg.n, cfg.trials) == (n, trials), scenario
        assert cfg.columns() == columns, scenario
    # the default grid stops at n; an explicit one is checked at run time
    assert ExperimentConfig.for_scenario(Scenario.SIM2, n=2000).m_grid == tuple(
        2**p for p in range(3, 11)
    )


def test_sim2_target_resolution():
    cfg = ExperimentConfig.for_scenario(Scenario.SIM2, n=100)
    target = cfg.resolved_target()
    assert target.kind is TargetKind.G3
    assert target.noise_sd == pytest.approx(np.sqrt(0.2))


def test_inactive_count_nondecreasing_in_m_on_average():
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_NWK, n=600, t=50, trials=4, m_grid=(2, 8, 32, 100), base_seed=9
    )
    summary = summarize(run_experiment(config))
    means = [r["inactive_blocks_mean"] for r in summary.rows]
    assert all(b >= a - 0.5 for a, b in zip(means, means[1:]))
    assert means[-1] > means[0]


def test_d5_sweep_uses_radial_target():
    est = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=5)
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_NWK, n=200, t=40, trials=1, m_grid=(2,), base_seed=3,
        estimator=est,
    )
    assert config.resolved_target().kind is TargetKind.G2
    result = run_experiment(config)
    assert result.rows[0]["ge"] >= 0.0


def test_result_reports_actual_sizes(tmp_path):
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_NWK, n=120, t=30, trials=1, m_grid=(2,), base_seed=1
    )
    result = run_experiment(config)
    assert result.train_size == 120 and result.test_size == 30
    p = tmp_path / "r.csv"
    write_result_csv(result, p)
    assert any(
        line.startswith("# sizes: train=120 test=30")
        for line in p.read_text().splitlines()
    )
