import numpy as np
import pytest

import oracles
from avmlar import (
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
from avmlar.experiments import format_summary_text

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
    mesh = mesh_norm_report(part, default_candidates(train))
    tilde = data_dependent_bandwidth(mesh, m, NWK.r, NWK.d)
    for col, fn, bw in (
        ("ae_a1", oracles.avm_a1_nwk, h),
        ("ae_a2", oracles.avm_a2_nwk, tilde),
        ("ae_a3", oracles.avm_a3_nwk, h),
    ):
        preds = [fn(blocks, "naive", bw, q) for q in test.x]
        expected = float(np.mean((np.array(preds) - test.y) ** 2))
        assert row[col] == pytest.approx(expected, abs=1e-12)
    assert row["inactive_blocks"] == sum(v > h for v in mesh.per_block)


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


def test_knn_inadmissible_m_marked_skipped():
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


def test_result_csv_deterministic_modulo_timestamp(tmp_path):
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_VARIANTS, n=150, t=40, trials=2, m_grid=(1, 3), base_seed=6
    )
    paths = []
    for i in range(2):
        p = tmp_path / f"run{i}.csv"
        write_result_csv(run_experiment(config), p)
        paths.append(p)

    def stripped(p):
        return [
            line
            for line in p.read_bytes().split(b"\n")
            if not line.startswith(b"# generated_at")
        ]

    assert stripped(paths[0]) == stripped(paths[1])
    header = paths[0].read_text().splitlines()
    assert header[0].startswith("# config:")
    assert any(line.startswith("# generated_at:") for line in header[:3])


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


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig.for_scenario(Scenario.SIM1_NWK, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig.for_scenario(Scenario.SIM1_NWK, m_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig.for_scenario(Scenario.ROAD)  # missing data_path
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_NWK, n=50, t=10, trials=1, m_grid=(60,)
    )
    with pytest.raises(ValueError):
        run_experiment(config)  # m exceeds training size


def test_default_grids():
    assert ExperimentConfig.for_scenario(Scenario.SIM1_NWK, n=10_000).m_grid == tuple(
        range(5, 351, 5)
    )
    assert ExperimentConfig.for_scenario(Scenario.SIM2, n=10_000).m_grid == tuple(
        2**p for p in range(3, 12)
    )
    cfg = ExperimentConfig.for_scenario(Scenario.ROAD, data_path="x")
    assert cfg.m_grid == tuple(2**p for p in range(1, 11))
    assert cfg.estimator.constant_c == pytest.approx(0.13)
    assert cfg.estimator.d == 2


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
