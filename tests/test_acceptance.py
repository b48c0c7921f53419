"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The road-network
criterion needs a local copy of the elevation file and is skipped unless
``AVMLAR_ROAD_DATA`` points at it.
"""

import os
import time

import numpy as np
import pytest

import oracles
from avmlar import (
    AvmModel,
    Dataset,
    EstimatorConfig,
    EstimatorFamily,
    ExperimentConfig,
    KernelKind,
    PartitionedDataset,
    Scenario,
    TargetKind,
    TargetModel,
    Variant,
    compute_ge_le_ae,
    fit_avm,
    generate_dataset,
    generate_test_set,
    nwk_weights,
    predict_batch,
    run_experiment,
    summarize,
    write_result_csv,
)
from avmlar.experiments import _mix_seed, _single_machine_mse

# sweep constants are pinned (no CV here): the CV objective is nearly flat
# over [0.3, 1.2] so these are statistically equivalent single-machine
# choices, picked where the sweep phenomena are unambiguous
NWK_SWEEP = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=1, constant_c=1 / 3)
KNN_SWEEP = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1, constant_c=0.5)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def sim1_variants_sweep():
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_VARIANTS, trials=5, estimator=NWK_SWEEP, base_seed=100
    )
    result = run_experiment(config)
    return result, summarize(result)


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(42)
    start = time.time()
    checked = 0
    worst = 0.0
    for _ in range(200):
        d = int(rng.choice([1, 2, 5]))
        n = int(rng.integers(10, 51))
        m = int(rng.integers(1, 6))
        family = rng.choice(["naive", "gaussian", "knn"])
        x = rng.random((n, d))
        y = rng.normal(size=n)
        ds = Dataset(x, y, np.tile([0.0, 1.0], (d, 1)))
        seed = int(rng.integers(0, 2**31))
        queries = rng.random((2, d))
        candidates = np.vstack([rng.random((20, d)), np.zeros((1, d)), np.ones((1, d))])
        if family == "knn":
            cfg = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=d)
            k = int(rng.integers(1, n // m + 1))
            models = {v: fit_avm(ds, cfg, m, seed, v, k=k) for v in Variant}
            blocks = [
                ([tuple(r) for r in b.x], list(b.y))
                for b in models[Variant.A1_PLAIN].partition.blocks
            ]
            for q in queries:
                expected = oracles.avm_knn(blocks, k, q)
                for v in Variant:
                    got = predict_batch(models[v], [q]).values[0]
                    worst = max(worst, abs(got - expected))
                    checked += 1
        else:
            fam = (
                EstimatorFamily.NWK_NAIVE
                if family == "naive"
                else EstimatorFamily.NWK_GAUSSIAN
            )
            cfg = EstimatorConfig(fam, r=1.0, d=d)
            h = float(rng.uniform(0.1, 0.8))
            a1 = fit_avm(ds, cfg, m, seed, Variant.A1_PLAIN, h=h)
            a2 = fit_avm(
                ds, cfg, m, seed, Variant.A2_DATA_DEPENDENT, h=h, candidates=candidates
            )
            a3 = fit_avm(ds, cfg, m, seed, Variant.A3_QUALIFIED, h=h)
            blocks = [
                ([tuple(r) for r in b.x], list(b.y)) for b in a1.partition.blocks
            ]
            mesh = [
                oracles.mesh_norm(xs, [tuple(r) for r in candidates])
                for xs, _ in blocks
            ]
            tilde = oracles.tilde_bandwidth(mesh, m, 1.0, d)
            for q in queries:
                diff1 = abs(
                    predict_batch(a1, [q]).values[0]
                    - oracles.avm_a1_nwk(blocks, family, h, q)
                )
                diff2 = abs(
                    predict_batch(a2, [q]).values[0]
                    - oracles.avm_a2_nwk(blocks, family, tilde, q)
                )
                diff3 = abs(
                    predict_batch(a3, [q]).values[0]
                    - oracles.avm_a3_nwk(blocks, family, h, q)
                )
                worst = max(worst, diff1, diff2, diff3)
                checked += 3
    elapsed = time.time() - start
    report(
        1,
        "oracle equivalence",
        worst <= 1e-10 and elapsed < 10.0,
        f"max |diff| = {worst:.2e} over {checked} predictions in {elapsed:.1f}s",
    )


def test_criterion_2_collapse_identities():
    tm = TargetModel(TargetKind.G1)
    train = generate_dataset(tm, 500, 7)
    test = generate_test_set(tm, 200, 8)
    row = compute_ge_le_ae(
        train, test, NWK_SWEEP, 1, seed=3,
        variants=(Variant.A1_PLAIN,),
    )
    ge_gap = abs(row["ae_a1"] - row["ge"])
    le_gap = abs(row["le"] - row["ge"])

    ds = generate_dataset(tm, 400, 9)
    m1 = fit_avm(ds, NWK_SWEEP, 4, 11, Variant.A1_PLAIN, h=0.5)
    m3 = fit_avm(ds, NWK_SWEEP, 4, 11, Variant.A3_QUALIFIED, h=0.5)
    grid = np.linspace(0.0, 1.0, 100)[:, None]
    b1, b3 = predict_batch(m1, grid), predict_batch(m3, grid)
    all_active = bool(np.all(b1.active_blocks == 4))
    a3_gap = float(np.abs(b1.values - b3.values).max())

    rng = np.random.default_rng(10)
    blk = Dataset(rng.random((30, 1)), rng.normal(size=30))
    one_block = PartitionedDataset.from_indices(blk, [np.arange(blk.n)])
    knn = AvmModel(one_block, KNN_SWEEP, Variant.A1_PLAIN, 30)
    knn_gap = abs(predict_batch(knn, [[0.5]]).values[0] - blk.y.mean())

    ok = ge_gap <= 1e-12 and le_gap <= 1e-12 and all_active and a3_gap <= 1e-12 and knn_gap <= 1e-12
    report(
        2,
        "collapse identities",
        ok,
        f"|AE_A1-GE|={ge_gap:.1e} |LE-GE|={le_gap:.1e} |A3-A1|max={a3_gap:.1e} "
        f"|knn(k=n)-mean|={knn_gap:.1e}",
    )


def test_criterion_3_weight_properties():
    rng = np.random.default_rng(12)
    bad_sum = 0
    bad_degenerate = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 40))
        blk = Dataset(rng.random((n, d)), rng.normal(size=n))
        kind = KernelKind.NAIVE if rng.random() < 0.5 else KernelKind.GAUSSIAN
        h = float(rng.uniform(0.01, 0.5))
        wv = nwk_weights(blk, kind, h, rng.uniform(-0.5, 1.5, size=d))
        if np.any(wv.weights < 0):
            bad_sum += 1
        elif wv.degenerate:
            if np.any(wv.weights != 0.0):
                bad_degenerate += 1
        elif abs(wv.weights.sum() - 1.0) > 1e-9:
            bad_sum += 1
    report(
        3,
        "weight properties",
        bad_sum == 0 and bad_degenerate == 0,
        f"violations: sum/nonneg={bad_sum}, degenerate-nonzero={bad_degenerate}",
    )


def test_criterion_4_minimax_rate():
    start = time.time()
    tm = TargetModel(TargetKind.G1)
    sizes = [500, 1000, 2000, 4000, 8000]
    mean_mse = []
    for N in sizes:
        vals = []
        for trial in range(10):
            seed = 1000 + trial
            train = generate_dataset(tm, N, seed)
            test = generate_test_set(tm, 1000, _mix_seed(seed, 0x7E57))
            vals.append(_single_machine_mse(train, test, NWK_SWEEP, _mix_seed(seed, 1)))
        mean_mse.append(float(np.mean(vals)))
    slope = float(np.polyfit(np.log(sizes), np.log(mean_mse), 1)[0])
    elapsed = time.time() - start
    ok = abs(slope - (-2.0 / 3.0)) <= 0.2 and elapsed < 120.0
    report(4, "minimax rate", ok, f"slope={slope:.3f} (target -0.667 +- 0.2) in {elapsed:.0f}s")


def test_criterion_5_degradation(sim1_variants_sweep):
    _, summary = sim1_variants_sweep
    rows = {r["m"]: r for r in summary.rows}
    ratio = rows[350]["ae_a1_mean"] / rows[5]["ae_a1_mean"]
    inact5 = rows[5]["inactive_blocks_mean"]
    inact350 = rows[350]["inactive_blocks_mean"]
    ok = ratio >= 3.0 and inact5 == 0.0 and inact350 >= 1.0
    report(
        5,
        "degradation phenomenon",
        ok,
        f"AE_A1(350)/AE_A1(5)={ratio:.1f} inactive@5={inact5} inactive@350={inact350}",
    )


def test_criterion_6_variant_robustness(sim1_variants_sweep):
    _, summary = sim1_variants_sweep
    rows = {r["m"]: r for r in summary.rows}
    m_star = max(m for m, r in rows.items() if r["inactive_blocks_mean"] > 0)
    a1 = rows[m_star]["ae_a1_mean"]
    a2 = rows[m_star]["ae_a2_mean"]
    a3 = rows[m_star]["ae_a3_mean"]
    ok = a3 <= a1 and a2 <= a1
    report(
        6,
        "variant robustness",
        ok,
        f"at m*={m_star}: AE_A1={a1:.5f} AE_A2={a2:.5f} AE_A3={a3:.5f}",
    )


def test_criterion_7_sim2_stability():
    start = time.time()
    config = ExperimentConfig.for_scenario(Scenario.SIM2, trials=5, base_seed=100)
    summary = summarize(run_experiment(config))
    rows = {r["m"]: r for r in summary.rows}
    a3_ratio = rows[2048]["ae_a3_mean"] / rows[8]["ae_a3_mean"]
    a1_ratio = rows[2048]["ae_a1_mean"] / rows[8]["ae_a1_mean"]
    elapsed = time.time() - start
    ok = a3_ratio <= 2.0 and a1_ratio >= 2.0 and elapsed < 600.0
    report(
        7,
        "sim2 stability",
        ok,
        f"AE_A3 ratio={a3_ratio:.2f} (<=2) AE_A1 ratio={a1_ratio:.1f} (>=2) in {elapsed:.0f}s",
    )


def test_criterion_8_knn_sweep_sanity():
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_KNN, trials=5, estimator=KNN_SWEEP, base_seed=100
    )
    summary = summarize(run_experiment(config))
    live = [r for r in summary.rows if r.get("skipped") != 1]
    assert live, "no admissible m in the grid"
    worst = max(r["ae_a1_mean"] / r["ge_mean"] for r in live)
    report(
        8,
        "knn sweep sanity",
        worst <= 2.0,
        f"max AE/GE over {len(live)} admissible m values = {worst:.2f}",
    )


def test_criterion_9_determinism(tmp_path):
    config = ExperimentConfig.for_scenario(
        Scenario.SIM1_VARIANTS,
        n=2000,
        t=200,
        trials=2,
        m_grid=(1, 4, 16),
        base_seed=17,
    )
    files = []
    for i in range(2):
        path = tmp_path / f"run{i}.csv"
        write_result_csv(run_experiment(config), path)
        files.append(path)

    def stripped(p):
        return [
            ln for ln in p.read_bytes().split(b"\n")
            if not ln.startswith(b"# generated_at")
        ]

    identical = stripped(files[0]) == stripped(files[1])
    report(9, "determinism", identical, "byte-identical modulo timestamp header")


@pytest.mark.skipif(
    "AVMLAR_ROAD_DATA" not in os.environ,
    reason="road-network file not provided (set AVMLAR_ROAD_DATA)",
)
def test_criterion_10_road_pipeline():
    from avmlar import load_road_network

    path = os.environ["AVMLAR_ROAD_DATA"]
    road = load_road_network(path)
    total = road.dataset.n + road.skipped_rows
    parse_rate = road.dataset.n / total
    config = ExperimentConfig.for_scenario(
        Scenario.ROAD,
        data_path=path,
        trials=1,
        base_seed=1,
        mesh_candidate_cap=20_000,
    )
    summary = summarize(run_experiment(config))
    worst = max(r["ae_a3_mean"] / r["ge_mean"] for r in summary.rows)
    ok = parse_rate >= 0.999 and worst <= 2.0
    report(
        10,
        "road pipeline",
        ok,
        f"parse rate={parse_rate:.4f} max AE_A3/GE={worst:.2f} over {len(summary.rows)} m values",
    )
