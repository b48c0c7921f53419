"""Experiment harness: error sweeps over the block count ``m``.

Three error criteria are tracked per trial: the global error GE (test MSE
of the single-machine estimator on all N samples), the local error LE
(test MSE using only block 1), and the average errors AE of the
block-averaged variants. Sweeps write CSV detail rows plus per-``m``
trial summaries; everything is deterministic given the config.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .avm import (
    AvmModel,
    Variant,
    _rule_h_or_k,
    block_estimates,
    combine,
    data_dependent_bandwidth,
    predict_batch,
)
from .core import Dataset, EstimatorConfig, EstimatorFamily, mse
from .datagen import TargetKind, TargetModel, generate_dataset, generate_test_set, load_road_network
from .partition import (
    PartitionedDataset,
    default_candidates,
    mesh_norm_report,
    random_partition,
)
from .tuning import CvConfig, cv_select_constant

_TEST_SET_TAG = 0x7E57
_CANDIDATE_TAG = 0xCA9D


class Scenario(Enum):
    SIM1_NWK = "sim1-nwk"
    SIM1_KNN = "sim1-knn"
    SIM1_VARIANTS = "sim1-variants"
    SIM2 = "sim2"
    ROAD = "road"


_SCENARIO_VARIANTS: dict[Scenario, tuple[Variant, ...]] = {
    Scenario.SIM1_NWK: (Variant.A1_PLAIN,),
    Scenario.SIM1_KNN: (Variant.A1_PLAIN,),
    Scenario.SIM1_VARIANTS: (
        Variant.A1_PLAIN,
        Variant.A2_DATA_DEPENDENT,
        Variant.A3_QUALIFIED,
    ),
    Scenario.SIM2: (
        Variant.A1_PLAIN,
        Variant.A2_DATA_DEPENDENT,
        Variant.A3_QUALIFIED,
    ),
    Scenario.ROAD: (
        Variant.A1_PLAIN,
        Variant.A2_DATA_DEPENDENT,
        Variant.A3_QUALIFIED,
    ),
}

_VARIANT_COLUMN = {
    Variant.A1_PLAIN: "ae_a1",
    Variant.A2_DATA_DEPENDENT: "ae_a2",
    Variant.A3_QUALIFIED: "ae_a3",
}

# fixed output ordering: m, GE, LE, AE-A1, AE-A2, AE-A3, inactive
_ERROR_COLUMNS = ("ge", "le", "ae_a1", "ae_a2", "ae_a3", "inactive_blocks")


def default_m_grid(scenario: Scenario) -> tuple[int, ...]:
    if scenario in (Scenario.SIM1_NWK, Scenario.SIM1_KNN, Scenario.SIM1_VARIANTS):
        return tuple(range(5, 351, 5))
    if scenario is Scenario.SIM2:
        return tuple(2**p for p in range(3, 12))
    return tuple(2**p for p in range(1, 11))


def default_estimator(scenario: Scenario) -> EstimatorConfig:
    if scenario is Scenario.SIM1_KNN:
        return EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1)
    if scenario is Scenario.ROAD:
        return EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=2, constant_c=0.13)
    return EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep; everything downstream derives from it."""

    scenario: Scenario
    estimator: EstimatorConfig
    m_grid: tuple[int, ...]
    n: int | None = 10_000
    t: int = 1_000
    trials: int = 20
    base_seed: int = 0
    target: TargetModel | None = None
    data_path: str | None = None
    cv: CvConfig | None = None
    mesh_candidate_cap: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        grid = tuple(int(m) for m in self.m_grid)
        if not grid:
            raise ValueError("m_grid must be nonempty")
        if any(m < 1 for m in grid):
            raise ValueError("every m must be positive")
        object.__setattr__(self, "m_grid", grid)
        if self.scenario is Scenario.ROAD:
            if self.data_path is None:
                raise ValueError("ROAD scenario requires data_path")
        elif self.n is None or self.n < 1:
            raise ValueError("synthetic scenarios require a positive n")

    @classmethod
    def for_scenario(cls, scenario: Scenario, **overrides) -> "ExperimentConfig":
        """Config with the standard defaults for the scenario."""
        kwargs: dict = {
            "scenario": scenario,
            "estimator": default_estimator(scenario),
            "m_grid": default_m_grid(scenario),
        }
        if scenario is Scenario.ROAD:
            kwargs["n"] = 413_363
            kwargs["trials"] = 1
        kwargs.update(overrides)
        return cls(**kwargs)

    def resolved_target(self) -> TargetModel | None:
        if self.scenario is Scenario.ROAD:
            return None
        if self.target is not None:
            return self.target
        if self.scenario is Scenario.SIM2:
            return TargetModel(TargetKind.G3)
        if self.estimator.d == 5:
            return TargetModel(TargetKind.G2)
        return TargetModel(TargetKind.G1)

    def variants(self) -> tuple[Variant, ...]:
        return _SCENARIO_VARIANTS[self.scenario]

    def columns(self) -> tuple[str, ...]:
        cols = ["trial", "m", "ge", "le"]
        for v in self.variants():
            cols.append(_VARIANT_COLUMN[v])
        if self.estimator.family is EstimatorFamily.KNN:
            cols.append("skipped")
        else:
            cols.append("inactive_blocks")
        return tuple(cols)


@dataclass(frozen=True)
class ExperimentResult:
    """Detail rows in (trial, m) order plus the resolved config.

    ``train_size``/``test_size`` record the sizes actually used, which can
    differ from the requested ``n`` when a road file has fewer rows.
    """

    config: ExperimentConfig
    columns: tuple[str, ...]
    rows: tuple[Mapping[str, float | int | None], ...]
    tuned_constant: float | None = None
    train_size: int | None = None
    test_size: int | None = None


def _mix_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(tag)]).generate_state(1)[0])


def _one_block_partition(part: PartitionedDataset, j: int) -> PartitionedDataset:
    return PartitionedDataset(
        (part.blocks[j],), (part.indices[j],), part.seed, part.parent_size
    )


def _single_block_mse(
    part: PartitionedDataset, test: Dataset, estimator: EstimatorConfig
) -> float:
    """Test MSE of the estimator on a one-block partition, h/k by rule."""
    n = part.blocks[0].n
    h_or_k = _rule_h_or_k(estimator, n, 1, n)
    model = AvmModel(part, estimator, Variant.A1_PLAIN, h_or_k)
    return mse(predict_batch(model, test.x).values, test.y)


def _single_machine_mse(
    train: Dataset, test: Dataset, estimator: EstimatorConfig, seed: int
) -> float:
    return _single_block_mse(random_partition(train, 1, seed), test, estimator)


def knn_admissible_m(N: int, r: float, d: int) -> float:
    """Largest block count keeping the k rule at or above one neighbor."""
    return float(N) ** (2.0 * r / (2.0 * r + d))


def compute_ge_le_ae(
    train: Dataset,
    test: Dataset,
    estimator: EstimatorConfig,
    m: int,
    seed: int,
    variants: Iterable[Variant] = (Variant.A1_PLAIN,),
    *,
    candidates: np.ndarray | None = None,
    ge: float | None = None,
    include_inactive: bool = True,
) -> dict[str, float | int | None]:
    """One sweep row: GE, LE, and the requested AE columns at block count ``m``.

    ``seed`` is the trial seed; the partition seed is derived from
    (seed, m) and the single-machine GE from (seed, 1), so GE is constant
    across ``m`` within a trial and coincides bitwise with AE-A1 at m=1.
    """
    if m > train.n:
        raise ValueError(f"m={m} exceeds training size {train.n}")
    variants = tuple(variants)
    row: dict[str, float | int | None] = {"m": int(m)}
    if ge is None:
        ge = _single_machine_mse(train, test, estimator, _mix_seed(seed, 1))
    row["ge"] = ge

    part = random_partition(train, m, _mix_seed(seed, m))
    row["le"] = _single_block_mse(_one_block_partition(part, 0), test, estimator)

    h_or_k = _rule_h_or_k(estimator, train.n, m, part.min_block_size)
    mesh = None
    if estimator.family is not EstimatorFamily.KNN and (
        include_inactive or Variant.A2_DATA_DEPENDENT in variants
    ):
        cand = candidates if candidates is not None else default_candidates(train)
        mesh = mesh_norm_report(part, cand)
        if include_inactive:
            row["inactive_blocks"] = int(sum(v > h_or_k for v in mesh.per_block))
    # A1 and A3 share the block matrix at h; A2 needs its own at tilde_h
    block_matrices = {}
    for variant in variants:
        bandwidth = h_or_k
        if variant is Variant.A2_DATA_DEPENDENT and mesh is not None:
            bandwidth = data_dependent_bandwidth(mesh, m, estimator.r, estimator.d)
        if bandwidth not in block_matrices:
            block_matrices[bandwidth] = block_estimates(
                part, estimator.family, bandwidth, test.x
            )
        estimates, active, _ = block_matrices[bandwidth]
        row[_VARIANT_COLUMN[variant]] = mse(combine(variant, estimates, active), test.y)
    return row


def _road_split(
    all_data: Dataset, n: int | None, t: int, seed: int
) -> tuple[Dataset, Dataset]:
    if all_data.n <= t:
        raise ValueError(f"road data has {all_data.n} rows, need more than t={t}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(all_data.n)
    test = all_data.subset(perm[:t])
    avail = all_data.n - t
    n_train = avail if n is None else min(n, avail)
    train = all_data.subset(perm[t : t + n_train])
    return train, test


def _trial_data(
    config: ExperimentConfig, road: Dataset | None, trial: int
) -> tuple[Dataset, Dataset]:
    trial_seed = config.base_seed + trial
    if config.scenario is Scenario.ROAD:
        assert road is not None
        return _road_split(road, config.n, config.t, trial_seed)
    target = config.resolved_target()
    assert target is not None
    train = generate_dataset(target, config.n, trial_seed)
    test = generate_test_set(target, config.t, _mix_seed(trial_seed, _TEST_SET_TAG))
    return train, test


def _mesh_candidates(config: ExperimentConfig, train: Dataset) -> np.ndarray:
    cand = default_candidates(train)
    cap = config.mesh_candidate_cap
    if cap is not None and cand.shape[0] > cap:
        rng = np.random.default_rng(_mix_seed(config.base_seed, _CANDIDATE_TAG))
        cand = cand[rng.choice(cand.shape[0], size=cap, replace=False)]
    return cand


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every (trial, m) cell of the sweep and collect detail rows.

    Data are regenerated (or re-split, for road data) per trial with seed
    ``base_seed + trial``. When a CV config is present the rule constant is
    tuned once on the first trial's training data and reused everywhere.
    """
    road = None
    if config.scenario is Scenario.ROAD:
        road = load_road_network(config.data_path).dataset
    estimator = config.estimator
    knn = estimator.family is EstimatorFamily.KNN
    admissible = None
    if knn:
        if road is not None:
            avail = road.n - config.t
            n_train = avail if config.n is None else min(config.n, avail)
        else:
            n_train = config.n
        admissible = knn_admissible_m(n_train, estimator.r, estimator.d)

    tuned: float | None = None
    train_size = test_size = None
    rows: list[dict[str, float | int | None]] = []
    for trial in range(config.trials):
        train, test = _trial_data(config, road, trial)
        train_size, test_size = train.n, test.n
        if config.cv is not None and tuned is None:
            tuned = cv_select_constant(train, estimator, config.cv)
            estimator = dataclasses.replace(estimator, constant_c=tuned)
        if max(config.m_grid) > train.n:
            raise ValueError(
                f"m_grid maximum {max(config.m_grid)} exceeds training size {train.n}"
            )
        trial_seed = config.base_seed + trial
        candidates = None if knn else _mesh_candidates(config, train)
        ge = _single_machine_mse(train, test, estimator, _mix_seed(trial_seed, 1))
        for m in config.m_grid:
            if knn and m > admissible:
                row: dict[str, float | int | None] = {
                    "trial": trial,
                    "m": m,
                    "skipped": 1,
                }
                rows.append(row)
                continue
            row = compute_ge_le_ae(
                train,
                test,
                estimator,
                m,
                trial_seed,
                config.variants(),
                candidates=candidates,
                ge=ge,
                include_inactive=not knn,
            )
            row["trial"] = trial
            if knn:
                row["skipped"] = 0
            rows.append(row)
    return ExperimentResult(
        config, config.columns(), tuple(rows), tuned, train_size, test_size
    )


@dataclass(frozen=True)
class SummaryTable:
    """Per-``m`` mean and population standard deviation over trials."""

    columns: tuple[str, ...]
    rows: tuple[Mapping[str, float | int | None], ...]
    trials: int


def summarize(result: ExperimentResult) -> SummaryTable:
    """Aggregate detail rows per ``m``: mean and population sd over trials."""
    if not result.rows:
        raise ValueError("cannot summarize an empty result")
    error_cols = [c for c in result.columns if c in _ERROR_COLUMNS]
    out_cols: list[str] = ["m"]
    for c in error_cols:
        out_cols += [f"{c}_mean", f"{c}_sd"]
    if "skipped" in result.columns:
        out_cols.append("skipped")
    summary_rows = []
    for m in result.config.m_grid:
        cells = [r for r in result.rows if r["m"] == m]
        row: dict[str, float | int | None] = {"m": m}
        skipped = [r for r in cells if r.get("skipped") == 1]
        if "skipped" in result.columns:
            row["skipped"] = 1 if skipped else 0
        if len(skipped) == len(cells):
            for c in error_cols:
                row[f"{c}_mean"] = None
                row[f"{c}_sd"] = None
        else:
            live = [r for r in cells if r.get("skipped") != 1]
            for c in error_cols:
                vals = np.array([r[c] for r in live], dtype=np.float64)
                row[f"{c}_mean"] = float(vals.mean())
                # population sd: divide by the trial count
                row[f"{c}_sd"] = float(np.sqrt(np.mean((vals - vals.mean()) ** 2)))
        summary_rows.append(row)
    return SummaryTable(tuple(out_cols), tuple(summary_rows), result.config.trials)


def _config_json(config: ExperimentConfig) -> str:
    def encode(obj):
        if isinstance(obj, Enum):
            return obj.value
        if dataclasses.is_dataclass(obj):
            return {f.name: encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, (list, tuple)):
            return list(obj)
        return obj

    return json.dumps(encode(config), sort_keys=True)


def _format_cell(v: float | int | None) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_table(
    path: Path,
    columns: tuple[str, ...],
    rows: Iterable[Mapping[str, float | int | None]],
    header_lines: list[str],
) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row.get(c)) for c in columns) + "\n")


def write_result_csv(
    result: ExperimentResult, path: str | Path, timestamp: bool = True
) -> None:
    """Write detail rows as CSV with a reproducibility header."""
    header = [f"config: {_config_json(result.config)}"]
    if result.train_size is not None:
        header.append(f"sizes: train={result.train_size} test={result.test_size}")
    if result.tuned_constant is not None:
        header.append(f"tuned_constant: {result.tuned_constant!r}")
    if timestamp:
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        header.append(f"generated_at: {now}")
    _write_table(Path(path), result.columns, result.rows, header)


def write_summary_csv(
    result: ExperimentResult, path: str | Path, timestamp: bool = True
) -> None:
    """Write the per-``m`` summary as CSV."""
    summary = summarize(result)
    header = [
        f"config: {_config_json(result.config)}",
        "sd: population (divided by trial count)",
    ]
    if timestamp:
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
        header.append(f"generated_at: {now}")
    _write_table(Path(path), summary.columns, summary.rows, header)


def format_summary_text(result: ExperimentResult) -> str:
    """Plain-text table of the per-``m`` summary."""
    summary = summarize(result)
    widths = {c: max(len(c), 12) for c in summary.columns}
    lines = ["  ".join(c.rjust(widths[c]) for c in summary.columns)]
    for row in summary.rows:
        cells = []
        for c in summary.columns:
            v = row.get(c)
            if v is None:
                cells.append("-".rjust(widths[c]))
            elif isinstance(v, (int, np.integer)):
                cells.append(str(v).rjust(widths[c]))
            else:
                cells.append(f"{v:.6g}".rjust(widths[c]))
        lines.append("  ".join(cells))
    return "\n".join(lines)
