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


@dataclass(frozen=True)
class _ScenarioSpec:
    """What a scenario fixes: its variants, defaults and data source.

    ``targets`` maps each input dimension the scenario has data for to its
    synthetic target; ``None`` marks the road file.
    """

    variants: tuple[Variant, ...]
    m_grid: tuple[int, ...]
    estimator: EstimatorConfig
    targets: Mapping[int, TargetKind | None]
    n: int = 10_000
    trials: int = 20


_A1 = (Variant.A1_PLAIN,)
_ALL = tuple(Variant)
_NAIVE = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=1)
_KNN = EstimatorConfig(EstimatorFamily.KNN, r=1.0, d=1)
_ROAD = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=2, constant_c=0.13)
_SIM1_GRID = tuple(range(5, 351, 5))
_SIM1 = {1: TargetKind.G1, 5: TargetKind.G2}

# every per-scenario default, and the data each scenario runs on
_SCENARIOS = {
    Scenario.SIM1_NWK: _ScenarioSpec(_A1, _SIM1_GRID, _NAIVE, _SIM1),
    Scenario.SIM1_KNN: _ScenarioSpec(_A1, _SIM1_GRID, _KNN, _SIM1),
    Scenario.SIM1_VARIANTS: _ScenarioSpec(_ALL, _SIM1_GRID, _NAIVE, _SIM1),
    Scenario.SIM2: _ScenarioSpec(
        _ALL, tuple(2**p for p in range(3, 12)), _NAIVE, {1: TargetKind.G3}
    ),
    Scenario.ROAD: _ScenarioSpec(
        _ALL, tuple(2**p for p in range(1, 11)), _ROAD, {2: None}, n=413_363, trials=1
    ),
}


def _positive_int(label: str, value: float) -> int:
    """``value`` as an int; raises unless it is a positive whole number."""
    if not 1 <= value < np.inf or value != int(value):
        raise ValueError(f"{label} must be positive and integral, got {value}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep; everything downstream derives from it."""

    scenario: Scenario
    estimator: EstimatorConfig
    m_grid: tuple[int, ...]
    n: int | None
    trials: int
    t: int = 1_000
    base_seed: int = 0
    data_path: str | None = None
    cv: CvConfig | None = None
    mesh_candidate_cap: int | None = None

    def __post_init__(self) -> None:
        road = self.scenario is Scenario.ROAD
        if self.n is None and not road:
            raise ValueError("n must be positive (None: every road row), got None")
        # None: every road row (n), no cap on the covering-radius candidates
        for name in ("trials", "t", "n", "mesh_candidate_cap"):
            value = getattr(self, name)
            if value is not None:
                label = "test size t" if name == "t" else name
                object.__setattr__(self, name, _positive_int(label, value))
        if any(not 1 <= m < np.inf or m != int(m) for m in self.m_grid):
            raise ValueError(f"every m must be a positive integer, got {self.m_grid}")
        grid = tuple(int(m) for m in self.m_grid)
        if not grid:
            raise ValueError("m_grid must be nonempty")
        if len(set(grid)) < len(grid):
            raise ValueError(f"m_grid repeats a value: {grid}")
        object.__setattr__(self, "m_grid", grid)
        dims = _SCENARIOS[self.scenario].targets
        if self.estimator.d not in dims:
            raise ValueError(
                f"{self.scenario.value} data have dimension "
                f"{' or '.join(map(str, dims))}, not d={self.estimator.d}"
            )
        if road and self.data_path is None:
            raise ValueError("ROAD scenario requires data_path")

    @classmethod
    def for_scenario(cls, scenario: Scenario, **overrides) -> "ExperimentConfig":
        """Config with the scenario's defaults from ``_SCENARIOS``.

        The default m grid is cut to the requested ``n``; an explicit
        ``m_grid`` is kept as given.
        """
        spec = _SCENARIOS[scenario]
        kwargs: dict = {
            "scenario": scenario,
            "estimator": spec.estimator,
            "m_grid": spec.m_grid,
            "n": spec.n,
            "trials": spec.trials,
            **overrides,
        }
        n = kwargs["n"]
        if "m_grid" not in overrides and n is not None:
            kwargs["m_grid"] = tuple(m for m in spec.m_grid if m <= n)
        return cls(**kwargs)

    def resolved_target(self) -> TargetModel | None:
        """The synthetic target for the estimator's dimension; None for road."""
        kind = _SCENARIOS[self.scenario].targets[self.estimator.d]
        return None if kind is None else TargetModel(kind)

    def variants(self) -> tuple[Variant, ...]:
        return _SCENARIOS[self.scenario].variants

    def columns(self) -> tuple[str, ...]:
        knn = self.estimator.family is EstimatorFamily.KNN
        ae = tuple(f"ae_{v.value}" for v in self.variants())
        return ("trial", "m", "ge", "le", *ae, "skipped" if knn else "inactive_blocks")


@dataclass(frozen=True)
class ExperimentResult:
    """Detail rows in (trial, m) order plus the resolved config.

    ``train_size``/``test_size`` record the sizes actually used, which can
    differ from the requested ``n`` when a road file has fewer rows.
    """

    config: ExperimentConfig
    rows: tuple[Mapping[str, float | int | None], ...]
    tuned_constant: float | None = None
    train_size: int | None = None
    test_size: int | None = None

    @property
    def columns(self) -> tuple[str, ...]:
        return self.config.columns()


def _mix_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(tag)]).generate_state(1)[0])


def _single_block_mse(
    part: PartitionedDataset, test: Dataset, estimator: EstimatorConfig
) -> float:
    """Test MSE of the estimator on a one-block partition, h/k by rule."""
    n = part.data.n
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
) -> dict[str, float | int | None]:
    """One sweep row: GE, LE, and the requested AE columns at block count ``m``.

    ``seed`` is the trial seed; the partition seed is derived from
    (seed, m) and the single-machine GE from (seed, 1), so GE is constant
    across ``m`` within a trial and coincides bitwise with AE-A1 at m=1.
    ``candidates`` sets the covering-radius candidates of kernel
    estimators; k-NN computes no covering radii and rejects them.
    """
    knn = estimator.family is EstimatorFamily.KNN
    if knn and candidates is not None:
        raise ValueError("candidates= is for kernel estimators only")
    part = random_partition(train, m, _mix_seed(seed, m))
    row: dict[str, float | int | None] = {"m": int(m)}
    if ge is None:
        ge = _single_machine_mse(train, test, estimator, _mix_seed(seed, 1))
    row["ge"] = ge

    first = PartitionedDataset.from_indices(train, [part.rows[: part.offsets[1]]])
    row["le"] = _single_block_mse(first, test, estimator)

    h_or_k = _rule_h_or_k(estimator, train.n, m, part.min_block_size)
    variants = tuple(variants)
    params = [h_or_k]
    if not knn:
        cand = candidates if candidates is not None else default_candidates(train)
        radii = mesh_norm_report(part, cand)
        row["inactive_blocks"] = int(np.count_nonzero(radii > h_or_k))
        if Variant.A2_DATA_DEPENDENT in variants:
            params.append(data_dependent_bandwidth(radii, estimator.r, estimator.d))
    estimates, active, _ = block_estimates(part, estimator.family, params, test.x)
    for variant in variants:
        # A2 reads the last row: tilde_h for NWK, k itself for k-NN
        p = -1 if variant is Variant.A2_DATA_DEPENDENT else 0
        values = combine(variant, estimates[p], active[p])
        row[f"ae_{variant.value}"] = mse(values, test.y)
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
    target = config.resolved_target()
    if target is None:
        return _road_split(road, config.n, config.t, trial_seed)
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
    tuned: float | None = None
    train_size = test_size = None
    rows: list[dict[str, float | int | None]] = []
    for trial in range(config.trials):
        train, test = _trial_data(config, road, trial)
        train_size, test_size = train.n, test.n
        if max(config.m_grid) > train.n:
            raise ValueError(
                f"m_grid maximum {max(config.m_grid)} exceeds training size {train.n}"
            )
        if config.cv is not None and tuned is None:
            tuned = cv_select_constant(train, estimator, config.cv)
            estimator = dataclasses.replace(estimator, constant_c=tuned)
        trial_seed = config.base_seed + trial
        candidates = None if knn else _mesh_candidates(config, train)
        ge = _single_machine_mse(train, test, estimator, _mix_seed(trial_seed, 1))
        for m in config.m_grid:
            if knn and m > knn_admissible_m(train.n, estimator.r, estimator.d):
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
            )
            row["trial"] = trial
            if knn:
                row["skipped"] = 0
            rows.append(row)
    return ExperimentResult(config, tuple(rows), tuned, train_size, test_size)


@dataclass(frozen=True)
class SummaryTable:
    """Per-``m`` mean and population standard deviation over trials."""

    columns: tuple[str, ...]
    rows: tuple[Mapping[str, float | int | None], ...]


def summarize(result: ExperimentResult) -> SummaryTable:
    """Aggregate detail rows per ``m``: mean and population sd over trials."""
    if not result.rows:
        raise ValueError("cannot summarize an empty result")
    error_cols = [c for c in result.columns if c not in ("trial", "m", "skipped")]
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
    return SummaryTable(tuple(out_cols), tuple(summary_rows))


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
    path: str | Path,
    config: ExperimentConfig,
    columns: tuple[str, ...],
    rows: Iterable[Mapping[str, float | int | None]],
    notes: list[str],
) -> None:
    """CSV with a ``# config:`` line, the notes and a ``# generated_at:`` line."""
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    header = [f"config: {_config_json(config)}", *notes, f"generated_at: {now}"]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row.get(c)) for c in columns) + "\n")


def write_result_csv(result: ExperimentResult, path: str | Path) -> None:
    """Write detail rows as CSV with a reproducibility header."""
    notes = []
    if result.train_size is not None:
        notes.append(f"sizes: train={result.train_size} test={result.test_size}")
    if result.tuned_constant is not None:
        notes.append(f"tuned_constant: {result.tuned_constant!r}")
    _write_table(path, result.config, result.columns, result.rows, notes)


def write_summary_csv(result: ExperimentResult, path: str | Path) -> None:
    """Write the per-``m`` summary as CSV."""
    summary = summarize(result)
    notes = ["sd: population (divided by trial count)"]
    _write_table(path, result.config, summary.columns, summary.rows, notes)


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
