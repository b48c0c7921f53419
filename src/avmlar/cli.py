"""Command-line interface: data generation, prediction, tuning, sweeps."""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .avm import Variant, fit_avm, predict_batch
from .core import EstimatorConfig, EstimatorFamily, read_csv, write_csv
from .datagen import TargetKind, TargetModel, generate_dataset, generate_test_set
from .experiments import (
    ExperimentConfig,
    Scenario,
    format_summary_text,
    run_experiment,
    write_result_csv,
    write_summary_csv,
)
from .tuning import CvConfig, cv_select_constant, default_constant_grid

_KERNEL_FAMILY = {
    "naive": EstimatorFamily.NWK_NAIVE,
    "gaussian": EstimatorFamily.NWK_GAUSSIAN,
    "knn": EstimatorFamily.KNN,
}

_VARIANTS = {
    "a1": Variant.A1_PLAIN,
    "a2": Variant.A2_DATA_DEPENDENT,
    "a3": Variant.A3_QUALIFIED,
}


def _parse_m_grid(text: str) -> tuple[int, ...]:
    """Parse ``lo:hi:step`` (inclusive) or a comma-separated list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("m-grid range must be lo:hi:step")
        lo, hi, step = (int(p) for p in parts)
        if step < 1 or hi < lo:
            raise argparse.ArgumentTypeError(f"bad m-grid range {text!r}")
        return tuple(range(lo, hi + 1, step))
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad m-grid {text!r}") from exc


def _read_query_points(path: Path, d: int) -> np.ndarray:
    """Read query points from a CSV with header ``x1..xd`` (a final ``y``
    column, if present, is ignored)."""
    with path.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = len(header) - 1 if header and header[-1].strip() == "y" else len(header)
        if cols != d:
            raise ValueError(f"{path}: expected {d} coordinate columns, found {cols}")
        rows = [[float(v) for v in row[:cols]] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no query rows")
    return np.asarray(rows, dtype=np.float64)


def _cmd_gen(args: argparse.Namespace) -> int:
    model = TargetModel(TargetKind(args.target), args.noise_sd)
    if args.test:
        ds = generate_test_set(model, args.n, args.seed)
    else:
        ds = generate_dataset(model, args.n, args.seed)
    write_csv(ds, args.out)
    print(f"wrote {ds.n} samples (d={ds.d}) to {args.out}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    train = read_csv(args.train)
    family = _KERNEL_FAMILY[args.kernel]
    config = EstimatorConfig(family, r=args.r, d=train.d, constant_c=args.c)
    variant = _VARIANTS[args.variant]
    candidates = None
    if args.mesh_grid is not None and train.d == 1:
        lo, hi = train.domain_bounds[0]
        candidates = np.linspace(lo, hi, args.mesh_grid)[:, None]
    model = fit_avm(
        train,
        config,
        args.blocks,
        args.seed,
        variant,
        h=args.h,
        k=args.k,
        candidates=candidates,
    )
    queries = _read_query_points(Path(args.query), train.d)
    batch = predict_batch(model, queries)
    with Path(args.out).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{i + 1}" for i in range(train.d)]
            + ["prediction", "active_blocks", "degenerate_blocks"]
        )
        for q, v, a, g in zip(
            queries, batch.values, batch.active_blocks, batch.degenerate_blocks
        ):
            writer.writerow([repr(float(c)) for c in q] + [repr(float(v)), int(a), int(g)])
    print(f"wrote {queries.shape[0]} predictions to {args.out}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    if args.train:
        ds = read_csv(args.train)
    else:
        model = TargetModel(TargetKind(args.target))
        ds = generate_dataset(model, args.n, args.seed)
    family = _KERNEL_FAMILY[args.kernel]
    config = EstimatorConfig(family, r=args.r, d=ds.d)
    cv = CvConfig(
        default_constant_grid(args.grid_lo, args.grid_hi, args.grid_n),
        folds=args.folds,
        seed=args.seed,
    )
    constant = cv_select_constant(ds, config, cv)
    print(f"selected constant: {constant!r}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    scenario = Scenario(args.scenario)
    overrides: dict = {"base_seed": args.seed, "trials": args.trials}
    if args.m_grid is not None:
        overrides["m_grid"] = args.m_grid
    if args.n is not None:
        overrides["n"] = args.n
    if args.t is not None:
        overrides["t"] = args.t
    if args.data is not None:
        overrides["data_path"] = args.data
    if args.mesh_cap is not None:
        overrides["mesh_candidate_cap"] = args.mesh_cap
    if args.cv:
        overrides["cv"] = CvConfig(default_constant_grid(), seed=args.seed)
    config = ExperimentConfig.for_scenario(scenario, **overrides)
    if args.c is not None or args.r is not None or args.d is not None:
        import dataclasses

        est = config.estimator
        if args.c is not None:
            est = dataclasses.replace(est, constant_c=args.c)
        if args.r is not None:
            est = dataclasses.replace(est, r=args.r)
        if args.d is not None:
            est = dataclasses.replace(est, d=args.d)
        config = dataclasses.replace(config, estimator=est)
    result = run_experiment(config)
    out = Path(args.out)
    write_result_csv(result, out)
    summary_path = out.with_suffix(".summary.csv")
    write_summary_csv(result, summary_path)
    print(format_summary_text(result))
    print(f"wrote rows to {out} and summary to {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avmlar",
        description="Local average regression with divide-and-conquer block averaging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic data as CSV")
    gen.add_argument("--target", choices=["g1", "g2", "g3"], required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--noise-sd", type=float, default=None)
    gen.add_argument("--test", action="store_true", help="noiseless test set")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    pred = sub.add_parser("predict", help="block-averaged predictions at query points")
    pred.add_argument("--variant", choices=list(_VARIANTS), default="a1")
    pred.add_argument("--kernel", choices=list(_KERNEL_FAMILY), default="naive")
    pred.add_argument("--blocks", type=int, required=True)
    pred.add_argument("--seed", type=int, default=0)
    pred.add_argument("--h", type=float, default=None, help="explicit bandwidth")
    pred.add_argument("--k", type=int, default=None, help="explicit neighbor count")
    pred.add_argument("--c", type=float, default=1.0, help="rule constant")
    pred.add_argument("--r", type=float, default=1.0, help="assumed smoothness")
    pred.add_argument("--mesh-grid", type=int, default=None, help="d=1 grid resolution")
    pred.add_argument("--train", required=True)
    pred.add_argument("--query", required=True)
    pred.add_argument("--out", required=True)
    pred.set_defaults(func=_cmd_predict)

    tune = sub.add_parser("tune", help="cross-validate the rule constant")
    tune.add_argument("--target", choices=["g1", "g2", "g3"], default="g1")
    tune.add_argument("--train", default=None, help="tune on a CSV instead")
    tune.add_argument("--kernel", choices=list(_KERNEL_FAMILY), default="naive")
    tune.add_argument("--n", type=int, default=2000)
    tune.add_argument("--r", type=float, default=1.0)
    tune.add_argument("--folds", type=int, default=5)
    tune.add_argument("--grid-lo", type=float, default=0.05)
    tune.add_argument("--grid-hi", type=float, default=5.0)
    tune.add_argument("--grid-n", type=int, default=20)
    tune.add_argument("--seed", type=int, default=0)
    tune.set_defaults(func=_cmd_tune)

    exp = sub.add_parser("experiment", help="run an error sweep over block counts")
    exp.add_argument(
        "--scenario",
        choices=[s.value for s in Scenario],
        required=True,
    )
    exp.add_argument("--n", type=int, default=None)
    exp.add_argument("--t", type=int, default=None)
    exp.add_argument("--trials", type=int, default=20)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--m-grid", type=_parse_m_grid, default=None)
    exp.add_argument("--c", type=float, default=None)
    exp.add_argument("--r", type=float, default=None)
    exp.add_argument(
        "--d", type=int, choices=[1, 5], default=None,
        help="input dimension for the synthetic sweeps (1: bump, 5: radial)",
    )
    exp.add_argument("--cv", action="store_true", help="tune the constant first")
    exp.add_argument("--data", default=None, help="road-network CSV path")
    exp.add_argument("--mesh-cap", type=int, default=None)
    exp.add_argument("--out", required=True)
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
