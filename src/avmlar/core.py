"""Shared domain types: datasets, estimator configuration, MSE.

All numeric storage is float64; datasets are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np


class InvalidDataError(ValueError):
    """Raised when an input file yields no usable data."""


class EstimatorFamily(Enum):
    NWK_NAIVE = "nwk-naive"
    NWK_GAUSSIAN = "nwk-gaussian"
    KNN = "knn"


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator family plus the knobs feeding the localization-parameter rules.

    ``r`` is the assumed smoothness of the regression function, ``d`` the
    input dimension, and ``constant_c`` the multiplier in the bandwidth / k
    rules.
    """

    family: EstimatorFamily
    r: float
    d: int
    constant_c: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.family, EstimatorFamily):
            raise ValueError(f"family must be an EstimatorFamily, got {self.family!r}")
        if not 0 < self.r < np.inf:
            raise ValueError(f"smoothness r must be positive and finite, got {self.r}")
        if not 1 <= self.d < np.inf or self.d != int(self.d):
            raise ValueError(f"dimension d must be a positive integer, got {self.d}")
        if not 0 < self.constant_c < np.inf:
            raise ValueError(
                f"constant_c must be positive and finite, got {self.constant_c}"
            )


class Dataset:
    """Ordered, immutable collection of (x, y) samples over a compact box.

    Parameters
    ----------
    x : array-like, shape (N, d)
        Input coordinates, one row per sample.
    y : array-like, shape (N,)
        Responses.
    domain_bounds : array-like, shape (d, 2), optional
        Closed per-coordinate interval containing the inputs. Defaults to
        the observed bounding box.
    validate_bounds : bool
        When True (synthetic data), reject samples outside ``domain_bounds``;
        ingested data may pass False to make the bounds advisory.
    """

    __slots__ = ("x", "y", "domain_bounds")

    def __init__(
        self,
        x: np.ndarray | Sequence[Sequence[float]],
        y: np.ndarray | Sequence[float],
        domain_bounds: np.ndarray | Sequence[Sequence[float]] | None = None,
        validate_bounds: bool = True,
    ) -> None:
        xs = np.atleast_2d(np.asarray(x, dtype=np.float64))
        ys = np.asarray(y, dtype=np.float64).reshape(-1)
        if xs.ndim != 2:
            raise ValueError(f"x must be 2-dimensional (N, d), got shape {xs.shape}")
        if xs.shape[0] != ys.shape[0]:
            raise ValueError(
                f"x and y disagree on sample count: {xs.shape[0]} vs {ys.shape[0]}"
            )
        if xs.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.isfinite(xs)):
            raise ValueError("dataset inputs must be finite")
        if not np.all(np.isfinite(ys)):
            raise ValueError("dataset responses must be finite")

        if domain_bounds is None:
            bounds = np.column_stack([xs.min(axis=0), xs.max(axis=0)])
        else:
            bounds = np.asarray(domain_bounds, dtype=np.float64)
            if bounds.shape != (xs.shape[1], 2):
                raise ValueError(
                    f"domain_bounds must have shape ({xs.shape[1]}, 2), got {bounds.shape}"
                )
            if not np.all(np.isfinite(bounds)):
                raise ValueError("domain_bounds must be finite")
            if np.any(bounds[:, 0] > bounds[:, 1]):
                raise ValueError("domain_bounds lower ends must not exceed upper ends")
            if validate_bounds:
                lo, hi = bounds[:, 0], bounds[:, 1]
                if np.any(xs < lo) or np.any(xs > hi):
                    raise ValueError("sample inputs fall outside domain_bounds")

        for arr in (xs, ys, bounds):
            arr.setflags(write=False)
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "y", ys)
        object.__setattr__(self, "domain_bounds", bounds)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Dataset is immutable")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def subset(self, rows: np.ndarray | slice) -> "Dataset":
        """Dataset of the given rows, sharing domain bounds; a slice gives a view."""
        return Dataset(
            self.x[rows], self.y[rows], self.domain_bounds, validate_bounds=False
        )


def distance_1d(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distances between 1-d points as ``cdist`` computes them, ``sqrt((q - x)**2)``.

    This is ``|q - x|`` while the square is a normal double. A subnormal
    square rounds and a huge one overflows to inf, and ``|q - x|`` would
    then admit other samples than the dense path does.
    """
    with np.errstate(over="ignore", under="ignore"):
        dist = np.subtract(q, x)
        return np.sqrt(np.square(dist, out=dist), out=dist)


def cdist_norms(gaps) -> np.ndarray:
    """Root of the squared ``gaps`` summed in order, as ``cdist`` sums coordinates."""
    total = 0.0
    with np.errstate(over="ignore"):
        for gap in gaps:
            total = total + gap * gap
    return np.sqrt(total)


def mse(predictions: Sequence[float], targets: Sequence[float]) -> float:
    """Mean squared error between two equal-length sequences."""
    p = np.asarray(predictions, dtype=np.float64).reshape(-1)
    t = np.asarray(targets, dtype=np.float64).reshape(-1)
    if p.shape[0] == 0:
        raise ValueError("mse requires at least one value")
    if p.shape[0] != t.shape[0]:
        raise ValueError(f"length mismatch: {p.shape[0]} vs {t.shape[0]}")
    return float(np.mean((p - t) ** 2))


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV with header ``x1,...,xd,y``."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(dataset.d)] + ["y"])
        for xi, yi in zip(dataset.x, dataset.y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])


def read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV: a header row, then rows with as many fields.

    Blank lines are skipped. Returns the stripped column names and the
    rows as a float64 array.
    """
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise InvalidDataError(f"{path}: empty file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InvalidDataError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise InvalidDataError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise InvalidDataError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=np.float64)


def read_csv(path: str | Path) -> Dataset:
    """Read a dataset from the ``x1,...,xd,y`` CSV format.

    Domain bounds are set to the observed bounding box.
    """
    header, data = read_table(path)
    if len(header) < 2 or header[-1] != "y":
        raise InvalidDataError(f"{path}: expected header 'x1,...,xd,y'")
    return Dataset(data[:, :-1], data[:, -1], validate_bounds=False)
