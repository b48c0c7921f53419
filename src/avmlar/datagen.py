"""Synthetic regression targets, sample generation, and road-network ingestion.

Three built-in targets: a compactly supported cubic bump on [0, 0.5]
(d=1), its degree-5 radial analogue plus a quadratic ramp (d=5), and the
tent function ``min(x, 1-x)`` (d=1). Inputs are uniform on the unit cube;
noise is Gaussian with a configurable standard deviation. The road
loader ingests 4-field rows (id, longitude, latitude, elevation) and
regresses elevation on the raw coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .core import Dataset, InvalidDataError


class TargetKind(Enum):
    G1 = "g1"
    G2 = "g2"
    G3 = "g3"


_TARGET_DIM = {TargetKind.G1: 1, TargetKind.G2: 5, TargetKind.G3: 1}

# N(0, 0.1) and N(0, 1/5) noise, second parameter read as the variance
_DEFAULT_NOISE_SD = {
    TargetKind.G1: math.sqrt(0.1),
    TargetKind.G2: math.sqrt(0.1),
    TargetKind.G3: math.sqrt(0.2),
}


@dataclass(frozen=True)
class TargetModel:
    """A synthetic regression target with Gaussian response noise."""

    kind: TargetKind
    noise_sd: float | None = None

    def __post_init__(self) -> None:
        if self.noise_sd is None:
            object.__setattr__(self, "noise_sd", _DEFAULT_NOISE_SD[self.kind])
        elif not 0 <= self.noise_sd < np.inf:
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")

    @property
    def d(self) -> int:
        return _TARGET_DIM[self.kind]


def _target_values(kind: TargetKind, X: np.ndarray) -> np.ndarray:
    if kind is TargetKind.G1:
        t = np.maximum(1.0 - 2.0 * X[:, 0], 0.0)
        return t**3 * (1.0 + 6.0 * X[:, 0])
    if kind is TargetKind.G2:
        norm = np.linalg.norm(X, axis=1)
        t = np.maximum(1.0 - norm, 0.0)
        return t**5 * (1.0 + 5.0 * norm) + norm**2 / 5.0
    if kind is TargetKind.G3:
        return np.minimum(X[:, 0], 1.0 - X[:, 0])
    raise ValueError(f"unknown target kind: {kind!r}")


def eval_target(model: TargetModel, x: np.ndarray) -> float:
    """Exact target value at a single input point."""
    q = np.asarray(x, dtype=np.float64).reshape(-1)
    if q.shape[0] != model.d:
        raise ValueError(f"input has dimension {q.shape[0]}, target needs {model.d}")
    return float(_target_values(model.kind, q[None, :])[0])


def generate_dataset(model: TargetModel, N: int, seed: int) -> Dataset:
    """Draw ``N`` noisy samples: x uniform on [0,1]^d, y = g(x) + noise.

    The seeded generator draws all inputs first, then all noise variates,
    so a given (model, N, seed) always yields the identical dataset.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    rng = np.random.default_rng(seed)
    X = rng.random((N, model.d))
    y = _target_values(model.kind, X)
    if model.noise_sd > 0:
        y = y + rng.normal(0.0, model.noise_sd, size=N)
    bounds = np.tile([0.0, 1.0], (model.d, 1))
    return Dataset(X, y, bounds)


def generate_test_set(model: TargetModel, T: int, seed: int) -> Dataset:
    """Draw ``T`` noiseless samples with y = g(x) exactly."""
    if T < 1:
        raise ValueError(f"T must be positive, got {T}")
    rng = np.random.default_rng(seed)
    X = rng.random((T, model.d))
    y = _target_values(model.kind, X)
    bounds = np.tile([0.0, 1.0], (model.d, 1))
    return Dataset(X, y, bounds)


@dataclass(frozen=True)
class RoadNetworkData:
    """Ingested road elevations plus the count of rows that failed to parse."""

    dataset: Dataset
    skipped_rows: int


def load_road_network(path: str | Path) -> RoadNetworkData:
    """Load 4-field road rows: OSM id, longitude, latitude, elevation (m).

    Inputs are (longitude, latitude), the response is the elevation; the id
    field is dropped. Malformed rows are skipped and counted. Domain
    bounds are the observed bounding box.
    """
    path = Path(path)
    xs: list[tuple[float, float]] = []
    ys: list[float] = []
    skipped = 0
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 4:
                skipped += 1
                continue
            try:
                lon, lat, elev = float(fields[1]), float(fields[2]), float(fields[3])
            except ValueError:
                skipped += 1
                continue
            if not (math.isfinite(lon) and math.isfinite(lat) and math.isfinite(elev)):
                skipped += 1
                continue
            xs.append((lon, lat))
            ys.append(elev)
    if not xs:
        raise InvalidDataError(f"{path}: no valid rows")
    dataset = Dataset(np.asarray(xs), np.asarray(ys), validate_bounds=False)
    return RoadNetworkData(dataset, skipped)
