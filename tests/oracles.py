"""Independent brute-force reference implementations.

Everything here is written as direct loops over sample lists, straight
from the estimator definitions, so the vectorized library code can be
checked against it. Keep this module free of avmlar imports.
"""

from __future__ import annotations

import math


def euclid(a, b) -> float:
    """Euclidean distance, each gap squared as a product, as ``cdist`` does.

    In Python floats, which overflow to inf with no warning.
    """
    total = 0.0
    for ai, bi in zip(a, b):
        d = float(ai) - float(bi)
        total += d * d
    return math.sqrt(total)


def kernel_value(kind: str, scaled: float) -> float:
    if kind == "naive":
        return 1.0 if scaled <= 1.0 else 0.0
    if kind == "gaussian":
        return math.exp(-(scaled**2))
    raise ValueError(kind)


def nwk_estimate(xs, ys, kind: str, h: float, q) -> float:
    """Kernel-weighted mean with the 0/0 -> 0 convention."""
    raw = [kernel_value(kind, euclid(q, x) / h) for x in xs]
    total = sum(raw)
    if total == 0.0:
        return 0.0
    return sum(w * y for w, y in zip(raw, ys)) / total


def knn_estimate(xs, ys, k: int, q) -> float:
    """Mean response of the k nearest samples, ties to the lower index."""
    ranked = sorted(range(len(xs)), key=lambda i: (euclid(q, xs[i]), i))
    chosen = ranked[:k]
    return sum(ys[i] for i in chosen) / k


def mesh_norm(samples, candidates) -> float:
    """max over candidates of the min distance to any sample."""
    return max(min(euclid(c, s) for s in samples) for c in candidates)


def tilde_bandwidth(mesh_norms, m: int, r: float, d: int) -> float:
    h_max = max(mesh_norms)
    e = 1.0 / (2.0 * r + d)
    return max(m ** (-e) * h_max ** (d * e), h_max)


def avm_a1_nwk(blocks, kind: str, h: float, q) -> float:
    """blocks: list of (xs, ys) pairs; plain average, degenerate -> 0."""
    return sum(nwk_estimate(xs, ys, kind, h, q) for xs, ys in blocks) / len(blocks)


def avm_a2_nwk(blocks, kind: str, tilde_h: float, q) -> float:
    return avm_a1_nwk(blocks, kind, tilde_h, q)


def avm_a3_nwk(blocks, kind: str, h: float, q) -> float:
    active = [
        (xs, ys) for xs, ys in blocks if any(euclid(q, x) <= h for x in xs)
    ]
    if not active:
        return 0.0
    return sum(nwk_estimate(xs, ys, kind, h, q) for xs, ys in active) / len(active)


def avm_knn(blocks, k: int, q) -> float:
    """All variants coincide for k-NN: the plain average."""
    return sum(knn_estimate(xs, ys, k, q) for xs, ys in blocks) / len(blocks)


def population_sd(values) -> float:
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
