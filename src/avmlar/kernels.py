"""Kernel functions for the Nadaraya-Watson estimator.

Two kernels are supported: the naive (unit-ball indicator) kernel and the
Gaussian kernel ``exp(-||u||^2)``. Both depend on the input only through
its Euclidean norm. ``kernel_profile`` evaluates either on the norms
``||u|| = dist / h``.

The Gaussian weights of a distance matrix are taken from its squares,
``s = dist**2`` as ``cdist(..., "sqeuclidean")`` gives them:
``gaussian_weights`` computes ``exp(s * (-1 / h**2))`` in one buffer, with
no divide, square or negate pass. ``exact_gaussian_weights`` is the
formula from the distance, ``kernel_profile(GAUSSIAN, sqrt(s) / h)``, which
``np.sqrt`` of the squares makes bitwise the one from ``cdist``'s own
distances. Where weights may be subnormal (a sum below
``GAUSSIAN_EXACT_BELOW``) the exact formula is taken instead:
``gaussian_block_weights`` is that rule for one query and one block, and the
dense loop of ``avm`` applies it to each (query, block) pair, skipping the
pairs beyond ``gaussian_zero_beyond(h)``, whose weights are exactly 0 by
either formula.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np


class KernelKind(Enum):
    NAIVE = "naive"
    GAUSSIAN = "gaussian"


# ``gaussian_weights`` takes the squared form for h in this range, where h**2
# and 1 / h**2 are normal doubles, and the exact formula outside it
_SQUARED_FORM_H = (2.0**-500, 2.0**500)
# Gaussian weights that sum below this, over a (query, block) pair or a
# block, are taken by ``exact_gaussian_weights``: the squared form's weights
# may be subnormal there, and a subnormal weight's relative error is not bounded
GAUSSIAN_EXACT_BELOW = 2.0**-970
# exp of an argument below -745.14 is exactly 0; this leaves a 0.6 % margin
_GAUSSIAN_ZERO_ARGUMENT = 750.0


def kernel_profile(kind: KernelKind, norms: np.ndarray) -> np.ndarray:
    """Evaluate the kernel on precomputed Euclidean norms.

    ``lar``'s naive weights and ``exact_gaussian_weights`` call it. The
    naive kernel uses the closed unit ball (norm == 1 counts as inside).
    """
    s = np.asarray(norms, dtype=np.float64)
    if kind is KernelKind.NAIVE:
        return (s <= 1.0).astype(np.float64)
    if kind is KernelKind.GAUSSIAN:
        # one buffer, bitwise np.exp(-(s**2)); empty_like keeps 0-d inputs 0-d
        u = np.square(s, out=np.empty_like(s))
        np.negative(u, out=u)
        return np.exp(u, out=u)
    raise ValueError(f"unknown kernel kind: {kind!r}")


def exact_gaussian_weights(sq_norms: np.ndarray, h: float) -> np.ndarray:
    """Gaussian weights ``kernel_profile(GAUSSIAN, sqrt(sq_norms) / h)``.

    ``np.sqrt`` of ``cdist``'s squared Euclidean distances is bitwise its
    Euclidean distance, so these are bitwise the weights of the distances.
    """
    with np.errstate(over="ignore"):  # a subnormal h
        return kernel_profile(KernelKind.GAUSSIAN, np.sqrt(sq_norms) / h)


def gaussian_weights(
    sq_norms: np.ndarray, h: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Gaussian weights ``exp(-(dist / h)**2)`` from squared distances ``dist**2``.

    For h in [2**-500, 2**500] the weight is ``exp(s * c)`` with
    ``c = -1 / h**2``, in ``out`` (a new array by default); outside it,
    ``exact_gaussian_weights``. With eps = 2**-53 and the exact argument
    ``u = -s / h**2``:

    * ``c`` is within 2 eps of ``-1 / h**2`` (a normal double, as h**2 is)
      and the product rounds once, so the argument is within 3 eps of u;
    * ``exact_gaussian_weights`` rounds the root, the quotient and the
      square, so its argument is within 5 eps of u;

    so the arguments differ by at most 8 eps |u|, and a weight by about
    ``|u| * 2**-50`` relative, until it is subnormal (about |u| > 708),
    where the relative error grows without bound. So a (query, block) pair
    whose weights sum below ``GAUSSIAN_EXACT_BELOW`` must take the exact
    weights; above it, a subnormal weight adds under 2**-104 of the sum.
    The part of the argument's error common to all samples, from ``c``,
    scales every weight near the largest alike; a weighted mean moves by
    the spread of the relative errors over the samples that carry it.
    """
    lo, hi = _SQUARED_FORM_H
    if not lo <= h <= hi:
        weights = exact_gaussian_weights(sq_norms, h)
        if out is None:
            return weights
        out[...] = weights
        return out
    with np.errstate(over="ignore"):  # a huge square times a large 1 / h**2
        u = np.multiply(sq_norms, -1.0 / (h * h), out=out)
    return np.exp(u, out=u)


def gaussian_block_weights(sq_norms: np.ndarray, h: float) -> np.ndarray:
    """Gaussian weights of one block's squared distances from one query:
    ``gaussian_weights``, or ``exact_gaussian_weights`` where those sum
    below ``GAUSSIAN_EXACT_BELOW``."""
    weights = gaussian_weights(sq_norms, h)
    if weights.sum() < GAUSSIAN_EXACT_BELOW:
        return exact_gaussian_weights(sq_norms, h)
    return weights


def gaussian_zero_beyond(h: float) -> float:
    """A squared distance beyond which both Gaussian formulas give exactly 0.

    For h in the squared form's range, ``750 * h**2`` rounded: a squared
    distance s past it has ``s / h**2`` above 749.99, and so has the
    negated argument of either formula, within 5 eps of it (see
    ``gaussian_weights``), so both ``exp`` are exactly 0. Outside that
    range, where ``h**2`` may not be a normal double, inf.
    """
    lo, hi = _SQUARED_FORM_H
    return _GAUSSIAN_ZERO_ARGUMENT * (h * h) if lo <= h <= hi else math.inf
