import numpy as np
import pytest

import oracles
from avmlar import KernelKind
from avmlar.kernels import kernel_profile


def test_naive_inside_unit_ball():
    assert kernel_profile(KernelKind.NAIVE, 0.5) == 1.0


def test_naive_outside_unit_ball():
    assert kernel_profile(KernelKind.NAIVE, 1.5) == 0.0


def test_naive_boundary_inclusive():
    assert kernel_profile(KernelKind.NAIVE, 1.0) == 1.0
    assert kernel_profile(KernelKind.NAIVE, np.linalg.norm([0.6, 0.8])) == 1.0


def test_gaussian_at_origin():
    assert kernel_profile(KernelKind.GAUSSIAN, 0.0) == 1.0


def test_gaussian_at_unit_norm():
    assert kernel_profile(KernelKind.GAUSSIAN, 1.0) == pytest.approx(0.36788, abs=1e-5)


def test_oracle_gaussian_weight_underflows_to_zero():
    # the square of 1e200 overflows to inf rather than raising, as it does
    # where the library calls kernel_profile
    assert oracles.kernel_value("gaussian", 1e200) == 0.0
    with np.errstate(over="ignore"):
        assert kernel_profile(KernelKind.GAUSSIAN, 1e200) == 0.0


def test_values_in_unit_interval():
    rng = np.random.default_rng(1)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        u = rng.normal(scale=2.0, size=d)
        for kind in KernelKind:
            v = kernel_profile(kind, np.linalg.norm(u))
            assert 0.0 <= v <= 1.0


def test_radial_symmetry_under_rotation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        u = rng.normal(size=d)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        for kind in KernelKind:
            assert kernel_profile(kind, np.linalg.norm(q @ u)) == pytest.approx(
                kernel_profile(kind, np.linalg.norm(u)), abs=1e-12
            )


def test_monotone_nonincreasing_in_norm():
    norms = np.linspace(0.0, 3.0, 40)
    for kind in KernelKind:
        vals = kernel_profile(kind, norms)
        assert all(a >= b for a, b in zip(vals, vals[1:]))
