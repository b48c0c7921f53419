import numpy as np
import pytest

import oracles
from avmlar import KernelKind
from avmlar.kernels import (
    exact_gaussian_weights,
    gaussian_block_weights,
    gaussian_weights,
    gaussian_zero_beyond,
    kernel_profile,
)


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


def test_gaussian_weights_from_squares_track_the_distance_formula():
    # exp(s * (-1 / h**2)) moves the argument u = -(dist / h)**2 by a few ulps
    # of u, so a normal weight by about |u| * 2**-50 relative
    rng = np.random.default_rng(3)
    dist = np.abs(rng.normal(scale=10.0, size=4000))
    for h in (0.37, 1.0, 2.5, 2.0**-400, 2.0**400):
        d = dist * h
        fast = gaussian_weights(d * d, h)
        exact = exact_gaussian_weights(d * d, h)
        u = (d / h) ** 2
        normal = exact >= np.finfo(float).tiny
        assert normal.sum() > 1000
        err = np.abs(fast[normal] - exact[normal]) / exact[normal]
        assert np.all(err <= (u[normal] + 1) * 2.0**-49)


def test_gaussian_weights_write_into_out():
    sq = np.array([[0.0, 1.0], [4.0, np.inf]])
    out = np.empty_like(sq)
    assert gaussian_weights(sq, 1.0, out=out) is out
    np.testing.assert_array_equal(out, [[1.0, np.exp(-1.0)], [np.exp(-4.0), 0.0]])
    assert gaussian_weights(sq, 1e-160, out=out) is out
    np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 0.0]])


def test_gaussian_weights_past_the_zero_bound_are_zero():
    # past gaussian_zero_beyond both formulas give exactly 0, and well inside
    # it the exact weight is not 0, so the bound is within 1 % of the last one
    for h in (2.0**-500, 1e-3, 0.7, 3.0, 1e100, 2.0**500):
        bound = gaussian_zero_beyond(h)
        past = np.nextafter(bound, np.inf) * (1.0 + np.linspace(0.0, 1e-3, 50))
        assert not gaussian_weights(past, h).any()
        assert not exact_gaussian_weights(past, h).any()
        assert exact_gaussian_weights(np.array([bound * 0.99]), h)[0] > 0.0
    assert gaussian_zero_beyond(1e-160) == gaussian_zero_beyond(1e160) == np.inf


def test_gaussian_block_weights_take_the_exact_formula_below_the_threshold():
    d = np.array([1.0, 2.0, 26.0, 27.0])
    for h, far in ((1.0, False), (1.0 / 26.5, True)):
        sq = d * d
        want = (exact_gaussian_weights if far else gaussian_weights)(sq, h)
        assert gaussian_block_weights(sq, h).tobytes() == want.tobytes()
