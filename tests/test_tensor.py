"""RNG reproducibility and the finite-difference checker."""

import numpy as np
import pytest

from wendnet.tensor import finite_diff_check, make_rng, relative_error, substream


def test_rng_reproducibility():
    a = make_rng(12345).standard_normal(10_000)
    b = make_rng(12345).standard_normal(10_000)
    np.testing.assert_array_equal(a, b)


def test_substreams_independent_of_order():
    a1 = substream(7, "net", "relu").standard_normal(5)
    b1 = substream(7, "net", "tanh").standard_normal(5)
    b2 = substream(7, "net", "tanh").standard_normal(5)
    np.testing.assert_array_equal(b1, b2)
    assert not np.array_equal(a1, b1)


def test_finite_diff_linear_map_is_exact():
    rng = make_rng(4)
    a = rng.standard_normal((4, 4))
    # central differences are exact for linear maps at any step; a larger
    # step keeps the rounding contribution below the bound
    err = finite_diff_check(lambda x: a @ x, np.ones(4),
                            lambda v: a @ v, probes=20, step=1e-3, rng=make_rng(5))
    assert err < 1e-10


def test_finite_diff_quadratic():
    err = finite_diff_check(lambda x: x * x, np.array([1.0]),
                            lambda v: 2.0 * v, probes=5, step=1e-6, rng=make_rng(6))
    assert err < 1e-9


def test_finite_diff_flags_wrong_gradient():
    err = finite_diff_check(lambda x: x * x, np.array([1.0]),
                            lambda v: 2.2 * v, probes=5, step=1e-6, rng=make_rng(7))
    assert 0.05 < err < 0.15


def test_finite_diff_nan_is_a_failure():
    # a NaN comparison must not read as a perfect match
    err = finite_diff_check(lambda x: float(np.sum(x * x)), np.ones(3),
                            lambda v: float("nan"), probes=5)
    assert err == float("inf")
    err = finite_diff_check(lambda x: float("nan"), np.ones(3),
                            lambda v: 0.0, probes=5)
    assert err == float("inf")


def test_relative_error_scale():
    assert relative_error(np.array([2.0]), np.array([2.0])) == 0.0
    assert relative_error(np.array([1e-9]), np.array([0.0])) == pytest.approx(1e-9)
