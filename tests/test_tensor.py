"""RNG reproducibility and the finite-difference checker."""

import numpy as np
import pytest

from wendnet.tensor import features, finite_diff_check, relative_error, substream, tensor


def test_rng_reproducibility():
    a = substream(12345).standard_normal(10_000)
    b = substream(12345).standard_normal(10_000)
    np.testing.assert_array_equal(a, b)


def test_substreams_independent_of_order():
    a1 = substream(7, "net", "relu").standard_normal(5)
    b1 = substream(7, "net", "tanh").standard_normal(5)
    b2 = substream(7, "net", "tanh").standard_normal(5)
    np.testing.assert_array_equal(b1, b2)
    assert not np.array_equal(a1, b1)


def test_uint8_features_enter_as_intensities_bit_for_bit():
    pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    out = features(pixels)
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert out.tobytes() == (pixels.astype(np.float64) / 255.0).tobytes()
    assert out[0, 0] == 0.0 and out[-1, -1] == 1.0


@pytest.mark.parametrize("data", [
    [[0, 128, 255], [3, 2, 1]],
    np.array([[0.5, 255.0], [-1.0, 2.0]], dtype=np.float32),
    np.array([[0, 255], [256, -7]], dtype=np.int64),
    np.array([[0.0, 255.0], [1e300, -2.5]])[:, ::-1],
], ids=["list", "float32", "int64", "float64-view"])
def test_other_features_enter_through_tensor_unscaled(data):
    out = features(data)
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert out.tobytes() == tensor(data).tobytes()
    np.testing.assert_array_equal(out, np.asarray(data, dtype=np.float64))


def test_finite_diff_linear_map_is_exact():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4))
    # central differences are exact for linear maps at any step; a larger
    # step keeps the rounding contribution below the bound
    err = finite_diff_check(lambda x: a @ x, np.ones(4),
                            lambda v: a @ v, probes=20, step=1e-3, rng=np.random.default_rng(5))
    assert err < 1e-10


def test_finite_diff_quadratic():
    err = finite_diff_check(lambda x: x * x, np.array([1.0]),
                            lambda v: 2.0 * v, probes=5, step=1e-6, rng=np.random.default_rng(6))
    assert err < 1e-9


def test_finite_diff_flags_wrong_gradient():
    err = finite_diff_check(lambda x: x * x, np.array([1.0]),
                            lambda v: 2.2 * v, probes=5, step=1e-6, rng=np.random.default_rng(7))
    assert 0.05 < err < 0.15


def test_finite_diff_nan_is_a_failure():
    # a NaN comparison must not read as a perfect match
    err = finite_diff_check(lambda x: float(np.sum(x * x)), np.ones(3),
                            lambda v: float("nan"), probes=5, step=1e-6,
                            rng=np.random.default_rng(0))
    assert err == float("inf")
    err = finite_diff_check(lambda x: float("nan"), np.ones(3),
                            lambda v: 0.0, probes=5, step=1e-6, rng=np.random.default_rng(0))
    assert err == float("inf")


def test_relative_error_scale():
    assert relative_error(np.array([2.0]), np.array([2.0])) == 0.0
    assert relative_error(np.array([1e-9]), np.array([0.0])) == pytest.approx(1e-9)
