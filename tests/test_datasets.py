"""Dataset generators, the IDX loader, the train/test split and the
stratified subsample."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from wendnet.datasets import (
    DataConfigError,
    IdxParseError,
    load_idx,
    make_circles,
    make_moons,
    sample_sine,
    split,
    subsample,
    write_idx_images,
    write_idx_labels,
)


def test_sine_noiseless_on_curve():
    x, y = sample_sine(500, (-np.pi, np.pi), 0.0, default_rng(0))
    np.testing.assert_allclose(y[:, 0], np.sin(x[:, 0]), atol=0)


def test_sine_deterministic():
    xa, ya = sample_sine(1000, (-1, 1), 0.1, default_rng(42))
    xb, yb = sample_sine(1000, (-1, 1), 0.1, default_rng(42))
    np.testing.assert_array_equal(xa, xb)
    np.testing.assert_array_equal(ya, yb)


def test_sine_invalid_range():
    with pytest.raises(DataConfigError):
        sample_sine(10, (1.0, 1.0), 0.0, default_rng(0))
    with pytest.raises(DataConfigError):
        sample_sine(10, (-1, 1), -0.1, default_rng(0))


def test_sine_range_wider_than_a_float():
    # hi - lo overflows to inf; the generator could not draw from it
    with pytest.raises(DataConfigError, match="wider"):
        sample_sine(10, (-1e308, 1e308), 0.0, default_rng(0))
    x, _ = sample_sine(10, (-1e307, 1e307), 0.0, default_rng(0))
    assert np.all(np.abs(x) <= 1e307)


@pytest.mark.parametrize("fraction", [1.0, 1.5, 0.99, -0.1, float("nan"), 0.0, 0.01])
def test_split_must_leave_training_rows(fraction):
    # of 20 rows, 0.99 rounds to 20 test rows and 0.01 to none; both sides
    # need at least one
    x, y = sample_sine(20, (-1, 1), 0.0, default_rng(0))
    with pytest.raises(DataConfigError):
        split(x, y, fraction, default_rng(1))


def test_moons_arc_endpoints():
    # noiseless points lie exactly on the two parameterized arcs
    x, labels = make_moons(1000, 0.0, default_rng(1))
    upper = x[labels == 0]
    lower = x[labels == 1]
    # upper arc: unit circle, y >= 0
    np.testing.assert_allclose(np.hypot(upper[:, 0], upper[:, 1]), 1.0, atol=1e-12)
    assert np.all(upper[:, 1] >= -1e-12)
    # lower arc: (1 - cos t, 0.5 - sin t)
    np.testing.assert_allclose(np.hypot(lower[:, 0] - 1.0, lower[:, 1] - 0.5),
                               1.0, atol=1e-12)
    assert np.all(lower[:, 1] <= 0.5 + 1e-12)
    # t = pi/2 on the lower arc maps to (1, -0.5); check the formula directly
    t = np.pi / 2
    assert (1 - np.cos(t), 0.5 - np.sin(t)) == pytest.approx((1.0, -0.5))


def test_moons_class_balance():
    for n in (10, 11, 999):
        _, labels = make_moons(n, 0.1, default_rng(2))
        counts = np.bincount(labels)
        assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_circles_noiseless_radii():
    x, labels = make_circles(800, 0.0, 0.5, default_rng(3))
    radii = np.hypot(x[:, 0], x[:, 1])
    np.testing.assert_allclose(radii[labels == 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(radii[labels == 1], 0.5, atol=1e-12)
    # separable in the radius feature with margin 0.5
    assert radii[labels == 0].min() - radii[labels == 1].max() == pytest.approx(0.5, abs=1e-12)


def test_circles_invalid_factor():
    for factor in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DataConfigError):
            make_circles(10, 0.0, factor, default_rng(0))


def test_two_class_generators_reject_negative_noise():
    # as sample_sine does; a negative scale used to be read as no noise
    for gen in (lambda r: make_moons(10, -0.2, r),
                lambda r: make_circles(10, -0.2, 0.5, r)):
        with pytest.raises(DataConfigError, match="noise_sd"):
            gen(default_rng(0))


def test_generators_deterministic():
    for gen in (lambda r: make_moons(200, 0.2, r),
                lambda r: make_circles(200, 0.1, 0.5, r)):
        xa, la = gen(default_rng(5))
        xb, lb = gen(default_rng(5))
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(la, lb)


# --- IDX format -------------------------------------------------------------

def test_idx_round_trip(tmp_path):
    rng = default_rng(6)
    images = rng.integers(0, 256, size=(7, 5, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7, dtype=np.uint8)
    ip = tmp_path / "imgs"
    lp = tmp_path / "lbls"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    pixels, loaded = load_idx(ip, lp)
    assert pixels.dtype == np.uint8 and loaded.dtype == np.int64
    np.testing.assert_array_equal(pixels, images.reshape(7, 25))
    np.testing.assert_array_equal(loaded, labels.astype(np.int64))


def test_idx_all_zero_images(tmp_path):
    write_idx_images(tmp_path / "imgs", np.zeros((2, 4, 4), dtype=np.uint8))
    write_idx_labels(tmp_path / "lbls", np.zeros(2, dtype=np.uint8))
    pixels, _ = load_idx(tmp_path / "imgs", tmp_path / "lbls")
    assert pixels.shape == (2, 16)
    assert np.all(pixels == 0)


def test_idx_bad_magic(tmp_path):
    import struct
    path = tmp_path / "bad"
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000802, 1, 2, 2))
        f.write(bytes(4))
    write_idx_labels(tmp_path / "lbls", np.zeros(1, dtype=np.uint8))
    with pytest.raises(IdxParseError, match="0x00000803"):
        load_idx(path, tmp_path / "lbls")


def test_idx_truncated(tmp_path):
    write_idx_images(tmp_path / "imgs", np.zeros((3, 4, 4), dtype=np.uint8))
    data = (tmp_path / "imgs").read_bytes()
    with open(tmp_path / "trunc", "wb") as f:
        f.write(data[:-10])
    write_idx_labels(tmp_path / "lbls", np.zeros(3, dtype=np.uint8))
    with pytest.raises(IdxParseError, match="truncated|expected"):
        load_idx(tmp_path / "trunc", tmp_path / "lbls")


def test_idx_count_mismatch(tmp_path):
    write_idx_images(tmp_path / "imgs", np.zeros((3, 4, 4), dtype=np.uint8))
    write_idx_labels(tmp_path / "lbls", np.zeros(2, dtype=np.uint8))
    with pytest.raises(IdxParseError, match="mismatch"):
        load_idx(tmp_path / "imgs", tmp_path / "lbls")


_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 40)),
    st.tuples(st.just("flip"), st.integers(0, 40), st.integers(1, 255)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=8)),
)


def _mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for op, *args in mutations:
        if op == "truncate":
            del buf[args[0] % (len(buf) + 1):]
        elif op == "flip" and buf:
            buf[args[0] % len(buf)] ^= args[1]
        elif op == "extend":
            buf += args[0]
    return bytes(buf)


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(image_edits=st.lists(_MUTATION, max_size=3), label_edits=st.lists(_MUTATION, max_size=3))
def test_mutated_idx_files_load_or_raise_parse_error(tmp_path, image_edits, label_edits):
    # truncate, flip or extend the bytes of a small IDX pair: the loader
    # returns arrays that agree with the headers, or raises IdxParseError
    write_idx_images(tmp_path / "imgs", np.arange(12, dtype=np.uint8).reshape(3, 2, 2))
    write_idx_labels(tmp_path / "lbls", np.array([0, 9, 4], dtype=np.uint8))
    for name, edits in (("imgs", image_edits), ("lbls", label_edits)):
        path = tmp_path / name
        path.write_bytes(_mutate(path.read_bytes(), edits))
    try:
        pixels, labels = load_idx(tmp_path / "imgs", tmp_path / "lbls")
    except IdxParseError:
        return
    assert pixels.dtype == np.uint8 and labels.dtype == np.int64
    assert pixels.ndim == 2 and labels.shape == (pixels.shape[0],)


# --- subsampling ------------------------------------------------------------

def _toy_labeled(n=100, classes=10):
    labels = np.tile(np.arange(classes), n // classes)
    return default_rng(7).standard_normal((n, 3)), labels


def test_subsample_full_permutation():
    x, labels = _toy_labeled()
    sub, sub_labels = subsample(x, labels, 100, default_rng(8))
    # every row, in row order
    np.testing.assert_array_equal(sub, x)
    np.testing.assert_array_equal(sub_labels, labels)


def test_subsample_stratified_balanced():
    x, labels = _toy_labeled(n=1000, classes=10)
    _, sub_labels = subsample(x, labels, 100, default_rng(9))
    assert np.all(np.bincount(sub_labels, minlength=10) == 10)


def test_subsample_deterministic():
    x, labels = _toy_labeled(n=200)
    a, la = subsample(x, labels, 50, default_rng(10))
    b, lb = subsample(x, labels, 50, default_rng(10))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(la, lb)


def test_subsample_insufficient_rows():
    x, labels = _toy_labeled(n=100)
    with pytest.raises(DataConfigError):
        subsample(x, labels, 110, default_rng(11))


def test_subsample_stratified_keeps_proportions_and_counts():
    labels = np.array([0] * 100 + [1] * 5)
    x = default_rng(12).standard_normal((105, 2))
    _, sub_labels = subsample(x, labels, 40, default_rng(13))
    # 40 * 100/105 = 38.1 and 40 * 5/105 = 1.9: the spare row goes to class 1
    assert np.bincount(sub_labels).tolist() == [38, 2]


def test_subsample_quota_never_exceeds_its_class():
    # a class of one row among many, and every n up to all rows
    labels = np.array([0] * 9 + [1] + [2] * 3)
    x = np.arange(len(labels), dtype=np.float64)[:, None]
    for n in range(1, len(labels) + 1):
        sub, sub_labels = subsample(x, labels, n, default_rng(n))
        assert len(sub) == n
        assert len(np.unique(sub)) == n  # no row drawn twice
        assert np.all(np.bincount(sub_labels, minlength=3) <= np.bincount(labels))


# --- the rows match the earlier Dataset-based split and subsample ------------

def _reference_split_idx(n, test_fraction, rng):
    """(train_idx, test_idx) as the earlier `Dataset.split` attached them."""
    n_test = int(round(n * test_fraction))
    order = rng.permutation(n)
    return np.sort(order[n_test:]), np.sort(order[:n_test])


def _reference_proportional(counts, n):
    total = int(counts.sum())
    quotas, remainders = np.divmod(n * counts, total)
    order = np.argsort(-remainders, kind="stable")
    quotas[order[:n - int(quotas.sum())]] += 1
    return quotas


def _reference_subsample_idx(labels, n_train, n_test, rng):
    """(train_idx, test_idx) of the earlier two-partition stratified
    `subsample`, as indices into the full data."""
    classes, counts = np.unique(labels, return_counts=True)
    take_train = _reference_proportional(counts, n_train)
    take_test = _reference_proportional(counts, n_test)
    assert np.all(take_train + take_test <= counts)
    train_parts, test_parts = [], []
    for cls, n_tr, n_te in zip(classes, take_train, take_test):
        cls_idx = np.flatnonzero(labels == cls)
        cls_idx = cls_idx[rng.permutation(len(cls_idx))]
        train_parts.append(cls_idx[:n_tr])
        test_parts.append(cls_idx[n_tr:n_tr + n_te])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))


@pytest.mark.parametrize("n, fraction", [(20, 0.3), (256, 0.3), (1000, 0.3),
                                         (7, 0.5), (101, 0.01), (50, 0.98)])
def test_split_picks_the_reference_rows(n, fraction):
    x = default_rng(20).standard_normal((n, 2))
    y = np.arange(n)
    train_idx, test_idx = _reference_split_idx(n, fraction, default_rng(21))
    x_train, y_train, x_test, y_test = split(x, y, fraction, default_rng(21))
    np.testing.assert_array_equal(y_train, train_idx)
    np.testing.assert_array_equal(y_test, test_idx)
    np.testing.assert_array_equal(x_train, x[train_idx])
    np.testing.assert_array_equal(x_test, x[test_idx])


# a tenth of the per-class row counts of the official MNIST training file,
# 5996 rows in all
MNIST_TENTH = [592, 674, 595, 613, 584, 542, 591, 626, 585, 594]


@pytest.mark.parametrize("counts, n", [
    ([10] * 10, 40),
    ([100, 5], 40),
    (MNIST_TENTH, 1),
    (MNIST_TENTH, 333),
    (MNIST_TENTH, 1000),
    (MNIST_TENTH, 5995),
    (MNIST_TENTH, 5996),
])
def test_subsample_picks_the_reference_rows(counts, n):
    # the studies drew with no test partition; with one, the train rows of
    # the earlier subsample are the same
    labels = np.repeat(np.arange(len(counts)), counts)
    labels = labels[default_rng(22).permutation(len(labels))]
    x = np.arange(len(labels), dtype=np.float64)[:, None] * 0.5
    sub, sub_labels = subsample(x, labels, n, default_rng(23))
    for n_test in (0, (len(labels) - n) // 2):
        train_idx, _ = _reference_subsample_idx(labels, n, n_test, default_rng(23))
        np.testing.assert_array_equal(sub, x[train_idx])
        np.testing.assert_array_equal(sub_labels, labels[train_idx])
