"""Dataset generators and the IDX loader."""

import numpy as np
import pytest

from wendnet.datasets import (
    DataConfigError,
    IdxParseError,
    load_idx,
    make_circles,
    make_moons,
    sample_sine,
    subsample,
    write_idx_images,
    write_idx_labels,
)
from wendnet.tensor import make_rng


def test_sine_noiseless_on_curve():
    ds = sample_sine(500, (-np.pi, np.pi), 0.0, make_rng(0))
    np.testing.assert_allclose(ds.targets[:, 0], np.sin(ds.features[:, 0]), atol=0)


def test_sine_deterministic():
    a = sample_sine(1000, (-1, 1), 0.1, make_rng(42))
    b = sample_sine(1000, (-1, 1), 0.1, make_rng(42))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, b.targets)


def test_sine_invalid_range():
    with pytest.raises(DataConfigError):
        sample_sine(10, (1.0, 1.0), 0.0, make_rng(0))
    with pytest.raises(DataConfigError):
        sample_sine(10, (-1, 1), -0.1, make_rng(0))


def test_moons_arc_endpoints():
    # noiseless points lie exactly on the two parameterized arcs
    ds = make_moons(1000, 0.0, make_rng(1))
    x = ds.features
    upper = x[ds.labels == 0]
    lower = x[ds.labels == 1]
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
        ds = make_moons(n, 0.1, make_rng(2))
        counts = np.bincount(ds.labels)
        assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_circles_noiseless_radii():
    ds = make_circles(800, 0.0, factor=0.5, rng=make_rng(3))
    radii = np.hypot(ds.features[:, 0], ds.features[:, 1])
    np.testing.assert_allclose(radii[ds.labels == 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(radii[ds.labels == 1], 0.5, atol=1e-12)
    # separable in the radius feature with margin 0.5
    assert radii[ds.labels == 0].min() - radii[ds.labels == 1].max() == pytest.approx(0.5, abs=1e-12)


def test_circles_invalid_factor():
    for factor in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DataConfigError):
            make_circles(10, 0.0, factor=factor, rng=make_rng(0))


def test_generators_deterministic():
    for gen in (lambda r: make_moons(200, 0.2, r),
                lambda r: make_circles(200, 0.1, 0.5, r)):
        a = gen(make_rng(5))
        b = gen(make_rng(5))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


# --- IDX format -------------------------------------------------------------

def test_idx_round_trip(tmp_path):
    rng = make_rng(6)
    images = rng.integers(0, 256, size=(7, 5, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7, dtype=np.uint8)
    ip = tmp_path / "imgs"
    lp = tmp_path / "lbls"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    ds = load_idx(ip, lp)
    np.testing.assert_array_equal(ds.features,
                                  images.reshape(7, 25).astype(np.float64) / 255.0)
    np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))


def test_idx_all_zero_images(tmp_path):
    write_idx_images(tmp_path / "imgs", np.zeros((2, 4, 4), dtype=np.uint8))
    write_idx_labels(tmp_path / "lbls", np.zeros(2, dtype=np.uint8))
    ds = load_idx(tmp_path / "imgs", tmp_path / "lbls")
    assert ds.features.shape == (2, 16)
    assert np.all(ds.features == 0.0)


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
    data = open(tmp_path / "imgs", "rb").read()
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


# --- subsampling ------------------------------------------------------------

def _toy_labeled(n=100, classes=10):
    rng = make_rng(7)
    from wendnet.datasets import Dataset
    labels = np.tile(np.arange(classes), n // classes)
    return Dataset(features=rng.standard_normal((n, 3)), labels=labels)


def test_subsample_full_permutation():
    ds = _toy_labeled()
    sub = subsample(ds, 100, 0, rng=make_rng(8))
    assert sub.features.shape == ds.features.shape
    assert sorted(map(tuple, sub.features)) == sorted(map(tuple, ds.features))


def test_subsample_stratified_balanced():
    ds = _toy_labeled(n=1000, classes=10)
    sub = subsample(ds, 100, 50, stratified=True, rng=make_rng(9))
    train_labels = sub.labels[sub.train_idx]
    assert np.all(np.bincount(train_labels, minlength=10) == 10)
    test_labels = sub.labels[sub.test_idx]
    assert np.all(np.bincount(test_labels, minlength=10) == 5)
    assert len(np.intersect1d(sub.train_idx, sub.test_idx)) == 0


def test_subsample_deterministic():
    ds = _toy_labeled(n=200)
    a = subsample(ds, 50, 20, stratified=True, rng=make_rng(10))
    b = subsample(ds, 50, 20, stratified=True, rng=make_rng(10))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.train_idx, b.train_idx)


def test_subsample_insufficient_rows():
    ds = _toy_labeled(n=100)
    with pytest.raises(DataConfigError):
        subsample(ds, 90, 20, rng=make_rng(11))


def test_subsample_stratified_keeps_proportions_and_counts():
    from wendnet.datasets import Dataset
    labels = np.array([0] * 100 + [1] * 5)
    ds = Dataset(features=make_rng(12).standard_normal((105, 2)), labels=labels)
    sub = subsample(ds, 40, 20, stratified=True, rng=make_rng(13))
    # 40 * 100/105 = 38.1 and 40 * 5/105 = 1.9: the spare row goes to class 1
    assert np.bincount(sub.labels[sub.train_idx]).tolist() == [38, 2]
    assert np.bincount(sub.labels[sub.test_idx]).tolist() == [19, 1]
    assert len(np.intersect1d(sub.train_idx, sub.test_idx)) == 0


def test_subsample_stratified_class_too_small():
    from wendnet.datasets import Dataset
    ds = Dataset(features=np.zeros((10, 2)), labels=np.array([0] * 9 + [1]))
    # 5/5 rounds to five class-0 rows in each partition, but class 0 has 9
    with pytest.raises(DataConfigError, match="class 0"):
        subsample(ds, 5, 5, stratified=True, rng=make_rng(14))
