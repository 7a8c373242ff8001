"""Synthetic toy datasets (sine wave, two moons, concentric circles) and a
bit-exact loader for the MNIST/Fashion-MNIST IDX binary format.

All generators are seeded and exactly reproducible; with noise_sd=0 the
points lie exactly on the stated manifolds.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .tensor import tensor


class DataConfigError(ValueError):
    """Invalid generator parameters."""


class IdxParseError(ValueError):
    """An IDX file failed to parse; the message carries the byte offset."""


@dataclass
class Dataset:
    """Feature matrix plus either regression targets or class indices."""

    features: np.ndarray            # (n, d) float64
    targets: np.ndarray | None = None   # (n, c) float64 regression targets
    labels: np.ndarray | None = None    # (n,) int class indices
    train_idx: np.ndarray | None = None
    test_idx: np.ndarray | None = None
    note: str = ""

    def __post_init__(self):
        n = self.features.shape[0]
        if self.targets is not None and self.targets.shape[0] != n:
            raise DataConfigError("target row count does not match features")
        if self.labels is not None and self.labels.shape[0] != n:
            raise DataConfigError("label count does not match features")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def split(self, test_fraction: float, rng: np.random.Generator) -> "Dataset":
        """Attach a seeded disjoint train/test split covering all rows."""
        order = rng.permutation(self.n)
        n_test = int(round(self.n * test_fraction))
        self.test_idx = np.sort(order[:n_test])
        self.train_idx = np.sort(order[n_test:])
        return self


def sample_sine(n: int, x_range=(-np.pi, np.pi), noise_sd: float = 0.0,
                rng: np.random.Generator | None = None) -> Dataset:
    """x uniform on [lo, hi], y = sin(x) + Gaussian(0, noise_sd)."""
    lo, hi = x_range
    if n < 1:
        raise DataConfigError("n must be >= 1")
    if not lo < hi:
        raise DataConfigError(f"invalid x range [{lo}, {hi}]")
    if noise_sd < 0:
        raise DataConfigError("noise_sd must be >= 0")
    if rng is None:
        raise DataConfigError("a seeded rng is required")
    x = rng.uniform(lo, hi, size=(n, 1))
    y = np.sin(x)
    if noise_sd > 0:
        y = y + rng.normal(0.0, noise_sd, size=y.shape)
    return Dataset(features=tensor(x), targets=tensor(y),
                   note=f"sine n={n} range=[{lo:g},{hi:g}] noise={noise_sd:g}")


def _two_classes(x0, x1, noise_sd: float, rng, note: str) -> Dataset:
    """Class-0 points `x0` stacked over class-1 points `x1`, plus Gaussian
    noise of scale noise_sd on every coordinate."""
    x = np.vstack([x0, x1])
    labels = np.concatenate([np.zeros(len(x0), dtype=np.int64),
                             np.ones(len(x1), dtype=np.int64)])
    if noise_sd > 0:
        x = x + rng.normal(0.0, noise_sd, size=x.shape)
    return Dataset(features=tensor(x), labels=labels, note=note)


def make_moons(n: int, noise_sd: float = 0.0,
               rng: np.random.Generator | None = None) -> Dataset:
    """Two interleaved half-circle arcs.

    Class 0: (cos t, sin t), class 1: (1 - cos t, 0.5 - sin t), t uniform on
    [0, pi]; Gaussian noise of scale noise_sd on both coordinates.
    """
    if n < 2:
        raise DataConfigError("n must be >= 2")
    if rng is None:
        raise DataConfigError("a seeded rng is required")
    n0 = (n + 1) // 2
    n1 = n - n0
    t0 = rng.uniform(0.0, np.pi, size=n0)
    t1 = rng.uniform(0.0, np.pi, size=n1)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    return _two_classes(upper, lower, noise_sd, rng, f"moons n={n} noise={noise_sd:g}")


def make_circles(n: int, noise_sd: float = 0.0, factor: float = 0.5,
                 rng: np.random.Generator | None = None) -> Dataset:
    """Outer unit circle (class 0) and inner circle of radius `factor`
    (class 1), angles uniform, Gaussian noise on both coordinates."""
    if n < 2:
        raise DataConfigError("n must be >= 2")
    if not 0.0 < factor < 1.0:
        raise DataConfigError(f"factor must be in (0, 1), got {factor}")
    if rng is None:
        raise DataConfigError("a seeded rng is required")
    n0 = (n + 1) // 2
    n1 = n - n0
    a0 = rng.uniform(0.0, 2.0 * np.pi, size=n0)
    a1 = rng.uniform(0.0, 2.0 * np.pi, size=n1)
    outer = np.column_stack([np.cos(a0), np.sin(a0)])
    inner = factor * np.column_stack([np.cos(a1), np.sin(a1)])
    return _two_classes(outer, inner, noise_sd, rng,
                        f"circles n={n} noise={noise_sd:g} factor={factor:g}")


# ---------------------------------------------------------------------------
# IDX binary format: big-endian, magic 0x00000803 for image files
# (count x rows x cols of unsigned bytes) and 0x00000801 for label files.
# ---------------------------------------------------------------------------

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def _read_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise IdxParseError(f"{path}: truncated at byte {offset}, expected 4-byte field")
    return struct.unpack_from(">I", buf, offset)[0]


def _read_idx(path, magic: int, dims: int) -> tuple[bytes, list[int]]:
    """Bytes and dimension sizes (item count first) of an IDX file whose
    magic and size check out; its data start at byte 4 + 4 * dims."""
    with open(path, "rb") as f:
        buf = f.read()
    found = _read_u32(buf, 0, str(path))
    if found != magic:
        raise IdxParseError(
            f"{path}: bad magic 0x{found:08x} at byte 0, expected 0x{magic:08x}")
    shape = [_read_u32(buf, 4 + 4 * i, str(path)) for i in range(dims)]
    expected = 4 + 4 * dims + math.prod(shape)
    if len(buf) != expected:
        raise IdxParseError(
            f"{path}: size {len(buf)} bytes, expected {expected} "
            f"(truncated after byte {min(len(buf), expected)})")
    return buf, shape


def _load_idx_images(path) -> np.ndarray:
    buf, (count, rows, cols) = _read_idx(path, IDX_IMAGE_MAGIC, 3)
    return np.frombuffer(buf, dtype=np.uint8, offset=16).reshape(count, rows * cols)


def _load_idx_labels(path) -> np.ndarray:
    buf, _ = _read_idx(path, IDX_LABEL_MAGIC, 1)
    return np.frombuffer(buf, dtype=np.uint8, offset=8).astype(np.int64)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label pair; pixels scaled to [0, 1], images
    flattened row-major."""
    images = _load_idx_images(images_path)
    labels = _load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxParseError(
            f"item count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels")
    features = images.astype(np.float64) / 255.0
    return Dataset(features=tensor(features), labels=labels, note=f"idx {images_path}")


def write_idx_images(path, images: np.ndarray):
    """Write (n, rows, cols) or (n, rows*cols) uint8 pixels as an IDX image
    file; used for fixtures and round-trip checks."""
    arr = np.asarray(images, dtype=np.uint8)
    if arr.ndim == 2:
        side = int(round(np.sqrt(arr.shape[1])))
        if side * side != arr.shape[1]:
            raise DataConfigError("flattened images must be square")
        arr = arr.reshape(arr.shape[0], side, side)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, arr.shape[0], arr.shape[1], arr.shape[2]))
        f.write(arr.tobytes())


def write_idx_labels(path, labels: np.ndarray):
    arr = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, arr.shape[0]))
        f.write(arr.tobytes())


def _proportional(counts: np.ndarray, n: int) -> np.ndarray:
    """Split n rows over classes in proportion to `counts`; remainders go to
    the largest fractional shares, ties to the lower class."""
    total = int(counts.sum())
    quotas, remainders = np.divmod(n * counts, total)
    order = np.argsort(-remainders, kind="stable")
    quotas[order[:n - int(quotas.sum())]] += 1
    return quotas


def subsample(ds: Dataset, n_train: int, n_test: int, stratified: bool = False,
              rng: np.random.Generator | None = None) -> Dataset:
    """Seeded subset of `ds` with a recorded train/test split.

    With stratified=True the per-class proportions of `ds` are preserved in
    both partitions (requires class labels); each partition's class counts
    are rounded by largest remainder, so the totals are exact.
    """
    if rng is None:
        raise DataConfigError("a seeded rng is required")
    if n_train + n_test > ds.n:
        raise DataConfigError(
            f"requested {n_train}+{n_test} rows but dataset has {ds.n}")
    if stratified:
        if ds.labels is None:
            raise DataConfigError("stratified subsample requires class labels")
        classes, counts = np.unique(ds.labels, return_counts=True)
        take_train = _proportional(counts, n_train)
        take_test = _proportional(counts, n_test)
        short = take_train + take_test > counts
        if np.any(short):
            cls = classes[short][0]
            raise DataConfigError(
                f"class {cls} has {counts[short][0]} rows, too few for a "
                f"proportional {n_train}/{n_test} train/test split")
        train_parts, test_parts = [], []
        for cls, n_tr, n_te in zip(classes, take_train, take_test):
            cls_idx = np.flatnonzero(ds.labels == cls)
            cls_idx = cls_idx[rng.permutation(len(cls_idx))]
            train_parts.append(cls_idx[:n_tr])
            test_parts.append(cls_idx[n_tr:n_tr + n_te])
        train_idx = np.sort(np.concatenate(train_parts))
        test_idx = np.sort(np.concatenate(test_parts))
    else:
        order = rng.permutation(ds.n)
        train_idx = np.sort(order[:n_train])
        test_idx = np.sort(order[n_train:n_train + n_test])
    # the subset holds the train rows first, then the test rows
    keep = np.concatenate([train_idx, test_idx])
    return Dataset(
        features=ds.features[keep].copy(),
        targets=ds.targets[keep].copy() if ds.targets is not None else None,
        labels=ds.labels[keep].copy() if ds.labels is not None else None,
        train_idx=np.arange(len(train_idx)),
        test_idx=np.arange(len(train_idx), len(keep)),
        note=ds.note + f" | subsample train={n_train} test={n_test} stratified={stratified}",
    )
