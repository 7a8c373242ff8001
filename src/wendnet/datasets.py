"""Synthetic toy datasets (sine wave, two moons, concentric circles), a
bit-exact loader for the MNIST/Fashion-MNIST IDX binary format that reads
only the rows of a seeded stratified subsample, and the seeded train/test
split.

Everything returns plain arrays: features first, then targets or class
labels.  All generators are seeded and exactly reproducible; with
noise_sd=0 the points lie exactly on the stated manifolds.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .tensor import ConfigError


def split(x: np.ndarray, y: np.ndarray, test_fraction: float,
          rng: np.random.Generator):
    """Seeded disjoint train/test split of the rows of (x, y), each side in
    row order: (x_train, y_train, x_test, y_test).  Both sides must keep at
    least one row."""
    n = len(x)
    if not 0 < test_fraction < 1:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = int(round(n * test_fraction))
    if not 0 < n_test < n:
        raise ConfigError(f"test_fraction {test_fraction} of {n} rows leaves "
                          f"{n - n_test} training and {n_test} test rows")
    order = rng.permutation(n)
    test_idx = np.sort(order[:n_test])
    train_idx = np.sort(order[n_test:])
    return x[train_idx], y[train_idx], x[test_idx], y[test_idx]


def sample_sine(n: int, x_range, noise_sd: float, rng: np.random.Generator):
    """(x, y): x uniform on [lo, hi], y = sin(x) + Gaussian(0, noise_sd)."""
    lo, hi = x_range
    if n < 1:
        raise ConfigError("n must be >= 1")
    if not lo < hi:
        raise ConfigError(f"invalid x range [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"x range [{lo}, {hi}] is wider than a float can hold")
    if noise_sd < 0:
        raise ConfigError("noise_sd must be >= 0")
    x = rng.uniform(lo, hi, size=(n, 1))
    y = np.sin(x)
    if noise_sd > 0:
        y = y + rng.normal(0.0, noise_sd, size=y.shape)
    return x, y


def _two_classes(x0, x1, noise_sd: float, rng):
    """(x, labels): class-0 points `x0` stacked over class-1 points `x1`,
    plus Gaussian noise of scale noise_sd on every coordinate."""
    if noise_sd < 0:
        raise ConfigError("noise_sd must be >= 0")
    x = np.vstack([x0, x1])
    labels = np.concatenate([np.zeros(len(x0), dtype=np.int64),
                             np.ones(len(x1), dtype=np.int64)])
    if noise_sd > 0:
        x = x + rng.normal(0.0, noise_sd, size=x.shape)
    return x, labels


def make_moons(n: int, noise_sd: float, rng: np.random.Generator):
    """Two interleaved half-circle arcs, as (x, labels).

    Class 0: (cos t, sin t), class 1: (1 - cos t, 0.5 - sin t), t uniform on
    [0, pi]; Gaussian noise of scale noise_sd on both coordinates.
    """
    if n < 2:
        raise ConfigError("n must be >= 2")
    n0 = (n + 1) // 2
    n1 = n - n0
    t0 = rng.uniform(0.0, np.pi, size=n0)
    t1 = rng.uniform(0.0, np.pi, size=n1)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    return _two_classes(upper, lower, noise_sd, rng)


def make_circles(n: int, noise_sd: float, factor: float, rng: np.random.Generator):
    """Outer unit circle (class 0) and inner circle of radius `factor`
    (class 1), as (x, labels); angles uniform, Gaussian noise on both
    coordinates."""
    if n < 2:
        raise ConfigError("n must be >= 2")
    if not 0.0 < factor < 1.0:
        raise ConfigError(f"factor must be in (0, 1), got {factor}")
    n0 = (n + 1) // 2
    n1 = n - n0
    a0 = rng.uniform(0.0, 2.0 * np.pi, size=n0)
    a1 = rng.uniform(0.0, 2.0 * np.pi, size=n1)
    outer = np.column_stack([np.cos(a0), np.sin(a0)])
    inner = factor * np.column_stack([np.cos(a1), np.sin(a1)])
    return _two_classes(outer, inner, noise_sd, rng)


# ---------------------------------------------------------------------------
# IDX binary format: big-endian, magic 0x00000803 for image files
# (count x rows x cols of unsigned bytes) and 0x00000801 for label files.
# ---------------------------------------------------------------------------

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
_CHUNK_BYTES = 1 << 20  # most image bytes `load_idx` reads at once


def _read_u32(buf: bytes, offset: int, path) -> int:
    if offset + 4 > len(buf):
        raise ConfigError(f"{path}: truncated at byte {offset}, expected 4-byte field")
    return struct.unpack_from(">I", buf, offset)[0]


def _idx_shape(f, path, magic: int, dims: int) -> list[int]:
    """Dimension sizes (item count first) of the open IDX file `f` whose
    magic and size check out, read from its header alone; `f` is left at
    its first data byte, 4 + 4 * dims."""
    head = f.read(4 + 4 * dims)
    found = _read_u32(head, 0, path)
    if found != magic:
        raise ConfigError(
            f"{path}: bad magic 0x{found:08x} at byte 0, expected 0x{magic:08x}")
    shape = [_read_u32(head, 4 + 4 * i, path) for i in range(dims)]
    expected = 4 + 4 * dims + math.prod(shape)
    size = os.fstat(f.fileno()).st_size
    if size != expected:
        raise ConfigError(
            f"{path}: size {size} bytes, expected {expected} "
            f"(truncated after byte {min(size, expected)})")
    return shape


def _read_into(f, out: np.ndarray, path) -> np.ndarray:
    """Fill `out` with the next bytes of `f`; a short read is an error."""
    start = f.tell()
    got = f.readinto(out)
    if got != out.nbytes:
        raise ConfigError(f"{path}: read {got} of {out.nbytes} bytes at byte {start}")
    return out


def _read_rows(f, path, keep: np.ndarray, count: int, width: int) -> np.ndarray:
    """Rows `keep` (sorted, distinct) of the `count` rows of `width` bytes
    that start at byte 16 of the open image file `f`.  Each read covers the
    kept rows among the next `_CHUNK_BYTES` of rows (one row, if a row is
    longer) from the first row not yet read."""
    out = np.empty((len(keep), width), dtype=np.uint8)
    per_chunk = max(1, _CHUNK_BYTES // max(width, 1))
    chunk = np.empty((min(per_chunk, count), width), dtype=np.uint8)
    j = 0
    while j < len(keep):
        first = int(keep[j])
        end = int(np.searchsorted(keep, first + per_chunk))
        block = chunk[:int(keep[end - 1]) - first + 1]
        f.seek(16 + first * width)
        _read_into(f, block, path)
        out[j:end] = block[keep[j:end] - first]
        j = end
    return out


def load_idx(images_path, labels_path, n: int, rng: np.random.Generator):
    """`n` rows of an IDX image/label pair, drawn by `subsample` from the
    labels, in file order: (uint8 pixels, one row-major flattened image per
    row; int64 labels).  Of the image file only the header and the kept
    rows are read; `n` equal to the file's count gives every row."""
    with open(images_path, "rb") as f:
        count, rows, cols = _idx_shape(f, images_path, IDX_IMAGE_MAGIC, 3)
        with open(labels_path, "rb") as g:
            (n_labels,) = _idx_shape(g, labels_path, IDX_LABEL_MAGIC, 1)
            labels = _read_into(g, np.empty(n_labels, dtype=np.uint8), labels_path)
        if count != n_labels:
            raise ConfigError(f"item count mismatch: {count} images in {images_path}, "
                              f"{n_labels} labels in {labels_path}")
        if n > count:
            raise ConfigError(f"requested {n} rows but {images_path} has {count}")
        keep = subsample(labels, n, rng)
        pixels = _read_rows(f, images_path, keep, count, rows * cols)
    return pixels, labels[keep].astype(np.int64)


def write_idx_images(path, images: np.ndarray):
    """Write (n, rows, cols) uint8 pixels as an IDX image file; used for
    fixtures and round-trip checks."""
    arr = np.ascontiguousarray(images, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, arr.shape[0], arr.shape[1], arr.shape[2]))
        f.write(arr.data)


def write_idx_labels(path, labels: np.ndarray):
    arr = np.ascontiguousarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, arr.shape[0]))
        f.write(arr.data)


def _proportional(counts: np.ndarray, n: int) -> np.ndarray:
    """Split n rows over classes in proportion to `counts`; remainders go to
    the largest fractional shares, ties to the lower class."""
    total = int(counts.sum())
    quotas, remainders = np.divmod(n * counts, total)
    order = np.argsort(-remainders, kind="stable")
    quotas[order[:n - int(quotas.sum())]] += 1
    return quotas


def subsample(labels: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of `n` seeded rows in class proportion.

    Each class gives its largest-remainder share of `n`, drawn by one
    permutation of its rows, so the total is exact.
    """
    if n > len(labels):
        raise ConfigError(f"requested {n} rows but the data have {len(labels)}")
    classes, counts = np.unique(labels, return_counts=True)
    # no quota exceeds its class: with n <= N rows, a class of c rows gets
    # floor(n c / N), plus one only where n c / N has a fractional part, so
    # at most ceil(n c / N) <= c
    parts = []
    for cls, take in zip(classes, _proportional(counts, n)):
        cls_idx = np.flatnonzero(labels == cls)
        parts.append(cls_idx[rng.permutation(len(cls_idx))][:take])
    return np.sort(np.concatenate(parts))
