"""Seeded synthetic data in the MNIST IDX format.

Each class gets a prototype "digit" of three blurred strokes inside the
central 20x20 box of a 28x28 image.  A sample is its class prototype shifted
by up to two pixels, scaled by a random stroke intensity and perturbed by
noise on the stroke pixels only, so the background stays exactly zero as in
MNIST.  Class counts follow MNIST's published per-class proportions.  Files
are written with `wendnet.datasets.write_idx_images` / `write_idx_labels`,
so the program reads them through `load_idx` exactly as it reads real data.
"""

from __future__ import annotations

import numpy as np

SIDE = 28
# per-digit image counts of the official MNIST training and test sets
MNIST_TRAIN_COUNTS = (5923, 6742, 5958, 6131, 5842, 5421, 5918, 6265, 5851, 5949)
MNIST_TEST_COUNTS = (980, 1135, 1032, 1010, 982, 892, 958, 1028, 974, 1009)


def class_counts(total: int, reference) -> np.ndarray:
    """Split `total` rows over the classes in `reference` proportions
    (largest-remainder rounding, ties to the lower class index)."""
    ref = np.asarray(reference, dtype=np.float64)
    exact = total * ref / ref.sum()
    counts = np.floor(exact).astype(np.int64)
    short = total - int(counts.sum())
    order = np.argsort(-(exact - counts), kind="stable")
    counts[order[:short]] += 1
    return counts


def _prototypes(rng: np.random.Generator) -> np.ndarray:
    protos = np.zeros((10, SIDE, SIDE))
    t = np.linspace(0.0, 1.0, 60)
    for c in range(10):
        for _ in range(3):
            (y0, x0), (y1, x1) = rng.uniform(6.0, 21.0, size=(2, 2))
            ys = np.rint(y0 + (y1 - y0) * t).astype(int)
            xs = np.rint(x0 + (x1 - x0) * t).astype(int)
            protos[c, ys, xs] = 1.0
        # 3x3 box blur thickens the strokes; the 4-pixel margin keeps
        # shifted strokes away from the border
        p = protos[c]
        blurred = sum(np.roll(np.roll(p, dy, 0), dx, 1)
                      for dy in (-1, 0, 1) for dx in (-1, 0, 1))
        protos[c] = np.minimum(1.0, blurred / 3.0)
    return protos


def make_images(counts: np.ndarray, protos: np.ndarray,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """uint8 images of shape (sum(counts), 28, 28) and their labels, in a
    seeded random order."""
    labels = np.repeat(np.arange(10, dtype=np.uint8), counts)
    labels = labels[rng.permutation(labels.size)]
    images = np.zeros((labels.size, SIDE, SIDE), dtype=np.uint8)
    shifts = rng.integers(-2, 3, size=(labels.size, 2))
    for c in range(10):
        for dy in range(-2, 3):
            for dx in range(-2, 3):
                rows = np.flatnonzero((labels == c) & (shifts[:, 0] == dy)
                                      & (shifts[:, 1] == dx))
                if rows.size == 0:
                    continue
                proto = np.roll(np.roll(protos[c], dy, 0), dx, 1)
                stroke = proto > 0.05
                level = rng.uniform(0.7, 1.0, size=(rows.size, 1, 1))
                noise = rng.normal(0.0, 0.1, size=(rows.size, SIDE, SIDE))
                pix = np.clip(proto * level + noise, 0.0, 1.0) * stroke
                images[rows] = np.rint(pix * 255.0).astype(np.uint8)
    return images, labels


def write_mnist_like(out_dir, seed: int, n_train_file: int, n_test_file: int,
                     write_idx_images, write_idx_labels) -> dict[str, str]:
    """Write the four MNIST-named IDX files under `out_dir` and return the
    config's `dataset` path entries."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 784]))
    protos = _prototypes(rng)
    paths = {}
    for split, n, ref in (("train", n_train_file, MNIST_TRAIN_COUNTS),
                          ("t10k", n_test_file, MNIST_TEST_COUNTS)):
        images, labels = make_images(class_counts(n, ref), protos, rng)
        key = "train" if split == "train" else "test"
        img = out_dir / f"{split}-images-idx3-ubyte"
        lab = out_dir / f"{split}-labels-idx1-ubyte"
        write_idx_images(img, images)
        write_idx_labels(lab, labels)
        paths[f"{key}_images"] = str(img)
        paths[f"{key}_labels"] = str(lab)
    return paths
