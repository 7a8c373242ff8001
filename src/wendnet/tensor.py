"""The float64 array constructor and the rule by which data rows enter,
seeded RNG substreams, a finite-difference gradient checker, and
`ConfigError`, the package's one exception class: bad input of every kind.

Everything the engine computes with is a C-contiguous float64 numpy array.
Data become float64 only where they enter: `features` turns stored `uint8`
pixels into intensities in [0, 1], and anything else goes through `tensor`.
Accumulation order is numpy's row-major order, so results are
bit-reproducible on a given platform.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np


class ConfigError(ValueError):
    """Bad input: a config, a dataset parameter, an IDX file, or data that
    do not fit the architecture; `wendnet run` exits 2 on it."""


def tensor(data) -> np.ndarray:
    """Materialize `data` as a C-contiguous float64 array."""
    return np.ascontiguousarray(np.asarray(data, dtype=np.float64))


def features(data) -> np.ndarray:
    """Materialize data rows as a C-contiguous float64 array: a `uint8` array
    holds stored pixel intensities and enters as `data / 255.0` (NumPy casts
    each byte to float64 and divides, so the bits are those of casting
    first); anything else enters through `tensor` unscaled."""
    if isinstance(data, np.ndarray) and data.dtype == np.uint8:
        return tensor(data / 255.0)
    return tensor(data)


# ---------------------------------------------------------------------------
# Seeded randomness.  PCG64 with SeedSequence entropy gives identical streams
# for identical (seed, key) on every platform; substreams derived from string
# keys are independent of call order.
# ---------------------------------------------------------------------------

def _key_to_int(key) -> int:
    if isinstance(key, int):
        return key
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def substream(seed: int, *keys) -> np.random.Generator:
    """Derive an independent generator from a root seed and a path of keys.

    Keys may be ints or strings; the same (seed, keys) always yields the same
    stream regardless of what other substreams were drawn.
    """
    entropy = [int(seed)] + [_key_to_int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# ---------------------------------------------------------------------------
# Finite-difference gradient checking.
# ---------------------------------------------------------------------------

def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max over components of |a-b| / max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def central_step(x: np.ndarray) -> float:
    """A finite-difference step for `x`: 1e-6, scaled up by the largest
    magnitude in `x` when that exceeds 1."""
    return 1e-6 * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)


def finite_diff_check(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    analytic_jvp: Callable[[np.ndarray], np.ndarray],
    probes: int,
    step: float,
    rng: np.random.Generator,
) -> float:
    """Compare analytic Jacobian-vector products against central differences.

    For `probes` unit directions v drawn from `rng`, evaluates
    (f(x + h v) - f(x - h v)) / 2h at h = `step` against analytic_jvp(v)
    and returns the worst relative error seen, with
    relative = |a-b| / max(1, |a|, |b|).
    A NaN or Inf on either side makes the result inf.
    """
    x = tensor(x)
    worst = 0.0
    for _ in range(probes):
        v = rng.standard_normal(x.shape)
        norm = np.sqrt(np.sum(v * v))
        if norm == 0.0:
            continue
        v /= norm
        fp = np.asarray(f(x + step * v), dtype=np.float64)
        fm = np.asarray(f(x - step * v), dtype=np.float64)
        numeric = (fp - fm) / (2.0 * step)
        analytic = np.asarray(analytic_jvp(v), dtype=np.float64)
        err = relative_error(analytic, numeric)
        # a non-finite value on either side gives a NaN error, which max()
        # would silently drop
        if not np.isfinite(err):
            return float("inf")
        worst = max(worst, err)
    return worst
