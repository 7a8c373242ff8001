"""The float64 array constructor, seeded RNG substreams, and a
finite-difference gradient checker.

Everything is backed by C-contiguous float64 numpy arrays.  Accumulation order
is numpy's row-major order, so results are bit-reproducible on a given
platform.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Tensor shapes do not satisfy an operation's contract."""


def tensor(data) -> np.ndarray:
    """Materialize `data` as a C-contiguous float64 array."""
    return np.ascontiguousarray(np.asarray(data, dtype=np.float64))


# ---------------------------------------------------------------------------
# Seeded randomness.  PCG64 with SeedSequence entropy gives identical streams
# for identical (seed, key) on every platform; substreams derived from string
# keys are independent of call order.
# ---------------------------------------------------------------------------

def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


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
    """The default finite-difference step at `x`: 1e-6, scaled up by the
    largest magnitude in `x` when that exceeds 1."""
    return 1e-6 * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)


def finite_diff_check(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    analytic_jvp: Callable[[np.ndarray], np.ndarray],
    probes: int = 20,
    step: float | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic Jacobian-vector products against central differences.

    For `probes` random unit directions v, evaluates
    (f(x + h v) - f(x - h v)) / 2h against analytic_jvp(v) and returns the
    worst relative error seen, with relative = |a-b| / max(1, |a|, |b|).
    A NaN or Inf on either side makes the result inf.
    """
    x = tensor(x)
    if rng is None:
        rng = make_rng(0)
    if step is None:
        step = central_step(x)
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
