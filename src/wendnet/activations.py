"""Wendland radial basis activations, the enhanced Wendland activation, and
the registry of every activation kind, baselines included, with exact
analytic derivatives.

The classical Wendland forms are the three closed-form members

    phi_c0(r) = (1-r)_+^2
    phi_c2(r) = (1-r)_+^4 (4r+1)
    phi_c4(r) = (1-r)_+^6 (35r^2+18r+3)/3

and the enhanced Wendland radial profile is

    g(r) = (1 - a r)_+^k (k a r + 1) + lam * r + eps * exp(-beta * r)

applied multiplicatively: y = x * g(r), where r is either |x| per element or
the L2 norm of a feature slice.  Compact support of the Wendland component is
exact: it is identically zero for r >= 1/a.

Derivative convention at non-differentiable points (ReLU family at 0,
classical Wendland at the support boundary): the right derivative is used,
consistently across all kinds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.special import erf

from .tensor import ShapeError, tensor


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class ConfigError(ValueError):
    """Invalid activation specification or parameters."""


# ---------------------------------------------------------------------------
# Classical Wendland family (closed forms only).
# ---------------------------------------------------------------------------

def _check_radius(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0):
        raise DomainError("Wendland functions are defined for r >= 0")
    return r


def wendland_c0(r):
    """(1-r)_+^2: continuous, kink in the derivative at r=1."""
    r = _check_radius(r)
    return np.maximum(0.0, 1.0 - r) ** 2


def wendland_c2(r):
    """(1-r)_+^4 (4r+1): twice continuously differentiable."""
    r = _check_radius(r)
    return np.maximum(0.0, 1.0 - r) ** 4 * (4.0 * r + 1.0)


def wendland_c4(r):
    """(1-r)_+^6 (35r^2+18r+3)/3: four times continuously differentiable."""
    r = _check_radius(r)
    return np.maximum(0.0, 1.0 - r) ** 6 * (35.0 * r * r + 18.0 * r + 3.0) / 3.0


def wendland_c0_dr(r):
    r = _check_radius(r)
    return np.where(r < 1.0, -2.0 * (1.0 - r), 0.0)


def wendland_c2_dr(r):
    r = _check_radius(r)
    return np.where(r < 1.0, -20.0 * r * np.maximum(0.0, 1.0 - r) ** 3, 0.0)


def wendland_c4_dr(r):
    r = _check_radius(r)
    p = np.maximum(0.0, 1.0 - r)
    # d/dr [p^6 (35r^2+18r+3)/3] = p^5 (-56r^2 - 14r) * ... expanded below
    return np.where(r < 1.0, p ** 5 * (-6.0 * (35.0 * r * r + 18.0 * r + 3.0)
                                       + p * (70.0 * r + 18.0)) / 3.0, 0.0)


# ---------------------------------------------------------------------------
# Enhanced Wendland parameters and radial profile.
# ---------------------------------------------------------------------------

MODE_ELEMENTWISE = "elem"
MODE_CHANNEL = "channel"

_R_GUARD = 1e-12  # below this, a channel slice is treated as exactly radial-zero


def to_unconstrained(value: float) -> float:
    """Map a strictly positive coefficient to its unconstrained storage."""
    if value <= 0:
        raise ConfigError(f"positive coefficient required, got {value}")
    return float(np.log(value))


def from_unconstrained(raw: float) -> float:
    """Inverse of :func:`to_unconstrained`; always strictly positive."""
    return float(np.exp(raw))


@dataclass
class EnhancedWendlandParams:
    """Coefficients of the enhanced Wendland activation.

    alpha is the inverse support radius (the Wendland bump vanishes at
    r = 1/alpha), k the polynomial degree, lam the linear-term slope, beta the
    exponential decay rate and eps the exponential scale.  By default only
    alpha is trainable; the other coefficients can be unlocked through the
    train_* flags.
    """

    alpha: float = 1.0
    k: int = 4
    lam: float = 0.1
    beta: float = 1.0
    eps: float = 0.01
    train_alpha: bool = True
    train_lam: bool = False
    train_beta: bool = False
    train_eps: bool = False
    mode: str = MODE_ELEMENTWISE
    axis: int = -1

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if self.beta <= 0:
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if not isinstance(self.k, int) or not 1 <= self.k <= 8:
            raise ConfigError(f"k must be an integer in [1, 8], got {self.k!r}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if self.eps < 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.eps}")
        if self.mode not in (MODE_ELEMENTWISE, MODE_CHANNEL):
            raise ConfigError(f"mode must be {MODE_ELEMENTWISE!r} or {MODE_CHANNEL!r}")

    def trainable_names(self) -> tuple[str, ...]:
        return tuple(name for name in ("alpha", "lam", "beta", "eps")
                     if getattr(self, f"train_{name}"))


def _inside_support(r, p: EnhancedWendlandParams):
    # the cutoff is applied against the representable boundary 1/alpha so the
    # Wendland component is exactly zero for every r >= 1/alpha
    return r < 1.0 / p.alpha


def enhanced_radial(r, p: EnhancedWendlandParams):
    """g(r) = (1-ar)_+^k (kar+1) + lam*r + eps*exp(-beta*r), for r >= 0."""
    r = _check_radius(r)
    ar = p.alpha * r
    wend = np.where(_inside_support(r, p),
                    np.maximum(0.0, 1.0 - ar) ** p.k * (p.k * ar + 1.0), 0.0)
    return wend + p.lam * r + p.eps * np.exp(-p.beta * r)


def enhanced_radial_dr(r, p: EnhancedWendlandParams):
    """dg/dr; the Wendland term contributes -k(k+1)a^2 r (1-ar)_+^(k-1)."""
    r = _check_radius(r)
    ar = p.alpha * r
    inside = _inside_support(r, p)
    pos = np.where(inside, np.maximum(0.0, 1.0 - ar), 0.0)
    wend = np.where(inside,
                    -p.k * (p.k + 1.0) * p.alpha ** 2 * r * pos ** (p.k - 1),
                    0.0)
    return wend + p.lam - p.eps * p.beta * np.exp(-p.beta * r)


def enhanced_radial_dparams(r, p: EnhancedWendlandParams) -> dict[str, np.ndarray]:
    """Partials of g(r) with respect to (alpha, lam, beta, eps)."""
    r = _check_radius(r)
    ar = p.alpha * r
    inside = _inside_support(r, p)
    pos = np.where(inside, np.maximum(0.0, 1.0 - ar), 0.0)
    d_alpha = np.where(
        inside,
        -p.k * r * pos ** (p.k - 1) * (p.k * ar + 1.0) + p.k * r * pos ** p.k,
        0.0,
    )
    tail = np.exp(-p.beta * r)
    return {
        "alpha": d_alpha,
        "lam": r.copy() if isinstance(r, np.ndarray) else np.asarray(r, dtype=np.float64),
        "beta": -p.eps * r * tail,
        "eps": tail,
    }


def _channel_radius(x: np.ndarray, p: EnhancedWendlandParams) -> np.ndarray:
    if not -x.ndim <= p.axis < x.ndim:
        raise ConfigError(f"channel axis {p.axis} invalid for input shape {x.shape}")
    return np.sqrt(np.sum(x * x, axis=p.axis, keepdims=True))


def enhanced_forward(x, p: EnhancedWendlandParams) -> np.ndarray:
    """y = x * g(r); r = |x| per element, or the slice norm in channel mode."""
    x = tensor(x)
    if p.mode == MODE_ELEMENTWISE:
        return x * enhanced_radial(np.abs(x), p)
    r = _channel_radius(x, p)
    return x * enhanced_radial(r, p)


def enhanced_backward(x, upstream, p: EnhancedWendlandParams):
    """Gradients of sum(upstream * enhanced_forward(x, p)).

    Returns (input gradient, coefficient gradients).  Coefficients masked as
    non-trainable receive exactly 0.0.
    """
    x = tensor(x)
    upstream = tensor(upstream)
    if upstream.shape != x.shape:
        raise ShapeError(f"upstream shape {upstream.shape} != input shape {x.shape}")

    if p.mode == MODE_ELEMENTWISE:
        r = np.abs(x)
        g = enhanced_radial(r, p)
        dg = enhanced_radial_dr(r, p)
        dx = upstream * (g + r * dg)
        dtheta = enhanced_radial_dparams(r, p)
        ux = upstream * x
        grads = {name: float(np.sum(ux * d)) for name, d in dtheta.items()}
    else:
        r = _channel_radius(x, p)
        g = enhanced_radial(r, p)
        dg = enhanced_radial_dr(r, p)
        ux_sum = np.sum(upstream * x, axis=p.axis, keepdims=True)
        # cross term x_i x_j g'(r)/r; at r ~ 0 the term vanishes in the limit
        safe = r >= _R_GUARD
        ratio = np.where(safe, dg / np.where(safe, r, 1.0), 0.0)
        dx = upstream * g + x * (ux_sum * ratio)
        dtheta = enhanced_radial_dparams(r, p)
        grads = {name: float(np.sum(ux_sum * d)) for name, d in dtheta.items()}

    mask = {"alpha": p.train_alpha, "lam": p.train_lam,
            "beta": p.train_beta, "eps": p.train_eps}
    grads = {name: (grads[name] if mask[name] else 0.0) for name in grads}
    return dx, grads


# ---------------------------------------------------------------------------
# Elementwise value/derivative pairs and coefficient partials.  Each value
# function maps (x, coefficients, training, rng) to (y, dy/dx); each partials
# function maps (x, coefficients) to {coefficient: dy/dcoefficient}.
# ---------------------------------------------------------------------------

def _logistic(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _radial(phi, dphi):
    """Value function of a classical Wendland form applied to r = |x|."""
    def value(x, c, training, rng):
        r = np.abs(x)
        # right derivative at x=0: sign taken as +1 there
        return phi(r), np.where(x >= 0, 1.0, -1.0) * dphi(r)
    return value


def _relu(x, c, training, rng):
    return np.maximum(0.0, x), np.where(x >= 0, 1.0, 0.0)


def _relu6(x, c, training, rng):
    return np.clip(x, 0.0, 6.0), np.where((x >= 0) & (x < 6.0), 1.0, 0.0)


def _leaky(x, c, training, rng):
    s = c["slope"]
    return np.where(x >= 0, x, s * x), np.where(x >= 0, 1.0, s)


def _rrelu(x, c, training, rng):
    lo, hi = c["lo"], c["hi"]
    if training:
        if rng is None:
            raise ConfigError("rrelu in training mode requires an rng")
        s = rng.uniform(lo, hi, size=x.shape)
    else:
        s = 0.5 * (lo + hi)
    return np.where(x >= 0, x, s * x), np.where(x >= 0, 1.0, s)


def _elu(x, c, training, rng):
    a = c["alpha"]
    ex = np.exp(np.minimum(x, 0.0))
    return np.where(x >= 0, x, a * (ex - 1.0)), np.where(x >= 0, 1.0, a * ex)


def _celu(x, c, training, rng):
    a = c["alpha"]
    ex = np.exp(np.minimum(x, 0.0) / a)
    return np.where(x >= 0, x, a * (ex - 1.0)), np.where(x >= 0, 1.0, ex)


def _swish(x, c, training, rng):
    s = _logistic(x)
    return x * s, s * (1.0 + x * (1.0 - s))


def _srelu(x, c, training, rng):
    tl, al, tr, ar = c["tl"], c["al"], c["tr"], c["ar"]
    y = np.where(x < tl, tl + al * (x - tl),
                 np.where(x < tr, x, tr + ar * (x - tr)))
    dy = np.where(x < tl, al, np.where(x < tr, 1.0, ar))
    return y, dy


def _sinlu(x, c, training, rng):
    a, b = c["a"], c["b"]
    s = _logistic(x)
    u = x + a * np.sin(b * x)
    du = 1.0 + a * b * np.cos(b * x)
    return u * s, du * s + u * s * (1.0 - s)


def _frelu(x, c, training, rng):
    a = c["alpha"]
    s = _logistic(a * x)
    return x * s, s + x * a * s * (1.0 - s)


def _sigmoid(x, c, training, rng):
    s = _logistic(x)
    return s, s * (1.0 - s)


def _tanh(x, c, training, rng):
    t = np.tanh(x)
    return t, 1.0 - t * t


def _gelu(x, c, training, rng):
    phi_cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return x * phi_cdf, phi_cdf + x * pdf


def _prelu_partials(x, c):
    return {"slope": np.where(x >= 0, 0.0, x)}


def _sinlu_partials(x, c):
    a, b = c["a"], c["b"]
    s = _logistic(x)
    return {"a": np.sin(b * x) * s, "b": a * x * np.cos(b * x) * s}


def _frelu_partials(x, c):
    a = c["alpha"]
    s = _logistic(a * x)
    return {"alpha": x * x * s * (1.0 - s)}


def _check_rrelu(c):
    if not 0 <= c["lo"] <= c["hi"]:
        raise ConfigError("rrelu: slope range must satisfy 0 <= lo <= hi")


def _at_zero(c):
    return (0.0,)


# ---------------------------------------------------------------------------
# Activation registry: one record per kind.
#
# Text grammar:  spec  := kind | kind "(" pair ("," pair)* ")"
#                pair  := key "=" value
# Values are numbers except ewend's mode (elem|channel) and train, a
# "|"-separated subset of alpha|lambda|beta|eps.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActivationSpec:
    """One activation kind plus its coefficient set."""

    kind: str
    params: dict = field(default_factory=dict)

    def param_count(self) -> int:
        """Number of trainable coefficients this activation carries."""
        return len(KINDS[self.kind].initial(self.params))


def _parse_number(kind: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{kind}: parameter {key}={raw!r} is not a number") from None


@dataclass(frozen=True)
class Kind:
    """Everything wendnet knows about one activation kind; adding a kind
    means adding one record to `KINDS`.  This base covers the elementwise
    kinds, whose coefficients are a dict of floats keyed by their text names."""

    name: str
    value: Callable | None              # (x, c, training, rng) -> (y, dy/dx)
    defaults: dict = field(default_factory=dict)
    trainable: tuple[str, ...] = ()
    partials: Callable | None = None    # (x, c) -> {trainable coeff: dy/dcoeff}
    kinks: Callable = lambda c: ()      # c -> the x where dy/dx jumps
    log_coeffs: tuple[str, ...] = ()    # strictly positive, trained as their log
    check: Callable | None = None       # raises ConfigError on invalid coefficients
    summary: str = ""                   # list-activations text; derived when empty
    wendland: bool = False

    def describe(self) -> str:
        if self.summary:
            return self.summary
        text = " ".join(f"{k}={v:g}" for k, v in self.defaults.items()) or "no parameters"
        if self.trainable:
            text += f"  (trainable: {', '.join(self.trainable)})"
        return text

    def parse(self, pairs: dict[str, str]) -> dict:
        """Coefficients from the text's key=value pairs, defaults filled in."""
        params = dict(self.defaults)
        for key, raw in pairs.items():
            if key not in self.defaults:
                raise ConfigError(f"{self.name}: unknown parameter {key!r}")
            params[key] = _parse_number(self.name, key, raw)
        if self.check is not None:
            self.check(params)
        return params

    def format(self, params) -> str:
        if not params:
            return self.name
        body = ",".join(f"{k}={params[k]:g}" for k in self.defaults)
        return f"{self.name}({body})"

    def initial(self, params) -> dict[str, float]:
        """Natural-space values of the trainable coefficients in `params`."""
        return {name: params[name] for name in self.trainable}

    def bind(self, params, values: dict[str, float]):
        """`params` with the trainable coefficients set to `values`."""
        return {**params, **values}

    def report(self, c) -> dict[str, float]:
        """Coefficient values for the metrics output."""
        return dict(c)

    def forward(self, c, x, training, rng):
        """(y, what `backward` needs besides c and x): here dy/dx."""
        return baseline_eval(self.name, c, x, training, rng)

    def backward(self, c, x, dy, upstream):
        """(input gradient, gradients of the trainable coefficients)."""
        if self.partials is None:
            return upstream * dy, {}
        partials = baseline_param_grads(self.name, c, x)
        return upstream * dy, {name: float(np.sum(upstream * d)) for name, d in partials.items()}


# ewend text keys use "lambda"; the dataclass field for lambda is `lam`
_EWEND_KEYS = ("alpha", "k", "lambda", "beta", "eps", "mode", "train")
_TRAIN_TOKENS = {"alpha": "train_alpha", "lambda": "train_lam",
                 "beta": "train_beta", "eps": "train_eps"}


class _Enhanced(Kind):
    """The `ewend` record: its coefficients are one EnhancedWendlandParams,
    held in the spec as params["ewend"]; the train mask picks the trainable
    ones."""

    def parse(self, pairs: dict[str, str]) -> dict:
        kwargs: dict = {}
        for key, raw in pairs.items():
            if key not in _EWEND_KEYS:
                raise ConfigError(f"ewend: unknown parameter {key!r}")
            if key == "mode":
                kwargs["mode"] = raw.lower()
            elif key == "train":
                tokens = [t for t in raw.lower().split("|") if t]
                for flag in _TRAIN_TOKENS.values():
                    kwargs[flag] = False
                for t in tokens:
                    if t not in _TRAIN_TOKENS:
                        raise ConfigError(f"ewend: unknown train token {t!r}")
                    kwargs[_TRAIN_TOKENS[t]] = True
            elif key == "k":
                val = _parse_number(self.name, key, raw)
                if val != int(val):
                    raise ConfigError(f"ewend: k must be an integer, got {raw!r}")
                kwargs["k"] = int(val)
            else:
                kwargs["lam" if key == "lambda" else key] = _parse_number(self.name, key, raw)
        return {"ewend": EnhancedWendlandParams(**kwargs)}

    def format(self, params) -> str:
        p: EnhancedWendlandParams = params["ewend"]
        train = "|".join(t for t, f in _TRAIN_TOKENS.items() if getattr(p, f))
        parts = [f"alpha={p.alpha:g}", f"k={p.k}", f"lambda={p.lam:g}",
                 f"beta={p.beta:g}", f"eps={p.eps:g}", f"mode={p.mode}"]
        if train != "alpha":
            parts.append(f"train={train}")
        return f"ewend({','.join(parts)})"

    def initial(self, params) -> dict[str, float]:
        p = params["ewend"]
        return {name: getattr(p, name) for name in p.trainable_names()}

    def bind(self, params, values: dict[str, float]):
        return replace(params["ewend"], **values)

    def report(self, p) -> dict[str, float]:
        return {"alpha": p.alpha, "lambda": p.lam, "beta": p.beta, "eps": p.eps}

    def forward(self, p, x, training, rng):
        return enhanced_forward(x, p), None

    def backward(self, p, x, _, upstream):
        return enhanced_backward(x, upstream, p)


def _ewend_kinks(p):
    # for k < 2 the derivative of the Wendland term jumps at the support edge
    return (-1.0 / p.alpha, 1.0 / p.alpha) if p.k < 2 else ()


KINDS: dict[str, Kind] = {rec.name: rec for rec in (
    Kind("wc0", _radial(wendland_c0, wendland_c0_dr), kinks=lambda c: (-1.0, 0.0, 1.0),
         summary="classical Wendland C0, no parameters", wendland=True),
    Kind("wc2", _radial(wendland_c2, wendland_c2_dr),
         summary="classical Wendland C2, no parameters", wendland=True),
    Kind("wc4", _radial(wendland_c4, wendland_c4_dr),
         summary="classical Wendland C4, no parameters", wendland=True),
    _Enhanced("ewend", None, kinks=_ewend_kinks, log_coeffs=("alpha", "beta"),
              summary="alpha=1 k=4 lambda=0.1 beta=1 eps=0.01 mode=elem|channel "
                      "train=alpha[|lambda|beta|eps]  (trainable: per train mask)",
              wendland=True),
    Kind("relu", _relu, kinks=_at_zero),
    Kind("relu6", _relu6, kinks=lambda c: (0.0, 6.0)),
    Kind("lrelu", _leaky, {"slope": 0.01}, kinks=_at_zero),
    Kind("prelu", _leaky, {"slope": 0.25}, ("slope",), _prelu_partials, kinks=_at_zero),
    Kind("rrelu", _rrelu, {"lo": 0.125, "hi": 1.0 / 3.0}, kinks=_at_zero, check=_check_rrelu),
    Kind("elu", _elu, {"alpha": 1.0}, kinks=_at_zero),
    Kind("celu", _celu, {"alpha": 1.0}, kinks=_at_zero),
    Kind("swish", _swish),
    Kind("srelu", _srelu, {"tl": -1.0, "al": 0.1, "tr": 1.0, "ar": 0.1},
         kinks=lambda c: (c["tl"], c["tr"])),
    Kind("sinlu", _sinlu, {"a": 1.0, "b": 1.0}, ("a", "b"), _sinlu_partials),
    Kind("frelu", _frelu, {"alpha": 1.0}, ("alpha",), _frelu_partials),
    Kind("sigmoid", _sigmoid),
    Kind("tanh", _tanh),
    Kind("gelu", _gelu),
)}

ALL_KINDS = tuple(KINDS)
BASELINE_KINDS = tuple(name for name, rec in KINDS.items() if not rec.wendland)


def baseline_eval(kind: str, params: dict, x, training: bool = False,
                  rng: np.random.Generator | None = None):
    """Value and derivative of a baseline (or classical Wendland) activation.

    Returns (y, dy/dx) evaluated elementwise.  RReLU samples one slope per
    element from `rng` in training mode and uses the mean slope otherwise;
    the returned derivative always matches the returned value.
    """
    rec = KINDS.get(kind)
    if rec is None or rec.value is None:
        raise ConfigError(f"unknown elementwise activation kind {kind!r}")
    return rec.value(tensor(x), params, training, rng)


def baseline_param_grads(kind: str, params: dict, x) -> dict[str, np.ndarray]:
    """Elementwise partials of the activation output wrt its trainable
    coefficients.  Kinds without trainable coefficients return {}."""
    rec = KINDS.get(kind)
    if rec is None or rec.value is None:
        raise ConfigError(f"unknown elementwise activation kind {kind!r}")
    return rec.partials(tensor(x), params) if rec.partials is not None else {}


_SPEC_RE = re.compile(r"^\s*([A-Za-z][A-Za-z0-9]*)\s*(?:\((.*)\))?\s*$")


def parse_activation(text: str) -> ActivationSpec:
    """Parse the canonical text encoding, e.g.
    `ewend(alpha=1.0,k=4,lambda=0.1,beta=1.0,eps=0.01,mode=elem)` or `relu`."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse activation spec {text!r}")
    kind = m.group(1).lower()
    if kind not in KINDS:
        raise ConfigError(f"unknown activation kind {kind!r}")
    body = m.group(2)
    pairs: dict[str, str] = {}
    if body is not None and body.strip():
        for chunk in body.split(","):
            if "=" not in chunk:
                raise ConfigError(f"{kind}: expected key=value, got {chunk.strip()!r}")
            key, _, val = chunk.partition("=")
            pairs[key.strip().lower()] = val.strip()
    return ActivationSpec(kind, KINDS[kind].parse(pairs))


def format_activation(spec: ActivationSpec) -> str:
    """Canonical text encoding; parse(format(s)) round-trips."""
    return KINDS[spec.kind].format(spec.params)


def activation_schema() -> list[tuple[str, str]]:
    """(kind, parameter summary) for every supported activation."""
    return [(name, rec.describe()) for name, rec in KINDS.items()]
