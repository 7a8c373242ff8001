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
the L2 norm of a feature slice; the record KINDS["ewend"] is the one way to
apply it to an input.  Compact support of the Wendland component is exact: it
is identically zero for r >= 1/a.  The strictly positive a and beta train as
their logarithm, so no optimizer step can push them out of range.

Derivative convention at non-differentiable points (ReLU family at 0,
classical Wendland at the support boundary): the right derivative is used,
consistently across all kinds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np


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


def _powers(p, k: int):
    """(p**(k-1), p**k) for an integer k >= 1, by square-and-multiply: at
    most five multiplications for k <= 8, where `**` calls libm pow on every
    element.  p**0 is one everywhere, as pow makes it, so a caller masks
    what lies outside its support."""
    n, base, pk1 = k - 1, p, None
    while n:
        if n & 1:
            pk1 = base if pk1 is None else pk1 * base
        n >>= 1
        if n:
            base = base * base
    if pk1 is None:
        pk1 = np.ones_like(p)
    return pk1, pk1 * p


# The closed forms on r >= 0, unchecked, each as (phi(r), dphi/dr) from one
# p = (1-r)_+ and its powers: the wc* kinds apply them to r = |x|, which is
# never negative; the public forms below check r first.

def _wc0(r):
    p = np.maximum(0.0, 1.0 - r)
    return p * p, np.where(r < 1.0, -2.0 * p, 0.0)


def _wc2(r):
    p3, p4 = _powers(np.maximum(0.0, 1.0 - r), 4)
    return p4 * (4.0 * r + 1.0), np.where(r < 1.0, -20.0 * r * p3, 0.0)


def _wc4(r):
    p = np.maximum(0.0, 1.0 - r)
    p5, p6 = _powers(p, 6)
    q = 35.0 * r * r + 18.0 * r + 3.0
    # d/dr [p^6 q/3] = p^5 (-6q + p q') / 3
    dphi = np.where(r < 1.0, p5 * (-6.0 * q + p * (70.0 * r + 18.0)) / 3.0, 0.0)
    return p6 * q / 3.0, dphi


def wendland_c0(r):
    """(1-r)_+^2: continuously differentiable at r=1, where its second
    derivative jumps; on r = |x|, its derivative jumps at x=0."""
    return _wc0(_check_radius(r))[0]


def wendland_c2(r):
    """(1-r)_+^4 (4r+1): twice continuously differentiable."""
    return _wc2(_check_radius(r))[0]


def wendland_c4(r):
    """(1-r)_+^6 (35r^2+18r+3)/3: four times continuously differentiable."""
    return _wc4(_check_radius(r))[0]


def wendland_c0_dr(r):
    return _wc0(_check_radius(r))[1]


def wendland_c2_dr(r):
    return _wc2(_check_radius(r))[1]


def wendland_c4_dr(r):
    return _wc4(_check_radius(r))[1]


# ---------------------------------------------------------------------------
# Enhanced Wendland parameters and radial profile.
# ---------------------------------------------------------------------------

MODE_ELEMENTWISE = "elem"
MODE_CHANNEL = "channel"

_R_GUARD = 1e-12  # below this, a channel slice is treated as exactly radial-zero


_COEFFS = ("alpha", "lam", "beta", "eps")  # the enhanced profile's coefficients


@dataclass
class EnhancedWendlandParams:
    """Coefficients of the enhanced Wendland activation.

    alpha is the inverse support radius (the Wendland bump vanishes at
    r = 1/alpha), k the polynomial degree, lam the linear-term slope, beta the
    exponential decay rate and eps the exponential scale.  `train` names the
    trainable coefficients by field, kept in (alpha, lam, beta, eps) order; by
    default only alpha is trainable.
    """

    alpha: float = 1.0
    k: int = 4
    lam: float = 0.1
    beta: float = 1.0
    eps: float = 0.01
    train: tuple[str, ...] = ("alpha",)
    mode: str = MODE_ELEMENTWISE

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
        unknown = set(self.train) - set(_COEFFS)
        if unknown:
            raise ConfigError(f"train names unknown coefficients {sorted(unknown)}")
        self.train = tuple(name for name in _COEFFS if name in self.train)


class _Profile(NamedTuple):
    """g(r) and the terms its derivatives reuse, each computed once."""

    r: np.ndarray
    inside: np.ndarray  # r < 1/alpha, the support of the Wendland term
    pk1: np.ndarray     # pos**(k-1) of pos = (1 - alpha r)_+, zero outside the
                        # support but for k = 1, where pos**0 is one everywhere
    pk: np.ndarray      # pos**k
    kar1: np.ndarray    # k alpha r + 1
    tail: np.ndarray    # exp(-beta r)
    g: np.ndarray


def _profile(r: np.ndarray, p: EnhancedWendlandParams) -> _Profile:
    """The enhanced profile at r >= 0; the one implementation of g.  A
    coefficient is a number, or one per replica as an (R, 1, 1) array against
    an (R, ...) r."""
    ar = p.alpha * r
    # the cutoff is applied against the representable boundary 1/alpha so the
    # Wendland component is exactly zero for every r >= 1/alpha; a trained
    # alpha that underflowed to 0 has the whole line as its support: 1/0 is
    # inf, silently under training's np.errstate
    inside = r < 1.0 / p.alpha
    pos = np.where(inside, np.maximum(0.0, 1.0 - ar), 0.0)
    pk1, pk = _powers(pos, p.k)
    kar1 = p.k * ar + 1.0
    tail = np.exp(-p.beta * r)
    g = np.where(inside, pk * kar1, 0.0) + p.lam * r + p.eps * tail
    return _Profile(r, inside, pk1, pk, kar1, tail, g)


# partials of g wrt each coefficient, from the profile
_PARTIALS: dict[str, Callable] = {
    "alpha": lambda p, t: np.where(
        t.inside, -p.k * t.r * t.pk1 * t.kar1 + p.k * t.r * t.pk, 0.0),
    "lam": lambda p, t: t.r.copy(),
    "beta": lambda p, t: -p.eps * t.r * t.tail,
    "eps": lambda p, t: t.tail,
}


def _profile_derivatives(p: EnhancedWendlandParams, t: _Profile, names):
    """(dg/dr, {name: dg/dname for name in names}) from the profile, with no
    power taken; the one implementation of g' and the coefficient partials."""
    wend = np.where(t.inside, -p.k * (p.k + 1.0) * (p.alpha * p.alpha) * t.r * t.pk1, 0.0)
    dg = wend + p.lam - p.eps * p.beta * t.tail
    return dg, {name: _PARTIALS[name](p, t) for name in names}


def enhanced_radial(r, p: EnhancedWendlandParams):
    """g(r) = (1-ar)_+^k (kar+1) + lam*r + eps*exp(-beta*r), for r >= 0."""
    return _profile(_check_radius(r), p).g


def enhanced_radial_dr(r, p: EnhancedWendlandParams):
    """dg/dr; the Wendland term contributes -k(k+1)a^2 r (1-ar)_+^(k-1)."""
    return _profile_derivatives(p, _profile(_check_radius(r), p), ())[0]


def enhanced_radial_dparams(r, p: EnhancedWendlandParams) -> dict[str, np.ndarray]:
    """Partials of g(r) with respect to (alpha, lam, beta, eps)."""
    return _profile_derivatives(p, _profile(_check_radius(r), p), _COEFFS)[1]


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


def _radial(form):
    """Value function of a classical Wendland form applied to r = |x|."""
    def value(x, c, training, rng):
        phi, dphi = form(np.abs(x))
        # right derivative at x=0: sign taken as +1 there
        return phi, np.where(x >= 0, 1.0, -1.0) * dphi
    return value


def _relu(x, c, training, rng):
    # dy/dx as the 0/1 mask: a product with it has the bits of one with 1.0/0.0
    return np.maximum(0.0, x), x >= 0


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
        # one slope per element, replica r's from its own generator rng[r]
        s = np.stack([g.uniform(lo, hi, size=x.shape[1:]) for g in rng])
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
    from scipy.special import erf  # here, not at start-up: importing scipy takes 0.3 s

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


def _per_replica_sum(g, coeff):
    """The gradient of `coeff` from its elementwise terms `g`: summed over the
    last two axes, once per replica, for an (R, 1, 1) coefficient stack, and
    over every axis for a single number."""
    if np.ndim(coeff):
        return np.add.reduce(g, axis=(-2, -1), keepdims=True)
    return np.add.reduce(g, axis=None)


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


def _parse_number(kind: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{kind}: parameter {key}={raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{kind}: parameter {key}={raw!r} is not a finite number")
    return value


@dataclass(frozen=True)
class Kind:
    """Everything wendnet knows about one activation kind; adding a kind
    means adding one record to `KINDS`.  This base covers the elementwise
    kinds, whose coefficients are a dict keyed by their text names.

    In a stack of R replicas, x is (R, rows, width); a trained coefficient
    is then an (R, 1, 1) array, one value per replica, and its gradient has
    that shape too.  Any coefficient may also be a plain number."""

    name: str
    value: Callable | None              # (x, c, training, rng) -> (y, dy/dx)
    defaults: dict = field(default_factory=dict)
    trainable: tuple[str, ...] = ()
    partials: Callable | None = None    # (x, c) -> {trainable coeff: dy/dcoeff}
    kinks: Callable = lambda c: ()      # c -> the x where dy/dx jumps
    check: Callable | None = None       # raises ConfigError on invalid coefficients
    summary: str = ""                   # list-activations text; derived when empty

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
        """The stored values of the trainable coefficients in `params`: what a
        layer trains, and what `backward`'s gradients are taken against."""
        return {name: params[name] for name in self.trainable}

    def bind(self, params, stored: dict):
        """The full coefficient set: `params` with the trainable coefficients
        taken from their stored values."""
        return {**params, **stored}

    def report(self, c) -> dict[str, float]:
        """Coefficient values for the metrics output."""
        return dict(c)

    def forward(self, c, x, training, rng):
        """(y, what `backward` needs besides c and x): here dy/dx.  In
        training mode RReLU samples one slope per element, replica r's from
        rng[r]."""
        return self.value(x, c, training, rng)

    def backward(self, c, x, dy, upstream):
        """(input gradient, gradients of the trainable coefficients' stored
        values)."""
        if self.partials is None:
            return upstream * dy, {}
        return upstream * dy, {name: _per_replica_sum(upstream * d, c[name])
                               for name, d in self.partials(x, c).items()}


# ewend text key (and train token) -> EnhancedWendlandParams field
_EWEND_FIELDS = {"alpha": "alpha", "k": "k", "lambda": "lam", "beta": "beta",
                 "eps": "eps", "mode": "mode", "train": "train"}


class _Enhanced(Kind):
    """The `ewend` record: its coefficients are one EnhancedWendlandParams,
    held in the spec as params["ewend"]; its `train` tuple names the trainable
    ones.  The strictly positive alpha and beta are stored as their log."""

    _LOG = ("alpha", "beta")

    def parse(self, pairs: dict[str, str]) -> dict:
        kwargs: dict = {}
        for key, raw in pairs.items():
            if key not in _EWEND_FIELDS:
                raise ConfigError(f"ewend: unknown parameter {key!r}")
            name = _EWEND_FIELDS[key]
            if name == "mode":
                kwargs["mode"] = raw.lower()
            elif name == "train":
                tokens = [t for t in raw.lower().split("|") if t]
                for t in tokens:
                    if _EWEND_FIELDS.get(t) not in _COEFFS:
                        raise ConfigError(f"ewend: unknown train token {t!r}")
                kwargs["train"] = tuple(_EWEND_FIELDS[t] for t in tokens)
            elif name == "k":
                val = _parse_number(self.name, key, raw)
                if val != int(val):
                    raise ConfigError(f"ewend: k must be an integer, got {raw!r}")
                kwargs["k"] = int(val)
            else:
                kwargs[name] = _parse_number(self.name, key, raw)
        return {"ewend": EnhancedWendlandParams(**kwargs)}

    def format(self, params) -> str:
        p: EnhancedWendlandParams = params["ewend"]
        train = "|".join(t for t, name in _EWEND_FIELDS.items() if name in p.train)
        parts = [f"alpha={p.alpha:g}", f"k={p.k}", f"lambda={p.lam:g}",
                 f"beta={p.beta:g}", f"eps={p.eps:g}", f"mode={p.mode}"]
        if train != "alpha":
            parts.append(f"train={train}")
        return f"ewend({','.join(parts)})"

    def initial(self, params) -> dict[str, float]:
        p = params["ewend"]
        return {name: float(np.log(getattr(p, name))) if name in self._LOG
                else getattr(p, name) for name in p.train}

    def bind(self, params, stored: dict):
        # a fresh instance, filled by one merge, skips __post_init__: its
        # checks guard config text, and g(r) and its partials hold for any
        # real lambda and eps an optimizer reaches
        p = object.__new__(EnhancedWendlandParams)
        p.__dict__ = {**vars(params["ewend"]),
                      **{name: np.exp(v) if name in self._LOG else v
                         for name, v in stored.items()}}
        return p

    def report(self, p) -> dict[str, float]:
        return {"alpha": p.alpha, "lambda": p.lam, "beta": p.beta, "eps": p.eps}

    def forward(self, p, x, training, rng):
        # r = |x| per element, or in channel mode the norm over the last axis;
        # the profile is what backward needs, and the layer caches it as aux
        if p.mode == MODE_ELEMENTWISE:
            t = _profile(np.abs(x), p)
        else:
            t = _profile(np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True)), p)
        return x * t.g, t

    def backward(self, p, x, t, upstream):
        """(input gradient, gradients of the trainable coefficients' stored
        values) of sum(upstream * x g(r)), given the profile `t` of x."""
        dg, partials = _profile_derivatives(p, t, p.train)
        if p.mode == MODE_ELEMENTWISE:
            dx = upstream * (t.g + t.r * dg)
            weight = upstream * x
        else:
            weight = np.add.reduce(upstream * x, axis=-1, keepdims=True)
            # cross term x_i x_j g'(r)/r; at r ~ 0 the term vanishes in the limit
            safe = t.r >= _R_GUARD
            ratio = np.where(safe, dg / np.where(safe, t.r, 1.0), 0.0)
            dx = upstream * t.g + x * (weight * ratio)
        grads = {name: _per_replica_sum(weight * d, getattr(p, name))
                 for name, d in partials.items()}
        for name in self._LOG:
            if name in grads:
                grads[name] *= getattr(p, name)  # chain through value = exp(stored)
        return dx, grads


def _ewend_kinks(p):
    # for k < 2 the derivative of the Wendland term jumps at the support edge
    return (-1.0 / p.alpha, 1.0 / p.alpha) if p.k < 2 else ()


KINDS: dict[str, Kind] = {rec.name: rec for rec in (
    Kind("wc0", _radial(_wc0), kinks=_at_zero,
         summary="classical Wendland C0, no parameters"),
    Kind("wc2", _radial(_wc2),
         summary="classical Wendland C2, no parameters"),
    Kind("wc4", _radial(_wc4),
         summary="classical Wendland C4, no parameters"),
    _Enhanced("ewend", None, kinks=_ewend_kinks,
              summary="alpha=1 k=4 lambda=0.1 beta=1 eps=0.01 mode=elem|channel "
                      "train=alpha[|lambda|beta|eps]  (trainable: per train mask)"),
    Kind("relu", _relu, kinks=_at_zero),
    Kind("relu6", _relu6, kinks=lambda c: (0.0, 6.0)),
    Kind("lrelu", _leaky, {"slope": 0.01}, kinks=_at_zero),
    Kind("prelu", _leaky, {"slope": 0.25}, ("slope",), _prelu_partials, kinks=_at_zero),
    Kind("rrelu", _rrelu, {"lo": 0.125, "hi": 1.0 / 3.0}, kinks=_at_zero, check=_check_rrelu),
    # at x = 0 the left derivative of elu is alpha, and celu's is 1
    Kind("elu", _elu, {"alpha": 1.0}, kinks=lambda c: (0.0,) if c["alpha"] != 1.0 else ()),
    Kind("celu", _celu, {"alpha": 1.0}),
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
    """Canonical text encoding.  Coefficients are written to 6 significant
    digits, so specs that differ past the sixth share one text; a config
    that lists two such specs is rejected when it is loaded."""
    return KINDS[spec.kind].format(spec.params)


def activation_schema() -> list[tuple[str, str]]:
    """(kind, parameter summary) for every supported activation."""
    return [(name, rec.describe()) for name, rec in KINDS.items()]
