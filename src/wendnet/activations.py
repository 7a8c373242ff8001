"""Wendland radial basis activations, the enhanced Wendland activation, and
the registry of every activation kind, baselines included, with exact
analytic derivatives.

The classical Wendland forms are the three closed-form members

    phi_c0(r) = (1-r)_+^2
    phi_c2(r) = (1-r)_+^4 (4r+1)
    phi_c4(r) = (1-r)_+^6 (35r^2+18r+3)/3

and the enhanced Wendland radial profile is

    g(r) = (1 - a r)_+^k (k a r + 1) + lambda * r + eps * exp(-beta * r)

applied multiplicatively: y = x * g(r), where r is either |x| per element or
the L2 norm of a feature slice; the record KINDS["ewend"] is the one way to
apply it to an input.  Compact support of the Wendland component is exact: it
is identically zero for r >= 1/a.  The strictly positive a and beta train as
their logarithm, so no optimizer step can push them out of range.

Every kind's coefficients are one dict under their text names, and a value
takes its default's type: a number, an integer (ewend's k), a word (ewend's
mode) or a "|"-set of trainable coefficients (ewend's train).

A record's forward maps an (R, rows, width) stack of R replicas' inputs to
one of outputs.  Only rrelu draws: one slope per element from a generator
per replica when the forward is given them, its mean slope when it is not.

Derivative convention at non-differentiable points (the ReLU family at 0,
and wc0 at x = 0, where (1-|x|)^2 has slopes +2 and -2; all three classical
forms are continuously differentiable at the support boundary |x| = 1): the
right derivative is used, consistently across all kinds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .tensor import ConfigError


# ---------------------------------------------------------------------------
# Classical Wendland family: each closed form on r >= 0 as (phi(r), dphi/dr),
# from one p = (1-r)_+ and its powers.
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Enhanced Wendland radial profile, of the `ewend` coefficients p: alpha is
# the inverse support radius (the Wendland bump vanishes at r = 1/alpha), k
# the degree, lambda the linear slope, beta the exponential rate, eps its scale.
# ---------------------------------------------------------------------------

_R_GUARD = 1e-12  # below this, a channel slice is treated as exactly radial-zero


def _check_ewend(p):
    if p["alpha"] <= 0:
        raise ConfigError(f"ewend: alpha must be > 0, got {p['alpha']}")
    if p["beta"] <= 0:
        raise ConfigError(f"ewend: beta must be > 0, got {p['beta']}")
    if not 1 <= p["k"] <= 8:
        raise ConfigError(f"ewend: k must be an integer in [1, 8], got {p['k']!r}")
    if p["lambda"] < 0:
        raise ConfigError(f"ewend: lambda must be >= 0, got {p['lambda']}")
    if p["eps"] < 0:
        raise ConfigError(f"ewend: eps must be >= 0, got {p['eps']}")
    if p["mode"] not in ("elem", "channel"):
        raise ConfigError(f"ewend: mode must be 'elem' or 'channel', got {p['mode']!r}")


class _Profile(NamedTuple):
    """g(r) and the terms its derivatives reuse, each computed once."""

    r: np.ndarray
    outside: np.ndarray  # not r < 1/alpha: where the Wendland term is exactly 0
    pk1: np.ndarray     # pos**(k-1) of pos = (1 - alpha r)_+; read only inside
    pk: np.ndarray      # pos**k
    kar1: np.ndarray    # k alpha r + 1
    tail: np.ndarray    # exp(-beta r)
    g: np.ndarray


def _profile(r: np.ndarray, p: dict) -> _Profile:
    """The enhanced profile at r >= 0; the one implementation of g.  A
    coefficient is a number, or one per replica as an (R, 1, 1) array against
    an r of (R, rows, width) or, in channel mode, (R, rows, 1).

    Each element gets the closed form's operations in their order, while
    the sums and products that build on a fresh intermediate are written in
    place into it: k alpha r + 1 into alpha r, and g into its Wendland term.
    That term is masked by writing 0 outside the support, never by a
    product: 0 times an infinite term, such as alpha*r for a huge alpha, is
    NaN."""
    # the cutoff is applied against the representable boundary 1/alpha so the
    # Wendland component is exactly zero for every r >= 1/alpha; a trained
    # alpha that underflowed to 0 has the whole line as its support: 1/0 is
    # inf, silently under training's np.errstate.  A NaN r lies outside.
    outside = ~(r < 1.0 / p["alpha"])
    kar1 = p["alpha"] * r
    pos = np.maximum(0.0, 1.0 - kar1)
    pk1, pk = _powers(pos, p["k"])
    kar1 *= p["k"]
    kar1 += 1.0
    tail = np.exp(-p["beta"] * r)
    g = np.asarray(pk * kar1)  # an array, which putmask needs, even for a 0-d r
    np.putmask(g, outside, 0.0)
    g += p["lambda"] * r
    g += p["eps"] * tail
    return _Profile(r, outside, pk1, pk, kar1, tail, g)


def _profile_derivatives(p: dict, t: _Profile, names):
    """(dg/dr, {name: dg/dname for name in names}) from the profile, with no
    power taken; the one implementation of g' and the coefficient partials.
    The partials of lambda and eps are the profile's own r and tail."""
    k, alpha = p["k"], p["alpha"]
    scale = -k * (k + 1.0) * (alpha * alpha)
    dg = np.asarray(scale * t.r)
    dg *= t.pk1
    np.putmask(dg, t.outside, 0.0)
    if not np.all(np.isfinite(scale)):  # a huge alpha: -inf times r = 0 is NaN
        np.putmask(dg, t.r == 0.0, 0.0)
    dg += p["lambda"]
    dg -= p["eps"] * p["beta"] * t.tail
    partials = {}
    for name in names:
        if name == "alpha":
            # k r pk - (k r pk1) kar1 is the closed form -(k r pk1) kar1 + k r pk
            # to the bit: negation is exact, and -a + b is b - a
            kr = k * t.r
            a = kr * t.pk1
            a *= t.kar1
            d = np.asarray(kr * t.pk)
            d -= a
            np.putmask(d, t.outside, 0.0)
        elif name == "lambda":
            d = t.r
        elif name == "beta":
            d = -p["eps"] * t.r * t.tail
        else:
            d = t.tail
        partials[name] = d
    return dg, partials


# ---------------------------------------------------------------------------
# erf after Cody (Math. Comp. 23, 1969), in his three ranges, with the
# coefficients of his CALERF: erf(z) = z P(z^2)/Q(z^2) for |z| <= 0.46875;
# beyond, erfc(|z|) = e^{-z^2} R(|z|), with R = P(|z|)/Q(|z|) up to |z| = 4
# and R = (1/sqrt(pi) - t P(t)/Q(t)) / |z| in t = 1/z^2 past it.  Each
# numerator is listed from its highest power down; each denominator is
# monic, and its leading 1 is left out.  The tables hold the halves, erf/2
# and R/2, that Phi = 1/2 + erf/2 = erfc(-z)/2 takes: halving a numerator is
# exact.  The small range is taken in u = -z^2, the exponent exp wants, with
# the odd powers' coefficients negated: every Horner step then gives Cody's
# value or its exact negative, so the bits are his.
# ---------------------------------------------------------------------------

def _halved(p, q):
    return tuple(0.5 * c for c in p), q


def _in_minus(p, q):
    """p(t)/q(t) as a rational in u = -t, for a q of even degree."""
    return (tuple(c * (-1) ** (len(p) - 1 - i) for i, c in enumerate(p)),
            tuple(c * (-1) ** (len(q) - 1 - i) for i, c in enumerate(q)))


_ERF_SMALL = _in_minus(*_halved(
    (1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
     3.77485237685302021e2, 3.20937758913846947e3),
    (2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
     2.84423683343917062e3)))
_ERFC_MID = _halved(
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
     6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
     1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3),
    (1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
     1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
     3.43936767414372164e3, 1.23033935480374942e3))
_ERFC_TAIL = _halved(
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3))
_ERF_SMALL_Z2 = 0.46875 ** 2  # exact: 225/1024
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _rational(t, coeffs):
    """p(t)/q(t) for coeffs = (p, q), by Horner in Cody's order of operations."""
    p, q = coeffs
    num = t * p[0]
    den = t + q[0]
    for a, b in zip(p[1:-1], q[1:]):
        num += a
        num *= t
        den *= t
        den += b
    num += p[-1]
    num /= den
    return num


def _erf_halves(z, u):
    """Cody's erf of z, in halves, from u = -z*z: (h, far, zf, r), where h
    holds erf(z)/2 in the small range, `far` the flat indices of the other
    z, zf those z, and r there R(|z|)/2, so that erfc(|z|)/2 = e^u r.  A NaN
    z stays in the small range and gives NaN.  For |z| <= 30 no step
    overflows or divides by 0; in float64 erf(z) is +-1 from |z| = 6 on,
    and erfc(|z|)/2 is 0 from |z| = 27.25 on.

    The small range runs on every element, because most gelu inputs lie in
    it; the two erfc ranges run only where they are needed."""
    h = _rational(u, _ERF_SMALL)
    h *= z
    far = np.flatnonzero(u < -_ERF_SMALL_Z2)
    zf = np.take(z, far)
    a = np.abs(zf)
    r = _rational(a, _ERFC_MID)
    if np.max(a, initial=0.0) > 4.0:
        tail = np.flatnonzero(a > 4.0)
        t = -1.0 / np.take(u, far[tail])
        r[tail] = (0.5 * _INV_SQRT_PI - t * _rational(t, _ERFC_TAIL)) / a[tail]
    return h, far, zf, r


# ---------------------------------------------------------------------------
# Elementwise value/derivative pairs and coefficient partials.  Each value
# function maps (x, coefficients) to (y, dy/dx); each partials function maps
# (x, coefficients) to {coefficient: dy/dcoefficient}.
# ---------------------------------------------------------------------------

def _logistic(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _radial(form):
    """Value function of a classical Wendland form applied to r = |x|."""
    def value(x, c):
        phi, dphi = form(np.abs(x))
        # right derivative at x=0: sign taken as +1 there
        return phi, np.where(x >= 0, 1.0, -1.0) * dphi
    return value


def _relu(x, c):
    # dy/dx as the 0/1 mask: a product with it has the bits of one with 1.0/0.0
    return np.maximum(0.0, x), x >= 0


def _relu6(x, c):
    return np.clip(x, 0.0, 6.0), np.where((x >= 0) & (x < 6.0), 1.0, 0.0)


def _leaky(x, c):
    s = c["slope"]
    return np.where(x >= 0, x, s * x), np.where(x >= 0, 1.0, s)


def _elu(x, c):
    a = c["alpha"]
    ex = np.exp(np.minimum(x, 0.0))
    return np.where(x >= 0, x, a * (ex - 1.0)), np.where(x >= 0, 1.0, a * ex)


def _celu(x, c):
    a = c["alpha"]
    ex = np.exp(np.minimum(x, 0.0) / a)
    return np.where(x >= 0, x, a * (ex - 1.0)), np.where(x >= 0, 1.0, ex)


def _swish(x, c):
    s = _logistic(x)
    return x * s, s * (1.0 + x * (1.0 - s))


def _srelu(x, c):
    tl, al, tr, ar = c["tl"], c["al"], c["tr"], c["ar"]
    y = np.where(x < tl, tl + al * (x - tl),
                 np.where(x < tr, x, tr + ar * (x - tr)))
    dy = np.where(x < tl, al, np.where(x < tr, 1.0, ar))
    return y, dy


def _sinlu(x, c):
    a, b = c["a"], c["b"]
    s = _logistic(x)
    u = x + a * np.sin(b * x)
    du = 1.0 + a * b * np.cos(b * x)
    return u * s, du * s + u * s * (1.0 - s)


def _frelu(x, c):
    a = c["alpha"]
    s = _logistic(a * x)
    return x * s, s + x * a * s * (1.0 - s)


def _sigmoid(x, c):
    s = _logistic(x)
    return s, s * (1.0 - s)


def _tanh(x, c):
    t = np.tanh(x)
    return t, 1.0 - t * t


_GELU_CLIP = 40.0  # past |x| = 40, Phi(x) is 0 or 1 and phi(x) is 0 in float64
_SQRT_HALF = math.sqrt(0.5)


def _gelu(x, c):
    # Phi(x) = 1/2 + erf(z)/2 and x phi(x) = z e^{-z^2}/sqrt(pi) at z = x/sqrt(2),
    # sharing e^{-z^2} = e^{-x^2/2}; past the small range Phi is erfc(|z|)/2
    # below 0, which keeps its relative accuracy, and 1 - erfc(|z|)/2 above.
    # The kernel sees x clipped at +-40, and x Phi(x) takes x clipped below
    # only, so no product meets inf * 0.  Each step writes in place where it
    # can: every pass over the array counts.
    y = np.maximum(x, -_GELU_CLIP)
    z = np.minimum(y, _GELU_CLIP)
    u = z * z
    u *= -0.5
    z *= _SQRT_HALF
    cdf, far, zf, r = _erf_halves(z, u)
    dy = np.exp(u, out=u)
    r *= np.take(dy, far)
    np.subtract(1.0, r, out=r, where=zf > 0.0)
    cdf += 0.5
    np.put(cdf, far, r)
    y *= cdf
    dy *= z
    dy *= _INV_SQRT_PI
    dy += cdf
    return y, dy


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


def _check_srelu(c):
    if not c["tl"] <= c["tr"]:
        raise ConfigError("srelu: thresholds must satisfy tl <= tr")


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
# A value takes its default's type: a number; an integer, such as ewend's k,
# written as an integral number; a word, lower-cased (ewend's mode: elem or
# channel); or a "|"-set of the kind's trainable coefficients, kept in their
# order (ewend's train, of alpha|lambda|beta|eps).
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


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return "|".join(value)
    return value if isinstance(value, str) else f"{value:g}"


@dataclass(frozen=True)
class Kind:
    """Everything wendnet knows about one activation kind; adding a kind
    means adding one record to `KINDS`.  Its coefficients are a dict like
    `defaults`; its "train" entry, if any, names the trained ones, or else
    all of `trainable` train.  This base covers the elementwise kinds that
    draw nothing; rrelu and ewend have records of their own.

    In a stack of R replicas, x is (R, rows, width); a trained coefficient
    is then an (R, 1, 1) array, one value per replica, and its gradient has
    that shape too.  Any coefficient may also be a plain number."""

    name: str
    value: Callable | None              # (x, c) -> (y, dy/dx)
    defaults: dict = field(default_factory=dict)
    trainable: tuple[str, ...] = ()
    partials: Callable | None = None    # (x, c) -> {trainable coeff: dy/dcoeff}
    kinks: Callable = lambda c: ()      # c -> the x where dy/dx jumps
    check: Callable | None = None       # raises ConfigError on invalid coefficients
    summary: str = ""                   # list-activations text; derived when empty
    log: tuple[str, ...] = ()           # trainable coefficients stored as their log

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
            default = self.defaults[key]
            if isinstance(default, str):
                params[key] = raw.lower()
            elif isinstance(default, tuple):
                tokens = [t for t in raw.lower().split("|") if t]
                for t in tokens:
                    if t not in self.trainable:
                        raise ConfigError(f"{self.name}: unknown {key} token {t!r}")
                params[key] = tuple(name for name in self.trainable if name in tokens)
            else:
                value = _parse_number(self.name, key, raw)
                if isinstance(default, int) and value != int(value):
                    raise ConfigError(f"{self.name}: {key} must be an integer, got {raw!r}")
                params[key] = type(default)(value)
        if self.check is not None:
            self.check(params)
        return params

    def format(self, params) -> str:
        """The canonical text: every coefficient in `defaults` order, but a
        "|"-set left at its default."""
        body = ",".join(f"{key}={_format_value(params[key])}"
                        for key, default in self.defaults.items()
                        if not isinstance(default, tuple) or params[key] != default)
        return f"{self.name}({body})" if body else self.name

    def initial(self, params) -> dict[str, float]:
        """The stored values of the trained coefficients in `params`: what a
        layer trains, and what `backward`'s gradients are taken against."""
        return {name: float(np.log(params[name])) if name in self.log else params[name]
                for name in params.get("train", self.trainable)}

    def bind(self, params, stored: dict):
        """The full coefficient set, unchecked (`check` guards config text):
        `params` with the trained coefficients taken from their stored values."""
        return {**params, **{name: np.exp(v) if name in self.log else v
                             for name, v in stored.items()}}

    def report(self, c) -> dict[str, float]:
        """The values of the number-valued coefficients, in `defaults` order,
        for the metrics output."""
        return {key: c[key] for key, default in self.defaults.items()
                if isinstance(default, float)}

    def forward(self, c, x, rng):
        """(y, what `backward` needs besides c and x): here dy/dx.  `rng`
        holds one generator per replica of x, or is None; only a kind that
        draws (rrelu) reads it."""
        return self.value(x, c)

    def backward(self, c, x, dy, upstream):
        """(input gradient, gradients of the trainable coefficients' stored
        values)."""
        if self.partials is None:
            return upstream * dy, {}
        return upstream * dy, {name: _per_replica_sum(upstream * d, c[name])
                               for name, d in self.partials(x, c).items()}

    def kink_gap(self, c, x, aux) -> float:
        """The smallest gap between an element of x, whose forward gave
        `aux`, and a kink."""
        return min((float(np.abs(x - kink).min()) for kink in self.kinks(c)), default=math.inf)


class _Enhanced(Kind):
    """The `ewend` record: y = x g(r), with p the coefficients of `_profile`."""

    def forward(self, p, x, rng):
        # r = |x| per element, or in channel mode the norm over the last axis;
        # the profile is what backward needs, and the layer caches it as aux
        if p["mode"] == "elem":
            t = _profile(np.abs(x), p)
        else:
            r = np.add.reduce(x * x, axis=-1, keepdims=True)
            t = _profile(np.sqrt(r, out=r), p)
        return x * t.g, t

    def backward(self, p, x, t, upstream):
        """(input gradient, gradients of the trainable coefficients' stored
        values) of sum(upstream * x g(r)), given the profile `t` of x."""
        dg, partials = _profile_derivatives(p, t, p["train"])
        if p["mode"] == "elem":
            weight = upstream * x
            dx = dg  # upstream (g + r g'), written over g'
            dx *= t.r
            dx += t.g
            dx *= upstream
        else:
            weight = np.add.reduce(upstream * x, axis=-1, keepdims=True)
            # cross term x_i x_j g'(r)/r; at r ~ 0 the term vanishes in the limit
            ratio = np.divide(dg, t.r, out=np.zeros(dg.shape), where=t.r >= _R_GUARD)
            ratio *= weight
            dx = upstream * t.g
            dx += x * ratio
        grads = {name: _per_replica_sum(weight * d, p[name]) for name, d in partials.items()}
        for name in self.log:
            if name in grads:
                grads[name] *= p[name]  # chain through value = exp(stored)
        return dx, grads

    def kink_gap(self, p, x, t):
        # the kinks lie on r, |x| or the slice norm, so the profile's r
        # measures the gap in either mode
        return float(np.abs(t.r - 1.0 / p["alpha"]).min()) if p["k"] < 2 else math.inf


class _RandomSlope(Kind):
    """The `rrelu` record (Xu et al., arXiv:1505.00853): x for x >= 0 and
    s x below, with one slope s per element drawn uniformly from [lo, hi],
    replica r's from rng[r], when the forward is given generators, and the
    mean slope (lo + hi) / 2 when it is not."""

    def forward(self, c, x, rng):
        lo, hi = c["lo"], c["hi"]
        if rng is None:
            return _leaky(x, {"slope": 0.5 * (lo + hi)})
        return _leaky(x, {"slope": np.stack([g.uniform(lo, hi, size=x.shape[1:]) for g in rng])})


def _ewend_kinks(p):
    # for k < 2 the derivative of the Wendland term jumps at the support edge
    return (-1.0 / p["alpha"], 1.0 / p["alpha"]) if p["k"] < 2 else ()


KINDS: dict[str, Kind] = {rec.name: rec for rec in (
    Kind("wc0", _radial(_wc0), kinks=_at_zero,
         summary="classical Wendland C0, no parameters"),
    Kind("wc2", _radial(_wc2),
         summary="classical Wendland C2, no parameters"),
    Kind("wc4", _radial(_wc4),
         summary="classical Wendland C4, no parameters"),
    _Enhanced("ewend", None,
              {"alpha": 1.0, "k": 4, "lambda": 0.1, "beta": 1.0, "eps": 0.01,
               "mode": "elem", "train": ("alpha",)},
              ("alpha", "lambda", "beta", "eps"), kinks=_ewend_kinks, check=_check_ewend,
              summary="alpha=1 k=4 lambda=0.1 beta=1 eps=0.01 mode=elem|channel "
                      "train=alpha[|lambda|beta|eps]  (trainable: per train mask)",
              log=("alpha", "beta")),
    Kind("relu", _relu, kinks=_at_zero),
    Kind("relu6", _relu6, kinks=lambda c: (0.0, 6.0)),
    Kind("lrelu", _leaky, {"slope": 0.01}, kinks=_at_zero),
    Kind("prelu", _leaky, {"slope": 0.25}, ("slope",), _prelu_partials, kinks=_at_zero),
    _RandomSlope("rrelu", None, {"lo": 0.125, "hi": 1.0 / 3.0}, kinks=_at_zero, check=_check_rrelu),
    # at x = 0 the left derivative of elu is alpha, and celu's is 1
    Kind("elu", _elu, {"alpha": 1.0}, kinks=lambda c: (0.0,) if c["alpha"] != 1.0 else ()),
    Kind("celu", _celu, {"alpha": 1.0}),
    Kind("swish", _swish),
    Kind("srelu", _srelu, {"tl": -1.0, "al": 0.1, "tr": 1.0, "ar": 0.1},
         kinks=lambda c: (c["tl"], c["tr"]), check=_check_srelu),
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
            key = key.strip().lower()
            if key in pairs:
                raise ConfigError(f"{kind}: parameter {key!r} is given more than once")
            pairs[key] = val.strip()
    return ActivationSpec(kind, KINDS[kind].parse(pairs))


def format_activation(spec: ActivationSpec) -> str:
    """Canonical text encoding.  Coefficients are written to 6 significant
    digits, so specs that differ past the sixth share one text; a config
    that lists two such specs is rejected when it is loaded."""
    return KINDS[spec.kind].format(spec.params)


def activation_schema() -> list[tuple[str, str]]:
    """(kind, parameter summary) for every supported activation."""
    return [(name, rec.describe()) for name, rec in KINDS.items()]
