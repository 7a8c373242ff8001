"""Enhanced Wendland activation: radial profile, derivatives, forward and
backward passes through its record, compact support, and the train mask."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wendnet.activations import (
    KINDS,
    ActivationSpec,
    ConfigError,
    DomainError,
    EnhancedWendlandParams,
    enhanced_radial,
    enhanced_radial_dparams,
    enhanced_radial_dr,
    format_activation,
    parse_activation,
)
from wendnet.network import ActivationLayer, quiet_errstate
from wendnet.tensor import relative_error

DEFAULTS = EnhancedWendlandParams()
EWEND = KINDS["ewend"]
_COEFFS = ("alpha", "lam", "beta", "eps")


def _forward(p, x):
    """y = x g(r) through the ewend record."""
    return EWEND.forward(p, np.asarray(x, dtype=np.float64), False, None)[0]


def _backward(p, x, up):
    """(input gradient, gradients of the trainable coefficients' stored
    values) of sum(up * y), through the ewend record."""
    x = np.asarray(x, dtype=np.float64)
    _, profile = EWEND.forward(p, x, False, None)
    return EWEND.backward(p, x, profile, np.asarray(up, dtype=np.float64))


# --- radial profile ---------------------------------------------------------

def test_radial_at_zero():
    # Wendland part is 1, linear part 0, tail contributes eps
    assert enhanced_radial(0.0, DEFAULTS) == pytest.approx(1.01, abs=1e-15)


def test_radial_at_one():
    # independent evaluation of each additive term
    expected = 0.0 + 0.1 * 1.0 + 0.01 * math.exp(-1.0)
    assert enhanced_radial(1.0, DEFAULTS) == pytest.approx(expected, abs=1e-15)


def test_radial_at_half():
    wend = 0.5 ** 4 * (4 * 0.5 + 1)
    expected = wend + 0.1 * 0.5 + 0.01 * math.exp(-0.5)
    assert enhanced_radial(0.5, DEFAULTS) == pytest.approx(expected, abs=1e-15)


def test_radial_dr_at_zero():
    # Wendland term carries a factor r, so only lambda - eps*beta survives
    assert enhanced_radial_dr(0.0, DEFAULTS) == pytest.approx(0.09, abs=1e-15)


def test_radial_dr_at_support_boundary():
    # for k >= 2 the Wendland term and its derivative vanish at r = 1/alpha
    for alpha in (0.5, 1.0, 2.0):
        p = EnhancedWendlandParams(alpha=alpha)
        r = 1.0 / alpha
        expected = p.lam - p.eps * p.beta * math.exp(-p.beta * r)
        assert enhanced_radial_dr(r, p) == pytest.approx(expected, abs=1e-14)


def test_radial_dr_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = EnhancedWendlandParams(alpha=rng.uniform(0.25, 4.0),
                                   k=int(rng.integers(2, 7)),
                                   lam=rng.uniform(0.0, 0.5),
                                   beta=rng.uniform(0.2, 3.0),
                                   eps=rng.uniform(0.0, 0.1))
        r = rng.uniform(0.001, 3.0 / p.alpha)
        if abs(r - 1.0 / p.alpha) < 1e-4:
            continue
        h = 1e-6 * max(1.0, r)
        numeric = (enhanced_radial(r + h, p) - enhanced_radial(r - h, p)) / (2 * h)
        assert relative_error(enhanced_radial_dr(r, p), numeric) < 1e-7


@pytest.mark.parametrize("fn", [enhanced_radial, enhanced_radial_dr, enhanced_radial_dparams])
def test_radial_forms_reject_negative_radius(fn):
    with pytest.raises(DomainError):
        fn(-1.0, DEFAULTS)
    with pytest.raises(DomainError):
        fn(np.array([0.5, -5e-324]), DEFAULTS)


def test_radial_dparams_trivial():
    grads = enhanced_radial_dparams(2.0, DEFAULTS)
    assert grads["lam"] == pytest.approx(2.0)
    grads0 = enhanced_radial_dparams(0.0, DEFAULTS)
    assert grads0["alpha"] == 0.0  # both alpha terms carry a factor r


def test_radial_dparams_match_finite_differences():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 100:
        base = dict(alpha=rng.uniform(0.25, 4.0), k=int(rng.integers(1, 7)),
                    lam=rng.uniform(0.0, 0.5), beta=rng.uniform(0.2, 3.0),
                    eps=rng.uniform(0.0, 0.1))
        p = EnhancedWendlandParams(**base)
        r = rng.uniform(0.0, 3.0 / p.alpha)
        if r > 0 and abs(p.alpha * r - 1.0) < 1e-4:
            continue
        grads = enhanced_radial_dparams(r, p)
        for name in ("alpha", "lam", "beta", "eps"):
            def at(v):
                d = dict(base)
                d[name] = v
                return enhanced_radial(r, EnhancedWendlandParams(**d))
            h = 1e-6 * max(1.0, base[name])
            numeric = (at(base[name] + h) - at(base[name] - h)) / (2 * h)
            assert relative_error(grads[name], numeric) < 1e-7, name
        checked += 1


# --- compact support and boundary smoothness --------------------------------

def test_compact_support_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = EnhancedWendlandParams(alpha=rng.uniform(0.25, 4.0),
                                   k=int(rng.choice([2, 3, 4, 6])))
        bare = EnhancedWendlandParams(alpha=p.alpha, k=p.k, lam=0.0, eps=0.0)
        for r in (1.0 / p.alpha, 1.0 / p.alpha + 1e-12, 10.0 / p.alpha):
            # with the linear and exponential terms removed, only the
            # Wendland component remains and it must vanish identically
            assert enhanced_radial(r, bare) == 0.0
            # full profile: bit-equal to the linear + exponential terms alone
            assert enhanced_radial(r, p) == p.lam * r + p.eps * np.exp(-p.beta * r)


def test_boundary_first_derivative_continuity():
    rng = np.random.default_rng(4)
    h = 1e-9  # small enough that one-sided truncation error stays below 1e-6
    for _ in range(50):
        p = EnhancedWendlandParams(alpha=rng.uniform(0.25, 4.0),
                                   k=int(rng.choice([2, 3, 4, 6])))
        b = 1.0 / p.alpha
        left = (enhanced_radial(b, p) - enhanced_radial(b - h, p)) / h
        right = (enhanced_radial(b + h, p) - enhanced_radial(b, p)) / h
        assert abs(left - right) < 1e-6


# --- forward ----------------------------------------------------------------

def test_forward_zero_input():
    for mode in ("elem", "channel"):
        p = EnhancedWendlandParams(mode=mode)
        assert np.all(_forward(p, np.zeros((3, 4))) == 0.0)


def test_forward_value_at_one():
    y = _forward(DEFAULTS, np.array([1.0]))
    assert y[0] == pytest.approx(1.0 * enhanced_radial(1.0, DEFAULTS), abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_forward_odd_symmetry(x):
    xa = np.array([x])
    assert _forward(DEFAULTS, -xa) == pytest.approx(-_forward(DEFAULTS, xa))


def test_forward_channel_norm_uses_slice_norm():
    p = EnhancedWendlandParams(mode="channel")
    x = np.array([[3.0, 4.0]])
    g = enhanced_radial(5.0, p)
    np.testing.assert_allclose(_forward(p, x), x * g, rtol=0, atol=1e-15)


def test_forward_finite_for_large_inputs():
    x = np.array([-1e6, -1.0, 0.0, 1.0, 1e6])
    for mode in ("elem", "channel"):
        p = EnhancedWendlandParams(mode=mode)
        y = _forward(p, x)
        assert np.all(np.isfinite(y))
        dx, grads = _backward(p, x, np.ones_like(x))
        assert np.all(np.isfinite(dx))
        assert all(np.isfinite(v) for v in grads.values())


def test_alpha_trained_to_underflow_is_a_number():
    # exp of a stored log below about -745 is 0.0: the support is then the
    # whole line, and a forward and backward give numbers, not an exception
    # (under training's errstate, where the support edge 1/0 is inf)
    params = {"ewend": EnhancedWendlandParams(train=("alpha",))}
    with quiet_errstate():
        p = EWEND.bind(params, {"alpha": -800.0})
        assert p.alpha == 0.0
        x = np.array([-1e6, -1.0, 0.0, 1.0, 1e6])
        y = _forward(p, x)
        np.testing.assert_array_equal(y, _forward(EnhancedWendlandParams(alpha=5e-324), x))
        dx, grads = _backward(p, x, np.ones_like(x))
    assert np.all(np.isfinite(dx))
    assert grads == {"alpha": 0.0}


# --- backward ---------------------------------------------------------------

def test_backward_at_zero_input():
    x = np.zeros(5)
    dx, _ = _backward(DEFAULTS, x, np.ones(5))
    np.testing.assert_allclose(dx, np.full(5, 1.0 + DEFAULTS.eps), atol=1e-15)


def test_backward_elementwise_matches_finite_differences():
    rng = np.random.default_rng(17)
    x = rng.uniform(-3.0, 3.0, size=1000)
    x = x[np.abs(np.abs(x) - 1.0 / DEFAULTS.alpha) > 1e-4]
    up = rng.standard_normal(x.shape)
    dx, _ = _backward(DEFAULTS, x, up)
    h = 1e-6
    for i in rng.choice(len(x), size=100, replace=False):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        numeric = np.sum(up * (_forward(DEFAULTS, xp) - _forward(DEFAULTS, xm))) / (2 * h)
        assert relative_error(dx[i], numeric) < 1e-6


def test_backward_channel_jacobian_matches_finite_differences():
    rng = np.random.default_rng(29)
    p = EnhancedWendlandParams(mode="channel")
    for _ in range(20):
        x = rng.standard_normal((3, 4))
        up = rng.standard_normal((3, 4))
        dx, _ = _backward(p, x, up)
        v = rng.standard_normal((3, 4))
        h = 1e-6
        numeric = np.sum(up * (_forward(p, x + h * v) - _forward(p, x - h * v))) / (2 * h)
        assert relative_error(float(np.sum(dx * v)), numeric) < 1e-6


def test_backward_channel_r_zero_guard():
    p = EnhancedWendlandParams(mode="channel")
    x = np.zeros((2, 3))
    up = np.ones((2, 3))
    dx, _ = _backward(p, x, up)
    np.testing.assert_allclose(dx, np.full((2, 3), enhanced_radial(0.0, p)), atol=1e-15)


def test_backward_param_grads_match_finite_differences():
    # gradients are taken against the stored values: the log of alpha and beta
    rng = np.random.default_rng(31)
    x = rng.uniform(-2.0, 2.0, size=50)
    up = rng.standard_normal(50)
    params = {"ewend": EnhancedWendlandParams(train=_COEFFS)}
    stored = EWEND.initial(params)
    _, grads = _backward(EWEND.bind(params, stored), x, up)
    assert set(grads) == set(_COEFFS)
    for name in grads:
        def at(v):
            return float(np.sum(up * _forward(EWEND.bind(params, {**stored, name: v}), x)))
        h = 1e-6
        numeric = (at(stored[name] + h) - at(stored[name] - h)) / (2 * h)
        assert relative_error(grads[name], numeric) < 1e-6, name


def test_backward_returns_only_trainable_coefficients():
    rng = np.random.default_rng(37)
    x = rng.standard_normal(20)
    up = rng.standard_normal(20)
    _, grads = _backward(DEFAULTS, x, up)  # only alpha trainable
    assert set(grads) == {"alpha"}
    assert grads["alpha"] != 0.0
    for train in ((), ("lam", "eps"), ("beta",), _COEFFS):
        _, grads = _backward(EnhancedWendlandParams(train=train), x, up)
        assert tuple(grads) == train


# --- parameter type ---------------------------------------------------------

def test_positivity_reparameterization_round_trip():
    rec = KINDS["ewend"]
    for v in (1e-6, 0.25, 1.0, 4.0, 1e6):
        params = {"ewend": EnhancedWendlandParams(alpha=v, beta=v, train=("alpha", "beta"))}
        stored = rec.initial(params)
        assert stored == pytest.approx({"alpha": math.log(v), "beta": math.log(v)}, abs=1e-14)
        back = rec.bind(params, stored)
        assert abs(back.alpha - v) / v < 1e-12
        assert abs(back.beta - v) / v < 1e-12


@pytest.mark.parametrize("kwargs", [
    {"alpha": 0.0}, {"alpha": -1.0}, {"beta": 0.0}, {"k": 0}, {"k": 9},
    {"k": 2.5}, {"lam": -0.1}, {"eps": -1e-9}, {"mode": "nope"},
    {"train": ("gamma",)}, {"train": ("lambda",)}, {"train": ("alpha", "k")},
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ConfigError):
        EnhancedWendlandParams(**kwargs)


def test_train_is_kept_in_coefficient_order():
    spec = parse_activation("ewend(train=eps|alpha)")
    assert spec.params["ewend"].train == ("alpha", "eps")
    assert format_activation(spec) == \
        "ewend(alpha=1,k=4,lambda=0.1,beta=1,eps=0.01,mode=elem,train=alpha|eps)"
    assert EnhancedWendlandParams(train=("eps", "lam", "eps")).train == ("lam", "eps")


# --- the layer kernel against the separate closed forms -----------------------
#
# A test-local textbook reference: g, g' and the coefficient partials, each
# evaluated on its own and recomputing every term it uses.  The layer's
# one-pass kernel shares their intermediate terms but keeps every
# expression's operation order, so its results must be bit-equal.

# pos**n for n = 0..7, by multiplication in the kernel's square-and-multiply order
_POW = (
    lambda p: np.ones_like(p),
    lambda p: p,
    lambda p: p * p,
    lambda p: p * (p * p),
    lambda p: (p * p) * (p * p),
    lambda p: p * ((p * p) * (p * p)),
    lambda p: (p * p) * ((p * p) * (p * p)),
    lambda p: p * (p * p) * ((p * p) * (p * p)),
)


def _textbook_g(r, p):
    ar = p.alpha * r
    pos = np.maximum(0.0, 1.0 - ar)
    wend = np.where(r < 1.0 / p.alpha, _POW[p.k - 1](pos) * pos * (p.k * ar + 1.0), 0.0)
    return wend + p.lam * r + p.eps * np.exp(-p.beta * r)


def _textbook_dg(r, p):
    ar = p.alpha * r
    inside = r < 1.0 / p.alpha
    pos = np.where(inside, np.maximum(0.0, 1.0 - ar), 0.0)
    wend = np.where(inside, -p.k * (p.k + 1.0) * (p.alpha * p.alpha) * r * _POW[p.k - 1](pos),
                    0.0)
    return wend + p.lam - p.eps * p.beta * np.exp(-p.beta * r)


def _textbook_dparams(r, p):
    ar = p.alpha * r
    inside = r < 1.0 / p.alpha
    pos = np.where(inside, np.maximum(0.0, 1.0 - ar), 0.0)
    tail = np.exp(-p.beta * r)
    return {
        "alpha": np.where(inside, -p.k * r * _POW[p.k - 1](pos) * (p.k * ar + 1.0)
                          + p.k * r * (_POW[p.k - 1](pos) * pos), 0.0),
        "lam": r,
        "beta": -p.eps * r * tail,
        "eps": tail,
    }


def _textbook_layer(x, up, p):
    """(y, dx, all four coefficient gradients) of sum(up * x g(r))."""
    if p.mode == "elem":
        r = np.abs(x)
        g, dg = _textbook_g(r, p), _textbook_dg(r, p)
        dx = up * (g + r * dg)
        weight = up * x
    else:
        r = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
        g, dg = _textbook_g(r, p), _textbook_dg(r, p)
        weight = np.sum(up * x, axis=-1, keepdims=True)
        safe = r >= 1e-12
        ratio = np.where(safe, dg / np.where(safe, r, 1.0), 0.0)
        dx = up * g + x * (weight * ratio)
    grads = {name: float(np.sum(weight * d)) for name, d in _textbook_dparams(r, p).items()}
    return x * g, dx, grads


def _straddling_input(rng, edge, mode):
    """Inputs whose radius falls on, just inside and just outside 1/alpha."""
    near = edge * np.array([1 - 2e-16, 1 - 1e-16, 1.0, 1 + 1e-16, 1 + 2e-16, 1 - 1e-9, 1 + 1e-9])
    near = np.concatenate([near, [np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]])
    if mode == "elem":
        x = np.concatenate([near, -near, [0.0, -0.0],
                            rng.uniform(-2.0 * edge, 2.0 * edge, 20)])
        return x.reshape(5, 8)
    rows = rng.standard_normal((len(near) + 6, 5))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    radii = np.concatenate([near, [0.0, 1e-13], rng.uniform(0.0, 2.0 * edge, 4)])
    return rows * radii[:, None]


_LOG_STORED = ("alpha", "beta")  # trained as their logarithm
_REPORT_KEYS = {"alpha": "alpha", "lam": "lambda", "beta": "beta", "eps": "eps"}


@pytest.mark.parametrize("mode", ["elem", "channel"])
@pytest.mark.parametrize("k", range(1, 9))
def test_layer_matches_textbook_closed_forms_bit_for_bit(k, mode):
    rng = np.random.default_rng(500 + k)
    for mask in itertools.product((False, True), repeat=4):
        train = tuple(name for name, on in zip(_COEFFS, mask) if on)
        spec_p = EnhancedWendlandParams(alpha=rng.uniform(0.3, 3.0), k=k, lam=0.07,
                                        beta=rng.uniform(0.3, 3.0), eps=0.02,
                                        mode=mode, train=train)
        layer = ActivationLayer(ActivationSpec("ewend", {"ewend": spec_p}))
        # the layer's natural-space values, of its one replica: log-stored
        # ones may move by an ulp
        c = {name: float(np.squeeze(v)) for name, v in layer.current_coefficients().items()}
        p = EnhancedWendlandParams(alpha=c["alpha"], k=k, lam=c["lambda"], beta=c["beta"],
                                   eps=c["eps"], mode=mode, train=train)
        x = _straddling_input(rng, 1.0 / p.alpha, mode)
        up = rng.standard_normal(x.shape)
        y_ref, dx_ref, grads_ref = _textbook_layer(x, up, p)

        np.testing.assert_array_equal(layer.forward(x[None], training=True, rng=None), y_ref[None])
        np.testing.assert_array_equal(layer.backward(up[None]), dx_ref[None])
        trained = {param.name.split(".")[-1]: param.grad.item() for param in layer.params()}
        expected = {coeff: grads_ref[coeff] * c[_REPORT_KEYS[coeff]]
                    if coeff in _LOG_STORED else grads_ref[coeff] for coeff in train}
        assert trained == expected, mask

        # the record on its own, given the layer's natural-space values
        y, profile = EWEND.forward(p, x, True, None)
        dx, grads = EWEND.backward(p, x, profile, up)
        np.testing.assert_array_equal(y, y_ref)
        np.testing.assert_array_equal(dx, dx_ref)
        assert grads == expected, mask
