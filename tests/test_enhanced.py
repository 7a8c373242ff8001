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
    _profile,
    _profile_derivatives,
    format_activation,
    parse_activation,
)
from wendnet.network import ActivationLayer, quiet_errstate
from wendnet.tensor import relative_error

EWEND = KINDS["ewend"]
DEFAULTS = EWEND.defaults


def _g(r, p):
    """The profile g(r) at r >= 0, through its kernel."""
    return _profile(np.asarray(r, dtype=np.float64), p).g


def _derivatives(r, p):
    """(dg/dr, {coefficient: dg/dcoefficient}) at r >= 0, through the kernels."""
    return _profile_derivatives(p, _profile(np.asarray(r, dtype=np.float64), p),
                                EWEND.trainable)


def _forward(p, x):
    """y = x g(r) through the ewend record."""
    return EWEND.forward(p, np.asarray(x, dtype=np.float64), None)[0]


def _backward(p, x, up):
    """(input gradient, gradients of the trainable coefficients' stored
    values) of sum(up * y), through the ewend record."""
    x = np.asarray(x, dtype=np.float64)
    _, profile = EWEND.forward(p, x, None)
    return EWEND.backward(p, x, profile, np.asarray(up, dtype=np.float64))


# --- radial profile ---------------------------------------------------------

def test_radial_at_zero():
    # Wendland part is 1, linear part 0, tail contributes eps
    assert _g(0.0, DEFAULTS) == pytest.approx(1.01, abs=1e-15)


def test_radial_at_one():
    # independent evaluation of each additive term
    expected = 0.0 + 0.1 * 1.0 + 0.01 * math.exp(-1.0)
    assert _g(1.0, DEFAULTS) == pytest.approx(expected, abs=1e-15)


def test_radial_at_half():
    wend = 0.5 ** 4 * (4 * 0.5 + 1)
    expected = wend + 0.1 * 0.5 + 0.01 * math.exp(-0.5)
    assert _g(0.5, DEFAULTS) == pytest.approx(expected, abs=1e-15)


def test_radial_dr_at_zero():
    # Wendland term carries a factor r, so only lambda - eps*beta survives
    assert _derivatives(0.0, DEFAULTS)[0] == pytest.approx(0.09, abs=1e-15)


def test_radial_dr_at_support_boundary():
    # for k >= 2 the Wendland term and its derivative vanish at r = 1/alpha
    for alpha in (0.5, 1.0, 2.0):
        p = {**DEFAULTS, "alpha": alpha}
        r = 1.0 / alpha
        expected = p["lambda"] - p["eps"] * p["beta"] * math.exp(-p["beta"] * r)
        assert _derivatives(r, p)[0] == pytest.approx(expected, abs=1e-14)


def test_radial_dr_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = {**DEFAULTS, "alpha": rng.uniform(0.25, 4.0),
             "k": int(rng.integers(2, 7)),
             "lambda": rng.uniform(0.0, 0.5),
             "beta": rng.uniform(0.2, 3.0),
             "eps": rng.uniform(0.0, 0.1)}
        r = rng.uniform(0.001, 3.0 / p["alpha"])
        if abs(r - 1.0 / p["alpha"]) < 1e-4:
            continue
        h = 1e-6 * max(1.0, r)
        numeric = (_g(r + h, p) - _g(r - h, p)) / (2 * h)
        assert relative_error(_derivatives(r, p)[0], numeric) < 1e-7


def test_radial_dparams_trivial():
    grads = _derivatives(2.0, DEFAULTS)[1]
    assert grads["lambda"] == pytest.approx(2.0)
    grads0 = _derivatives(0.0, DEFAULTS)[1]
    assert grads0["alpha"] == 0.0  # both alpha terms carry a factor r


def test_radial_dparams_match_finite_differences():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 100:
        base = {**DEFAULTS, "alpha": rng.uniform(0.25, 4.0), "k": int(rng.integers(1, 7)),
                "lambda": rng.uniform(0.0, 0.5), "beta": rng.uniform(0.2, 3.0),
                "eps": rng.uniform(0.0, 0.1)}
        r = rng.uniform(0.0, 3.0 / base["alpha"])
        if r > 0 and abs(base["alpha"] * r - 1.0) < 1e-4:
            continue
        grads = _derivatives(r, base)[1]
        for name in ("alpha", "lambda", "beta", "eps"):
            def at(v):
                d = dict(base)
                d[name] = v
                return _g(r, d)
            h = 1e-6 * max(1.0, base[name])
            numeric = (at(base[name] + h) - at(base[name] - h)) / (2 * h)
            assert relative_error(grads[name], numeric) < 1e-7, name
        checked += 1


# --- compact support and boundary smoothness --------------------------------

def test_compact_support_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = {**DEFAULTS, "alpha": rng.uniform(0.25, 4.0), "k": int(rng.choice([2, 3, 4, 6]))}
        bare = {**p, "lambda": 0.0, "eps": 0.0}
        for r in (1.0 / p["alpha"], 1.0 / p["alpha"] + 1e-12, 10.0 / p["alpha"]):
            # with the linear and exponential terms removed, only the
            # Wendland component remains and it must vanish identically
            assert _g(r, bare) == 0.0
            # full profile: bit-equal to the linear + exponential terms alone
            assert _g(r, p) == p["lambda"] * r + p["eps"] * np.exp(-p["beta"] * r)


def test_boundary_first_derivative_continuity():
    rng = np.random.default_rng(4)
    h = 1e-9  # small enough that one-sided truncation error stays below 1e-6
    for _ in range(50):
        p = {**DEFAULTS, "alpha": rng.uniform(0.25, 4.0), "k": int(rng.choice([2, 3, 4, 6]))}
        b = 1.0 / p["alpha"]
        left = (_g(b, p) - _g(b - h, p)) / h
        right = (_g(b + h, p) - _g(b, p)) / h
        assert abs(left - right) < 1e-6


# --- forward ----------------------------------------------------------------

def test_forward_zero_input():
    for mode in ("elem", "channel"):
        p = {**DEFAULTS, "mode": mode}
        assert np.all(_forward(p, np.zeros((3, 4))) == 0.0)


def test_forward_value_at_one():
    y = _forward(DEFAULTS, np.array([1.0]))
    assert y[0] == pytest.approx(1.0 * _g(1.0, DEFAULTS), abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_forward_odd_symmetry(x):
    xa = np.array([x])
    assert _forward(DEFAULTS, -xa) == pytest.approx(-_forward(DEFAULTS, xa))


def test_forward_channel_norm_uses_slice_norm():
    p = {**DEFAULTS, "mode": "channel"}
    x = np.array([[3.0, 4.0]])
    g = _g(5.0, p)
    np.testing.assert_allclose(_forward(p, x), x * g, rtol=0, atol=1e-15)


def test_forward_finite_for_large_inputs():
    x = np.array([-1e6, -1.0, 0.0, 1.0, 1e6])
    for mode in ("elem", "channel"):
        p = {**DEFAULTS, "mode": mode}
        y = _forward(p, x)
        assert np.all(np.isfinite(y))
        dx, grads = _backward(p, x, np.ones_like(x))
        assert np.all(np.isfinite(dx))
        assert all(np.isfinite(v) for v in grads.values())


def test_alpha_trained_to_underflow_is_a_number():
    # exp of a stored log below about -745 is 0.0: the support is then the
    # whole line, and a forward and backward give numbers, not an exception
    # (under training's errstate, where the support edge 1/0 is inf)
    params = {**DEFAULTS, "train": ("alpha",)}
    with quiet_errstate():
        p = EWEND.bind(params, {"alpha": -800.0})
        assert p["alpha"] == 0.0
        x = np.array([-1e6, -1.0, 0.0, 1.0, 1e6])
        y = _forward(p, x)
        np.testing.assert_array_equal(y, _forward({**DEFAULTS, "alpha": 5e-324}, x))
        dx, grads = _backward(p, x, np.ones_like(x))
    assert np.all(np.isfinite(dx))
    assert grads == {"alpha": 0.0}


# --- backward ---------------------------------------------------------------

def test_backward_at_zero_input():
    x = np.zeros(5)
    dx, _ = _backward(DEFAULTS, x, np.ones(5))
    np.testing.assert_allclose(dx, np.full(5, 1.0 + DEFAULTS["eps"]), atol=1e-15)


@pytest.mark.parametrize("text", ["ewend(alpha=3.1e153,train=)", "ewend(alpha=3.1e153)",
                                  "ewend(alpha=1e300,k=1,train=)", "ewend(alpha=1e300,k=8)"])
def test_backward_at_zero_input_when_alpha_squared_overflows(text):
    # -k (k + 1) alpha^2 is -inf here, and times r = 0 it would be NaN; the
    # term it scales is a multiple of r, so at x = 0 the input gradient is
    # g(0) = 1 + eps as at any alpha: for an alpha written in the text and
    # for one trained, bound from its stored log as a (1, 1, 1) array
    layer = ActivationLayer([parse_activation(text)])
    x = np.array([[[0.0, -0.0, 0.5, -3.0]]])
    with quiet_errstate():
        y = layer.forward(x, None, True)
        dx = layer.backward(np.ones_like(x))
    assert y.shape == dx.shape == x.shape
    np.testing.assert_array_equal(dx[..., :2], 1.0 + DEFAULTS["eps"])
    assert np.all(np.isfinite(dx))


def test_backward_elementwise_matches_finite_differences():
    rng = np.random.default_rng(17)
    x = rng.uniform(-3.0, 3.0, size=1000)
    x = x[np.abs(np.abs(x) - 1.0 / DEFAULTS["alpha"]) > 1e-4]
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
    p = {**DEFAULTS, "mode": "channel"}
    for _ in range(20):
        x = rng.standard_normal((3, 4))
        up = rng.standard_normal((3, 4))
        dx, _ = _backward(p, x, up)
        v = rng.standard_normal((3, 4))
        h = 1e-6
        numeric = np.sum(up * (_forward(p, x + h * v) - _forward(p, x - h * v))) / (2 * h)
        assert relative_error(float(np.sum(dx * v)), numeric) < 1e-6


def test_backward_channel_r_zero_guard():
    p = {**DEFAULTS, "mode": "channel"}
    x = np.zeros((2, 3))
    up = np.ones((2, 3))
    dx, _ = _backward(p, x, up)
    np.testing.assert_allclose(dx, np.full((2, 3), _g(0.0, p)), atol=1e-15)


def test_backward_param_grads_match_finite_differences():
    # gradients are taken against the stored values: the log of alpha and beta
    rng = np.random.default_rng(31)
    x = rng.uniform(-2.0, 2.0, size=50)
    up = rng.standard_normal(50)
    params = {**DEFAULTS, "train": EWEND.trainable}
    stored = EWEND.initial(params)
    _, grads = _backward(EWEND.bind(params, stored), x, up)
    assert set(grads) == set(EWEND.trainable)
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
    for train in ((), ("lambda", "eps"), ("beta",), EWEND.trainable):
        _, grads = _backward({**DEFAULTS, "train": train}, x, up)
        assert tuple(grads) == train


# --- parameter type ---------------------------------------------------------

def test_positivity_reparameterization_round_trip():
    rec = KINDS["ewend"]
    for v in (1e-6, 0.25, 1.0, 4.0, 1e6):
        params = {**DEFAULTS, "alpha": v, "beta": v, "train": ("alpha", "beta")}
        stored = rec.initial(params)
        assert stored == pytest.approx({"alpha": math.log(v), "beta": math.log(v)}, abs=1e-14)
        back = rec.bind(params, stored)
        assert abs(back["alpha"] - v) / v < 1e-12
        assert abs(back["beta"] - v) / v < 1e-12


@pytest.mark.parametrize("kwargs", [
    {"alpha": "0.0"}, {"alpha": "-1.0"}, {"beta": "0.0"}, {"k": "0"}, {"k": "9"},
    {"k": "2.5"}, {"lambda": "-0.1"}, {"eps": "-1e-9"}, {"mode": "nope"},
    {"train": "gamma"}, {"train": "lam"}, {"train": "alpha|k"},
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ConfigError):
        EWEND.parse(kwargs)


_CANONICAL = "ewend(alpha=1,k=4,lambda=0.1,beta=1,eps=0.01,mode={}{})"

# (text, its canonical encoding): every train subset, the k range, and values
# the parser normalizes
_EWEND_TEXTS = [
    *((f"ewend(train={'|'.join(train)})",
       _CANONICAL.format("elem", "" if train == ("alpha",) else f",train={'|'.join(train)}"))
      for n in range(5) for train in itertools.combinations(("alpha", "lambda", "beta", "eps"), n)),
    *((f"ewend(k={k})", _CANONICAL.replace("k=4", f"k={k}").format("elem", ""))
      for k in range(1, 9)),
    ("ewend(train=eps|lambda|eps)", _CANONICAL.format("elem", ",train=lambda|eps")),
    ("ewend(train=eps|alpha)", _CANONICAL.format("elem", ",train=alpha|eps")),
    ("ewend(train=alpha|alpha)", _CANONICAL.format("elem", "")),
    ("ewend(train=ALPHA|Eps)", _CANONICAL.format("elem", ",train=alpha|eps")),
    ("ewend(train=|)", _CANONICAL.format("elem", ",train=")),
    ("ewend(mode=CHANNEL)", _CANONICAL.format("channel", "")),
    ("ewend(k=4.0)", _CANONICAL.format("elem", "")),
    ("ewend(k=1e0,mode=channel,train=beta)",
     _CANONICAL.replace("k=4", "k=1").format("channel", ",train=beta")),
    ("ewend(eps=0,lambda=0,beta=1e-3,alpha=2.5)",
     "ewend(alpha=2.5,k=4,lambda=0,beta=0.001,eps=0,mode=elem)"),
]

# (text, the one ConfigError message it gets)
_BAD_EWEND_TEXTS = [
    ("ewend(k=2.5)", "ewend: k must be an integer, got '2.5'"),
    ("ewend(k=0)", "ewend: k must be an integer in [1, 8], got 0"),
    ("ewend(k=9)", "ewend: k must be an integer in [1, 8], got 9"),
    ("ewend(alpha=0)", "ewend: alpha must be > 0, got 0.0"),
    ("ewend(beta=-1)", "ewend: beta must be > 0, got -1.0"),
    ("ewend(lambda=-0.1)", "ewend: lambda must be >= 0, got -0.1"),
    ("ewend(eps=-1e-9)", "ewend: eps must be >= 0, got -1e-09"),
    ("ewend(mode=nope)", "ewend: mode must be 'elem' or 'channel', got 'nope'"),
    ("ewend(train=lam)", "ewend: unknown train token 'lam'"),
    ("ewend(train=mode)", "ewend: unknown train token 'mode'"),
    ("ewend(gamma=1)", "ewend: unknown parameter 'gamma'"),
]


@pytest.mark.parametrize("text,canonical", _EWEND_TEXTS)
def test_text_round_trips_to_its_canonical_encoding(text, canonical):
    assert format_activation(parse_activation(text)) == canonical
    assert format_activation(parse_activation(canonical)) == canonical


@pytest.mark.parametrize("text,message", _BAD_EWEND_TEXTS)
def test_bad_text_names_the_problem(text, message):
    with pytest.raises(ConfigError) as err:
        parse_activation(text)
    assert str(err.value) == message


def test_train_is_kept_in_coefficient_order():
    spec = parse_activation("ewend(train=eps|alpha)")
    assert spec.params["train"] == ("alpha", "eps")
    assert format_activation(spec) == \
        "ewend(alpha=1,k=4,lambda=0.1,beta=1,eps=0.01,mode=elem,train=alpha|eps)"
    assert parse_activation("ewend(train=eps|lambda|eps)").params["train"] == ("lambda", "eps")


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
    alpha, k = p["alpha"], p["k"]
    ar = alpha * r
    pos = np.maximum(0.0, 1.0 - ar)
    wend = np.where(r < 1.0 / alpha, _POW[k - 1](pos) * pos * (k * ar + 1.0), 0.0)
    return wend + p["lambda"] * r + p["eps"] * np.exp(-p["beta"] * r)


def _textbook_dg(r, p):
    alpha, k = p["alpha"], p["k"]
    ar = alpha * r
    inside = r < 1.0 / alpha
    pos = np.where(inside, np.maximum(0.0, 1.0 - ar), 0.0)
    # the term is a multiple of r: exactly 0 at r = 0, also where alpha^2 overflows
    wend = np.where(inside & (r != 0.0),
                    -k * (k + 1.0) * (alpha * alpha) * r * _POW[k - 1](pos), 0.0)
    return wend + p["lambda"] - p["eps"] * p["beta"] * np.exp(-p["beta"] * r)


def _textbook_dparams(r, p):
    alpha, k = p["alpha"], p["k"]
    ar = alpha * r
    inside = r < 1.0 / alpha
    pos = np.where(inside, np.maximum(0.0, 1.0 - ar), 0.0)
    tail = np.exp(-p["beta"] * r)
    return {
        "alpha": np.where(inside, -k * r * _POW[k - 1](pos) * (k * ar + 1.0)
                          + k * r * (_POW[k - 1](pos) * pos), 0.0),
        "lambda": r,
        "beta": -p["eps"] * r * tail,
        "eps": tail,
    }


def _textbook_layer(x, up, p):
    """(y, dx, all four coefficient gradients) of sum(up * x g(r))."""
    if p["mode"] == "elem":
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


@pytest.mark.parametrize("mode", ["elem", "channel"])
@pytest.mark.parametrize("k", range(1, 9))
def test_layer_matches_textbook_closed_forms_bit_for_bit(k, mode):
    rng = np.random.default_rng(500 + k)
    for mask in itertools.product((False, True), repeat=4):
        train = tuple(name for name, on in zip(EWEND.trainable, mask) if on)
        spec_p = {"alpha": rng.uniform(0.3, 3.0), "k": k, "lambda": 0.07,
                  "beta": rng.uniform(0.3, 3.0), "eps": 0.02, "mode": mode, "train": train}
        layer = ActivationLayer([ActivationSpec("ewend", spec_p)])
        # the layer's natural-space values, of its one replica: log-stored
        # ones may move by an ulp
        c, = layer.current_coefficients()
        p = {**spec_p, **c}
        x = _straddling_input(rng, 1.0 / p["alpha"], mode)
        up = rng.standard_normal(x.shape)
        y_ref, dx_ref, grads_ref = _textbook_layer(x, up, p)

        np.testing.assert_array_equal(layer.forward(x[None], None, True), y_ref[None])
        np.testing.assert_array_equal(layer.backward(up[None]), dx_ref[None])
        trained = {param.name.split(".")[-1]: param.grad.item() for param in layer.params()}
        expected = {coeff: grads_ref[coeff] * c[coeff]
                    if coeff in _LOG_STORED else grads_ref[coeff] for coeff in train}
        assert trained == expected, mask

        # the record on its own, given the layer's natural-space values
        y, profile = EWEND.forward(p, x, None)
        dx, grads = EWEND.backward(p, x, profile, up)
        np.testing.assert_array_equal(y, y_ref)
        np.testing.assert_array_equal(dx, dx_ref)
        assert grads == expected, mask


# --- the same closed forms where a masked term is infinite or NaN -------------
#
# The Wendland terms are zero outside the support.  A kernel that zeroes them
# by a product instead of a write gives NaN where the term is infinite: alpha*r
# overflows for alpha = 1e308, alpha*alpha for alpha = 1e300, and r is inf for
# an infinite input.  assert_array_equal counts NaN as equal to NaN.

def _extreme_input(rng, edge, mode):
    """`_straddling_input` with rows of +-inf and NaN added."""
    x = _straddling_input(rng, edge, mode)
    if mode == "elem":
        special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e300, edge]
    else:
        special = [np.inf, -np.inf, np.nan, 0.0, 1.0]
    rows = np.tile(x[:1], (3, 1))
    rows[0, :len(special)] = special[:x.shape[1]]
    rows[1, 0] = np.nan
    rows[2, -1] = -np.inf
    return np.concatenate([x, rows])


def _natural(layer, replicas):
    """Each replica's natural-space coefficients, as plain numbers."""
    coeffs = layer.current_coefficients()
    assert len(coeffs) == replicas
    return coeffs


def _expected_grads(grads_ref, c, train):
    """The textbook's coefficient gradients, chained to the stored values."""
    return {coeff: grads_ref[coeff] * c[coeff] if coeff in _LOG_STORED
            else grads_ref[coeff] for coeff in train}


def _assert_layer_grads(layer, want, replica=0):
    for param in layer.params():
        np.testing.assert_array_equal(param.grad[replica].item(), want[param.name.split(".")[-1]])


@pytest.mark.parametrize("mode", ["elem", "channel"])
@pytest.mark.parametrize("text", ["ewend(alpha=1e300,k=1)", "ewend(alpha=1e308)",
                                  "ewend(alpha=1e300,k=2,train=alpha|lambda|beta|eps)",
                                  "ewend(alpha=2,k=5,train=alpha|beta)"])
def test_layer_matches_textbook_closed_forms_where_terms_are_not_finite(text, mode):
    rng = np.random.default_rng(77)
    spec = parse_activation(text.replace(")", f",mode={mode})"))
    base = spec.params
    with np.errstate(all="ignore"):
        # a stack of 3 replicas, each with its own alpha, as a study trains it
        layer = ActivationLayer([spec] * 3)
        alpha, = (param for param in layer.params() if param.name.endswith(".alpha"))
        alpha.value[...] = np.log([base["alpha"], base["alpha"] / 7.0, 2.5])[:, None, None]
        coeffs = _natural(layer, 3)
        refs = []
        for c in coeffs:
            p = {**base, **c}
            x = _extreme_input(rng, 1.0 / p["alpha"], mode)
            up = rng.standard_normal(x.shape)
            refs.append((x, up, *_textbook_layer(x, up, p)))
        y = layer.forward(np.stack([ref[0] for ref in refs]), None, True)
        dx = layer.backward(np.stack([ref[1] for ref in refs]))
        for i, (_, _, y_ref, dx_ref, grads_ref) in enumerate(refs):
            np.testing.assert_array_equal(y[i], y_ref)
            np.testing.assert_array_equal(dx[i], dx_ref)
            _assert_layer_grads(layer, _expected_grads(grads_ref, coeffs[i], base["train"]), i)

        # a stack of one replica, against its (1, 1, 1) coefficients
        layer = ActivationLayer([spec])
        c = _natural(layer, 1)[0]
        x, up = refs[0][:2]
        y_ref, dx_ref, grads_ref = _textbook_layer(x, up, {**base, **c})
        np.testing.assert_array_equal(layer.forward(x[None], None, True), y_ref[None])
        np.testing.assert_array_equal(layer.backward(up[None]), dx_ref[None])
        _assert_layer_grads(layer, _expected_grads(grads_ref, c, base["train"]))

        # 0-d inputs through the record, with coefficients that are numbers
        if mode == "elem":
            edge = 1.0 / base["alpha"]
            for v in (0.0, -0.0, edge, -edge, np.nextafter(edge, 0.0), 0.5 * edge, 3.0,
                      np.inf, -np.inf, np.nan):
                x, up = np.asarray(v), np.asarray(-0.75)
                y_ref, dx_ref, grads_ref = _textbook_layer(x, up, base)
                y, profile = EWEND.forward(base, x, None)
                dx, grads = EWEND.backward(base, x, profile, up)
                np.testing.assert_array_equal(y, y_ref)
                np.testing.assert_array_equal(dx, dx_ref)
                for coeff, want in _expected_grads(grads_ref, base, base["train"]).items():
                    np.testing.assert_array_equal(grads[coeff], want)
