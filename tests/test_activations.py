"""The activation registry: values and derivatives through each kind's
record, parameter schema, the canonical text encoding, and properties that
hold for every kind."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.random import default_rng

from wendnet import activations as act
from wendnet.activations import (
    ALL_KINDS,
    KINDS,
    ConfigError,
    format_activation,
    parse_activation,
)
from wendnet.network import ActivationLayer
from wendnet.tensor import central_step, finite_diff_check, relative_error


def _defaults(kind):
    spec = parse_activation(kind)
    return spec.params


def _forward(kind, c, x, rng=None):
    """(y, aux) of `kind` at coefficients `c`; aux is dy/dx for every kind
    but ewend."""
    return KINDS[kind].forward(c, np.asarray(x, dtype=np.float64), rng)


def _coefficients(text):
    """The record of the activation `text` and its full coefficient set."""
    spec = parse_activation(text)
    rec = KINDS[spec.kind]
    return rec, rec.bind(spec.params, {})


def _derivative(rec, c, x):
    """dy/dx of an elementwise activation, through the record's backward."""
    _, aux = rec.forward(c, x, None)
    return rec.backward(c, x, aux, np.ones_like(x))[0]


def test_relu_values():
    y, dy = _forward("relu", {}, [-3.0, 0.0, 2.0])
    np.testing.assert_array_equal(y, [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(dy, [0.0, 1.0, 1.0])  # right derivative at 0


def test_elu_continuous_at_origin():
    y, dy = _forward("elu", {"alpha": 1.0}, [0.0])
    assert y[0] == 0.0
    assert dy[0] == 1.0
    h = 1e-9
    yl, _ = _forward("elu", {"alpha": 1.0}, [-h])
    yr, _ = _forward("elu", {"alpha": 1.0}, [h])
    assert abs(yl[0] / -h - 1.0) < 1e-6 and abs(yr[0] / h - 1.0) < 1e-6


def test_sinlu_zero_at_origin():
    for a, b in [(1.0, 1.0), (0.3, 2.0), (5.0, 0.1)]:
        y, _ = _forward("sinlu", {"a": a, "b": b}, [0.0])
        assert y[0] == 0.0


def test_frelu_matches_formula():
    x = np.array([-1.0, 0.5, 2.0])
    y, _ = _forward("frelu", {"alpha": 2.0}, x)
    sig = 1.0 / (1.0 + np.exp(-2.0 * x))
    np.testing.assert_allclose(y, x * sig, atol=1e-15)


def test_gelu_values():
    # f(x) = x * Phi(x) with the exact normal CDF
    x = np.array([-8.0, -6.0, -3.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0, 6.0, 8.0])
    y, _ = _forward("gelu", {}, x)
    from scipy.stats import norm
    np.testing.assert_allclose(y, x * norm.cdf(x), atol=1e-12)


def _erf(z):
    """erf(z) from the kernel gelu runs, at z clipped to +-28 as gelu clips
    x to +-40."""
    z = np.clip(np.asarray(z, dtype=np.float64), -28.0, 28.0)
    u = -(z * z)
    h, far, zf, r = act._erf_halves(z, u)
    erfc = 2.0 * r * np.exp(np.take(u, far))
    v = 2.0 * h
    np.put(v, far, np.copysign(1.0 - erfc, zf))
    return v


_ERF_EDGES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
    0.46875, -0.46875, np.nextafter(0.46875, 1.0), np.nextafter(0.46875, 0.0),
    4.0, -4.0, np.nextafter(4.0, 5.0), 6.0, -6.0, 26.5, -26.5, np.inf, -np.inf])


def test_erf_within_5_ulp_of_scipy():
    from scipy.special import erf, erfc

    z = np.concatenate([np.linspace(-7.0, 7.0, 140001), _ERF_EDGES])
    ours, ref = _erf(z), erf(z)
    ulps = np.abs(ours - ref) / np.spacing(np.abs(ref))
    assert ulps.max() <= 5.0, z[np.argmax(ulps)]
    # +-0 and the subnormals keep their sign; erf(+-inf) is +-1 exactly
    np.testing.assert_array_equal(np.signbit(ours), np.signbit(ref))
    np.testing.assert_array_equal(_erf(_ERF_EDGES[-2:]), [1.0, -1.0])
    assert np.isnan(_erf(np.array([np.nan]))[0])
    # past the small range the kernel's erfc, relative, which Phi(x < 0) is:
    # both sides round e^{-z^2} alike, and each carries a few units of its own
    z = np.linspace(-26.5, 26.5, 106001)
    u = -(z * z)
    _, far, zf, r = act._erf_halves(z, u)
    ours, ref = 2.0 * r * np.exp(np.take(u, far)), erfc(np.abs(zf))
    ulps = np.abs(ours - ref) / np.spacing(ref)
    assert ulps.max() <= 12.0, zf[np.argmax(ulps)]


def _normal_cdf_reference(x):
    """Phi(x) for x <= 0 as erfcx(-x/sqrt(2)) e^{-x^2/2} / 2, with x^2 split
    exactly into hi + lo (Dekker), so the exponent carries no rounding."""
    from scipy.special import erfcx

    hi = x * x
    c = 134217729.0 * x  # 2**27 + 1 splits x into two 26-bit halves
    xh = c - (c - x)
    xl = x - xh
    lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
    return 0.5 * erfcx(-x / np.sqrt(2.0)) * np.exp(-0.5 * hi) * (1.0 - 0.5 * lo)


def test_normal_cdf_keeps_its_relative_accuracy_down_to_minus_37():
    # gelu's Phi(x) = y / x.  e^{-x^2/2} from a rounded x^2 carries up to
    # x^2/2 units of roundoff, so the bound grows with x^2, and the reference
    # itself is off by up to 8 units near 0; Phi at -37 is 5.7e-301, where
    # 0.5 * (1 + erf) would have lost every digit below -8
    x = np.concatenate([np.linspace(-37.0, -0.01, 20000), np.linspace(0.01, 8.0, 2000)])
    y, _ = _forward("gelu", {}, x)
    ref = np.where(x <= 0.0, _normal_cdf_reference(np.minimum(x, 0.0)),
                   1.0 - _normal_cdf_reference(-np.abs(x)))
    rel = np.abs(y / x - ref) / ref
    assert np.all(rel <= (x * x + 16.0) * 2.0 ** -53), x[np.argmax(rel / (x * x + 16.0))]


def test_gelu_raises_no_floating_point_error_at_the_edges():
    # grad-check forwards run outside training's np.errstate: no branch may
    # overflow, divide by 0 or meet inf * 0, even where its result is dropped
    rec = KINDS["gelu"]

    def forward_backward(x):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            y, dy = rec.forward({}, x, None)
            dx, _ = rec.backward({}, x, dy, np.ones_like(x))
        return y, dx

    x = np.concatenate([_ERF_EDGES[:-2], np.sqrt(2.0) * _ERF_EDGES[:-2],
                        [40.0, -40.0, 41.0, -41.0, 1e200, -1e200, 1.7e308, -1.7e308]])
    y, dx = forward_backward(x)
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(dx))
    # the limits at the ends of the line, and NaN in, NaN out
    y, dx = forward_backward(np.array([np.inf, -np.inf, np.nan]))
    np.testing.assert_array_equal(y[:2], [np.inf, 0.0])
    np.testing.assert_array_equal(dx[:2], [1.0, 0.0])
    assert np.isnan(y[2]) and np.isnan(dx[2])


def test_relu6_saturates():
    y, dy = _forward("relu6", {}, [-1.0, 3.0, 7.0])
    np.testing.assert_array_equal(y, [0.0, 3.0, 6.0])
    np.testing.assert_array_equal(dy, [0.0, 1.0, 0.0])


def test_srelu_piecewise():
    p = _defaults("srelu")
    y, dy = _forward("srelu", p, [-2.0, 0.0, 2.0])
    assert y[0] == pytest.approx(p["tl"] + p["al"] * (-2.0 - p["tl"]))
    assert y[1] == 0.0
    assert y[2] == pytest.approx(p["tr"] + p["ar"] * (2.0 - p["tr"]))
    np.testing.assert_array_equal(dy, [p["al"], 1.0, p["ar"]])


def test_rrelu_training_vs_eval():
    x = np.full(1000, -1.0)
    p = _defaults("rrelu")
    y_eval, dy_eval = _forward("rrelu", p, x)  # no generators: the mean slope
    mean_slope = 0.5 * (p["lo"] + p["hi"])
    np.testing.assert_allclose(y_eval, -mean_slope, atol=1e-15)
    np.testing.assert_allclose(dy_eval, mean_slope, atol=1e-15)

    rng = default_rng(8)
    y_tr, dy_tr = _forward("rrelu", p, x[None], rng=[rng])  # one replica
    slopes = -y_tr
    assert np.all((slopes >= p["lo"]) & (slopes <= p["hi"]))
    assert slopes.std() > 0.01
    np.testing.assert_allclose(dy_tr, slopes, atol=1e-15)  # consistent pair


def test_each_rrelu_replica_of_a_stack_draws_the_slopes_it_draws_alone():
    # a layer of three groups: each rrelu replica draws from its own
    # generator, whatever its neighbours draw
    texts = ["rrelu", "rrelu", "tanh", "rrelu(lo=0.2,hi=0.4)"]
    x = default_rng(9).standard_normal((len(texts), 6, 5))
    up = default_rng(10).standard_normal(x.shape)
    layer = ActivationLayer([parse_activation(text) for text in texts])
    y = layer.forward(x, [default_rng(20 + r) for r in range(len(texts))], True)
    dx = layer.backward(up)
    for r, text in enumerate(texts):
        alone = ActivationLayer([parse_activation(text)])
        assert alone.forward(x[r:r + 1], [default_rng(20 + r)], True).tobytes() == y[r].tobytes()
        assert alone.backward(up[r:r + 1]).tobytes() == dx[r].tobytes()
    assert not np.array_equal(y[0], y[1])  # two generators, two draws of slopes


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        parse_activation("mystery")
    with pytest.raises(ConfigError):
        parse_activation("mystery(1)")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_finite_everywhere(kind):
    x = np.array([-1e6, -100.0, -1.0, 0.0, 1.0, 100.0, 1e6])
    rec, c = _coefficients(kind)
    y, aux = rec.forward(c, x, None)
    dx, grads = rec.backward(c, x, aux, np.ones_like(x))
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(dx))
    assert all(np.isfinite(g) for g in grads.values())


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_derivative_matches_finite_differences(kind):
    rng = default_rng(9)
    rec, c = _coefficients(kind)
    x = rng.uniform(-3.0, 3.0, size=1000)
    for kink in rec.kinks(c):
        x = x[np.abs(x - kink) > 1e-4]
    h = 1e-6
    yp, _ = rec.forward(c, x + h, None)
    ym, _ = rec.forward(c, x - h, None)
    assert relative_error(_derivative(rec, c, x), (yp - ym) / (2 * h)) < 1e-6


def test_trainable_param_grads_match_finite_differences():
    rng = default_rng(10)
    x = rng.uniform(-3.0, 3.0, size=200)
    up = rng.standard_normal(200)
    for kind in ("prelu", "sinlu", "frelu"):
        params = dict(_defaults(kind))
        y, dy = _forward(kind, params, x)
        _, grads = KINDS[kind].backward(params, x, dy, up)
        assert set(grads) == set(KINDS[kind].trainable)
        for name in grads:
            h = 1e-6
            hi = dict(params); hi[name] += h
            lo = dict(params); lo[name] -= h
            yp, _ = _forward(kind, hi, x)
            ym, _ = _forward(kind, lo, x)
            numeric = float(np.sum(up * (yp - ym))) / (2 * h)
            assert relative_error(grads[name], numeric) < 1e-6, (kind, name)


_TRAINABLE_BY_DEFAULT = {"prelu": 1, "sinlu": 2, "frelu": 1, "ewend": 1}


def _param_count(text):
    """Number of trainable coefficients the activation `text` carries."""
    spec = parse_activation(text)
    return len(KINDS[spec.kind].initial(spec.params))


def test_param_counts():
    assert _param_count("relu") == 0
    assert _param_count("prelu") == 1
    assert _param_count("sinlu") == 2
    assert _param_count("frelu") == 1
    assert _param_count("ewend") == 1  # alpha only by default
    assert _param_count("ewend(train=alpha|lambda|beta|eps)") == 4
    assert _param_count("wc2") == 0
    for kind in ALL_KINDS:
        assert _param_count(kind) == _TRAINABLE_BY_DEFAULT.get(kind, 0), kind


def test_parse_format_round_trip():
    texts = [
        "relu",
        "lrelu(slope=0.05)",
        "ewend(alpha=2,k=3,lambda=0.2,beta=0.5,eps=0.02,mode=channel)",
        "ewend(alpha=1,k=4,lambda=0.1,beta=1,eps=0.01,mode=elem,train=alpha|beta)",
        "sinlu(a=2,b=0.5)",
        "prelu(slope=0.3)",
        "rrelu(lo=0.1,hi=0.2)",
        "elu(alpha=0.5)",
        "celu(alpha=2)",
        "srelu(tl=-2,al=0.2,tr=2,ar=0.3)",
        "frelu(alpha=0.5)",
        "ewend(train=)",
    ] + list(ALL_KINDS)
    for text in texts:
        spec = parse_activation(text)
        again = parse_activation(format_activation(spec))
        assert format_activation(again) == format_activation(spec)


def test_parse_errors_name_the_problem():
    with pytest.raises(ConfigError, match="slope"):
        parse_activation("lrelu(slope=abc)")
    with pytest.raises(ConfigError, match="bogus"):
        parse_activation("ewend(bogus=1)")
    # train tokens are the trainable coefficients' text names
    for token in ("gamma", "lam", "mode"):
        with pytest.raises(ConfigError, match=token):
            parse_activation(f"ewend(train=alpha|{token})")
    with pytest.raises(ConfigError):
        parse_activation("wc2(x=1)")
    with pytest.raises(ConfigError):
        parse_activation("rrelu(lo=0.5,hi=0.1)")
    # a key given twice, in any case, is an error, not a silent last value
    for text, message in (("lrelu(slope=1,slope=2)", "lrelu: parameter 'slope'"),
                          ("ewend(alpha=2,ALPHA=3)", "ewend: parameter 'alpha'")):
        with pytest.raises(ConfigError) as err:
            parse_activation(text)
        assert str(err.value) == f"{message} is given more than once"


_BASELINES = ("relu", "relu6", "lrelu", "prelu", "rrelu", "elu", "celu", "swish",
              "srelu", "sinlu", "frelu", "sigmoid", "tanh", "gelu")


def test_every_kind_is_listed():
    assert len(_BASELINES) == 14
    assert len(ALL_KINDS) == 18
    assert set(ALL_KINDS) == set(_BASELINES) | {"wc0", "wc2", "wc4", "ewend"}


# --- properties of every kind, through its record ---------------------------

@st.composite
def _spec_texts(draw, kind):
    """Text of `kind` with random valid coefficients, each written as %g
    gives it, so that formatting the parsed spec reproduces it exactly."""
    def number(lo, hi):
        return f"{draw(st.floats(lo, hi)):g}"

    if kind == "ewend":
        train = draw(st.lists(st.sampled_from(("alpha", "lambda", "beta", "eps")), unique=True))
        pairs = {"alpha": number(0.25, 4.0), "k": str(draw(st.integers(1, 8))),
                 "lambda": number(0.0, 0.5), "beta": number(0.25, 4.0),
                 "eps": number(0.0, 0.1), "mode": draw(st.sampled_from(("elem", "channel"))),
                 "train": "|".join(train)}
    else:
        # every default scaled by its own factor; rrelu needs lo <= hi
        pairs = {key: f"{default * draw(st.floats(0.5, 2.0)):g}"
                 for key, default in KINDS[kind].defaults.items()}
        if kind == "rrelu":
            pairs["lo"], pairs["hi"] = sorted(pairs.values(), key=float)
    body = ",".join(f"{key}={value}" for key, value in pairs.items())
    return f"{kind}({body})" if body else kind


_PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)


@pytest.mark.parametrize("kind", ALL_KINDS)
@_PROPERTY_SETTINGS
@given(data=st.data())
def test_parse_format_round_trip_on_random_coefficients(kind, data):
    spec = parse_activation(data.draw(_spec_texts(kind)))
    assert parse_activation(format_activation(spec)) == spec


@pytest.mark.parametrize("kind", ALL_KINDS)
@_PROPERTY_SETTINGS
@given(data=st.data())
def test_finite_values_and_gradients_on_finite_inputs(kind, data):
    rec, c = _coefficients(data.draw(_spec_texts(kind)))
    x = data.draw(arrays(np.float64, (3, 4), elements=st.floats(-1e6, 1e6)))
    # x's first axis runs over 3 replicas, each with its own generator or none
    gens = [default_rng(i) for i in range(3)] if data.draw(st.booleans()) else None
    y, aux = rec.forward(c, x, gens)
    dx, grads = rec.backward(c, x, aux, np.ones_like(x))
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(dx))
    assert all(np.isfinite(g) for g in grads.values())


def _kink_gap(layer, x):
    """Distance from the listed kinks of the variable they lie on: the slice
    norm for channel-mode ewend, each element otherwise.  Its kind lists the
    kinks at the layer's current coefficients."""
    spec, = layer.specs  # a layer of one replica
    kinks = KINDS[spec.kind].kinks({**spec.params, **layer.current_coefficients()[0]})
    if not kinks:
        return np.inf
    channel = spec.kind == "ewend" and spec.params["mode"] == "channel"
    at = np.sqrt(np.sum(x * x, axis=-1)) if channel else x
    return min(float(np.abs(at - kink).min()) for kink in kinks)


@pytest.mark.parametrize("kind", ALL_KINDS)
@_PROPERTY_SETTINGS
@given(data=st.data())
def test_layer_gradients_match_finite_differences(kind, data):
    layer = ActivationLayer([parse_activation(data.draw(_spec_texts(kind)))])
    rng = default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-3.0, 3.0, size=(1, 3, 4))  # a stack of one replica
    assume(_kink_gap(layer, x) > 1e-3)
    up = rng.standard_normal(x.shape)
    params = layer.params()

    def f(vec):
        for param, stored in zip(params, vec):
            param.value[...] = stored
        return float(np.sum(up * layer.forward(vec[len(params):].reshape(x.shape), None, True)))

    base = np.concatenate([[p.value.item() for p in params], x.ravel()])
    f(base)
    dx = layer.backward(up)
    analytic = np.concatenate([[p.grad.item() for p in params], dx.ravel()])
    assert finite_diff_check(f, base, lambda v: analytic @ v, probes=20, step=central_step(base),
                             rng=rng) < 1e-6


_EDGE_CASES = list(ALL_KINDS) + [f"ewend(alpha={a},k={k})" for k in range(1, 9) for a in (0.5, 2)]


@pytest.mark.parametrize("text", _EDGE_CASES)
def test_derivative_continuous_away_from_listed_kinks(text):
    # a kink missing from `kinks()` shows up here as a jump in dy/dx, not as
    # a gradient check that fails for some seeds only; the support edges of
    # wc2, wc4 and ewend with k >= 2 are smooth points and stay in the grid
    rec, c = _coefficients(text)
    edges = [1.0] + ([1.0 / c["alpha"]] if rec.name == "ewend" else [])
    x = np.concatenate([np.linspace(-8.0, 8.0, 1601), [0.0], edges, np.negative(edges)])
    for kink in rec.kinks(c):
        x = x[np.abs(x - kink) > 1e-3]
    delta = 1e-8
    left, right = _derivative(rec, c, x - delta), _derivative(rec, c, x + delta)
    assert np.max(np.abs(left - right)) < 1e-3


@pytest.mark.parametrize("text", _EDGE_CASES + ["elu(alpha=0.5)"])
def test_derivative_jumps_at_every_listed_kink(text):
    # the converse of the test above: a listed point where dy/dx is
    # continuous (as for wc0 at +-1, elu at alpha=1 and celu) would keep
    # gradient checks away from inputs they could check
    rec, c = _coefficients(text)
    kinks = np.asarray(rec.kinks(c), dtype=np.float64)
    delta = 1e-8
    left, right = _derivative(rec, c, kinks - delta), _derivative(rec, c, kinks + delta)
    assert np.all(np.abs(left - right) > 1e-3)
