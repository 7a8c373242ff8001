"""Baseline activation registry: values, derivatives, parameter schema, and
the canonical text encoding."""

import numpy as np
import pytest

from wendnet.activations import (
    ALL_KINDS,
    BASELINE_KINDS,
    ConfigError,
    baseline_eval,
    baseline_param_grads,
    format_activation,
    parse_activation,
)
from wendnet.tensor import make_rng, relative_error


def _defaults(kind):
    spec = parse_activation(kind)
    return spec.params


def test_relu_values():
    y, dy = baseline_eval("relu", {}, np.array([-3.0, 0.0, 2.0]))
    np.testing.assert_array_equal(y, [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(dy, [0.0, 1.0, 1.0])  # right derivative at 0


def test_elu_continuous_at_origin():
    y, dy = baseline_eval("elu", {"alpha": 1.0}, np.array([0.0]))
    assert y[0] == 0.0
    assert dy[0] == 1.0
    h = 1e-9
    yl, _ = baseline_eval("elu", {"alpha": 1.0}, np.array([-h]))
    yr, _ = baseline_eval("elu", {"alpha": 1.0}, np.array([h]))
    assert abs(yl[0] / -h - 1.0) < 1e-6 and abs(yr[0] / h - 1.0) < 1e-6


def test_sinlu_zero_at_origin():
    for a, b in [(1.0, 1.0), (0.3, 2.0), (5.0, 0.1)]:
        y, _ = baseline_eval("sinlu", {"a": a, "b": b}, np.array([0.0]))
        assert y[0] == 0.0


def test_frelu_matches_formula():
    x = np.array([-1.0, 0.5, 2.0])
    y, _ = baseline_eval("frelu", {"alpha": 2.0}, x)
    sig = 1.0 / (1.0 + np.exp(-2.0 * x))
    np.testing.assert_allclose(y, x * sig, atol=1e-15)


def test_gelu_values():
    # f(x) = x * Phi(x) with the exact normal CDF
    x = np.array([-1.0, 0.0, 1.0])
    y, _ = baseline_eval("gelu", {}, x)
    from scipy.stats import norm
    np.testing.assert_allclose(y, x * norm.cdf(x), atol=1e-12)


def test_relu6_saturates():
    y, dy = baseline_eval("relu6", {}, np.array([-1.0, 3.0, 7.0]))
    np.testing.assert_array_equal(y, [0.0, 3.0, 6.0])
    np.testing.assert_array_equal(dy, [0.0, 1.0, 0.0])


def test_srelu_piecewise():
    p = _defaults("srelu")
    y, dy = baseline_eval("srelu", p, np.array([-2.0, 0.0, 2.0]))
    assert y[0] == pytest.approx(p["tl"] + p["al"] * (-2.0 - p["tl"]))
    assert y[1] == 0.0
    assert y[2] == pytest.approx(p["tr"] + p["ar"] * (2.0 - p["tr"]))
    np.testing.assert_array_equal(dy, [p["al"], 1.0, p["ar"]])


def test_rrelu_training_vs_eval():
    x = np.full(1000, -1.0)
    p = _defaults("rrelu")
    y_eval, dy_eval = baseline_eval("rrelu", p, x, training=False)
    mean_slope = 0.5 * (p["lo"] + p["hi"])
    np.testing.assert_allclose(y_eval, -mean_slope, atol=1e-15)
    np.testing.assert_allclose(dy_eval, mean_slope, atol=1e-15)

    rng = make_rng(8)
    y_tr, dy_tr = baseline_eval("rrelu", p, x, training=True, rng=rng)
    slopes = -y_tr
    assert np.all((slopes >= p["lo"]) & (slopes <= p["hi"]))
    assert slopes.std() > 0.01
    np.testing.assert_allclose(dy_tr, slopes, atol=1e-15)  # consistent pair


def test_rrelu_training_requires_rng():
    with pytest.raises(ConfigError):
        baseline_eval("rrelu", _defaults("rrelu"), np.zeros(2), training=True)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        baseline_eval("mystery", {}, np.zeros(1))
    with pytest.raises(ConfigError):
        parse_activation("mystery(1)")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_finite_everywhere(kind):
    x = np.array([-1e6, -100.0, -1.0, 0.0, 1.0, 100.0, 1e6])
    params = _defaults(kind)
    if kind == "ewend":
        return  # covered by the enhanced-forward tests
    y, dy = baseline_eval(kind, params, x)
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(dy))


_KINKS = {
    "relu": (0.0,), "relu6": (0.0, 6.0), "lrelu": (0.0,), "prelu": (0.0,),
    "rrelu": (0.0,), "elu": (0.0,), "celu": (0.0,),
    "srelu": (-1.0, 1.0), "wc0": (-1.0, 0.0, 1.0),
}


@pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k != "ewend"])
def test_derivative_matches_finite_differences(kind):
    rng = make_rng(9)
    params = _defaults(kind)
    x = rng.uniform(-3.0, 3.0, size=1000)
    for kink in _KINKS.get(kind, ()):
        x = x[np.abs(x - kink) > 1e-4]
    h = 1e-6
    yp, _ = baseline_eval(kind, params, x + h)
    ym, _ = baseline_eval(kind, params, x - h)
    _, dy = baseline_eval(kind, params, x)
    assert relative_error(dy, (yp - ym) / (2 * h)) < 1e-6


def test_trainable_param_grads_match_finite_differences():
    rng = make_rng(10)
    x = rng.uniform(-3.0, 3.0, size=200)
    for kind in ("prelu", "sinlu", "frelu"):
        params = dict(_defaults(kind))
        grads = baseline_param_grads(kind, params, x)
        for name in grads:
            h = 1e-6
            hi = dict(params); hi[name] += h
            lo = dict(params); lo[name] -= h
            yp, _ = baseline_eval(kind, hi, x)
            ym, _ = baseline_eval(kind, lo, x)
            assert relative_error(grads[name], (yp - ym) / (2 * h)) < 1e-6, (kind, name)


_TRAINABLE_BY_DEFAULT = {"prelu": 1, "sinlu": 2, "frelu": 1, "ewend": 1}


def test_param_counts():
    assert parse_activation("relu").param_count() == 0
    assert parse_activation("prelu").param_count() == 1
    assert parse_activation("sinlu").param_count() == 2
    assert parse_activation("frelu").param_count() == 1
    assert parse_activation("ewend").param_count() == 1  # alpha only by default
    assert parse_activation("ewend(train=alpha|lambda|beta|eps)").param_count() == 4
    assert parse_activation("wc2").param_count() == 0
    for kind in ALL_KINDS:
        assert parse_activation(kind).param_count() == _TRAINABLE_BY_DEFAULT.get(kind, 0), kind


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
    with pytest.raises(ConfigError):
        parse_activation("wc2(x=1)")
    with pytest.raises(ConfigError):
        parse_activation("rrelu(lo=0.5,hi=0.1)")


def test_every_kind_is_listed():
    assert len(BASELINE_KINDS) == 14
    assert set(ALL_KINDS) == set(BASELINE_KINDS) | {"wc0", "wc2", "wc4", "ewend"}
