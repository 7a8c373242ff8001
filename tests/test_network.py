"""Network forward/backward, losses, optimizers, and the training loop."""

import math
import re

import numpy as np
import pytest

from wendnet.activations import parse_activation
from wendnet.network import (
    SGD,
    ActivationLayer,
    Adam,
    Dense,
    Network,
    NumericalError,
    Param,
    build_mlp,
    eval_loss,
    gradient_check_network,
    min_kink_gap,
    mse_loss,
    run_gradient_check,
    softmax_cross_entropy,
    train,
)
from wendnet.datasets import make_moons, split
from wendnet.tensor import ShapeError, make_rng, relative_error


def test_empty_network_is_identity():
    net = Network([])
    x = make_rng(0).standard_normal((3, 2))
    np.testing.assert_array_equal(net.forward(x), x)


def test_single_dense_identity_weights():
    rng = make_rng(1)
    layer = Dense(3, 3, [rng])
    layer.w.value[...] = np.eye(3)
    layer.b.value[...] = 0.0
    x = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(Network([layer]).forward(x), x)


def test_dense_then_relu_hand_computed():
    rng = make_rng(2)
    dense = Dense(1, 1, [rng])
    dense.w.value[...] = 2.0
    dense.b.value[...] = 1.0
    net = Network([dense, ActivationLayer(parse_activation("relu"))])
    out = net.forward(np.array([[-1.0], [3.0]]))
    np.testing.assert_array_equal(out, [[0.0], [7.0]])


def test_zero_upstream_gives_zero_gradients():
    rng = make_rng(3)
    net = build_mlp([2, 4, 2], parse_activation("ewend"), [rng])
    net.grad[...] = 1.0  # a backward writes every gradient, it adds to none
    net.forward(rng.standard_normal((3, 2)))
    net.backward(np.zeros((3, 2)))
    assert np.all(net.grad == 0.0)


@pytest.mark.parametrize("kind", ["relu", "prelu", "sinlu",
                                  "ewend(train=alpha|lambda|beta|eps)"])
def test_backward_overwrites_every_gradient(kind):
    # Dense weights and biases, and every trainable activation coefficient
    rng = make_rng(35)
    net = build_mlp([2, 4, 4, 2], parse_activation(kind), [rng])
    net.grad[...] = np.nan
    net.forward(rng.standard_normal((5, 2)))
    net.backward(rng.standard_normal((5, 2)))
    assert np.all(np.isfinite(net.grad))


@pytest.mark.parametrize("kind", ["relu", "ewend(train=alpha|lambda|beta|eps)"])
def test_backward_without_input_gradient(kind):
    rng = make_rng(36)
    net = build_mlp([3, 5, 2], parse_activation(kind), [rng])
    net.forward(rng.standard_normal((4, 3)))
    up = rng.standard_normal((4, 2))
    dx = net.backward(up, need_dx=True)
    with_dx = net.grad.copy()
    net.grad[...] = np.nan
    assert net.backward(up, need_dx=False) is None
    assert dx.shape == (4, 3)
    assert net.grad.tobytes() == with_dx.tobytes()


def test_whole_network_gradient_ewend():
    err = run_gradient_check(parse_activation("ewend"), widths=(2, 4, 2),
                             seed=1, probes=200)
    assert err < 1e-6


def test_whole_network_gradient_channel_mode():
    spec = parse_activation("ewend(alpha=1,k=4,lambda=0.1,beta=1,eps=0.01,mode=channel)")
    err = run_gradient_check(spec, widths=(2, 4, 2), seed=1, probes=200)
    assert err < 1e-6


def test_gradient_check_clears_kinks_by_the_probe_step():
    # seed 6016's first base point lies 2.3e-7 from a relu kink, within the
    # 1.1e-6 reach of the finite-difference probes, so it must be redrawn
    err = run_gradient_check(parse_activation("relu"), widths=(2, 8, 8, 2),
                             seed=6016, probes=200)
    assert err < 1e-6


def test_gradient_check_makes_one_base_forward_per_candidate(monkeypatch):
    # seed 6016 draws two candidate base points (see above); each takes one
    # forward, and each of the 5 probes two more
    import wendnet.network as network

    calls = {"check": 0, "forward": 0}
    check, forward = network.gradient_check_network, Network.forward

    def counted_check(*args, **kwargs):
        calls["check"] += 1
        return check(*args, **kwargs)

    def counted_forward(self, *args, **kwargs):
        calls["forward"] += 1
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(network, "gradient_check_network", counted_check)
    monkeypatch.setattr(Network, "forward", counted_forward)
    err = run_gradient_check(parse_activation("relu"), seed=6016, probes=5)
    assert err < 1e-6
    assert calls == {"check": 2, "forward": 2 + 2 * 5}


def test_gradient_check_near_a_kink_is_none_and_draws_nothing():
    # zero inputs put every first-layer pre-activation on the relu kink at 0
    net = build_mlp([2, 8, 8, 2], parse_activation("relu"), [make_rng(37)])
    before = net.theta.copy()
    rng = make_rng(38)
    state = rng.bit_generator.state
    assert gradient_check_network(net, np.zeros((4, 2)), rng, probes=5) is None
    assert rng.bit_generator.state == state
    np.testing.assert_array_equal(net.theta, before)


def _layer_walking_kink_gap(net, x):
    """Reference: the kink gap from a forward loop of its own."""
    gap = float("inf")
    for layer in net.layers:
        if isinstance(layer, ActivationLayer):
            for kink in layer.kinks():
                gap = min(gap, float(np.abs(x - kink).min()))
        x = layer.forward(x, training=False, rng=None)
    return gap


@pytest.mark.parametrize("kind", ["relu", "srelu", "wc0", "ewend(k=1)"])
def test_min_kink_gap_reads_the_last_forward(kind):
    rng = make_rng(31)
    net = build_mlp([2, 8, 8, 2], parse_activation(kind), [rng])
    for _ in range(5):
        x = rng.standard_normal((6, 2))
        expected = _layer_walking_kink_gap(net, x)
        net.forward(x)
        assert min_kink_gap(net) == expected


@pytest.mark.parametrize("kind", ["tanh", "relu", "ewend(k=1,train=alpha|lambda|beta|eps)"])
def test_gradient_check_restores_theta(kind):
    net = build_mlp([2, 8, 8, 2], parse_activation(kind), [make_rng(32)])
    before = net.theta.copy()
    gradient_check_network(net, make_rng(33).standard_normal((4, 2)), make_rng(34), probes=5)
    np.testing.assert_array_equal(net.theta, before)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradient_check_non_finite_is_a_failure():
    net = build_mlp([2, 4, 2], parse_activation("tanh"), [make_rng(21)])
    net.layers[0].w.value[0, 0] = np.nan
    err = gradient_check_network(net, make_rng(22).standard_normal((3, 2)),
                                 make_rng(23), probes=5)
    assert err == float("inf")


def test_alpha_gradient_outside_support_matches_linear_exp_path():
    # when alpha*r > 1 for every element, the Wendland branch contributes
    # nothing: gradients equal those of a profile with the bump removed
    from wendnet.activations import KINDS, EnhancedWendlandParams

    rng = make_rng(4)
    x = rng.uniform(2.0, 5.0, size=50) * np.sign(rng.standard_normal(50))
    up = rng.standard_normal(50)
    p_full = EnhancedWendlandParams(alpha=1.0, train=("alpha", "lam", "beta", "eps"))
    rec = KINDS["ewend"]
    _, profile = rec.forward(p_full, x, True, None)
    dx_full, g_full = rec.backward(p_full, x, profile, up)

    lam, beta, eps = p_full.lam, p_full.beta, p_full.eps
    r = np.abs(x)
    g_no_wend = lam * r + eps * np.exp(-beta * r)
    dg_no_wend = lam - eps * beta * np.exp(-beta * r)
    np.testing.assert_allclose(dx_full, up * (g_no_wend + r * dg_no_wend), atol=1e-12)
    assert g_full["alpha"] == 0.0
    assert g_full["lam"] == pytest.approx(float(np.sum(up * x * r)), rel=1e-12)


def test_mse_loss():
    x = np.array([[1.0, 2.0]])
    value, grad = mse_loss(x, x)
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_mse_gradient_matches_finite_differences():
    rng = make_rng(5)
    pred = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 3))
    _, grad = mse_loss(pred, target)
    h = 1e-7
    for i in range(4):
        for j in range(3):
            p = pred.copy(); p[i, j] += h
            m = pred.copy(); m[i, j] -= h
            numeric = (mse_loss(p, target)[0] - mse_loss(m, target)[0]) / (2 * h)
            assert relative_error(grad[i, j], numeric) < 1e-7


def test_cross_entropy_uniform_logits():
    value, _ = softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
    assert value == pytest.approx(math.log(2.0), abs=1e-12)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = make_rng(6)
    logits = rng.standard_normal((5, 4))
    labels = rng.integers(0, 4, size=5)
    _, grad = softmax_cross_entropy(logits, labels)
    h = 1e-7
    for i in range(5):
        for j in range(4):
            p = logits.copy(); p[i, j] += h
            m = logits.copy(); m[i, j] -= h
            numeric = (softmax_cross_entropy(p, labels)[0]
                       - softmax_cross_entropy(m, labels)[0]) / (2 * h)
            assert relative_error(grad[i, j], numeric) < 1e-7


def test_cross_entropy_label_out_of_range():
    with pytest.raises(Exception):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def _textbook_mse(pred, target):
    diff = pred - target
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


def _textbook_xent(logits, labels):
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    log_z = np.log(np.sum(probs, axis=1))
    value = float(np.mean(log_z - shifted[np.arange(n), labels]))
    probs /= np.exp(log_z)[:, None]
    probs[np.arange(n), labels] -= 1.0
    return value, probs / n


def test_losses_match_textbook_bit_for_bit():
    # the checked public losses and the unchecked kernels `train` calls
    # through eval_loss give the bits of the plain np.mean/np.sum forms
    rng = make_rng(40)
    for _ in range(300):
        n, c = int(rng.integers(1, 70)), int(rng.integers(1, 12))
        scale = 10.0 ** rng.uniform(-3, 3)
        pred = scale * rng.standard_normal((n, c))
        target = scale * rng.standard_normal((n, c))
        labels = rng.integers(0, c, size=n)
        for kind, public, textbook, y in (("mse", mse_loss, _textbook_mse, target),
                                          ("xent", softmax_cross_entropy, _textbook_xent, labels)):
            want_value, want_grad = textbook(pred, y)
            values, grads = eval_loss(kind, pred[None], y)  # a stack of one
            for value, grad in (public(pred, y), (values[0], grads[0])):
                assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
                assert grad.shape == want_grad.shape
                assert grad.tobytes() == want_grad.tobytes()


class _OneParam:
    """A layer holding a single parameter, so that a Network packs it."""

    def __init__(self, name, value):
        self.p = Param(name, np.array([value]))

    def params(self):
        return [self.p]


def _one_param_net(name, value):
    net = Network([_OneParam(name, value)])
    return net, net.layers[0].p


def test_sgd_step():
    net, p = _one_param_net("p", 0.0)
    p.grad[...] = 1.0
    SGD(net, lr=0.1).step()
    assert p.value[0] == pytest.approx(-0.1)


def test_sgd_zero_gradient_no_change():
    net, p = _one_param_net("p", 1.5)
    SGD(net, lr=0.1, momentum=0.0).step()
    assert p.value[0] == 1.5


def test_adam_first_step_magnitude():
    # bias-corrected first step moves by ~lr regardless of gradient size
    for g in (1e-4, 1.0, 1e4):
        net, p = _one_param_net("p", 0.0)
        p.grad[...] = g
        Adam(net, lr=1e-3).step()
        assert abs(p.value[0]) == pytest.approx(1e-3, rel=1e-3)
        assert p.value[0] < 0


def test_optimizer_rejects_non_finite_gradient():
    net, p = _one_param_net("bad_param", 0.0)
    p.grad[...] = np.nan
    with pytest.raises(NumericalError, match="bad_param"):
        Adam(net).step()


def test_non_finite_gradient_names_its_parameter():
    net = build_mlp([2, 3, 2], parse_activation("prelu"), [make_rng(24)])
    net.layers[1]._params["slope"].grad[...] = np.inf
    net.layers[2].b.grad[..., 1] = np.nan
    with pytest.raises(NumericalError, match=r"parameter act0\.slope$"):
        net.check_finite_grad()


def test_finite_gradients_whose_sum_overflows_pass_the_check():
    net = _wide_net()
    net.grad[...] = 1e308
    with np.errstate(over="ignore"):  # as in train
        assert not math.isfinite(np.add.reduce(net.grad))
        net.check_finite_grad()


@pytest.mark.parametrize("bad", [(np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf)],
                         ids=["nan", "inf", "-inf", "inf-pair"])
def test_non_finite_gradient_in_any_parameter_is_named(bad):
    # every parameter of both nets, the wide net's last ones in Adam's last block
    for make_net in (_reference_net, _wide_net):
        net = make_net()
        opt = Adam(net)
        theta = net.theta.tobytes()
        for p in [p for layer in net.layers for p in layer.params()]:
            for at in (0,) if len(bad) > 1 else (0, -1):
                net.grad[...] = 0.0
                p.grad.flat[at] = bad[0]
                if len(bad) > 1:  # the pair sums to nan; its second half ends the vector
                    net.grad[-1] = bad[1]
                with np.errstate(invalid="ignore"):
                    with pytest.raises(NumericalError, match=rf"parameter {re.escape(p.name)}$"):
                        opt.step()
        assert net.theta.tobytes() == theta and opt.step_count == 0


class _TextbookSGD:
    """Per-parameter SGD with momentum: the reference for the flat SGD."""

    def __init__(self, params, lr, momentum):
        self.params, self.lr, self.momentum = params, lr, momentum
        self.velocity = [np.zeros_like(p.value) for p in params]

    def step(self):
        for p, v in zip(self.params, self.velocity):
            v[...] = self.momentum * v + p.grad
            p.value -= self.lr * v


class _TextbookAdam:
    """Per-parameter Adam in the step-size form of Kingma & Ba's section 2,
    lr_t = lr sqrt(1 - beta2^t) / (1 - beta1^t) and eps_hat = eps sqrt(1 -
    beta2^t): the reference for the flat Adam."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0

    def _moments(self):
        """Each parameter with its moments, updated for step t."""
        for p, m, v in zip(self.params, self.m, self.v):
            m[...] = self.beta1 * m + (1.0 - self.beta1) * p.grad
            v[...] = self.beta2 * v + (1.0 - self.beta2) * p.grad * p.grad
            yield p, m, v

    def step(self):
        self.t += 1
        lr_t = self.lr * math.sqrt(1.0 - self.beta2 ** self.t) / (1.0 - self.beta1 ** self.t)
        eps_hat = self.eps * math.sqrt(1.0 - self.beta2 ** self.t)
        for p, m, v in self._moments():
            p.value -= lr_t * (m / (np.sqrt(v) + eps_hat))


class _Algorithm1Adam(_TextbookAdam):
    """Per-parameter Adam as Kingma & Ba's Algorithm 1 writes it, with
    bias-corrected moments: the section-2 form up to rounding."""

    def step(self):
        self.t += 1
        for p, m, v in self._moments():
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _reference_net():
    rng = make_rng(25)
    return Network([
        Dense(2, 8, [rng], name="dense0"),
        ActivationLayer(parse_activation("ewend(train=alpha|beta)"), name="act0"),
        Dense(8, 8, [rng], name="dense1"),
        ActivationLayer(parse_activation("prelu"), name="act1"),
        Dense(8, 2, [rng], name="dense2"),
    ])


def _wide_net():
    # 91,802 parameters: three of Adam's blocks, the last one partial
    return build_mlp([2, 300, 300, 2], parse_activation("relu"), [make_rng(27)])


@pytest.mark.parametrize("flat, textbook", [
    (lambda net: SGD(net, lr=0.05, momentum=0.9),
     lambda params: _TextbookSGD(params, lr=0.05, momentum=0.9)),
    (lambda net: Adam(net, lr=0.01),
     lambda params: _TextbookAdam(params, lr=0.01)),
], ids=["sgd-momentum", "adam"])
def test_flat_optimizers_match_textbook_bit_for_bit(flat, textbook):
    for make_net in (_reference_net, _wide_net):
        data = make_rng(26)
        x = data.standard_normal((64, 2))
        labels = (x[:, 0] * x[:, 1] > 0).astype(np.int64)
        net_a, net_b = make_net(), make_net()
        opt_a = flat(net_a)
        opt_b = textbook([p for layer in net_b.layers for p in layer.params()])
        for step in range(20):
            idx = data.choice(64, size=16, replace=False)
            for net, opt in ((net_a, opt_a), (net_b, opt_b)):
                _, grad = softmax_cross_entropy(net.forward(x[idx], training=True), labels[idx])
                net.backward(grad)
                opt.step()
            np.testing.assert_array_equal(net_a.theta, net_b.theta,
                                          err_msg=f"{make_net.__name__} step {step}")
        assert not np.array_equal(net_a.theta, make_net().theta)  # it did train


def test_adam_stays_within_rounding_of_algorithm_1():
    # the section-2 form folds the bias corrections into lr_t and eps_hat,
    # which moves bits but not the method: after 500 steps at the default
    # lr, every value of the wide net is within 1e-9 relative of Algorithm
    # 1's (3.3e-11 measured)
    data = make_rng(26)
    x = data.standard_normal((64, 2))
    labels = (x[:, 0] * x[:, 1] > 0).astype(np.int64)
    net_a, net_b = _wide_net(), _wide_net()
    opt_a = Adam(net_a, lr=1e-3)
    opt_b = _Algorithm1Adam([p for layer in net_b.layers for p in layer.params()], lr=1e-3)
    for _ in range(500):
        idx = data.choice(64, size=16, replace=False)
        for net, opt in ((net_a, opt_a), (net_b, opt_b)):
            _, grad = softmax_cross_entropy(net.forward(x[idx], training=True), labels[idx])
            net.backward(grad)
            opt.step()
    assert not np.array_equal(net_a.theta, net_b.theta)  # the bits did move
    np.testing.assert_allclose(net_a.theta, net_b.theta, rtol=1e-9, atol=0)


def test_wide_net_spans_several_adam_blocks():
    assert _wide_net().theta.size == 91_802 > 2 * Adam._BLOCK


@pytest.mark.parametrize("make_opt", [
    lambda net: Adam(net, lr=0.01),
    lambda net: SGD(net, lr=0.05, momentum=0.9),
    lambda net: SGD(net, lr=0.05),
], ids=["adam", "sgd-momentum", "sgd"])
def test_sign_of_a_zero_gradient_never_reaches_theta(make_opt):
    # a backward may write a -0.0 gradient where adding it to a zeroed one
    # gives +0.0; the moments start at +0.0, so theta moves the same
    values = [0.0, 0.0, 0.5, -1.5, 2.0, 0.0]
    net_a = Network([_OneParam(f"p{i}", v) for i, v in enumerate(values)])
    net_b = Network([_OneParam(f"p{i}", v) for i, v in enumerate(values)])
    opt_a, opt_b = make_opt(net_a), make_opt(net_b)
    data = make_rng(37)
    for step in range(12):
        g = data.standard_normal(len(values))
        zero = data.random(len(values)) < 0.5
        zero[step % len(values)] = True
        g[zero] = -0.0
        net_a.grad[...] = g
        net_b.grad[...] = 0.0 + g
        assert np.signbit(net_a.grad[net_a.grad == 0.0]).any()
        assert not np.signbit(net_b.grad[net_b.grad == 0.0]).any()
        opt_a.step()
        opt_b.step()
        assert net_a.theta.tobytes() == net_b.theta.tobytes(), f"step {step}"


def test_train_zero_epochs():
    rng = make_rng(7)
    net = build_mlp([1, 4, 1], parse_activation("tanh"), [rng])
    before = net.theta.copy()
    records = train(net, np.zeros((4, 1)), np.zeros((4, 1)), "mse",
                    SGD(net, lr=0.1), epochs=0, batch_size=2,
                    rngs=[make_rng(8)])
    assert records == [[]]
    np.testing.assert_array_equal(net.theta, before)


def test_train_linear_regression_converges():
    # y = 2x is a convex quadratic for a 1-1 linear net; SGD finds w=2
    dense = Dense(1, 1, [make_rng(9)])
    net = Network([dense])
    x = np.linspace(-1, 1, 32)[:, None]
    y = 2.0 * x
    opt = SGD(net, lr=0.1)
    train(net, x, y, "mse", opt, epochs=300, batch_size=8, rngs=[make_rng(10)])
    assert abs(dense.w.value[0, 0] - 2.0) < 1e-3
    assert abs(dense.b.value[0]) < 1e-3


def test_train_determinism():
    def one_run():
        rng = make_rng(11)
        net = build_mlp([2, 8, 2], parse_activation("ewend"), [rng])
        opt = Adam(net, lr=1e-2)
        x = make_rng(12).standard_normal((40, 2))
        labels = (x[:, 0] > 0).astype(np.int64)
        recs, = train(net, x, labels, "xent", opt, epochs=5, batch_size=8,
                      rngs=[make_rng(13)], x_test=x, y_test=labels)
        return [(r.train_loss, r.test_loss, r.test_accuracy, r.activation_params)
                for r in recs]
    assert one_run() == one_run()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_reported():
    net = build_mlp([1, 4, 1], parse_activation("relu"), [make_rng(14)])
    opt = SGD(net, lr=1e12)  # guaranteed blow-up
    x = np.linspace(-1, 1, 16)[:, None]
    records, = train(net, x, 100 * x, "mse", opt, epochs=20, batch_size=4,
                     rngs=[make_rng(15)])
    assert records[-1].status == "diverged"
    assert len(records) < 20


def test_nontrainable_coefficients_bit_identical_after_training():
    spec = parse_activation("ewend(alpha=1.5,k=4,lambda=0.1,beta=1,eps=0.01)")
    net = build_mlp([1, 8, 1], spec, [make_rng(16)])
    layer = [l for l in net.layers if isinstance(l, ActivationLayer)][0]
    before = layer.current_coefficients()
    x = np.linspace(-2, 2, 64)[:, None]
    train(net, x, np.sin(x), "mse", Adam(net, lr=1e-2),
          epochs=20, batch_size=16, rngs=[make_rng(17)])
    after = layer.current_coefficients()
    assert after["lambda"] == before["lambda"]
    assert after["beta"] == before["beta"]
    assert after["eps"] == before["eps"]
    assert after["alpha"] != before["alpha"]  # alpha did learn


def test_positive_coefficients_survive_optimization():
    spec = parse_activation("ewend(train=alpha|beta)")
    net = build_mlp([1, 8, 1], spec, [make_rng(18)])
    layer = [l for l in net.layers if isinstance(l, ActivationLayer)][0]
    x = np.linspace(-3, 3, 64)[:, None]
    train(net, x, 5 * np.sin(3 * x), "mse", Adam(net, lr=0.5),
          epochs=50, batch_size=16, rngs=[make_rng(19)])
    coeffs = layer.current_coefficients()
    assert coeffs["alpha"] > 0.0
    assert coeffs["beta"] > 0.0


def test_per_layer_activation_state_is_independent():
    spec = parse_activation("prelu")
    net = build_mlp([1, 4, 4, 1], spec, [make_rng(20)])
    acts = [l for l in net.layers if isinstance(l, ActivationLayer)]
    assert len(acts) == 2
    acts[0]._params["slope"].value[...] = 0.9
    assert acts[1]._params["slope"].value.item() == 0.25


# --- train checks its targets once; the step is the textbook step ------------

def _two_class_data(seed, n=150, test_fraction=0.3):
    x, y = make_moons(n, 0.2, make_rng(seed))
    return split(x, y, test_fraction, make_rng(seed + 1))


@pytest.mark.parametrize("where, value", [("train", 2), ("train", -1),
                                          ("test", 2), ("test", -1)])
def test_train_rejects_an_out_of_range_label_before_any_update(where, value):
    x_train, y_train, x_test, y_test = _two_class_data(44)
    labels = y_train if where == "train" else y_test
    labels[-1] = value
    net = build_mlp([2, 8, 2], parse_activation("relu"), [make_rng(45)])
    opt = Adam(net, lr=1e-2)
    theta = net.theta.tobytes()
    # the message names the network's last width and what the labels need
    need = ("but the labels run up to 2: it must be at least 3" if value == 2
            else "but a label is -1: labels must be >= 0")
    with pytest.raises(ShapeError, match=r"class index out of range \[0, 2\): the network's "
                                         rf"last width is 2, {need}$"):
        train(net, x_train, y_train, "xent", opt, epochs=2, batch_size=16,
              rngs=[make_rng(46)], x_test=x_test, y_test=y_test)
    assert net.theta.tobytes() == theta and opt.step_count == 0


@pytest.mark.parametrize("where", ["train", "test"])
def test_train_rejects_an_input_width_before_any_update(where):
    x_train, y_train, x_test, y_test = _two_class_data(50)
    if where == "train":
        x_train = np.hstack([x_train, x_train[:, :1]])
    else:
        x_test = np.hstack([x_test, x_test[:, :1]])
    net = build_mlp([2, 8, 2], parse_activation("relu"), [make_rng(51)])
    opt = Adam(net, lr=1e-2)
    theta = net.theta.tobytes()
    with pytest.raises(ShapeError, match=r"^the network's first width is 2, but the data have "
                                         r"3 input columns: it must be 3$"):
        train(net, x_train, y_train, "xent", opt, epochs=2, batch_size=16,
              rngs=[make_rng(52)], x_test=x_test, y_test=y_test)
    assert net.theta.tobytes() == theta and opt.step_count == 0


@pytest.mark.parametrize("loss_kind, y_shape", [("xent", (20, 1)), ("mse", (20, 2)),
                                                ("mse", (20,))])
def test_train_rejects_a_target_shape_before_any_update(loss_kind, y_shape):
    net = build_mlp([2, 4, 1], parse_activation("tanh"), [make_rng(47)])
    opt = SGD(net, lr=0.1)
    theta = net.theta.tobytes()
    with pytest.raises(ShapeError):
        train(net, make_rng(48).standard_normal((20, 2)), np.zeros(y_shape, dtype=np.int64),
              loss_kind, opt, epochs=1, batch_size=8, rngs=[make_rng(49)])
    assert net.theta.tobytes() == theta



def test_mse_shape_error_names_prediction_and_target():
    # the message reaches a user as their exit-2 line, so it says which is which
    with pytest.raises(ShapeError,
                       match=r"^mse: prediction shape \(3, 2\) vs target shape \(3, 1\)$"):
        mse_loss(np.zeros((3, 2)), np.zeros((3, 1)))


def _textbook_train(net, x, y, loss, optimizer, epochs, batch_size, rng, x_test, y_test):
    """The training loop with a checked public loss on every batch: the
    reference for `train`.  Returns each epoch's record fields but seconds."""
    records = []
    for epoch in range(epochs):
        order = rng.permutation(len(x))
        total = 0.0
        for start in range(0, len(x), batch_size):
            idx = order[start:start + batch_size]
            value, grad = loss(net.forward(x[idx], training=True, rng=[rng]), y[idx])
            net.backward(grad)
            optimizer.step()
            total += value * len(idx)
        pred = net.forward(x_test)
        accuracy = (float(np.mean(pred.argmax(axis=1) == y_test))
                    if loss is softmax_cross_entropy else None)
        records.append((epoch, total / len(x), loss(pred, y_test)[0], accuracy,
                        net.activation_coefficients()[0], "ok"))
    return records


@pytest.mark.parametrize("act_text, loss_kind", [
    ("relu", "xent"), ("tanh", "xent"), ("prelu", "xent"), ("rrelu", "xent"),
    ("ewend", "xent"), ("ewend(mode=channel,train=alpha|lambda|beta|eps)", "xent"),
    ("tanh", "mse"),
])
def test_train_matches_the_textbook_loop_bit_for_bit(act_text, loss_kind):
    x_train, y_train, x_test, y_test = _two_class_data(50)
    if loss_kind == "mse":
        y_train, y_test = np.sin(x_train), np.sin(x_test)
    loss = softmax_cross_entropy if loss_kind == "xent" else mse_loss
    spec = parse_activation(act_text)
    net_a = build_mlp([2, 16, 16, 2], spec, [make_rng(51)])
    net_b = build_mlp([2, 16, 16, 2], spec, [make_rng(51)])
    records, = train(net_a, x_train, y_train, loss_kind, Adam(net_a, lr=5e-3), epochs=3,
                     batch_size=32, rngs=[make_rng(52)], x_test=x_test, y_test=y_test)
    want = _textbook_train(net_b, x_train, y_train, loss, Adam(net_b, lr=5e-3), 3, 32,
                           make_rng(52), x_test, y_test)
    got = [(r.epoch, r.train_loss, r.test_loss, r.test_accuracy, r.activation_params, r.status)
           for r in records]
    assert got == want
    assert net_a.theta.tobytes() == net_b.theta.tobytes()
    assert not np.array_equal(net_a.theta, build_mlp([2, 16, 16, 2], spec, [make_rng(51)]).theta)


# --- a stack of replicas trains each replica as it trains alone ---------------

def _train_replicas(spec, seeds, make_opt, epochs):
    """Train one stack of len(seeds) replicas, replica r from make_rng(seeds[r])
    and its shuffle from make_rng(seeds[r] + 100); returns each replica's
    records, without their wall time, and the theta bytes of each replica
    left in the stack."""
    x_train, y_train, x_test, y_test = _two_class_data(53)
    net = build_mlp([2, 16, 16, 2], spec, [make_rng(s) for s in seeds])
    records = train(net, x_train, y_train, "xent", make_opt(net), epochs=epochs, batch_size=32,
                    rngs=[make_rng(s + 100) for s in seeds], x_test=x_test, y_test=y_test)
    fields = [[(r.epoch, r.train_loss, r.test_loss, r.test_accuracy, r.activation_params,
                r.status) for r in recs] for recs in records]
    blocks = net.theta.reshape(net.replicas, -1) if net.replicas else []
    return fields, [block.tobytes() for block in blocks]


@pytest.mark.parametrize("make_opt", [lambda net: Adam(net, lr=5e-3),
                                      lambda net: SGD(net, lr=0.05, momentum=0.9)],
                         ids=["adam", "sgd"])
@pytest.mark.parametrize("act_text", [
    "relu", "rrelu", "prelu", "ewend(train=alpha|lambda|beta|eps)",
    "ewend(mode=channel,train=alpha|lambda|beta|eps)"])
def test_stack_trains_each_replica_as_it_trains_alone(act_text, make_opt):
    spec = parse_activation(act_text)
    seeds = (54, 55, 56)
    stacked, thetas = _train_replicas(spec, seeds, make_opt, epochs=3)
    assert len(set(thetas)) == 3
    for r, seed in enumerate(seeds):
        assert _train_replicas(spec, (seed,), make_opt, epochs=3) == ([stacked[r]], [thetas[r]])


def test_a_diverging_replica_leaves_the_stack_and_the_others_train_on():
    # under this SGD, replica 0's gradient turns non-finite in epoch 4 and
    # replica 1's loss in epoch 5; replica 2 trains all 6 epochs
    spec = parse_activation("ewend(train=alpha|lambda|beta|eps)")
    seeds = (60, 61, 64)

    def make_opt(net):
        return SGD(net, lr=0.3, momentum=0.9)

    stacked, thetas = _train_replicas(spec, seeds, make_opt, epochs=6)
    assert [recs[-1][0::5] for recs in stacked] == [(4, "diverged"), (5, "diverged"), (5, "ok")]
    alone = [_train_replicas(spec, (seed,), make_opt, epochs=6) for seed in seeds]
    # assert_equal takes a NaN train loss as equal to itself
    np.testing.assert_equal([fields for fields, _ in alone], [[f] for f in stacked])
    assert thetas == alone[2][1]  # the one replica left in the stack
