"""Network forward/backward, losses, optimizers, and the training loop."""

import math
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import default_rng

from wendnet import network
from wendnet.activations import KINDS, parse_activation
from wendnet.network import (
    SGD,
    ActivationLayer,
    Adam,
    Dense,
    Network,
    Param,
    _check_targets,
    build_mlp,
    eval_loss,
    run_gradient_check,
    train,
)
from wendnet.datasets import make_moons, split
from wendnet.tensor import ConfigError, features, relative_error, substream


def test_single_dense_identity_weights():
    rng = default_rng(1)
    layer = Dense(3, 3, [rng])
    layer.w.value[...] = np.eye(3)
    layer.b.value[...] = 0.0
    x = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(Network([layer]).forward(x), x[None])  # a stack of one


def test_dense_then_relu_hand_computed():
    rng = default_rng(2)
    dense = Dense(1, 1, [rng])
    dense.w.value[...] = 2.0
    dense.b.value[...] = 1.0
    net = Network([dense, ActivationLayer([parse_activation("relu")])])
    out = net.forward(np.array([[-1.0], [3.0]]))
    np.testing.assert_array_equal(out, [[[0.0], [7.0]]])


def test_zero_upstream_gives_zero_gradients():
    rng = default_rng(3)
    net = build_mlp([2, 4, 2], parse_activation("ewend"), [rng])
    net.grad[...] = 1.0  # a backward writes every gradient, it adds to none
    net.forward(rng.standard_normal((3, 2)), training=True)
    net.backward(np.zeros((1, 3, 2)))
    assert np.all(net.grad == 0.0)


@pytest.mark.parametrize("kind", ["relu", "prelu", "sinlu",
                                  "ewend(train=alpha|lambda|beta|eps)"])
def test_backward_overwrites_every_gradient(kind):
    # Dense weights and biases, and every trainable activation coefficient
    rng = default_rng(35)
    net = build_mlp([2, 4, 4, 2], parse_activation(kind), [rng])
    net.grad[...] = np.nan
    net.forward(rng.standard_normal((5, 2)), training=True)
    net.backward(rng.standard_normal((1, 5, 2)))
    assert np.all(np.isfinite(net.grad))


@pytest.mark.parametrize("kind", ["relu", "ewend(train=alpha|lambda|beta|eps)"])
def test_backward_without_input_gradient(kind):
    rng = default_rng(36)
    net = build_mlp([3, 5, 2], parse_activation(kind), [rng])
    net.forward(rng.standard_normal((4, 3)), training=True)
    up = rng.standard_normal((1, 4, 2))
    dx = net.backward(up, need_dx=True)
    with_dx = net.grad.copy()
    net.grad[...] = np.nan
    assert net.backward(up, need_dx=False) is None
    assert dx.shape == (1, 4, 3)
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
    # training forward, and each of the 5 probes two lean ones.  The
    # candidates are the substream's first two batches after the weights,
    # so the rejected one drew nothing more
    spec = parse_activation("relu")
    bases, forward = [], Network.forward

    def counted_forward(self, x, training=False, rng=None):
        bases.append(x.copy() if training else None)
        return forward(self, x, training, rng)

    monkeypatch.setattr(Network, "forward", counted_forward)
    err = run_gradient_check(spec, seed=6016, probes=5)
    assert err < 1e-6
    assert len(bases) == 2 + 2 * 5
    rng = substream(6016, "grad-check", "relu")
    build_mlp([2, 8, 8, 2], spec, [rng])
    first, second = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    np.testing.assert_array_equal(bases[0], first)
    np.testing.assert_array_equal(bases[1], second)
    assert all(x is None for x in bases[2:])


def _kink_gap(net):
    return min(layer.kink_gap() for layer in net._activations())


def _layer_walking_kink_gap(net, x):
    """Reference: the kink gap from a forward loop of its own, each layer's
    kinks listed by its kind at the layer's current coefficients and lying
    on the slice norm for channel-mode ewend, on each element otherwise."""
    gap = float("inf")
    for layer in net.layers:
        if isinstance(layer, ActivationLayer):
            spec, = layer.specs  # a layer of one replica
            channel = spec.kind == "ewend" and spec.params["mode"] == "channel"
            at = np.sqrt(np.sum(x * x, axis=-1)) if channel else x
            for kink in KINDS[spec.kind].kinks({**spec.params,
                                                **layer.current_coefficients()[0]}):
                gap = min(gap, float(np.abs(at - kink).min()))
        x = layer.forward(x, None, False)
    return gap


@pytest.mark.parametrize("kind", ["relu", "srelu", "wc0", "ewend(k=1)",
                                  "ewend(mode=channel,k=1)"])
def test_min_kink_gap_reads_the_last_forward(kind):
    rng = default_rng(31)
    net = build_mlp([2, 8, 8, 2], parse_activation(kind), [rng])
    for _ in range(5):
        x = rng.standard_normal((6, 2))
        expected = _layer_walking_kink_gap(net, x)
        net.forward(x, training=True)
        assert _kink_gap(net) == expected


def test_gradient_check_flags_a_wrong_derivative(monkeypatch):
    tanh = KINDS["tanh"]

    def wrong(x, c):
        y, dy = tanh.value(x, c)
        return y, 1.1 * dy

    monkeypatch.setitem(KINDS, "tanh", replace(tanh, value=wrong))
    assert run_gradient_check(parse_activation("tanh"), probes=5) > 1e-3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradient_check_non_finite_is_a_failure(monkeypatch):
    def with_a_nan_weight(*args):
        net = build_mlp(*args)
        net.layers[0].w.value[0, 0, 0] = np.nan
        return net

    monkeypatch.setattr(network, "build_mlp", with_a_nan_weight)
    assert run_gradient_check(parse_activation("tanh"), probes=5) == math.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradient_check_nan_on_one_side_is_a_failure(monkeypatch):
    # a NaN on only the analytic or only the numeric side must not read as a
    # perfect match
    tanh = KINDS["tanh"]

    def nan_derivative(x, c):
        y, dy = tanh.value(x, c)
        return y, np.full_like(dy, np.nan)

    with monkeypatch.context() as m:
        m.setitem(KINDS, "tanh", replace(tanh, value=nan_derivative))
        assert run_gradient_check(parse_activation("tanh"), probes=5) == math.inf

    forward = Network.forward

    def nan_probes(self, x, training=False, rng=None):
        out = forward(self, x, training, rng)
        return out if training else np.full_like(out, np.nan)

    monkeypatch.setattr(Network, "forward", nan_probes)
    assert run_gradient_check(parse_activation("tanh"), probes=5) == math.inf


def test_alpha_gradient_outside_support_matches_linear_exp_path():
    # when alpha*r > 1 for every element, the Wendland branch contributes
    # nothing: gradients equal those of a profile with the bump removed
    from wendnet.activations import KINDS

    rng = default_rng(4)
    x = rng.uniform(2.0, 5.0, size=50) * np.sign(rng.standard_normal(50))
    up = rng.standard_normal(50)
    rec = KINDS["ewend"]
    p_full = {**rec.defaults, "alpha": 1.0, "train": ("alpha", "lambda", "beta", "eps")}
    _, profile = rec.forward(p_full, x, None)
    dx_full, g_full = rec.backward(p_full, x, profile, up)

    lam, beta, eps = p_full["lambda"], p_full["beta"], p_full["eps"]
    r = np.abs(x)
    g_no_wend = lam * r + eps * np.exp(-beta * r)
    dg_no_wend = lam - eps * beta * np.exp(-beta * r)
    np.testing.assert_allclose(dx_full, up * (g_no_wend + r * dg_no_wend), atol=1e-12)
    assert g_full["alpha"] == 0.0
    assert g_full["lambda"] == pytest.approx(float(np.sum(up * x * r)), rel=1e-12)


def _loss(kind, pred, target):
    """(value, gradient wrt pred) of one prediction, on the path `train`
    takes: the target check once, then the kernel behind eval_loss."""
    _check_targets(kind, target, pred.shape)
    values, grads = eval_loss(kind, pred[None], target)  # a stack of one
    return float(values[0]), grads[0]


def test_mse_loss():
    x = np.array([[1.0, 2.0]])
    value, grad = _loss("mse", x, x)
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_mse_gradient_matches_finite_differences():
    rng = default_rng(5)
    pred = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 3))
    _, grad = _loss("mse", pred, target)
    h = 1e-7
    for i in range(4):
        for j in range(3):
            p = pred.copy(); p[i, j] += h
            m = pred.copy(); m[i, j] -= h
            numeric = (_loss("mse", p, target)[0] - _loss("mse", m, target)[0]) / (2 * h)
            assert relative_error(grad[i, j], numeric) < 1e-7


def test_cross_entropy_uniform_logits():
    value, _ = _loss("xent", np.array([[0.0, 0.0]]), np.array([0]))
    assert value == pytest.approx(math.log(2.0), abs=1e-12)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = default_rng(6)
    logits = rng.standard_normal((5, 4))
    labels = rng.integers(0, 4, size=5)
    _, grad = _loss("xent", logits, labels)
    h = 1e-7
    for i in range(5):
        for j in range(4):
            p = logits.copy(); p[i, j] += h
            m = logits.copy(); m[i, j] -= h
            numeric = (_loss("xent", p, labels)[0] - _loss("xent", m, labels)[0]) / (2 * h)
            assert relative_error(grad[i, j], numeric) < 1e-7


def test_cross_entropy_label_out_of_range():
    with pytest.raises(Exception):
        _loss("xent", np.zeros((2, 3)), np.array([0, 3]))


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
    # the kernels `train` calls through eval_loss give the bits of the plain
    # np.mean/np.sum forms
    rng = default_rng(40)
    for _ in range(300):
        n, c = int(rng.integers(1, 70)), int(rng.integers(1, 12))
        scale = 10.0 ** rng.uniform(-3, 3)
        pred = scale * rng.standard_normal((n, c))
        target = scale * rng.standard_normal((n, c))
        labels = rng.integers(0, c, size=n)
        for kind, textbook, y in (("mse", _textbook_mse, target),
                                  ("xent", _textbook_xent, labels)):
            want_value, want_grad = textbook(pred, y)
            values, grads = eval_loss(kind, pred[None], y)  # a stack of one
            value, grad = values[0], grads[0]
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


class _BigGradient:
    """An identity layer whose one parameter, two entries per replica, gets a
    gradient of 1e308 in each: finite entries whose sum overflows."""

    def __init__(self, replicas):
        self.p = Param("big", np.zeros((replicas, 2)))

    def params(self):
        return [self.p]

    def forward(self, x, rng, keep):
        # a first layer, as a Dense: every replica takes all the rows of 2-D x
        return np.broadcast_to(x, self.p.value.shape[:1] + x.shape[-2:])

    def backward(self, upstream, need_dx=True):
        self.p.grad[...] = 1e308
        return upstream if need_dx else None


def test_finite_gradients_whose_sum_overflows_pass_the_check():
    # train's sum of the gradient overflows, its scan finds every entry
    # finite: no replica ends, and the step is the plain one
    net = Network([_BigGradient(replicas=3)])
    x = np.zeros((4, 1))
    records = train(net, x, x, "mse", SGD(net, lr=1.0), epochs=1, batch_size=4,
                    rngs=[default_rng(r) for r in range(3)], x_test=np.ones((2, 1)),
                    y_test=np.ones((2, 1)))
    assert [[rec.status for rec in recs] for recs in records] == [["ok"]] * 3
    plain = Network([_BigGradient(replicas=3)])
    plain.grad[...] = 1e308
    SGD(plain, lr=1.0).step()
    assert net.theta.tobytes() == plain.theta.tobytes() and (net.theta == -1e308).all()


def _train_fields(net, x, labels, optimizer, rngs, epochs=3):
    records = train(net, x, labels, "xent", optimizer, epochs=epochs, batch_size=8,
                    rngs=rngs, x_test=x, y_test=labels)
    return [[(r.epoch, r.train_loss, r.test_loss, r.test_accuracy, r.activation_params,
              r.status) for r in recs] for recs in records]


def test_finite_gradient_entries_whose_squares_overflow_pass_the_check(monkeypatch):
    # inputs near 1e199 give weight gradients near 1e200: their sum is
    # finite, the dot of the gradient with itself overflows, so train falls
    # through to the scan, which finds every entry finite
    x = 1e199 * default_rng(70).standard_normal((16, 2))
    labels = (x[:, 0] > 0).astype(np.int64)

    def fields():
        net = build_mlp([2, 4, 2], parse_activation("relu"), [default_rng(71), default_rng(72)])
        return _train_fields(net, x, labels, Adam(net), [default_rng(73), default_rng(74)])

    scans = []
    scan = Network.nonfinite_replicas

    def spy(net):
        found = scan(net)
        scans.append((np.abs(net.grad).max(), np.add.reduce(net.grad), net.grad @ net.grad,
                      found.any()))
        return found

    with monkeypatch.context() as m:
        m.setattr(Network, "nonfinite_replicas", spy)
        checked = fields()
    assert len(scans) == 3 * 2  # every batch: 3 epochs of 2 batches
    for biggest, total, squares, found in scans:
        assert 1e190 < biggest < np.inf and np.isfinite(total)
        assert squares == np.inf and not found
    assert [[rec[-1] for rec in recs] for recs in checked] == [["ok"] * 3] * 2
    assert all(np.isfinite(rec[1]) for recs in checked for rec in recs)
    # the records of a check that passes here without a scan, as the check by
    # the plain sum of the gradient did
    monkeypatch.setattr(network, "math", SimpleNamespace(sqrt=math.sqrt, isfinite=lambda v: True))
    assert fields() == checked


class _NanGradient(_BigGradient):
    """The identity layer above, whose gradient is NaN in the replica at place
    1 of a stack of 3, and 0 elsewhere."""

    def backward(self, upstream, need_dx=True):
        self.p.grad[...] = 0.0
        if len(self.p.grad) == 3:
            self.p.grad[1] = np.nan
        return upstream if need_dx else None


def test_a_nan_gradient_ends_only_its_own_replica():
    net = Network([_NanGradient(replicas=3)])
    x = np.zeros((4, 1))
    records = train(net, x, x, "mse", SGD(net, lr=1.0), epochs=2, batch_size=4,
                    rngs=[default_rng(r) for r in range(3)], x_test=np.ones((2, 1)),
                    y_test=np.ones((2, 1)))
    assert [[(rec.epoch, rec.status) for rec in recs] for recs in records] == [
        [(0, "ok"), (1, "ok")], [(0, "diverged")], [(0, "ok"), (1, "ok")]]


def test_uint8_rows_train_as_their_float_intensities():
    # a stack of relu and a trained ewend at width 784: the stored pixels and
    # the pixels cast and scaled first give the same records and parameters
    rng = default_rng(75)
    pixels = rng.integers(0, 256, size=(48, 784)).astype(np.uint8)
    labels = rng.integers(0, 10, size=48)
    specs = [parse_activation(text) for text in ("relu", "ewend(train=alpha|lambda)")]

    def run(x):
        net = build_mlp([784, 8, 10], specs, [default_rng(76), default_rng(77)])
        fields = _train_fields(net, x, labels, Adam(net, lr=1e-2),
                               [default_rng(78), default_rng(79)], epochs=2)
        return fields, net.theta.tobytes()

    stored, scaled = run(pixels), run(pixels.astype(np.float64) / 255.0)
    assert stored == scaled
    assert all(rec[-1] == "ok" for recs in stored[0] for rec in recs)


@pytest.mark.parametrize("convert", [
    lambda x: x.tolist(), lambda x: x.astype(np.float32), lambda x: x.astype(np.int64)],
    ids=["list", "float32", "int64"])
def test_other_rows_train_unscaled(convert):
    # whole-number rows up to 255 that a float32 holds exactly: the records
    # are those of the float64 rows, so none of them entered as pixels
    rng = default_rng(80)
    x = rng.integers(0, 256, size=(24, 3)).astype(np.float64)
    labels = (x[:, 0] > 127).astype(np.int64)

    def run(rows):
        net = build_mlp([3, 4, 2], parse_activation("tanh"), [default_rng(81)])
        return _train_fields(net, rows, labels, Adam(net), [default_rng(82)], epochs=2)

    assert run(convert(x)) == run(x)


@pytest.mark.parametrize("bad", [(np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf)],
                         ids=["nan", "inf", "-inf", "inf-pair"])
def test_non_finite_gradient_in_any_parameter_flags_its_replica(bad):
    # every parameter of both nets, in a stack of 3, at its first and last entry
    for make_net in (_reference_net, _wide_net):
        net = make_net(replicas=3)
        for p in [p for layer in net.layers for p in layer.params()]:
            for r in range(3):
                for at in (0,) if len(bad) > 1 else (0, -1):
                    net.grad[...] = 0.0
                    p.grad[r].flat[at] = bad[0]
                    if len(bad) > 1:  # the pair sums to nan; its second half ends the block
                        net.grad.reshape(3, -1)[r, -1] = bad[1]
                    np.testing.assert_array_equal(net.nonfinite_replicas(), np.arange(3) == r)


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


def _reference_net(replicas=1):
    rngs = [default_rng(25 + r) for r in range(replicas)]
    ewend, prelu = parse_activation("ewend(train=alpha|beta)"), parse_activation("prelu")
    return Network([
        Dense(2, 8, rngs, name="dense0"),
        ActivationLayer([ewend] * replicas, name="act0"),
        Dense(8, 8, rngs, name="dense1"),
        ActivationLayer([prelu] * replicas, name="act1"),
        Dense(8, 2, rngs, name="dense2"),
    ])


def _wide_net(replicas=1):
    # 91,802 parameters per replica: three of Adam's blocks, the last one partial
    return build_mlp([2, 300, 300, 2], parse_activation("relu"),
                     [default_rng(27 + r) for r in range(replicas)])


@pytest.mark.parametrize("flat, textbook", [
    (lambda net: SGD(net, lr=0.05, momentum=0.9),
     lambda params: _TextbookSGD(params, lr=0.05, momentum=0.9)),
    (lambda net: Adam(net, lr=0.01),
     lambda params: _TextbookAdam(params, lr=0.01)),
], ids=["sgd-momentum", "adam"])
def test_flat_optimizers_match_textbook_bit_for_bit(flat, textbook):
    for make_net in (_reference_net, _wide_net):
        data = default_rng(26)
        x = data.standard_normal((64, 2))
        labels = (x[:, 0] * x[:, 1] > 0).astype(np.int64)
        net_a, net_b = make_net(), make_net()
        opt_a = flat(net_a)
        opt_b = textbook([p for layer in net_b.layers for p in layer.params()])
        for step in range(20):
            idx = data.choice(64, size=16, replace=False)
            for net, opt in ((net_a, opt_a), (net_b, opt_b)):
                _, grad = _textbook_xent(net.forward(x[idx], training=True)[0], labels[idx])
                net.backward(grad[None])
                opt.step()
            np.testing.assert_array_equal(net_a.theta, net_b.theta,
                                          err_msg=f"{make_net.__name__} step {step}")
        assert not np.array_equal(net_a.theta, make_net().theta)  # it did train


def test_adam_stays_within_rounding_of_algorithm_1():
    # the section-2 form folds the bias corrections into lr_t and eps_hat,
    # which moves bits but not the method: after 500 steps at the default
    # lr, every value of the wide net is within 1e-9 relative of Algorithm
    # 1's (3.3e-11 measured)
    data = default_rng(26)
    x = data.standard_normal((64, 2))
    labels = (x[:, 0] * x[:, 1] > 0).astype(np.int64)
    net_a, net_b = _wide_net(), _wide_net()
    opt_a = Adam(net_a, lr=1e-3)
    opt_b = _Algorithm1Adam([p for layer in net_b.layers for p in layer.params()], lr=1e-3)
    for _ in range(500):
        idx = data.choice(64, size=16, replace=False)
        for net, opt in ((net_a, opt_a), (net_b, opt_b)):
            _, grad = _textbook_xent(net.forward(x[idx], training=True)[0], labels[idx])
            net.backward(grad[None])
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
    data = default_rng(37)
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
    rng = default_rng(7)
    net = build_mlp([1, 4, 1], parse_activation("tanh"), [rng])
    before = net.theta.copy()
    records = train(net, np.zeros((4, 1)), np.zeros((4, 1)), "mse",
                    SGD(net, lr=0.1), epochs=0, batch_size=2,
                    rngs=[default_rng(8)], x_test=np.ones((2, 1)), y_test=np.ones((2, 1)))
    assert records == [[]]
    np.testing.assert_array_equal(net.theta, before)


def test_train_linear_regression_converges():
    # y = 2x is a convex quadratic for a 1-1 linear net; SGD finds w=2
    dense = Dense(1, 1, [default_rng(9)])
    net = Network([dense])
    x = np.linspace(-1, 1, 32)[:, None]
    y = 2.0 * x
    opt = SGD(net, lr=0.1)
    x_test = np.linspace(-0.9, 0.9, 7)[:, None]
    train(net, x, y, "mse", opt, epochs=300, batch_size=8, rngs=[default_rng(10)],
          x_test=x_test, y_test=2.0 * x_test)
    assert abs(dense.w.value[0, 0] - 2.0) < 1e-3
    assert abs(dense.b.value[0]) < 1e-3


def test_train_determinism():
    def one_run():
        rng = default_rng(11)
        net = build_mlp([2, 8, 2], parse_activation("ewend"), [rng])
        opt = Adam(net, lr=1e-2)
        x = default_rng(12).standard_normal((40, 2))
        labels = (x[:, 0] > 0).astype(np.int64)
        recs, = train(net, x, labels, "xent", opt, epochs=5, batch_size=8,
                      rngs=[default_rng(13)], x_test=x, y_test=labels)
        return [(r.train_loss, r.test_loss, r.test_accuracy, r.activation_params)
                for r in recs]
    assert one_run() == one_run()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_reported():
    net = build_mlp([1, 4, 1], parse_activation("relu"), [default_rng(14)])
    opt = SGD(net, lr=1e12)  # guaranteed blow-up
    x = np.linspace(-1, 1, 16)[:, None]
    x_test = np.linspace(-0.9, 0.9, 5)[:, None]
    records, = train(net, x, 100 * x, "mse", opt, epochs=20, batch_size=4,
                     rngs=[default_rng(15)], x_test=x_test, y_test=100 * x_test)
    assert records[-1].status == "diverged"
    assert len(records) < 20


def test_nontrainable_coefficients_bit_identical_after_training():
    spec = parse_activation("ewend(alpha=1.5,k=4,lambda=0.1,beta=1,eps=0.01)")
    net = build_mlp([1, 8, 1], spec, [default_rng(16)])
    layer = [l for l in net.layers if isinstance(l, ActivationLayer)][0]
    before, = layer.current_coefficients()
    x = np.linspace(-2, 2, 64)[:, None]
    x_test = np.linspace(-1.9, 1.9, 9)[:, None]
    train(net, x, np.sin(x), "mse", Adam(net, lr=1e-2),
          epochs=20, batch_size=16, rngs=[default_rng(17)], x_test=x_test, y_test=np.sin(x_test))
    after, = layer.current_coefficients()
    assert after["lambda"] == before["lambda"]
    assert after["beta"] == before["beta"]
    assert after["eps"] == before["eps"]
    assert after["alpha"] != before["alpha"]  # alpha did learn


def test_positive_coefficients_survive_optimization():
    spec = parse_activation("ewend(train=alpha|beta)")
    net = build_mlp([1, 8, 1], spec, [default_rng(18)])
    layer = [l for l in net.layers if isinstance(l, ActivationLayer)][0]
    x = np.linspace(-3, 3, 64)[:, None]
    x_test = np.linspace(-2.9, 2.9, 9)[:, None]
    train(net, x, 5 * np.sin(3 * x), "mse", Adam(net, lr=0.5), epochs=50, batch_size=16,
          rngs=[default_rng(19)], x_test=x_test, y_test=5 * np.sin(3 * x_test))
    coeffs, = layer.current_coefficients()
    assert coeffs["alpha"] > 0.0
    assert coeffs["beta"] > 0.0


def test_per_layer_activation_state_is_independent():
    spec = parse_activation("prelu")
    net = build_mlp([1, 4, 4, 1], spec, [default_rng(20)])
    acts = [l for l in net.layers if isinstance(l, ActivationLayer)]
    assert len(acts) == 2
    acts[0]._params["slope"].value[...] = 0.9
    assert acts[1]._params["slope"].value.item() == 0.25


# --- train checks its targets once; the step is the textbook step ------------

def _two_class_data(seed, n=150, test_fraction=0.3):
    x, y = make_moons(n, 0.2, default_rng(seed))
    return split(x, y, test_fraction, default_rng(seed + 1))


@pytest.mark.parametrize("where, value", [("train", 2), ("train", -1),
                                          ("test", 2), ("test", -1)])
def test_train_rejects_an_out_of_range_label_before_any_update(where, value):
    x_train, y_train, x_test, y_test = _two_class_data(44)
    labels = y_train if where == "train" else y_test
    labels[-1] = value
    net = build_mlp([2, 8, 2], parse_activation("relu"), [default_rng(45)])
    opt = Adam(net, lr=1e-2)
    theta = net.theta.tobytes()
    # the message names the network's last width and what the labels need
    need = ("but the labels run up to 2: it must be at least 3" if value == 2
            else "but a label is -1: labels must be >= 0")
    with pytest.raises(ConfigError, match=r"class index out of range \[0, 2\): the network's "
                                         rf"last width is 2, {need}$"):
        train(net, x_train, y_train, "xent", opt, epochs=2, batch_size=16,
              rngs=[default_rng(46)], x_test=x_test, y_test=y_test)
    assert net.theta.tobytes() == theta and opt.step_count == 0


@pytest.mark.parametrize("where", ["train", "test"])
def test_train_rejects_an_input_width_before_any_update(where):
    x_train, y_train, x_test, y_test = _two_class_data(50)
    if where == "train":
        x_train = np.hstack([x_train, x_train[:, :1]])
    else:
        x_test = np.hstack([x_test, x_test[:, :1]])
    net = build_mlp([2, 8, 2], parse_activation("relu"), [default_rng(51)])
    opt = Adam(net, lr=1e-2)
    theta = net.theta.tobytes()
    with pytest.raises(ConfigError, match=r"^the network's first width is 2, but the data have "
                                         r"3 input columns: it must be 3$"):
        train(net, x_train, y_train, "xent", opt, epochs=2, batch_size=16,
              rngs=[default_rng(52)], x_test=x_test, y_test=y_test)
    assert net.theta.tobytes() == theta and opt.step_count == 0


@pytest.mark.parametrize("loss_kind, y_shape", [("xent", (20, 1)), ("mse", (20, 2)),
                                                ("mse", (20,))])
def test_train_rejects_a_target_shape_before_any_update(loss_kind, y_shape):
    net = build_mlp([2, 4, 1], parse_activation("tanh"), [default_rng(47)])
    opt = SGD(net, lr=0.1)
    theta = net.theta.tobytes()
    with pytest.raises(ConfigError):
        train(net, default_rng(48).standard_normal((20, 2)), np.zeros(y_shape, dtype=np.int64),
              loss_kind, opt, epochs=1, batch_size=8, rngs=[default_rng(49)],
              x_test=np.zeros((5, 2)), y_test=np.zeros((5,) if loss_kind == "xent" else (5, 1)))
    assert net.theta.tobytes() == theta



def test_mse_shape_error_names_prediction_and_target():
    # the message reaches a user as their exit-2 line, so it says which is
    # which, and a target of the wrong width names the network's last width
    net = build_mlp([2, 4, 2], parse_activation("tanh"), [default_rng(50)])
    opt = SGD(net, lr=0.1)
    theta = net.theta.tobytes()
    for y_shape, message in (
            ((3, 1), r"^mse: prediction shape \(3, 2\) vs target shape \(3, 1\): the network's "
                     r"last width is 2, but the targets have 1 column: it must be 1$"),
            ((4, 2), r"^mse: prediction shape \(3, 2\) vs target shape \(4, 2\)$")):
        with pytest.raises(ConfigError, match=message):
            train(net, np.zeros((3, 2)), np.zeros(y_shape), "mse", opt, epochs=1,
                  batch_size=2, rngs=[default_rng(51)], x_test=np.ones((2, 2)),
                  y_test=np.ones((2, 2)))
        assert net.theta.tobytes() == theta


def _textbook_train(net, x, y, loss, optimizer, epochs, batch_size, rng, x_test, y_test):
    """The training loop with a textbook loss on every batch: the reference
    for `train`.  Returns each epoch's record fields but seconds."""
    records = []
    for epoch in range(epochs):
        order = rng.permutation(len(x))
        total = 0.0
        for start in range(0, len(x), batch_size):
            idx = order[start:start + batch_size]
            value, grad = loss(net.forward(x[idx], training=True, rng=[rng])[0], y[idx])
            net.backward(grad[None])
            optimizer.step()
            total += value * len(idx)
        pred = net.forward(x_test)[0]
        accuracy = (float(np.mean(pred.argmax(axis=1) == y_test))
                    if loss is _textbook_xent else None)
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
    loss = _textbook_xent if loss_kind == "xent" else _textbook_mse
    spec = parse_activation(act_text)
    net_a = build_mlp([2, 16, 16, 2], spec, [default_rng(51)])
    net_b = build_mlp([2, 16, 16, 2], spec, [default_rng(51)])
    records, = train(net_a, x_train, y_train, loss_kind, Adam(net_a, lr=5e-3), epochs=3,
                     batch_size=32, rngs=[default_rng(52)], x_test=x_test, y_test=y_test)
    want = _textbook_train(net_b, x_train, y_train, loss, Adam(net_b, lr=5e-3), 3, 32,
                           default_rng(52), x_test, y_test)
    got = [(r.epoch, r.train_loss, r.test_loss, r.test_accuracy, r.activation_params, r.status)
           for r in records]
    assert got == want
    assert net_a.theta.tobytes() == net_b.theta.tobytes()
    assert not np.array_equal(net_a.theta, build_mlp([2, 16, 16, 2], spec, [default_rng(51)]).theta)


# --- a stack of replicas trains each replica as it trains alone ---------------

def _train_replicas(spec, seeds, make_opt, epochs):
    """Train one stack of len(seeds) replicas, replica r from default_rng(seeds[r])
    and its shuffle from default_rng(seeds[r] + 100); returns each replica's
    records, without their wall time, and the theta bytes of each replica
    left in the stack."""
    x_train, y_train, x_test, y_test = _two_class_data(53)
    net = build_mlp([2, 16, 16, 2], spec, [default_rng(s) for s in seeds])
    records = train(net, x_train, y_train, "xent", make_opt(net), epochs=epochs, batch_size=32,
                    rngs=[default_rng(s + 100) for s in seeds], x_test=x_test, y_test=y_test)
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


@pytest.mark.parametrize("text", list(KINDS) + ["ewend(mode=channel,train=alpha|lambda|beta|eps)"])
def test_a_forward_without_generators_gives_the_eval_rows_in_either_layout(text):
    # the training layout (each replica's batch, one after another) and the
    # eval layout (2-D rows that every replica takes) give the same stack
    # when no generators are given: rrelu then takes its mean slope
    net = build_mlp([3, 6, 6, 2], parse_activation(text), [default_rng(90 + r) for r in range(3)])
    x = default_rng(93).standard_normal((5, 3))
    rows = net.forward(x)
    assert rows.shape == (3, 5, 2) and not np.array_equal(rows[0], rows[1])
    assert net.forward(np.tile(x, (3, 1)), training=True).tobytes() == rows.tobytes()


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


def test_each_batch_steps_once_while_replicas_diverge():
    # the stack above: the batch that ends a replica drops it before its one step
    steps = []

    class CountingSGD(SGD):
        def step(self):
            steps.append(self.net.replicas)
            super().step()

    spec = parse_activation("ewend(train=alpha|lambda|beta|eps)")
    _train_replicas(spec, (60, 61, 64), lambda net: CountingSGD(net, lr=0.3, momentum=0.9),
                    epochs=6)
    batches = math.ceil(len(_two_class_data(53)[0]) / 32)
    assert len(steps) == 6 * batches
    assert steps[0] == 3 and steps[-1] == 1 and steps == sorted(steps, reverse=True)


# --- a stack of many kinds trains each replica as its own kind's stack does ----

_MIXED = ["ewend(k=1,train=alpha|lambda|beta|eps)", "ewend(train=alpha|lambda|beta|eps)",
          "relu", "tanh", "rrelu", "prelu", "sinlu", "frelu",
          "ewend(mode=channel,train=alpha|lambda|beta|eps)"]


def _train_mixed(specs, seeds, make_opt, epochs=6):
    """Train one stack, replica r with specs[r], from default_rng(seeds[r]) and
    its shuffle from default_rng(seeds[r] + 100); returns the network, each
    replica's records without their wall time, and the replicas left."""
    x_train, y_train, x_test, y_test = _two_class_data(53)
    net = build_mlp([2, 16, 16, 2], specs if len(specs) > 1 else specs[0],
                    [default_rng(s) for s in seeds])
    records = train(net, x_train, y_train, "xent", make_opt(net), epochs=epochs, batch_size=32,
                    rngs=[default_rng(s + 100) for s in seeds], x_test=x_test, y_test=y_test)
    fields = [[(r.epoch, r.train_loss, r.test_loss, r.test_accuracy, r.activation_params,
                r.status) for r in recs] for recs in records]
    return net, fields, [r for r, recs in enumerate(records) if recs[-1].status == "ok"]


@pytest.mark.parametrize("make_opt", [lambda net: Adam(net, lr=400.0),
                                      lambda net: SGD(net, lr=0.3, momentum=0.9)],
                         ids=["adam", "sgd"])
def test_a_stack_of_many_kinds_trains_each_replica_as_it_trains_alone(make_opt):
    # two replicas per kind; under both optimizers some replicas diverge while
    # the others train on, so the stack shrinks across its groups
    specs = [parse_activation(text) for text in _MIXED for _ in range(2)]
    seeds = [80 + r for r in range(len(specs))]
    net, stacked, live = _train_mixed(specs, seeds, make_opt)
    assert 0 < len(live) < len(specs)
    params = {p.name: p for p in net._params}
    for r, (spec, seed) in enumerate(zip(specs, seeds)):
        alone_net, alone, _ = _train_mixed([spec], [seed], make_opt)
        # assert_equal takes a NaN train loss as equal to itself
        np.testing.assert_equal(alone, [stacked[r]])
        if r in live:
            alone_params = {p.name: p for p in alone_net._params}
            assert set(alone_params) <= set(params)
            for name, param in params.items():
                row = param.value[live.index(r)]
                if name in alone_params:
                    assert row.tobytes() == alone_params[name].value[0].tobytes(), (r, name)
                else:  # a coefficient the replica's kind does not train stays 0
                    assert not row.any(), (r, name)


def test_epoch_seconds_share_out_the_wall_time_by_activation(monkeypatch):
    # a fake clock that ticks once per reading, and a tanh kernel that takes 8
    # ticks more, make every figure exact
    now = [0.0]

    def monotonic():
        now[0] += 1.0
        return now[0]

    def slow_tanh(x, c):
        now[0] += 8.0
        return tanh.value(x, c)

    sigmoid_calls = []

    def nan_sigmoid(x, c):
        # the slope turns NaN in the third training batch of the first epoch
        sigmoid_calls.append(None)
        y, dy = sigmoid.value(x, c)
        return y, np.full_like(dy, np.nan) if len(sigmoid_calls) >= 5 else dy

    tanh, sigmoid = KINDS["tanh"], KINDS["sigmoid"]
    monkeypatch.setattr(network, "time", SimpleNamespace(monotonic=monotonic))
    monkeypatch.setitem(KINDS, "tanh", replace(tanh, value=slow_tanh))
    monkeypatch.setitem(KINDS, "sigmoid", replace(sigmoid, value=nan_sigmoid))
    calls = []  # (elapsed, figures) of each replica_seconds call
    replica_seconds = Network.replica_seconds
    monkeypatch.setattr(Network, "replica_seconds", lambda net, elapsed: calls.append(
        (elapsed, replica_seconds(net, elapsed))) or calls[-1][1])
    kept = []  # each activation layer's group seconds before and after a keep
    keep = ActivationLayer.keep
    monkeypatch.setattr(ActivationLayer, "keep", lambda layer, rows: kept.append(
        (list(layer.seconds), keep(layer, rows) or list(layer.seconds))))
    x_train, y_train, x_test, y_test = _two_class_data(53)

    def seconds(texts):
        """Each replica's epoch seconds, two repetitions per activation, each
        epoch's wall time and the trained network."""
        calls.clear()
        specs = [parse_activation(text) for text in texts for _ in range(2)]
        rngs = [default_rng(r) for r in range(len(specs))]
        net = build_mlp([2, 8, 8, 2], specs if len(texts) > 1 else specs[0], rngs)
        records = train(net, x_train, y_train, "xent", Adam(net), epochs=3, batch_size=32,
                        rngs=rngs, x_test=x_test, y_test=y_test)
        return [[rec.seconds for rec in recs] for recs in records], [c[0] for c in calls], net

    # one activation: each row carries its epoch's wall time, and each layer
    # timed its kernels, 9 ticks a forward and 1 a backward in the last epoch
    rows, one, net = seconds(["tanh"])
    assert len(one) == 3 and rows == [one, one]
    assert [layer.seconds for layer in net._activations()] == [[9.0 * 5 + 4]] * 2
    # two: each activation's figure is its own kernels' time plus half the
    # rest, the same for its repetitions; the figures add up to the wall time
    rows, two, _ = seconds(["relu", "tanh"])
    assert len(two) == 3 and rows[0] == rows[1] and rows[2] == rows[3]
    for relu_s, tanh_s, wall in zip(rows[0], rows[2], two):
        assert relu_s >= 0 and tanh_s >= 0 and relu_s + tanh_s == wall
        # tanh's 8 extra ticks per forward, in 2 layers, for 4 training
        # batches and the test forward of each epoch
        assert tanh_s - relu_s == 8 * 2 * 5
    # three, the middle one diverging mid-epoch: its rows take their share
    # of the epoch up to that batch, and the two groups left keep their
    # kernel time across the keep, so tanh still leads relu by the whole
    # epoch's 80 ticks and one replica per group adds up to the wall time
    assert kept == []
    rows, three, _ = seconds(["relu", "sigmoid", "tanh"])
    assert [len(row) for row in rows] == [3, 3, 1, 1, 3, 3]
    assert len(kept) == 2 and all(after == [before[0], before[2]] for before, after in kept)
    assert all(before[2] > before[0] > 0 for before, _ in kept)
    (diverged, shares), walls = calls[0], three[1:]
    assert shares[0] + shares[2] + shares[4] == diverged < walls[0]
    assert rows[2] == rows[3] == [shares[2]]
    for relu_s, tanh_s, wall in zip(rows[0], rows[4], walls):
        assert relu_s + tanh_s == wall and tanh_s - relu_s == 8 * 2 * 5


# a lean forward (outside training, without keep) runs each activation group
# in blocks of rows; these texts cover every kind, ewend's channel mode, its
# k < 2 branch and all its trained coefficients, and celu's masked branch
_BLOCKED_TEXTS = list(KINDS) + ["ewend(mode=channel)", "ewend(k=1)",
                                "ewend(train=alpha|lambda|beta|eps)", "celu(alpha=0)"]


def _lean_and_kept(layer, x, seed):
    """The layer's output from a lean forward and from a caching one, each
    given fresh generators of `seed` (only rrelu draws from them), with
    every trained coefficient moved off its initial value per replica."""
    rng = default_rng(seed)
    for param in layer.params():
        param.value[...] += rng.uniform(-0.1, 0.1, size=param.value.shape)

    def gens():
        return [default_rng([seed, r]) for r in range(x.shape[0])]

    with network.quiet_errstate():
        lean = layer.forward(x, gens(), False)
        assert layer._cache is None
        assert all(s > 0.0 for s in layer.seconds)  # every block's kernel call timed
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.ones_like(x))
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.kink_gap()
        kept = layer.forward(x, gens(), True)
    return lean, kept


def _blocked_input(rng, shape):
    """Inputs within +-3, but in the rows from a third to a half of the way
    through within +-12: only the blocks there reach past |x| = 4 sqrt(2),
    where gelu's erfc takes its tail branch."""
    x = rng.uniform(-3.0, 3.0, size=shape)
    x[:, shape[1] // 3:shape[1] // 2] *= 4.0
    return x


# the last two hold more than a block in one row of a group: each row is a
# block, and the one row of (70, 1, 256) is the whole layer's one call
@pytest.mark.parametrize("shape", [(2, 1000, 40), (3, 7, 5), (1, 3000, 300),
                                   (1, 3, 20000), (70, 1, 256)])
@pytest.mark.parametrize("text", _BLOCKED_TEXTS)
def test_a_lean_forward_writes_the_bytes_of_a_caching_one(text, shape):
    layer = ActivationLayer([parse_activation(text)] * shape[0])
    x = _blocked_input(default_rng(71), shape)
    lean, kept = _lean_and_kept(layer, x, 72)
    assert lean.tobytes() == kept.tobytes()
    layer.backward(np.ones_like(x))  # the caching forward's cache serves


def test_a_lean_forward_of_several_groups_writes_the_bytes_of_a_caching_one():
    texts = ["relu", "relu", "gelu", "ewend(mode=channel)", "ewend(mode=channel)",
             "prelu", "rrelu", "ewend(train=alpha|beta)"]
    layer = ActivationLayer([parse_activation(text) for text in texts])
    # rows of 40: 409 rows to a block in a group of one replica, 204 in a
    # group of two, so each group runs 3 or 5 blocks
    x = _blocked_input(default_rng(73), (len(texts), 1000, 40))
    lean, kept = _lean_and_kept(layer, x, 74)
    assert len(layer.seconds) == 6
    assert lean.tobytes() == kept.tobytes()


def test_a_network_forward_keeps_caches_only_in_training_or_when_asked():
    net = build_mlp([3, 6, 6, 2], parse_activation("ewend(k=1)"), [default_rng(75)])
    x = default_rng(76).standard_normal((5, 3))
    kept = net.forward(x, training=True)
    assert all(layer._cache_x is not None for layer in net.layers if isinstance(layer, Dense))
    assert all(layer._cache is not None for layer in net._activations())
    assert _kink_gap(net) > 0.0
    lean = net.forward(x)
    assert lean.tobytes() == kept.tobytes()
    assert all(layer._cache_x is None for layer in net.layers if isinstance(layer, Dense))
    assert all(layer._cache is None for layer in net._activations())
    with pytest.raises(RuntimeError, match="backward called before forward"):
        net.backward(np.ones_like(lean))
    with pytest.raises(RuntimeError, match="backward called before forward"):
        _kink_gap(net)
    for training in (True, False):  # no rows in, no rows out
        assert net.forward(x[:0], training=training).shape == (1, 0, 2)


def test_an_eval_forward_allocates_little_beyond_its_output():
    # an MNIST-shape ewend network over 2000 test rows: the caching forward
    # holds every array of ewend's profile at full size, about 37 MB; a lean
    # one holds the two (2000, 256) outputs of the first Dense and of the
    # activation layer, and one block's arrays besides
    net = build_mlp([784, 256, 10], parse_activation("ewend"), [default_rng(77)])
    x = default_rng(78).random((2000, 784))
    bound = 3 * x.shape[0] * 256 * 8

    def peak(**kw):
        net.forward(x[:1], training=True)  # a small cache before each
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            net.forward(x, **kw)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    assert peak() <= bound < peak(training=True)


# ---------------------------------------------------------------------------
# Stored rows in row blocks: an eval forward's first Dense makes one block
# of its rows float64 at a time, with the bits of one whole product.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_in, n_out", [(784, 256), (784, 10), (256, 10), (2, 16), (100, 100),
                                         (20000, 64), (3000, 1)])
def test_row_blocks_are_aligned_large_and_cover_every_row(n_in, n_out):
    for rows in list(range(0, 700)) + [2000, 10000, 70000]:
        blocks = network._row_blocks(rows, n_in, n_out)
        edges = [0] + [stop for _, stop in blocks]
        assert blocks == list(zip(edges, edges[1:])) and edges[-1] == rows
        assert all(start % network._ALIGN == 0 for start in edges[:-1])
        if rows * n_in * n_out <= network._SMALL:
            assert len(blocks) <= 1
        if len(blocks) < 2:
            continue
        # each block clear of the small-matrix kernels, the tail included
        assert all((stop - start) * n_in * n_out > network._SMALL for start, stop in blocks)
        # all but the last alike: the most aligned rows within 1 MiB of
        # float64, or the fewest above the bound when those are more
        size = blocks[0][1]
        assert all(stop - start == size for start, stop in blocks[:-1])
        assert (size + network._ALIGN) * n_in * 8 > network._ROW_BLOCK_BYTES
        assert (size * n_in * 8 <= network._ROW_BLOCK_BYTES
                or (size - network._ALIGN) * n_in * n_out <= network._SMALL)


@pytest.mark.parametrize("widths, rows, blocks", [
    ((784, 256), 400, [(0, 160), (160, 320), (320, 400)]),
    # a 1-row tail joins the block before it
    ((784, 256), 321, [(0, 160), (160, 321)]),
    # a 160-row split would leave an 80-row tail of 627k multiply-adds
    ((784, 10), 400, [(0, 160), (160, 400)]),
    ((784, 256), 0, []),
    ((2, 16), 5000, [(0, 5000)]),  # a toy stack's rows are one block
], ids=["mnist-shape", "one-row-tail", "small-tail", "no-rows", "toy"])
def test_an_eval_forward_over_stored_rows_writes_the_bytes_of_one_whole_call(
        monkeypatch, widths, rows, blocks):
    n_in, n_out = widths
    assert network._row_blocks(rows, n_in, n_out) == blocks
    layer = Dense(n_in, n_out, [default_rng(86), default_rng(87)])
    layer.b.value[...] = default_rng(88).standard_normal(layer.b.value.shape)
    pixels = default_rng(89).integers(0, 256, size=(rows, n_in)).astype(np.uint8)
    taken = []
    real = network.features
    monkeypatch.setattr(network, "features", lambda x: taken.append(len(x)) or real(x))
    blocked = layer.forward(pixels, None, False)
    assert taken == [stop - start for start, stop in blocks]
    assert layer._cache_x is None
    whole = layer.forward(features(pixels), None, True)  # one _matmul over every row
    assert blocked.shape == whole.shape == (2, rows, n_out)
    assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("text", ["relu", "gelu", "ewend"])
def test_an_eval_forward_over_stored_pixels_gives_the_bits_of_their_features(monkeypatch, text):
    # perfbench's mnist-shape test set: 400 rows of [784, 256, 10], in three
    # blocks; the second product, 400 x 256 x 10, is just above the
    # small-matrix bound, and stays whole
    net = build_mlp([784, 256, 10], parse_activation(text), [default_rng(90), default_rng(91)])
    pixels = default_rng(92).integers(0, 256, size=(400, 784)).astype(np.uint8)
    with network.quiet_errstate():
        blocked = net.forward(pixels)
        assert net.forward(pixels[:0]).shape == (2, 0, 10)  # no rows in, no rows out
        monkeypatch.setattr(network, "_row_blocks", lambda rows, n_in, n_out: [(0, rows)])
        whole = net.forward(features(pixels))
    assert blocked.shape == (2, 400, 10)
    assert blocked.tobytes() == whole.tobytes()


# ---------------------------------------------------------------------------
# Two fixed halves: large products and optimizer updates split between the
# caller and the worker thread, with the bits of the whole path.
# ---------------------------------------------------------------------------

@pytest.fixture
def halves(monkeypatch):
    """Counts the split calls, those of two parts; `whole()` forces the
    whole path from then on."""
    calls = []
    run = network._run

    def counted(fn, parts):
        if len(parts) == 2:
            calls.append(fn.__name__)
        run(fn, parts)

    monkeypatch.setattr(network, "_run", counted)
    return SimpleNamespace(calls=calls,
                           whole=lambda: monkeypatch.setattr(network, "_cut", lambda n: 0))


def test_halves_meet_on_a_tile_and_hold_a_third_each():
    for n in range(4000):
        cut = network._cut(n)
        if n < 32:
            assert cut == 0
        else:
            assert cut % 16 == 0 and 3 * min(cut, n - cut) >= n, n


def _dense_bytes(n_in, n_out, replicas, x, upstream):
    """The forward's output and, after a backward from `upstream`, the
    weight, bias and input gradients, as bytes."""
    layer = Dense(n_in, n_out, [default_rng(80 + r) for r in range(replicas)])
    layer.b.value[...] = default_rng(79).standard_normal(layer.b.value.shape)
    z = layer.forward(x, None, True)
    dx = layer.backward(upstream)
    assert layer.backward(upstream, need_dx=False) is None
    return [a.tobytes() for a in (z, layer.w.grad, layer.b.grad, dx)]


@pytest.mark.parametrize("n_in, n_out", [(784, 256), (256, 10)])
@pytest.mark.parametrize("rows", [33, 65, 1999, 2000])
@pytest.mark.parametrize("replicas, shared", [(1, True), (3, True), (1, False), (3, False)])
def test_split_dense_products_write_the_bytes_of_whole_ones(halves, n_in, n_out, rows,
                                                            replicas, shared):
    # shared 2-D rows are an eval forward's; a stack is a training batch's.
    # [256, 10] halves at 1999 and 2000 rows stay above the 1e6
    # multiply-adds under which OpenBLAS sums in another order
    data = default_rng(81)
    x = data.random((rows, n_in) if shared else (replicas, rows, n_in))
    upstream = data.standard_normal((replicas, rows, n_out))
    split = _dense_bytes(n_in, n_out, replicas, x, upstream)
    # the forward, both gradients, then the weight gradient alone
    big = rows * n_in * n_out > network._SPLIT
    assert halves.calls == ["_product"] * (4 if big else 0)
    assert big or n_out == 10 and rows < 1999  # every product but [256, 10]'s smaller ones
    halves.whole()
    assert split == _dense_bytes(n_in, n_out, replicas, x, upstream)
    assert len(halves.calls) == (4 if big else 0)


@pytest.mark.parametrize("make_opt, update", [
    (lambda net: Adam(net, lr=0.01), "_adam_update"),
    (lambda net: SGD(net, lr=0.05, momentum=0.9), "_sgd_update"),
    (lambda net: SGD(net, lr=0.05), "_sgd_update"),
], ids=["adam", "sgd-momentum", "sgd"])
def test_split_training_steps_write_the_bytes_of_whole_ones(halves, make_opt, update):
    data = default_rng(82)
    x = data.random((2 * 64, 784))
    labels = data.integers(0, 10, size=(2, 64))

    def thetas():
        net = build_mlp([784, 256, 10], parse_activation("ewend"),
                        [default_rng(83), default_rng(84)])
        opt = make_opt(net)
        out = []
        for _ in range(5):
            _, grad = eval_loss("xent", net.forward(x, training=True), labels)
            net.backward(grad, need_dx=False)
            opt.step()
            out.append(net.theta.tobytes())
        return out

    split = thetas()
    # per step: the first Dense's forward and weight gradient, and the update
    assert halves.calls == ["_product", "_product", update] * 5
    halves.whole()
    assert thetas() == split
    assert len(halves.calls) == 15


def test_a_small_update_runs_whole(halves):
    # the stock toy stacks fit one of Adam's blocks and never split
    net = _reference_net(replicas=3)
    net.grad[...] = 1.0
    for opt in (Adam(net), SGD(net, lr=0.1, momentum=0.5)):
        opt.step()
    assert net.theta.size <= Adam._BLOCK and halves.calls == []


def test_a_split_adam_step_keeps_training_errstate_and_non_finite_bytes(halves):
    # g * g overflows, and inf and nan gradients reach both halves: under
    # training's errstate neither half warns (a warning raises here), and
    # each half writes the serial step's inf and nan bytes
    def stepped():
        net = _wide_net(replicas=2)
        opt = Adam(net, lr=0.01)
        g = np.full(net.grad.size, 1e200)
        g[::3] = -1e200
        g[7::1000], g[11::997] = np.inf, np.nan
        for _ in range(2):
            net.grad[...] = g
            with network.quiet_errstate():
                opt.step()
        return [a.tobytes() for a in (net.theta, *opt._state)]

    split = stepped()
    assert halves.calls == ["_adam_update"] * 2
    halves.whole()
    assert stepped() == split
    theta = np.frombuffer(split[0])
    assert np.isnan(theta).any() and np.isinf(np.frombuffer(split[2])).any()


def test_an_error_in_the_worker_half_reaches_the_caller():
    out = np.zeros(2)

    def fill(i, fail):
        if fail:
            raise ValueError(f"half {i} failed")
        out[i] = i + 1

    with pytest.raises(ValueError, match="half 1 failed"):
        network._run(fill, [(0, False), (1, True)])
    assert out.tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="half 0 failed"):
        network._run(fill, [(0, True), (1, False)])
    assert out.tolist() == [1.0, 2.0]  # the caller waited for the worker's half
    out[:] = 0.0
    network._run(fill, [(0, False), (1, False)])  # the worker serves on
    assert out.tolist() == [1.0, 2.0]
    with pytest.raises(ValueError, match="half 0 failed"):
        network._run(fill, [(0, True)])  # one part runs in the caller


def test_the_worker_keeps_no_array_alive_after_a_split(halves):
    # the worker's half holds views of the caller's arrays; once the call
    # returns it must drop them, or a test-row batch would stay alive
    # beside the next one
    layer = Dense(784, 256, [default_rng(85)])
    x = np.ones((64, 784))
    alive = weakref.ref(x)
    z = weakref.ref(layer.forward(x, None, False))
    del x
    assert halves.calls == ["_product"]
    assert alive() is None and z() is None


def test_split_calls_from_several_threads_each_wait_for_their_own_half():
    # callers share the one worker; each call must return only once its
    # own second half is written, whoever else is waiting
    import sys
    import threading

    failures = []

    def caller(k):
        out = np.zeros(2)
        for i in range(300):
            network._run(np.copyto, [(out[:1], float(i)), (out[1:], float(i))])
            if out[1] != i:
                failures.append((k, i, out[1]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_a_forked_child_starts_its_own_worker():
    # a forked child inherits the parent's task queue but not its worker
    # thread: without the fork hook its first split would wait forever.  The
    # child's alarm ends it (-14) rather than leave a hung process behind
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wendnet

    src = str(Path(wendnet.__file__).resolve().parent.parent)
    code = "\n".join([
        "import os, signal, threading",
        "import numpy as np",
        "from wendnet import network",
        "data = np.random.default_rng(0)",
        "a, b = data.random((64, 784)), data.random((784, 256))",
        "first = network._matmul(a, b).tobytes()",
        "assert 'wendnet-half' in [t.name for t in threading.enumerate()]",
        "pid = os.fork()",
        "if pid == 0:",
        "    signal.alarm(20)",
        "    os._exit(0 if network._matmul(a, b).tobytes() == first else 1)",
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))",
    ])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "0\n"


def test_the_worker_runs_no_public_wendnet_function(halves, monkeypatch):
    # perfbench's tracer wraps every public function and method of the
    # wendnet modules, as below, and keeps one span stack for the process:
    # a wrapped call on the worker would interleave with the caller's
    import importlib
    import threading
    import types

    on_worker = []

    def wrap(name, fn):
        def watched(*args, **kwargs):
            if threading.current_thread().name.startswith("wendnet"):
                on_worker.append(name)
            return fn(*args, **kwargs)
        return watched

    for name in ("tensor", "activations", "network", "datasets", "bench"):
        mod = importlib.import_module(f"wendnet.{name}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                monkeypatch.setattr(mod, attr, wrap(attr, obj))
            elif isinstance(obj, type):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                        monkeypatch.setattr(obj, meth, wrap(f"{attr}.{meth}", fn))
    data = default_rng(86)
    x, labels = data.random((128, 784)), data.integers(0, 10, size=128)
    for make_opt in (lambda net: network.Adam(net), lambda net: network.SGD(net, 0.1, 0.9)):
        net = network.build_mlp([784, 256, 10], parse_activation("ewend"), [default_rng(87)])
        network.train(net, x, labels, "xent", make_opt(net), epochs=1, batch_size=64,
                      rngs=[default_rng(88)], x_test=x, y_test=labels)
    assert {"_product", "_adam_update", "_sgd_update"} <= set(halves.calls)
    assert on_worker == []
