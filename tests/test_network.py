"""Network forward/backward, losses, optimizers, and the training loop."""

import math

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
    gradient_check_network,
    mse_loss,
    run_gradient_check,
    softmax_cross_entropy,
    train,
)
from wendnet.tensor import make_rng, relative_error


def test_empty_network_is_identity():
    net = Network([])
    x = make_rng(0).standard_normal((3, 2))
    np.testing.assert_array_equal(net.forward(x), x)


def test_single_dense_identity_weights():
    rng = make_rng(1)
    layer = Dense(3, 3, rng)
    layer.w.value[...] = np.eye(3)
    layer.b.value[...] = 0.0
    x = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(Network([layer]).forward(x), x)


def test_dense_then_relu_hand_computed():
    rng = make_rng(2)
    dense = Dense(1, 1, rng)
    dense.w.value[...] = 2.0
    dense.b.value[...] = 1.0
    net = Network([dense, ActivationLayer(parse_activation("relu"))])
    out = net.forward(np.array([[-1.0], [3.0]]))
    np.testing.assert_array_equal(out, [[0.0], [7.0]])


def test_zero_upstream_gives_zero_gradients():
    rng = make_rng(3)
    net = build_mlp([2, 4, 2], parse_activation("ewend"), rng)
    net.zero_grad()
    net.forward(rng.standard_normal((3, 2)))
    net.backward(np.zeros((3, 2)))
    for p in net.params():
        assert np.all(p.grad == 0.0)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradient_check_non_finite_is_a_failure():
    net = build_mlp([2, 4, 2], parse_activation("tanh"), make_rng(21))
    net.layers[0].w.value[0, 0] = np.nan
    err = gradient_check_network(net, make_rng(22).standard_normal((3, 2)),
                                 make_rng(23), probes=5)
    assert err == float("inf")


def test_alpha_gradient_outside_support_matches_linear_exp_path():
    # when alpha*r > 1 for every element, the Wendland branch contributes
    # nothing: gradients equal those of a profile with the bump removed
    from wendnet.activations import EnhancedWendlandParams, enhanced_backward

    rng = make_rng(4)
    x = rng.uniform(2.0, 5.0, size=50) * np.sign(rng.standard_normal(50))
    up = rng.standard_normal(50)
    p_full = EnhancedWendlandParams(alpha=1.0, train_alpha=True, train_lam=True,
                                    train_beta=True, train_eps=True)
    dx_full, g_full = enhanced_backward(x, up, p_full)

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


def test_sgd_step():
    p = Param("p", np.array([0.0]))
    p.grad[...] = 1.0
    SGD([p], lr=0.1).step()
    assert p.value[0] == pytest.approx(-0.1)


def test_sgd_zero_gradient_no_change():
    p = Param("p", np.array([1.5]))
    SGD([p], lr=0.1, momentum=0.0).step()
    assert p.value[0] == 1.5


def test_adam_first_step_magnitude():
    # bias-corrected first step moves by ~lr regardless of gradient size
    for g in (1e-4, 1.0, 1e4):
        p = Param("p", np.array([0.0]))
        p.grad[...] = g
        Adam([p], lr=1e-3).step()
        assert abs(p.value[0]) == pytest.approx(1e-3, rel=1e-3)
        assert p.value[0] < 0


def test_optimizer_rejects_non_finite_gradient():
    p = Param("bad_param", np.array([0.0]))
    p.grad[...] = np.nan
    with pytest.raises(NumericalError, match="bad_param"):
        Adam([p]).step()


def test_train_zero_epochs():
    rng = make_rng(7)
    net = build_mlp([1, 4, 1], parse_activation("tanh"), rng)
    before = net.get_param_vector().copy()
    records = train(net, np.zeros((4, 1)), np.zeros((4, 1)), "mse",
                    SGD(net.params(), lr=0.1), epochs=0, batch_size=2,
                    rng=make_rng(8))
    assert records == []
    np.testing.assert_array_equal(net.get_param_vector(), before)


def test_train_linear_regression_converges():
    # y = 2x is a convex quadratic for a 1-1 linear net; SGD finds w=2
    dense = Dense(1, 1, make_rng(9))
    net = Network([dense])
    x = np.linspace(-1, 1, 32)[:, None]
    y = 2.0 * x
    opt = SGD(net.params(), lr=0.1)
    train(net, x, y, "mse", opt, epochs=300, batch_size=8, rng=make_rng(10))
    assert abs(dense.w.value[0, 0] - 2.0) < 1e-3
    assert abs(dense.b.value[0]) < 1e-3


def test_train_determinism():
    def one_run():
        rng = make_rng(11)
        net = build_mlp([2, 8, 2], parse_activation("ewend"), rng)
        opt = Adam(net.params(), lr=1e-2)
        x = make_rng(12).standard_normal((40, 2))
        labels = (x[:, 0] > 0).astype(np.int64)
        recs = train(net, x, labels, "xent", opt, epochs=5, batch_size=8,
                     rng=make_rng(13), x_test=x, y_test=labels, classification=True)
        return [(r.train_loss, r.test_loss, r.test_accuracy, r.activation_params)
                for r in recs]
    assert one_run() == one_run()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_reported():
    net = build_mlp([1, 4, 1], parse_activation("relu"), make_rng(14))
    opt = SGD(net.params(), lr=1e12)  # guaranteed blow-up
    x = np.linspace(-1, 1, 16)[:, None]
    records = train(net, x, 100 * x, "mse", opt, epochs=20, batch_size=4,
                    rng=make_rng(15))
    assert records[-1].status == "diverged"
    assert len(records) < 20


def test_nontrainable_coefficients_bit_identical_after_training():
    spec = parse_activation("ewend(alpha=1.5,k=4,lambda=0.1,beta=1,eps=0.01)")
    net = build_mlp([1, 8, 1], spec, make_rng(16))
    layer = [l for l in net.layers if isinstance(l, ActivationLayer)][0]
    before = layer.current_coefficients()
    x = np.linspace(-2, 2, 64)[:, None]
    train(net, x, np.sin(x), "mse", Adam(net.params(), lr=1e-2),
          epochs=20, batch_size=16, rng=make_rng(17))
    after = layer.current_coefficients()
    assert after["lambda"] == before["lambda"]
    assert after["beta"] == before["beta"]
    assert after["eps"] == before["eps"]
    assert after["alpha"] != before["alpha"]  # alpha did learn


def test_positive_coefficients_survive_optimization():
    spec = parse_activation("ewend(train=alpha|beta)")
    net = build_mlp([1, 8, 1], spec, make_rng(18))
    layer = [l for l in net.layers if isinstance(l, ActivationLayer)][0]
    x = np.linspace(-3, 3, 64)[:, None]
    train(net, x, 5 * np.sin(3 * x), "mse", Adam(net.params(), lr=0.5),
          epochs=50, batch_size=16, rng=make_rng(19))
    coeffs = layer.current_coefficients()
    assert coeffs["alpha"] > 0.0
    assert coeffs["beta"] > 0.0


def test_per_layer_activation_state_is_independent():
    spec = parse_activation("prelu")
    net = build_mlp([1, 4, 4, 1], spec, make_rng(20))
    acts = [l for l in net.layers if isinstance(l, ActivationLayer)]
    assert len(acts) == 2
    acts[0]._params["slope"].value[...] = 0.9
    assert float(acts[1]._params["slope"].value) == 0.25
