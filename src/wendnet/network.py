"""Feed-forward networks built from dense and activation layers, with losses,
optimizers and a deterministic training loop.

Trainable activation coefficients live alongside the dense weights in the
same parameter store and are updated by the same optimizer step.  Strictly
positive coefficients (the enhanced Wendland alpha and beta) are stored in
unconstrained log space, so no optimizer step can push them out of range.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import activations as act
from .tensor import ShapeError, central_step, finite_diff_check, substream, tensor


class NumericalError(RuntimeError):
    """A non-finite value appeared where the contract forbids it."""


class Param:
    """One trainable array with its gradient accumulator."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad.fill(0.0)


class Dense:
    """Affine layer y = x W + b with Glorot-uniform init."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, name: str = "dense"):
        limit = np.sqrt(6.0 / (n_in + n_out))
        self.n_in = n_in
        self.n_out = n_out
        self.w = Param(f"{name}.w", rng.uniform(-limit, limit, size=(n_in, n_out)))
        self.b = Param(f"{name}.b", np.zeros(n_out))
        self._cache_x = None

    def params(self) -> list[Param]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray, training: bool, rng) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ShapeError(f"{self.w.name}: input shape {x.shape} incompatible with n_in={self.n_in}")
        self._cache_x = x
        return x @ self.w.value + self.b.value

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        x = self._cache_x
        if x is None:
            raise RuntimeError("backward called before forward")
        self.w.grad += x.T @ upstream
        self.b.grad += upstream.sum(axis=0)
        return upstream @ self.w.value.T


class ActivationLayer:
    """Applies one ActivationSpec; owns an independent copy of any trainable
    coefficients for this layer.  The kind's log-stored coefficients are
    trained as their logarithm."""

    def __init__(self, spec: act.ActivationSpec, name: str = "act"):
        self.spec = spec
        self.name = name
        self._kind = act.KINDS[spec.kind]
        self._log = self._kind.log_coeffs
        self._params: dict[str, Param] = {}
        for coeff, value in self._kind.initial(spec.params).items():
            if coeff in self._log:
                value = act.to_unconstrained(value)
            self._params[coeff] = Param(f"{name}.{coeff}", np.asarray(value))
        self._fixed = self._kind.bind(spec.params, {})  # used when nothing is trainable
        self._cache = None

    def params(self) -> list[Param]:
        return list(self._params.values())

    def _coefficients(self):
        """(natural values of the trainable coefficients, full coefficient set)."""
        values = {}
        for coeff, param in self._params.items():
            v = float(param.value)
            values[coeff] = act.from_unconstrained(v) if coeff in self._log else v
        return values, self._kind.bind(self.spec.params, values)

    def current_coefficients(self) -> dict[str, float]:
        """Coefficient values in natural space, for metrics reporting."""
        return self._kind.report(self._coefficients()[1])

    def kinks(self) -> tuple[float, ...]:
        """Inputs at which the activation's first derivative jumps."""
        return self._kind.kinks(self._coefficients()[1])

    def forward(self, x: np.ndarray, training: bool, rng) -> np.ndarray:
        values, c = self._coefficients() if self._params else (None, self._fixed)
        y, aux = self._kind.forward(c, x, training, rng)
        self._cache = (values, c, x, aux)
        return y

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        values, c, x, aux = self._cache
        dx, grads = self._kind.backward(c, x, aux, upstream)
        for coeff, param in self._params.items():
            g = grads[coeff]
            if coeff in self._log:
                g *= values[coeff]  # chain through value = exp(raw)
            param.grad += g
        return dx


class Network:
    """Ordered layer list with a flat parameter store."""

    def __init__(self, layers: list):
        self.layers = list(layers)

    def params(self) -> list[Param]:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()

    def forward(self, x: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        out = tensor(x)
        for layer in self.layers:
            out = layer.forward(out, training, rng)
        return out

    def backward(self, loss_grad: np.ndarray) -> np.ndarray:
        grad = tensor(loss_grad)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def activation_coefficients(self) -> dict[str, float]:
        out = {}
        for layer in self.layers:
            if isinstance(layer, ActivationLayer):
                for coeff, v in layer.current_coefficients().items():
                    out[f"{layer.name}.{coeff}"] = float(v)
        return out

    # flat parameter-vector view, used by the gradient checker
    def get_param_vector(self) -> np.ndarray:
        ps = self.params()
        if not ps:
            return np.zeros(0)
        return np.concatenate([p.value.ravel() for p in ps])

    def set_param_vector(self, vec: np.ndarray):
        i = 0
        for p in self.params():
            n = p.value.size
            p.value[...] = np.asarray(vec[i:i + n]).reshape(p.value.shape)
            i += n

    def get_grad_vector(self) -> np.ndarray:
        ps = self.params()
        if not ps:
            return np.zeros(0)
        return np.concatenate([p.grad.ravel() for p in ps])


def build_mlp(widths: list[int], spec: act.ActivationSpec,
              rng: np.random.Generator) -> Network:
    """Dense layers of the given widths with `spec` after each hidden layer."""
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    layers: list = []
    for i in range(len(widths) - 1):
        layers.append(Dense(widths[i], widths[i + 1], rng, name=f"dense{i}"))
        if i < len(widths) - 2:
            layers.append(ActivationLayer(spec, name=f"act{i}"))
    return Network(layers)


# ---------------------------------------------------------------------------
# Losses.
# ---------------------------------------------------------------------------

def mse_loss(pred: np.ndarray, target: np.ndarray):
    pred = tensor(pred)
    target = tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse: shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    value = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return value, grad


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross entropy over rows; labels are integer class indices."""
    logits = tensor(logits)
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} incompatible with logits {logits.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise ShapeError(f"class index out of range [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    value = float(np.mean(log_z - shifted[np.arange(n), labels]))
    probs = np.exp(shifted) / np.exp(log_z)[:, None]
    probs[np.arange(n), labels] -= 1.0
    return value, probs / n


def eval_loss(kind: str, pred: np.ndarray, target: np.ndarray):
    if kind == "mse":
        return mse_loss(pred, target)
    if kind == "xent":
        return softmax_cross_entropy(pred, target)
    raise ValueError(f"unknown loss kind {kind!r}")


# ---------------------------------------------------------------------------
# Optimizers.
# ---------------------------------------------------------------------------

def _check_finite_grads(params: list[Param]):
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise NumericalError(f"non-finite gradient for parameter {p.name}")


class SGD:
    def __init__(self, params: list[Param], lr: float, momentum: float = 0.0):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.value) for p in params]
        self.step_count = 0

    def step(self):
        _check_finite_grads(self.params)
        self.step_count += 1
        for p, v in zip(self.params, self._velocity):
            v *= self.momentum
            v += p.grad
            p.value -= self.lr * v


class Adam:
    def __init__(self, params: list[Param], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p.value) for p in params]
        self._v = [np.zeros_like(p.value) for p in params]
        self.step_count = 0

    def step(self):
        _check_finite_grads(self.params)
        self.step_count += 1
        t = self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(params: list[Param], kind: str = "adam", lr: float = 1e-3,
                   momentum: float = 0.0, beta1: float = 0.9, beta2: float = 0.999):
    if kind == "sgd":
        return SGD(params, lr=lr, momentum=momentum)
    if kind == "adam":
        return Adam(params, lr=lr, beta1=beta1, beta2=beta2)
    raise ValueError(f"unknown optimizer kind {kind!r}")


# ---------------------------------------------------------------------------
# Training loop.
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    test_loss: float | None = None
    test_accuracy: float | None = None
    seconds: float = 0.0
    activation_params: dict[str, float] = field(default_factory=dict)
    status: str = "ok"


def train(net: Network, x_train, y_train, loss_kind: str, optimizer,
          epochs: int, batch_size: int, rng: np.random.Generator,
          x_test=None, y_test=None, classification: bool = False) -> list[EpochRecord]:
    """Mini-batch training with a seeded per-epoch shuffle.

    Returns one record per epoch.  On a non-finite loss the loop stops and the
    final record carries status="diverged" with the offending epoch number.
    """
    x_train = tensor(x_train)
    n = x_train.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    y_train = np.asarray(y_train)
    records: list[EpochRecord] = []
    for epoch in range(epochs):
        t0 = time.monotonic()
        order = rng.permutation(n)
        total = 0.0
        diverged = False
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            xb, yb = x_train[idx], y_train[idx]
            pred = net.forward(xb, training=True, rng=rng)
            value, grad = eval_loss(loss_kind, pred, yb)
            if not np.isfinite(value):
                diverged = True
                break
            net.zero_grad()
            net.backward(grad)
            optimizer.step()
            total += value * len(idx)
        if diverged:
            records.append(EpochRecord(epoch=epoch, train_loss=float("nan"),
                                       seconds=time.monotonic() - t0,
                                       activation_params=net.activation_coefficients(),
                                       status="diverged"))
            break
        rec = EpochRecord(epoch=epoch, train_loss=total / n,
                          activation_params=net.activation_coefficients())
        if x_test is not None:
            pred = net.forward(tensor(x_test), training=False)
            rec.test_loss, _ = eval_loss(loss_kind, pred, np.asarray(y_test))
            if classification:
                rec.test_accuracy = float(np.mean(pred.argmax(axis=1) == np.asarray(y_test)))
        rec.seconds = time.monotonic() - t0
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# Whole-network gradient checking.
# ---------------------------------------------------------------------------

def min_kink_gap(net: Network, x: np.ndarray) -> float:
    """Run a forward pass and report the smallest pre-activation kink gap."""
    out = tensor(x)
    gap = float("inf")
    for layer in net.layers:
        if isinstance(layer, ActivationLayer):
            for kink in layer.kinks():
                gap = min(gap, float(np.abs(out - kink).min()))
        out = layer.forward(out, training=False, rng=None)
    return gap


# A base point (theta, x) needs every pre-activation this many probe steps
# from a kink: a +-step probe of finite_diff_check moves a pre-activation by
# at most the step times the norm of its gradient wrt (theta, x), and on the
# checker's small networks that norm stays below about 6.
_KINK_MARGIN = 100.0


def gradient_check_network(net: Network, x: np.ndarray,
                           rng: np.random.Generator, probes: int = 100) -> float:
    """Check d(sum(c * net(theta, x))) / d(theta, x) against central finite
    differences along random directions; returns the max relative error.

    The base point must keep every pre-activation clear of derivative jumps
    by more than the finite-difference probes reach.
    """
    x = tensor(x)
    c = rng.standard_normal(net.forward(x).shape)

    theta0 = net.get_param_vector()
    n_theta = theta0.size

    def f(vec: np.ndarray) -> float:
        net.set_param_vector(vec[:n_theta])
        out = net.forward(vec[n_theta:].reshape(x.shape), training=False)
        return float(np.sum(c * out))

    base = np.concatenate([theta0, x.ravel()])
    if min_kink_gap(net, x) < _KINK_MARGIN * central_step(base):
        raise RuntimeError("base point too close to an activation kink; reseed")

    # analytic gradient at the base point
    net.set_param_vector(theta0)
    net.zero_grad()
    net.forward(x, training=False)
    dx = net.backward(c)
    analytic = np.concatenate([net.get_grad_vector(), dx.ravel()])

    worst = finite_diff_check(f, base, lambda v: analytic @ v, probes=probes, rng=rng)
    net.set_param_vector(theta0)
    return worst


def run_gradient_check(spec: act.ActivationSpec, widths=(2, 8, 8, 2),
                       seed: int = 0, probes: int = 100, batch: int = 4) -> float:
    """Build a seeded MLP for `spec`, draw an input batch clear of activation
    kinks, and return the max relative gradient error over `probes`."""
    rng = substream(seed, "grad-check", act.format_activation(spec))
    net = build_mlp(list(widths), spec, rng)
    theta = net.get_param_vector()
    for _ in range(100):
        x = rng.standard_normal((batch, widths[0]))
        step = central_step(np.concatenate([theta, x.ravel()]))
        if min_kink_gap(net, x) >= _KINK_MARGIN * step:
            break
    else:
        raise RuntimeError("could not find a base point clear of activation kinks")
    return gradient_check_network(net, x, rng, probes=probes)
