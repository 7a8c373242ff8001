"""Feed-forward networks built from dense and activation layers, with losses,
optimizers and a deterministic training loop.

A network is a stack of R replicas of one architecture, trained side by
side: every parameter has a leading replica axis, and each replica computes
exactly what it would compute alone.  Trainable activation coefficients live
alongside the dense weights in the same parameter store and are updated by
the same optimizer step; how each coefficient is stored is up to its
activation kind.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import activations as act
from .tensor import ShapeError, central_step, finite_diff_check, substream, tensor


class NumericalError(RuntimeError):
    """A non-finite value appeared where the contract forbids it."""


class Param:
    """One trainable array, replica axis first, with its gradient; a Network
    rebinds both to views."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


class Dense:
    """Affine layer y = x W + b with Glorot-uniform init: one (n_in, n_out)
    W and (1, n_out) b per replica, replica r's W drawn from rngs[r]."""

    def __init__(self, n_in: int, n_out: int, rngs, name: str = "dense"):
        limit = np.sqrt(6.0 / (n_in + n_out))
        self.n_in = n_in
        self.n_out = n_out
        self.w = Param(f"{name}.w", np.stack([g.uniform(-limit, limit, size=(n_in, n_out))
                                              for g in rngs]))
        self.b = Param(f"{name}.b", np.zeros((len(rngs), 1, n_out)))
        self._cache_x = None

    def params(self) -> list[Param]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray, training: bool, rng) -> np.ndarray:
        """(R, rows, n_out) from x of (R, rows, n_in), or from (rows, n_in)
        rows that every replica takes."""
        if x.shape[-1] != self.n_in:
            raise ShapeError(f"{self.w.name}: input shape {x.shape[-2:]} "
                             f"incompatible with n_in={self.n_in}")
        self._cache_x = x
        return x @ self.w.value + self.b.value

    def backward(self, upstream: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Write the weight and bias gradients; return the input gradient,
        or None without computing it when `need_dx` is false."""
        x = self._cache_x
        if x is None:
            raise RuntimeError("backward called before forward")
        np.matmul(np.swapaxes(x, -1, -2), upstream, out=self.w.grad)
        np.add.reduce(upstream, axis=-2, keepdims=True, out=self.b.grad)
        return upstream @ np.swapaxes(self.w.value, -1, -2) if need_dx else None


class ActivationLayer:
    """Applies one ActivationSpec; owns an independent copy of any trainable
    coefficients for this layer, one per replica, held as its kind stores
    them."""

    def __init__(self, spec: act.ActivationSpec, name: str = "act", replicas: int = 1):
        self.spec = spec
        self.name = name
        self._kind = act.KINDS[spec.kind]
        self._params = {coeff: Param(f"{name}.{coeff}", np.full((replicas, 1, 1), stored))
                        for coeff, stored in self._kind.initial(spec.params).items()}
        self._cache = None

    def params(self) -> list[Param]:
        return list(self._params.values())

    def _coefficients(self):
        """The full coefficient set at the current stored values."""
        return self._kind.bind(self.spec.params, {coeff: param.value
                                                  for coeff, param in self._params.items()})

    def current_coefficients(self) -> dict:
        """Coefficient values in natural space, for metrics reporting: a
        number, or an (R, 1, 1) array of one value per replica."""
        return self._kind.report(self._coefficients())

    def kinks(self) -> tuple[float, ...]:
        """Inputs at which the activation's first derivative jumps."""
        return self._kind.kinks(self._coefficients())

    def forward(self, x: np.ndarray, training: bool, rng) -> np.ndarray:
        c = self._coefficients()
        y, aux = self._kind.forward(c, x, training, rng)
        self._cache = (c, x, aux)
        return y

    def backward(self, upstream: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Write the coefficient gradients; return the input gradient, or
        None when `need_dx` is false."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        c, x, aux = self._cache
        dx, grads = self._kind.backward(c, x, aux, upstream)
        for coeff, param in self._params.items():
            param.grad[...] = grads[coeff]
        return dx if need_dx else None


class Network:
    """Ordered layer list, as a stack of `replicas` replicas: every Param has
    the replica axis first.  Every layer's Param values and gradients are
    views into the flat float64 vectors theta and grad, which hold one block
    per replica, each in layer order.  A backward writes every entry of
    grad, so it needs no zeroing first."""

    def __init__(self, layers: list):
        self.layers = list(layers)
        self._params = [p for layer in self.layers for p in layer.params()]
        self.replicas = self._params[0].value.shape[0] if self._params else 1
        if any(p.value.shape[0] != self.replicas for p in self._params):
            raise ValueError("every parameter needs the same number of replicas")
        # offsets within one replica's block
        self._offsets = np.cumsum([0] + [p.value[0].size for p in self._params])
        self.theta = np.zeros(self.replicas * self._offsets[-1])
        self.grad = np.zeros_like(self.theta)
        blocks = self._blocks(self.theta)
        for p, start, end in zip(self._params, self._offsets, self._offsets[1:]):
            blocks[:, start:end] = p.value.reshape(self.replicas, -1)
        self._bind()

    def _blocks(self, vector: np.ndarray) -> np.ndarray:
        """`vector` (theta, grad or an optimizer's moments) as one row per replica."""
        return vector.reshape(self.replicas, self._offsets[-1])

    def _bind(self):
        """Point every Param's value and grad at its columns of theta and grad."""
        theta, grad = self._blocks(self.theta), self._blocks(self.grad)
        for p, start, end in zip(self._params, self._offsets, self._offsets[1:]):
            shape = (self.replicas,) + p.value.shape[1:]
            p.value = theta[:, start:end].reshape(shape)
            p.grad = grad[:, start:end].reshape(shape)

    def keep(self, rows, *state: np.ndarray) -> list[np.ndarray]:
        """Shrink the stack to the replicas at `rows`, in order; return each
        vector of `state`, laid out like theta, shrunk alike."""
        def shrink(vector):
            return self._blocks(vector)[rows].ravel()
        self.theta, self.grad, *state = [shrink(v) for v in (self.theta, self.grad, *state)]
        self.replicas = len(rows)
        self._bind()
        return state

    def check_finite_grad(self):
        """Raise NumericalError naming the first parameter with a non-finite gradient.

        A finite sum proves every entry finite, so only a sum that is not (a
        non-finite entry, or finite entries that overflow it) pays for the
        scan.  The overflow warns unless np.errstate ignores it, as in `train`.
        """
        if math.isfinite(np.add.reduce(self.grad)):
            return
        finite = np.isfinite(self.grad)
        if not finite.all():
            first = int(np.argmin(finite)) % self._offsets[-1]
            p = self._params[np.searchsorted(self._offsets, first, side="right") - 1]
            raise NumericalError(f"non-finite gradient for parameter {p.name}")

    def nonfinite_replicas(self) -> np.ndarray:
        """One bool per replica: whether its gradient holds a non-finite entry."""
        return ~np.isfinite(self._blocks(self.grad)).all(axis=1)

    def forward(self, x: np.ndarray, training: bool = False,
                rng: list[np.random.Generator] | None = None) -> np.ndarray:
        """The stack's output, replica by replica, as one (R * rows, outputs)
        array.  In training, x holds the R replicas' batches one after
        another, and `rng` one generator per replica; otherwise every replica
        takes all the rows of x."""
        if training:
            x = x.reshape(self.replicas, -1, x.shape[-1])
        for layer in self.layers:
            x = layer.forward(x, training, rng)
        return x.reshape(-1, x.shape[-1])

    def backward(self, grad: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Write net.grad for the loss gradient `grad`, laid out as `forward`
        returns it; return the gradient with respect to each replica's input
        rows, laid out alike, or None when `need_dx` is false, in which case
        the first layer does not compute it."""
        if not self.layers:
            return grad
        grad = grad.reshape(self.replicas, -1, grad.shape[-1])
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        dx = self.layers[0].backward(grad, need_dx)
        return None if dx is None else dx.reshape(-1, dx.shape[-1])

    def activation_coefficients(self) -> list[dict[str, float]]:
        """Each replica's activation coefficients in natural space."""
        out: list[dict[str, float]] = [{} for _ in range(self.replicas)]
        for layer in self.layers:
            if isinstance(layer, ActivationLayer):
                for coeff, v in layer.current_coefficients().items():
                    for coeffs, value in zip(out, np.broadcast_to(v, (self.replicas, 1, 1)).flat):
                        coeffs[f"{layer.name}.{coeff}"] = float(value)
        return out


def build_mlp(widths: list[int], spec: act.ActivationSpec, rngs) -> Network:
    """A stack of len(rngs) MLPs: Dense layers of the given widths with
    `spec` after each hidden layer, replica r initialised from rngs[r]."""
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    layers: list = []
    for i in range(len(widths) - 1):
        layers.append(Dense(widths[i], widths[i + 1], rngs, name=f"dense{i}"))
        if i < len(widths) - 2:
            layers.append(ActivationLayer(spec, name=f"act{i}", replicas=len(rngs)))
    return Network(layers)


# ---------------------------------------------------------------------------
# Losses.  Each takes float64 arrays and returns (value, gradient wrt pred).
# The public losses check their targets on every call; `train` checks its
# targets once on entry and then calls the unchecked kernels through
# `eval_loss`.  The kernels take a stack of R predictions, (R, rows, outputs),
# and return one value per replica.
# ---------------------------------------------------------------------------

def _mse(pred: np.ndarray, target: np.ndarray):
    diff = pred - target
    size = diff.shape[1] * diff.shape[2]
    value = np.add.reduce(diff * diff, axis=(1, 2)) / size
    diff *= 2.0
    diff /= size
    return value, diff


def _xent(logits: np.ndarray, labels: np.ndarray):
    """Labels: (R, rows) class indices, or (rows,) for every replica."""
    replicas, n, _ = logits.shape
    at = (np.arange(replicas)[:, None], np.arange(n), labels)
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    probs = np.exp(shifted)
    log_z = np.log(np.add.reduce(probs, axis=-1))
    value = np.add.reduce(log_z - shifted[at], axis=-1) / n
    probs /= np.exp(log_z)[..., None]
    probs[at] -= 1.0
    probs /= n
    return value, probs


def _check_targets(kind: str, target: np.ndarray, shape: tuple[int, int]):
    """Raise ShapeError unless `target` fits predictions of `shape` under
    loss `kind`: the same shape for "mse", one class index in [0, columns)
    per row for "xent"."""
    if kind == "mse":
        if target.shape != shape:
            raise ShapeError(f"mse: prediction shape {shape} vs target shape {target.shape}")
    elif kind == "xent":
        n, c = shape
        if target.shape != (n,):
            raise ShapeError(f"labels shape {target.shape} incompatible with logits {shape}")
        lo, hi = target.min(), target.max()
        if lo < 0:
            raise ShapeError(f"class index out of range [0, {c}): the network's last width "
                             f"is {c}, but a label is {lo}: labels must be >= 0")
        if hi >= c:
            raise ShapeError(f"class index out of range [0, {c}): the network's last width "
                             f"is {c}, but the labels run up to {hi}: it must be at least {hi + 1}")


def mse_loss(pred: np.ndarray, target: np.ndarray):
    _check_targets("mse", target, pred.shape)
    value, grad = _mse(pred[None], target)
    return float(value[0]), grad[0]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross entropy over rows; labels are integer class indices."""
    labels = np.asarray(labels)
    _check_targets("xent", labels, logits.shape)
    value, grad = _xent(logits[None], labels)
    return float(value[0]), grad[0]


def eval_loss(kind: str, pred: np.ndarray, target: np.ndarray):
    """The loss `kind` of a stack of predictions, (R, rows, outputs), one
    value per replica, without target checks: `train` made them on entry."""
    if kind == "xent":
        return _xent(pred, target)
    if kind == "mse":
        return _mse(pred, target)
    raise ValueError(f"unknown loss kind {kind!r}")


# ---------------------------------------------------------------------------
# Optimizers.
# ---------------------------------------------------------------------------

class SGD:
    def __init__(self, net: Network, lr: float, momentum: float = 0.0):
        self.net = net
        self.lr = lr
        self.momentum = momentum
        self._velocity = np.zeros_like(net.theta)

    def keep(self, rows):
        """Shrink the network's stack and the velocity to the replicas at `rows`."""
        self._velocity, = self.net.keep(rows, self._velocity)

    def step(self):
        self.net.check_finite_grad()
        v = self._velocity
        v *= self.momentum
        v += self.net.grad
        self.net.theta -= self.lr * v


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) in the order of operations of
    their section 2: the bias corrections fold into a step size
    lr_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t) and an
    eps_hat = eps * sqrt(1 - beta2^t), both computed once per step, so
    theta -= lr_t * m / (sqrt(v) + eps_hat) divides once per element.  It is
    Algorithm 1 up to rounding.

    The update runs in place, one block of the parameter vector at a time: a
    block's moments, gradient and values plus two scratch vectors stay in
    cache while the update's passes run over them; with whole vectors each
    pass would stream every array through memory again.  Every element sees
    the same operations in the same order either way.
    """

    _BLOCK = 32768  # float64 elements per block: 6 arrays of 256 KiB

    def __init__(self, net: Network, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.net = net
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m, self._v = np.zeros_like(net.theta), np.zeros_like(net.theta)
        self._make_blocks()
        self.step_count = 0

    def _make_blocks(self):
        net, n = self.net, self.net.theta.size
        block = min(n, self._BLOCK)
        m, v, a, b = self._m, self._v, np.zeros(block), np.zeros(block)
        self._blocks = []  # (g, m, v, theta, a, b) views of each block
        for start in range(0, n, self._BLOCK):
            end = min(start + self._BLOCK, n)
            self._blocks.append((net.grad[start:end], m[start:end], v[start:end],
                                 net.theta[start:end], a[:end - start], b[:end - start]))

    def keep(self, rows):
        """Shrink the network's stack and the moments to the replicas at `rows`."""
        self._m, self._v = self.net.keep(rows, self._m, self._v)
        self._make_blocks()

    def step(self):
        self.net.check_finite_grad()
        self.step_count += 1
        t = self.step_count
        beta1, beta2 = self.beta1, self.beta2
        root2 = math.sqrt(1.0 - beta2 ** t)
        lr_t = self.lr * root2 / (1.0 - beta1 ** t)
        eps_hat = self.eps * root2
        for g, m, v, theta, a, b in self._blocks:
            m *= beta1
            m += np.multiply(1.0 - beta1, g, out=a)
            v *= beta2
            np.multiply(1.0 - beta2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.sqrt(v, out=b)
            b += eps_hat
            np.divide(m, b, out=a)
            a *= lr_t
            theta -= a


# ---------------------------------------------------------------------------
# Training loop.
# ---------------------------------------------------------------------------

def quiet_errstate():
    """The np.errstate of training: a diverging run reports itself in its records'
    status, and a kind's masked-out branch (celu's at alpha=0) may overflow or
    divide 0 by 0, so neither warns."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


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
          epochs: int, batch_size: int, rngs: list[np.random.Generator],
          x_test=None, y_test=None) -> list[list[EpochRecord]]:
    """Mini-batch training of every replica of `net` side by side, replica r
    drawing its per-epoch shuffle and any random activation slopes from
    rngs[r].

    Returns each replica's epoch records; with test data, each record
    carries the test loss, and under "xent" the test accuracy too.  The
    epoch's wall time is the stack's, shared by its replicas.  A replica
    whose loss or gradient turns non-finite gets a last record with
    status="diverged" and the offending epoch number, and leaves the stack;
    the others train on.  Train and test data that do not fit the network's
    first or last width raise ShapeError before the first update.
    """
    x_train = tensor(x_train)
    n = x_train.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if len(rngs) != net.replicas:
        raise ValueError(f"{len(rngs)} generators for {net.replicas} replicas")
    y_train = np.asarray(y_train)
    if x_test is not None:
        x_test, y_test = tensor(x_test), np.asarray(y_test)
    # checked once here, so the loss kernels need not be; activations keep
    # the width, so the first and last Dense layers set the input's and the
    # output's
    dense = [layer for layer in net.layers if isinstance(layer, Dense)]
    for x in (x_train,) if x_test is None else (x_train, x_test):
        columns = x.shape[-1]
        if dense and columns != dense[0].n_in:
            raise ShapeError(f"the network's first width is {dense[0].n_in}, but the data have "
                             f"{columns} input column{'s' * (columns != 1)}: it must be {columns}")
    width = dense[-1].n_out if dense else x_train.shape[-1]
    _check_targets(loss_kind, y_train, (n, width))
    if x_test is not None:
        _check_targets(loss_kind, y_test, (x_test.shape[0], width))
    records: list[list[EpochRecord]] = [[] for _ in rngs]
    live = list(range(len(rngs)))  # the replica at each place of the stack
    with quiet_errstate():
        for epoch in range(epochs):
            t0 = time.monotonic()
            gens = [rngs[r] for r in live]
            orders = np.stack([g.permutation(n) for g in gens])
            totals = np.zeros(len(live))
            for start in range(0, n, batch_size):
                idx = orders[:, start:start + batch_size]  # one row of indices per replica
                pred = net.forward(x_train[idx.ravel()], training=True, rng=gens)
                values, grad = eval_loss(loss_kind, pred.reshape(idx.shape + pred.shape[-1:]),
                                         y_train[idx])
                net.backward(grad, need_dx=False)
                finite = math.isfinite(np.add.reduce(values))
                if finite:
                    try:
                        optimizer.step()
                    except NumericalError:
                        finite = False
                if not finite:
                    # nothing was updated: each replica at fault ends here,
                    # with the coefficients its last forward used
                    bad = ~np.isfinite(values) | net.nonfinite_replicas()
                    coeffs = net.activation_coefficients()
                    for i in np.flatnonzero(bad):
                        records[live[i]].append(EpochRecord(
                            epoch=epoch, train_loss=float("nan"), activation_params=coeffs[i],
                            status="diverged", seconds=time.monotonic() - t0))
                    rows = np.flatnonzero(~bad)
                    optimizer.keep(rows)
                    live, gens = [live[i] for i in rows], [gens[i] for i in rows]
                    orders, totals, values = orders[rows], totals[rows], values[rows]
                    if not live:
                        break
                    optimizer.step()
                totals += values * idx.shape[1]
            if not live:
                break
            recs = [EpochRecord(epoch=epoch, train_loss=float(total / n), activation_params=coeffs)
                    for total, coeffs in zip(totals, net.activation_coefficients())]
            if x_test is not None:
                pred = net.forward(x_test, training=False)
                pred = pred.reshape(len(live), -1, pred.shape[-1])
                test_loss, _ = eval_loss(loss_kind, pred, y_test)
                for rec, loss in zip(recs, test_loss):
                    rec.test_loss = float(loss)
                if loss_kind == "xent":
                    for rec, acc in zip(recs, np.mean(pred.argmax(axis=-1) == y_test, axis=-1)):
                        rec.test_accuracy = float(acc)
            seconds = time.monotonic() - t0
            for r, rec in zip(live, recs):
                rec.seconds = seconds
                records[r].append(rec)
    return records


# ---------------------------------------------------------------------------
# Whole-network gradient checking.
# ---------------------------------------------------------------------------

def min_kink_gap(net: Network) -> float:
    """The smallest gap between an activation input of the last forward and a kink."""
    gap = float("inf")
    for layer in net.layers:
        if isinstance(layer, ActivationLayer):
            x = layer._cache[1]
            for kink in layer.kinks():
                gap = min(gap, float(np.abs(x - kink).min()))
    return gap


# A base point (theta, x) needs every pre-activation this many probe steps
# from a kink: a +-step probe of finite_diff_check moves a pre-activation by
# at most the step times the norm of its gradient wrt (theta, x), and on the
# checker's small networks that norm stays below about 6.
_KINK_MARGIN = 100.0


def gradient_check_network(net: Network, x: np.ndarray, rng: np.random.Generator,
                           probes: int = 100) -> float | None:
    """Check d(sum(c * net(theta, x))) / d(theta, x) against central finite
    differences along random directions; returns the max relative error, or
    None, drawing nothing from `rng`, when a pre-activation lies within the
    probes' reach of a derivative jump.  Leaves `net.theta` as found."""
    x = tensor(x)
    out = net.forward(x)  # the one base forward: kink check, c's shape, backward's caches
    n_theta = net.theta.size
    base = np.concatenate([net.theta, x.ravel()])
    step = central_step(base)
    if min_kink_gap(net) < _KINK_MARGIN * step:
        return None
    c = rng.standard_normal(out.shape)
    dx = net.backward(c, need_dx=True)
    analytic = np.concatenate([net.grad, dx.ravel()])

    def f(vec: np.ndarray) -> float:
        net.theta[...] = vec[:n_theta]
        return float(np.sum(c * net.forward(vec[n_theta:].reshape(x.shape))))

    worst = finite_diff_check(f, base, lambda v: analytic @ v, probes, step, rng)
    net.theta[...] = base[:n_theta]
    return worst


def run_gradient_check(spec: act.ActivationSpec, widths=(2, 8, 8, 2),
                       seed: int = 0, probes: int = 100) -> float:
    """Build a seeded MLP for `spec` and return the max relative gradient error
    over `probes` at the first batch of 4 inputs clear of activation kinks."""
    rng = substream(seed, "grad-check", act.format_activation(spec))
    net = build_mlp(list(widths), spec, [rng])
    for _ in range(100):
        worst = gradient_check_network(net, rng.standard_normal((4, widths[0])), rng,
                                       probes=probes)
        if worst is not None:
            return worst
    raise RuntimeError("could not find a base point clear of activation kinks")
