"""Feed-forward networks built from dense and activation layers, with losses,
optimizers and a deterministic training loop.

A network is a stack of R replicas of one architecture, trained side by
side: every parameter has a leading replica axis, and each replica computes
exactly what it would compute alone.  Trainable activation coefficients live
alongside the dense weights in the same parameter store and are updated by
the same optimizer step; how each coefficient is stored is up to its
activation kind.  The optimizers only update: `train` alone decides, before
each batch's one step, which replicas diverged.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import activations as act
from .tensor import ConfigError, central_step, features, finite_diff_check, substream, tensor

# float64 elements per kernel call of a forward that keeps nothing: a block
# of ewend's profile, about 9 live arrays, fits in 1.2 MB
_EVAL_BLOCK = 16384


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

    def forward(self, x: np.ndarray, rng, keep: bool) -> np.ndarray:
        """(R, rows, n_out) from x of (R, rows, n_in), or from (rows, n_in)
        rows that every replica takes, keeping x for the backward only when
        `keep` is true; a Dense draws nothing from `rng`."""
        self._cache_x = x if keep else None
        z = x @ self.w.value
        z += self.b.value
        return z

    def backward(self, upstream: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Write the weight and bias gradients; return the input gradient,
        or None without computing it when `need_dx` is false."""
        x = self._cache_x
        if x is None:
            raise RuntimeError("backward called before forward")
        np.matmul(x.swapaxes(-1, -2), upstream, out=self.w.grad)
        np.add.reduce(upstream, axis=-2, keepdims=True, out=self.b.grad)
        return upstream @ self.w.value.swapaxes(-1, -2) if need_dx else None


class ActivationLayer:
    """Applies specs[r] to replica r; consecutive replicas with equal specs
    form a group, which runs its kind's kernel on its rows, once in a
    forward that keeps its cache and block by block in one that does not,
    each call timed into `seconds`, and `sizes` holds each group's replica
    count.  The layer owns one (R, 1, 1) Param per coefficient name that any
    group trains, held as its kind stores it; each group binds its own rows,
    as views, and the other rows hold 0 and get no gradient written, so no
    optimizer step moves them."""

    def __init__(self, specs: list, name: str = "act"):
        self.specs = list(specs)
        self.name = name
        self._regroup()
        self._params: dict[str, Param] = {}
        for rows, kind, params, _, _ in self._groups:
            for coeff, stored in kind.initial(params).items():
                param = Param(f"{name}.{coeff}", np.zeros((len(self.specs), 1, 1)))
                self._params.setdefault(coeff, param).value[rows] = stored
        self._cache = None

    def _regroup(self):
        """Split the replicas into runs of equal specs, (rows, kind, params,
        trained coefficient names, the bound coefficients if none is)."""
        self._groups, self.sizes, start = [], [], 0
        for spec, run in itertools.groupby(self.specs):
            kind, stop = act.KINDS[spec.kind], start + len(list(run))
            names = tuple(kind.initial(spec.params))
            # with nothing to train, the coefficients never change: bind them once
            fixed = None if names else kind.bind(spec.params, {})
            self._groups.append((slice(start, stop), kind, spec.params, names, fixed))
            self.sizes.append(stop - start)
            start = stop
        self.seconds = [0.0] * len(self._groups)

    def keep(self, rows):
        """Keep the replicas at `rows`, in order, regrouped; a group keeps
        the time of its first replica's old group."""
        seconds = np.repeat(self.seconds, self.sizes)[rows]
        self.specs = [self.specs[i] for i in rows]
        self._regroup()
        self.seconds = [float(seconds[g[0].start]) for g in self._groups]

    def params(self) -> list[Param]:
        return list(self._params.values())

    def _bound(self):
        """Each group's rows, kind and full coefficient set at the current
        stored values."""
        for rows, kind, params, names, fixed in self._groups:
            if fixed is None:
                fixed = kind.bind(params, {coeff: self._params[coeff].value[rows]
                                           for coeff in names})
            yield rows, kind, fixed

    def current_coefficients(self) -> list[dict[str, float]]:
        """Each replica's coefficient values in natural space, for metrics
        reporting."""
        out = []
        for rows, kind, c in self._bound():
            n = rows.stop - rows.start
            values = {coeff: np.broadcast_to(v, (n, 1, 1)).ravel()
                      for coeff, v in kind.report(c).items()}
            out += [{coeff: float(v[i]) for coeff, v in values.items()} for i in range(n)]
        return out

    def kink_gap(self) -> float:
        """The smallest gap between an input of the last forward, one that
        kept its cache, and a point where the first derivative of its
        group's activation jumps."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, _ = self._cache
        gaps = (float(np.abs(x[rows] - kink).min())
                for rows, kind, c in self._bound() for kink in kind.kinks(c))
        return min(gaps, default=math.inf)

    def forward(self, x: np.ndarray, rng, keep: bool) -> np.ndarray:
        """The (R, rows, width) stack of outputs from x of that shape, each
        group's rows through its kind; `rng`, one generator per replica or
        None, reaches only a kind that draws.  With `keep`, each group's
        kernel runs once, on all its rows, and the layer caches what
        `backward` and `kink_gap` need; without, it runs on blocks of rows
        of at most `_EVAL_BLOCK` elements (one row if a row holds more), and
        each block's aux is dropped at once, so the forward allocates little
        beyond its output and caches nothing."""
        self._cache = None  # the last forward's, dropped before this one allocates
        n, width = x.shape[1], x.shape[2]
        out, parts = None, []
        for i, (rows, kind, c) in enumerate(self._bound()):
            gens = None if rng is None else rng[rows]
            # a row too large for a block makes a block of its own, and no
            # rows still make one call, so the output keeps its shape
            step = max(1, n if keep else _EVAL_BLOCK // (self.sizes[i] * width))
            for start in range(0, max(n, 1), step):
                at = (rows, slice(start, start + step))
                t0 = time.monotonic()
                y, aux = kind.forward(c, x[at], gens)
                self.seconds[i] += time.monotonic() - t0
                if keep:
                    parts.append((c, aux))
                if len(self._groups) == 1 and step >= n:
                    out = y  # the one call's output is the layer's
                else:
                    if out is None:
                        out = np.empty_like(x)
                    out[at] = y
                del y, aux  # a lean forward holds one block's arrays at a time
        if keep:
            self._cache = (x, parts)
        return out

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        """Write the coefficient gradients; return the input gradient."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, parts = self._cache
        dxs = []
        for i, ((rows, kind, *_), (c, aux)) in enumerate(zip(self._groups, parts)):
            t0 = time.monotonic()
            dx, grads = kind.backward(c, x[rows], aux, upstream[rows])
            self.seconds[i] += time.monotonic() - t0
            for coeff, grad in grads.items():
                self._params[coeff].grad[rows] = grad
            dxs.append(dx)
        return dxs[0] if len(dxs) == 1 else np.concatenate(dxs)


class Network:
    """Ordered layer list, as a stack of `replicas` replicas: every Param has
    the replica axis first, and past the input every layer takes and returns
    an (R, rows, width) stack; the first layer, a Dense, also takes 2-D rows
    that every replica shares.  Every layer's Param values and gradients are
    views into the flat float64 vectors theta and grad, which hold one block
    per replica, each in layer order.  A backward writes every entry of
    grad but the coefficient rows an activation group does not train, which
    hold 0 from the start, so it needs no zeroing first."""

    def __init__(self, layers: list):
        self.layers = list(layers)
        self._params = [p for layer in self.layers for p in layer.params()]
        self.replicas = self._params[0].value.shape[0]
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
        for layer in self._activations():
            layer.keep(rows)
        return state

    def _activations(self) -> list[ActivationLayer]:
        return [layer for layer in self.layers if isinstance(layer, ActivationLayer)]

    def replica_seconds(self, elapsed: float) -> np.ndarray:
        """`elapsed` shared out, one figure per replica: its activation
        group's kernel time since `clear_seconds`, plus the rest split by the
        groups' replica counts (the groups `build_mlp` gives every layer), so
        one replica of each group gets a sum of `elapsed`."""
        layers = self._activations()
        sizes = layers[0].sizes if layers else [self.replicas]
        own = sum((np.array(layer.seconds) for layer in layers), np.zeros(len(sizes)))
        share = np.repeat(sizes, sizes) / self.replicas
        return np.repeat(own, sizes) + (elapsed - own.sum()) * share

    def clear_seconds(self):
        """Zero the activation groups' kernel times."""
        for layer in self._activations():
            layer.seconds = [0.0] * len(layer.seconds)

    def nonfinite_replicas(self) -> np.ndarray:
        """One bool per replica: whether its gradient holds a non-finite entry."""
        return ~np.isfinite(self._blocks(self.grad)).all(axis=1)

    def forward(self, x: np.ndarray, training: bool = False,
                rng: list[np.random.Generator] | None = None,
                keep: bool = False) -> np.ndarray:
        """The stack's output, (R, rows, outputs), from 2-D rows x.  In
        training, x holds the R replicas' batches one after another;
        otherwise every replica takes all the rows of x.  With `rng`, one
        generator per replica, a kind that draws (rrelu) draws from it;
        without, it takes its mean.  A training forward, or one with `keep`,
        keeps the caches that `backward` and `min_kink_gap` read; any other
        keeps none and runs its activation kernels on blocks of rows, so an
        eval forward allocates little beyond its layers' outputs."""
        if training:
            x = x.reshape(self.replicas, -1, x.shape[-1])
        for layer in self.layers:
            x = layer.forward(x, rng, keep or training)
        return x

    def backward(self, grad: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Write net.grad for the loss gradient `grad`, a stack laid out as
        `forward` returns it; return the stack of gradients with respect to
        each replica's input rows, or None when `need_dx` is false, in which
        case the first layer, a Dense, does not compute it."""
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        return self.layers[0].backward(grad, need_dx)

    def activation_coefficients(self) -> list[dict[str, float]]:
        """Each replica's activation coefficients in natural space."""
        out: list[dict[str, float]] = [{} for _ in range(self.replicas)]
        for layer in self._activations():
            for coeffs, own in zip(out, layer.current_coefficients()):
                coeffs.update((f"{layer.name}.{coeff}", value) for coeff, value in own.items())
        return out


def build_mlp(widths: list[int], spec, rngs) -> Network:
    """A stack of len(rngs) MLPs: Dense layers of the given widths with an
    activation after each hidden layer, `spec` in every replica or spec[r]
    in replica r of a list, replica r initialised from rngs[r]."""
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    specs = spec if isinstance(spec, list) else [spec] * len(rngs)
    if len(specs) != len(rngs):
        raise ValueError(f"{len(specs)} activation specs for {len(rngs)} replicas")
    layers: list = []
    for i in range(len(widths) - 1):
        layers.append(Dense(widths[i], widths[i + 1], rngs, name=f"dense{i}"))
        if i < len(widths) - 2:
            layers.append(ActivationLayer(specs, name=f"act{i}"))
    return Network(layers)


# ---------------------------------------------------------------------------
# Losses.  `train` checks its targets once on entry, then calls the
# unchecked kernels through `eval_loss`: each takes a stack of R float64
# predictions, (R, rows, outputs), and returns (one value per replica,
# gradient wrt pred).
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
    """Raise ConfigError unless `target` fits predictions of `shape` under
    loss `kind`: the same shape for "mse", one class index in [0, columns)
    per row for "xent"."""
    if kind == "mse":
        if target.shape != shape:
            message = f"mse: prediction shape {shape} vs target shape {target.shape}"
            if target.ndim == 2 and target.shape[1] != shape[1]:
                columns = target.shape[1]
                message += (f": the network's last width is {shape[1]}, but the targets have "
                            f"{columns} column{'s' * (columns != 1)}: it must be {columns}")
            raise ConfigError(message)
    elif kind == "xent":
        n, c = shape
        if target.shape != (n,):
            raise ConfigError(f"labels shape {target.shape} incompatible with logits {shape}")
        lo, hi = target.min(), target.max()
        if lo < 0:
            raise ConfigError(f"class index out of range [0, {c}): the network's last width "
                              f"is {c}, but a label is {lo}: labels must be >= 0")
        if hi >= c:
            raise ConfigError(f"class index out of range [0, {c}): the network's last width "
                              f"is {c}, but the labels run up to {hi}: "
                              f"it must be at least {hi + 1}")


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
        v = self._velocity
        v *= self.momentum
        v += self.net.grad
        self.net.theta -= self.lr * v


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) in the order of operations of
    their section 2: the bias corrections fold into a step size
    lr_t = lr * sqrt(1 - beta2^t) / (1 - beta1^t) and an
    eps_hat = eps * sqrt(1 - beta2^t), at their eps = 1e-8, both computed
    once per step, so theta -= lr_t * m / (sqrt(v) + eps_hat) divides once
    per element.  It is Algorithm 1 up to rounding.

    The update runs in place, one block of the parameter vector at a time: a
    block's moments, gradient and values plus two scratch vectors stay in
    cache while the update's passes run over them; with whole vectors each
    pass would stream every array through memory again.  Every element sees
    the same operations in the same order either way.
    """

    _BLOCK = 32768  # float64 elements per block: 6 arrays of 256 KiB
    _EPS = 1e-8

    def __init__(self, net: Network, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999):
        self.net = net
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
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
        self.step_count += 1
        t = self.step_count
        beta1, beta2 = self.beta1, self.beta2
        root2 = math.sqrt(1.0 - beta2 ** t)
        lr_t = self.lr * root2 / (1.0 - beta1 ** t)
        eps_hat = self._EPS * root2
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
          x_test, y_test) -> list[list[EpochRecord]]:
    """Mini-batch training of every replica of `net` side by side, replica r
    drawing its per-epoch shuffle and any random activation slopes from
    rngs[r].

    Returns each replica's epoch records; each carries the loss on the
    test rows, and under "xent" the test accuracy too, from one forward
    per epoch that keeps nothing and, beyond its layers' outputs,
    allocates one block of rows at a time: the training forwards alone
    keep caches.  Its
    seconds are the replica's share of the epoch's wall time, as
    `Network.replica_seconds` gives it: the stack's wall time when the
    stack runs one activation group.  Before each
    batch's one optimizer step, a replica whose loss or gradient holds a
    non-finite value gets a last record with status="diverged" and the
    offending epoch number, and leaves the stack; the others train on.
    Train and test data that do not fit the network's first or last width
    raise ConfigError before the first update.

    The rows become float64 by `features` where they enter: the test rows
    once, here, and the training rows one gathered batch at a time, so
    stored `uint8` pixels stay one byte each and each batch enters scaled
    to [0, 1].
    """
    x_train = np.asarray(x_train)
    n = x_train.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if len(rngs) != net.replicas:
        raise ValueError(f"{len(rngs)} generators for {net.replicas} replicas")
    y_train = np.asarray(y_train)
    x_test, y_test = features(x_test), np.asarray(y_test)
    # checked once here, so the loss kernels need not be; activations keep
    # the width, so the first and last Dense layers set the input's and the
    # output's
    dense = [layer for layer in net.layers if isinstance(layer, Dense)]
    for x in (x_train, x_test):
        columns = x.shape[-1]
        if dense and columns != dense[0].n_in:
            raise ConfigError(f"the network's first width is {dense[0].n_in}, but the data have "
                              f"{columns} input column{'s' * (columns != 1)}: it must be {columns}")
    width = dense[-1].n_out if dense else x_train.shape[-1]
    _check_targets(loss_kind, y_train, (n, width))
    _check_targets(loss_kind, y_test, (x_test.shape[0], width))
    records: list[list[EpochRecord]] = [[] for _ in rngs]
    live = list(range(len(rngs)))  # the replica at each place of the stack
    with quiet_errstate():
        for epoch in range(epochs):
            t0 = time.monotonic()
            net.clear_seconds()
            gens = [rngs[r] for r in live]
            orders = np.stack([g.permutation(n) for g in gens])
            totals = np.zeros(len(live))
            for start in range(0, n, batch_size):
                idx = orders[:, start:start + batch_size]  # one row of indices per replica
                pred = net.forward(features(x_train.take(idx.ravel(), axis=0)),
                                   training=True, rng=gens)
                values, grad = eval_loss(loss_kind, pred, y_train.take(idx, axis=0))
                net.backward(grad, need_dx=False)
                # a finite sum of the losses and a finite sum of the squared
                # gradient entries prove every entry finite, so only a result
                # that is not (a non-finite entry, or finite entries that
                # overflow it) pays for the scans
                if not (math.isfinite(np.add.reduce(values))
                        and math.isfinite(net.grad @ net.grad)):
                    # nothing was updated: each replica at fault ends here,
                    # with the coefficients its last forward used
                    bad = ~np.isfinite(values) | net.nonfinite_replicas()
                    coeffs = net.activation_coefficients()
                    seconds = net.replica_seconds(time.monotonic() - t0)
                    for i in np.flatnonzero(bad):
                        records[live[i]].append(EpochRecord(
                            epoch=epoch, train_loss=float("nan"), activation_params=coeffs[i],
                            status="diverged", seconds=float(seconds[i])))
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
            pred = net.forward(x_test)
            test_loss, _ = eval_loss(loss_kind, pred, y_test)
            for rec, loss in zip(recs, test_loss):
                rec.test_loss = float(loss)
            if loss_kind == "xent":
                for rec, acc in zip(recs, np.mean(pred.argmax(axis=-1) == y_test, axis=-1)):
                    rec.test_accuracy = float(acc)
            seconds = net.replica_seconds(time.monotonic() - t0)
            for r, rec, share in zip(live, recs, seconds):
                rec.seconds = float(share)
                records[r].append(rec)
    return records


# ---------------------------------------------------------------------------
# Whole-network gradient checking.
# ---------------------------------------------------------------------------

def min_kink_gap(net: Network) -> float:
    """The smallest gap between an activation input of the last forward and a kink."""
    return min((layer.kink_gap() for layer in net._activations()), default=math.inf)


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
    # the one base forward, which keeps its caches: kink check, c's shape, backward
    out = net.forward(x, keep=True)
    n_theta = net.theta.size
    base = np.concatenate([net.theta, x.ravel()])
    step = central_step(base)
    if min_kink_gap(net) < _KINK_MARGIN * step:
        return None
    c = rng.standard_normal(out.shape)
    dx = net.backward(c)
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
