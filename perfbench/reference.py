"""A plain-NumPy MLP training loop that gauges the host's speed.

The measuring host is shared: other tenants slow the benchmark's core by up
to 2x, in stretches that can outlast a whole run, and CPU time rises with
wall time, so the slowdown looks like the program's own work.  The run
therefore times a fixed slice of this loop at the start of every job (in a
traced phase, between studies), and `speed_vs_numpy` divides each study's
rate by the rate of its slices.  The host's slowdown hits both alike and
cancels; a change to wendnet moves the study side only.

The loop trains an MLP of the workload's widths and batch size: dense
layers with ReLU between them, softmax cross-entropy, backward and Adam,
on one fixed batch.  It never changes with the program, so its slices are
the same work on every commit.
"""

from __future__ import annotations

import numpy as np

from probe import clock


class ReferenceLoop:
    def __init__(self, widths, batch: int, steps: int):
        rng = np.random.default_rng(0)
        self.batch = batch
        self.steps = steps
        self.params = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            self.params += [rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in),
                            np.zeros(fan_out)]
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0
        self.x = rng.standard_normal((batch, widths[0]))
        self.y = rng.integers(0, widths[-1], batch)

    def _step(self, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
        weights, biases = self.params[0::2], self.params[1::2]
        acts = [self.x]
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = acts[-1] @ w + b
            acts.append(np.maximum(z, 0.0) if i < len(weights) - 1 else z)
        e = np.exp(acts[-1] - acts[-1].max(axis=1, keepdims=True))
        g = e / e.sum(axis=1, keepdims=True)
        g[np.arange(self.batch), self.y] -= 1.0
        g /= self.batch
        grads = [None] * len(self.params)
        for i in range(len(weights) - 1, -1, -1):
            grads[2 * i], grads[2 * i + 1] = acts[i].T @ g, g.sum(axis=0)
            if i:
                g = (g @ weights[i].T) * (acts[i] > 0)
        self.t += 1
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p, gr, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * gr
            v *= b2
            v += (1.0 - b2) * gr * gr
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)

    def slice_seconds(self) -> float:
        """Wall time of one slice of `steps` training steps."""
        t0 = clock()
        for _ in range(self.steps):
            self._step()
        return clock() - t0

    def items_per_s(self, seconds: float) -> float:
        """Training rows per second of a slice that took `seconds`."""
        return self.batch * self.steps / seconds
