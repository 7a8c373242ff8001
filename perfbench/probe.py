"""Hooks the benchmark puts around the program's public entry points.

`Patcher` swaps a function for a wrapper in every `wendnet` module that binds
it (a `from .x import f` binding included) and puts the originals back on
`restore()`.  `Probe` uses it to take one clock reading at each op boundary,
to count the items an op processes, to number jobs, and to check that a
training job sees the train/test rows its config asks for.  Nothing here
edits the program's source.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from array import array

clock = time.perf_counter


def _wendnet_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "wendnet" or name.startswith("wendnet."))]


class Patcher:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module, name: str, make_wrapper) -> bool:
        """Replace module-level function `name` wherever it is bound."""
        orig = getattr(module, name, None)
        if not isinstance(orig, types.FunctionType):
            return False
        new = make_wrapper(orig)
        for mod in _wendnet_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, new)
        return True

    def method(self, cls, name: str, make_wrapper) -> bool:
        orig = vars(cls).get(name)
        if not isinstance(orig, types.FunctionType):
            return False
        self._set(cls, name, make_wrapper(orig))
        return True

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def job_label(spec) -> str:
    """Activation kind of a job; channel-mode `ewend` is `ewend_channel`."""
    kind = getattr(spec, "kind", "unknown")
    params = getattr(spec, "params", None) or {}
    if getattr(params.get(kind), "mode", None) == "channel":
        return f"{kind}_channel"
    return kind


def _row_set(x) -> set[bytes]:
    return {row.tobytes() for row in x}


class Probe:
    """Op timing, item counts, job numbering and train/test row checks.

    An op of a training workload runs from the start of a
    `Network.forward(training=True)` to the end of the following optimizer
    `step`; an op of the gradient-check workload is one
    `run_gradient_check` call, which is also one job.
    """

    def __init__(self, gradcheck: bool, expected_rows: tuple[int, int] | None = None):
        self.gradcheck = gradcheck
        self.expected_rows = expected_rows
        # compact arrays, so that the count of ops a run holds barely moves
        # the process's peak memory
        self.op_ms = array("d")          # completed ops, in order
        self.op_jobs = array("i")        # job id of each completed op
        self.items = 0                   # training rows or probes completed
        self.op = -1                     # id of the open op, -1 outside ops
        self.job = -1                    # current job id, -1 before a study's first job
        self.job_labels: list[str] = []
        self.row_errors: list[tuple[int, str]] = []  # (job id, message)
        self.job_hook = None             # called at each job start, its time paused
        self.paused_s = 0.0              # total time spent in job_hook
        self._ops_started = 0
        self._t0 = 0.0
        self._rows = 0
        self._patcher = Patcher()

    # -- boundaries -------------------------------------------------------
    def begin_study(self):
        self.job = -1
        self.op = -1

    def _job_start(self, spec):
        if self.job_hook is not None:
            t0 = clock()
            self.job_hook()
            self.paused_s += clock() - t0
        self.job = len(self.job_labels)
        self.job_labels.append(job_label(spec))

    def _op_start(self, items: int):
        self.op = self._ops_started
        self._ops_started += 1
        self._rows = items
        self._t0 = clock()

    def _op_end(self):
        t1 = clock()
        if self.op < 0:
            return
        self.op_ms.append((t1 - self._t0) * 1e3)
        self.op_jobs.append(self.job)
        self.items += self._rows
        self.op = -1

    # -- hooks ------------------------------------------------------------
    def install(self):
        from wendnet import network

        p = self._patcher
        if self.gradcheck:
            def gradcheck_hook(orig):
                def run_gradient_check(spec, *a, **k):
                    self._job_start(spec)
                    self._op_start(k.get("probes", 100))
                    try:
                        return orig(spec, *a, **k)
                    finally:
                        self._op_end()
                return run_gradient_check
            p.function(network, "run_gradient_check", gradcheck_hook)
            return

        def build_hook(orig):
            def build_mlp(widths, spec, *a, **k):
                self._job_start(spec)
                return orig(widths, spec, *a, **k)
            return build_mlp

        def forward_hook(orig):
            def forward(net, x, *a, **k):
                if k.get("training", a[0] if a else False):
                    self._op_start(len(x))
                return orig(net, x, *a, **k)
            return forward

        def step_hook(orig):
            def step(opt, *a, **k):
                out = orig(opt, *a, **k)
                self._op_end()
                return out
            return step

        def train_hook(orig):
            sig = inspect.signature(orig)

            def train(*a, **k):
                self._check_rows(sig.bind(*a, **k).arguments)
                return orig(*a, **k)
            return train

        p.function(network, "build_mlp", build_hook)
        p.method(network.Network, "forward", forward_hook)
        for cls in vars(network).values():
            if isinstance(cls, type) and cls.__module__ == network.__name__:
                p.method(cls, "step", step_hook)
        p.function(network, "train", train_hook)

    def uninstall(self):
        self._patcher.restore()

    def _check_rows(self, args: dict):
        x_train, x_test = args.get("x_train"), args.get("x_test")
        want_train, want_test = self.expected_rows
        if x_train is None or x_test is None:
            self.row_errors.append((self.job, "train() got no x_train/x_test"))
        elif (len(x_train), len(x_test)) != (want_train, want_test):
            self.row_errors.append((self.job, (
                f"{len(x_train)}/{len(x_test)} train/test rows, "
                f"config asks for {want_train}/{want_test}")))
        elif _row_set(x_train) & _row_set(x_test):
            self.row_errors.append((self.job, "train and test rows overlap"))
