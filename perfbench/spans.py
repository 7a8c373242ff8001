"""Span tracing from outside the program, and the per-layer metrics.

`Tracer.install` wraps every public function and every public method of a
public class defined in the traced `wendnet` modules.  Each call records a
span (name, start, end, parent span, job id, op id) in in-memory
columns; `save` writes them out once the run ends.  A span's self time is
its duration minus the durations of its direct children; spans nest
strictly because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import types
from array import array

import numpy as np

from probe import Patcher, clock

TRACED_LAYERS = ("tensor", "activations", "network", "datasets", "bench")
ACT_LABELS = ("relu", "gelu", "tanh", "ewend", "ewend_channel", "all")
EWEND_COEFFS = 4  # alpha, lambda, beta, eps: partials enhanced_backward computes


class Tracer:
    def __init__(self, probe):
        self.probe = probe
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {k: array("i") for k in ("name", "parent", "job", "op")}
        self.t0 = array("d")
        self.t1 = array("d")
        self.partials_used = 0
        self._stack: list[int] = []
        self._patcher = Patcher()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        # forwards are split by mode: training forwards run inside ops,
        # evaluation forwards (test loss, gradient probes) may not
        train_id = eval_id = None
        if name == "network.Network.forward":
            train_id, eval_id = self._id(name + ".train"), self._id(name + ".eval")
        nid = train_id if train_id is not None else self._id(name)
        cols, t0s, t1s, stack, probe = self.cols, self.t0, self.t1, self._stack, self.probe

        @functools.wraps(fn)
        def span(*a, **k):
            i = len(t0s)
            sid = nid
            if train_id is not None:
                sid = train_id if k.get("training", a[2] if len(a) > 2 else False) else eval_id
            cols["name"].append(sid)
            cols["parent"].append(stack[-1] if stack else -1)
            cols["job"].append(probe.job)
            cols["op"].append(probe.op)
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(i)
            start = clock()
            try:
                return fn(*a, **k)
            finally:
                t1s[i] = clock()
                t0s[i] = start
                stack.pop()
        return span

    def _count_partials(self, fn):
        @functools.wraps(fn)
        def enhanced_backward(x, upstream, p, *a, **k):
            self.partials_used += len(p.trainable_names())
            return fn(x, upstream, p, *a, **k)
        return enhanced_backward

    def install(self):
        p = self._patcher
        p.function(importlib.import_module("wendnet.activations"),
                   "enhanced_backward", self._count_partials)
        for layer in TRACED_LAYERS:
            mod = importlib.import_module(f"wendnet.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    p.function(mod, attr, functools.partial(self._wrap, f"{layer}.{attr}"))
                elif isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            p.method(obj, meth, functools.partial(
                                self._wrap, f"{layer}.{obj.__name__}.{meth}"))

    def uninstall(self):
        self._patcher.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        out = {k: np.frombuffer(v, dtype=np.int32).copy() for k, v in self.cols.items()}
        out["start"] = np.frombuffer(self.t0, dtype=np.float64).copy()
        out["end"] = np.frombuffer(self.t1, dtype=np.float64).copy()
        return out

    def save(self, path):
        """Write the spans as columns of an .npz file, names alongside."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def per_layer_metrics(tracer: Tracer, first_op: int, studies: int, jobs: int,
                      epochs: int, csv_bytes: float, untraced_speed: float,
                      traced_speed: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced phase; see perfbench/README.md.

    `first_op` is the index in `probe.op_ms` of the first op of the traced
    phase.  Per-op figures count only spans that started inside an op.
    """
    probe = tracer.probe
    s = tracer.arrays()
    dur = s["end"] - s["start"]
    self_t = dur.copy()
    has_parent = s["parent"] >= 0
    np.subtract.at(self_t, s["parent"][has_parent], dur[has_parent])
    in_op = s["op"] >= 0

    op_ms = np.array(probe.op_ms[first_op:])
    n_ops = max(len(op_ms), 1)
    # job -1 (study set-up) takes the extra last label slot
    job_labels = np.array(probe.job_labels + ["none"])
    span_label = job_labels[s["job"]]
    op_label = job_labels[np.array(probe.op_jobs[first_op:], dtype=np.int64)]
    ops_by_label = {lab: int(np.sum(op_label == lab)) for lab in ACT_LABELS}
    ops_by_label["all"] = len(op_ms)

    def sel(*wanted, prefix="", suffix=None):
        ids = [i for i, n in enumerate(tracer.names)
               if n in wanted or (suffix is not None and n.startswith(prefix)
                                  and n.endswith(suffix))]
        return np.isin(s["name"], ids)

    def ms(mask, per=n_ops, t=dur):
        return float(t[mask].sum() * 1e3 / max(per, 1))

    def count(mask, per):
        return float(mask.sum() / max(per, 1))

    act_f = sel("network.ActivationLayer.forward")
    act_b = sel("network.ActivationLayer.backward")
    steps = sel(prefix="network.", suffix=".step")
    out: dict[str, tuple[float, str]] = {}
    out["network.optimizer_step_ms"] = (ms(steps & in_op), "ms")
    out["network.dense_forward_ms"] = (ms(sel("network.Dense.forward") & in_op), "ms")
    out["network.dense_backward_ms"] = (ms(sel("network.Dense.backward") & in_op), "ms")
    for lab in ACT_LABELS:
        of_label = in_op if lab == "all" else in_op & (span_label == lab)
        per = ops_by_label[lab]
        out[f"network.act_forward_ms.{lab}"] = (ms(act_f & of_label, per), "ms")
        out[f"network.act_backward_ms.{lab}"] = (ms(act_b & of_label, per), "ms")
    out["network.loss_ms"] = (ms(sel("network.eval_loss") & in_op), "ms")
    out["network.zero_grad_ms"] = (ms(sel("network.Network.zero_grad") & in_op), "ms")
    out["network.train_self_ms"] = (ms(sel("network.train"), t=self_t), "ms")
    out["network.eval_forward_ms"] = (
        ms(sel("network.Network.forward.eval"), per=epochs or jobs), "ms")
    out["network.param_vector_ms"] = (ms(sel(
        "network.Network.get_param_vector", "network.Network.set_param_vector",
        "network.Network.get_grad_vector"), per=jobs), "ms")
    checker = sel("network.run_gradient_check", "network.gradient_check_network",
                  "network.min_kink_gap")
    out["network.gradcheck_self_ms"] = (ms(checker, per=jobs, t=self_t), "ms")
    out["network.build_ms"] = (ms(sel("network.build_mlp"), per=jobs), "ms")
    out["network.forward_calls"] = (count(sel(
        "network.Network.forward.train", "network.Network.forward.eval"), jobs), "count")
    out["network.backward_calls"] = (count(sel("network.Network.backward"), jobs), "count")
    out["network.optimizer_steps"] = (count(steps, jobs), "count")

    for fn in ("enhanced_forward", "enhanced_backward", "baseline_eval",
               "baseline_param_grads"):
        m = sel(f"activations.{fn}") & in_op
        out[f"activations.{fn}_ms"] = (ms(m), "ms")
        out[f"activations.{fn}_calls"] = (count(m, n_ops), "count")
    baseline_evals = int(sel("activations.baseline_eval").sum())
    ewend_job = (span_label == "ewend") | (span_label == "ewend_channel")
    baseline_backwards = int((act_b & ~ewend_job).sum())
    out["activations.derivative_used_ratio"] = (
        baseline_backwards / baseline_evals if baseline_evals else 0.0, "ratio")
    enhanced_backwards = int(sel("activations.enhanced_backward").sum())
    out["activations.ewend_partials_used_ratio"] = (
        tracer.partials_used / (EWEND_COEFFS * enhanced_backwards)
        if enhanced_backwards else 0.0, "ratio")

    out["tensor.tensor_calls_per_op"] = (count(sel("tensor.tensor") & in_op, n_ops), "count")
    out["tensor.substream_calls"] = (
        count(sel("tensor.substream") & (s["job"] < 0), studies), "count")
    out["datasets.load_idx_s"] = (ms(sel("datasets.load_idx"), per=studies) / 1e3, "s")
    out["datasets.subsample_s"] = (ms(sel("datasets.subsample"), per=studies) / 1e3, "s")
    out["datasets.generate_s"] = (ms(sel(
        "datasets.sample_sine", "datasets.make_moons", "datasets.make_circles",
        "datasets.Dataset.split"), per=studies) / 1e3, "s")
    out["bench.self_ms"] = (ms(sel(prefix="bench.", suffix=""), per=jobs, t=self_t), "ms")
    out["bench.csv_bytes"] = (float(csv_bytes), "bytes")

    step_ms = float(op_ms.mean()) if op_ms.size else 0.0
    out["trace.step_ms"] = (step_ms, "ms")
    # share of the traced op time that layer spans cover; the rest is the
    # train loop's (or the gradient checker's) own time between them
    covered = ms(in_op & ~checker & ~sel("network.train"), t=self_t)
    out["trace.step_accounted_ratio"] = (covered / step_ms if step_ms else 0.0, "ratio")
    out["trace.overhead_ratio"] = (untraced_speed / traced_speed if traced_speed else 0.0,
                                   "ratio")
    return out
