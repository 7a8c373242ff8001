"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 6 and the official-file half of criterion 8 need the real
MNIST IDX files; point WENDNET_MNIST_DIR at a directory containing
train-images-idx3-ubyte / train-labels-idx1-ubyte / t10k-images-idx3-ubyte /
t10k-labels-idx1-ubyte (default: ./data/mnist).  Without them those tests
are skipped, never silently weakened.
"""

import csv
import os
import struct
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.random import default_rng

from wendnet.activations import (
    ALL_KINDS,
    KINDS,
    _profile,
    _wc0,
    _wc2,
    _wc4,
    parse_activation,
)
from wendnet.bench import config_from_dict, default_config_text, run_experiment
from wendnet.datasets import load_idx, make_circles, write_idx_labels
from wendnet.network import run_gradient_check
from wendnet.tensor import ConfigError

MNIST_DIR = Path(os.environ.get("WENDNET_MNIST_DIR", "data/mnist"))
MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _mnist_paths():
    paths = {k: MNIST_DIR / v for k, v in MNIST_FILES.items()}
    if not all(p.is_file() for p in paths.values()):
        pytest.skip(f"official MNIST IDX files not found under {MNIST_DIR}; "
                    "set WENDNET_MNIST_DIR to run this criterion")
    return paths


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def _read_rows(path):
    with open(path) as f:
        lines = [l for l in f if not l.startswith("#")]
    return list(csv.reader(lines))


def test_criterion_1_gradient_fidelity():
    t0 = time.monotonic()
    worst = {}
    for kind in ALL_KINDS:
        worst[kind] = run_gradient_check(parse_activation(kind),
                                         widths=(2, 8, 8, 2), seed=0,
                                         probes=1000)
    elapsed = time.monotonic() - t0
    bad = {k: e for k, e in worst.items() if e >= 1e-6}
    _report("criterion 1: gradient fidelity, all kinds, 2-8-8-2, 1000 probes",
            not bad and elapsed < 60.0,
            f"worst={max(worst.values()):.2e}, {elapsed:.1f}s" +
            (f", failing={bad}" if bad else ""))


def _g(r, p):
    """The enhanced profile g(r) at r >= 0, through its kernel."""
    return _profile(np.asarray(r, dtype=np.float64), p).g


def test_criterion_2_enhanced_structure():
    rng = default_rng(2024)
    ok = True
    detail = ""
    for _ in range(50):
        alpha = float(rng.uniform(0.25, 4.0))
        k = int(rng.choice([2, 3, 4, 6]))
        p = {**KINDS["ewend"].defaults, "alpha": alpha, "k": k}
        bare = {**p, "lambda": 0.0, "eps": 0.0}
        # compact support: the Wendland component is exactly 0 for r >= 1/alpha
        for r in (1.0 / alpha, 1.0 / alpha + 1e-12, 10.0 / alpha):
            if _g(r, bare) != 0.0:
                ok, detail = False, f"support leak at alpha={alpha}, k={k}, r={r}"
        # value 1 + eps at r = 0
        if abs(_g(0.0, p) - (1.0 + p["eps"])) > 1e-15:
            ok, detail = False, f"g(0) != 1+eps at alpha={alpha}, k={k}"
        # odd symmetry of the elementwise forward
        x = rng.uniform(-5.0, 5.0, size=64)
        y, _ = KINDS["ewend"].forward(p, x, None)
        if not np.array_equal(KINDS["ewend"].forward(p, -x, None)[0], -y):
            ok, detail = False, f"odd symmetry broken at alpha={alpha}, k={k}"
        # first-derivative continuity at the support boundary
        h = 1e-9
        b = 1.0 / alpha
        left = (_g(b, p) - _g(b - h, p)) / h
        right = (_g(b + h, p) - _g(b, p)) / h
        if abs(left - right) > 1e-6:
            ok, detail = False, f"boundary jump {abs(left-right):.2e} at alpha={alpha}, k={k}"
    _report("criterion 2: enhanced Wendland structure over randomized (alpha, k)",
            ok, detail)


def test_criterion_3_classical_values():
    # each kernel gives (phi(r), dphi/dr)
    checks = [
        (_wc0(0.5)[0], 0.25),
        (_wc2(0.5)[0], 0.1875),
        (_wc4(0.5)[0], 83.0 / 768.0),  # exact rational, = 0.10807291666...
    ]
    ok = all(abs(got - want) <= 1e-12 for got, want in checks)
    for form in (_wc0, _wc2, _wc4):
        ok = ok and form(0.0)[0] == 1.0 and form(1.0)[0] == 0.0 and form(3.0)[0] == 0.0
    _report("criterion 3: classical Wendland values at 1e-12", ok)


def test_criterion_4_sine_experiment(tmp_path):
    t0 = time.monotonic()
    cfg = config_from_dict(yaml.safe_load(default_config_text("sine")))
    cfg.output_dir = str(tmp_path / "sine")
    run_experiment(cfg)
    rows = _read_rows(Path(cfg.output_dir) / "metrics.csv")
    header, body = rows[0], rows[1:]
    i_act, i_loss, i_status = (header.index(c) for c in
                               ("activation", "test_loss", "status"))
    final = {}
    for r in body:
        final[r[i_act]] = r
    elapsed = time.monotonic() - t0
    ew = next(k for k in final if k.startswith("ewend"))
    ok = (float(final["tanh"][i_loss]) < 1e-2
          and float(final[ew][i_loss]) < 1e-2
          and final["relu"][i_status] == "ok"
          and final["sigmoid"][i_status] == "ok"
          and elapsed < 120.0)
    _report("criterion 4: sine regression (default config)", ok,
            f"tanh={float(final['tanh'][i_loss]):.2e}, "
            f"ewend={float(final[ew][i_loss]):.2e}, {elapsed:.1f}s")


def test_criterion_5_toy_classification(tmp_path):
    t0 = time.monotonic()
    # moons, noise 0.2: relu, tanh and ewend all reach >= 95% test accuracy
    raw = yaml.safe_load(default_config_text("moons"))
    raw["repetitions"] = 1
    raw["output_dir"] = str(tmp_path / "moons")
    cfg = config_from_dict(raw)
    run_experiment(cfg)
    summary = {r[0]: float(r[2]) for r in
               _read_rows(Path(cfg.output_dir) / "summary.csv")[1:]}
    moons_ok = all(acc >= 0.95 for acc in summary.values())

    # noiseless circles are separable by radius; verify by brute force first
    x, labels = make_circles(1000, 0.0, 0.5, default_rng(99))
    radii = np.hypot(x[:, 0], x[:, 1])
    assert radii[labels == 0].min() > radii[labels == 1].max()

    raw = yaml.safe_load(default_config_text("circles"))
    raw["dataset"]["noise_sd"] = 0.0
    raw["repetitions"] = 1
    raw["activations"] = ["relu", "tanh", "sigmoid",
                          "ewend(alpha=1.0,k=4,lambda=0.1,beta=1.0,eps=0.01,mode=elem)"]
    raw["output_dir"] = str(tmp_path / "circles")
    cfg = config_from_dict(raw)
    run_experiment(cfg)
    csummary = {r[0]: float(r[2]) for r in
                _read_rows(Path(cfg.output_dir) / "summary.csv")[1:]}
    circles_ok = all(acc == 1.0 for acc in csummary.values())
    elapsed = time.monotonic() - t0
    _report("criterion 5: moons >= 95% and noiseless circles = 100%",
            moons_ok and circles_ok and elapsed < 180.0,
            f"moons={min(summary.values()):.3f}, circles={min(csummary.values()):.3f}, "
            f"{elapsed:.1f}s")


def test_criterion_6_mnist_like(tmp_path):
    paths = _mnist_paths()
    t0 = time.monotonic()
    raw = yaml.safe_load(default_config_text("mnist"))
    raw["dataset"].update({k: str(v) for k, v in paths.items()})
    raw["output_dir"] = str(tmp_path / "mnist")
    cfg = config_from_dict(raw)
    run_experiment(cfg)
    table = {r[0]: r[1] for r in
             _read_rows(Path(cfg.output_dir) / "accuracy_table.csv")[1:]}
    elapsed = time.monotonic() - t0
    ew = next(k for k in table if k.startswith("ewend"))
    acc_relu = float(table["relu"])
    acc_ew = float(table[ew])
    ok = (len(table) == 10
          and acc_relu >= 0.94 and acc_ew >= 0.94
          and abs(acc_relu - acc_ew) <= 0.02
          and elapsed < 900.0)
    _report("criterion 6: MNIST-like MLP study", ok,
            f"relu={acc_relu:.4f}, ewend={acc_ew:.4f}, rows={len(table)}, {elapsed:.0f}s")


def test_criterion_7_determinism(tmp_path):
    def run_once(out):
        raw = yaml.safe_load(default_config_text("sine"))
        raw["epochs"] = 5
        raw["dataset"]["n"] = 64
        raw["architecture"] = [1, 16, 16, 1]
        raw["output_dir"] = str(out)
        cfg = config_from_dict(raw)
        return run_experiment(cfg)

    def normalized(path):
        with open(path) as f:
            comments = [l for l in f if l.startswith("#")]
        rows = _read_rows(path)
        if "epoch_wall_seconds" in rows[0]:
            col = rows[0].index("epoch_wall_seconds")
            rows = [r[:col] + r[col + 1:] for r in rows]
        return comments, rows

    pa = run_once(tmp_path / "a")
    pb = run_once(tmp_path / "b")
    ok = all(normalized(fa) == normalized(fb) for fa, fb in zip(pa, pb))
    _report("criterion 7: determinism, identical CSVs excluding timing", ok)


def test_criterion_8_idx_corrupted_magic(tmp_path):
    bad = tmp_path / "bad-images"
    with open(bad, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000802, 1, 2, 2))
        f.write(bytes(4))
    write_idx_labels(tmp_path / "labels", np.zeros(1, dtype=np.uint8))
    try:
        load_idx(bad, tmp_path / "labels", 1, default_rng(0))
        ok, detail = False, "corrupted magic accepted"
    except ConfigError as exc:
        ok = "0x00000803" in str(exc)
        detail = str(exc)
    _report("criterion 8a: corrupted-magic IDX fixture rejected", ok, detail)


def test_criterion_8_official_mnist_parses():
    paths = _mnist_paths()
    assert paths["train_images"].stat().st_size == 47040016
    assert paths["train_labels"].stat().st_size == 60008
    # n equal to each file's count keeps every row, in file order
    train_images, train_labels = load_idx(paths["train_images"], paths["train_labels"],
                                          60000, default_rng(0))
    test_images, test_labels = load_idx(paths["test_images"], paths["test_labels"],
                                        10000, default_rng(0))
    ok = (train_images.shape == (60000, 784) and len(train_labels) == 60000
          and test_images.shape == (10000, 784) and len(test_labels) == 10000)
    _report("criterion 8b: official MNIST parses to 60000/10000 x 784", ok)
