"""Experiment harness: declarative configs, the three benchmark studies
(sine regression, moons/circles classification, MNIST-like MLP comparison),
and deterministic CSV output.

Output files start with comment lines (prefix '#') recording the tool
version, a digest of the config, and the seed.  Given the same config and
seed, every column except epoch_wall_seconds is byte-identical across runs
on the same platform.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .activations import ActivationSpec, ConfigError, format_activation, parse_activation
from .datasets import Dataset, load_idx, make_circles, make_moons, sample_sine, subsample
from .network import EpochRecord, build_mlp, make_optimizer, train
from .tensor import substream

EXPERIMENTS = ("sine", "moons", "circles", "mnist", "fashion")

# Table-1 row order from the activation comparison study; activations not in
# this list keep their config order after these.
TABLE_ORDER = ("relu", "relu6", "lrelu", "rrelu", "elu", "celu", "swish",
               "prelu", "srelu", "ewend")

METRIC_COLUMNS = ("experiment", "activation", "repetition", "epoch",
                  "train_loss", "test_loss", "test_accuracy",
                  "epoch_wall_seconds", "activation_params", "status")


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    activations: list[str]
    architecture: list[int]
    epochs: int
    batch_size: int
    repetitions: int
    optimizer: dict
    output_dir: str
    dataset: dict = field(default_factory=dict)

    def specs(self) -> list[ActivationSpec]:
        return [parse_activation(s) for s in self.activations]

    def digest(self) -> str:
        # output_dir is where results land, not part of the experiment identity
        payload = {k: v for k, v in self.__dict__.items() if k != "output_dir"}
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def config_from_dict(raw: dict) -> ExperimentConfig:
    _require(isinstance(raw, dict), "config root must be a mapping")
    unknown = set(raw) - {"schema_version", "experiment", "seed", "activations",
                          "architecture", "epochs", "batch_size", "repetitions",
                          "optimizer", "output_dir", "dataset"}
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    _require(raw.get("schema_version", 1) == 1, "unsupported schema_version")
    experiment = raw.get("experiment")
    _require(experiment in EXPERIMENTS,
             f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    acts = raw.get("activations")
    _require(isinstance(acts, list) and acts, "activations must be a non-empty list")
    for i, text in enumerate(acts):
        try:
            parse_activation(str(text))
        except ConfigError as exc:
            raise ConfigError(f"activations[{i}] = {text!r}: {exc}") from None
    arch = raw.get("architecture")
    _require(isinstance(arch, list) and len(arch) >= 2
             and all(isinstance(w, int) and w >= 1 for w in arch),
             "architecture must be a list of >= 2 positive layer widths")
    cfg = ExperimentConfig(
        experiment=experiment,
        seed=int(raw.get("seed", 0)),
        activations=[str(a) for a in acts],
        architecture=list(arch),
        epochs=int(raw.get("epochs", 100)),
        batch_size=int(raw.get("batch_size", 32)),
        repetitions=int(raw.get("repetitions", 1)),
        optimizer=dict(raw.get("optimizer") or {"kind": "adam", "lr": 1e-3}),
        output_dir=str(raw.get("output_dir", "out")),
        dataset=dict(raw.get("dataset") or {}),
    )
    _require(cfg.epochs >= 0, "epochs must be >= 0")
    _require(cfg.batch_size >= 1, "batch_size must be >= 1")
    _require(cfg.repetitions >= 1, "repetitions must be >= 1")
    _require(cfg.optimizer.get("kind", "adam") in ("adam", "sgd"),
             "optimizer.kind must be adam or sgd")
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    try:
        return config_from_dict(raw)
    except ConfigError as exc:
        # point at the offending line where we can find the token in the file
        m = re.search(r"= '([^']+)'", str(exc))
        if m:
            token = m.group(1)
            for lineno, line in enumerate(text.splitlines(), start=1):
                if token in line:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# CSV output.
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _open_csv(path: Path, cfg: ExperimentConfig, columns):
    path.parent.mkdir(parents=True, exist_ok=True)
    f = open(path, "w", newline="", encoding="utf-8")
    f.write(f"# wendnet v{__version__}\n")
    f.write(f"# config_digest={cfg.digest()}\n")
    f.write(f"# seed={cfg.seed}\n")
    writer = csv.writer(f)
    writer.writerow(columns)
    return f, writer


def _params_blob(params: dict[str, float]) -> str:
    return "|".join(f"{k}={v:.17g}" for k, v in sorted(params.items()))


def _metric_rows(cfg: ExperimentConfig, act_text: str, rep: int,
                 records: list[EpochRecord]):
    for rec in records:
        yield [cfg.experiment, act_text, rep, rec.epoch,
               _fmt(rec.train_loss), _fmt(rec.test_loss), _fmt(rec.test_accuracy),
               _fmt(rec.seconds), _params_blob(rec.activation_params), rec.status]


def _train_one(cfg: ExperimentConfig, spec: ActivationSpec, rep: int,
               ds: Dataset, loss_kind: str, classification: bool):
    """Train one (activation, repetition) job on the dataset's split."""
    act_text = format_activation(spec)
    net_rng = substream(cfg.seed, "net", act_text, rep)
    net = build_mlp(cfg.architecture, spec, net_rng)
    opt_kind = cfg.optimizer.get("kind", "adam")
    optimizer = make_optimizer(
        net.params(), kind=opt_kind,
        lr=float(cfg.optimizer.get("lr", 1e-3)),
        momentum=float(cfg.optimizer.get("momentum", 0.0)),
        beta1=float(cfg.optimizer.get("beta1", 0.9)),
        beta2=float(cfg.optimizer.get("beta2", 0.999)))
    train_rng = substream(cfg.seed, "train", act_text, rep)
    y = ds.labels if classification else ds.targets
    records = train(
        net, ds.features[ds.train_idx], y[ds.train_idx], loss_kind, optimizer,
        epochs=cfg.epochs, batch_size=cfg.batch_size, rng=train_rng,
        x_test=ds.features[ds.test_idx], y_test=y[ds.test_idx],
        classification=classification)
    return net, records


def _run_jobs(cfg: ExperimentConfig, ds: Dataset, loss_kind: str,
              classification: bool, keep) -> list[tuple[str, list]]:
    """Train every (activation, repetition) job of `cfg` on `ds` and write
    metrics.csv.  Returns, per activation, its text encoding and
    `keep(rep, net, records)` of each repetition."""
    results: list[tuple[str, list]] = []
    mf, mwriter = _open_csv(Path(cfg.output_dir) / "metrics.csv", cfg, METRIC_COLUMNS)
    with mf:
        for spec in cfg.specs():
            act_text = format_activation(spec)
            kept = []
            for rep in range(cfg.repetitions):
                net, records = _train_one(cfg, spec, rep, ds, loss_kind, classification)
                for row in _metric_rows(cfg, act_text, rep, records):
                    mwriter.writerow(row)
                kept.append(keep(rep, net, records))
            results.append((act_text, kept))
    return results


def _completed(runs: list[list[EpochRecord]]) -> list[EpochRecord]:
    """Final records of the repetitions that ended with status ok."""
    return [records[-1] for records in runs if records and records[-1].status == "ok"]


def _mean_std(vals):
    if not vals:
        return None, None
    m = float(np.mean(vals))
    s = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
    return m, s


# ---------------------------------------------------------------------------
# Experiment runners.
# ---------------------------------------------------------------------------

def run_sine(cfg: ExperimentConfig) -> list[Path]:
    """Sine regression study: per-epoch metrics plus a dense prediction grid
    (x, sin x, one column per activation) for external plotting."""
    _require(cfg.experiment == "sine", "config is not a sine experiment")
    dp = cfg.dataset
    lo = float(dp.get("x_lo", -np.pi))
    hi = float(dp.get("x_hi", np.pi))
    ds = sample_sine(int(dp.get("n", 256)), (lo, hi),
                     float(dp.get("noise_sd", 0.05)),
                     substream(cfg.seed, "data"))
    ds.split(float(dp.get("test_fraction", 0.3)), substream(cfg.seed, "split"))
    grid = np.linspace(lo, hi, int(dp.get("grid_points", 201)))[:, None]

    def predict(rep, net, records):
        if rep != 0:
            return None
        ok = not records or records[-1].status == "ok"
        return (net.forward(grid) if ok else np.full_like(grid, np.nan))[:, 0]

    pred_cols = [(text, kept[0]) for text, kept in _run_jobs(cfg, ds, "mse", False, predict)]
    out = Path(cfg.output_dir)
    pf, pwriter = _open_csv(out / "predictions.csv", cfg,
                            ["x", "sin_x"] + [f"pred_{name}" for name, _ in pred_cols])
    with pf:
        for i in range(grid.shape[0]):
            row = [_fmt(float(grid[i, 0])), _fmt(float(np.sin(grid[i, 0])))]
            row += [_fmt(float(col[i])) for _, col in pred_cols]
            pwriter.writerow(row)
    return [out / "metrics.csv", out / "predictions.csv"]


def _toy_dataset(cfg: ExperimentConfig) -> Dataset:
    dp = cfg.dataset
    rng = substream(cfg.seed, "data")
    n = int(dp.get("n", 1000))
    if cfg.experiment == "moons":
        ds = make_moons(n, float(dp.get("noise_sd", 0.2)), rng)
    else:
        ds = make_circles(n, float(dp.get("noise_sd", 0.1)),
                          float(dp.get("factor", 0.5)), rng)
    return ds.split(float(dp.get("test_fraction", 0.3)), substream(cfg.seed, "split"))


def run_toy_classification(cfg: ExperimentConfig) -> list[Path]:
    """Moons/circles study with a per-activation summary (mean and sample
    standard deviation over repetitions)."""
    _require(cfg.experiment in ("moons", "circles"),
             "config is not a toy classification experiment")
    results = _run_jobs(cfg, _toy_dataset(cfg), "xent", True,
                        lambda rep, net, records: records)
    out = Path(cfg.output_dir)
    sf, swriter = _open_csv(out / "summary.csv", cfg,
                            ["activation", "completed_repetitions",
                             "test_accuracy_mean", "test_accuracy_std",
                             "test_loss_mean", "test_loss_std",
                             "mean_epoch_seconds"])
    with sf:
        for act_text, runs in results:
            finals = _completed(runs)
            secs = [r.seconds for records in runs for r in records]
            am, asd = _mean_std([r.test_accuracy for r in finals])
            lm, lsd = _mean_std([r.test_loss for r in finals])
            swriter.writerow([act_text, len(finals), _fmt(am), _fmt(asd),
                              _fmt(lm), _fmt(lsd),
                              _fmt(float(np.mean(secs)) if secs else None)])
    return [out / "metrics.csv", out / "summary.csv"]


def _table_ordered(texts: list[str]) -> list[str]:
    """Sort activation encodings into the comparison table's row order;
    kinds outside the table keep their config order at the end."""
    order = {k: i for i, k in enumerate(TABLE_ORDER)}
    return [text for _, text in sorted(
        enumerate(texts),
        key=lambda pair: (order.get(parse_activation(pair[1]).kind,
                                    len(TABLE_ORDER)), pair[0]))]


def run_mnist_like(cfg: ExperimentConfig) -> list[Path]:
    """Desk-scale activation comparison on MNIST-format IDX files: stratified
    subsets, an MLP instead of the original convolutional nets, and a final
    (activation, accuracy) table in the comparison study's row order."""
    _require(cfg.experiment in ("mnist", "fashion"),
             "config is not an MNIST-like experiment")
    dp = cfg.dataset
    for key in ("train_images", "train_labels", "test_images", "test_labels"):
        _require(key in dp, f"dataset.{key} path is required")
        _require(Path(dp[key]).is_file(), f"dataset.{key}: no such file {dp[key]!r}")

    train_full = load_idx(dp["train_images"], dp["train_labels"])
    test_full = load_idx(dp["test_images"], dp["test_labels"])
    n_train = int(dp.get("n_train", 10000))
    n_test = int(dp.get("n_test", 2000))
    sub_train = subsample(train_full, n_train, 0, stratified=True,
                          rng=substream(cfg.seed, "subsample", "train"))
    sub_test = subsample(test_full, n_test, 0, stratified=True,
                         rng=substream(cfg.seed, "subsample", "test"))
    # index by the row counts subsample returned, so that train and test
    # rows can never overlap
    n_sub_train, n_sub_test = len(sub_train.train_idx), len(sub_test.train_idx)
    ds = Dataset(
        features=np.vstack([sub_train.features[sub_train.train_idx],
                            sub_test.features[sub_test.train_idx]]),
        labels=np.concatenate([sub_train.labels[sub_train.train_idx],
                               sub_test.labels[sub_test.train_idx]]),
        train_idx=np.arange(n_sub_train),
        test_idx=np.arange(n_sub_train, n_sub_train + n_sub_test),
        note=f"{cfg.experiment} subset {n_train}/{n_test}")

    results = _run_jobs(cfg, ds, "xent", True, lambda rep, net, records: records)
    finals = [(act_text, [r.test_accuracy for r in _completed(runs)])
              for act_text, runs in results]
    by_text = {text: float(np.mean(accs)) if accs else None for text, accs in finals}
    out = Path(cfg.output_dir)
    tf, twriter = _open_csv(out / "accuracy_table.csv", cfg,
                            ["activation", "test_accuracy"])
    with tf:
        for text in _table_ordered([t for t, _ in finals]):
            twriter.writerow([text, _fmt(by_text[text])])
    return [out / "metrics.csv", out / "accuracy_table.csv"]


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    if cfg.experiment == "sine":
        return run_sine(cfg)
    if cfg.experiment in ("moons", "circles"):
        return run_toy_classification(cfg)
    return run_mnist_like(cfg)


# ---------------------------------------------------------------------------
# Default configs.
# ---------------------------------------------------------------------------

_DEFAULT_EWEND = "ewend(alpha=1.0,k=4,lambda=0.1,beta=1.0,eps=0.01,mode=elem)"

_SINE_TEMPLATE = f"""\
# wendnet experiment config (schema v1): sine-wave regression
# Three fully connected layers; hidden layers use the activation under test.
schema_version: 1
experiment: sine
seed: 7
activations:
  - tanh
  - {_DEFAULT_EWEND}
  - relu
  - sigmoid
architecture: [1, 64, 64, 1]
epochs: 300
batch_size: 32
repetitions: 1
optimizer: {{kind: adam, lr: 0.005}}
output_dir: out/sine
dataset:
  n: 256
  x_lo: -3.141592653589793
  x_hi: 3.141592653589793
  noise_sd: 0.05
  test_fraction: 0.3
  grid_points: 201
"""

_MOONS_TEMPLATE = f"""\
# wendnet experiment config (schema v1): two-moons binary classification
schema_version: 1
experiment: moons
seed: 7
activations:
  - relu
  - tanh
  - {_DEFAULT_EWEND}
architecture: [2, 16, 16, 2]
epochs: 200
batch_size: 32
repetitions: 3
optimizer: {{kind: adam, lr: 0.005}}
output_dir: out/moons
dataset:
  n: 1000
  noise_sd: 0.2
  test_fraction: 0.3
"""

_CIRCLES_TEMPLATE = f"""\
# wendnet experiment config (schema v1): concentric-circles classification
schema_version: 1
experiment: circles
seed: 7
activations:
  - relu
  - tanh
  - {_DEFAULT_EWEND}
architecture: [2, 16, 16, 2]
epochs: 200
batch_size: 32
repetitions: 3
optimizer: {{kind: adam, lr: 0.005}}
output_dir: out/circles
dataset:
  n: 1000
  noise_sd: 0.1
  factor: 0.5
  test_fraction: 0.3
"""

_MNIST_TEMPLATE = f"""\
# wendnet experiment config (schema v1): desk-scale MNIST activation study.
# Point the dataset paths at pre-fetched IDX files (see README for sources);
# no download is attempted.
schema_version: 1
experiment: mnist
seed: 7
activations:
  - relu
  - relu6
  - lrelu
  - rrelu
  - elu
  - celu
  - swish
  - prelu
  - srelu
  - {_DEFAULT_EWEND}
architecture: [784, 256, 10]
epochs: 5
batch_size: 64
repetitions: 1
optimizer: {{kind: adam, lr: 0.001}}
output_dir: out/mnist
dataset:
  train_images: data/mnist/train-images-idx3-ubyte
  train_labels: data/mnist/train-labels-idx1-ubyte
  test_images: data/mnist/t10k-images-idx3-ubyte
  test_labels: data/mnist/t10k-labels-idx1-ubyte
  n_train: 10000
  n_test: 2000
"""


def default_config_text(experiment: str) -> str:
    if experiment == "sine":
        return _SINE_TEMPLATE
    if experiment == "moons":
        return _MOONS_TEMPLATE
    if experiment == "circles":
        return _CIRCLES_TEMPLATE
    if experiment in ("mnist", "fashion"):
        text = _MNIST_TEMPLATE
        if experiment == "fashion":
            text = text.replace("experiment: mnist", "experiment: fashion")
            text = text.replace("out/mnist", "out/fashion").replace("data/mnist", "data/fashion")
        return text
    raise ConfigError(f"unknown experiment {experiment!r}")
