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
import math
import re
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .activations import KINDS, ActivationSpec, ConfigError, format_activation, parse_activation
from .datasets import load_idx, make_circles, make_moons, sample_sine, split, subsample
from .network import SGD, Adam, EpochRecord, build_mlp, quiet_errstate, train
from .tensor import substream

_CONFIG_KEYS = ("schema_version", "experiment", "seed", "activations", "architecture",
                "epochs", "batch_size", "repetitions", "optimizer", "output_dir", "dataset")

# One table per config section, the dataset's in each `_Study`: its keys are
# the allowed keys, and each default's type is the check on that key's value
# (see `_scalar`).
_OPTIMIZER = {"kind": "adam", "lr": 1e-3, "momentum": 0.0, "beta1": 0.9, "beta2": 0.999}
# the official MNIST-format file names; a starter looks under data/<experiment>/
_IDX_FILES = {"train_images": "train-images-idx3-ubyte",
              "train_labels": "train-labels-idx1-ubyte",
              "test_images": "t10k-images-idx3-ubyte",
              "test_labels": "t10k-labels-idx1-ubyte"}

# Table-1 row order from the activation comparison study; activations not in
# this list keep their config order after these.
TABLE_ORDER = ("relu", "relu6", "lrelu", "rrelu", "elu", "celu", "swish",
               "prelu", "srelu", "ewend")

METRIC_COLUMNS = ("experiment", "activation", "repetition", "epoch",
                  "train_loss", "test_loss", "test_accuracy",
                  "epoch_wall_seconds", "activation_params", "status")


@dataclass
class ExperimentConfig:
    """A checked config with every value resolved; `config_from_dict` makes it."""

    experiment: str
    seed: int
    activations: dict[str, ActivationSpec]  # canonical text -> spec, in config order
    architecture: list[int]
    epochs: int
    batch_size: int
    repetitions: int
    optimizer: dict
    output_dir: str
    dataset: dict
    digest: str


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _check_keys(section: dict, allowed, where: str):
    unknown = set(section) - set(allowed)
    _require(not unknown, f"unknown {where} keys: {sorted(str(k) for k in unknown)}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _scalar(section: dict, key: str, default, where: str = "", least: int = 1):
    """section[key], or `default` when absent, checked by the default's type:
    a string for a str default (None: a string that must be given), a
    non-bool integer >= least for an int, else a finite number as a float."""
    value = section.get(key, default)
    if default is None or isinstance(default, str):
        _require(value is not None, f"{where}{key} is required")
        _require(isinstance(value, str), f"{where}{key} must be a string, got {value!r}")
        return value
    if isinstance(default, int):
        _require(_is_int(value) and value >= least,
                 f"{where}{key} must be an integer >= {least}, got {value!r}")
        return value
    try:  # YAML reads exponent forms such as 1e-3 as strings
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past 1e308
        number = math.nan
    _require(math.isfinite(number), f"{where}{key} must be a finite number, got {value!r}")
    return number


def _section(raw, name: str, defaults: dict) -> dict:
    """The `name` mapping of `raw` with each key of `defaults` resolved."""
    _require(isinstance(raw, dict), f"{name} must be a mapping")
    _check_keys(raw, defaults, name)
    return {key: _scalar(raw, key, default, where=f"{name}.")
            for key, default in defaults.items()}


def config_from_dict(raw: dict) -> ExperimentConfig:
    _require(isinstance(raw, dict), "config root must be a mapping")
    _check_keys(raw, _CONFIG_KEYS, "config")
    _require(_scalar(raw, "schema_version", 1) == 1, "unsupported schema_version")
    experiment = raw.get("experiment")
    _require(experiment in EXPERIMENTS,
             f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    acts = raw.get("activations")
    _require(isinstance(acts, list) and acts, "activations must be a non-empty list")
    specs: dict[str, ActivationSpec] = {}  # the text names a job's rows and substreams
    for i, text in enumerate(acts):
        try:
            spec = parse_activation(str(text))
        except ConfigError as exc:
            raise ConfigError(f"activations[{i}] = {text!r}: {exc}") from None
        canonical = format_activation(spec)
        if canonical in specs:
            raise ConfigError(f"activations[{i}] = {text!r}: encodes as {canonical!r}, "
                              f"like activations[{list(specs).index(canonical)}]")
        specs[canonical] = spec
    arch = raw.get("architecture")
    _require(isinstance(arch, list) and len(arch) >= 2
             and all(_is_int(w) and w >= 1 for w in arch),
             "architecture must be a list of >= 2 positive layer widths")
    # only an absent, null or empty section means the defaults
    written = {name: stand_in if raw.get(name) in (None, {}) else raw[name]
               for name, stand_in in (("optimizer", {k: _OPTIMIZER[k] for k in ("kind", "lr")}),
                                      ("dataset", {}))}
    optimizer = _section(written["optimizer"], "optimizer", _OPTIMIZER)
    _require(optimizer["kind"] in ("adam", "sgd"), "optimizer.kind must be adam or sgd")
    # Kingma & Ba, Alg. 1: a positive step size and decay rates in [0, 1)
    _require(optimizer["lr"] > 0, f"optimizer.lr must be > 0, got {optimizer['lr']!r}")
    for key in ("momentum", "beta1", "beta2"):
        _require(0 <= optimizer[key] < 1,
                 f"optimizer.{key} must be in [0, 1), got {optimizer[key]!r}")
    dataset = _section(written["dataset"], "dataset", _STUDIES[experiment].dataset)
    top = dict(experiment=experiment, seed=_scalar(raw, "seed", 0, least=0),
               architecture=list(arch), epochs=_scalar(raw, "epochs", 100),
               batch_size=_scalar(raw, "batch_size", 32),
               repetitions=_scalar(raw, "repetitions", 1))
    # the digest hashes activations, optimizer and dataset as written, so
    # spelling out a default changes a config's identity and resolving it does not
    blob = json.dumps({**top, **written, "activations": acts}, sort_keys=True, default=str)
    return ExperimentConfig(
        **top, activations=specs, optimizer=optimizer, dataset=dataset,
        output_dir=_scalar(raw, "output_dir", "out"),
        digest=hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16])


class _Loader(yaml.SafeLoader):
    """safe_load's loader, but a mapping that repeats a key is an error, not
    its last value (a `<<` merge key is no key of its own), and so is a value
    that its explicit tag cannot read, such as `!!int abc`."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (ValueError, LookupError, AttributeError):  # PyYAML's scalar readers raise these
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot read {node.value!r} as {node.tag}", node.start_mark) from None

    def construct_mapping(self, node, deep=False):
        lines = {}
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in lines:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"repeated key {key!r} (first on line {lines[key]})",
                        key_node.start_mark)
                lines[key] = key_node.start_mark.line + 1
        return super().construct_mapping(node, deep)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    try:
        raw = yaml.load(text, Loader=_Loader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        problem = ", ".join(part for part in (exc.context, exc.problem) if part)
        raise ConfigError(f"{path}:{mark.line + 1}: not valid YAML: {problem}") from None
    except yaml.YAMLError as exc:  # a ReaderError has no mark
        raise ConfigError(f"{path}: not valid YAML: {str(exc).splitlines()[0]}") from None
    try:
        return config_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{_where(path, text, exc)}: {exc}") from None


def _where(path, text: str, exc: ConfigError) -> str:
    """`path`, with the line of the activations entry that `exc` names, if any."""
    m = re.match(r"activations\[(\d+)\]", str(exc))
    if m:
        for key, value in yaml.compose(text).value:
            if key.value == "activations":
                return f"{path}:{value.value[int(m.group(1))].start_mark.line + 1}"
    return str(path)


# ---------------------------------------------------------------------------
# CSV output.
# ---------------------------------------------------------------------------

def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def _write_csv(path: Path, cfg: ExperimentConfig, columns, rows):
    """Write the version, config digest and seed lines, `columns` and `rows` to `path`."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(f"# wendnet v{__version__}\n")
        f.write(f"# config_digest={cfg.digest}\n")
        f.write(f"# seed={cfg.seed}\n")
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)


def _params_blob(params: dict[str, float]) -> str:
    return "|".join(f"{k}={v:.17g}" for k, v in sorted(params.items()))


def _metric_rows(cfg: ExperimentConfig, results: list[tuple]):
    for act_text, runs, _ in results:
        for rep, records in enumerate(runs):
            for rec in records:
                yield [cfg.experiment, act_text, rep, rec.epoch,
                       _fmt(rec.train_loss), _fmt(rec.test_loss), _fmt(rec.test_accuracy),
                       _fmt(rec.seconds), _params_blob(rec.activation_params), rec.status]


def _stacks(cfg: ExperimentConfig) -> list[list[str]]:
    """The activation texts of `cfg`, in config order, packed into stacks
    while a stack's dense parameters, over all its replicas, fit one Adam
    block: past that, a larger stack costs memory and saves little."""
    widths = cfg.architecture
    per_activation = cfg.repetitions * sum((a + 1) * b for a, b in zip(widths, widths[1:]))
    stacks: list[list[str]] = []
    for text in cfg.activations:
        if stacks and (len(stacks[-1]) + 1) * per_activation <= Adam._BLOCK:
            stacks[-1].append(text)
        else:
            stacks.append([text])
    return stacks


def _train_stack(cfg: ExperimentConfig, texts: list[str], data: tuple, loss_kind: str,
                 grid: np.ndarray | None) -> list[tuple]:
    """Train every repetition of the activations `texts` as one stack on
    `data`, the study's (x_train, y_train, x_test, y_test), its replicas in
    order of activation, then repetition; repetition r of an activation
    draws only from its own substreams.  Returns, per activation, its text,
    each repetition's epoch records, and its prediction: the first
    repetition's net output on `grid` (all NaN after a divergence), or None
    without a grid."""
    jobs = [(text, rep) for text in texts for rep in range(cfg.repetitions)]
    specs = [cfg.activations[text] for text, _ in jobs]
    # one spec when the stack runs one activation: perfbench's job label reads its kind
    net = build_mlp(cfg.architecture, specs if len(texts) > 1 else specs[0],
                    [substream(cfg.seed, "net", text, rep) for text, rep in jobs])
    opt = cfg.optimizer
    if opt["kind"] == "sgd":
        optimizer = SGD(net, opt["lr"], opt["momentum"])
    else:
        optimizer = Adam(net, opt["lr"], opt["beta1"], opt["beta2"])
    x_train, y_train, x_test, y_test = data
    records = train(
        net, x_train, y_train, loss_kind, optimizer,
        epochs=cfg.epochs, batch_size=cfg.batch_size,
        rngs=[substream(cfg.seed, "train", text, rep) for text, rep in jobs],
        x_test=x_test, y_test=y_test)
    n = cfg.repetitions
    predictions = [None] * len(texts)
    if grid is not None:
        ok = [recs[-1].status == "ok" for recs in records]
        if any(ok):
            with quiet_errstate():  # as in train: a kind's masked-out branch may warn
                grid_out = net.forward(grid)
        # each activation's first repetition, at its place among the replicas left
        predictions = [grid_out[sum(ok[:i]), :, 0] if ok[i] else np.full(len(grid), np.nan)
                       for i in range(0, len(jobs), n)]
    return [(text, records[i * n:(i + 1) * n], predictions[i]) for i, text in enumerate(texts)]


def _completed(runs: list[list[EpochRecord]]) -> list[EpochRecord]:
    """Final records of the repetitions that ended with status ok."""
    return [records[-1] for records in runs if records[-1].status == "ok"]


def _mean_std(vals):
    """Mean and sample std of `vals`.  One that overflows though every value
    is finite is taken on vals / max|vals| and scaled back."""
    if not vals:
        return None, None
    v = np.asarray(vals, dtype=np.float64)
    scale = np.max(np.abs(v))  # finite just when every value is
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for stat in (np.mean, lambda a: np.std(a, ddof=1) if len(a) > 1 else 0.0):
            s = stat(v)
            if not np.isfinite(s) and np.isfinite(scale):
                s = scale * stat(v / scale)
            out.append(float(s))
    return tuple(out)


# ---------------------------------------------------------------------------
# The studies' steps: each makes its data, or its own table from the results.
# ---------------------------------------------------------------------------

def _split(cfg: ExperimentConfig, xy: tuple) -> tuple:
    return split(*xy, cfg.dataset["test_fraction"], substream(cfg.seed, "split"))


def _sine_data(cfg: ExperimentConfig) -> tuple:
    """Noisy sine samples, split, and the dense prediction grid."""
    dp = cfg.dataset
    lo, hi = dp["x_lo"], dp["x_hi"]
    xy = sample_sine(dp["n"], (lo, hi), dp["noise_sd"], substream(cfg.seed, "data"))
    return _split(cfg, xy), np.linspace(lo, hi, dp["grid_points"])[:, None]


def _sine_table(cfg: ExperimentConfig, results: list[tuple], grid: np.ndarray) -> tuple:
    """x, sin x and one prediction column per activation, for external plotting."""
    rows = ([_fmt(float(v)) for v in (x, np.sin(x), *(pred[i] for *_, pred in results))]
            for i, x in enumerate(grid[:, 0]))
    return ["x", "sin_x"] + [f"pred_{text}" for text, *_ in results], rows


def _moons_data(cfg: ExperimentConfig) -> tuple:
    dp = cfg.dataset
    return _split(cfg, make_moons(dp["n"], dp["noise_sd"], substream(cfg.seed, "data"))), None


def _circles_data(cfg: ExperimentConfig) -> tuple:
    dp = cfg.dataset
    xy = make_circles(dp["n"], dp["noise_sd"], dp["factor"], substream(cfg.seed, "data"))
    return _split(cfg, xy), None


def _summary_table(cfg: ExperimentConfig, results: list[tuple], grid: None) -> tuple:
    """Per activation, the mean and sample std over its completed repetitions."""
    rows = []
    for act_text, runs, _ in results:
        finals = _completed(runs)
        secs = [r.seconds for records in runs for r in records]
        am, asd = _mean_std([r.test_accuracy for r in finals])
        lm, lsd = _mean_std([r.test_loss for r in finals])
        rows.append([act_text, len(finals), _fmt(am), _fmt(asd), _fmt(lm), _fmt(lsd),
                     _fmt(float(np.mean(secs)) if secs else None)])
    return ["activation", "completed_repetitions", "test_accuracy_mean", "test_accuracy_std",
            "test_loss_mean", "test_loss_std", "mean_epoch_seconds"], rows


def _table_ordered(specs: dict[str, ActivationSpec]) -> list[str]:
    """Sort the activation encodings of `specs` into the comparison table's
    row order; kinds outside the table keep their config order at the end."""
    order = {k: i for i, k in enumerate(TABLE_ORDER)}
    return sorted(specs, key=lambda text: order.get(specs[text].kind, len(TABLE_ORDER)))


def _idx_data(cfg: ExperimentConfig) -> tuple:
    """Stratified subsets of the IDX files, as stored uint8 pixels: train scales each batch."""
    dp = cfg.dataset
    for key in _IDX_FILES:
        _require(Path(dp[key]).is_file(), f"dataset.{key}: no such file {dp[key]!r}")
    data = []
    for part in ("train", "test"):
        images, labels = load_idx(dp[f"{part}_images"], dp[f"{part}_labels"])
        data += subsample(images, labels, dp[f"n_{part}"], substream(cfg.seed, "subsample", part))
    return tuple(data), None


def _accuracy_table(cfg: ExperimentConfig, results: list[tuple], grid: None) -> tuple:
    """Each activation's mean final accuracy, in the comparison study's row order."""
    accs = {act_text: [r.test_accuracy for r in _completed(runs)]
            for act_text, runs, _ in results}
    rows = ([text, _fmt(float(np.mean(accs[text])) if accs[text] else None)]
            for text in _table_ordered(cfg.activations))
    return ["activation", "test_accuracy"], rows


# ---------------------------------------------------------------------------
# The experiments and their starter configs.
# ---------------------------------------------------------------------------

_DEFAULT_EWEND = "ewend({})".format(",".join(  # every default but the "|"-set, as written
    f"{k}={v}" for k, v in KINDS["ewend"].defaults.items() if not isinstance(v, tuple)))


@dataclass(frozen=True)
class _Study:
    """One experiment: its dataset table, the steps `run_experiment` takes
    for it, and the values its starter config sets itself."""

    dataset: dict  # the dataset section's keys and defaults, in starter order
    # cfg -> ((x_train, y_train, x_test, y_test), the sine grid or None)
    data: Callable[[ExperimentConfig], tuple]
    loss: str
    own: str  # the study's own CSV, beside metrics.csv
    # (cfg, one result per activation, grid) -> (columns, rows) of the own CSV
    table: Callable[[ExperimentConfig, list[tuple], np.ndarray | None], tuple]
    about: tuple[str, ...]        # header comment lines
    activations: tuple[str, ...]  # `ewend` is written as _DEFAULT_EWEND
    architecture: tuple[int, ...]
    epochs: int
    batch_size: int
    repetitions: int
    lr: float


_MOONS = _Study({"n": 1000, "noise_sd": 0.2, "test_fraction": 0.3},
                _moons_data, "xent", "summary.csv", _summary_table,
                about=("two-moons binary classification",),
                activations=("relu", "tanh", "ewend"), architecture=(2, 16, 16, 2),
                epochs=200, batch_size=32, repetitions=3, lr=0.005)
_MNIST = _Study({**dict.fromkeys(_IDX_FILES), "n_train": 10000, "n_test": 2000},  # paths required
                _idx_data, "xent", "accuracy_table.csv", _accuracy_table,
                about=("desk-scale MNIST activation study.",
                       "Point the dataset paths at pre-fetched IDX files (see README for sources);",
                       "no download is attempted."),
                activations=TABLE_ORDER, architecture=(784, 256, 10),
                epochs=5, batch_size=64, repetitions=1, lr=0.001)
_STUDIES = {
    "sine": _Study(
        {"n": 256, "x_lo": -math.pi, "x_hi": math.pi, "noise_sd": 0.05,
         "test_fraction": 0.3, "grid_points": 201},
        _sine_data, "mse", "predictions.csv", _sine_table,
        about=("sine-wave regression",
               "Three fully connected layers; hidden layers use the activation under test."),
        activations=("tanh", "ewend", "relu", "sigmoid"), architecture=(1, 64, 64, 1),
        epochs=300, batch_size=32, repetitions=1, lr=0.005),
    "moons": _MOONS,
    # keys in starter-config order: factor before test_fraction
    "circles": replace(_MOONS, dataset={"n": 1000, "noise_sd": 0.1, "factor": 0.5,
                                        "test_fraction": 0.3},
                       data=_circles_data, about=("concentric-circles classification",)),
    "mnist": _MNIST,
    "fashion": _MNIST,
}
EXPERIMENTS = tuple(_STUDIES)


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Run the study of `cfg` in this order: make its data; make the output
    directory and remove metrics.csv and the study's own CSV of an earlier
    run; train every stack of `_stacks(cfg)` (data that do not fit the
    architecture raise ShapeError in the first, before any update); write
    metrics.csv, in config order, then the own CSV.  Returns both paths.
    So a study that fails while making its data touches no file."""
    study = _STUDIES[cfg.experiment]
    data, grid = study.data(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "metrics.csv", out / study.own]
    for path in paths:
        path.unlink(missing_ok=True)
    results = [result for texts in _stacks(cfg)
               for result in _train_stack(cfg, texts, data, study.loss, grid)]
    _write_csv(paths[0], cfg, METRIC_COLUMNS, _metric_rows(cfg, results))
    _write_csv(paths[1], cfg, *study.table(cfg, results, grid))
    return paths


def default_config_text(experiment: str) -> str:
    """The documented starter config of `experiment`, with every dataset
    default written out."""
    _require(experiment in EXPERIMENTS, f"unknown experiment {experiment!r}")
    study = _STUDIES[experiment]
    first, *rest = study.about
    lines = [f"# wendnet experiment config (schema v1): {first}",
             *(f"# {line}" for line in rest),
             "schema_version: 1",
             f"experiment: {experiment}",
             "seed: 7",
             "activations:",
             *(f"  - {_DEFAULT_EWEND if kind == 'ewend' else kind}"
               for kind in study.activations),
             f"architecture: {list(study.architecture)}",
             f"epochs: {study.epochs}",
             f"batch_size: {study.batch_size}",
             f"repetitions: {study.repetitions}",
             f"optimizer: {{kind: {_OPTIMIZER['kind']}, lr: {study.lr}}}",
             f"output_dir: out/{experiment}",
             "dataset:"]
    for key, default in study.dataset.items():
        value = f"data/{experiment}/{_IDX_FILES[key]}" if default is None else default
        lines.append(f"  {key}: {value}")
    return "\n".join(lines) + "\n"
