"""Benchmark harness: config parsing, CSV output, determinism, and the CLI."""

import csv
import hashlib
import io
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wendnet import bench
from wendnet.activations import ConfigError, parse_activation
from wendnet.bench import (
    _OPTIMIZERS,
    _STUDIES,
    EXPERIMENTS,
    config_from_dict,
    default_config_text,
    load_config,
    run_experiment,
    _table_ordered,
)
from wendnet.cli import main
from wendnet.datasets import write_idx_images, write_idx_labels
from wendnet.network import Adam


def _read_csv(path):
    with open(path) as f:
        comments = []
        rows = []
        for line in f:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    return comments, list(csv.reader(rows))


def _small_sine_cfg(tmp_path, **overrides):
    raw = yaml.safe_load(default_config_text("sine"))
    raw["epochs"] = 3
    raw["architecture"] = [1, 8, 8, 1]
    raw["dataset"]["n"] = 40
    raw["activations"] = ["tanh"]
    raw["output_dir"] = str(tmp_path / "out")
    raw.update(overrides)
    return config_from_dict(raw)


def test_default_configs_parse():
    for exp in EXPERIMENTS:
        cfg = config_from_dict(yaml.safe_load(default_config_text(exp)))
        assert cfg.experiment == exp


def test_config_accepts_exponent_learning_rate():
    # YAML 1.1 reads 1e-3 (no dot) as a string; it has always meant 0.001
    raw = yaml.safe_load(default_config_text("sine").replace("lr: 0.005", "lr: 1e-3"))
    assert raw["optimizer"]["lr"] == "1e-3"
    assert config_from_dict(raw).optimizer["lr"] == 1e-3


@pytest.mark.parametrize("experiment, digest", [
    ("sine", "555ede8fc1119043"), ("moons", "e87048fc7e243f9a"),
    ("circles", "5ee4af3f30e18291"), ("mnist", "d1a513fd0d451b00"),
    ("fashion", "c6783bc78ea9da12"),
])
def test_template_digests_are_pinned(experiment, digest):
    # the digest heads every output CSV; resolving defaults must not move it
    assert config_from_dict(yaml.safe_load(default_config_text(experiment))).digest == digest


@pytest.mark.parametrize("experiment, sha256", [
    ("sine", "a15473cd23dfaa225ae485ff02c643d7ac30b00681fed55dfe09cce54f3f4315"),
    ("moons", "86d4b157a0f9a967310df89f3448d32418d880bccf4983377c72089fbbed47ca"),
    ("circles", "07fa87866a864d518e8dc1d1b1aecc7f161ed80794c61c9fb15d919f0bb21c49"),
    ("mnist", "272a52008a547b516b333a63b3fd9b6a28d98b85f5df993badc71120595eb77b"),
    ("fashion", "31eb2ae12257e8f71cb7a6a29ec3106fb9530eabf855e5388d0ff820fce0a7cf"),
])
def test_starter_config_text_is_pinned(experiment, sha256):
    # users keep emitted starters, and perfbench's toy-moons study is built
    # from one: the text must stay byte for byte what it was
    text = default_config_text(experiment)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


def test_starter_config_writes_every_dataset_default():
    # in table order; the IDX paths, which have no default, point at data/
    for experiment in EXPERIMENTS:
        dataset = yaml.safe_load(default_config_text(experiment))["dataset"]
        assert list(dataset) == list(_STUDIES[experiment].dataset)
        for key, default in _STUDIES[experiment].dataset.items():
            if default is None:
                assert dataset[key].startswith(f"data/{experiment}/")
            else:
                assert dataset[key] == default


def test_null_and_empty_sections_mean_the_defaults():
    raw = yaml.safe_load(default_config_text("moons"))
    raw.update(dataset=None, optimizer={})
    cfg = config_from_dict(raw)
    assert cfg.dataset == _STUDIES["moons"].dataset
    assert cfg.optimizer == {"kind": "adam", **_OPTIMIZERS["adam"][1]}
    assert cfg.digest == "e6e7efe97349e4bf"


def test_omitted_defaults_train_like_spelled_out_ones(tmp_path):
    raw = yaml.safe_load(default_config_text("moons"))
    raw.update(epochs=2, repetitions=1, activations=["relu", "ewend"])
    spelled = dict(raw, optimizer={"kind": "adam", **_OPTIMIZERS["adam"][1], "lr": 0.005},
                   dataset={"n": 1000, "noise_sd": 0.2, "test_fraction": 0.3},
                   output_dir=str(tmp_path / "spelled"))
    del raw["dataset"]
    omitted = dict(raw, optimizer={"lr": 0.005}, output_dir=str(tmp_path / "omitted"))
    cfg = config_from_dict(omitted)
    assert cfg.dataset == _STUDIES["moons"].dataset
    assert cfg.optimizer == {"kind": "adam", **_OPTIMIZERS["adam"][1], "lr": 0.005}
    for path_a, path_b in zip(run_experiment(config_from_dict(spelled)),
                              run_experiment(cfg)):
        assert path_a.name == path_b.name
        assert _strip_timing(_read_csv(path_a)[1]) == _strip_timing(_read_csv(path_b)[1])


def test_unknown_activation_error_names_token_and_line(tmp_path):
    text = default_config_text("sine").replace("- relu", "- blorp")
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    lineno = next(i for i, l in enumerate(text.splitlines(), 1) if "blorp" in l)
    with pytest.raises(ConfigError, match=rf"cfg\.yaml:{lineno}.*blorp"):
        load_config(path)


@pytest.mark.parametrize("activations, line", [
    ("activations:\n  - relu  # relu again below\n  - tanh\n  - relu\n", 8),
    ("activations: [relu, tanh,\n  relu]  # relu\n", 6),
], ids=["block", "flow"])
def test_activation_error_points_at_the_entry_it_names(tmp_path, activations, line):
    # 'relu' is also in a comment and in activations[0]; the error is about activations[2]
    text = ("# relu is the baseline\nschema_version: 1\nexperiment: moons\n# relu\n"
            + activations + "architecture: [2, 8, 2]\n")
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"^.*cfg\.yaml:{line}: activations\[2\] = 'relu'"):
        load_config(path)


def test_sine_metrics_row_count(tmp_path):
    cfg = _small_sine_cfg(tmp_path)
    paths = run_experiment(cfg)
    comments, rows = _read_csv(paths[0])
    assert rows[0][0] == "experiment"
    assert len(rows) == 1 + cfg.epochs  # header plus one row per epoch
    assert any(c.startswith("# config_digest=") for c in comments)
    assert any(c.startswith("# seed=") for c in comments)
    assert any(c.startswith("# wendnet v") for c in comments)


def test_sine_predictions_columns(tmp_path):
    cfg = _small_sine_cfg(tmp_path, activations=["tanh", "relu"])
    paths = run_experiment(cfg)
    _, rows = _read_csv(paths[1])
    assert rows[0] == ["x", "sin_x", "pred_tanh", "pred_relu"]
    assert len(rows) == 1 + cfg.dataset["grid_points"]


def test_sine_predictions_come_from_the_first_repetition(tmp_path):
    # more repetitions add metrics rows but predict nothing, and a larger
    # stack leaves repetition 0's rows as they are
    once = run_experiment(_small_sine_cfg(tmp_path / "a", activations=["tanh", "relu"]))
    thrice = run_experiment(_small_sine_cfg(tmp_path / "b", activations=["tanh", "relu"],
                                            repetitions=3))
    assert _read_csv(once[1])[1] == _read_csv(thrice[1])[1]
    header, *rows = _strip_timing(_read_csv(thrice[0])[1])
    assert len(rows) == 2 * 3 * 3
    assert [header, *(row for row in rows if row[2] == "0")] == (
        _strip_timing(_read_csv(once[0])[1]))


def _strip_timing(rows):
    keep = [i for i, c in enumerate(rows[0])
            if c not in ("epoch_wall_seconds", "mean_epoch_seconds")]
    return [[r[i] for i in keep] for r in rows]


def test_rerun_is_byte_identical_excluding_timing(tmp_path):
    cfg_a = _small_sine_cfg(tmp_path / "a")
    cfg_b = _small_sine_cfg(tmp_path / "b")
    pa = run_experiment(cfg_a)
    pb = run_experiment(cfg_b)
    for fa, fb in zip(pa, pb):
        ca, ra = _read_csv(fa)
        cb, rb = _read_csv(fb)
        assert ca == cb
        assert _strip_timing(ra) == _strip_timing(rb)


def test_toy_summary_row_count(tmp_path):
    raw = yaml.safe_load(default_config_text("moons"))
    raw["epochs"] = 3
    raw["repetitions"] = 2
    raw["dataset"]["n"] = 60
    raw["activations"] = ["relu", "tanh"]
    raw["output_dir"] = str(tmp_path / "out")
    cfg = config_from_dict(raw)
    paths = run_experiment(cfg)
    _, rows = _read_csv(paths[1])
    assert len(rows) == 1 + 2  # header + one summary row per activation
    _, mrows = _read_csv(paths[0])
    assert len(mrows) == 1 + 2 * 2 * 3  # activations x repetitions x epochs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_activation_does_not_corrupt_others(tmp_path):
    cfg = _small_sine_cfg(tmp_path, activations=["tanh", "relu"],
                          optimizer={"kind": "sgd", "lr": 1e12})
    # both runs diverge under an absurd lr but every activation still appears
    paths = run_experiment(cfg)
    _, rows = _read_csv(paths[0])
    acts = {r[1] for r in rows[1:]}
    assert acts == {"tanh", "relu"}
    statuses = {r[1]: r[9] for r in rows[1:]}
    assert set(statuses.values()) <= {"ok", "diverged"}


def test_table_order():
    texts = ["swish", "ewend(alpha=1,k=4,lambda=0.1,beta=1,eps=0.01,mode=elem)",
             "gelu", "relu", "srelu"]
    ordered = _table_ordered({text: parse_activation(text) for text in texts})
    assert ordered[0] == "relu"
    assert ordered[1] == "swish"
    assert ordered[2] == "srelu"
    assert ordered[3].startswith("ewend")
    assert ordered[4] == "gelu"  # not a table row, keeps config order at the end


def test_activations_with_one_encoding_are_a_config_error():
    # they would share a label, a pred_ column and the net/train substreams
    raw = yaml.safe_load(default_config_text("moons"))
    raw["activations"] = ["relu", "lrelu(slope=0.01)", "tanh", "lrelu(slope=0.0100000001)"]
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert str(exc.value) == ("activations[3] = 'lrelu(slope=0.0100000001)': encodes as "
                              "'lrelu(slope=0.01)', like activations[1]")


def test_config_keeps_each_spec_under_its_canonical_text():
    raw = yaml.safe_load(default_config_text("moons"))
    raw["activations"] = [" RELU ", "lrelu(slope=0.02)", "ewend(k=2,mode=channel)",
                          "ewend(train=)"]
    cfg = config_from_dict(raw)
    assert list(cfg.activations) == [
        "relu", "lrelu(slope=0.02)",
        "ewend(alpha=1,k=2,lambda=0.1,beta=1,eps=0.01,mode=channel)",
        "ewend(alpha=1,k=4,lambda=0.1,beta=1,eps=0.01,mode=elem,train=)"]
    assert list(cfg.activations.values()) == [parse_activation(t) for t in raw["activations"]]


# --- CLI --------------------------------------------------------------------

LIST_ACTIVATIONS = """\
wc0        classical Wendland C0, no parameters
wc2        classical Wendland C2, no parameters
wc4        classical Wendland C4, no parameters
ewend      alpha=1 k=4 lambda=0.1 beta=1 eps=0.01 mode=elem|channel train=alpha[|lambda|beta|eps]  (trainable: per train mask)
relu       no parameters
relu6      no parameters
lrelu      slope=0.01
prelu      slope=0.25  (trainable: slope)
rrelu      lo=0.125 hi=0.333333
elu        alpha=1
celu       alpha=1
swish      no parameters
srelu      tl=-1 al=0.1 tr=1 ar=0.1
sinlu      a=1 b=1  (trainable: a, b)
frelu      alpha=1  (trainable: alpha)
sigmoid    no parameters
tanh       no parameters
gelu       no parameters
"""


def test_cli_list_activations():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["list-activations"])
    assert code == 0
    assert out.getvalue() == LIST_ACTIVATIONS


def test_cli_emit_and_run(tmp_path):
    cfg_path = tmp_path / "sine.yaml"
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["emit-default-config", "sine", "-o", str(cfg_path)]) == 0
    text = cfg_path.read_text()
    assert text.startswith("#")  # documented template

    raw = yaml.safe_load(text)
    raw["epochs"] = 2
    raw["dataset"]["n"] = 30
    raw["architecture"] = [1, 4, 1]
    raw["activations"] = ["tanh"]
    raw["output_dir"] = str(tmp_path / "out")
    cfg_path.write_text(yaml.safe_dump(raw))
    with redirect_stdout(io.StringIO()):
        assert main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "metrics.csv").is_file()


def test_cli_run_missing_config():
    with redirect_stderr(io.StringIO()):
        assert main(["run", "/no/such/file.yaml"]) == 2


def test_cli_run_bad_activation(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(default_config_text("sine").replace("- relu", "- blorp"))
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["run", str(path)]) == 2
    assert "blorp" in err.getvalue()


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
        main(["frobnicate"])
    assert exc.value.code == 1


_ABSENT = object()  # a dataset override that deletes its key
_BAD_EWEND = ("ewend(k=2.5)", "ewend(k=0)", "ewend(k=9)", "ewend(alpha=0)", "ewend(beta=-1)",
              "ewend(lambda=-0.1)", "ewend(eps=-1e-9)", "ewend(mode=nope)", "ewend(train=lam)",
              "ewend(train=mode)", "ewend(gamma=1)")


def _cli_config(tmp_path, experiment, override) -> Path:
    """A one-epoch `tanh` starter for `experiment` with `override` applied,
    written to tmp_path/config.yaml; its output_dir is tmp_path/out."""
    raw = yaml.safe_load(default_config_text(experiment))
    raw.update(epochs=1, activations=["tanh"], output_dir=str(tmp_path / "out"))
    if experiment == "mnist":
        labels = np.tile(np.arange(10), 6).astype(np.uint8)
        for part in ("train", "test"):
            write_idx_images(tmp_path / f"{part}-images",
                             np.zeros((len(labels), 28, 28), dtype=np.uint8))
            write_idx_labels(tmp_path / f"{part}-labels", labels)
            raw["dataset"][f"{part}_images"] = str(tmp_path / f"{part}-images")
            raw["dataset"][f"{part}_labels"] = str(tmp_path / f"{part}-labels")
        raw["dataset"].update(n_train=40, n_test=20)
    else:
        raw["dataset"]["n"] = 20
    for key, value in override.items():
        if isinstance(value, dict) and key == "dataset":
            raw["dataset"].update(value)
            raw["dataset"] = {k: v for k, v in raw["dataset"].items() if v is not _ABSENT}
        else:
            raw[key] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def _run_fails(path) -> str:
    """The stderr of `wendnet run path`, which must exit 2."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        assert main(["run", str(path)]) == 2
    return err.getvalue()


@pytest.mark.parametrize("experiment, override", [
    ("sine", {"epochs": "abc"}),
    ("sine", {"seed": -1}),
    ("sine", {"optimizer": {"kind": "adam", "lr": "fast"}}),
    ("sine", {"architecture": [1, True, 1]}),
    ("sine", {"dataset": {"test_fraction": 1.0}}),
    ("sine", {"dataset": {"test_fraction": 1.5}}),
    ("sine", {"dataset": {"test_fraction": 0}}),
    ("sine", {"dataset": {"test_fraction": "abc"}}),
    ("sine", {"dataset": {"n": "abc"}}),
    ("sine", {"dataset": {"n": 1.5}}),
    ("sine", {"dataset": {"n": True}}),
    ("sine", {"dataset": {"noise_sd": [1]}}),
    ("sine", {"dataset": {"grid_points": "abc"}}),
    ("sine", {"dataset": [1]}),
    ("moons", {"dataset": {"test_fraction": 0}}),
    ("circles", {"dataset": {"factor": "x"}}),
    ("mnist", {"dataset": {"n_train": "abc"}}),
    ("mnist", {"dataset": {"n_train": 2.5}}),
    ("mnist", {"dataset": {"n_test": 0}}),
    ("mnist", {"dataset": {"train_images": 5}}),
    ("moons", {"dataset": {"noise_sd": -0.2}}),
    ("circles", {"dataset": {"noise_sd": -0.2}}),
    ("moons", {"dataset": {"nosie_sd": 0.3}}),
    ("sine", {"dataset": {"factor": 0.5}}),
    ("mnist", {"dataset": {"test_fraction": 0.3}}),
    ("moons", {"optimizer": {"kind": "adam", "lrr": 0.5}}),
    ("sine", {"architecture": [2, 8, 1]}),
    ("sine", {"architecture": [1, 8, 2]}),
    ("moons", {"architecture": [2, 8, 1]}),
    ("mnist", {"architecture": [784, 16, 5]}),
    ("moons", {"epochs": 0}),
    ("moons", {"optimizer": {"kind": "adam", "lr": 0}}),
    ("moons", {"optimizer": {"kind": "adam", "lr": -0.005}}),
    ("moons", {"optimizer": {"kind": "adam", "lr": 0.005, "beta1": 1.0}}),
    ("moons", {"optimizer": {"kind": "adam", "lr": 0.005, "beta2": 1.0}}),
    ("moons", {"optimizer": {"kind": "sgd", "lr": 0.05, "momentum": -0.1}}),
    ("moons", {"optimizer": {"kind": "sgd", "lr": 0.05, "momentum": 1.0}}),
    ("mnist", {"dataset": {"train_images": _ABSENT}}),
    ("moons", {"dataset": 0}),
    ("moons", {"dataset": []}),
    ("moons", {"dataset": ""}),
    ("moons", {"optimizer": []}),
    ("moons", {"optimizer": False}),
    ("moons", {"output_dir": None}),
    ("moons", {"output_dir": 5}),
    ("moons", {"schema_version": True}),
    ("moons", {"schema_version": 1.0}),
    ("moons", {"activations": ["ewend(alpha=nan)"]}),
    ("moons", {"activations": ["ewend(alpha=1e309)"]}),
    ("moons", {"activations": ["ewend(k=inf)"]}),
    ("moons", {"activations": ["lrelu(slope=inf)"]}),
    ("moons", {"activations": ["prelu(slope=nan)"]}),
    ("moons", {"activations": ["srelu(tl=inf)"]}),
    ("moons", {"activations": ["srelu(tl=1,tr=-1)"]}),
    ("moons", {"activations": ["relu", "ewend(eps=nan)"]}),
    ("sine", {"experiment": ["sine"]}),
    ("sine", {"experiment": {"a": 1}}),
    ("sine", {"dataset": {"x_lo": -1e308, "x_hi": 1e308}}),
    ("moons", {"optimizer": {"kind": "adam", "lr": 10 ** 400}}),
    ("sine", {"dataset": {"x_hi": 10 ** 400}}),
    ("moons", {"activations": ["relu", "relu"]}),
    ("sine", {"activations": ["lrelu(slope=0.01)", "tanh", "lrelu(slope=0.0100000001)"]}),
    ("moons", {"dataset": {"n": 1}}),
    ("circles", {"dataset": {"n": 1}}),
    ("moons", {"activations": ["relu", "lrelu(slope=1,slope=2)"]}),
    ("moons", {"activations": ["ewend(alpha=2,ALPHA=3)"]}),
    ("sine", {"experiment": "nope"}),
    ("sine", {"repetitions": 0}),
    ("sine", {"repetitions": None}),
    ("sine", {"activations": []}),
    ("sine", {"activations": ["blorp"]}),
    ("sine", {"architecture": [4]}),
    ("sine", {"surprise_key": 1}),
    ("sine", {1: 2, "surprise_key": 1}),
    ("sine", {"epochs": 2.5}),
    ("sine", {"seed": True}),
    ("sine", {"batch_size": "32"}),
    ("sine", {"optimizer": "adam"}),
    ("sine", {"optimizer": {"kind": "lbfgs"}}),
    ("sine", {"optimizer": {"kind": ["adam"]}}),
    ("sine", {"optimizer": {"kind": "adam", "lr": True}}),
    ("sine", {"optimizer": {"kind": "sgd", "lr": 0.1, "momentum": float("nan")}}),
    ("sine", {"optimizer": {"kind": "adam", "beta1": None}}),
    ("sine", {"optimizer": {"kind": "adam", "beta2": [0.999]}}),
    ("moons", {"optimizer": {"kind": "adam", "momentum": 0.9}}),
    ("moons", {"optimizer": {"kind": "sgd", "beta1": 0.5}}),
    *[("moons", {"activations": ["relu", "tanh", text]}) for text in _BAD_EWEND],
], ids=["epochs", "seed", "lr", "architecture", "test_fraction-1", "test_fraction-1.5",
        "test_fraction-0", "test_fraction-abc", "n-abc", "n-1.5", "n-true",
        "noise_sd-list", "grid_points-abc", "dataset-list", "moons-test_fraction-0",
        "circles-factor", "mnist-n_train-abc", "mnist-n_train-2.5", "mnist-n_test-0",
        "mnist-path-int", "moons-noise_sd-negative", "circles-noise_sd-negative",
        "moons-misspelt-key", "sine-circles-key", "mnist-toy-key", "optimizer-misspelt-key",
        "sine-input-width", "sine-output-width", "moons-output-width", "mnist-output-width",
        "epochs-0", "lr-0", "lr-negative", "beta1-1", "beta2-1", "momentum-negative",
        "momentum-1", "mnist-no-train_images", "dataset-0", "dataset-empty-list",
        "dataset-empty-string", "optimizer-empty-list", "optimizer-false", "output_dir-null",
        "output_dir-int", "schema_version-true", "schema_version-float",
        "ewend-alpha-nan", "ewend-alpha-1e309", "ewend-k-inf", "lrelu-slope-inf",
        "prelu-slope-nan", "srelu-tl-inf", "srelu-crossed", "ewend-eps-nan-second",
        "experiment-list", "experiment-mapping", "sine-x-range-overflow", "lr-int-past-float",
        "x_hi-int-past-float", "activation-repeated", "activation-same-encoding",
        "moons-n-1", "circles-n-1", "lrelu-slope-repeated", "ewend-alpha-repeated-case",
        "experiment-unknown", "repetitions-0", "repetitions-null", "activations-empty",
        "activation-unknown", "architecture-one-width", "unknown-key", "int-key",
        "epochs-float", "seed-bool", "batch_size-string", "optimizer-string",
        "optimizer-kind-unknown", "optimizer-kind-list", "lr-bool", "momentum-nan",
        "beta1-null", "beta2-list", "adam-momentum", "sgd-beta1", *_BAD_EWEND])
def test_cli_run_bad_config_value_exits_2(tmp_path, experiment, override):
    path = _cli_config(tmp_path, experiment, override)
    err = _run_fails(path)
    assert len(err.splitlines()) == 1 and err.startswith("configuration error:")


@pytest.mark.parametrize("experiment, architecture, message", [
    ("sine", [2, 8, 1], "the network's first width is 2, but the data have 1 input column: "
                        "it must be 1"),
    ("sine", [1, 8, 2], "mse: prediction shape (14, 2) vs target shape (14, 1): the network's "
                        "last width is 2, but the targets have 1 column: it must be 1"),
    ("moons", [2, 8, 1], "the network's last width is 1, but the labels run up to 1: "
                         "it must be at least 2"),
    ("mnist", [784, 16, 5], "the network's last width is 5, but the labels run up to 9: "
                            "it must be at least 10"),
], ids=["sine-input-width", "sine-output-width", "moons-output-width", "mnist-output-width"])
def test_cli_misfit_architecture_fails_before_any_step(tmp_path, monkeypatch,
                                                       experiment, architecture, message):
    # the engine's shape checks decide fit: the first job stops before its
    # first update, and metrics.csv, written once every job has returned, never is
    steps = []
    monkeypatch.setattr(Adam, "step", lambda self: steps.append(self))
    path = _cli_config(tmp_path, experiment, {"architecture": architecture})
    err = _run_fails(path)
    assert len(err.splitlines()) == 1 and message in err
    assert steps == []
    assert list((tmp_path / "out").iterdir()) == []  # made before the first job


@pytest.mark.parametrize("experiment", ["sine", "moons", "mnist"])
def test_cli_output_dir_under_a_file_fails_before_any_network(tmp_path, monkeypatch,
                                                              experiment):
    built = []
    build_mlp = bench.build_mlp
    monkeypatch.setattr(bench, "build_mlp", lambda *args: built.append(args) or build_mlp(*args))
    (tmp_path / "file").write_text("")
    path = _cli_config(tmp_path, experiment, {"output_dir": str(tmp_path / "file" / "out")})
    assert len(_run_fails(path).splitlines()) == 1
    assert built == []


def test_metrics_csv_is_written_once_every_job_has_returned(tmp_path, monkeypatch):
    # stock moons is small, so its 3 activations x 3 repetitions train as one
    # stack: one build_mlp call, with one spec per replica in order of
    # activation, then repetition, made when the output directory exists and
    # is empty; a training forward takes the replicas' batches as one 2-D
    # array of R * batch_size rows, and train() gets the study's rows untiled
    from wendnet import network

    listings, built, rows, shapes = [], [], [], []
    build_mlp, train, forward = bench.build_mlp, bench.train, network.Network.forward

    def listing_build_mlp(widths, spec, rngs):
        listings.append(sorted(p.name for p in Path(cfg.output_dir).iterdir()))
        built.append(spec)
        return build_mlp(widths, spec, rngs)

    def recording_forward(net, x, training=False, rng=None):
        if training:
            shapes.append(x.shape)
        return forward(net, x, training, rng)

    monkeypatch.setattr(bench, "build_mlp", listing_build_mlp)
    monkeypatch.setattr(bench, "train",
                        lambda net, x_train, *a, **k: rows.append(len(x_train)) or train(net, x_train, *a, **k))
    monkeypatch.setattr(network.Network, "forward", recording_forward)
    raw = yaml.safe_load(default_config_text("moons"))
    raw.update(epochs=1, output_dir=str(tmp_path / "out"))
    raw["dataset"]["n"] = 100
    cfg = config_from_dict(raw)
    _, metrics = _read_csv(run_experiment(cfg)[0])
    assert listings == [[]] and rows == [70]
    assert built == [[spec for spec in cfg.activations.values() for _ in range(3)]]
    # 70 rows at batch 32: two full batches and one of 6, for 9 replicas each
    assert shapes == [(288, 2), (288, 2), (54, 2)]
    assert [(r[1], r[2]) for r in metrics[1:]] == [
        (text, str(rep)) for text in cfg.activations for rep in range(3)]


@pytest.mark.parametrize("architecture, stacks", [
    ([1, 200, 200, 1], [["tanh"], ["relu"], ["sigmoid"]]),  # 40,801 parameters a replica
    ([127, 128], [["tanh", "relu"], ["sigmoid"]]),          # 16,384: two fill one Adam block
    ([128, 128], [["tanh"], ["relu"], ["sigmoid"]]),        # 16,512
])
def test_stacks_grow_while_their_dense_parameters_fit_one_adam_block(tmp_path, architecture,
                                                                     stacks):
    cfg = _small_sine_cfg(tmp_path, architecture=architecture,
                          activations=["tanh", "relu", "sigmoid"])
    assert bench._stacks(cfg) == stacks


def test_each_activation_trains_as_one_stack_of_its_repetitions(tmp_path, monkeypatch):
    # moons at [2, 200, 200, 2] (41,202 parameters a replica) is past one
    # Adam block: one build_mlp call per activation, with its one spec; a
    # training forward takes the replicas' batches as one 2-D array of
    # R * batch_size rows, and train() gets the study's rows untiled
    from wendnet import network

    built, rows, shapes = [], [], []
    build_mlp, train, forward = bench.build_mlp, bench.train, network.Network.forward
    monkeypatch.setattr(bench, "build_mlp", lambda widths, spec, rngs:
                        built.append((spec, len(rngs))) or build_mlp(widths, spec, rngs))
    monkeypatch.setattr(bench, "train",
                        lambda net, x_train, *a, **k: rows.append(len(x_train)) or train(net, x_train, *a, **k))

    def recording_forward(net, x, training=False, rng=None):
        if training:
            shapes.append(x.shape)
        return forward(net, x, training, rng)

    monkeypatch.setattr(network.Network, "forward", recording_forward)
    raw = yaml.safe_load(default_config_text("moons"))
    raw.update(epochs=1, architecture=[2, 200, 200, 2], output_dir=str(tmp_path / "out"))
    raw["dataset"]["n"] = 100
    cfg = config_from_dict(raw)
    run_experiment(cfg)
    assert built == [(spec, 3) for spec in cfg.activations.values()] and rows == [70, 70, 70]
    # 70 rows at batch 32: two full batches and one of 6, for 3 replicas each
    assert shapes == [(96, 2), (96, 2), (18, 2)] * 3


def test_a_large_study_trains_one_stack_per_activation(tmp_path, monkeypatch):
    # each stack is built with its one spec, as before stacks were shared
    built = []
    build_mlp = bench.build_mlp
    monkeypatch.setattr(bench, "build_mlp", lambda widths, spec, rngs:
                        built.append((spec, len(rngs))) or build_mlp(widths, spec, rngs))
    cfg = _small_sine_cfg(tmp_path, architecture=[1, 200, 200, 1], activations=["tanh", "relu"],
                          repetitions=2, epochs=1)
    run_experiment(cfg)
    assert built == [(cfg.activations["tanh"], 2), (cfg.activations["relu"], 2)]


_MERGED = ["ewend(mode=channel,train=alpha|lambda|beta|eps)",
           "ewend(k=1,train=alpha|lambda|beta|eps)",
           "relu", "tanh", "rrelu", "prelu", "sinlu", "gelu", "ewend(train=)"]


def _outputs(tmp_path, experiment, activations, name, **overrides):
    """The study's CSV rows without their timing columns, by file name."""
    raw = yaml.safe_load(default_config_text(experiment))
    raw.update(epochs=4, repetitions=2, activations=activations,
               output_dir=str(tmp_path / name), **overrides)
    raw["dataset"]["n"] = 100
    tables = {}
    for path in run_experiment(config_from_dict(raw)):
        _, (header, *rows) = _read_csv(path)
        keep = [i for i, column in enumerate(header)
                if column not in ("epoch_wall_seconds", "mean_epoch_seconds")]
        tables[path.name] = [[row[i] for i in keep] for row in [header, *rows]]
    return tables


@pytest.mark.parametrize("experiment, optimizer", [
    ("moons", {"kind": "sgd", "lr": 1.5, "momentum": 0.9}),
    ("sine", {"kind": "sgd", "lr": 0.15, "momentum": 0.9}),
])
def test_each_activation_of_a_shared_stack_writes_the_rows_it_writes_alone(tmp_path, experiment,
                                                                           optimizer):
    # moons trains as one stack, sine as three; under this SGD, replicas of
    # the first activations diverge, so those after them move up their stack
    merged = _outputs(tmp_path, experiment, _MERGED, "merged", optimizer=optimizer)
    metrics = merged["metrics.csv"]
    assert {row[-1] for row in metrics[1:]} == {"ok", "diverged"}
    if experiment == "moons":  # one activation finishes 1 of its 2 repetitions
        assert "1" in {row[1] for row in merged["summary.csv"][1:]}
    for i, text in enumerate(_MERGED):
        alone = _outputs(tmp_path, experiment, [text], f"alone{i}", optimizer=optimizer)
        canonical = alone["metrics.csv"][1][1]
        assert alone["metrics.csv"][1:] == [row for row in metrics[1:] if row[1] == canonical]
        if experiment == "sine":  # x, sin x, then one prediction column per activation
            assert [row[:2] + row[2 + i:3 + i] for row in merged["predictions.csv"]] == (
                alone["predictions.csv"])
        else:
            assert alone["summary.csv"][1:] == [row for row in merged["summary.csv"][1:]
                                                if row[0] == canonical]


def test_cli_network_too_large_to_allocate_exits_2(tmp_path):
    # the first weight matrix alone, 2 x 400e9 float64, is 5.82 TiB: an
    # allocation the allocator refuses outright, never one it could grant
    raw = yaml.safe_load(default_config_text("moons"))
    raw.update(architecture=[2, 400_000_000_000, 2], epochs=1, output_dir=str(tmp_path / "out"))
    path = tmp_path / "moons.yaml"
    path.write_text(yaml.safe_dump(raw))
    err = _run_fails(path)
    assert len(err.splitlines()) == 1
    assert err.startswith("configuration error: out of memory: ")


def test_failed_study_leaves_no_csv_of_an_earlier_run(tmp_path):
    # a misfit study exits 2 before its first update; the earlier run's
    # metrics.csv and summary.csv must not pass for its output
    raw = yaml.safe_load(default_config_text("moons"))
    raw.update(epochs=1, output_dir=str(tmp_path / "out"))
    raw["dataset"]["n"] = 60
    path = tmp_path / "moons.yaml"
    path.write_text(yaml.safe_dump(raw))
    with redirect_stdout(io.StringIO()):
        assert main(["run", str(path)]) == 0
    (tmp_path / "out" / "predictions.csv").write_text("another study's\n")
    (tmp_path / "out" / "notes.txt").write_text("kept\n")
    raw["architecture"] = [2, 8, 1]
    path.write_text(yaml.safe_dump(raw))
    assert len(_run_fails(path).splitlines()) == 1
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["notes.txt", "predictions.csv"]


def test_no_wendnet_path_imports_scipy():
    # gelu's erf is the engine's own: start-up, a gelu forward and backward
    # and a gelu gradient check, in a fresh process, load no scipy module
    import os
    import subprocess
    import sys

    import wendnet

    src = str(Path(wendnet.__file__).resolve().parent.parent)
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import wendnet.cli",
        "from wendnet.activations import parse_activation",
        "from wendnet.network import build_mlp, run_gradient_check",
        "spec = parse_activation('gelu')",
        "net = build_mlp([2, 8, 2], spec, [np.random.default_rng(0)])",
        "out = net.forward(np.linspace(-3.0, 3.0, 8).reshape(4, 2), keep=True)",
        "net.backward(np.ones_like(out))",
        "assert run_gradient_check(spec, probes=5) < 1e-6",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "[]\n"


def test_a_study_writes_the_same_rows_at_any_blas_thread_count(tmp_path):
    # a threaded BLAS may sum a wide matmul in another order; the package
    # pins one thread before NumPy loads, so `python -m wendnet.cli` writes
    # the rows of OPENBLAS_NUM_THREADS=1 whatever the caller set
    import os
    import subprocess
    import sys

    import wendnet

    raw = yaml.safe_load(default_config_text("mnist"))
    _random_idx_files(tmp_path, raw, 11, train=600, test=400)
    raw.update(epochs=2, activations=["relu", "tanh"], architecture=[784, 64, 10])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(wendnet.__file__).resolve().parent.parent)
    rows = []
    for setting in ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}, {}):
        out = tmp_path / f"out-{len(rows)}"
        path = out.with_suffix(".yaml")
        path.write_text(yaml.safe_dump({**raw, "output_dir": str(out)}))
        subprocess.run([sys.executable, "-m", "wendnet.cli", "run", str(path)],
                       env={**env, **setting}, capture_output=True, check=True)
        _, metrics = _read_csv(out / "metrics.csv")
        wall = metrics[0].index("epoch_wall_seconds")
        rows.append([row[:wall] + row[wall + 1:] for row in metrics])
    assert rows[1] == rows[0] and rows[2] == rows[0]


def test_digest_tool_loads_numpy_under_the_one_thread_pin():
    # tools/digests.py hashes a 784-wide study in its own process: NumPy
    # must load after wendnet has pinned BLAS to one thread, whatever the
    # caller set, or the digest follows the caller's thread count
    import os
    import subprocess
    import sys

    tool = Path(__file__).resolve().parent.parent / "tools" / "digests.py"
    code = "\n".join([
        "import importlib.util, os, sys",
        "seen = []",
        "class Spy:",
        "    def find_spec(self, name, path=None, target=None):",
        "        if name == 'numpy' and not seen:",
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))",
        "sys.meta_path.insert(0, Spy())",
        f"spec = importlib.util.spec_from_file_location('digests', {str(tool)!r})",
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))",
        "print(seen)",
    ])
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "2"}, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "['1']\n"


def test_perfbench_probe_counts_the_rows_and_probes_of_its_hooks(tmp_path):
    # perfbench times the program from outside, by hooks on
    # Network.forward(..., training=True) with a 2-D x of R * batch rows,
    # build_mlp(widths, spec, rngs), train(x_train, ..., x_test=...), each
    # optimizer's step and run_gradient_check(spec, probes=...): a change to
    # one of them fails here rather than skewing its speed_vs_numpy
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"
    spec = importlib.util.spec_from_file_location("perfbench_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)

    def probed(hooks, argv):
        hooks.install()
        try:
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        finally:
            hooks.uninstall()
        return hooks

    raw = yaml.safe_load(default_config_text("moons"))
    raw.update(epochs=1, output_dir=str(tmp_path / "out"))
    raw["dataset"]["n"] = 100
    config = tmp_path / "moons.yaml"
    config.write_text(yaml.safe_dump(raw))
    study = probed(probe.Probe(gradcheck=False, expected_rows=(70, 30)), ["run", str(config)])
    # one stack of 3 activations x 3 repetitions; 70 training rows at batch
    # 32 are 3 steps, of 9 * 32, 9 * 32 and 9 * 6 rows
    assert (study.items, len(study.op_ms), study.row_errors) == (630, 3, [])
    assert list(study.op_jobs) == [0, 0, 0]
    checks = probed(probe.Probe(gradcheck=True), ["grad-check", "--probes", "5"])
    assert (checks.items, len(checks.op_ms)) == (18 * 5, 18)
    assert list(checks.op_jobs) == list(range(18))


def test_cli_mnist_missing_files(tmp_path):
    path = tmp_path / "mnist.yaml"
    raw = yaml.safe_load(default_config_text("mnist"))
    raw["output_dir"] = str(tmp_path / "out")
    path.write_text(yaml.safe_dump(raw))
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["run", str(path)]) == 2
    assert "no such file" in err.getvalue()


@pytest.mark.parametrize("edit, override, message", [
    ("magic", {}, "{images}: bad magic 0x00000802 at byte 0, expected 0x00000803"),
    ("short-labels", {}, "item count mismatch: 60 images in {images}, 50 labels in {labels}"),
    ("n_train", {"dataset": {"n_train": 100}}, "requested 100 rows but {images} has 60"),
])
def test_cli_bad_idx_data_exits_2_before_any_output(tmp_path, edit, override, message):
    # the 60-row IDX pairs of _cli_config, with a corrupt image magic, a
    # label file 10 entries short, or more training rows asked for than it holds
    path = _cli_config(tmp_path, "mnist", override)
    images, labels = tmp_path / "train-images", tmp_path / "train-labels"
    if edit == "magic":
        images.write_bytes(b"\x00\x00\x08\x02" + images.read_bytes()[4:])
    elif edit == "short-labels":
        write_idx_labels(labels, np.tile(np.arange(10), 5))
    message = f"configuration error: {message.format(images=images, labels=labels)}"
    assert _run_fails(path).splitlines() == [message]
    assert not (tmp_path / "out").exists()


def test_mnist_like_pipeline_on_synthetic_idx(tmp_path):
    # class-dependent pixel patterns, easily separable: exercises the whole
    # IDX -> stratified subsample -> MLP -> accuracy table pipeline
    rng = np.random.default_rng(0)
    def synth(n, path_prefix):
        labels = np.tile(np.arange(10), n // 10).astype(np.uint8)
        images = np.zeros((n, 28, 28), dtype=np.uint8)
        for i, lab in enumerate(labels):
            images[i, lab * 2:lab * 2 + 3, :] = 200
            images[i] += rng.integers(0, 20, size=(28, 28)).astype(np.uint8)
        write_idx_images(tmp_path / f"{path_prefix}-images", images)
        write_idx_labels(tmp_path / f"{path_prefix}-labels", labels)

    synth(600, "train")
    synth(200, "test")
    raw = yaml.safe_load(default_config_text("mnist"))
    raw["epochs"] = 3
    raw["activations"] = ["relu", "ewend(alpha=1.0,k=4,lambda=0.1,beta=1.0,eps=0.01,mode=elem)"]
    raw["dataset"].update({
        "train_images": str(tmp_path / "train-images"),
        "train_labels": str(tmp_path / "train-labels"),
        "test_images": str(tmp_path / "test-images"),
        "test_labels": str(tmp_path / "test-labels"),
        "n_train": 400, "n_test": 100,
    })
    raw["output_dir"] = str(tmp_path / "out")
    cfg = config_from_dict(raw)
    paths = run_experiment(cfg)
    _, table = _read_csv(paths[1])
    assert table[0] == ["activation", "test_accuracy"]
    assert table[1][0] == "relu"  # table order puts relu before ewend
    assert table[2][0].startswith("ewend")
    accs = [float(r[1]) for r in table[1:]]
    assert all(a > 0.9 for a in accs)  # trivially separable patterns


def test_mnist_starter_runs_on_small_idx_files(tmp_path):
    # the stock starter's 10 activations at [784, 256, 10], one epoch on
    # seeded noise: every row ok, one accuracy row per activation in table
    # order, nothing on stderr
    raw = yaml.safe_load(default_config_text("mnist"))
    _random_idx_files(tmp_path, raw, 24, train=300, test=100)
    raw["dataset"].update(n_train=200, n_test=50)
    raw.update(epochs=1, output_dir=str(tmp_path / "out"))
    path = tmp_path / "mnist.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert _quiet_run(path) == (0, "", [])
    _, rows = _read_csv(tmp_path / "out" / "metrics.csv")
    assert [r[9] for r in rows[1:]] == ["ok"] * 10
    _, table = _read_csv(tmp_path / "out" / "accuracy_table.csv")
    assert [parse_activation(r[0]).kind for r in table[1:]] == list(bench.TABLE_ORDER)


def _random_idx_files(tmp_path, raw, seed, train, test):
    """Write `train` and `test` images of seeded random pixels, labelled 0-9
    in turn, as IDX files in tmp_path, and point the dataset of the mnist
    config `raw` at all of them."""
    rng = np.random.default_rng(seed)
    for part, n in (("train", train), ("test", test)):
        write_idx_images(tmp_path / f"{part}-images", rng.integers(0, 256, size=(n, 28, 28)))
        write_idx_labels(tmp_path / f"{part}-labels", np.tile(np.arange(10), n // 10))
        raw["dataset"].update({f"{part}_images": str(tmp_path / f"{part}-images"),
                               f"{part}_labels": str(tmp_path / f"{part}-labels"),
                               f"n_{part}": n})


def _pixel_study(tmp_path, n_train, n_test):
    """A one-epoch relu study [784, 4, 10] on seeded synthetic IDX files of
    exactly n_train/n_test images, ten of each class."""
    raw = yaml.safe_load(default_config_text("mnist"))
    _random_idx_files(tmp_path, raw, 3, train=n_train, test=n_test)
    raw.update(epochs=1, activations=["relu"], architecture=[784, 4, 10],
               output_dir=str(tmp_path / "out"))
    return config_from_dict(raw)


def test_mnist_like_study_keeps_its_pixels_as_stored(tmp_path, monkeypatch):
    cfg = _pixel_study(tmp_path, 4000, 200)
    seen = []
    real_train = bench.train

    def spy(net, x_train, *args, **kwargs):
        seen.append((x_train.dtype, x_train.nbytes, kwargs["x_test"].dtype))
        return real_train(net, x_train, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(bench, "train", spy)
        bench.run_experiment(cfg)
    assert seen == [(np.uint8, 4000 * 784, np.uint8)]
    # the training pixels as float64 would take 4000 * 784 * 8 bytes, 25 MB;
    # the study's peak stays below half of that
    tracemalloc.start()
    try:
        bench.run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4000 * 784 * 8 / 2, f"traced peak {peak / 1e6:.1f} MB"


def test_cli_grad_check_non_finite_error_fails(monkeypatch):
    # an inf error (what the checker returns for NaN) reports FAIL, exit 3
    import wendnet.cli
    monkeypatch.setattr(wendnet.cli, "run_gradient_check",
                        lambda spec, **kwargs: float("inf"))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["grad-check", "--probes", "2"]) == 3
    assert out.getvalue().splitlines()[0].split()[-2:] == ["inf", "FAIL"]


@pytest.mark.parametrize("args", [["--probes", "0"], ["--probes", "-3"],
                                  ["--seed", "-1"], ["--probes", "abc"]])
def test_cli_grad_check_rejects_bad_counts(args):
    # a check with no probes would print "ok" for every kind having checked nothing
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, redirect_stderr(err), redirect_stdout(io.StringIO()):
        main(["grad-check", *args])
    assert exc.value.code == 1
    assert args[0] in err.getvalue()


def test_toy_classifier_wider_than_its_labels_runs(tmp_path):
    raw = yaml.safe_load(default_config_text("moons"))
    raw.update(epochs=1, activations=["tanh"], architecture=[2, 16, 3],
               output_dir=str(tmp_path / "out"))
    raw["dataset"]["n"] = 20
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    with redirect_stdout(io.StringIO()):
        assert main(["run", str(path)]) == 0


def test_cli_grad_check_small():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["grad-check", "--probes", "25"])
    assert code == 0
    assert "FAIL" not in out.getvalue()


def test_non_finite_gradient_diverges_only_its_own_job(tmp_path, monkeypatch):
    # tanh's slope turns NaN while its value and the loss stay finite: the
    # job leaves its stack before the step, ends diverged, and relu still runs
    import dataclasses
    from wendnet import activations

    tanh = activations.KINDS["tanh"]

    def nan_slope(x, c):
        y, dy = tanh.value(x, c)
        return y, np.full_like(dy, np.nan)

    monkeypatch.setitem(activations.KINDS, "tanh",
                        dataclasses.replace(tanh, value=nan_slope))
    cfg = _small_sine_cfg(tmp_path, activations=["tanh", "relu"])
    _, rows = _read_csv(run_experiment(cfg)[0])
    tanh_rows = [r for r in rows[1:] if r[1] == "tanh"]
    relu_rows = [r for r in rows[1:] if r[1] == "relu"]
    assert [r[9] for r in tanh_rows] == ["diverged"]
    assert [r[9] for r in relu_rows] == ["ok"] * cfg.epochs
    _, preds = _read_csv(tmp_path / "out" / "predictions.csv")
    assert preds[0] == ["x", "sin_x", "pred_tanh", "pred_relu"]
    assert {r[2] for r in preds[1:]} == {"nan"}
    assert np.isfinite([float(r[3]) for r in preds[1:]]).all()


def _quiet_run(path):
    """(exit code, stderr text, warnings raised) of `wendnet run path`."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
            redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(["run", str(path)])
    return code, err.getvalue(), [str(w.message) for w in caught]


def test_cli_diverging_study_is_quiet(tmp_path):
    # the rows report the divergence; NumPy's overflow warnings on the way
    # there would only repeat it on stderr
    raw = yaml.safe_load(default_config_text("moons"))
    raw.update(epochs=2, optimizer={"kind": "sgd", "lr": 0.9, "momentum": 0.95},
               output_dir=str(tmp_path / "out"))
    path = tmp_path / "moons.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert _quiet_run(path) == (0, "", [])
    _, rows = _read_csv(tmp_path / "out" / "metrics.csv")
    assert "diverged" in {r[9] for r in rows[1:]}


@pytest.mark.parametrize("vals, mean, std", [
    # NumPy's std squares a deviation of 1.7e269 and gets inf
    ([0.5, 1.7166917093277759e+269], 1.7166917093277759e+269 / 2,
     1.7166917093277759e+269 / np.sqrt(2)),
    # NumPy's mean sums to inf
    ([1e308, 1e308], 1e308, 0.0),
])
def test_mean_std_of_huge_finite_values_is_finite(vals, mean, std):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, s = bench._mean_std(vals)
    assert m == pytest.approx(mean, rel=1e-14)
    assert s == pytest.approx(std, rel=1e-14)


def test_mean_std_is_numpy_where_numpy_is_finite():
    vals = [0.1, 0.2, 0.7, 1e100]
    assert bench._mean_std(vals) == (float(np.mean(vals)), float(np.std(vals, ddof=1)))
    assert bench._mean_std([0.3]) == (0.3, 0.0)
    assert bench._mean_std([]) == (None, None)


def test_cli_study_with_a_huge_finite_test_loss_is_quiet(tmp_path):
    # in this hot SGD study prelu's final test losses are finite, one of them
    # near 3.4e269: summary.csv holds their finite std, and stderr stays empty
    raw = yaml.safe_load(default_config_text("moons"))
    raw.update(epochs=4, repetitions=2, optimizer={"kind": "sgd", "lr": 1.0, "momentum": 0.9},
               activations=raw["activations"] + ["prelu", "sinlu", "frelu", "gelu", "elu"],
               output_dir=str(tmp_path / "out"))
    raw["dataset"]["n"] = 100
    assert len(raw["activations"]) == 8
    path = tmp_path / "moons.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert _quiet_run(path) == (0, "", [])
    _, rows = _read_csv(tmp_path / "out" / "summary.csv")
    prelu, = (row for row in rows[1:] if row[0] == "prelu(slope=0.25)")
    loss_mean, loss_std = float(prelu[4]), float(prelu[5])
    assert 1e269 < loss_mean < loss_std < np.inf


@pytest.mark.parametrize("alpha", ["0", "1e-310"])
def test_cli_sine_celu_with_a_vanishing_alpha_is_quiet(tmp_path, alpha):
    # celu divides min(x, 0) by alpha: by zero at alpha=0, with an overflow at
    # 1e-310; np.where keeps finite values, in training and on the grid alike
    raw = yaml.safe_load(default_config_text("sine"))
    raw.update(epochs=2, activations=[f"celu(alpha={alpha})"], output_dir=str(tmp_path / "out"))
    raw["dataset"]["n"] = 40
    path = tmp_path / "sine.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert _quiet_run(path) == (0, "", [])
    _, rows = _read_csv(tmp_path / "out" / "metrics.csv")
    assert {r[9] for r in rows[1:]} == {"ok"}
    _, preds = _read_csv(tmp_path / "out" / "predictions.csv")
    assert np.isfinite([float(r[2]) for r in preds[1:]]).all()


def test_cli_trainable_lambda_and_eps_may_leave_their_config_range(tmp_path):
    # Adam takes eps below 0 within three epochs; the trained value must not
    # be re-checked against the config range, and the next activation runs
    raw = yaml.safe_load(default_config_text("moons"))
    raw.update(seed=7, epochs=3, architecture=[2, 16, 16, 2],
               optimizer={"kind": "adam", "lr": 0.005},
               activations=["ewend(train=alpha|lambda|beta|eps)", "relu"],
               output_dir=str(tmp_path / "out"))
    raw["dataset"]["n"] = 200
    path = tmp_path / "moons.yaml"
    path.write_text(yaml.safe_dump(raw))
    with redirect_stdout(io.StringIO()):
        assert main(["run", str(path)]) == 0
    _, rows = _read_csv(tmp_path / "out" / "metrics.csv")
    ewend = [r for r in rows[1:] if r[1].startswith("ewend")]
    assert {r[1] for r in rows[1:]} == {ewend[0][1], "relu"}
    assert {r[9] for r in rows[1:]} == {"ok"}
    assert min(float(kv.split("=")[1]) for r in ewend for kv in r[8].split("|")
               if kv.split("=")[0].endswith(".eps")) < 0.0


def test_cli_run_config_is_a_directory(tmp_path):
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["run", str(tmp_path)]) == 2
    assert len(err.getvalue().splitlines()) == 1


def test_cli_run_config_not_utf8(tmp_path):
    path = tmp_path / "latin.yaml"
    path.write_bytes(default_config_text("moons").encode() + b"# caf\xff\n")
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["run", str(path)]) == 2
    assert len(err.getvalue().splitlines()) == 1
    assert "latin.yaml" in err.getvalue()


@pytest.mark.parametrize("edit", [
    lambda text: text + "epochs: 2\n",
    lambda text: text.split("dataset:")[0] + "dataset: {n: 5, n: 6}\n",
    lambda text: text + "activations: [relu]\n",
    lambda text: text + "extra: [relu\n",
    lambda text: text + "---\nepochs: 2\n",
    lambda text: text + "# \x01\n",
    lambda text: text.replace("seed: 7", "seed: !!int abc"),
    lambda text: text.replace("seed: 7", "seed: !!timestamp abc"),
    lambda text: text.replace("seed: 7", "seed: !!bool abc"),
    lambda text: text.replace("seed: 7", 'seed: !!float ""'),
], ids=["repeated-epochs", "repeated-nested-key", "second-activations", "unclosed-list",
        "two-documents", "control-byte", "bad-int-tag", "bad-timestamp-tag", "bad-bool-tag",
        "empty-float-tag"])
def test_cli_run_config_not_valid_yaml(tmp_path, edit):
    # safe_load alone keeps the last of a repeated key without a word, and a
    # tagged value its reader cannot take raises past the CLI's handlers
    text = default_config_text("moons").replace("epochs: 200", "epochs: 1").replace(
        "output_dir: out/moons", f"output_dir: {tmp_path / 'out'}")
    path = tmp_path / "bad.yaml"
    path.write_text(edit(text), encoding="utf-8")
    err = _run_fails(path)
    assert len(err.splitlines()) == 1
    assert str(path) in err and "not valid YAML" in err
    assert not (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize("experiment, dataset", [
    ("sine", {"x_lo": 1, "x_hi": 0}),
    ("moons", {"n": 1}),
    ("mnist", {"train_images": "no/such/train-images-idx3-ubyte"}),
], ids=["sine-reversed-range", "moons-one-point", "mnist-missing-file"])
def test_a_study_that_fails_making_its_data_touches_no_file(tmp_path, experiment, dataset):
    # the data come first: no output directory is made, and an earlier
    # run's CSVs stay as they were
    def fails():
        return _run_fails(_cli_config(tmp_path, experiment, {"dataset": dataset})).splitlines()

    out = tmp_path / "out"
    assert len(fails()) == 1
    assert not out.exists()
    with redirect_stdout(io.StringIO()):
        assert main(["run", str(_cli_config(tmp_path, experiment, {}))]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(before) == 2 and "metrics.csv" in before
    assert len(fails()) == 1
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_cli_huge_alpha_study_runs(tmp_path):
    # alpha**2 overflows a Python float, and outside the support a Wendland
    # term of alpha*alpha or alpha*r is infinite; beside them channel ewend
    # trains every coefficient: 4 activations, 3 repetitions, 2 epochs, all ok
    raw = yaml.safe_load(default_config_text("moons"))
    raw.update(epochs=2, activations=["ewend(alpha=1e308)", "relu", "ewend(alpha=1e300,k=1)",
                                      "ewend(mode=channel,train=alpha|lambda|beta|eps)"],
               output_dir=str(tmp_path / "out"))
    path = tmp_path / "moons.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert _quiet_run(path) == (0, "", [])
    _, rows = _read_csv(tmp_path / "out" / "metrics.csv")
    assert [r[9] for r in rows[1:]] == ["ok"] * 4 * 3 * 2


def test_cli_emit_default_config_under_a_file(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        assert main(["emit-default-config", "moons", "-o", str(blocker / "x.yaml")]) == 2
    assert len(err.getvalue().splitlines()) == 1


def test_cli_alpha_trained_to_underflow_diverges_only_its_job(tmp_path):
    # SGD at lr 1e6 takes ewend's log-stored alpha below -745, where exp
    # gives 0.0; the support edge 1/alpha used to raise ZeroDivisionError
    # and end the study before the relu and tanh jobs
    raw = yaml.safe_load(default_config_text("moons"))
    raw.update(epochs=2, optimizer={"kind": "sgd", "lr": 1e6},
               activations=["relu", "tanh", "ewend(k=1,train=alpha|lambda|beta|eps)"],
               output_dir=str(tmp_path / "out"))
    path = tmp_path / "moons.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert _quiet_run(path) == (0, "", [])
    _, rows = _read_csv(tmp_path / "out" / "metrics.csv")
    status = {(r[1].split("(")[0], r[2]): r[9] for r in rows[1:]}
    assert set(status) == {(a, str(rep)) for a in ("relu", "tanh", "ewend") for rep in range(3)}
    assert {s for (a, _), s in status.items() if a == "ewend"} == {"diverged"}
    assert {s for (a, _), s in status.items() if a != "ewend"} == {"ok"}
    alphas = [kv for r in rows[1:] for kv in r[8].split("|") if kv.startswith("act0.alpha")]
    assert "act0.alpha=0" in alphas


def test_cli_sine_range_wider_than_a_float_exits_2_quietly(tmp_path):
    raw = yaml.safe_load(default_config_text("sine"))
    raw.update(epochs=1, output_dir=str(tmp_path / "out"))
    raw["dataset"].update(x_lo=-1e308, x_hi=1e308)
    path = tmp_path / "sine.yaml"
    path.write_text(yaml.safe_dump(raw))
    code, err, caught = _quiet_run(path)
    assert (code, caught) == (2, [])
    assert err.splitlines() == [
        "configuration error: x range [-1e+308, 1e+308] is wider than a float can hold"]


# --- a search over mutated starter configs ----------------------------------

_ODD_ACTIVATIONS = ("ewend(", "ewend(alpha=)", "ewend(k=0)", "ewend(k=2.5)", "ewend(alpha=-1)",
                    "ewend(mode=chan)", "ewend(train=gamma)", "ewend(alpha=1,alpha=2)",
                    "ewend(alpha=1e-320)", "ewend(beta=1e400)", "rrelu(lower=0.5,upper=0.1)",
                    "lrelu(slope=)", "relu()", "relu(x=1)", "RELU", " tanh ", "wc2(k=1)", "=",
                    "ewend(k=4,,)", "srelu(tl=1,ar=nan)", "prelu(slope=0x10)")
_ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([1e308, -1e308, float("inf"), float("-inf"), float("nan"),
                     10 ** 400, -10 ** 400, 2 ** 63, "1e999", "nan", "-0"]),
    st.text(max_size=8),
    st.sampled_from(_ODD_ACTIVATIONS),
    st.lists(st.one_of(st.integers(-3, 1000), st.sampled_from(_ODD_ACTIVATIONS)), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "lr", "n", "x_lo", "a", "1"]),
                    st.one_of(st.integers(), st.floats(), st.text(max_size=4)), max_size=2),
)


def _places(raw: dict) -> list[tuple]:
    """(container, key) for every value of a config, one level into each
    section and list."""
    places = [(raw, key) for key in raw]
    for value in raw.values():
        if isinstance(value, dict):
            places += [(value, key) for key in value]
        elif isinstance(value, list):
            places += [(value, i) for i in range(len(value))]
    return places


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_starter_configs_load_or_raise_config_error(experiment, data):
    # drop keys or swap values of a starter config: loading it may succeed,
    # and may fail only with a ConfigError, never with another exception
    raw = yaml.safe_load(default_config_text(experiment))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        container, key = data.draw(st.sampled_from(_places(raw)), label="place")
        if data.draw(st.booleans(), label="drop"):
            del container[key]
        else:
            container[key] = data.draw(_ODD_VALUES, label="value")
    try:
        config_from_dict(raw)
    except ConfigError:
        pass
