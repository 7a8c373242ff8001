"""Benchmark harness: config parsing, CSV output, determinism, and the CLI."""

import csv
import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
import yaml

from wendnet.activations import ConfigError
from wendnet.bench import (
    config_from_dict,
    default_config_text,
    load_config,
    run_sine,
    run_toy_classification,
    _table_ordered,
)
from wendnet.cli import main


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
    for exp in ("sine", "moons", "circles", "mnist", "fashion"):
        cfg = config_from_dict(yaml.safe_load(default_config_text(exp)))
        assert cfg.experiment == exp


def test_config_rejections():
    base = yaml.safe_load(default_config_text("sine"))
    for mutate in (
        {"experiment": "nope"},
        {"repetitions": 0},
        {"activations": []},
        {"activations": ["blorp"]},
        {"architecture": [4]},
        {"optimizer": {"kind": "lbfgs"}},
        {"surprise_key": 1},
    ):
        raw = dict(base)
        raw.update(mutate)
        with pytest.raises(ConfigError):
            config_from_dict(raw)


def test_unknown_activation_error_names_token_and_line(tmp_path):
    text = default_config_text("sine").replace("- relu", "- blorp")
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    lineno = next(i for i, l in enumerate(text.splitlines(), 1) if "blorp" in l)
    with pytest.raises(ConfigError, match=rf"cfg\.yaml:{lineno}.*blorp"):
        load_config(path)


def test_sine_metrics_row_count(tmp_path):
    cfg = _small_sine_cfg(tmp_path)
    paths = run_sine(cfg)
    comments, rows = _read_csv(paths[0])
    assert rows[0][0] == "experiment"
    assert len(rows) == 1 + cfg.epochs  # header plus one row per epoch
    assert any(c.startswith("# config_digest=") for c in comments)
    assert any(c.startswith("# seed=") for c in comments)
    assert any(c.startswith("# wendnet v") for c in comments)


def test_sine_predictions_columns(tmp_path):
    cfg = _small_sine_cfg(tmp_path, activations=["tanh", "relu"])
    paths = run_sine(cfg)
    _, rows = _read_csv(paths[1])
    assert rows[0] == ["x", "sin_x", "pred_tanh", "pred_relu"]
    assert len(rows) == 1 + cfg.dataset["grid_points"]


def _strip_timing(rows):
    try:
        col = rows[0].index("epoch_wall_seconds")
    except ValueError:
        return rows
    return [r[:col] + r[col + 1:] for r in rows]


def test_rerun_is_byte_identical_excluding_timing(tmp_path):
    cfg_a = _small_sine_cfg(tmp_path / "a")
    cfg_b = _small_sine_cfg(tmp_path / "b")
    pa = run_sine(cfg_a)
    pb = run_sine(cfg_b)
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
    paths = run_toy_classification(cfg)
    _, rows = _read_csv(paths[1])
    assert len(rows) == 1 + 2  # header + one summary row per activation
    _, mrows = _read_csv(paths[0])
    assert len(mrows) == 1 + 2 * 2 * 3  # activations x repetitions x epochs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_activation_does_not_corrupt_others(tmp_path):
    cfg = _small_sine_cfg(tmp_path, activations=["tanh", "relu"],
                          optimizer={"kind": "sgd", "lr": 1e12})
    # both runs diverge under an absurd lr but every activation still appears
    paths = run_sine(cfg)
    _, rows = _read_csv(paths[0])
    acts = {r[1] for r in rows[1:]}
    assert acts == {"tanh", "relu"}
    statuses = {r[1]: r[9] for r in rows[1:]}
    assert set(statuses.values()) <= {"ok", "diverged"}


def test_table_order():
    texts = ["swish", "ewend(alpha=1,k=4,lambda=0.1,beta=1,eps=0.01,mode=elem)",
             "gelu", "relu", "srelu"]
    ordered = _table_ordered(texts)
    assert ordered[0] == "relu"
    assert ordered[1] == "swish"
    assert ordered[2] == "srelu"
    assert ordered[3].startswith("ewend")
    assert ordered[4] == "gelu"  # not a table row, keeps config order at the end


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


def test_cli_mnist_missing_files(tmp_path):
    path = tmp_path / "mnist.yaml"
    raw = yaml.safe_load(default_config_text("mnist"))
    raw["output_dir"] = str(tmp_path / "out")
    path.write_text(yaml.safe_dump(raw))
    err = io.StringIO()
    with redirect_stderr(err):
        assert main(["run", str(path)]) == 2
    assert "no such file" in err.getvalue()


def test_mnist_like_pipeline_on_synthetic_idx(tmp_path):
    # class-dependent pixel patterns, easily separable: exercises the whole
    # IDX -> stratified subsample -> MLP -> accuracy table pipeline
    from wendnet.bench import run_mnist_like
    from wendnet.datasets import write_idx_images, write_idx_labels
    from wendnet.tensor import make_rng

    rng = make_rng(0)
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
    paths = run_mnist_like(cfg)
    _, table = _read_csv(paths[1])
    assert table[0] == ["activation", "test_accuracy"]
    assert table[1][0] == "relu"  # table order puts relu before ewend
    assert table[2][0].startswith("ewend")
    accs = [float(r[1]) for r in table[1:]]
    assert all(a > 0.9 for a in accs)  # trivially separable patterns


def test_cli_grad_check_non_finite_error_fails(monkeypatch):
    # an inf error (what the checker returns for NaN) reports FAIL, exit 3
    import wendnet.cli
    monkeypatch.setattr(wendnet.cli, "run_gradient_check",
                        lambda spec, **kwargs: float("inf"))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["grad-check", "--probes", "2"]) == 3
    assert out.getvalue().splitlines()[0].split()[-2:] == ["inf", "FAIL"]


def test_cli_grad_check_small():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["grad-check", "--probes", "25"])
    assert code == 0
    assert "FAIL" not in out.getvalue()
