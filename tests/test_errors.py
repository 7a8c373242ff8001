"""Bad input of every kind, a config, a dataset parameter, an IDX file or
data that do not fit the architecture, raises one exception class,
`ConfigError`, which `wendnet run` reports as a configuration error with
exit 2.  Any other exception is a fault of the engine and propagates."""

import importlib
import io
import pkgutil
from contextlib import redirect_stderr, redirect_stdout

import pytest
import yaml

import wendnet
from wendnet import bench
from wendnet.bench import default_config_text
from wendnet.cli import main


def test_config_error_is_the_only_exception_class():
    defined = []
    for info in pkgutil.iter_modules(wendnet.__path__):
        module = importlib.import_module(f"wendnet.{info.name}")
        defined += [f"{module.__name__}.{name}" for name, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__]
    assert defined == ["wendnet.tensor.ConfigError"]


def test_a_value_error_of_the_engine_is_no_configuration_error(tmp_path, monkeypatch):
    def fault(*args):
        raise ValueError("a fault of the engine")

    monkeypatch.setattr(bench, "_train_stack", fault)
    raw = yaml.safe_load(default_config_text("sine"))
    raw.update(epochs=1, output_dir=str(tmp_path / "out"))
    path = tmp_path / "sine.yaml"
    path.write_text(yaml.safe_dump(raw))
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        with pytest.raises(ValueError, match="a fault of the engine") as raised:
            main(["run", str(path)])
    assert type(raised.value) is ValueError and err.getvalue() == ""
