"""The three workloads: their inputs, one timed unit of work (a "study")
each, and the checks that a study's outputs are correct.

Every study goes through the user entry point `wendnet.cli.main`, in
process: `run <config>` for the training workloads and `grad-check` for the
gradient-check workload.  The workload seed decides every input; the
program sees only the generated config and data files.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

import mnist_synth
from probe import clock
from reference import ReferenceLoop

# columns that hold wall-clock time and so differ between identical runs
TIMING_COLUMNS = ("epoch_wall_seconds", "mean_epoch_seconds")
GRAD_CHECK_BOUND = 1e-6
GRAD_CHECK_PROBES = 200
EWEND_ELEM = "ewend(alpha=1,k=4,lambda=0.1,beta=1,eps=0.01,mode=elem)"
EWEND_CHANNEL = "ewend(alpha=1,k=4,lambda=0.1,beta=1,eps=0.01,mode=channel)"


@dataclass
class Study:
    wall_s: float  # study wall time, the probe's pauses left out
    items: int
    jobs: int
    failures: list[str] = field(default_factory=list)  # one entry per failed job
    digest: str = ""
    csv_bytes: int = 0
    ops: range = range(0)  # indices of the study's ops in `Probe.op_ms`
    ref_items_per_s: float = 0.0  # rate of the reference slices beside the study


def cli_call(cli, argv) -> tuple[int | None, str, str]:
    """Run `wendnet.cli.main(argv)` with its stdout captured; returns
    (exit code, or None if it raised; stdout; error text)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), out.getvalue(), "SystemExit"
    except Exception as exc:  # a failed job is recorded, not fatal to the benchmark
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), ""


def _read_csv(path: Path):
    """(comment lines, header, data rows) of one output CSV."""
    with open(path, newline="", encoding="utf-8") as f:
        lines = f.read().splitlines()
    table = list(csv.reader(l for l in lines if not l.startswith("#")))
    return [l for l in lines if l.startswith("#")], table[0], table[1:]


def csv_digest(out_dir: Path, activation: str | None = None) -> str:
    """sha256 over every output CSV without its timing columns.  With
    `activation`, only that activation's metrics.csv rows count."""
    h = hashlib.sha256()
    files = [out_dir / "metrics.csv"] if activation else sorted(out_dir.glob("*.csv"))
    for path in files:
        comments, header, rows = _read_csv(path)
        keep = [i for i, c in enumerate(header) if c not in TIMING_COLUMNS]
        if activation is None:
            h.update("\n".join([path.name, *comments, ",".join(header[i] for i in keep)]).encode())
        act = header.index("activation")
        for row in rows:
            if activation is None or row[act] == activation:
                h.update(("\n" + ",".join(row[i] for i in keep)).encode())
    return h.hexdigest()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


class TrainingWorkload:
    """A `wendnet run` study; a job is one (activation, repetition)."""

    gradcheck = False

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.root = root
        self.seed = seed
        self.tiny = tiny
        self.config: dict = {}
        self.first_act_digest = ""
        self.study_cfg, self.warmup_cfg, self.rerun_cfg = (
            str(root / f"{name}.yaml") for name in ("study", "warmup", "rerun"))

    def _write_config(self, name: str, **overrides):
        cfg = dict(self.config, output_dir=str(self.root / f"out-{name}"), **overrides)
        (self.root / f"{name}.yaml").write_text(yaml.safe_dump(cfg, sort_keys=False),
                                                encoding="utf-8")

    def prepare(self, cli):
        """Write the study, warm-up and rerun configs; subclasses first fill
        `self.config`."""
        self._write_config("study")
        self._write_config("warmup", epochs=1, repetitions=1)
        self._write_config("rerun", activations=self.config["activations"][:1])

    @property
    def jobs_per_study(self) -> int:
        return len(self.config["activations"]) * self.config["repetitions"]

    @property
    def epochs_per_study(self) -> int:
        return self.jobs_per_study * self.config["epochs"]

    def reference(self) -> ReferenceLoop:
        """The plain-NumPy gauge at this study's widths and batch size."""
        steps = max(1, self.reference_steps // (10 if self.tiny else 1))
        return ReferenceLoop(self.config["architecture"], self.config["batch_size"], steps)

    def warm_up(self, cli):
        cli_call(cli, ["run", self.warmup_cfg])

    def start_study(self, cli):
        cli_call(cli, ["run", self.study_cfg])

    def run_study(self, cli, probe) -> Study:
        items0, job0, op0 = probe.items, len(probe.job_labels), len(probe.op_ms)
        probe.begin_study()
        t0, paused0 = clock(), probe.paused_s
        rc, _, err = cli_call(cli, ["run", self.study_cfg])
        study = Study(clock() - t0 - (probe.paused_s - paused0),
                      probe.items - items0, self.jobs_per_study,
                      ops=range(op0, len(probe.op_ms)))
        if rc != 0:
            study.failures = [f"run exited with {rc} {err}".strip()] * study.jobs
            return study
        out_dir = self.root / "out-study"
        study.failures = self._job_failures(out_dir, probe, job0)
        study.digest = csv_digest(out_dir)
        study.csv_bytes = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
        if not self.first_act_digest:
            self.first_act_digest = csv_digest(out_dir, self._first_activation(out_dir))
        return study

    @staticmethod
    def _first_activation(out_dir: Path) -> str:
        _, header, rows = _read_csv(out_dir / "metrics.csv")
        return rows[0][header.index("activation")] if rows else ""

    def _job_failures(self, out_dir: Path, probe, job0: int) -> list[str]:
        _, header, rows = _read_csv(out_dir / "metrics.csv")
        col = {c: i for i, c in enumerate(header)}
        last: dict[tuple[str, str], list[str]] = {}
        for row in rows:
            last[(row[col["activation"]], row[col["repetition"]])] = row
        failures = [f"job {j}: {msg}" for j, msg in probe.row_errors if j >= job0]
        for (act, rep), row in last.items():
            if row[col["status"]] != "ok":
                failures.append(f"{act} rep {rep}: status={row[col['status']]}")
            elif not (_finite(row[col["train_loss"]]) and _finite(row[col["test_loss"]])):
                failures.append(f"{act} rep {rep}: non-finite final loss")
        failures += ["a job wrote no rows"] * (self.jobs_per_study - len(last))
        return failures[:self.jobs_per_study]

    def rerun_check(self, cli) -> list[str]:
        """Run the first activation's jobs again: their rows must equal the
        first timed study's, timing columns aside."""
        rc, _, err = cli_call(cli, ["run", self.rerun_cfg])
        if rc != 0:
            return [f"rerun exited with {rc} {err}".strip()]
        out_dir = self.root / "out-rerun"
        if csv_digest(out_dir, self._first_activation(out_dir)) != self.first_act_digest:
            return ["rerun of the first activation changed its metrics.csv rows"]
        return []


class MnistShape(TrainingWorkload):
    """[784,256,10] at batch 64 on seeded MNIST-format IDX files."""

    name = "mnist-shape"
    reference_steps = 25  # per job, about 0.1 s on a 2-vCPU Xeon guest

    def __init__(self, root: Path, seed: int, tiny: bool):
        super().__init__(root, seed, tiny)
        # image counts of the generated train/test files and of the subsets
        # the config asks for: the same 1/6 and 1/5 shares as the stock
        # config takes of the official files (10000/60000 and 2000/10000)
        self.n_files = (1200, 400) if tiny else (12000, 2000)
        self.expected_rows = (200, 80) if tiny else (2000, 400)

    def prepare(self, cli):
        from wendnet import datasets

        data = self.root / "data"
        data.mkdir(parents=True, exist_ok=True)
        paths = mnist_synth.write_mnist_like(
            data, self.seed, *self.n_files,
            datasets.write_idx_images, datasets.write_idx_labels)
        n_train, n_test = self.expected_rows
        self.config = {
            "schema_version": 1,
            "experiment": "mnist",
            "seed": self.seed,
            "activations": ["relu", "gelu", EWEND_ELEM],
            "architecture": [784, 256, 10],
            "epochs": 1 if self.tiny else 2,
            "batch_size": 64,
            "repetitions": 1,
            "optimizer": {"kind": "adam", "lr": 0.001},
            "dataset": dict(paths, n_train=n_train, n_test=n_test),
        }
        super().prepare(cli)


class ToyMoons(TrainingWorkload):
    """The stock `emit-default-config moons` study plus channel-mode ewend,
    with 20 of its 200 epochs.

    A stock study takes about 20 s, so a run would time a single study and
    could not keep its fastest studies (see `run._fastest`).  Shapes,
    batch, data, repetitions and per-epoch work are the stock ones.
    """

    name = "toy-moons"
    epochs = 20
    reference_steps = 300  # per job, about 0.035 s on a 2-vCPU Xeon guest

    @property
    def expected_rows(self):
        n = self.config["dataset"]["n"]
        n_test = int(round(n * self.config["dataset"]["test_fraction"]))
        return n - n_test, n_test

    def prepare(self, cli):
        stock = self.root / "stock-moons.yaml"
        cli_call(cli, ["emit-default-config", "moons", "-o", str(stock)])
        self.config = yaml.safe_load(stock.read_text(encoding="utf-8"))
        self.config["seed"] = self.seed
        self.config["activations"].append(EWEND_CHANNEL)
        self.config["epochs"] = self.epochs
        if self.tiny:
            self.config.update(epochs=2, repetitions=1)
            self.config["dataset"]["n"] = 200
        super().prepare(cli)


class GradCheck:
    """`wendnet grad-check --seed <workload seed>` over every kind; a study is
    one such call and a job one kind."""

    name = "gradcheck"
    gradcheck = True
    expected_rows = None
    epochs_per_study = 0

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.probes = 10 if tiny else GRAD_CHECK_PROBES
        self.argv = ["grad-check", "--seed", str(seed), "--probes", str(self.probes)]
        self.first_output = ""

    def prepare(self, cli):
        from wendnet.activations import ALL_KINDS
        self.jobs_per_study = len(ALL_KINDS)

    def reference(self) -> ReferenceLoop:
        """The plain-NumPy gauge at the checker's default network and batch."""
        return ReferenceLoop([2, 8, 8, 2], 4, 20 if self.probes < GRAD_CHECK_PROBES else 200)

    def warm_up(self, cli):
        cli_call(cli, self.argv[:-1] + ["2"])

    def start_study(self, cli):
        cli_call(cli, self.argv)

    def run_study(self, cli, probe) -> Study:
        items0, op0 = probe.items, len(probe.op_ms)
        probe.begin_study()
        t0, paused0 = clock(), probe.paused_s
        rc, out, err = cli_call(cli, self.argv)
        study = Study(clock() - t0 - (probe.paused_s - paused0),
                      probe.items - items0, self.jobs_per_study,
                      digest=hashlib.sha256(out.encode()).hexdigest(),
                      ops=range(op0, len(probe.op_ms)))
        self.first_output = self.first_output or out
        lines = out.splitlines()
        for line in lines:
            fields = line.split()
            if not (len(fields) == 6 and fields[5] == "ok"
                    and float(fields[4]) < GRAD_CHECK_BOUND):
                study.failures.append(f"grad-check --seed {self.argv[2]}: {line}")
        study.failures += [f"grad-check ended early: {err}"] * (study.jobs - len(lines))
        if rc != 0 and not study.failures:
            study.failures = [f"grad-check exited with {rc}"] * study.jobs
        return study

    def rerun_check(self, cli) -> list[str]:
        """The same call once more must print the same report."""
        rc, out, err = cli_call(cli, self.argv)
        if rc != 0 or out != self.first_output:
            return [f"grad-check rerun differs ({rc} {err})".strip()]
        return []


WORKLOADS = {w.name: w for w in (MnistShape, ToyMoons, GradCheck)}
