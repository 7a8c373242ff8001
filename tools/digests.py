"""Digests of wendnet's deterministic outputs, checked against a manifest.

Run from the root of a checkout:

    python3 tools/digests.py            # compare every case with tools/digests.json
    python3 tools/digests.py --record   # rewrite tools/digests.json

Each case runs the program from ./src in process, through `wendnet.cli.main`,
and hashes what it wrote: a study's CSVs, or a command's standard output.
A study's digest is sha256 over each output CSV's name, its comment lines,
its header and each row, the cells joined by commas without the timing
columns, with no separators, files in name order.  Every digest is the first
16 hex digits.

The bits depend on the platform: NumPy's version and SIMD dispatch, and the
BLAS build.  So the manifest records the NumPy version and the machine it
was taken at, and a check prints them when they differ from the running
ones.  BLAS runs one thread per call whatever OPENBLAS_NUM_THREADS says:
the script imports wendnet, which pins it, before NumPy.  The engine's own
two halves of a large product or optimizer update are fixed, whatever the
core count, so they do not make the digests depend on the host.  Without
--record the script prints `case: old -> new` for each case that differs
and exits 1; it exits 0 when every case matches.  The cases take about
20 s.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import wendnet  # noqa: E402,F401  pins BLAS to one thread, so it comes before NumPy
import numpy as np  # noqa: E402
import yaml  # noqa: E402

from wendnet import cli  # noqa: E402
from wendnet.datasets import write_idx_images, write_idx_labels  # noqa: E402

MANIFEST = Path(__file__).resolve().parent / "digests.json"
TIMING_COLUMNS = ("epoch_wall_seconds", "mean_epoch_seconds")
CHANNEL_EWEND = "ewend(alpha=1,k=4,lambda=0.1,beta=1,eps=0.01,mode=channel)"
# many kinds in one study, trained coefficients of every shape among them; the
# hot SGD makes some replicas diverge mid-run while the others train on
MIX = ["relu", "tanh", "rrelu", "prelu", "sinlu", "frelu", "gelu",
       "ewend(k=1,train=alpha|lambda|beta|eps)", "ewend(mode=channel,train=alpha|lambda|beta|eps)"]


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _stdout(*argv: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"wendnet {' '.join(argv)} exited {code}")
    return out.getvalue().encode("utf-8")


def csv_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines()
        header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
        keep = [i for i, column in enumerate(header) if column not in TIMING_COLUMNS]
        h.update(path.name.encode("utf-8"))
        for line in lines:
            if line.startswith("#"):
                h.update(line.encode("utf-8"))
        for row in (header, *rows):
            h.update(",".join(row[i] for i in keep).encode("utf-8"))
    return h.hexdigest()[:16]


def _study(experiment: str, scratch: Path, activations=None, **overrides) -> str:
    """The digest of the starter study of `experiment`, with `overrides`."""
    raw = yaml.safe_load(_stdout("emit-default-config", experiment))
    out = scratch / f"out-{len(list(scratch.iterdir()))}"
    raw.update(overrides, output_dir=str(out))
    if activations is not None:
        raw["activations"] = activations(raw["activations"])
    path = out.with_suffix(".yaml")
    path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    _stdout("run", str(path))
    return csv_digest(out)


def _mnist_synthetic(scratch: Path, files=(1200, 500), rows=(1000, 400),
                     architecture=(784, 64, 10)) -> str:
    """A 784-wide study of relu, gelu and the starter's ewend, 2 epochs of
    `rows` train and test rows, on seeded MNIST-format files of `files`
    train and test images: one noisy class pattern per label.  The config
    names the files relative to `scratch`, the working directory of the
    run, so its digest does not depend on where `scratch` is."""
    rng = np.random.default_rng(2024)
    prototypes = rng.integers(0, 256, size=(10, 28, 28))
    for part, n in zip(("train", "test"), files):
        labels = rng.integers(0, 10, size=n)
        noise = rng.integers(0, 64, size=(n, 28, 28))
        write_idx_images(scratch / f"{part}-images", (prototypes[labels] * 3 + noise) // 4)
        write_idx_labels(scratch / f"{part}-labels", labels)
    dataset = {f"{part}_{kind}": f"{part}-{kind}" for part in ("train", "test")
               for kind in ("images", "labels")}
    here = Path.cwd()
    os.chdir(scratch)
    try:
        return _study("mnist", scratch, lambda acts: ["relu", "gelu", acts[-1]],
                      architecture=list(architecture), epochs=2,
                      dataset={**dataset, "n_train": rows[0], "n_test": rows[1]})
    finally:
        os.chdir(here)


def cases(scratch: Path) -> dict:
    """Each case's name and a function that computes its digest."""
    found = {f"starter-{exp}": (lambda exp=exp: _short(_stdout("emit-default-config", exp)))
             for exp in cli.EXPERIMENTS}
    found["list-activations"] = lambda: _short(_stdout("list-activations"))
    for seed in ("0", "6016"):
        found[f"grad-check-seed{seed}"] = (
            lambda seed=seed: _short(_stdout("grad-check", "--seed", seed, "--probes", "200")))
    for exp in ("sine", "moons", "circles"):
        found[f"study-{exp}"] = lambda exp=exp: _study(exp, scratch)
    found["study-moons-channel"] = lambda: _study(
        "moons", scratch, lambda acts: acts[:2] + [CHANNEL_EWEND] + acts[2:])
    found["study-moons-mix"] = lambda: _study(
        "moons", scratch, lambda acts: MIX, epochs=20, repetitions=2,
        optimizer={"kind": "sgd", "lr": 0.3, "momentum": 0.9})
    # Adam's step so large that some replicas diverge mid-run and leave its moments
    found["study-moons-mix-adam"] = lambda: _study(
        "moons", scratch, lambda acts: MIX, epochs=20, repetitions=2,
        optimizer={"kind": "adam", "lr": 400.0})
    found["study-sine-mix"] = lambda: _study(
        "sine", scratch, lambda acts: acts + MIX[2:], epochs=30, repetitions=3)
    found["study-mnist-synthetic"] = lambda: _mnist_synthetic(scratch)
    # perfbench's mnist-shape study: its second product, 400 x 256 x 10 at
    # the test rows, sits just above BLAS's small-matrix bound, so any cut
    # of an eval layer into row blocks that lands under it shows here
    found["study-mnist-bench-shape"] = lambda: _mnist_synthetic(
        scratch, files=(2400, 500), rows=(2000, 400), architecture=(784, 256, 10))
    return found


def platform_info() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {MANIFEST.name} with the digests of this checkout")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        digests = {name: digest() for name, digest in cases(Path(scratch)).items()}
    here = platform_info()
    if args.record:
        MANIFEST.write_text(json.dumps({"platform": here, "digests": digests}, indent=2) + "\n",
                            encoding="utf-8")
        print(f"recorded {len(digests)} digests in {MANIFEST}")
        return 0
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if manifest["platform"] != here:
        print(f"recorded on {manifest['platform']}, running on {here}")
    recorded = manifest["digests"]
    changed = [name for name in {**recorded, **digests} if recorded.get(name) != digests.get(name)]
    for name in changed:
        print(f"{name}: {recorded.get(name)} -> {digests.get(name)}")
    print(f"{len(digests) - len(changed)} of {len(digests)} digests match")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
