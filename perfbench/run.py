"""wendnet benchmark: one command, three workloads, end-to-end metrics and a
traced per-layer split.

Run from the root of a wendnet checkout:

    python3 perfbench/run.py --workload mnist-shape --seed 1 --seconds 20 --trace 0

It imports the program from ./src, makes its inputs from --seed under
./.perfbench_out/, measures for --seconds and checks every job's output.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
the same studies untraced and then traced and reports the per-layer
metrics.  The last line of standard output is one JSON object; a fuller
record (host, versions, digests) goes to
.perfbench_out/<workload>/result-seed<n>-trace<t>.json.  See README.md.
"""

import os

# BLAS threads are pinned before NumPy loads; with one benchmark process and
# one BLAS thread nothing else competes for the cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 120
OUT_DIR = ".perfbench_out"
TAIL_LADDER = (90.0, 50.0)


class FirstJob(BaseException):
    """Raised at the first job of a study to end a set-up measurement."""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mnist-shape", "toy-moons", "gradcheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input, for the smoke check")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    """Import wendnet from ./src of the current directory, nowhere else."""
    src = Path.cwd() / "src"
    if not (src / "wendnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no wendnet sources under {src}; "
                         "run from the root of a wendnet checkout")
    sys.path.insert(0, str(src))
    import wendnet
    from wendnet import cli
    if Path(wendnet.__file__).resolve().parent != (src / "wendnet").resolve():
        raise SystemExit(f"error: imported wendnet from {wendnet.__file__}, not {src}")
    return cli


def _setup_child(workload):
    """Body of one fresh set-up process: import, warm up, then set up the
    study and stop where its first job starts."""
    cli = _import_program()
    from wendnet import network
    from probe import Patcher

    workload.warm_up(cli)

    def stop(orig):
        def first_job(*a, **k):
            raise FirstJob
        return first_job

    Patcher().function(network, "run_gradient_check" if workload.gradcheck else "build_mlp",
                       stop)
    try:
        workload.start_study(cli)
    except FirstJob:
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0
    print("error: the study never started a job", file=sys.stderr)
    return 1


def _setup_seconds(args) -> float:
    """Time from spawning a fresh process to its first job.  The child
    reports its own reading of the system-wide monotonic clock, so its exit
    is not timed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("error: a set-up process timed out")
    fields = stdout.split()
    if proc.returncode != 0 or fields[:1] != ["ready"]:
        raise SystemExit(f"error: set-up process exited with {proc.returncode}")
    return float(fields[1]) - t0


def _timed_studies(workload, cli, probe, ref, seconds: float, per_job: bool = True,
                   between=None):
    """Run whole studies for `seconds`: at least one, and another only while
    a study of the mean length so far still fits.  `between`, if given, is
    called after each study, its time added to the deadline.

    With `per_job`, a slice of the reference loop runs at the start of every
    job and its time is left out of the study's; otherwise a slice runs
    before the first study and after each.  A study's reference rate is that
    of the slices in it, or beside it."""
    from probe import clock

    slices: list[float] = []
    if per_job:
        probe.job_hook = lambda: slices.append(ref.slice_seconds())
    else:
        slices.append(ref.slice_seconds())
    studies, lengths = [], []
    deadline = clock() + seconds
    while not studies or clock() + statistics.mean(lengths) <= deadline:
        t0, first = clock(), len(slices) - (0 if per_job else 1)
        study = workload.run_study(cli, probe)
        if not per_job or len(slices) == first:
            slices.append(ref.slice_seconds())
        study.ref_items_per_s = ref.items_per_s(statistics.mean(slices[first:]))
        studies.append(study)
        lengths.append(clock() - t0)
        if between is not None:
            t1 = clock()
            between()
            deadline += clock() - t1
    probe.job_hook = None
    return studies


def _tail(op_ms) -> tuple[float, float]:
    """p90 of the op times, or p50 when fewer than 10 ops lie beyond p90."""
    import numpy as np

    for p in TAIL_LADDER:
        value = float(np.percentile(op_ms, p))
        if int(np.sum(np.asarray(op_ms) > value)) >= 10:
            break
    return p, value


def _host_info(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": int(BLAS_THREADS), "seed": seed}


def _fastest(studies):
    """The fastest quarter of a run's studies (at least one), fastest first.

    Every study of a run does identical work.  On a shared host other
    tenants take up to half of the core's speed, in stretches from
    milliseconds to minutes that the program cannot tell from its own work,
    so a run's median study follows how much of the run the host was busy.
    The fastest studies measure the program with the core mostly to itself;
    see README.md for the spreads that decided this."""
    k = max(1, len(studies) // 4)
    return sorted(studies, key=lambda s: s.items / s.wall_s, reverse=True)[:k]


def _items_per_s(studies) -> float:
    """Items per second of the fastest study."""
    return max(s.items / s.wall_s for s in studies)


def _speed_vs_numpy(studies) -> float:
    """Median over studies of the study's rate over the rate of its
    reference slices (see reference.py)."""
    return statistics.median(s.items / s.wall_s / s.ref_items_per_s for s in studies)


def _op_times(probe, studies):
    """Op times of `studies` and the job label (activation or kind) of each."""
    import numpy as np

    idx = np.array([i for s in studies for i in s.ops], dtype=np.int64)
    labels = np.array(probe.job_labels)[np.array(probe.op_jobs)[idx]]
    return np.array(probe.op_ms)[idx], labels


def _op_p50(op_ms, labels) -> float:
    """Median op time of each label, averaged over the labels.  Every label
    runs the same number of ops and the labels' costs differ by up to 4x,
    so a pooled median could fall in the gap between cheap and costly ones."""
    import numpy as np

    return float(np.mean([np.median(op_ms[labels == lab]) for lab in np.unique(labels)]))


def _digest_failures(studies) -> list[str]:
    """All studies of a run have the same inputs, so their digests must agree."""
    return [f"study {i} digest {s.digest[:12]} differs from study 0"
            for i, s in enumerate(studies) if s.digest != studies[0].digest]


def main(argv=None) -> int:
    args = _parse_args(argv)
    from workloads import WORKLOADS

    root = Path(OUT_DIR) / args.workload
    workload = WORKLOADS[args.workload](root, args.seed, args.tiny)
    if args.setup_child:
        return _setup_child(workload)

    cli = _import_program()
    from probe import Probe
    from spans import Tracer, per_layer_metrics

    root.mkdir(parents=True, exist_ok=True)
    workload.prepare(cli)
    # set-up samples run one at a time between the timed studies, so that
    # they spread over the run instead of all meeting one state of the host
    setup: list[float] = []
    setup_samples = 0 if args.trace else 1 if args.tiny else SETUP_SAMPLES

    def sample_setup():
        if len(setup) < setup_samples:
            setup.append(_setup_seconds(args))

    probe = Probe(workload.gradcheck, workload.expected_rows)
    probe.install()
    workload.warm_up(cli)
    ref = workload.reference()
    ref.slice_seconds()   # warm-up
    seconds = args.seconds / 2 if args.trace else args.seconds
    studies = _timed_studies(workload, cli, probe, ref, seconds, between=sample_setup)
    while len(setup) < setup_samples:
        sample_setup()
    result: dict = {"workload": args.workload, "trace": args.trace,
                    "host": _host_info(args.seed)}
    if args.trace:
        tracer = Tracer(probe)
        traced_first_op, traced_first_job = len(probe.op_ms), len(probe.job_labels)
        probe.uninstall()
        tracer.install()
        probe.install()   # outermost, so spans inside an op carry its id
        # reference slices inside a study would count in the spans around
        # its jobs, so the traced phase runs them between studies
        traced = _timed_studies(workload, cli, probe, ref, seconds, per_job=False)
        probe.uninstall()
        tracer.uninstall()
        tracer.save(root / f"trace-seed{args.seed}.npz")
        untraced_speed = _speed_vs_numpy(studies)
        studies += traced
        metrics = per_layer_metrics(
            tracer, traced_first_op, studies=len(traced),
            jobs=len(probe.job_labels) - traced_first_job,
            epochs=workload.epochs_per_study * len(traced),
            csv_bytes=statistics.mean(s.csv_bytes for s in traced),
            untraced_speed=untraced_speed, traced_speed=_speed_vs_numpy(traced))
    else:
        fastest = _fastest(studies)
        op_ms, labels = _op_times(probe, fastest)
        tail_pct, tail = _tail(op_ms)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "speed_vs_numpy": (_speed_vs_numpy(studies), "ratio"),
        }
        all_ms, all_labels = _op_times(probe, studies)
        whole_run = {"items_per_s_median": statistics.median(s.items / s.wall_s for s in studies),
                     "op_ms_p50": _op_p50(all_ms, all_labels), "op_ms_tail": _tail(all_ms)[1]}
        result.update(setup_samples_s=setup, items_per_s=_items_per_s(studies),
                      ref_items_per_s=[s.ref_items_per_s for s in studies],
                      studies_kept=len(fastest), ops=len(op_ms),
                      op_ms_p50=_op_p50(op_ms, labels), op_ms_tail=tail,
                      tail_percentile=tail_pct, whole_run=whole_run)
    probe.uninstall()

    failures = [f for s in studies for f in s.failures]
    failures += _digest_failures(studies)
    failures += workload.rerun_check(cli)
    if not args.trace:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    attempted = sum(s.jobs for s in studies)
    failed = min(len(failures), attempted)
    result.update(
        studies=len(studies), jobs=attempted, failed_jobs=failed,
        failed_job_ratio=failed / attempted, failures=failures[:20],
        digest=studies[0].digest, study_seconds=[s.wall_s for s in studies],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    out = root / f"result-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    host = result["host"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} studies={len(studies)}")
    print("# host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"# digest {result['digest']}")
    for f in failures[:20]:
        print(f"# FAILED {f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        print(f"items_per_s {result['items_per_s']:.6g} 1/s")
        print(f"op_ms_p50 {result['op_ms_p50']:.6g} ms")
        print(f"op_ms_tail {tail:.6g} ms")
        print(f"failed_job_ratio {failed / attempted:.6g} fraction ({failed}/{attempted} jobs)")
        print(f"# items_per_s from the fastest study; op_ms_* from the fastest "
              f"{len(fastest)} of {len(studies)} studies; "
              f"op_ms_tail is p{tail_pct:g} of their {len(op_ms)} ops")
        print("# whole run: " + " ".join(f"{k}={v:.6g}" for k, v in whole_run.items()))
    print(f"# full record: {out}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
