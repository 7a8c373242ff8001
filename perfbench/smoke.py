"""Smoke check for the benchmark: every workload at a tiny size, untraced
and traced, plus the refusal to run without the program's sources.

Run from the root of a wendnet checkout:

    python3 perfbench/smoke.py

It exits 0 when every run prints a result line that names exactly the
metrics BENCHMARK.json lists and reports every job correct.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _run(args, cwd="."):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    # every workload run.py offers, also those BENCHMARK.json leaves out
    for workload in WORKLOADS:
        for trace in (0, 1):
            before = len(problems)
            proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--tiny"])
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            elif not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                problems.append(f"{where}: {proc.stdout[-2000:]}")
            elif set(result["metrics"]) != wanted[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json by "
                                f"{sorted(set(result['metrics']) ^ wanted[trace])}")
            print(f"{where}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)

    # a directory holding only the benchmark must make it fail, printing no result
    bare = Path(".perfbench_out") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"bare directory: exit {proc.returncode}")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAILED {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
