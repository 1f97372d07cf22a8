"""Self-test of the benchmark on tiny versions of every workload.

Run from the repository root:

    python3 sepbench/selftest.py

For each workload in BENCHMARK.json it runs run.py with --smoke (1 s clip,
1 iteration) twice untraced and once traced, and checks that:
- the last stdout line holds exactly correct, attempted, failed, metrics,
  with every output check passed;
- every end_to_end (untraced) or per_layer (traced) metric is emitted with
  the manifest's unit and a finite value, and nothing else;
- two runs with one seed give identical si_sdr_gain_db and nll_per_bin;
- the traced self times account for the whole traced call.
It finally checks that run.py fails without printing a result when the
directory holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, cwd: pathlib.Path = ROOT):
    cmd = [sys.executable, "sepbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)


def result_of(proc, label: str):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    detail, result = json.loads(lines[0]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1
            and result["failed"] == 0):
        raise AssertionError(f"{label}: {result} {detail['failures']}")
    return detail, result


def check_metrics(result: dict, declared: list, label: str) -> None:
    expected = {entry["name"]: entry["unit"] for entry in declared}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if emitted != expected:
        raise AssertionError(f"{label}: emitted {emitted}, declared {expected}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise AssertionError(f"{label}: {name} = {value!r}")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and sepbench/: run.py must fail with no result."""
    work = BENCH_DIR / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        bare = pathlib.Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "sepbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run("stereo-nig", 0, cwd=bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        raise AssertionError(f"bare directory: exit {proc.returncode},"
                             f" last line {last!r}")


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in manifest["workloads"]):
        first = result_of(run(workload, 0), f"{workload} untraced")
        second = result_of(run(workload, 0), f"{workload} untraced again")
        for (detail, result), label in ((first, "first"), (second, "second")):
            check_metrics(result, manifest["end_to_end"], f"{workload} {label}")
        for key, a, b in (
                ("si_sdr_gain_db", first[0]["si_sdr_gain_db"],
                 second[0]["si_sdr_gain_db"]),
                ("nll_per_bin", first[1]["metrics"]["nll_per_bin"]["value"],
                 second[1]["metrics"]["nll_per_bin"]["value"])):
            if a != b:
                raise AssertionError(f"{workload}: {key} {a!r} != {b!r}")

        detail, result = result_of(run(workload, 1), f"{workload} traced")
        check_metrics(result, manifest["per_layer"], f"{workload} traced")
        accounted = sum(detail["shares"].values())
        if abs(accounted - 1.0) > 1e-9:
            raise AssertionError(f"{workload}: self times cover {accounted!r}"
                                 f" of the traced call")
        print(f"{workload}: ok (si_sdr_gain_db {first[0]['si_sdr_gain_db']},"
              f" score failures {first[0]['score']['failed']})", flush=True)

    check_bare_directory()
    print("bare directory: fails without a result")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
