"""Smoke check of the benchmark itself; gates on no timing.

Usage (from the root of a checkout):  python3 bench/smoke.py

Runs every workload at toy size, untraced and traced, and checks that the
last stdout line has the agreed schema and names exactly the metrics that
``BENCHMARK.json`` lists, with their units.  Then copies ``BENCHMARK.json``
and ``bench/`` into an otherwise empty directory and checks that the
benchmark exits nonzero there without printing a result.  Exits 1 on the
first problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_result(line: str, expected: dict) -> None:
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        raise AssertionError("a correctness gate failed")
    for key in ("attempted", "failed"):
        if type(result[key]) is not int:
            raise AssertionError(f"{key} is not a whole number")
    if result["attempted"] < 1 or result["failed"] != 0:
        raise AssertionError(f"attempted {result['attempted']}, failed {result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise AssertionError(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected[name]:
            raise AssertionError(f"{name}: {m}")
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            raise AssertionError(f"{name}: value {m['value']!r} is not a finite number")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    groups = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in groups.items():
            cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace), "--toy"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            try:
                if proc.returncode != 0:
                    raise AssertionError(f"exit status {proc.returncode}")
                check_result(proc.stdout.strip().splitlines()[-1],
                             {m["name"]: m["unit"] for m in group})
            except (AssertionError, IndexError, ValueError) as exc:
                print(f"FAIL {label}: {exc}\n{proc.stderr}", file=sys.stderr)
                return 1
            print(f"ok   {label}")

    bare = tempfile.mkdtemp(prefix=".bench_tmp_smoke_", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        print("FAIL: the benchmark printed a result without kerrfem sources", file=sys.stderr)
        return 1
    print("ok   exits nonzero without kerrfem sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
