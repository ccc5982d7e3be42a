"""kerrfem benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The repetitions of a run share one fresh process (``bench/rep.py``) with
OpenBLAS, OpenMP and MKL pinned to one thread.  With ``--trace 0`` that
process repeats the workload until the next repetition would end after
``--seconds``, and the end-to-end metrics are medians over the repetitions.
With ``--trace 1`` one untraced and one traced repetition run, each in its
own process; the per-layer metrics come from the traced one, and
``trace.overhead_s`` is the difference of their wall times.  Every
repetition must pass its workload's correctness gate.

Earlier stdout lines are a human-readable summary and the environment; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits with status 2, printing no result, when
the checkout holds no kerrfem sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kerr-eoc", "cavity-long", "nedelec-kerr")
DEFAULT_SEED = 1
TIME_LIMIT = 170.0  # seconds; a run must end within 180
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# SHA-256 of the first passing EOC CSV per seed and size, kept in the
# checkout so that later runs there are compared with the first one.
CSV_HASHES = os.path.join(ROOT, ".bench_state", "eoc_csv_sha256.json")


def run_worker(workload: str, seed: int, traced: bool, toy: bool, seconds: float,
               timeout: float) -> dict:
    """Run repetitions in a fresh process and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update({name: "1" for name in PINNED})
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), workload, str(seed),
           str(int(traced)), str(int(toy)), f"{max(seconds, 0.0):.3f}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"reps": [{"ok": False, "reason": f"worker exceeded {timeout:.0f} s"}]}
    lines = proc.stdout.strip().splitlines()
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        return {"reps": [{"ok": False,
                          "reason": f"worker exited with status {proc.returncode}"}]}
    return json.loads(lines[-1])


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() or "unknown"


def check_csv(reps: list, key: str) -> None:
    """Fail every repetition whose EOC CSV differs from the checkout's first."""
    hashes = {}
    if os.path.isfile(CSV_HASHES):
        with open(CSV_HASHES, encoding="utf-8") as fh:
            hashes = json.load(fh)
    if key not in hashes:
        first = next((r["csv_sha256"] for r in reps if r.get("ok") and "csv_sha256" in r), None)
        if first is None:
            return
        hashes[key] = first
        os.makedirs(os.path.dirname(CSV_HASHES), exist_ok=True)
        with open(CSV_HASHES + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(hashes, fh, indent=1, sort_keys=True)
        os.replace(CSV_HASHES + ".tmp", CSV_HASHES)
    for r in reps:
        if r.get("csv_sha256", hashes[key]) != hashes[key]:
            r.update(ok=False, reason="EOC CSV differs from the first run's in this checkout")


# End-to-end timings, the host-speed factor of each and how it scales.
TIMINGS = (("wall_s", "s", "host_factor", 1), ("setup_s", "s", "host_setup_factor", 1),
           ("steps_per_s", "1/s", "host_factor", -1))


def end_to_end(timed: list, peak_rss_mb: float) -> dict:
    """Medians over the repetitions of their timings, each rescaled by the
    host-speed factor measured while it ran."""
    metrics = {name: {"value": statistics.median(r[name] * r[factor] ** power for r in timed),
                      "unit": unit} for name, unit, factor, power in TIMINGS}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    errors = [r["err_final"] for r in timed if "err_final" in r]
    if errors:
        metrics["err_final"] = {"value": statistics.median(errors), "unit": "1"}
    return metrics


def summary(metrics: dict, reps: list) -> list:
    factors = sorted(r["host_factor"] for r in reps)
    lines = [f"{'host_factor':34s} {statistics.median(factors):.6g}  (median; min "
             f"{factors[0]:.6g}, max {factors[-1]:.6g}; "
             f"{sum(r['host_samples'] for r in reps)} reference-kernel samples)"]
    for name, m in metrics.items():
        values = sorted(r[name] for r in reps if name in r)
        note = (f"median of {len(values)}; unscaled median {statistics.median(values):.6g}, "
                f"min {values[0]:.6g}, max {values[-1]:.6g}" if values else "one per run")
        lines.append(f"{name:34s} {m['value']:.6g} {m['unit']}  ({note})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy problem sizes, for the smoke check only")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kerrfem", "__init__.py")):
        print(f"error: no kerrfem sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.perf_counter()

    def remaining() -> float:
        return TIME_LIMIT - (time.perf_counter() - start)

    if args.trace:
        workers = [run_worker(args.workload, args.seed, traced, args.toy, 0.0, remaining())
                   for traced in (False, True)]
    else:
        seconds = min(args.seconds, TIME_LIMIT - 10.0)
        workers = [run_worker(args.workload, args.seed, False, args.toy, seconds, remaining())]
    reps = [r for w in workers for r in w["reps"]]

    check_csv(reps, f"seed={args.seed},toy={int(args.toy)}")
    failed = sum(1 for r in reps if not r.get("ok"))
    for r in reps:
        if not r.get("ok"):
            print(f"FAILED: {r.get('reason')}", file=sys.stderr)

    if args.trace:
        untraced, traced = (w["reps"][0] for w in workers)
        if "layers" not in workers[1] or "wall_s" not in untraced:
            print("error: traced run produced no per-layer metrics", file=sys.stderr)
            return 1
        layers = dict(workers[1]["layers"])
        layers["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
        lines = [f"{k:34s} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    else:
        # medians over the passing repetitions; if none passed, over all
        # that completed, so that the failed run still reports its times
        timed = [r for r in reps if r.get("ok")] or [r for r in reps if "wall_s" in r]
        if not timed:
            print("error: no repetition completed", file=sys.stderr)
            return 1
        metrics = end_to_end(timed, workers[0]["peak_rss_mb"])
        lines = summary(metrics, timed)
    lines.append(f"{'failed_frac':34s} {failed / len(reps):.6g} 1  ({failed} of {len(reps)})")

    env = next((w["env"] for w in workers if "env" in w), {})
    env.update(git_sha=git_sha(), cpu_count=os.cpu_count(), workload=args.workload,
               seed=args.seed, seconds=args.seconds, trace=args.trace, toy=args.toy,
               threads={name: "1" for name in PINNED})
    print(f"kerrfem benchmark: {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {len(reps)} repetitions")
    print("\n".join(lines))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
