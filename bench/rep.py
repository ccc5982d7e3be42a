"""Repetitions of a benchmark workload, in one fresh process.

Usage: python3 bench/rep.py WORKLOAD SEED TRACED TOY SECONDS

Untraced, it repeats the workload until the next repetition would end after
SECONDS, with at least one, while ``hostspeed.Sampler`` times its reference
kernel, and gives each repetition the host-speed factor of the samples
taken while it ran (and its set-up that of the samples around each set-up
call); SECONDS 0 runs a single repetition without it.
Traced, it runs one repetition with every layer span installed and then
the stability-limit probe.  It prints one JSON object on its last stdout
line: a record per repetition (gate outcome, wall, set-up and marching
times, steps, ``err_final``, host-speed factors), the process's peak RSS,
the library versions and, when traced, the per-layer metrics.  ``bench/run.py``
starts this script with the package path and thread pinning set.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
import traceback

import numpy as np
import scipy

import hostspeed
import kerrfem
import tracing
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def layer_metrics(rec: tracing.Recorder, formulation: str, wall: float) -> dict:
    """Per-layer self times and counts of a traced run, as (value, unit)."""
    steps = max(rec.steps, 1)
    if formulation == "lee-madsen":
        # each Picard sweep inverts the constitutive law once
        sweeps = rec.calls("material.e_of_d")
    else:
        # one flux load per step, then per sweep one per Newton Jacobian plus
        # the converged residual
        sweeps = (rec.calls("assembly.flux_load") - rec.calls("assembly.nonlinear_mass")
                  - rec.steps)
    out = {name + "_s": (rec.self_time(name), "s") for name in (
        "mesh.generate", "mesh.topology", "mesh.size", "assembly.build_forms",
        "dynamics.initialize", "assembly.projection", "linalg.saddle",
        "assembly.source_load", "verification.source_eval", "linalg.factorize",
        "linalg.lu_solve", "material.e_of_d", "material.d_of_e",
        "assembly.nonlinear_mass", "assembly.flux_load", "dynamics.monitor",
        "verification.error_norms", "cli_io.self",
    )}
    out["dynamics.integrate_self_s"] = (rec.self_time("dynamics.integrate"), "s")
    out["verification.study_self_s"] = (rec.self_time("verification.study"), "s")
    for metric, name in (("assembly.source_loads", "assembly.source_load"),
                         ("verification.source_evals", "verification.source_eval"),
                         ("linalg.factorizations", "linalg.factorize"),
                         ("linalg.lu_solves", "linalg.lu_solve"),
                         ("material.e_of_d_calls", "material.e_of_d"),
                         ("assembly.flux_loads", "assembly.flux_load")):
        out[metric] = (rec.calls(name), "count")
    out["dynamics.steps"] = (rec.steps, "count")
    out["dynamics.sweeps_per_step"] = (sweeps / steps, "1/step")
    out["assembly.jacobians_per_step"] = (rec.calls("assembly.nonlinear_mass") / steps, "1/step")
    self_sum = sum(s.self_time for s in rec.stats.values())
    out["trace.wall_s"] = (wall, "s")
    out["trace.glue_s"] = (wall - self_sum, "s")
    out["trace.spans"] = (sum(s.calls for s in rec.stats.values()), "count")
    return out


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kerrfem": kerrfem.__version__,
    }


def repetition(workload: wl.Workload, seed: int, traced: bool, toy: bool,
               clock=time.perf_counter):
    """Run the workload once with fresh spans; return its record and recorder."""
    rec = tracing.Recorder(clock, logged=tracing.SETUP_SPANS)
    cube = rec.span("mesh.generate", functools.partial(wl.seeded_cube, seed=seed))
    rec.install(cube, traced)
    out = {"ok": True, "reason": ""}
    start = clock()
    try:
        out.update(wl.run(workload, cube, ROOT, toy))
    except wl.GateError as exc:
        out.update(ok=False, reason=str(exc))
    except Exception as exc:  # counted as a failed repetition, not a harness crash
        traceback.print_exc()
        out.update(ok=False, reason=f"{type(exc).__name__}: {exc}")
    wall = clock() - start
    rec.restore()
    march = rec.total(tracing.MARCH_SPAN)
    out.update(
        wall_s=wall,
        setup_s=rec.total(*tracing.SETUP_SPANS),
        march_s=march,
        steps=rec.steps,
        steps_per_s=rec.steps / march if march > 0 else 0.0,
    )
    return out, rec


def main(argv) -> int:
    name, seed, traced, toy = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    seconds = float(argv[4])
    workload = wl.WORKLOADS[name]
    result = {"reps": []}
    if traced or not seconds:
        record, rec = repetition(workload, seed, traced, toy)
        result["reps"].append(record)
    else:
        start = time.perf_counter()
        with hostspeed.Sampler() as speed:
            while True:
                began = time.perf_counter()
                first = len(speed.samples)
                speed.sample()
                record, rec = repetition(workload, seed, traced, toy, speed.clock)
                speed.sample()
                factor = speed.factor(first, len(speed.samples))
                setup = sum(speed.local_factor(t, t + d) * d
                            for log in rec.intervals.values() for t, d in log)
                record.update(host_factor=factor,
                              host_setup_factor=(setup / record["setup_s"]
                                                 if record["setup_s"] > 0 else factor),
                              host_samples=len(speed.samples) - first)
                result["reps"].append(record)
                took = time.perf_counter() - began
                if time.perf_counter() - start + took > seconds:
                    break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = versions()
    if traced:
        layers = layer_metrics(rec, workload.formulation, record["wall_s"])
        plain = functools.partial(wl.seeded_cube, seed=seed)
        n_probe = 2 if toy else 4
        limits = {f: wl.max_stable_dt_over_h(plain, f, n_probe)
                  for f in ("lee-madsen", "nedelec")}
        layers["dynamics.max_dt_over_h_lm"] = (limits["lee-madsen"], "1")
        layers["dynamics.max_dt_over_h_ned"] = (limits["nedelec"], "1")
        layers["dynamics.max_dt_over_h"] = (min(limits.values()), "1")
        layers["repo.src_lines"] = (wl.src_lines(ROOT), "lines")
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
