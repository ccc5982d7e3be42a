"""The names that the benchmark's traced runs patch or call must exist, and
its workloads must pass their gates.

``bench/tracing.py`` wraps kerrfem functions by (module, attribute), and
``bench/workloads.py`` reads attributes of the assembled forms in its gates;
a rename in the package would otherwise surface only when the benchmark
runs.  Both modules are loaded by path and only read.
"""

import importlib.util
import os
import sys

import numpy as np
import pytest

from kerrfem import cli_io, dynamics, linalg, verification
from kerrfem.assembly import build_forms
from kerrfem.mesh import build_topology, generate_structured_cube

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load_bench_module("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load_bench_module("workloads")


@pytest.mark.parametrize("name", ["kerr-eoc", "cavity-long", "nedelec-kerr"])
def test_toy_workloads_pass_their_gates(workloads, name, tmp_path):
    out = workloads.run(workloads.WORKLOADS[name], lambda n: workloads.seeded_cube(n, 1),
                        str(tmp_path), toy=True)
    assert np.isfinite(out["err_final"])


def test_traced_names_exist(tracing):
    for module, attr, span in tracing.TOP_LEVEL + tracing.LAYERS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_patched_entry_points_exist():
    for module, attr in ((linalg, "factorized"), (cli_io, "get_case"),
                         (dynamics, "integrate"), (verification, "integrate"),
                         (verification, "generate_structured_cube")):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_case_sources_march(tracing):
    # traced kerr-eoc runs replace the case's current closures with timed
    # wrappers; the case must stay replaceable and its sources must still march
    case = tracing.Recorder()._traced_case(cli_io.get_case)("kerr-manufactured")
    mesh = generate_structured_cube(2)
    forms = build_forms(mesh, build_topology(mesh), case.params)
    st = dynamics.initialize(lambda X: case.E(0.0, X), lambda X: case.H(0.0, X),
                             "lee-madsen", forms, H0_curl=lambda X: case.curl_H(0.0, X))
    new, _ = dynamics.integrate(st, 0.01, 1, case.sources, forms, collect=False)
    assert not case.sources.is_zero
    assert new.t == pytest.approx(0.01)
    assert np.isfinite(new.e).all() and np.isfinite(new.h).all()
