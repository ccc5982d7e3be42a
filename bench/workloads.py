"""The benchmark's workloads: seeded inputs, the runs, and their correctness gates.

Every workload runs single-process and deterministically for a given seed.
The seed only moves the interior vertices of the structured unit cube (see
:func:`seeded_cube`); kerrfem receives the resulting ``Mesh`` and nothing
else.  Each workload puts most of its time in a different set of layers:

- ``kerr-eoc``: the paper's headline result, the Kerr manufactured solution
  under refinement through ``kerrfem converge``.  Dominated by manufactured
  source evaluation and source-load assembly; the only workload with
  sources, so source work shows here and nowhere else.
- ``cavity-long``: many cheap linear lee-madsen steps with no sources and
  no nonlinear assembly.  Picard loop overhead, LU back-solves and the
  per-step monitors dominate; the no-change control for assembly and
  source work.
- ``nedelec-kerr``: the only workload on the nedelec path, with a Kerr
  medium.  Nonlinear mass and flux assembly plus one LU factorization per
  Newton iteration dominate.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from kerrfem import assembly, cli_io, dynamics, mesh, verification
from kerrfem.material import MaterialParams

# Largest displacement of an interior vertex, per coordinate, as a share of
# the lattice spacing 1/n.  At 3% every tet keeps its orientation and shape
# (h grows by 1-6% on the meshes used here), and boundary vertices stay, so
# the domain is still the unit cube and the cavity eigenmode is still exact.
JITTER = 0.03

EOC_RANGE = (0.8, 1.3)      # accepted combined EOC of the Kerr study
ENERGY_DRIFT_MAX = 1e-9     # relative energy drift of the linear cavity runs
DIVERGENCE_MAX = 1e-10      # cellwise div H_h relative to its terms


class GateError(Exception):
    """A workload's output failed its correctness check."""


def seeded_cube(n: int, seed: int) -> mesh.Mesh:
    """Kuhn cube of n**3 subcubes with seeded jitter on its interior vertices."""
    base = mesh.generate_structured_cube(n)
    vertices = base.vertices.copy()
    interior = np.all((vertices > 0.0) & (vertices < 1.0), axis=1)
    rng = np.random.default_rng([seed, n])
    shift = rng.uniform(-JITTER / n, JITTER / n, size=vertices.shape)
    vertices[interior] += shift[interior]
    return mesh.make_mesh(vertices, base.tets)


@dataclass(frozen=True)
class Workload:
    name: str
    formulation: str
    chi3: float
    full: dict
    toy: dict

    @property
    def params(self) -> MaterialParams:
        return MaterialParams(chi3=self.chi3)


WORKLOADS = {
    w.name: w for w in (
        Workload("kerr-eoc", "lee-madsen", 1.0,
                 full={"levels": "2,4,8"}, toy={"levels": "2,4"}),
        Workload("cavity-long", "lee-madsen", 0.0,
                 full={"n": 4, "dt": 1e-3, "steps": 1000},
                 toy={"n": 2, "dt": 1e-3, "steps": 50}),
        Workload("nedelec-kerr", "nedelec", 1.0,
                 full={"n": 4, "dt": 0.01, "steps": 10},
                 toy={"n": 2, "dt": 0.01, "steps": 2}),
    )
}


def run(workload: Workload, cube, root: str, toy: bool) -> dict:
    """Run one workload; return its outputs or raise GateError."""
    size = workload.toy if toy else workload.full
    if workload.name == "kerr-eoc":
        return _kerr_eoc(workload, size["levels"], root)
    return _cavity(workload, cube(size["n"]), size["dt"], size["steps"])


def _setup(formulation: str, params: MaterialParams, grid: mesh.Mesh, case):
    topo = mesh.build_topology(grid)
    forms = assembly.build_forms(grid, topo, params)
    state = dynamics.initialize(lambda X: case.E(0.0, X), lambda X: case.H(0.0, X),
                                formulation, forms, H0_curl=lambda X: case.curl_H(0.0, X))
    return forms, state


def _kerr_eoc(workload: Workload, levels: str, root: str) -> dict:
    workdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=root)
    try:
        out = os.path.join(workdir, "eoc.csv")
        status = cli_io.cli_main(["converge", "--case", "kerr-manufactured",
                                  "--chi3", f"{workload.chi3:g}", "--levels", levels,
                                  "--out", out])
        if status != 0:
            raise GateError(f"kerrfem converge exited with status {status}")
        with open(out, "rb") as fh:
            csv = fh.read()
    finally:
        shutil.rmtree(workdir)
    rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
    total = np.array([float(r[2]) + float(r[3]) for r in rows])
    eoc = np.log2(total[:-1] / total[1:])
    lo, hi = EOC_RANGE
    if not np.all((eoc >= lo) & (eoc <= hi)):
        raise GateError(f"combined EOC {eoc.tolist()} outside [{lo}, {hi}]")
    return {"err_final": float(total[-1]), "csv_sha256": hashlib.sha256(csv).hexdigest()}


def _cavity(workload: Workload, grid: mesh.Mesh, dt: float, steps: int) -> dict:
    case = verification.cavity_mode_case(t_final=steps * dt)
    forms, state = _setup(workload.formulation, workload.params, grid, case)
    state, trace = dynamics.integrate(state, dt, steps, dynamics.ZERO_SOURCES, forms)
    if dynamics.stability_bound_check(trace)[1]:
        raise GateError("stability bound violated")
    if workload.formulation == "nedelec":
        terms = np.abs(state.h[forms.dof_v.cell_dofs] * forms.ctx.face_divs)
        div = np.abs(dynamics.discrete_divergence(state, forms))
        scale = max(float(np.max(terms)), 1.0)
        if np.max(div) > DIVERGENCE_MAX * scale:
            raise GateError(f"cellwise divergence {np.max(div):.3e} > "
                            f"{DIVERGENCE_MAX} * {scale:.3e}")
    energy = np.asarray(trace.energy)
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    if workload.chi3 > 0.0:
        # No exact solution: the Kerr midpoint rule's relative energy drift
        # (second order in dt) is the accuracy figure.
        return {"err_final": drift}
    if drift > ENERGY_DRIFT_MAX:
        raise GateError(f"relative energy drift {drift:.3e} > {ENERGY_DRIFT_MAX}")
    err_e, err_h = verification.error_norms(state, case, forms)
    return {"err_final": err_e + err_h}


def max_stable_dt_over_h(cube, formulation: str, n: int,
                         ladder=(0.05, 0.1, 0.2, 0.5, 1.0), steps: int = 3) -> float:
    """Largest dt/h on the ladder at which the linear cavity marches ``steps``
    midpoint steps; a NonlinearSolveError ends the ladder (0.0 if the first
    rung already fails)."""
    grid = cube(n)
    h = mesh.mesh_size(grid)
    forms, state = _setup(formulation, MaterialParams(), grid, verification.cavity_mode_case())
    best = 0.0
    for ratio in ladder:
        try:
            dynamics.integrate(state, ratio * h, steps, dynamics.ZERO_SOURCES, forms,
                               collect=False)
        except dynamics.NonlinearSolveError:
            break
        best = ratio
    return best


def src_lines(root: str) -> int:
    pkg = os.path.join(root, "src", "kerrfem")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total
