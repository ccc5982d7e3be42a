"""Command-line entry points, run configuration, and file output.

Configuration uses a flat ``section.key = value`` text format (``#`` starts
a comment); every key is validated against a known table with line-number
diagnostics, and nonphysical parameter sets (negative susceptibilities,
nonpositive time steps) are rejected before any computation starts.  Field
output is legacy ASCII VTK with fixed 9-significant-digit formatting, so
identical runs produce byte-identical files.  No randomness is used
anywhere in the CLI.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .assembly import build_forms
from .dynamics import (
    FORMULATIONS,
    SOLVER_TOL,
    STEPPERS,
    NonlinearSolveError,
    State,
    discrete_divergence,
    energy_law_residual,
    initialize,
    integrate,
    stability_bound_check,
)
from .linalg import LinalgError
from .material import MaterialError, MaterialParams
from .mesh import (
    Mesh,
    MeshError,
    build_topology,
    generate_structured_cube,
    mesh_size,
    read_mesh,
    write_mesh,
)
from .verification import get_case, projection_study, run_convergence

CASES = ("cavity", "kerr-manufactured", "custom-zero-source")


class ConfigError(Exception):
    pass


def _check_case_material(case: str, params: MaterialParams) -> None:
    if case == "cavity" and params != MaterialParams():
        raise ConfigError(
            "case 'cavity' is an exact solution only for eps0 = mu0 = 1 and "
            "chi1 = chi3 = 0; use 'custom-zero-source' for other materials"
        )


@dataclass(frozen=True)
class RunConfig:
    """Validated simulation settings (see :func:`parse_config`)."""

    mesh_n: int | None = None
    mesh_file: str | None = None
    formulation: str = "lee-madsen"
    eps0: float = 1.0
    mu0: float = 1.0
    chi1: float = 0.0
    chi3: float = 0.0
    case: str = "cavity"
    t_end: float = 1.0
    dt: float = 0.01
    stepper: str = "midpoint"
    vtk_every: int = 0
    vtk_prefix: str = "fields"
    energy_csv: str | None = None
    cg_tol: float = SOLVER_TOL
    nonlinear_tol: float = SOLVER_TOL

    def material(self) -> MaterialParams:
        return MaterialParams(eps0=self.eps0, mu0=self.mu0,
                              chi1=self.chi1, chi3=self.chi3)

    def validate(self) -> "RunConfig":
        if self.mesh_n is None and self.mesh_file is None:
            raise ConfigError("one of mesh.n or mesh.file is required")
        if self.mesh_n is not None and self.mesh_file is not None:
            raise ConfigError("mesh.n and mesh.file are mutually exclusive")
        if self.mesh_n is not None and self.mesh_n < 1:
            raise ConfigError(f"mesh.n must be >= 1, got {self.mesh_n}")
        if self.formulation not in FORMULATIONS:
            raise ConfigError(f"formulation must be one of {FORMULATIONS}")
        if self.case not in CASES:
            raise ConfigError(f"case must be one of {CASES}")
        if self.stepper not in STEPPERS:
            raise ConfigError(f"time.stepper must be one of {STEPPERS}")
        for name, value in (("time.t_end", self.t_end), ("time.dt", self.dt)):
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if not math.isfinite(self.t_end / self.dt):
            raise ConfigError(f"time.t_end / time.dt overflows the step count "
                              f"(t_end = {self.t_end}, dt = {self.dt})")
        for name, tol in (("tol.cg", self.cg_tol), ("tol.nonlinear", self.nonlinear_tol)):
            if not 0.0 < tol < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {tol}")
        if self.vtk_every < 0:
            raise ConfigError(f"output.vtk_every must be >= 0, got {self.vtk_every}")
        try:
            params = self.material()
        except MaterialError as exc:
            raise ConfigError(str(exc)) from exc
        _check_case_material(self.case, params)
        return self


_KEY_TABLE = {
    "mesh.n": ("mesh_n", int),
    "mesh.file": ("mesh_file", str),
    "formulation": ("formulation", str),
    "material.eps0": ("eps0", float),
    "material.mu0": ("mu0", float),
    "material.chi1": ("chi1", float),
    "material.chi3": ("chi3", float),
    "case": ("case", str),
    "time.t_end": ("t_end", float),
    "time.dt": ("dt", float),
    "time.stepper": ("stepper", str),
    "output.vtk_every": ("vtk_every", int),
    "output.vtk_prefix": ("vtk_prefix", str),
    "output.energy_csv": ("energy_csv", str),
    "tol.cg": ("cg_tol", float),
    "tol.nonlinear": ("nonlinear_tol", float),
}


def parse_config(text: str) -> RunConfig:
    """Parse ``section.key = value`` lines into a validated RunConfig."""
    values, seen = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_TABLE:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        field_name, conv = _KEY_TABLE[key]
        try:
            values[field_name] = conv(value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad value {value!r} for {key}: {exc}"
            ) from exc
    return RunConfig(**values).validate()


def _fmt(x: float) -> str:
    return f"{x:.8e}"


def write_vtk(mesh: Mesh, cell_fields: dict, path) -> None:
    """Legacy ASCII VTK unstructured grid with per-cell vector data."""
    for name, data in cell_fields.items():
        data = np.asarray(data)
        if data.shape != (mesh.num_tets, 3):
            raise ValueError(
                f"field {name!r} has shape {data.shape}, expected ({mesh.num_tets}, 3)"
            )
    lines = [
        "# vtk DataFile Version 3.0",
        "kerrfem fields",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_vertices} double",
    ]
    for x, y, z in mesh.vertices:
        lines.append(f"{_fmt(x)} {_fmt(y)} {_fmt(z)}")
    lines.append(f"CELLS {mesh.num_tets} {5 * mesh.num_tets}")
    for t in mesh.tets:
        lines.append(f"4 {t[0]} {t[1]} {t[2]} {t[3]}")
    lines.append(f"CELL_TYPES {mesh.num_tets}")
    lines.extend(["10"] * mesh.num_tets)
    if cell_fields:
        lines.append(f"CELL_DATA {mesh.num_tets}")
        for name, data in cell_fields.items():
            lines.append(f"VECTORS {name} double")
            for v in np.asarray(data):
                lines.append(f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write VTK file {path}: {exc}") from exc


def cell_sampled_fields(state: State, forms) -> dict:
    """E_h and H_h per cell for VTK output: the mean of the four vertex
    values, which is the value at the tet's center, since every discrete
    field is affine on a tet."""
    dof_e, dof_h = forms.ctx.spaces(state.formulation)
    return {"E_h": dof_e.vertex_field(state.e).mean(axis=1),
            "H_h": dof_h.vertex_field(state.h).mean(axis=1)}


def write_energy_csv(trace, path) -> None:
    """Columns t, W, midpoint source work rate, and energy-law residual."""
    t, w, p, _ = trace.arrays()
    residual = energy_law_residual(trace) if len(t) >= 2 else np.zeros(0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,W,power,residual\n")
        for i in range(len(t)):
            pw = "" if i == 0 else f"{p[i - 1]:.12e}"
            rs = "" if i == 0 else f"{residual[i - 1]:.12e}"
            fh.write(f"{t[i]:.12e},{w[i]:.12e},{pw},{rs}\n")


def _load_mesh(cfg: RunConfig) -> Mesh:
    if cfg.mesh_n is not None:
        return generate_structured_cube(cfg.mesh_n)
    return read_mesh(cfg.mesh_file)


def _setup_run(cfg: RunConfig):
    """Mesh, forms, sources, and initial state for one configured run."""
    params = cfg.material()
    mesh = _load_mesh(cfg)
    topo = build_topology(mesh)
    forms = build_forms(mesh, topo, params)
    # custom-zero-source: cavity-shaped initial data, J = 0, any material
    name = "cavity" if cfg.case == "custom-zero-source" else cfg.case
    case = get_case(name, params=params, t_final=cfg.t_end)
    sources = case.sources
    state = initialize(
        lambda X: case.E(0.0, X),
        lambda X: case.H(0.0, X),
        cfg.formulation,
        forms,
        H0_curl=lambda X: case.curl_H(0.0, X),
    )
    return mesh, forms, case, sources, state


def _run_simulation(cfg: RunConfig):
    mesh, forms, case, sources, state = _setup_run(cfg)
    num_steps = max(1, round(cfg.t_end / cfg.dt))
    dt = cfg.t_end / num_steps
    write_fields = None
    if cfg.vtk_every:
        def write_fields(step, current):
            if step % cfg.vtk_every == 0:
                write_vtk(mesh, cell_sampled_fields(current, forms),
                          f"{cfg.vtk_prefix}_{step:06d}.vtk")

        write_fields(0, state)
    state, trace = integrate(
        state, dt, num_steps, sources, forms, stepper=cfg.stepper,
        nonlinear_tol=cfg.nonlinear_tol, cg_tol=cfg.cg_tol, on_step=write_fields,
    )
    if cfg.energy_csv:
        write_energy_csv(trace, cfg.energy_csv)
    return mesh, forms, case, sources, state, trace


def _add_material_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps0", type=float, default=1.0)
    p.add_argument("--mu0", type=float, default=1.0)
    p.add_argument("--chi1", type=float, default=0.0)
    p.add_argument("--chi3", type=float, default=0.0)


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="configuration file (flags override it)")
    p.add_argument("--n", type=int, dest="mesh_n", help="structured cube subdivisions")
    p.add_argument("--mesh-file", help="mesh file path")
    p.add_argument("--case", choices=CASES)
    p.add_argument("--formulation", choices=FORMULATIONS)
    p.add_argument("--t-end", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--stepper", choices=STEPPERS)
    p.add_argument("--chi1", type=float)
    p.add_argument("--chi3", type=float)
    p.add_argument("--eps0", type=float)
    p.add_argument("--mu0", type=float)
    p.add_argument("--energy-csv")
    p.add_argument("--vtk-prefix")
    p.add_argument("--vtk-every", type=int)


def _config_from_args(args) -> RunConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = RunConfig(mesh_n=4)
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    if ("mesh_n" in overrides) != ("mesh_file" in overrides):
        # one mesh flag replaces the other mesh source; both stay an error
        overrides = {"mesh_n": None, "mesh_file": None, **overrides}
    return replace(cfg, **overrides).validate()


def _cmd_mesh(args) -> int:
    mesh = generate_structured_cube(args.n)
    write_mesh(mesh, args.out)
    print(f"wrote {args.out}: {mesh.num_vertices} vertices, {mesh.num_tets} tets, "
          f"h = {mesh_size(mesh):.6g}")
    return 0


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    _, _, _, _, state, trace = _run_simulation(cfg)
    print(f"completed {cfg.case} run to t = {state.t:.6g} "
          f"({cfg.formulation}, {cfg.stepper})")
    print(f"final energy W = {trace.energy[-1]:.12e}, max |E_h| = "
          f"{max(trace.e_linf):.6g}")
    if cfg.energy_csv:
        print(f"energy trace written to {cfg.energy_csv}")
    return 0


def _cmd_energy(args) -> int:
    cfg = _config_from_args(args)
    _, forms, _, sources, state, trace = _run_simulation(cfg)
    residual = energy_law_residual(trace)
    ratios, violated = stability_bound_check(trace)
    w0 = trace.energy[0]
    print(f"energy report: {cfg.case}, {cfg.formulation}, {cfg.stepper}, "
          f"dt = {cfg.dt:.6g}, T = {cfg.t_end:.6g}")
    print(f"W(0) = {w0:.12e}, W(T) = {trace.energy[-1]:.12e}")
    if w0 > 0.0 and sources.is_zero:
        drift = max(abs(w - w0) for w in trace.energy) / w0
        print(f"max relative energy drift: {drift:.3e}")
    print(f"max |energy-law residual|: {np.max(np.abs(residual)):.6e}")
    print(f"max stability-bound ratio W(t)/bound(t): {np.max(ratios):.6f} "
          f"({'VIOLATED' if violated else 'satisfied'})")
    print(f"max |E_h| over run: {max(trace.e_linf):.6g}")
    if state.formulation == "nedelec":
        div = discrete_divergence(state, forms)
        print(f"max cellwise |div H_h| at T: {np.max(np.abs(div)):.3e}")
    if cfg.energy_csv:
        print(f"energy trace written to {cfg.energy_csv}")
    if violated:
        print(f"error: stability bound violated (max W(t)/bound(t) = "
              f"{np.max(ratios):.6g}); reduce dt", file=sys.stderr)
        return 1
    return 0


def _cmd_converge(args) -> int:
    levels = [int(s) for s in args.levels.split(",")]
    params = MaterialParams(eps0=args.eps0, mu0=args.mu0,
                            chi1=args.chi1, chi3=args.chi3)
    _check_case_material(args.case, params)
    case = get_case(args.case, params=params, t_final=args.t_end)
    table = run_convergence(
        case, levels, formulation=args.formulation,
        dt_factor=args.dt_factor, stepper=args.stepper,
    )
    table.to_csv(args.out)
    print(f"wrote {args.out}")
    for line in table.rows():
        print(line)
    if not table.monotone:
        print("warning: error sequence is not monotone")
    return 0


def _cmd_project(args) -> int:
    levels = [int(s) for s in args.levels.split(",")]
    table = projection_study(levels)
    table.to_csv(args.out)
    print(f"wrote {args.out}")
    for line in table.rows():
        print(line)
    return 0


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kerrfem",
        description="Finite element simulation of Maxwell's equations in "
                    "Kerr-type nonlinear media (all computations are "
                    "deterministic; no randomness is used).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="generate a structured cube mesh file")
    p_mesh.add_argument("--n", type=int, required=True)
    p_mesh.add_argument("--out", required=True)

    p_run = sub.add_parser("run", help="time-march a configured simulation")
    _add_run_args(p_run)

    p_energy = sub.add_parser(
        "energy", help="run and report energy law, stability bound, monitors"
    )
    _add_run_args(p_energy)

    p_conv = sub.add_parser("converge", help="terminal-time error study (EOC)")
    p_conv.add_argument("--case", choices=("cavity", "kerr-manufactured"),
                        default="cavity")
    p_conv.add_argument("--levels", default="2,4,8",
                        help="comma-separated doubling subdivisions")
    p_conv.add_argument("--formulation", choices=FORMULATIONS, default="lee-madsen")
    p_conv.add_argument("--stepper", choices=STEPPERS, default="midpoint")
    p_conv.add_argument("--t-end", type=float, default=None)
    p_conv.add_argument("--dt-factor", type=float, default=0.08,
                        help="dt = factor * h^2")
    p_conv.add_argument("--out", default="eoc.csv")
    _add_material_args(p_conv)

    p_proj = sub.add_parser("project", help="projection-operator rate study")
    p_proj.add_argument("--levels", default="2,4,8")
    p_proj.add_argument("--out", default="projection.csv")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "mesh": _cmd_mesh,
        "run": _cmd_run,
        "energy": _cmd_energy,
        "converge": _cmd_converge,
        "project": _cmd_project,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, MeshError, MaterialError, NonlinearSolveError, LinalgError,
            FloatingPointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
