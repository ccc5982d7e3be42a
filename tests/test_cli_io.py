import argparse
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import eval_on_tet
from kerrfem import linalg
from kerrfem.assembly import build_forms
from kerrfem.cli_io import (
    ConfigError,
    RunConfig,
    _add_run_args,
    _config_from_args,
    cell_sampled_fields,
    cli_main,
    parse_config,
    write_energy_csv,
    write_vtk,
)
from kerrfem.dynamics import ZERO_SOURCES, initialize, integrate
from kerrfem.mesh import generate_structured_cube, read_mesh
from kerrfem.verification import cavity_mode_case

DATA = Path(__file__).parent / "data"

MINIMAL = """
mesh.n = 4
case = cavity
time.t_end = 1
time.dt = 0.01
"""


def test_parse_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.mesh_n == 4
    assert cfg.eps0 == 1.0 and cfg.mu0 == 1.0
    assert cfg.chi1 == 0.0 and cfg.chi3 == 0.0
    assert cfg.formulation == "lee-madsen"
    assert cfg.stepper == "midpoint"
    assert cfg.t_end == 1.0 and cfg.dt == 0.01


def test_parse_rejects_negative_chi3():
    with pytest.raises(ConfigError, match="chi3 must be >= 0"):
        parse_config(MINIMAL.replace("case = cavity", "case = custom-zero-source")
                     + "material.chi3 = -1\n")


def test_parse_unknown_key_cites_line():
    with pytest.raises(ConfigError, match="line 2: unknown key 'mesh.m'"):
        parse_config("mesh.n = 2\nmesh.m = 3\n")


def test_parse_repeated_key_cites_both_lines():
    with pytest.raises(ConfigError, match="line 3: key 'mesh.n' repeats line 1"):
        parse_config("mesh.n = 4\ncase = cavity\nmesh.n = 8\n")


def test_parse_bad_value_cites_line():
    with pytest.raises(ConfigError, match="line 1: bad value"):
        parse_config("mesh.n = two\n")


def test_parse_comments_and_blank_lines():
    cfg = parse_config("# header\n\nmesh.n = 2  # inline\ncase = cavity\n"
                       "time.t_end = 1\ntime.dt = 0.1\n")
    assert cfg.mesh_n == 2


def test_parse_requires_mesh():
    with pytest.raises(ConfigError, match="mesh.n or mesh.file"):
        parse_config("case = cavity\ntime.t_end = 1\ntime.dt = 0.1\n")


def test_parse_rejects_bad_enum():
    with pytest.raises(ConfigError, match="formulation"):
        parse_config(MINIMAL + "formulation = yee\n")
    with pytest.raises(ConfigError, match="stepper"):
        parse_config(MINIMAL + "time.stepper = euler\n")


def test_parse_rejects_nonpositive_times():
    with pytest.raises(ConfigError, match="t_end"):
        parse_config("mesh.n = 2\ncase = cavity\ntime.t_end = 0\ntime.dt = 0.1\n")
    with pytest.raises(ConfigError, match="dt"):
        parse_config("mesh.n = 2\ncase = cavity\ntime.t_end = 1\ntime.dt = -0.1\n")


def test_parse_cavity_requires_vacuum():
    with pytest.raises(ConfigError, match="custom-zero-source"):
        parse_config(MINIMAL + "material.chi3 = 1\n")


def test_write_vtk_io_failure_reports_path(tmp_path):
    mesh = generate_structured_cube(1)
    target = tmp_path / "no" / "such" / "dir" / "x.vtk"
    with pytest.raises(OSError, match="x.vtk"):
        write_vtk(mesh, {}, target)


def test_write_vtk_structure(tmp_path):
    mesh = generate_structured_cube(1)
    zero = np.zeros((mesh.num_tets, 3))
    path = tmp_path / "out.vtk"
    write_vtk(mesh, {"E_h": zero, "H_h": zero}, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert "POINTS 8 double" in text
    assert "CELLS 6 30" in text
    assert text.count("\n10") >= 5  # cell type 10 per tet
    assert "CELL_DATA 6" in text
    assert "VECTORS E_h double" in text
    assert "VECTORS H_h double" in text
    assert "0.00000000e+00 0.00000000e+00 0.00000000e+00" in text


def test_write_vtk_deterministic(tmp_path):
    mesh = generate_structured_cube(2)
    rng = np.random.default_rng(0)
    fields = {"E_h": rng.normal(size=(mesh.num_tets, 3)),
              "H_h": rng.normal(size=(mesh.num_tets, 3))}
    p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
    write_vtk(mesh, fields, p1)
    write_vtk(mesh, fields, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_vtk_validates_shapes(tmp_path):
    mesh = generate_structured_cube(1)
    with pytest.raises(ValueError, match="shape"):
        write_vtk(mesh, {"E_h": np.zeros((3, 3))}, tmp_path / "x.vtk")


def test_cell_sampled_fields_shapes(cube2):
    mesh, topo = cube2
    case = cavity_mode_case()
    forms = build_forms(mesh, topo, case.params)
    for formulation in ("lee-madsen", "nedelec"):
        st = initialize(
            lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), formulation, forms,
            H0_curl=lambda X: case.curl_H(0.0, X),
        )
        fields = cell_sampled_fields(st, forms)
        assert fields["E_h"].shape == (mesh.num_tets, 3)
        assert fields["H_h"].shape == (mesh.num_tets, 3)
        # centroid values agree with the independent per-tet evaluation
        centroids = mesh.vertices[mesh.tets].mean(axis=1)
        for name, dof, coeffs in zip(("E_h", "H_h"), forms.ctx.spaces(formulation),
                                     (st.e, st.h)):
            oracle = [eval_on_tet(mesh, dof, coeffs, t, centroids[t])[0]
                      for t in range(mesh.num_tets)]
            assert np.abs(fields[name] - np.array(oracle)).max() < 1e-12


def test_energy_csv_format(tmp_path, cube2):
    mesh, topo = cube2
    case = cavity_mode_case()
    forms = build_forms(mesh, topo, case.params)
    st = initialize(
        lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), "lee-madsen", forms,
        H0_curl=lambda X: case.curl_H(0.0, X),
    )
    _, trace = integrate(st, 0.01, 5, ZERO_SOURCES, forms)
    path = tmp_path / "e.csv"
    write_energy_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,W,power,residual"
    assert len(lines) == 7
    assert lines[1].endswith(",,")


def test_cli_mesh_subcommand(tmp_path, capsys):
    out = tmp_path / "m.txt"
    assert cli_main(["mesh", "--n", "2", "--out", str(out)]) == 0
    mesh = read_mesh(out)
    assert mesh.num_vertices == 27
    assert mesh.num_tets == 48
    assert "27 vertices, 48 tets" in capsys.readouterr().out


def test_cli_converge_deterministic(tmp_path, capsys):
    args = ["converge", "--case", "cavity", "--levels", "2,4", "--t-end", "0.2"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "n,h,errE,errH,eocE,eocH"
    assert len(lines) == 3
    capsys.readouterr()


# a short nedelec Kerr run whose step-2 VTK file and energy CSV are compared
RUN_NEDELEC_KERR = ["run", "--n", "3", "--formulation", "nedelec", "--case",
                    "custom-zero-source", "--chi3", "1", "--t-end", "0.04", "--dt", "0.02",
                    "--vtk-every", "2", "--vtk-prefix", "run_nedelec_kerr_n3",
                    "--energy-csv", "run_nedelec_kerr_n3_energy.csv"]
# a short lee-madsen Kerr run, several chord sweeps per step
RUN_LEE_MADSEN_KERR = ["run", "--n", "3", "--formulation", "lee-madsen", "--case",
                       "custom-zero-source", "--chi3", "1", "--t-end", "0.2", "--dt", "0.05",
                       "--energy-csv", "run_lee_madsen_kerr_n3_energy.csv"]


@pytest.mark.parametrize("argv,reference", [
    (["converge", "--case", "kerr-manufactured", "--chi3", "1", "--levels", "2,4"],
     "converge_kerr_chi3_1_levels_2_4.csv"),
    (["converge", "--case", "kerr-manufactured", "--chi3", "1", "--formulation", "nedelec",
      "--levels", "2,4"],
     "converge_kerr_nedelec_chi3_1_levels_2_4.csv"),
    (["converge", "--case", "cavity", "--levels", "2,4"],
     "converge_cavity_levels_2_4.csv"),
    (["converge", "--case", "cavity", "--formulation", "nedelec", "--levels", "2,4"],
     "converge_cavity_nedelec_levels_2_4.csv"),
    (["project", "--levels", "2,4"], "project_levels_2_4.csv"),
    (["mesh", "--n", "3"], "cube3.tetmesh"),
    (RUN_NEDELEC_KERR, "run_nedelec_kerr_n3_000002.vtk"),
    (RUN_NEDELEC_KERR, "run_nedelec_kerr_n3_energy.csv"),
    (RUN_LEE_MADSEN_KERR, "run_lee_madsen_kerr_n3_energy.csv"),
], ids=["kerr", "kerr-nedelec", "cavity", "cavity-nedelec", "project", "mesh",
        "run-vtk", "run-energy", "run-energy-lee-madsen"])
def test_cli_output_matches_reference_file(tmp_path, capsys, monkeypatch, argv, reference):
    # each deterministic output is byte-identical to the committed reference
    monkeypatch.chdir(tmp_path)
    if argv[0] != "run":  # a run names its own outputs
        argv = argv + ["--out", reference]
    assert cli_main(argv) == 0
    assert (tmp_path / reference).read_bytes() == (DATA / reference).read_bytes()
    capsys.readouterr()


def test_cli_project_subcommand(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert cli_main(["project", "--levels", "2,4", "--out", str(out)]) == 0
    assert out.read_text().startswith("n,h,errE,errH,eocE,eocH")
    capsys.readouterr()


def test_cli_energy_subcommand(tmp_path, capsys):
    csv = tmp_path / "en.csv"
    code = cli_main([
        "energy", "--case", "cavity", "--n", "2", "--t-end", "0.3",
        "--dt", "0.01", "--energy-csv", str(csv),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "max |energy-law residual|" in out
    assert "satisfied" in out
    assert csv.exists()


def test_cli_run_with_config_and_vtk(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mesh.n = 2\ncase = custom-zero-source\nmaterial.chi3 = 1\n"
        "time.t_end = 0.05\ntime.dt = 0.01\noutput.vtk_every = 5\n"
        "output.vtk_prefix = f\n",
        encoding="utf-8",
    )
    assert cli_main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "f_000000.vtk").exists()
    assert (tmp_path / "f_000005.vtk").exists()
    capsys.readouterr()


def test_cli_run_vtk_leaves_energy_csv_unchanged(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["run", "--case", "kerr-manufactured", "--chi3", "1", "--n", "2",
            "--t-end", "0.05", "--dt", "0.01"]
    assert cli_main(args + ["--energy-csv", "plain.csv"]) == 0
    assert cli_main(args + ["--energy-csv", "vtk.csv", "--vtk-every", "2"]) == 0
    assert (tmp_path / "vtk.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.glob("*.vtk")) == [
        "fields_000000.vtk", "fields_000002.vtk", "fields_000004.vtk"
    ]
    capsys.readouterr()


def test_cli_energy_violated_bound_exits_nonzero(capsys):
    # RK4 far beyond its stability limit: the energy grows without bound
    code = cli_main([
        "energy", "--case", "cavity", "--n", "2", "--stepper", "rk4",
        "--t-end", "2", "--dt", "0.2",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "VIOLATED" in captured.out
    assert "stability bound violated" in captured.err


def test_cli_error_paths(tmp_path, capsys):
    # config error -> exit 1 with message
    bad = tmp_path / "bad.cfg"
    bad.write_text("material.chi3 = -2\nmesh.n = 2\ncase = custom-zero-source\n"
                   "time.t_end = 1\ntime.dt = 0.1\n", encoding="utf-8")
    assert cli_main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "chi3" in err
    # usage error -> argparse exit code 2
    assert cli_main(["bogus-command"]) == 2
    capsys.readouterr()


def test_cli_non_finite_material_exits_with_its_name(capsys):
    # a NaN susceptibility is a parameter error, reported before any solve
    code = cli_main(["run", "--n", "2", "--case", "custom-zero-source", "--chi3", "nan"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "chi3 must be finite" in err
    assert "reduce dt" not in err


def test_cli_solver_failure_exits_nonzero(capsys):
    # a very large step in a strongly Kerr medium: the lee-madsen chord
    # stalls, and the CLI reports the solver error on one line instead of a
    # traceback
    code = cli_main(["run", "--case", "custom-zero-source", "--chi3", "100", "--n", "2",
                     "--dt", "2", "--t-end", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "reduce dt" in err
    assert err.count("\n") == 1


def test_cli_rk4_overflow_exits_nonzero(capsys):
    # RK4 far above its stability limit drives the state to inf; the CG solve
    # stops at the first non-finite value, with no numpy overflow warning, and
    # the error names the step and dt
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli_main(["energy", "--case", "cavity", "--n", "2", "--stepper", "rk4",
                         "--dt", "0.5", "--t-end", "400"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step ") and "dt = 0.5" in err and "non-finite" in err
    assert err.endswith("reduce dt\n") and err.count("\n") == 1


def test_cli_rk4_nedelec_overflow_exits_nonzero(capsys):
    # the nedelec RK4 stages solve no CG system, so integrate's own check of
    # the state reports the blow-up, again with no numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli_main(["run", "--case", "cavity", "--formulation", "nedelec", "--n", "2",
                         "--stepper", "rk4", "--dt", "0.5", "--t-end", "400"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step ") and "non-finite" in err
    assert err.endswith("reduce dt\n") and err.count("\n") == 1


def test_cli_nedelec_run(capsys):
    code = cli_main([
        "energy", "--case", "cavity", "--formulation", "nedelec", "--n", "2",
        "--t-end", "0.2", "--dt", "0.01",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "div H_h" in out


def test_flags_override_config(tmp_path):
    parser = argparse.ArgumentParser()
    _add_run_args(parser)
    # every run flag but --config names the RunConfig field it overrides
    names = set(vars(parser.parse_args([]))) - {"config"}
    assert names <= {f.name for f in fields(RunConfig)}
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mesh.n = 3\ncase = cavity\ntime.t_end = 1\ntime.dt = 0.01\n",
                        encoding="utf-8")
    args = parser.parse_args(["--config", str(cfg_file), "--n", "2", "--t-end", "0.5"])
    cfg = _config_from_args(args)
    assert (cfg.mesh_n, cfg.t_end, cfg.dt) == (2, 0.5, 0.01)
    cfg_file.write_text("mesh.file = cube.msh\ncase = cavity\ntime.t_end = 1\n"
                        "time.dt = 0.01\n", encoding="utf-8")
    cfg = _config_from_args(parser.parse_args(["--config", str(cfg_file), "--n", "2"]))
    assert (cfg.mesh_n, cfg.mesh_file) == (2, None)
    # a mesh flag replaces the other mesh source, with or without a config
    cfg_file.write_text("mesh.n = 3\ncase = cavity\n", encoding="utf-8")
    cfg = _config_from_args(parser.parse_args(["--config", str(cfg_file),
                                               "--mesh-file", "m.txt"]))
    assert (cfg.mesh_n, cfg.mesh_file) == (None, "m.txt")
    cfg = _config_from_args(parser.parse_args(["--mesh-file", "m.txt"]))
    assert (cfg.mesh_n, cfg.mesh_file) == (None, "m.txt")
    with pytest.raises(ConfigError, match="mutually exclusive"):
        _config_from_args(parser.parse_args(["--n", "2", "--mesh-file", "m.txt"]))


def test_cli_run_mesh_file_without_config(tmp_path, capsys):
    mesh_file = tmp_path / "m.txt"
    assert cli_main(["mesh", "--n", "2", "--out", str(mesh_file)]) == 0
    assert cli_main(["run", "--mesh-file", str(mesh_file), "--t-end", "0.02",
                     "--dt", "0.01"]) == 0
    assert "completed cavity run to t = 0.02" in capsys.readouterr().out


@pytest.mark.parametrize("factor", ["0", "-1", "inf", "nan"])
def test_cli_converge_rejects_bad_dt_factor(tmp_path, capsys, factor):
    out = tmp_path / "eoc.csv"
    assert cli_main(["converge", "--levels", "2,4", "--dt-factor", factor,
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "dt_factor must be finite and > 0" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--eps0", "2"), ("--mu0", "2"), ("--chi1", "1"), ("--chi3", "1"),
])
def test_cli_converge_cavity_requires_vacuum(tmp_path, capsys, flag, value):
    out = tmp_path / "eoc.csv"
    assert cli_main(["converge", "--case", "cavity", "--levels", "1,2",
                     flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "case 'cavity' is an exact solution only for eps0 = mu0 = 1" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("command,flag,name", [
    ("run", "--t-end", "time.t_end"),
    ("run", "--dt", "time.dt"),
    ("converge", "--t-end", "t_final"),
])
def test_cli_rejects_bad_time_inputs(tmp_path, capsys, command, flag, name, value):
    out = tmp_path / "out.csv"
    if command == "run":
        argv = ["run", "--n", "2", "--t-end", "0.5", "--dt", "0.1",
                "--energy-csv", str(out)]
    else:
        argv = ["converge", "--levels", "1,2", "--out", str(out)]
    assert cli_main(argv + [f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert f"{name} must be finite and > 0" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,names", [
    (["run", "--n", "1", "--t-end", "1e300", "--dt", "1e-10"],
     ["t_end = 1e+300", "dt = 1e-10"]),
    (["energy", "--n", "1", "--t-end", "1e300", "--dt", "1e-10"],
     ["t_end = 1e+300", "dt = 1e-10"]),
    (["converge", "--levels", "1,2", "--dt-factor", "1e-320"],
     ["t_final = 1.0", "dt_factor = 1e-320"]),
], ids=["run", "energy", "converge"])
def test_cli_rejects_overflowing_step_count(tmp_path, capsys, argv, names):
    out = tmp_path / "out.csv"
    flag = "--energy-csv" if argv[0] != "converge" else "--out"
    assert cli_main(argv + [flag, str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "overflows the step count" in err
    assert all(name in err for name in names)
    assert not out.exists()


def test_cli_reports_failed_factorization(capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(linalg, "spla", SimpleNamespace(splu=singular))
    argv = ["run", "--case", "custom-zero-source", "--formulation", "nedelec",
            "--n", "2", "--t-end", "0.02", "--dt", "0.01"]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: step 1 (t = 0.01, dt = 0.01): ")
    assert "exactly singular" in err


def test_runconfig_validate_misc():
    with pytest.raises(ConfigError, match="mutually exclusive"):
        RunConfig(mesh_n=2, mesh_file="m.txt").validate()
    with pytest.raises(ConfigError, match="vtk_every"):
        RunConfig(mesh_n=2, vtk_every=-1).validate()
    with pytest.raises(ConfigError, match="tol.cg"):
        RunConfig(mesh_n=2, cg_tol=2.0).validate()
