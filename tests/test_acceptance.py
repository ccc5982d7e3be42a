"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from conftest import eps_matrix, piecewise_curl_closure
from kerrfem.assembly import build_forms, l2_project
from kerrfem.cli_io import cli_main
from kerrfem.dynamics import (
    ZERO_SOURCES,
    discrete_divergence,
    energy_law_residual,
    initialize,
    integrate,
    stability_bound_check,
)
from kerrfem.material import (
    MaterialParams,
    cm_matrix,
    d_of_e,
    e_of_d,
)
from kerrfem.mesh import build_topology, generate_structured_cube
from kerrfem.verification import (
    cavity_mode_case,
    kerr_manufactured_case,
    projection_study,
    run_convergence,
)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def cavity_initial_state(forms, formulation="lee-madsen"):
    case = cavity_mode_case()
    return initialize(
        lambda X: case.E(0.0, X),
        lambda X: case.H(0.0, X),
        formulation,
        forms,
        H0_curl=lambda X: case.curl_H(0.0, X),
    )


def test_criterion_1_permittivity_positive_definite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260810)
    n = 10_000
    eps0 = rng.uniform(0.05, 5.0, size=n)
    chi1 = rng.uniform(0.0, 4.0, size=n)
    chi3 = rng.uniform(0.0, 4.0, size=n)
    psi = rng.normal(scale=3.0, size=(n, 3))
    phi = rng.normal(scale=3.0, size=(n, 3))
    es = 1.0 + chi1 + chi3 * np.sum(psi * psi, axis=1)
    quad = eps0 * (
        es * np.sum(phi * phi, axis=1) + 2.0 * chi3 * np.sum(psi * phi, axis=1) ** 2
    )
    floor = eps0 * np.sum(phi * phi, axis=1)
    violations = int(np.sum(quad < floor * (1.0 - 1e-14)))
    elapsed = time.perf_counter() - start
    report(
        1,
        "permittivity uniformly positive definite",
        violations == 0 and elapsed < 1.0,
        f"{n} samples, {violations} violations, {elapsed:.3f} s",
    )


def test_criterion_2_sherman_morrison_identity():
    rng = np.random.default_rng(2)
    p = MaterialParams(chi1=0.7, chi3=1.3)
    worst = 0.0
    for _ in range(1000):
        E = rng.normal(scale=2.0, size=3)
        prod = p.eps0 * cm_matrix(p, E) @ (eps_matrix(p, E) / p.eps0)
        worst = max(worst, np.abs(prod - np.eye(3)).max())
    report(2, "closed-form permittivity inverse", worst <= 1e-12,
           f"max deviation {worst:.2e}")


def test_criterion_3_constitutive_round_trip():
    rng = np.random.default_rng(3)
    p = MaterialParams(eps0=1.9, chi1=0.5, chi3=2.2)
    D = rng.normal(scale=4.0, size=(1000, 3))
    back = d_of_e(p, e_of_d(p, D))
    rel = np.linalg.norm(back - D, axis=1) / np.maximum(
        np.linalg.norm(D, axis=1), 1e-300
    )
    worst = float(rel.max())
    report(3, "constitutive round trip", worst <= 1e-12, f"max rel error {worst:.2e}")


def test_criterion_4_projection_rates():
    start = time.perf_counter()
    table = projection_study((2, 4, 8))
    elapsed = time.perf_counter() - start
    ok = (
        np.all((table.eoc_e >= 0.8) & (table.eoc_e <= 1.3))
        and np.all((table.eoc_h >= 0.8) & (table.eoc_h <= 1.3))
        and elapsed < 120.0
    )
    report(
        4,
        "projection operators converge at first order",
        bool(ok),
        f"L2 EOC {np.round(table.eoc_e, 3).tolist()}, "
        f"curl EOC {np.round(table.eoc_h, 3).tolist()}, {elapsed:.1f} s",
    )


def test_criterion_5_projection_commutes_with_curl():
    mesh = generate_structured_cube(2)
    topo = build_topology(mesh)
    forms = build_forms(mesh, topo, MaterialParams())
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        u = rng.normal(size=forms.dof_u.num_dofs)
        projected = l2_project(forms.ctx, piecewise_curl_closure(mesh, forms, u))
        exact = np.einsum("tid,ti->td", forms.ctx.edge_curls,
                          u[forms.dof_u.cell_dofs]).ravel()
        worst = max(worst, float(np.abs(projected - exact).max()))
    report(5, "cell projection reproduces discrete curls", worst <= 1e-12,
           f"100 fields, max deviation {worst:.2e}")


def test_criterion_6_energy_law():
    # (a) linear source-free cavity: energy conserved to 1e-9 over T = 5
    mesh = generate_structured_cube(4)
    topo = build_topology(mesh)
    lin_forms = build_forms(mesh, topo, MaterialParams())
    st = cavity_initial_state(lin_forms)
    _, trace = integrate(st, 1e-3, 5000, ZERO_SOURCES, lin_forms)
    w = np.asarray(trace.energy)
    drift = float(np.abs(w - w[0]).max() / w[0])
    ratios, violated = stability_bound_check(trace)
    ok_a = drift <= 1e-9 and not violated

    # (b) Kerr run: energy-law residual decays at second order in dt
    kerr_forms = build_forms(mesh, topo, MaterialParams(chi3=1.0))
    st_k = cavity_initial_state(kerr_forms)
    res = {}
    for dt in (4e-3, 2e-3):
        _, tr = integrate(st_k, dt, round(0.5 / dt), ZERO_SOURCES, kerr_forms)
        res[dt] = float(np.abs(energy_law_residual(tr)).max())
        r2, v2 = stability_bound_check(tr)
        ok_a = ok_a and not v2 and bool(np.all(r2 <= 1.0))
    ratio = res[4e-3] / res[2e-3]
    ok_b = 3.5 <= ratio <= 4.5
    report(
        6,
        "energy law (conservation + residual decay)",
        ok_a and ok_b,
        f"linear drift {drift:.2e}, Kerr residual ratio {ratio:.3f}",
    )


def test_criterion_7_stability_bound_all_runs():
    mesh = generate_structured_cube(2)
    topo = build_topology(mesh)
    worst = 0.0
    checked = 0

    # source-free linear and Kerr runs
    for chi3 in (0.0, 1.0):
        forms = build_forms(mesh, topo, MaterialParams(chi3=chi3))
        st = cavity_initial_state(forms)
        _, tr = integrate(st, 5e-3, 200, ZERO_SOURCES, forms)
        ratios, violated = stability_bound_check(tr)
        assert not violated
        worst = max(worst, float(np.nanmax(ratios)))
        checked += 1

    # forced manufactured run from projection initial data
    params = MaterialParams(chi3=1.0)
    case = kerr_manufactured_case(params, t_final=0.5)
    forms = build_forms(mesh, topo, params)
    st = initialize(
        lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), "lee-madsen", forms,
        H0_curl=lambda X: case.curl_H(0.0, X),
    )
    _, tr = integrate(st, 5e-3, 100, case.sources, forms)
    ratios, violated = stability_bound_check(tr)
    assert not violated
    worst = max(worst, float(np.nanmax(ratios)))
    checked += 1

    # forced run from zero initial data (bound dominated by source work)
    zero = lambda X: np.zeros_like(np.atleast_2d(X))
    st0 = initialize(zero, zero, "lee-madsen", forms)
    _, tr = integrate(st0, 5e-3, 100, case.sources, forms)
    ratios, violated = stability_bound_check(tr)
    assert not violated
    worst = max(worst, float(np.nanmax(ratios[np.isfinite(ratios)])))
    checked += 1

    report(7, "stability bound holds on every run", worst <= 1.0,
           f"{checked} runs, max ratio {worst:.4f}")


def test_criterion_8_semi_discrete_convergence():
    start = time.perf_counter()
    case = kerr_manufactured_case(MaterialParams(chi3=1.0), t_final=1.0)
    table = run_convergence(
        case, (2, 4, 8), formulation="lee-madsen", dt_factor=0.08
    )
    elapsed = time.perf_counter() - start
    eoc = table.combined_eoc()
    ok = bool(np.all((eoc >= 0.8) & (eoc <= 1.3))) and elapsed < 900.0
    report(
        8,
        "first-order convergence of the semi-discrete solution",
        ok,
        f"combined EOC {np.round(eoc, 3).tolist()}, "
        f"errors {np.round(table.err_e + table.err_h, 4).tolist()}, {elapsed:.0f} s",
    )


def test_criterion_9_divergence_preservation():
    mesh = generate_structured_cube(4)
    topo = build_topology(mesh)
    forms = build_forms(mesh, topo, MaterialParams())
    st = cavity_initial_state(forms, formulation="nedelec")
    scale = max(1.0, float(np.abs(st.e).max()), float(np.abs(st.h).max()))
    worst = float(np.abs(discrete_divergence(st, forms)).max())
    current = st
    for _ in range(100):
        current, _ = integrate(current, 0.01, 1, ZERO_SOURCES, forms, collect=False)
        worst = max(worst, float(np.abs(discrete_divergence(current, forms)).max()))
    report(
        9,
        "face-element magnetic field stays divergence-free",
        worst <= 1e-10 * scale,
        f"max cellwise divergence {worst:.2e} over 100 steps",
    )


def test_criterion_10_converge_determinism(tmp_path):
    args = ["converge", "--case", "cavity", "--levels", "2,4", "--t-end", "0.25"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    same = out1.read_bytes() == out2.read_bytes()
    report(10, "repeated convergence studies are byte-identical", same,
           f"{out1.stat().st_size} bytes compared")
