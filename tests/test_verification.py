import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (discrete_field_closure, eps_matrix, piecewise_curl_closure,
                      tetrahedron_rule)
from kerrfem.assembly import build_context, build_forms
from kerrfem.dynamics import Sources, State, initialize, integrate
from kerrfem.fem_spaces import interpolate_edge_dofs
from kerrfem.material import MaterialParams
from kerrfem.mesh import build_topology, generate_structured_cube
from kerrfem.quadrature import segment_rule
from kerrfem.verification import (
    EocTable,
    cavity_mode_case,
    error_norms,
    get_case,
    kerr_manufactured_case,
    projection_study,
    run_convergence,
)


@pytest.fixture(scope="module")
def kerr_case():
    return kerr_manufactured_case(MaterialParams(chi3=1.0), t_final=0.5)


def test_kerr_tangential_trace_vanishes(kerr_case):
    rng = np.random.default_rng(0)
    yz = rng.random((50, 2))
    for t in (0.0, 0.7):
        X0 = np.column_stack([np.zeros(50), yz])
        E = np.asarray(kerr_case.E(t, X0))
        assert np.abs(E[:, 1]).max() < 1e-14  # E_y = 0 on x = 0
        assert np.abs(E[:, 2]).max() < 1e-14  # E_z = 0 on x = 0
        X1 = np.column_stack([np.ones(50), yz])
        E = np.asarray(kerr_case.E(t, X1))
        assert np.abs(E[:, 1:]).max() < 1e-12


def test_kerr_pde_residuals_vanish():
    # the separable terms of the currents solve the strong form, and the
    # closures are their sums
    rng = np.random.default_rng(1)
    X = rng.random((100, 3))
    for params, t in itertools.product(
        (MaterialParams(chi3=1.0), MaterialParams(eps0=1.2, mu0=0.8, chi1=0.3, chi3=1.7)),
        (0.0, 0.33, 1.2),
    ):
        case = kerr_manufactured_case(params)
        j_e = sum(a(t) * g(X) for a, g in case.j_e_terms)
        j_m = sum(a(t) * g(X) for a, g in case.j_m_terms)
        E = np.asarray(case.E(t, X))
        dtE = np.asarray(case.dt_E(t, X))
        eps_dtE = np.einsum("mij,mj->mi", eps_matrix(params, E), dtE)
        r1 = eps_dtE - np.asarray(case.curl_H(t, X)) + j_e
        r2 = params.mu0 * np.asarray(case.dt_H(t, X)) + np.asarray(case.curl_E(t, X)) + j_m
        assert np.abs(r1).max() <= 1e-12
        assert np.abs(r2).max() <= 1e-12
        assert np.array_equal(case.j_e(t, X), j_e)
        assert np.array_equal(case.j_m(t, X), j_m)


def test_kerr_linear_limit_is_linear_case():
    lin = kerr_manufactured_case(MaterialParams(), t_final=1.0)
    rng = np.random.default_rng(2)
    X = rng.random((20, 3))
    E = np.asarray(lin.E(0.4, X))
    dtE = np.asarray(lin.dt_E(0.4, X))
    j_e = np.asarray(lin.j_e(0.4, X))
    assert np.abs(j_e - (np.asarray(lin.curl_H(0.4, X)) - dtE)).max() < 1e-13
    _ = E


def test_kerr_derivative_closures_consistent(kerr_case):
    # dt_E and curl_E agree with finite differences of E
    rng = np.random.default_rng(3)
    X = rng.uniform(0.1, 0.9, size=(20, 3))
    t, dt = 0.5, 1e-5
    fd_t = (np.asarray(kerr_case.E(t + dt, X)) - np.asarray(kerr_case.E(t - dt, X))) / (2 * dt)
    assert np.abs(fd_t - np.asarray(kerr_case.dt_E(t, X))).max() < 1e-8
    curl_fd = np.zeros((20, 3))
    hstep = 1e-6
    for k in range(3):
        dplus = X.copy()
        dminus = X.copy()
        dplus[:, k] += hstep
        dminus[:, k] -= hstep
        dk = (np.asarray(kerr_case.E(t, dplus)) - np.asarray(kerr_case.E(t, dminus))) / (2 * hstep)
        if k == 0:
            curl_fd[:, 1] -= dk[:, 2]
            curl_fd[:, 2] += dk[:, 1]
        elif k == 1:
            curl_fd[:, 0] += dk[:, 2]
            curl_fd[:, 2] -= dk[:, 0]
        else:
            curl_fd[:, 0] -= dk[:, 1]
            curl_fd[:, 1] += dk[:, 0]
    assert np.abs(curl_fd - np.asarray(kerr_case.curl_E(t, X))).max() < 1e-7


def test_cavity_is_source_free_solution():
    case = cavity_mode_case()
    rng = np.random.default_rng(4)
    X = rng.random((100, 3))
    for t in (0.0, 0.3, 1.1):
        r1 = np.asarray(case.dt_E(t, X)) - np.asarray(case.curl_H(t, X))
        r2 = np.asarray(case.dt_H(t, X)) + np.asarray(case.curl_E(t, X))
        assert np.abs(r1).max() <= 1e-12
        assert np.abs(r2).max() <= 1e-12
    assert case.j_e is None and case.j_m is None
    assert case.sources.is_zero


def test_cavity_boundary_and_div_conditions():
    case = cavity_mode_case()
    rng = np.random.default_rng(5)
    xy = rng.random((30, 2))
    # nu x E = 0: tangential components vanish on each face
    for axis in range(3):
        for val in (0.0, 1.0):
            X = np.insert(xy, axis, np.full(30, val), axis=1)
            E = np.asarray(case.E(0.4, X))
            tang = np.delete(E, axis, axis=1)
            assert np.abs(tang).max() < 1e-13
            H = np.asarray(case.H(0.4, X))
            assert np.abs(H[:, axis]).max() < 1e-13  # nu . H = 0
    # div H = 0 by finite differences
    X = rng.uniform(0.2, 0.8, size=(20, 3))
    h = 1e-6
    div = np.zeros(20)
    for k in range(3):
        dp, dm = X.copy(), X.copy()
        dp[:, k] += h
        dm[:, k] -= h
        div += (
            np.asarray(case.H(0.4, dp))[:, k] - np.asarray(case.H(0.4, dm))[:, k]
        ) / (2 * h)
    assert np.abs(div).max() < 1e-8


def test_cavity_energy_constant_analytically():
    # W(t) = 1/8 for the exact fields, checked with a tensor Gauss rule
    case = cavity_mode_case()
    rule = segment_rule(12)
    x = rule.points[:, 0]
    w = rule.weights
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    WXYZ = (
        w[:, None, None] * w[None, :, None] * w[None, None, :]
    ).ravel()
    pts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    for t in (0.0, 0.21, 0.73, 1.4):
        E = np.asarray(case.E(t, pts))
        H = np.asarray(case.H(t, pts))
        dens = 0.5 * (np.sum(E * E, axis=1) + np.sum(H * H, axis=1))
        W = float(WXYZ @ dens)
        assert W == pytest.approx(0.125, abs=1e-12)


def test_get_case_dispatch():
    assert get_case("cavity").name == "cavity"
    assert get_case("kerr-manufactured").params.chi3 == 1.0
    with pytest.raises(ValueError):
        get_case("bogus")


def test_error_norms_zero_for_exact_discrete(cube2):
    mesh, topo = cube2
    params = MaterialParams()
    forms = build_forms(mesh, topo, params)
    rng = np.random.default_rng(6)
    e = rng.normal(size=forms.dof_w.num_dofs)
    h = rng.normal(size=forms.dof_u.num_dofs)
    state = State("lee-madsen", e, h, 0.25)

    class FakeCase:
        E = staticmethod(discrete_field_closure_t(mesh, forms.dof_w, e))
        H = staticmethod(discrete_field_closure_t(mesh, forms.dof_u, h))

    ee, eh = error_norms(state, FakeCase, forms)
    assert ee < 1e-12
    assert eh < 1e-12


def discrete_field_closure_t(mesh, dofmap, coeffs):
    base = discrete_field_closure(mesh, dofmap, coeffs)
    return lambda t, X: base(X)


def test_error_norms_constant_field(cube1):
    mesh, topo = cube1
    forms = build_forms(mesh, topo, MaterialParams())
    state = State(
        "lee-madsen",
        np.zeros(forms.dof_w.num_dofs),
        np.zeros(forms.dof_u.num_dofs),
        0.0,
    )
    c = np.array([0.3, -0.4, 1.2])

    class ConstCase:
        E = staticmethod(lambda t, X: np.broadcast_to(c, np.atleast_2d(X).shape))
        H = staticmethod(lambda t, X: np.zeros_like(np.atleast_2d(X)))

    ee, eh = error_norms(state, ConstCase, forms)
    assert ee == pytest.approx(np.linalg.norm(c), rel=1e-12)
    assert eh == 0.0


def test_error_norm_weight_monotonicity(cube1):
    mesh, topo = cube1
    f1 = build_forms(mesh, topo, MaterialParams(eps0=1.0))
    f2 = build_forms(mesh, topo, MaterialParams(eps0=2.0))
    state = State(
        "lee-madsen", np.zeros(f1.dof_w.num_dofs), np.zeros(f1.dof_u.num_dofs), 0.0
    )
    c = np.array([1.0, 1.0, 0.0])

    class ConstCase:
        E = staticmethod(lambda t, X: np.broadcast_to(c, np.atleast_2d(X).shape))
        H = staticmethod(lambda t, X: np.zeros_like(np.atleast_2d(X)))

    e1, _ = error_norms(state, ConstCase, f1)
    e2, _ = error_norms(state, ConstCase, f2)
    assert e2 == pytest.approx(np.sqrt(2.0) * e1, rel=1e-12)


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
@pytest.mark.parametrize("case_name", ["kerr-manufactured", "cavity"])
@pytest.mark.parametrize("n,rel_tol", [(2, 3e-4), (4, 2e-5)])
def test_error_norms_are_at_quadrature_error_level(case_name, formulation, n, rel_tol):
    # the one 14-point rule measures the error of initial data against the
    # exact fields at a later time as a degree-13 rule on the same fields does
    case = get_case(case_name)
    mesh = generate_structured_cube(n)
    topo = build_topology(mesh)
    forms = build_forms(mesh, topo, case.params)
    state = initialize(lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), formulation,
                       forms, H0_curl=lambda X: case.curl_H(0.0, X))
    state = dataclasses.replace(state, t=0.37)
    reference = SimpleNamespace(ctx=build_context(mesh, topo, tetrahedron_rule(13)),
                                params=case.params)
    got = error_norms(state, case, forms)
    want = error_norms(state, case, reference)
    assert np.allclose(got, want, rtol=rel_tol, atol=0.0)


def test_eoc_table_csv_roundtrip(tmp_path):
    table = EocTable(
        levels=np.array([2, 4]),
        h=np.array([0.8, 0.4]),
        err_e=np.array([0.2, 0.1]),
        err_h=np.array([0.3, 0.15]),
        eoc_e=np.array([1.0]),
        eoc_h=np.array([1.0]),
    )
    path = tmp_path / "t.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,h,errE,errH,eocE,eocH"
    assert lines[1].startswith("2,")
    assert lines[1].endswith(",,")  # no EOC on the coarsest row
    assert "1.000000" in lines[2]


def test_run_convergence_validates_levels():
    case = cavity_mode_case(t_final=0.1)
    with pytest.raises(ValueError, match="double"):
        run_convergence(case, (2, 3))
    with pytest.raises(ValueError, match="two"):
        run_convergence(case, (2,))


def test_cavity_convergence_small():
    case = cavity_mode_case(t_final=0.25)
    table = run_convergence(case, (2, 4), dt_factor=0.08)
    assert table.monotone
    assert 0.7 <= table.combined_eoc()[0] <= 1.4


def test_exact_discrete_solution_reproduced(cube2):
    # E = 0 with a static Whitney H and J_e = curl H_h is a fixed point of
    # the discrete flow; errors stay at machine level (EOC not applicable)
    mesh, topo = cube2
    params = MaterialParams()
    forms = build_forms(mesh, topo, params)
    rng = np.random.default_rng(8)
    h_coeffs = rng.normal(size=forms.dof_u.num_dofs)
    curl_closure = piecewise_curl_closure(mesh, forms, h_coeffs)
    sources = Sources(j_e_terms=((lambda t: 1.0, curl_closure),))
    st = State("lee-madsen", np.zeros(forms.dof_w.num_dofs), h_coeffs.copy(), 0.0)
    final, _ = integrate(st, 0.05, 10, sources, forms)
    assert np.abs(final.e).max() <= 1e-12
    assert np.abs(final.h - h_coeffs).max() <= 1e-12


def test_projection_study_rates():
    table = projection_study((2, 4))
    assert 0.8 <= table.eoc_e[0] <= 1.3
    assert 0.8 <= table.eoc_h[0] <= 1.3


def test_initialize_nedelec_interpolates_cavity(cube2):
    mesh, topo = cube2
    case = cavity_mode_case()
    forms = build_forms(mesh, topo, case.params)
    st = initialize(
        lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), "nedelec", forms
    )
    # boundary dofs exactly zero, interior dofs equal the edge integrals
    assert np.abs(st.e[topo.boundary_edges]).max() == 0.0
    dofs = interpolate_edge_dofs(lambda X: case.E(0.0, X), mesh, topo)
    free = forms.free_edges
    assert np.abs(st.e[free] - dofs[free]).max() < 1e-14
