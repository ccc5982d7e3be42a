import gc
import itertools
import os
import tempfile
import weakref
from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import (
    discrete_field_closure,
    eval_on_tet,
    jittered_cube,
    piecewise_curl_closure,
    piola_map,
    tetrahedron_rule,
)
from kerrfem import assembly
from kerrfem.assembly import (
    assemble_coupling,
    assemble_flux_load,
    assemble_gradient,
    assemble_nonlinear_curl_curl,
    assemble_nonlinear_mass_curl,
    assemble_source,
    build_context,
    build_forms,
    curl_project,
    l2_project,
)
from kerrfem.cli_io import cell_sampled_fields
from kerrfem.dynamics import ZERO_SOURCES, e_max_norm, initialize, integrate
from kerrfem.linalg import from_triplets
from kerrfem.material import MaterialParams, cm_matrix, d_of_e, e_of_d
from kerrfem.mesh import (
    TET_EDGES,
    all_geometry,
    build_topology,
    generate_structured_cube,
    make_mesh,
    mesh_size,
    read_mesh,
    write_mesh,
)
from kerrfem.quadrature import (
    segment_rule,
    symmetric_tetrahedron_rule,
    triangle_rule,
)
from kerrfem.verification import cavity_mode_case


def monomial_integral_tet(a: int, b: int, c: int) -> float:
    """Exact integral of x^a y^b z^c over the reference tet."""
    return factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 3)


def test_all_lists_every_public_function_and_class():
    public = {name for name, obj in vars(assembly).items()
              if not name.startswith("_") and callable(obj)
              and getattr(obj, "__module__", None) == assembly.__name__}
    assert public <= set(assembly.__all__)


def test_symmetric_tet_rule_is_exact_to_degree_five():
    rule = symmetric_tetrahedron_rule()
    assert rule.points.shape == (14, 3)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(1.0 / 6.0, rel=1e-15)
    bary = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])
    assert np.all(bary > 0.0)
    x, y, z = rule.points.T
    exponents = [(a, b, c) for a in range(6) for b in range(6 - a) for c in range(6 - a - b)]
    assert len(exponents) == 56
    for a, b, c in exponents:
        got = np.sum(rule.weights * x**a * y**b * z**c)
        assert got == pytest.approx(monomial_integral_tet(a, b, c), rel=1e-14)


def test_tet_rule_monomial_exactness():
    rule = tetrahedron_rule(5)
    assert rule.weights.sum() == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert np.all(rule.weights > 0)
    x, y, z = rule.points.T
    for a in range(5):
        for b in range(5 - a):
            for c in range(5 - a - b):
                got = np.sum(rule.weights * x**a * y**b * z**c)
                assert got == pytest.approx(
                    monomial_integral_tet(a, b, c), abs=1e-14
                )


def test_triangle_and_segment_rules():
    tri = triangle_rule(5)
    assert tri.weights.sum() == pytest.approx(0.5, abs=1e-15)
    u, v = tri.points.T
    # int over unit triangle of u^a v^b = a! b! / (a+b+2)!
    from math import factorial

    for a in range(4):
        for b in range(4 - a):
            got = np.sum(tri.weights * u**a * v**b)
            assert got == pytest.approx(
                factorial(a) * factorial(b) / factorial(a + b + 2), abs=1e-15
            )
    seg = segment_rule(4)
    for a in range(8):
        assert np.sum(seg.weights * seg.points[:, 0] ** a) == pytest.approx(
            1.0 / (a + 1), abs=1e-15
        )


@pytest.fixture(scope="module")
def ctx2(cube2):
    mesh, topo = cube2
    return build_context(mesh, topo, symmetric_tetrahedron_rule())


def test_integrate_constant_is_volume(ctx2):
    assert ctx2.integrate(np.ones_like(ctx2.dx)) == pytest.approx(1.0, abs=1e-14)


def test_build_forms_sorts_one_pattern_per_space(cube2, monkeypatch):
    # build_forms sorts the edge and the face pattern once each; Kerr
    # marches of both formulations, which assemble Jacobians, the curl-curl
    # matrix and the free-edge restriction, sort none
    calls = []
    original = assembly._pattern

    def counted(dofmap):
        calls.append(dofmap)
        return original(dofmap)

    monkeypatch.setattr(assembly, "_pattern", counted)
    mesh, topo = cube2
    forms = build_forms(mesh, topo, MaterialParams(chi3=1.0))
    assert calls == [forms.dof_u, forms.dof_v]
    calls.clear()
    case = cavity_mode_case()
    for formulation in ("lee-madsen", "nedelec"):
        state = initialize(lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), formulation,
                           forms, H0_curl=lambda X: case.curl_H(0.0, X))
        integrate(state, 0.01, 2, ZERO_SOURCES, forms, collect=False)
    assert calls == []
    for A in (forms.mass_u1, forms.curl_curl):
        assert np.array_equal(A.indptr, forms.edge_pattern.indptr)
        assert np.array_equal(A.indices, forms.edge_pattern.indices)


def test_reduced_matrices_match_scipy_sums_bit_for_bit():
    # the reduced matrices are sums of data on the edge pattern and, for
    # nedelec, on its restriction, read by a mask; they equal scipy's sums
    # and fancy-indexed free block in data, indices and indptr (the jitter
    # leaves no exact zero, which scipy's sum would drop)
    mesh = make_mesh(*jittered_cube(3, np.random.default_rng(5)))
    params = MaterialParams(eps0=1.5, mu0=0.8, chi1=0.5)
    forms = build_forms(mesh, build_topology(mesh), params)
    M, A = forms.mass_u1, forms.curl_curl
    free = forms.free_edges
    for dt in (0.0, 0.07):
        want = {
            "lee-madsen": params.mu0 * M + dt * dt / (4.0 * params.eps_lin) * A,
            "nedelec": (params.eps_lin * M
                        + dt * dt / (4.0 * params.mu0) * A)[np.ix_(free, free)],
        }
        for formulation, matrix in want.items():
            got = forms.reduced_matrix(formulation, dt)
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, name), getattr(matrix, name)), \
                    (formulation, dt, name)


@pytest.mark.parametrize("space", ["edge", "face"])
def test_closed_form_grams_match_quadrature_of_the_oracle(space):
    # the closed-form Gram matrices equal a degree-13 quadrature of the
    # signed Piola-mapped reference bases on a jittered mesh
    mesh = make_mesh(*jittered_cube(3, np.random.default_rng(41)))
    topo = build_topology(mesh)
    forms = build_forms(mesh, topo, MaterialParams())
    rule = tetrahedron_rule(13)
    _, J, det, invJT, _ = all_geometry(mesh)
    edge_vals, _, face_vals, _ = piola_map(J, det, invJT, rule.points)
    vals, sign, dm, gram = {
        "edge": (edge_vals, topo.tet_edge_sign, forms.dof_u, forms.mass_u1),
        "face": (face_vals, topo.tet_face_sign, forms.dof_v, forms.mass_v1),
    }[space]
    vals = vals * sign[:, None, :, None]
    local = np.einsum("q,t,tqid,tqjd->tij", rule.weights, det, vals, vals)
    want = np.zeros((dm.num_dofs, dm.num_dofs))
    np.add.at(want, (dm.cell_dofs[:, :, None], dm.cell_dofs[:, None, :]), local)
    assert np.abs(gram.toarray() - want).max() <= 1e-13 * np.abs(want).max()


def test_masses_are_spd(forms2):
    rng = np.random.default_rng(0)
    for dm, M in ((forms2.dof_u, forms2.mass_u1), (forms2.dof_v, forms2.mass_v1)):
        D = M.toarray()
        assert np.abs(D - D.T).max() < 1e-14
        for _ in range(5):
            x = rng.normal(size=dm.num_dofs)
            assert x @ (M @ x) > 0.0


def _free_block(forms, A):
    """Dense free x free block of an edge matrix."""
    free = forms.free_edges
    return np.asarray(A)[np.ix_(free, free)]


def test_nonlinear_mass_curl_matches_block_structure(cube2):
    # with chi3 = 0 the Kerr Jacobian is the linear reduced matrix, whose
    # mass part is the scaled plain mass on the free edges
    mesh, topo = cube2
    params = MaterialParams(eps0=2.0, chi1=0.5)
    forms = build_forms(mesh, topo, params)
    rng = np.random.default_rng(2)
    e = rng.normal(size=forms.dof_u.num_dofs)
    M = assemble_nonlinear_mass_curl(forms, e, 0.0)
    M1 = _free_block(forms, forms.mass_u1.toarray())
    assert np.abs(M.toarray() - 3.0 * M1).max() < 1e-12
    dt = 0.3
    jac = assemble_nonlinear_mass_curl(forms, e, dt).toarray()
    assert np.abs(jac - forms.reduced_matrix("nedelec", dt).toarray()).max() < 1e-12


def test_nonlinear_mass_curl_is_spd_kerr(cube2):
    mesh, topo = cube2
    params = MaterialParams(chi3=1.5)
    forms = build_forms(mesh, topo, params)
    rng = np.random.default_rng(3)
    e = rng.normal(size=forms.dof_u.num_dofs)
    M = assemble_nonlinear_mass_curl(forms, e, 0.0)
    w = np.linalg.eigvalsh(M.toarray())
    w1 = np.linalg.eigvalsh(_free_block(forms, forms.mass_u1.toarray()))
    assert w.min() >= w1.min() - 1e-12  # eps(E) >= eps0 I = I


def test_coupling_reference_tet_entries():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    mesh = make_mesh(verts, np.array([[0, 1, 2, 3]]))
    topo = build_topology(mesh)
    ctx = build_context(mesh, topo, symmetric_tetrahedron_rule())
    dm = ctx.dof_u
    C = assemble_coupling(ctx, dm).toarray()
    # entries are |K| times the constant curl components (signs are +1 here)
    for j in range(6):
        assert np.allclose(C[:, dm.cell_dofs[0, j]], ctx.vol[0] * ctx.edge_curls[0, j])


def test_coupling_gradient_columns_vanish(forms2):
    # coefficients of a discrete gradient field lie in the kernel of C
    rng = np.random.default_rng(4)
    grad = assemble_gradient(forms2.ctx)
    q = rng.normal(size=grad.shape[1])
    grad_coeffs = grad @ q
    assert np.abs(forms2.coupling_lm @ grad_coeffs).max() <= 1e-13
    assert np.abs(forms2.discrete_curl @ grad_coeffs).max() <= 1e-13


def test_coupling_transpose_identity(forms2):
    rng = np.random.default_rng(5)
    e = rng.normal(size=forms2.coupling_lm.shape[0])
    h = rng.normal(size=forms2.coupling_lm.shape[1])
    a = e @ (forms2.coupling_lm @ h)
    b = h @ (forms2.coupling_lm.T @ e)
    assert a == pytest.approx(b, rel=1e-15)


def test_kept_coupling_transposes_are_exact_csr_copies(forms2):
    # the time loop's C^T and K^T are the CSR form of the transposes, and
    # their matvecs are bitwise those of the transposed views
    rng = np.random.default_rng(6)
    for A, AT in ((forms2.coupling_lm, forms2.coupling_lm_t),
                  (forms2.coupling_ned, forms2.coupling_ned_t)):
        assert AT.format == "csr" and AT.shape == A.T.shape
        assert (AT != A.T).nnz == 0
        x = rng.normal(size=A.shape[0])
        assert np.array_equal(AT @ x, A.T @ x)


def test_nedelec_coupling_matches_quadrature(cube1):
    mesh, topo = cube1
    forms = build_forms(mesh, topo, MaterialParams())
    ctx, dm_u, dm_v = forms.ctx, forms.dof_u, forms.dof_v
    K = forms.coupling_ned.toarray()
    # quadrature oracle for (phi_i^V, curl psi_j), each face function
    # evaluated by eval_on_tet
    unit = np.eye(dm_v.num_dofs)
    oracle = np.zeros((dm_v.num_dofs, dm_u.num_dofs))
    for t in range(ctx.num_tets):
        for i in range(4):
            g = dm_v.cell_dofs[t, i]
            phi = eval_on_tet(mesh, dm_v, unit[g], t, ctx.phys_pts[t])
            for j in range(6):
                oracle[g, dm_u.cell_dofs[t, j]] += np.einsum(
                    "q,qd,d->", ctx.dx[t], phi, ctx.edge_curls[t, j])
    assert np.abs(K - oracle[:, forms.free_edges]).max() < 1e-13


def test_discrete_curl_reproduces_curl(cube2):
    mesh, topo = cube2
    forms = build_forms(mesh, topo, MaterialParams())
    rng = np.random.default_rng(6)
    u = rng.normal(size=forms.dof_u.num_dofs)
    hcoeff = forms.discrete_curl @ u
    # compare the RT representation, affine on each tet, at its vertices
    # against the cellwise constant curl
    cell_curl = np.einsum("tid,ti->td", forms.ctx.edge_curls, u[forms.dof_u.cell_dofs])
    H = forms.dof_v.vertex_field(hcoeff)
    assert np.abs(H - cell_curl[:, None, :]).max() < 1e-12


def _jittered_permuted_mesh(n, seed):
    """A jittered Kuhn cube with its vertex numbers permuted, read back from a
    mesh file."""
    rng = np.random.default_rng(seed)
    verts, tets = jittered_cube(n, rng)
    perm = rng.permutation(len(verts))
    permuted = np.empty_like(verts)
    permuted[perm] = verts
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.txt")
        write_mesh(make_mesh(permuted, perm[tets]), path)
        return read_mesh(path)


@settings(max_examples=25)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_de_rham_exactness_on_jittered_meshes(n, seed):
    mesh = _jittered_permuted_mesh(n, seed)
    topo = build_topology(mesh)
    forms = build_forms(mesh, topo, MaterialParams())
    curl = forms.discrete_curl
    # curl grad = 0 exactly: the discrete curl is the signed face-edge incidence
    assert abs(curl @ assemble_gradient(forms.ctx)).max() == 0.0
    assert curl.nnz == 3 * topo.num_faces
    assert np.all(np.abs(curl.data) == 1.0)
    # div curl = 0 exactly: a cell's signed face divergences all have
    # magnitude 6 / det J, so their signs make the cell-face incidence
    nt = mesh.num_tets
    div = from_triplets(np.repeat(np.arange(nt), 4), topo.tet_faces.ravel(),
                        np.sign(forms.ctx.face_divs).ravel(),
                        shape=(nt, topo.num_faces))
    assert abs(div @ curl).max() == 0.0
    # C^T diag(1/|K|) C = A_cc, to roundoff
    C = forms.coupling_lm
    gram = C.T @ sp.diags(np.repeat(1.0 / forms.ctx.vol, 3)) @ C
    assert abs(gram - forms.curl_curl).max() <= 1e-13 * abs(forms.curl_curl).max()
    edge_id = {tuple(e): i for i, e in enumerate(topo.edges.tolist())}
    brute = {edge_id[pair] for f in topo.boundary_faces
             for pair in itertools.combinations(topo.faces[f].tolist(), 2)}
    assert topo.boundary_edges.tolist() == sorted(brute)


def _kerr_edge_oracle(mesh, forms, params, e):
    """Kerr Jacobian (dense) and flux load on the edge space, tet by tet, with
    the field and each global basis function evaluated by ``eval_on_tet``."""
    ctx, dm = forms.ctx, forms.dof_u
    geometry = all_geometry(mesh)
    unit = np.eye(dm.num_dofs)
    jac = np.zeros((dm.num_dofs, dm.num_dofs))
    load = np.zeros(dm.num_dofs)
    for t in range(mesh.num_tets):
        X, w, dofs = ctx.phys_pts[t], ctx.dx[t], dm.cell_dofs[t]
        E = eval_on_tet(mesh, dm, e, t, X, geometry)                       # (nq, 3)
        psi = np.array([eval_on_tet(mesh, dm, unit[g], t, X, geometry) for g in dofs])
        es = 1.0 + params.chi1 + params.chi3 * np.einsum("qd,qd->q", E, E)
        e_psi = np.einsum("qd,iqd->iq", E, psi)
        jac[np.ix_(dofs, dofs)] += params.eps0 * (
            np.einsum("q,iqd,jqd->ij", w * es, psi, psi)
            + 2.0 * params.chi3 * np.einsum("q,iq,jq->ij", w, e_psi, e_psi))
        load[dofs] += params.eps0 * np.einsum("q,iq->i", w * es, e_psi)
    return jac, load


@pytest.mark.parametrize("chi3,scale", [
    pytest.param(chi3, scale, id=str(chi3) if scale == 1.0 else f"{chi3}-x{scale:g}")
    for scale in (1.0, 1e-120, 1e40) for chi3 in (0.0, 1.0, 1e3)])
def test_kerr_jacobian_and_flux_load_match_oracle(chi3, scale):
    # fields from |E| ~ 1e-120, where the Kerr terms underflow, to |E| ~ 1e40
    mesh = _jittered_permuted_mesh(2, 12)
    params = MaterialParams(eps0=1.3, chi1=0.4, chi3=chi3)
    forms = build_forms(mesh, build_topology(mesh), params)
    ctx, dm = forms.ctx, forms.dof_u
    rng = np.random.default_rng(13)
    e = scale * rng.normal(size=dm.num_dofs)
    jac = assemble_nonlinear_mass_curl(forms, e, 0.0).toarray()
    load = assemble_flux_load(ctx, params, e)
    jac_ref, load_ref = _kerr_edge_oracle(mesh, forms, params, e)
    jac_ref = _free_block(forms, jac_ref)
    assert np.abs(jac - jac_ref).max() <= 1e-13 * np.abs(jac_ref).max()
    assert np.abs(load - load_ref).max() <= 1e-13 * np.abs(load_ref).max()
    # the Jacobian is the derivative of the flux load on the free edges,
    # along a unit direction that leaves the boundary edges fixed
    free = forms.free_edges
    v = np.zeros(dm.num_dofs)
    v[free] = rng.normal(size=len(free))
    v /= np.linalg.norm(v)
    step = 1e-4 * scale
    fd = (assemble_flux_load(ctx, params, e + step * v)
          - assemble_flux_load(ctx, params, e - step * v))[free] / (2.0 * step)
    jv = jac @ v[free]
    assert np.abs(jv - fd).max() <= 1e-8 * np.abs(jv).max()


def test_linear_flux_load_and_jacobian_are_finite_at_huge_fields(forms2):
    # a linear medium forms no |E|^2 moments, so a field of 1e160, whose
    # squares overflow, gives the load eps_lin M_u e and the Jacobian
    # eps_lin M_u on the free edges
    params = forms2.params
    assert params.chi3 == 0.0
    e = 1e160 * np.random.default_rng(14).normal(size=forms2.dof_u.num_dofs)
    load = assemble_flux_load(forms2.ctx, params, e)
    want = params.eps_lin * (forms2.mass_u1 @ e)
    assert np.all(np.isfinite(load))
    assert np.abs(load - want).max() <= 1e-13 * np.abs(want).max()
    jac = assemble_nonlinear_mass_curl(forms2, e, 0.0).data
    mass = forms2.reduced_matrix("nedelec", 0.0).data
    assert np.abs(jac - mass).max() <= 1e-13 * np.abs(mass).max()


@pytest.mark.parametrize("chi3", [0.0, 1.0])
@pytest.mark.parametrize("dt_over_h", [0.0, 0.3])
def test_kerr_jacobian_fixed_pattern_matches_dense(chi3, dt_over_h):
    # the Jacobian assembled into the free-edge pattern is the dense
    # (M_eps(e) + dt^2/(4 mu0) A_cc)[free][:, free], in canonical CSR
    mesh = make_mesh(*jittered_cube(3, np.random.default_rng(21)))
    params = MaterialParams(eps0=1.3, mu0=0.7, chi1=0.4, chi3=chi3)
    forms = build_forms(mesh, build_topology(mesh), params)
    e = np.random.default_rng(22).normal(size=forms.dof_u.num_dofs)
    dt = dt_over_h * mesh_size(mesh)
    jac = assemble_nonlinear_mass_curl(forms, e, dt)
    eps_mass, _ = _kerr_edge_oracle(mesh, forms, params, e)
    dense = _free_block(forms, eps_mass + dt * dt / (4.0 * params.mu0)
                        * forms.curl_curl.toarray())
    assert jac.shape == dense.shape
    assert np.abs(jac.toarray() - dense).max() <= 1e-14 * np.abs(dense).max()
    assert jac.has_canonical_format
    jac.check_format(full_check=True)


@pytest.mark.parametrize("chi3", [0.0, 1.0])
def test_lee_madsen_kerr_jacobian_is_the_residual_derivative(chi3):
    # the lee-madsen Jacobian, scattered into the pattern of mass_u1, is
    # mu0 M_u + (dt^2/4) C^T blockdiag(C_m(E) / (eps0 |K|)) C, the reduced
    # matrix when chi3 = 0, and the derivative of the midpoint residual
    # G(H1) = mu0 M_u (H1 - H0) + dt C^T (E0 + E(H1)) / 2
    mesh = make_mesh(*jittered_cube(3, np.random.default_rng(23)))
    params = MaterialParams(eps0=1.3, mu0=0.7, chi1=0.4, chi3=chi3)
    forms = build_forms(mesh, build_topology(mesh), params)
    rng = np.random.default_rng(24)
    C, vol, dt = forms.coupling_lm, forms.ctx.vol, 0.3 * mesh_size(mesh)
    e0 = rng.normal(size=C.shape[0])
    h0 = rng.normal(size=C.shape[1])

    def e_end(h1):
        d1 = d_of_e(params, e0.reshape(-1, 3)) + (dt / vol[:, None]) * (
            C @ (0.5 * (h0 + h1))).reshape(-1, 3)
        return e_of_d(params, d1).ravel()

    def residual(h1):
        return params.mu0 * (forms.mass_u1 @ (h1 - h0)) + dt * (C.T @ (0.5 * (e0 + e_end(h1))))

    h1 = h0 + 0.1 * rng.normal(size=len(h0))
    e1 = e_end(h1)
    jac = assemble_nonlinear_curl_curl(forms, e1, dt)
    assert jac.has_canonical_format
    jac.check_format(full_check=True)
    assert np.array_equal(jac.indptr, forms.mass_u1.indptr)
    assert np.array_equal(jac.indices, forms.mass_u1.indices)
    blocks = sp.block_diag(cm_matrix(params, e1.reshape(-1, 3))
                           / (params.eps0 * vol[:, None, None]))
    dense = (params.mu0 * forms.mass_u1 + dt * dt / 4.0 * (C.T @ blocks @ C)).toarray()
    assert np.abs(jac.toarray() - dense).max() <= 1e-14 * np.abs(dense).max()
    if chi3 == 0.0:
        reduced = forms.reduced_matrix("lee-madsen", dt).toarray()
        assert np.abs(jac.toarray() - reduced).max() <= 1e-14 * np.abs(reduced).max()
    v = rng.normal(size=len(h0))
    v /= np.linalg.norm(v)
    step = 1e-5
    fd = (residual(h1 + step * v) - residual(h1 - step * v)) / (2.0 * step)
    jv = jac @ v
    assert np.abs(jv - fd).max() <= 1e-8 * np.abs(jv).max()


def test_contexts_hold_no_reference_cycle(cube2):
    # after a nedelec Kerr step and both vertex-value outputs, the forms keep
    # no per-tet array on a quadrature-point axis but the measure and the
    # points (no basis at the points), and, with the cycle collector off,
    # reference counting alone frees them and their context
    mesh, topo = cube2
    case = cavity_mode_case()
    gc.disable()
    try:
        forms = build_forms(mesh, topo, MaterialParams(chi3=1.0))
        ctx = forms.ctx
        ctx_ref = weakref.ref(ctx)
        state = initialize(lambda X: case.E(0.0, X), lambda X: case.H(0.0, X),
                           "nedelec", forms)
        state, trace = integrate(state, 0.05, 1, ZERO_SOURCES, forms)
        outputs = (e_max_norm(state, forms), cell_sampled_fields(state, forms))
        nt, nq = ctx.dx.shape
        kept = {}
        for owner in (forms, ctx, ctx.dof_u, ctx.dof_v, ctx.dof_w):
            for name, value in vars(owner).items():
                if isinstance(value, np.ndarray) and value.ndim >= 2 and len(value) == nt:
                    kept[name] = value.shape
        per_point = {name for name, shape in kept.items()
                     if nq in shape[1:] or 3 * nq in shape[1:]}
        assert per_point == {"dx", "phys_pts"}
        assert kept["vertex_values"] == (nt, 3, 12)
        del forms, ctx, state, trace, outputs
        assert ctx_ref() is None
    finally:
        gc.enable()


def test_basis_layout(forms2):
    # each space stores its signed values at the four tet vertices,
    # (nt, nloc, 12); a field at the points is the barycentric table times
    # its vertex values
    ctx = forms2.ctx
    nt, nq = ctx.dx.shape
    assert ctx.bary.shape == (nq, 4)
    for dm, nloc in ((ctx.dof_u, 6), (ctx.dof_v, 4)):
        assert dm.vertex_values.shape == (nt, nloc, 12)
        assert dm.vertex_values.flags.c_contiguous
        c = np.random.default_rng(15).normal(size=dm.num_dofs)
        at_vertices = dm.vertex_field(c)
        assert at_vertices.shape == (nt, 4, 3)
        assert np.array_equal(ctx.field(dm, c), np.matmul(ctx.bary, at_vertices))
    # the cellwise-constant basis is one broadcast identity, taking no memory
    assert ctx.dof_w.vertex_values.shape == (nt, 3, 12)
    assert ctx.dof_w.vertex_values.strides[0] == 0
    c = np.random.default_rng(14).normal(size=ctx.dof_w.num_dofs)
    assert np.array_equal(ctx.dof_w.vertex_field(c),
                          np.broadcast_to(c.reshape(nt, 1, 3), (nt, 4, 3)))
    assert np.allclose(ctx.field(ctx.dof_w, c), c.reshape(nt, 1, 3), rtol=1e-15, atol=0.0)


def test_l2_project_constants(ctx2):
    c = np.array([1.5, -2.0, 0.25])
    coeffs = l2_project(ctx2, lambda X: np.broadcast_to(c, np.atleast_2d(X).shape))
    assert np.abs(coeffs.reshape(-1, 3) - c).max() < 1e-14


def test_l2_project_commutes_with_curl(cube2, forms2):
    mesh, _ = cube2
    rng = np.random.default_rng(7)
    u = rng.normal(size=forms2.dof_u.num_dofs)
    closure = piecewise_curl_closure(mesh, forms2, u)
    projected = l2_project(forms2.ctx, closure)
    exact = np.einsum("tid,ti->td", forms2.ctx.edge_curls, u[forms2.dof_u.cell_dofs]).ravel()
    assert np.abs(projected - exact).max() <= 1e-12


def test_l2_projection_rate():
    errs = []
    for n in (2, 4):
        mesh = generate_structured_cube(n)
        ctx = build_context(mesh, build_topology(mesh), symmetric_tetrahedron_rule())

        def w(X):
            X = np.atleast_2d(X)
            out = np.zeros_like(X)
            out[:, 0] = np.sin(np.pi * X[:, 0])
            return out

        coeffs = l2_project(ctx, w)
        wh = ctx.field(ctx.dof_w, coeffs)
        errs.append(np.sqrt(ctx.norm_sq(wh - ctx.sample(w))))
    eoc = np.log2(errs[0] / errs[1])
    assert 0.8 <= eoc <= 1.3


def test_curl_project_idempotent_on_discrete_fields(cube2, forms2):
    mesh, _ = cube2
    rng = np.random.default_rng(8)
    coeffs = rng.normal(size=forms2.dof_u.num_dofs)
    v = discrete_field_closure(mesh, forms2.dof_u, coeffs)
    vc = piecewise_curl_closure(mesh, forms2, coeffs)
    proj = curl_project(forms2, v, vc)
    assert np.abs(proj - coeffs).max() < 1e-10


def test_curl_project_gradient_field(forms2):
    # v = grad(q) for smooth q: the projection is curl-free and matches the
    # gradient moments of v
    def q_grad(X):
        X = np.atleast_2d(X)
        s = np.pi
        return np.stack(
            [
                s * np.cos(s * X[:, 0]) * np.sin(s * X[:, 1]),
                s * np.sin(s * X[:, 0]) * np.cos(s * X[:, 1]),
                np.zeros(len(X)),
            ],
            axis=-1,
        )

    zero = lambda X: np.zeros_like(np.atleast_2d(X))
    u = curl_project(forms2, q_grad, zero)
    assert np.abs(forms2.discrete_curl @ u).max() <= 1e-10
    grad = assemble_gradient(forms2.ctx)
    g = grad.T @ assemble_source(forms2.ctx, q_grad, forms2.dof_u)
    got = grad.T @ (forms2.mass_u1 @ u)
    assert np.abs(got - g).max() <= 1e-10


def test_curl_project_gauge_invariance(forms2):
    def v(X):
        X = np.atleast_2d(X)
        sx, sy = np.sin(np.pi * X[:, 0]), np.sin(np.pi * X[:, 1])
        cx, cy = np.cos(np.pi * X[:, 0]), np.cos(np.pi * X[:, 1])
        return np.stack([-sx * cy, cx * sy, np.zeros(len(X))], axis=-1)

    def vc(X):
        X = np.atleast_2d(X)
        out = np.zeros_like(X)
        out[:, 2] = -2.0 * np.pi * np.sin(np.pi * X[:, 0]) * np.sin(np.pi * X[:, 1])
        return out

    u0 = curl_project(forms2, v, vc, pinned_vertex=0)
    u7 = curl_project(forms2, v, vc, pinned_vertex=7)
    assert np.abs(u0 - u7).max() < 1e-9


def test_curl_project_matches_dense_saddle_solve():
    # v = cavity shape + grad(xyz), so both the curl load and the gradient
    # moments are nonzero; the oracle solves the assembled block system
    # [A_cc, M_u G; G^T M_u, 0] densely
    mesh = _jittered_permuted_mesh(3, 31)
    forms = build_forms(mesh, build_topology(mesh), MaterialParams())
    ctx, dof_u = forms.ctx, forms.dof_u

    def v(X):
        x, y, z = np.atleast_2d(X).T
        return np.stack([-np.sin(np.pi * x) * np.cos(np.pi * y) + y * z,
                         np.cos(np.pi * x) * np.sin(np.pi * y) + x * z, x * y], axis=-1)

    def vc(X):
        x, y, _ = np.atleast_2d(X).T
        zero = np.zeros_like(x)
        return np.stack([zero, zero, -2.0 * np.pi * np.sin(np.pi * x) * np.sin(np.pi * y)],
                        axis=-1)

    u = curl_project(forms, v, vc)
    cell_curl = assemble_source(ctx, vc, ctx.dof_w).reshape(-1, 3)
    f = np.zeros(dof_u.num_dofs)
    np.add.at(f, dof_u.cell_dofs, np.einsum("tid,td->ti", ctx.edge_curls, cell_curl))
    G = assemble_gradient(ctx).toarray()
    MG = forms.mass_u1.toarray() @ G
    g = G.T @ assemble_source(ctx, v, dof_u)
    K = np.block([[forms.curl_curl.toarray(), MG], [MG.T, np.zeros((G.shape[1],) * 2)]])
    ref = np.linalg.solve(K, np.concatenate([f, g]))[:dof_u.num_dofs]
    assert np.linalg.norm(f) > 0.0 and np.linalg.norm(g) > 0.0
    assert np.linalg.norm(u - ref) <= 1e-10 * np.linalg.norm(ref)


def test_curl_project_zero_field_is_exactly_zero(forms2):
    zero = lambda X: np.zeros_like(np.atleast_2d(X))
    assert not curl_project(forms2, zero, zero).any()


@pytest.mark.parametrize("vertex", [-1, 27])
def test_gradient_rejects_out_of_range_gauge_vertex(ctx2, vertex):
    assert ctx2.mesh.num_vertices == 27
    with pytest.raises(ValueError, match=rf"pinned_vertex {vertex} .*0\.\.26"):
        assemble_gradient(ctx2, pinned_vertex=vertex)


def test_assemble_source_zero_and_constant(ctx2):
    dm = ctx2.dof_w
    zero = assemble_source(ctx2, lambda X: np.zeros_like(np.atleast_2d(X)), dm)
    assert np.all(zero == 0.0)
    c = np.array([2.0, -1.0, 0.5])
    load = assemble_source(
        ctx2, lambda X: np.broadcast_to(c, np.atleast_2d(X).shape), dm
    )
    expect = (ctx2.vol[:, None] * c).ravel()
    assert np.abs(load - expect).max() < 1e-14


def _poly_affine_product_integral(poly, lin):
    """Exact integral over the reference tet of poly(x) * lin(x), where poly
    is a dict {(a,b,c): coeff} and lin = (c0, cx, cy, cz) is affine."""
    total = 0.0
    c0, cx, cy, cz = lin
    for (a, b, c), coeff in poly.items():
        total += coeff * (
            c0 * monomial_integral_tet(a, b, c)
            + cx * monomial_integral_tet(a + 1, b, c)
            + cy * monomial_integral_tet(a, b + 1, c)
            + cz * monomial_integral_tet(a, b, c + 1)
        )
    return total


def test_assemble_source_polynomial_exactness(reference_tet_mesh):
    # degree-3 polynomial target against the Whitney basis, checked against
    # the closed-form monomial integrals
    topo = build_topology(reference_tet_mesh)
    ctx = build_context(reference_tet_mesh, topo, symmetric_tetrahedron_rule())
    dm = ctx.dof_u
    polys = (
        {(2, 1, 0): 1.0, (0, 0, 0): 0.5},   # x^2 y + 0.5
        {(0, 3, 0): -2.0, (1, 0, 1): 1.0},  # -2 y^3 + x z
        {(0, 0, 2): 3.0, (1, 1, 1): -1.0},  # 3 z^2 - x y z
    )

    def target(X):
        X = np.atleast_2d(X)
        x, y, z = X[:, 0], X[:, 1], X[:, 2]
        cols = []
        for p in polys:
            col = np.zeros(len(X))
            for (a, b, c), coeff in p.items():
                col += coeff * x**a * y**b * z**c
            cols.append(col)
        return np.stack(cols, axis=-1)

    load = assemble_source(ctx, target, dm)
    grads = np.array([[-1.0, -1, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    lam_affine = {  # lambda_i as (c0, cx, cy, cz)
        0: (1.0, -1.0, -1.0, -1.0),
        1: (0.0, 1.0, 0.0, 0.0),
        2: (0.0, 0.0, 1.0, 0.0),
        3: (0.0, 0.0, 0.0, 1.0),
    }
    for k, (a, b) in enumerate(TET_EDGES):
        exact = 0.0
        for comp in range(3):
            # w_k component: lam_a * grads[b][comp] - lam_b * grads[a][comp]
            la = tuple(grads[b][comp] * v for v in lam_affine[a])
            lb = tuple(-grads[a][comp] * v for v in lam_affine[b])
            lin = tuple(la[i] + lb[i] for i in range(4))
            exact += _poly_affine_product_integral(polys[comp], lin)
        gk = dm.cell_dofs[0, k]
        assert load[gk] == pytest.approx(exact, abs=1e-14)


def test_assembly_permutation_invariance():
    # same mesh with permuted tet order assembles the same global matrix
    mesh = generate_structured_cube(2)
    perm = np.random.default_rng(9).permutation(mesh.num_tets)
    mesh_p = make_mesh(mesh.vertices, mesh.tets[perm])
    f1 = build_forms(mesh, build_topology(mesh), MaterialParams())
    f2 = build_forms(mesh_p, build_topology(mesh_p), MaterialParams())
    # summation order differs, so agreement is to roundoff in the entries
    assert np.abs(f1.mass_u1.toarray() - f2.mass_u1.toarray()).max() < 1e-14
    assert np.abs(f1.mass_v1.toarray() - f2.mass_v1.toarray()).max() < 1e-14
    a1 = f1.curl_curl.toarray()
    a2 = f2.curl_curl.toarray()
    assert np.abs(a1 - a2).max() < 1e-14


def test_curl_curl_gram(forms2):
    rng = np.random.default_rng(10)
    u = rng.normal(size=forms2.dof_u.num_dofs)
    quad = u @ (forms2.curl_curl @ u)
    cell_curl = np.einsum("tid,ti->td", forms2.ctx.edge_curls, u[forms2.dof_u.cell_dofs])
    direct = np.einsum("td,td,t->", cell_curl, cell_curl, forms2.ctx.vol)
    assert quad == pytest.approx(direct, rel=1e-13)


def test_gradient_matrix_is_incidence(cube2):
    mesh, topo = cube2
    ctx = build_context(mesh, topo, symmetric_tetrahedron_rule())
    G = assemble_gradient(ctx, pinned_vertex=0).toarray()
    nv = mesh.num_vertices
    for e, (lo, hi) in enumerate(topo.edges[:10]):
        row = np.zeros(nv - 1)
        if hi != 0:
            row[hi - 1] += 1.0
        if lo != 0:
            row[lo - 1] -= 1.0
        assert np.allclose(G[e], row)
