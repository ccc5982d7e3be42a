import numpy as np
import pytest

from conftest import (
    basis_at_points,
    eval_edge_basis,
    eval_face_basis,
    eval_on_tet,
    jittered_cube,
    piola_map,
    tetrahedron_rule,
    to_reference,
)
from kerrfem.assembly import build_context, build_forms
from kerrfem.fem_spaces import (
    VERTEX_MOMENTS_4,
    barycentric,
    build_spaces,
    interpolate_edge_dofs,
    interpolate_face_dofs,
)
from kerrfem.material import MaterialParams
from kerrfem.mesh import TET_EDGES, TET_FACES, all_geometry, build_topology, make_mesh
from kerrfem.quadrature import (
    segment_rule,
    symmetric_tetrahedron_rule,
    triangle_rule,
)

REF_VERTS = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def reference_edge_dofs(values_at):
    """Edge-dof functionals on the reference tet applied to a basis batch."""
    rule = segment_rule(4)
    D = np.zeros((6, 6))
    for i, (a, b) in enumerate(TET_EDGES):
        pa, pb = REF_VERTS[a], REF_VERTS[b]
        pts = pa + rule.points[:, 0:1] * (pb - pa)
        vals, _ = values_at(pts)
        D[i] = np.einsum("q,qjd,d->j", rule.weights, vals, pb - pa)
    return D


def test_edge_basis_barycenter_value():
    vals, curls = eval_edge_basis(np.array([[0.25, 0.25, 0.25]]))
    assert np.allclose(vals[0, 0], [0.5, 0.25, 0.25])
    assert np.allclose(curls[0], [0.0, -2.0, 2.0])


def test_edge_dof_duality():
    D = reference_edge_dofs(eval_edge_basis)
    assert np.abs(D - np.eye(6)).max() < 1e-13


def test_edge_curl_is_constant():
    rng = np.random.default_rng(0)
    pts = rng.dirichlet(np.ones(4), size=5)[:, :3]
    _, curls = eval_edge_basis(pts)
    assert curls.shape == (6, 3)
    for k, (a, b) in enumerate(TET_EDGES):
        grads = np.array([[-1.0, -1, -1], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert np.allclose(curls[k], 2.0 * np.cross(grads[a], grads[b]))


def test_face_dof_duality():
    rule = triangle_rule(5)
    F = np.zeros((4, 4))
    for i, (a, b, c) in enumerate(TET_FACES):
        pa, pb, pc = REF_VERTS[a], REF_VERTS[b], REF_VERTS[c]
        pts = pa + rule.points[:, 0:1] * (pb - pa) + rule.points[:, 1:2] * (pc - pa)
        vals, _ = eval_face_basis(pts)
        n2 = np.cross(pb - pa, pc - pa)
        F[i] = np.einsum("q,qjd,d->j", rule.weights, vals, n2)
    assert np.abs(F - np.eye(4)).max() <= 1e-12


def test_face_divergence_theorem():
    # |K| div(phi_f) equals the total outward boundary flux of phi_f
    rule = triangle_rule(5)
    _, divs = eval_face_basis(np.array([[0.25, 0.25, 0.25]]))
    centroid = REF_VERTS.mean(axis=0)
    for j in range(4):
        flux = 0.0
        for (a, b, c) in TET_FACES:
            pa, pb, pc = REF_VERTS[a], REF_VERTS[b], REF_VERTS[c]
            pts = pa + rule.points[:, 0:1] * (pb - pa) + rule.points[:, 1:2] * (pc - pa)
            vals, _ = eval_face_basis(pts)
            n2 = np.cross(pb - pa, pc - pa)
            if n2 @ (pa - centroid) < 0:  # orient outward
                n2 = -n2
            flux += np.einsum("q,qd,d->", rule.weights, vals[:, j, :], n2)
        assert flux == pytest.approx(divs[j] / 6.0, abs=1e-12)


def test_constant_field_face_expansion():
    # a constant expands with coefficients equal to its face fluxes
    rng = np.random.default_rng(1)
    c = rng.normal(size=3)
    coeffs = np.zeros(4)
    for i, (a, b, cc) in enumerate(TET_FACES):
        pa, pb, pc = REF_VERTS[a], REF_VERTS[b], REF_VERTS[cc]
        n2 = np.cross(pb - pa, pc - pa)
        coeffs[i] = 0.5 * c @ n2  # flux of the constant through face i
    pts = np.random.default_rng(2).dirichlet(np.ones(4), size=10)[:, :3]
    vals, _ = eval_face_basis(pts)
    recon = np.einsum("qid,i->qd", vals, coeffs)
    assert np.abs(recon - c).max() < 1e-13


def test_dof_counts_unit_cube(cube1):
    mesh, topo = cube1
    ctx = build_context(mesh, topo, symmetric_tetrahedron_rule())
    assert ctx.dof_u.num_dofs == 19
    assert ctx.dof_w.num_dofs == 18
    assert len(topo.boundary_edges) == 18  # only the body diagonal is interior
    assert ctx.dof_v.num_dofs == 18


def _close(got, want):
    return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_degree_four_table_is_the_quadrature_of_barycentric_products():
    # I_abcd is the integral of lambda_a lambda_b lambda_c lambda_d over a tet
    # of unit volume: on a jittered tet, by the conftest rule at points whose
    # barycentric coordinates come from the physical points
    verts, tets = jittered_cube(2, np.random.default_rng(7))
    center = np.flatnonzero(np.all(np.abs(verts - 0.5) < 0.25, axis=1))
    mesh = make_mesh(verts, tets[np.any(np.isin(tets, center), axis=1)][:1])
    geometry = all_geometry(mesh)
    origins, J, det, _, vol = geometry
    rule = tetrahedron_rule(5)
    X = origins[0] + rule.points @ J[0].T
    lam = barycentric(to_reference(geometry, 0, X))
    got = np.einsum("q,qa,qb,qc,qd->abcd", rule.weights * abs(det[0]), lam, lam, lam, lam)
    assert np.abs(got - vol[0] * VERTEX_MOMENTS_4).max() <= 1e-15 * vol[0]
    assert np.abs(got.sum() - vol[0]) <= 1e-15 * vol[0]


@pytest.mark.parametrize("rule", ["symmetric", "vertices"])
def test_stored_bases_are_signed_piola_maps(rule):
    # at the 14 points and at the vertices, each basis equals the Piola
    # map of the reference basis times the cell signs of the mesh
    # orientation; so do the curls and divergences
    rng = np.random.default_rng(31)
    verts, tets = jittered_cube(2, rng)
    perm = rng.permutation(len(verts))
    permuted = np.empty_like(verts)
    permuted[perm] = verts
    mesh = make_mesh(permuted, perm[tets])
    topo = build_topology(mesh)
    ctx = build_forms(mesh, topo, MaterialParams()).ctx
    nt = mesh.num_tets
    origins, J, det, invJT, _ = all_geometry(mesh)
    edge_sign, face_sign = topo.tet_edge_sign, topo.tet_face_sign
    assert (edge_sign < 0).any() and (face_sign < 0).any()
    if rule == "symmetric":
        points, bary = symmetric_tetrahedron_rule().points, ctx.bary
        assert np.allclose(ctx.phys_pts, origins[:, None] + np.einsum("tab,qb->tqa", J, points),
                           rtol=0.0, atol=1e-15)
    else:
        points, bary = REF_VERTS, np.eye(4)
    edge_vals, edge_curls, face_vals, face_divs = piola_map(J, det, invJT, points)
    assert _close(basis_at_points(ctx.dof_u, bary), edge_vals * edge_sign[:, None, :, None])
    assert _close(basis_at_points(ctx.dof_v, bary), face_vals * face_sign[:, None, :, None])
    assert _close(ctx.edge_curls, edge_curls * edge_sign[:, :, None])
    assert _close(ctx.face_divs, face_divs * face_sign)
    identity = np.broadcast_to(np.eye(3), (nt, len(points), 3, 3))
    assert np.allclose(basis_at_points(ctx.dof_w, bary), identity, rtol=0.0, atol=1e-15)


def test_push_forward_identity(reference_tet_mesh):
    # on the reference tet, whose cell signs are all +1, the spaces built
    # from vertex values are the reference bases at every point
    topo = build_topology(reference_tet_mesh)
    _, J, det, invJT, _ = all_geometry(reference_tet_mesh)
    dof_u, dof_v, _, curls, divs = build_spaces(topo, J, det, invJT)
    pts = np.random.default_rng(3).dirichlet(np.ones(4), size=5)[:, :3]
    vals, ref_curls = eval_edge_basis(pts)
    fvals, ref_divs = eval_face_basis(pts)
    assert np.allclose(basis_at_points(dof_u, barycentric(pts))[0], vals, rtol=0.0, atol=1e-15)
    assert np.allclose(basis_at_points(dof_v, barycentric(pts))[0], fvals, rtol=0.0, atol=1e-15)
    assert np.array_equal(curls[0], ref_curls)
    assert np.array_equal(divs[0], ref_divs)


def _random_tet_spaces(seed):
    """A one-tet mesh on random vertices, its topology and the geometry and
    spaces built on it; seeds 6 and 7 give a tet whose last two vertices
    ``make_mesh`` swaps, so some cell signs are -1."""
    verts = np.random.default_rng(seed).normal(size=(4, 3))
    mesh = make_mesh(verts, np.array([[0, 1, 2, 3]]))
    topo = build_topology(mesh)
    geometry = all_geometry(mesh)
    _, J, det, invJT, _ = geometry
    return mesh, topo, geometry, build_spaces(topo, J, det, invJT)


def test_mapped_edge_dof_invariance():
    # the tangential line integral lo -> hi along each global edge of the
    # stored signed Whitney functions is the identity matrix
    mesh, topo, geometry, (dof_u, *_) = _random_tet_spaces(6)
    assert (topo.tet_edge_sign < 0).any()
    rule = segment_rule(4)
    D = np.zeros((6, 6))
    for k in range(6):
        p_lo, p_hi = mesh.vertices[topo.edges[dof_u.cell_dofs[0, k]]]
        X = p_lo + rule.points[:, 0:1] * (p_hi - p_lo)
        phys = basis_at_points(dof_u, barycentric(to_reference(geometry, 0, X)))[0]
        D[k] = np.einsum("q,qid,d->i", rule.weights, phys, p_hi - p_lo)
    assert np.abs(D - np.eye(6)).max() <= 1e-12


def test_mapped_face_flux_invariance():
    # the flux through each global face, along the normal of its sorted
    # triple, of the stored signed Raviart-Thomas functions is the identity
    mesh, topo, geometry, (_, dof_v, *_) = _random_tet_spaces(7)
    assert (topo.tet_face_sign < 0).any()
    rule = triangle_rule(5)
    F = np.zeros((4, 4))
    for k in range(4):
        pa, pb, pc = mesh.vertices[topo.faces[dof_v.cell_dofs[0, k]]]
        X = pa + rule.points[:, 0:1] * (pb - pa) + rule.points[:, 1:2] * (pc - pa)
        phys = basis_at_points(dof_v, barycentric(to_reference(geometry, 0, X)))[0]
        F[k] = np.einsum("q,qid,d->i", rule.weights, phys, np.cross(pb - pa, pc - pa))
    assert np.abs(F - np.eye(4)).max() <= 1e-12


def _face_samples(mesh, topo, f):
    tri = topo.faces[f]
    P = mesh.vertices[tri]
    bary = np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.25, 0.35, 0.4]])
    n = np.cross(P[1] - P[0], P[2] - P[0])
    return bary @ P, n / np.linalg.norm(n)


def _face_tets(topo, f):
    """The tets that share face f: one on the boundary, two inside."""
    return np.flatnonzero((topo.tet_faces == f).any(axis=1))


def test_hcurl_tangential_conformity(cube2, forms2):
    mesh, topo = cube2
    dm = forms2.dof_u
    rng = np.random.default_rng(6)
    coeffs = rng.normal(size=dm.num_dofs)
    for f in range(topo.num_faces):
        tets = _face_tets(topo, f)
        if len(tets) < 2:
            continue
        t1, t2 = tets
        X, n = _face_samples(mesh, topo, f)
        d = eval_on_tet(mesh, dm, coeffs, t1, X) - eval_on_tet(mesh, dm, coeffs, t2, X)
        tang = d - (d @ n)[:, None] * n
        assert np.abs(tang).max() < 1e-10


def test_hdiv_normal_conformity(cube2, forms2):
    mesh, topo = cube2
    dm = forms2.dof_v
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=dm.num_dofs)
    for f in range(topo.num_faces):
        tets = _face_tets(topo, f)
        if len(tets) < 2:
            continue
        t1, t2 = tets
        X, n = _face_samples(mesh, topo, f)
        d = eval_on_tet(mesh, dm, coeffs, t1, X) - eval_on_tet(mesh, dm, coeffs, t2, X)
        assert np.abs(d @ n).max() < 1e-10


def test_u0h_zero_tangential_boundary_trace(cube2, forms2):
    mesh, topo = cube2
    dm = forms2.dof_u
    rng = np.random.default_rng(8)
    coeffs = rng.normal(size=dm.num_dofs)
    coeffs[topo.boundary_edges] = 0.0
    for f in topo.boundary_faces:
        X, n = _face_samples(mesh, topo, f)
        (t1,) = _face_tets(topo, f)
        v = eval_on_tet(mesh, dm, coeffs, t1, X)
        assert np.abs(np.cross(n, v)).max() <= 1e-12


def test_interpolation_reproduces_in_space_fields(cube2, forms2):
    # Whitney interpolation reproduces a + c x X; face-flux interpolation
    # reproduces a + b X (the respective local shape spaces).
    mesh, topo = cube2
    a = np.array([0.3, -0.7, 0.1])
    c = np.array([1.0, -2.0, 0.5])

    def whitney_type(X):
        X = np.atleast_2d(X)
        return a + np.cross(np.broadcast_to(c, X.shape), X)

    def rt_type(X):
        X = np.atleast_2d(X)
        return a + 0.8 * X

    dm = forms2.dof_u
    edofs = interpolate_edge_dofs(whitney_type, mesh, topo)
    dmv = forms2.dof_v
    fdofs = interpolate_face_dofs(rt_type, mesh, topo)
    for t in (0, 7, 23):
        X = mesh.vertices[mesh.tets[t]].mean(axis=0, keepdims=True)
        ve = eval_on_tet(mesh, dm, edofs, t, X)
        assert np.abs(ve - whitney_type(X)).max() < 1e-12
        vf = eval_on_tet(mesh, dmv, fdofs, t, X)
        assert np.abs(vf - rt_type(X)).max() < 1e-12
