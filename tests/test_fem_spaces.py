import numpy as np
import pytest

from conftest import eval_on_tet, jittered_cube
from kerrfem.assembly import build_context, build_forms
from kerrfem.fem_spaces import (
    eval_edge_basis,
    eval_face_basis,
    interpolate_edge_dofs,
    interpolate_face_dofs,
    piola_map,
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


@pytest.mark.parametrize("rule", ["symmetric", "vertices"])
def test_stored_bases_are_signed_piola_maps(rule):
    # every basis array of each context equals piola_map at the context's
    # reference points times the cell signs of the mesh orientation
    rng = np.random.default_rng(31)
    verts, tets = jittered_cube(2, rng)
    perm = rng.permutation(len(verts))
    permuted = np.empty_like(verts)
    permuted[perm] = verts
    mesh = make_mesh(permuted, perm[tets])
    topo = build_topology(mesh)
    main = build_forms(mesh, topo, MaterialParams()).ctx
    ctx, points = {
        "symmetric": (main, symmetric_tetrahedron_rule().points),
        "vertices": (main.vertices, np.vstack([np.zeros(3), np.eye(3)])),
    }[rule]
    origins, J, det, invJT, _ = all_geometry(mesh)
    assert np.allclose(ctx.phys_pts, origins[:, None, :] + np.einsum("tab,qb->tqa", J, points),
                       rtol=0.0, atol=1e-15)
    edge_vals, edge_curls, face_vals, face_divs = piola_map(J, det, invJT, points)
    edge_sign, face_sign = topo.tet_edge_sign, topo.tet_face_sign
    assert (edge_sign < 0).any() and (face_sign < 0).any()
    assert np.array_equal(ctx.dof_u.values, edge_vals * edge_sign[:, :, None])
    assert np.array_equal(ctx.edge_curls, edge_curls * edge_sign[:, :, None])
    assert np.array_equal(ctx.dof_v.values, face_vals * face_sign[:, :, None])
    assert np.array_equal(ctx.face_divs, face_divs * face_sign)
    identity = np.tile(np.eye(3), len(points))
    assert np.array_equal(ctx.dof_w.values, np.broadcast_to(identity, ctx.dof_w.values.shape))


def test_push_forward_identity(reference_tet_mesh):
    _, J, det, invJT, _ = all_geometry(reference_tet_mesh)
    pts = np.array([[0.2, 0.3, 0.1]])
    vals, curls = eval_edge_basis(pts)
    fvals, fdivs = eval_face_basis(pts)
    pv, pc, qv, qd = piola_map(J, det, invJT, pts)
    assert np.allclose(pv[0].reshape(6, 1, 3), vals.transpose(1, 0, 2))
    assert np.allclose(pc[0], curls)
    assert np.allclose(qv[0].reshape(4, 1, 3), fvals.transpose(1, 0, 2))
    assert np.allclose(qd[0], fdivs)


def _random_tet(seed):
    """Geometry arrays and reference-to-physical map of one random tet."""
    verts = np.random.default_rng(seed).normal(size=(4, 3))
    mesh = make_mesh(verts, np.array([[0, 1, 2, 3]]))
    origins, J, det, invJT, _ = all_geometry(mesh)

    def to_physical(ref):
        return origins[0] + ref @ J[0].T

    return (J, det, invJT), to_physical


def test_mapped_edge_dof_invariance():
    # tangential edge dof of the mapped Whitney function equals 1
    geometry, to_physical = _random_tet(4)
    rule = segment_rule(4)
    for k, (a, b) in enumerate(TET_EDGES):
        ra, rb = REF_VERTS[a], REF_VERTS[b]
        ref_pts = ra + rule.points[:, 0:1] * (rb - ra)
        phys = piola_map(*geometry, ref_pts)[0][0]
        pa, pb = to_physical(ra), to_physical(rb)
        dof = np.einsum("q,qd,d->", rule.weights, phys[k].reshape(-1, 3), pb - pa)
        assert dof == pytest.approx(1.0, abs=1e-12)


def test_mapped_face_flux_invariance():
    geometry, to_physical = _random_tet(5)
    rule = triangle_rule(5)
    for k, (a, b, c) in enumerate(TET_FACES):
        ra, rb, rc = REF_VERTS[a], REF_VERTS[b], REF_VERTS[c]
        ref_pts = ra + rule.points[:, 0:1] * (rb - ra) + rule.points[:, 1:2] * (rc - ra)
        phys = piola_map(*geometry, ref_pts)[2][0]
        pa, pb, pc = (to_physical(p) for p in (ra, rb, rc))
        n2 = np.cross(pb - pa, pc - pa)
        flux = np.einsum("q,qd,d->", rule.weights, phys[k].reshape(-1, 3), n2)
        assert flux == pytest.approx(1.0, abs=1e-12)


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
