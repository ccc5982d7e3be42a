from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings

from kerrfem.assembly import build_forms
from kerrfem.fem_spaces import barycentric
from kerrfem.material import MaterialParams, eps_scalar
from kerrfem.mesh import (
    TET_EDGES,
    TET_FACES,
    all_geometry,
    build_topology,
    generate_structured_cube,
    make_mesh,
)
from kerrfem.quadrature import QuadratureRule, _conical_rule, _points_per_axis

# Property tests draw the same examples on every run, keep no example
# database, and have no per-example time limit, so the suite stays
# deterministic on a loaded machine.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def cube1():
    mesh = generate_structured_cube(1)
    return mesh, build_topology(mesh)


@pytest.fixture(scope="session")
def cube2():
    mesh = generate_structured_cube(2)
    return mesh, build_topology(mesh)


@pytest.fixture(scope="session")
def forms2(cube2):
    mesh, topo = cube2
    return build_forms(mesh, topo, MaterialParams())


@pytest.fixture(scope="session")
def reference_tet_mesh():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return make_mesh(verts, np.array([[0, 1, 2, 3]]))


def jittered_cube(n, rng):
    """Kuhn cube with interior vertices moved by up to 10% of the spacing per
    coordinate, drawn from ``rng``; returns (vertices, tets)."""
    base = generate_structured_cube(n)
    verts = base.vertices.copy()
    interior = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    verts[interior] += rng.uniform(-0.1 / n, 0.1 / n, size=verts.shape)[interior]
    return verts, base.tets


@lru_cache(maxsize=None)
def tetrahedron_rule(degree: int = 5) -> QuadratureRule:
    """Conical product rule on the reference tet {x, y, z >= 0, x+y+z <= 1},
    exact to ``degree``: the reference of higher degree against which the
    tests measure the library's 14-point rule."""
    return _conical_rule(3, _points_per_axis(degree))


# The reference bases and their Piola map: an oracle built from the reference
# element, independent of the vertex values that the library stores.

# Barycentric gradients on the reference tet (rows: lambda_0..lambda_3).
LAMBDA_GRADS = np.array(
    [[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


def eval_edge_basis(points):
    """Whitney edge functions at reference points.

    Returns ``(values, curls)`` with values shaped (m, 6, 3) and the constant
    curls (6, 3); basis k lives on local edge TET_EDGES[k] = (a, b) and is
    lambda_a grad lambda_b - lambda_b grad lambda_a with curl
    2 grad lambda_a x grad lambda_b.
    """
    lam = barycentric(points)
    values = np.empty((lam.shape[0], 6, 3))
    curls = np.empty((6, 3))
    for k, (a, b) in enumerate(TET_EDGES):
        values[:, k, :] = (
            lam[:, a, None] * LAMBDA_GRADS[b] - lam[:, b, None] * LAMBDA_GRADS[a]
        )
        curls[k] = 2.0 * np.cross(LAMBDA_GRADS[a], LAMBDA_GRADS[b])
    return values, curls


def eval_face_basis(points):
    """Lowest-order Raviart-Thomas functions at reference points.

    Returns ``(values, divs)`` with values (m, 4, 3) and constant divergences
    (4,).  Basis k is dual to the flux through local face TET_FACES[k],
    measured along the right-hand-rule normal of the (ascending) face triple.
    """
    lam = barycentric(points)
    values = np.empty((lam.shape[0], 4, 3))
    divs = np.empty(4)
    for k, (a, b, c) in enumerate(TET_FACES):
        gbc = np.cross(LAMBDA_GRADS[b], LAMBDA_GRADS[c])
        gca = np.cross(LAMBDA_GRADS[c], LAMBDA_GRADS[a])
        gab = np.cross(LAMBDA_GRADS[a], LAMBDA_GRADS[b])
        values[:, k, :] = 2.0 * (
            lam[:, a, None] * gbc + lam[:, b, None] * gca + lam[:, c, None] * gab
        )
        divs[k] = 6.0 * float(LAMBDA_GRADS[a] @ gbc)
    return values, divs


def piola_map(jac, det, inv_jt, points):
    """Unsigned physical edge and face bases on every tet at reference points.

    H(curl) values transform covariantly (J^{-T} u) with curls scaled by
    J / det J; H(div) values transform contravariantly (J u / det J) with
    divergences scaled by 1 / det J.  Returns ``(edge_values, edge_curls,
    face_values, face_divs)`` shaped (nt, m, 6, 3), (nt, 6, 3),
    (nt, m, 4, 3) and (nt, 4).
    """
    edge_vals, edge_curls = eval_edge_basis(points)
    face_vals, face_divs = eval_face_basis(points)
    return (
        np.einsum("tab,qib->tqia", inv_jt, edge_vals),
        np.einsum("tab,ib->tia", jac, edge_curls) / det[:, None, None],
        np.einsum("tab,qib->tqia", jac, face_vals) / det[:, None, None, None],
        face_divs[None, :] / det[:, None],
    )


def basis_at_points(dofmap, bary):
    """The stored basis of ``dofmap`` at the points of barycentric
    coordinates ``bary`` (m, 4) in every tet, (nt, m, nloc, 3): the
    barycentric combination of its vertex values."""
    nt, nloc, _ = dofmap.vertex_values.shape
    return np.einsum("qv,tivd->tqid", bary, dofmap.vertex_values.reshape(nt, nloc, 4, 3))


def to_reference(geometry, tet_id, points):
    """Reference coordinates (m, 3) of physical points in one tet, given the
    arrays of :func:`all_geometry`."""
    origins, J, *_ = geometry
    return np.linalg.solve(J[tet_id], (np.atleast_2d(points) - origins[tet_id]).T).T


def _local_signs(mesh, tet_id, space):
    """Orientation signs of the local edges or faces of one tet, from its
    vertex numbers: the sign of the permutation that sorts each local edge
    pair or face triple, i.e. of the product of its pairwise differences."""
    v = mesh.tets[tet_id].astype(np.float64)
    if space == "edge":
        return np.array([np.sign(v[b] - v[a]) for a, b in TET_EDGES])
    return np.array([np.sign((v[b] - v[a]) * (v[c] - v[a]) * (v[c] - v[b]))
                     for a, b, c in TET_FACES])


def eval_on_tet(mesh, dofmap, coeffs, tet_id, points, geometry=None):
    """Evaluate a discrete vector field on one tet at physical points.

    An oracle independent of ``dofmap.vertex_values``: the basis comes from
    :func:`piola_map` on this one tet, chosen by the local dof count (6 edge,
    4 face, 3 cellwise constant), and its orientation from the tet's vertex
    numbers.
    """
    points = np.atleast_2d(points)
    space = {6: "edge", 4: "face", 3: "cell"}[dofmap.cell_dofs.shape[1]]
    if space == "cell":
        const = coeffs[dofmap.cell_dofs[tet_id]]
        return np.broadcast_to(const, (len(points), 3)).copy()
    geometry = all_geometry(mesh) if geometry is None else geometry
    _, J, det, invJT, _ = geometry
    one = slice(tet_id, tet_id + 1)
    edge_vals, _, face_vals, _ = piola_map(J[one], det[one], invJT[one],
                                           to_reference(geometry, tet_id, points))
    local = coeffs[dofmap.cell_dofs[tet_id]] * _local_signs(mesh, tet_id, space)
    phys = {"edge": edge_vals, "face": face_vals}[space][0]
    return np.einsum("qid,i->qd", phys, local)


def _cellwise_closure(mesh, on_tet):
    """Pointwise closure that locates each point by brute force and evaluates
    ``on_tet(tet_id, points, geometry)`` there."""
    geometry = all_geometry(mesh)

    def func(X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.zeros_like(X)
        remaining = np.ones(len(X), dtype=bool)
        for t in range(mesh.num_tets):
            if not remaining.any():
                break
            ref = to_reference(geometry, t, X)
            inside = remaining & (ref.min(axis=1) >= -1e-12) & (
                ref.sum(axis=1) <= 1.0 + 1e-12
            )
            if inside.any():
                out[inside] = on_tet(t, X[inside], geometry)
                remaining &= ~inside
        return out

    return func


def discrete_field_closure(mesh, dofmap, coeffs):
    """Pointwise-evaluatable closure of a discrete field (brute-force locate)."""
    return _cellwise_closure(
        mesh, lambda t, X, geometry: eval_on_tet(mesh, dofmap, coeffs, t, X, geometry)
    )


def piecewise_curl_closure(mesh, forms, coeffs):
    """Closure evaluating the (cellwise constant) curl of an edge-space field."""
    cell_curl = np.einsum("tid,ti->td", forms.ctx.edge_curls, coeffs[forms.dof_u.cell_dofs])
    return _cellwise_closure(mesh, lambda t, X, geometry: cell_curl[t])


def energy_density(p, E, H):
    """Pointwise electromagnetic energy density of the Kerr medium, the
    oracle of ``total_energy``.

    0.5*[eps0*(1+chi1)|E|^2 + 1.5*eps0*chi3*|E|^4 + mu0*|H|^2]; nonnegative,
    and zero only for E = H = 0.
    """
    E = np.asarray(E, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    e2 = np.sum(E * E, axis=-1)
    h2 = np.sum(H * H, axis=-1)
    return 0.5 * (p.eps_lin * e2 + 1.5 * p.eps0 * p.chi3 * e2 * e2 + p.mu0 * h2)


def eps_matrix(p, E):
    """Field-dependent permittivity matrix, shape (..., 3, 3), the oracle of
    the field derivative of ``d_of_e``.

    eps(E) = eps0*[(1 + chi1 + chi3|E|^2) I + 2 chi3 E E^T]; symmetric with
    eigenvalues >= eps0.
    """
    E = np.asarray(E, dtype=np.float64)
    outer = E[..., :, None] * E[..., None, :]
    return p.eps0 * (eps_scalar(p, E)[..., None, None] * np.eye(3) + 2.0 * p.chi3 * outer)
