import numpy as np
import pytest
from hypothesis import settings

from kerrfem.assembly import build_forms
from kerrfem.fem_spaces import SpaceKind, eval_edge_basis, eval_face_basis, push_forward
from kerrfem.material import MaterialParams
from kerrfem.mesh import build_topology, generate_structured_cube, make_mesh, tet_geometry

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


def eval_on_tet(mesh, dofmap, coeffs, tet_id, points):
    """Evaluate a discrete vector field on one tet at physical points."""
    points = np.atleast_2d(points)
    if dofmap.kind is SpaceKind.DISCONTINUOUS_VECTOR:
        const = coeffs[dofmap.cell_dofs[tet_id]]
        return np.broadcast_to(const, (len(points), 3)).copy()
    geom = tet_geometry(mesh, tet_id)
    ref = geom.to_reference(points)
    if dofmap.kind in (SpaceKind.NEDELEC_EDGE, SpaceKind.NEDELEC_EDGE_BC):
        vals, _ = eval_edge_basis(ref)
    elif dofmap.kind is SpaceKind.RAVIART_THOMAS_FACE:
        vals, _ = eval_face_basis(ref)
    else:
        raise ValueError(dofmap.kind)
    phys = push_forward(dofmap.kind, geom, vals)
    local = coeffs[dofmap.cell_dofs[tet_id]] * dofmap.cell_signs[tet_id]
    return np.einsum("qid,i->qd", phys, local)


def discrete_field_closure(mesh, dofmap, coeffs):
    """Pointwise-evaluatable closure of a discrete field (brute-force locate)."""

    def func(X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.zeros_like(X)
        remaining = np.ones(len(X), dtype=bool)
        for t in range(mesh.num_tets):
            if not remaining.any():
                break
            geom = tet_geometry(mesh, t)
            ref = geom.to_reference(X)
            inside = remaining & (ref.min(axis=1) >= -1e-12) & (
                ref.sum(axis=1) <= 1.0 + 1e-12
            )
            if inside.any():
                out[inside] = eval_on_tet(mesh, dofmap, coeffs, t, X[inside])
                remaining &= ~inside
        return out

    return func


def piecewise_curl_closure(mesh, forms, coeffs):
    """Closure evaluating the (cellwise constant) curl of an edge-space field."""
    signed = forms.ctx.edge_curls * forms.dof_u.cell_signs[:, :, None]
    cell_curl = np.einsum("tid,ti->td", signed, coeffs[forms.dof_u.cell_dofs])

    def func(X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.zeros_like(X)
        remaining = np.ones(len(X), dtype=bool)
        for t in range(mesh.num_tets):
            if not remaining.any():
                break
            geom = tet_geometry(mesh, t)
            ref = geom.to_reference(X)
            inside = remaining & (ref.min(axis=1) >= -1e-12) & (
                ref.sum(axis=1) <= 1.0 + 1e-12
            )
            if inside.any():
                out[inside] = cell_curl[t]
                remaining &= ~inside
        return out

    return func
