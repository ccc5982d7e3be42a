"""Reference-element bases, the Piola map, and the discrete spaces.

Three discrete spaces are provided at lowest order (k = 1): Whitney edge
elements in H(curl), lowest-order Raviart-Thomas face elements in H(div),
and piecewise-constant vectors in L2.  Each is one :class:`DofMap` that
carries its physical basis at one point set (the last is the identity).
Degrees of freedom sit on mesh entities with a combinatorial global
orientation (see :mod:`kerrfem.mesh`), so two tets sharing an entity always
agree on the sign of its dof; :func:`build_spaces` applies those signs to
every basis array it makes, and no other code reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, TET_EDGES, TET_FACES, Topology
from .quadrature import segment_rule, triangle_rule


# Barycentric gradients on the reference tet (rows: lambda_0..lambda_3).
LAMBDA_GRADS = np.array(
    [[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


def barycentric(points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (m, 4) of reference points (m, 3)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    lam = np.empty((pts.shape[0], 4))
    lam[:, 0] = 1.0 - pts.sum(axis=1)
    lam[:, 1:] = pts
    return lam


def eval_edge_basis(points) -> tuple[np.ndarray, np.ndarray]:
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


def eval_face_basis(points) -> tuple[np.ndarray, np.ndarray]:
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


def piola_map(jac: np.ndarray, det: np.ndarray, inv_jt: np.ndarray, points):
    """Physical edge and face basis data on every tet at reference points.

    ``jac``, ``det`` and ``inv_jt`` are the batched affine-map arrays of
    :func:`kerrfem.mesh.all_geometry`.  H(curl) values transform covariantly
    (J^{-T} u) with curls scaled by J/det J; H(div) values transform
    contravariantly (J u / det J) with divergences scaled by 1/det J, so
    tangential edge dofs and normal face fluxes are invariant.  Returns
    ``(edge_values, edge_curls, face_values, face_divs)`` shaped (nt, 6, 3 m),
    (nt, 6, 3), (nt, 4, 3 m) and (nt, 4); the values are laid out as
    ``values[t, i, 3 q + d]``, component d of basis function i at point q.
    """
    ref_edge_vals, ref_edge_curls = eval_edge_basis(points)
    ref_face_vals, ref_face_divs = eval_face_basis(points)
    return (
        _mapped_values(inv_jt, ref_edge_vals),
        np.einsum("tab,ib->tia", jac, ref_edge_curls) / det[:, None, None],
        _mapped_values(jac, ref_face_vals, det),
        ref_face_divs[None, :] / det[:, None],
    )


def _mapped_values(A: np.ndarray, ref: np.ndarray, det=None) -> np.ndarray:
    """A u (divided by det) for each reference basis function u, (m, nloc, 3),
    on every tet: one batched matmul into a C-contiguous (nt, nloc, 3 m)
    array."""
    nt, (m, nloc, _) = A.shape[0], ref.shape
    out = np.matmul(ref.transpose(1, 0, 2)[None], A.transpose(0, 2, 1)[:, None])
    if det is not None:
        out /= det[:, None, None, None]
    return out.reshape(nt, nloc, 3 * m)


@dataclass(frozen=True, eq=False)
class DofMap:
    """One discrete space on a mesh at one point set: its cell-to-global dof
    connectivity and its physical local basis at the points.

    ``cell_dofs[t, k]`` is the global index of local dof k on tet t.
    ``values[t, i, 3 q + d]`` is component d of local function i at point q,
    the layout the quadrature kernels contract over, already multiplied by
    the cell sign that relates the local function to the global one, so
    local vectors and matrices come out in the global orientation.
    Compared and hashed by identity.
    """

    num_dofs: int
    cell_dofs: np.ndarray   # (nt, nloc) int
    values: np.ndarray      # (nt, nloc, 3 nq) signed

    def field(self, coeffs: np.ndarray) -> np.ndarray:
        """A discrete field of this space at the points, (nt, nq, 3)."""
        local = np.asarray(coeffs, dtype=np.float64)[self.cell_dofs]
        return np.matmul(local[:, None, :], self.values).reshape(len(local), -1, 3)


def build_spaces(topo: Topology, jac: np.ndarray, det: np.ndarray,
                 inv_jt: np.ndarray, points: np.ndarray):
    """The edge, face and cellwise-constant spaces (U, V, W) with their
    physical bases at reference ``points`` (m, 3), plus the constant edge
    curls (nt, 6, 3) and face divergences (nt, 4).

    Every edge and face array is multiplied here, once, by the cell signs of
    the mesh orientation (see :class:`DofMap`).  Counts: one dof per edge,
    one per face and three per tet; the cellwise-constant basis is the
    identity, a broadcast view.
    """
    edge_q, edge_curls, face_q, face_divs = piola_map(jac, det, inv_jt, points)
    edge_sign = topo.tet_edge_sign.astype(np.float64)
    face_sign = topo.tet_face_sign.astype(np.float64)
    edge_q *= edge_sign[:, :, None]
    edge_curls *= edge_sign[:, :, None]
    face_q *= face_sign[:, :, None]
    face_divs *= face_sign
    nt, nq = len(det), len(points)
    dof_u = DofMap(topo.num_edges, topo.tet_edges, edge_q)
    dof_v = DofMap(topo.num_faces, topo.tet_faces, face_q)
    dof_w = DofMap(3 * nt, 3 * np.arange(nt, dtype=np.int64)[:, None] + np.arange(3),
                   np.broadcast_to(np.tile(np.eye(3), nq), (nt, 3, 3 * nq)))
    return dof_u, dof_v, dof_w, edge_curls, face_divs


def interpolate_edge_dofs(func, mesh: Mesh, topo: Topology) -> np.ndarray:
    """Edge dofs of a vector field: tangential line integrals lo -> hi.

    ``func`` maps (m, 3) points to (m, 3) values.  Gauss quadrature with 4
    points per edge: exact for polynomial traces of degree <= 7, and
    accurate to that degree for smooth traces such as the sines of the
    cavity and Kerr fields.
    """
    rule = segment_rule(4)
    s = rule.points[:, 0]
    p_lo = mesh.vertices[topo.edges[:, 0]]
    p_hi = mesh.vertices[topo.edges[:, 1]]
    direction = p_hi - p_lo  # tangent times length
    pts = p_lo[:, None, :] + s[None, :, None] * direction[:, None, :]
    vals = np.asarray(func(pts.reshape(-1, 3))).reshape(len(p_lo), len(s), 3)
    return np.einsum("q,eqd,ed->e", rule.weights, vals, direction)


def interpolate_face_dofs(func, mesh: Mesh, topo: Topology) -> np.ndarray:
    """Face dofs of a vector field: fluxes through the sorted-triple normal."""
    rule = triangle_rule(5)
    u = rule.points[:, 0]
    v = rule.points[:, 1]
    q0 = mesh.vertices[topo.faces[:, 0]]
    q1 = mesh.vertices[topo.faces[:, 1]]
    q2 = mesh.vertices[topo.faces[:, 2]]
    normal2 = np.cross(q1 - q0, q2 - q0)  # normal times twice the area
    pts = (
        q0[:, None, :]
        + u[None, :, None] * (q1 - q0)[:, None, :]
        + v[None, :, None] * (q2 - q0)[:, None, :]
    )
    vals = np.asarray(func(pts.reshape(-1, 3))).reshape(len(q0), len(u), 3)
    return np.einsum("q,fqd,fd->f", rule.weights, vals, normal2)
