"""The discrete spaces of a mesh, each stored by its values at the tet vertices.

Three discrete spaces are provided at lowest order (k = 1): Whitney edge
elements in H(curl), lowest-order Raviart-Thomas face elements in H(div),
and piecewise-constant vectors in L2.  Every function of each is affine on
a tet, so each space is one :class:`DofMap` that carries its local basis by
the physical values at the four vertices of each tet; at any point of a tet
a field is the barycentric combination of its four vertex values.  These
are built from the physical barycentric gradients grad lambda = J^{-T}
grad-hat lambda (Bossavit, *Computational Electromagnetism*, 1998):

* edge (a, b): lambda_a grad lambda_b - lambda_b grad lambda_a equals
  grad lambda_b at vertex a, -grad lambda_a at vertex b and 0 at the other
  two, with the constant curl 2 grad lambda_a x grad lambda_b;
* face (a, b, c): 2 (lambda_a grad lambda_b x grad lambda_c + cyclic)
  equals 2 grad lambda_b x grad lambda_c at vertex a (b and c cyclic) and
  0 at the fourth vertex, with the constant divergence
  6 grad lambda_a . (grad lambda_b x grad lambda_c);
* cellwise constant: the identity at every vertex.

The curls and divergences are taken in their Piola form, the reference
constants times J / det J and 1 / det J: the same vectors, with the
divergence exactly +-6 / det J.

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

# Integrals of lambda_v lambda_w over a tet of unit volume, (1 + delta_vw) / 20,
# times I_3: the Gram matrix of vertex values (v, d) of affine fields.
_VERTEX_GRAM = np.kron((1.0 + np.eye(4)) / 20.0, np.eye(3))


def barycentric(points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (m, 4) of reference points (m, 3)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    lam = np.empty((pts.shape[0], 4))
    lam[:, 0] = 1.0 - pts.sum(axis=1)
    lam[:, 1:] = pts
    return lam


@dataclass(frozen=True, eq=False)
class DofMap:
    """One discrete space on a mesh: its cell-to-global dof connectivity and
    its physical local basis at the tet vertices.

    ``cell_dofs[t, k]`` is the global index of local dof k on tet t.
    ``vertex_values[t, i, 3 v + d]`` is component d of local function i at
    vertex v of tet t, already multiplied by the cell sign that relates the
    local function to the global one, so local vectors and matrices come
    out in the global orientation.  Compared and hashed by identity.
    """

    num_dofs: int
    cell_dofs: np.ndarray      # (nt, nloc) int
    vertex_values: np.ndarray  # (nt, nloc, 12) signed

    def vertex_field(self, coeffs: np.ndarray) -> np.ndarray:
        """A discrete field of this space at the four vertices of each tet,
        (nt, 4, 3)."""
        local = np.asarray(coeffs, dtype=np.float64)[self.cell_dofs]
        return np.matmul(local[:, None, :], self.vertex_values).reshape(len(local), 4, 3)

    def at(self, bary: np.ndarray) -> np.ndarray:
        """The local basis at the points of barycentric coordinates ``bary``
        (m, 4) in every tet, (nt, nloc, 3 m): ``[t, i, 3 q + d]`` is
        component d of function i at point q."""
        nt, nloc, _ = self.vertex_values.shape
        return np.matmul(bary, self.vertex_values.reshape(nt, nloc, 4, 3)).reshape(nt, nloc, -1)

    def moments(self, weights: np.ndarray) -> np.ndarray:
        """Per-tet sums over the vertices v of weights[t, v] . phi_i(v), for
        ``weights`` (nt, 4, 3); (nt, nloc)."""
        return np.matmul(self.vertex_values, weights.reshape(len(weights), 12, 1))[:, :, 0]

    def gram(self, vol: np.ndarray) -> np.ndarray:
        """Per-tet Gram matrices of the local basis on tets of volumes
        ``vol``, (nt, nloc, nloc), in closed form: |K| V kron(M, I_3) V^T with
        the vertex values V and M_vw = (1 + delta_vw) / 20."""
        V = self.vertex_values
        return np.matmul(np.matmul(V, _VERTEX_GRAM), V.transpose(0, 2, 1)) * vol[:, None, None]


def build_spaces(topo: Topology, jac: np.ndarray, det: np.ndarray, inv_jt: np.ndarray):
    """The edge, face and cellwise-constant spaces (U, V, W) of a mesh, plus
    the constant edge curls (nt, 6, 3) and face divergences (nt, 4).

    ``jac``, ``det`` and ``inv_jt`` are the batched affine-map arrays of
    :func:`kerrfem.mesh.all_geometry`.

    Every edge and face array is multiplied here, once, by the cell signs of
    the mesh orientation (see :class:`DofMap`).  Counts: one dof per edge,
    one per face and three per tet; the cellwise-constant basis is the
    identity, a broadcast view.
    """
    nt = len(det)
    grads = np.matmul(LAMBDA_GRADS, inv_jt.transpose(0, 2, 1))   # (nt, 4, 3)
    a, b = np.array(TET_EDGES).T
    k = np.arange(6)
    edge = np.zeros((nt, 6, 4, 3))
    edge[:, k, a] = grads[:, b]
    edge[:, k, b] = -grads[:, a]
    ref_curls = 2.0 * np.cross(LAMBDA_GRADS[a], LAMBDA_GRADS[b])
    edge_curls = np.einsum("tab,ib->tia", jac, ref_curls) / det[:, None, None]
    a, b, c = np.array(TET_FACES).T
    k = np.arange(4)
    face = np.zeros((nt, 4, 4, 3))
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
        face[:, k, u] = 2.0 * np.cross(grads[:, v], grads[:, w])
    ref_divs = 6.0 * np.einsum("kd,kd->k", LAMBDA_GRADS[a],
                               np.cross(LAMBDA_GRADS[b], LAMBDA_GRADS[c]))
    face_divs = ref_divs[None, :] / det[:, None]
    edge_sign = topo.tet_edge_sign.astype(np.float64)
    face_sign = topo.tet_face_sign.astype(np.float64)
    edge *= edge_sign[:, :, None, None]
    edge_curls *= edge_sign[:, :, None]
    face *= face_sign[:, :, None, None]
    face_divs *= face_sign
    dof_u = DofMap(topo.num_edges, topo.tet_edges, edge.reshape(nt, 6, 12))
    dof_v = DofMap(topo.num_faces, topo.tet_faces, face.reshape(nt, 4, 12))
    dof_w = DofMap(3 * nt, 3 * np.arange(nt, dtype=np.int64)[:, None] + np.arange(3),
                   np.broadcast_to(np.tile(np.eye(3), 4), (nt, 3, 12)))
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
