"""Quadrature-based assembly of mass, coupling, and projection operators.

A :class:`FemContext` caches per-element geometry and physical basis values
at the quadrature points once per mesh, so repeated assemblies (source terms
every time step, error norms at sample times) reduce to einsum contractions.
The Gram matrices of the lowest-order spaces involve polynomial integrands of
degree <= 2 and are therefore exact under the default degree-5 rule, as are
the Kerr nonlinear mass (degree 4) and flux integrands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .fem_spaces import (
    DofMap,
    SpaceKind,
    build_dof_map,
    eval_edge_basis,
    eval_face_basis,
)
from .linalg import SparseMatrix, from_triplets
from .material import MaterialParams, cm_matrix, eps_matrix
from .mesh import Mesh, TET_FACES, Topology, all_geometry
from .quadrature import QuadratureRule, tetrahedron_rule

__all__ = [
    "QuadratureRule",
    "FemContext",
    "AssembledForms",
    "BlockDiagMass",
    "build_context",
    "build_forms",
    "assemble_mass",
    "assemble_nonlinear_mass",
    "assemble_nonlinear_mass_curl",
    "assemble_coupling",
    "assemble_discrete_curl",
    "assemble_gradient",
    "assemble_source",
    "l2_project",
    "curl_project",
]


@dataclass
class FemContext:
    """Geometry, quadrature, and cached physical basis values for one mesh."""

    mesh: Mesh
    topo: Topology
    rule: QuadratureRule
    jac: np.ndarray       # (nt, 3, 3)
    det: np.ndarray       # (nt,)
    inv_jt: np.ndarray    # (nt, 3, 3)
    vol: np.ndarray       # (nt,)
    phys_pts: np.ndarray  # (nt, nq, 3)
    edge_values: np.ndarray   # (nt, nq, 6, 3) covariant-mapped Whitney values
    edge_curls: np.ndarray    # (nt, 6, 3) constant physical curls
    face_values: np.ndarray   # (nt, nq, 4, 3) contravariant-mapped RT values
    face_divs: np.ndarray     # (nt, 4)

    @property
    def num_tets(self) -> int:
        return self.mesh.num_tets

    def basis_at_quads(self, kind: SpaceKind) -> np.ndarray:
        if kind in (SpaceKind.NEDELEC_EDGE, SpaceKind.NEDELEC_EDGE_BC):
            return self.edge_values
        if kind is SpaceKind.RAVIART_THOMAS_FACE:
            return self.face_values
        if kind is SpaceKind.DISCONTINUOUS_VECTOR:
            nt, nq = self.phys_pts.shape[:2]
            return np.broadcast_to(np.eye(3), (nt, nq, 3, 3))
        raise ValueError(f"no cached vector basis for {kind}")

    def field_at_quads(self, dofmap: DofMap, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate a discrete vector field at all quadrature points, (nt, nq, 3)."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if dofmap.kind is SpaceKind.DISCONTINUOUS_VECTOR:
            const = coeffs.reshape(self.num_tets, 3)
            return np.broadcast_to(const[:, None, :], self.phys_pts.shape)
        local = coeffs[dofmap.cell_dofs] * dofmap.cell_signs
        return np.einsum("tqid,ti->tqd", self.basis_at_quads(dofmap.kind), local)

    def cell_integrals(self, func, time=None) -> np.ndarray:
        """Integrals of a (possibly time-dependent) vector field per tet, (nt, 3)."""
        flat = self.phys_pts.reshape(-1, 3)
        vals = func(flat) if time is None else func(time, flat)
        vals = np.asarray(vals, dtype=np.float64).reshape(*self.phys_pts.shape)
        return np.einsum("q,tqd,t->td", self.rule.weights, vals, self.det)


def build_context(mesh: Mesh, topo: Topology, quad_degree: int = 5) -> FemContext:
    origins, J, det, invJT, vol = all_geometry(mesh)
    rule = tetrahedron_rule(quad_degree)
    phys = origins[:, None, :] + np.einsum("tab,qb->tqa", J, rule.points)
    ref_edge_vals, ref_edge_curls = eval_edge_basis(rule.points)
    ref_face_vals, ref_face_divs = eval_face_basis(rule.points)
    return FemContext(
        mesh=mesh,
        topo=topo,
        rule=rule,
        jac=J,
        det=det,
        inv_jt=invJT,
        vol=vol,
        phys_pts=phys,
        edge_values=np.einsum("tab,qib->tqia", invJT, ref_edge_vals),
        edge_curls=np.einsum("tab,ib->tia", J, ref_edge_curls) / det[:, None, None],
        face_values=np.einsum("tab,qib->tqia", J, ref_face_vals)
        / det[:, None, None, None],
        face_divs=ref_face_divs[None, :] / det[:, None],
    )


def _weight_at_quads(ctx: FemContext, weight) -> np.ndarray:
    """Broadcast a scalar / per-tet array / callable weight to (nt, nq)."""
    nt, nq = ctx.phys_pts.shape[:2]
    if callable(weight):
        w = np.asarray(weight(ctx.phys_pts.reshape(-1, 3)), dtype=np.float64)
        return w.reshape(nt, nq)
    w = np.asarray(weight, dtype=np.float64)
    if w.ndim == 0:
        return np.broadcast_to(w, (nt, nq))
    if w.shape == (nt,):
        return np.broadcast_to(w[:, None], (nt, nq))
    raise ValueError(f"weight must be scalar, per-tet array, or callable; got shape {w.shape}")


def _scatter_matrix(local: np.ndarray, dofmap: DofMap, num_rows: int) -> SparseMatrix:
    """Accumulate per-tet local matrices into a global sparse matrix."""
    signed = local * dofmap.cell_signs[:, :, None] * dofmap.cell_signs[:, None, :]
    nloc = dofmap.cell_dofs.shape[1]
    rows = np.repeat(dofmap.cell_dofs[:, :, None], nloc, axis=2)
    cols = np.repeat(dofmap.cell_dofs[:, None, :], nloc, axis=1)
    return from_triplets(
        rows.ravel(), cols.ravel(), signed.ravel(), shape=(num_rows, num_rows)
    )


def assemble_mass(ctx: FemContext, kind: SpaceKind, dofmap: DofMap,
                  weight=1.0) -> SparseMatrix:
    """Weighted Gram matrix of a vector-valued space (SPD for weight > 0)."""
    w = _weight_at_quads(ctx, weight)
    phi = ctx.basis_at_quads(kind)
    local = np.einsum("q,tq,tqid,tqjd,t->tij", ctx.rule.weights, w, phi, phi, ctx.det)
    return _scatter_matrix(local, dofmap, dofmap.num_dofs)


def assemble_curl_curl(ctx: FemContext, dofmap: DofMap) -> SparseMatrix:
    """(curl u, curl v) on the edge space; curls are cellwise constant."""
    local = np.einsum("tid,tjd,t->tij", ctx.edge_curls, ctx.edge_curls, ctx.vol)
    return _scatter_matrix(local, dofmap, dofmap.num_dofs)


@dataclass(frozen=True)
class BlockDiagMass:
    """3x3-per-tet block-diagonal matrix |K| eps(E_K) with closed-form inverse."""

    blocks: np.ndarray      # (nt, 3, 3)
    inv_blocks: np.ndarray  # (nt, 3, 3)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        nt = self.blocks.shape[0]
        return np.einsum("tij,tj->ti", self.blocks, x.reshape(nt, 3)).ravel()

    def solve(self, b: np.ndarray) -> np.ndarray:
        nt = self.blocks.shape[0]
        return np.einsum("tij,tj->ti", self.inv_blocks, b.reshape(nt, 3)).ravel()


def assemble_nonlinear_mass(ctx: FemContext, params: MaterialParams,
                            e_coeffs: np.ndarray) -> BlockDiagMass:
    """Field-dependent mass of the cellwise-constant space.

    With E_h constant per tet the integral of eps(E_h) collapses to
    |K| eps(E_h|_K); each block is SPD and inverted in closed form.
    """
    E = np.asarray(e_coeffs, dtype=np.float64).reshape(ctx.num_tets, 3)
    blocks = ctx.vol[:, None, None] * eps_matrix(params, E)
    inv_blocks = cm_matrix(params, E) / (params.eps0 * ctx.vol[:, None, None])
    return BlockDiagMass(blocks=blocks, inv_blocks=inv_blocks)


def assemble_nonlinear_mass_curl(ctx: FemContext, params: MaterialParams,
                                 dofmap: DofMap, coeffs: np.ndarray) -> SparseMatrix:
    """Field-dependent mass on the edge space: integral of eps(E_h) psi_i . psi_j.

    E_h is piecewise linear here, so the degree-4 integrand is evaluated by
    quadrature (exact under the default rule).
    """
    E = ctx.field_at_quads(dofmap, coeffs)           # (nt, nq, 3)
    es = 1.0 + params.chi1 + params.chi3 * np.einsum("tqd,tqd->tq", E, E)
    phi = ctx.edge_values
    local = np.einsum("q,tq,tqid,tqjd,t->tij", ctx.rule.weights, es, phi, phi, ctx.det)
    if params.chi3 > 0.0:
        ephi = np.einsum("tqd,tqid->tqi", E, phi)    # E . psi_i
        local += 2.0 * params.chi3 * np.einsum(
            "q,tqi,tqj,t->tij", ctx.rule.weights, ephi, ephi, ctx.det
        )
    return _scatter_matrix(params.eps0 * local, dofmap, dofmap.num_dofs)


def assemble_flux_load(ctx: FemContext, params: MaterialParams, dofmap: DofMap,
                       coeffs: np.ndarray) -> np.ndarray:
    """Load vector of the electric flux: entries integral of D(E_h) . psi_i."""
    E = ctx.field_at_quads(dofmap, coeffs)
    es = 1.0 + params.chi1 + params.chi3 * np.einsum("tqd,tqd->tq", E, E)
    D = params.eps0 * es[..., None] * E
    local = np.einsum("q,tqd,tqid,t->ti", ctx.rule.weights, D, ctx.edge_values, ctx.det)
    out = np.zeros(dofmap.num_dofs)
    np.add.at(out, dofmap.cell_dofs, local * dofmap.cell_signs)
    return out


def assemble_coupling(ctx: FemContext, formulation: str, dofmaps: dict) -> SparseMatrix:
    """Curl coupling matrix of a semi-discrete formulation.

    ``lee-madsen``: C[i, j] = (curl phi_j^U, psi_i^W); the transpose of the
    same matrix realizes (E_h, curl Phi_h), which is what makes the discrete
    energy identity exact.  ``nedelec``: K[i, j] = (phi_i^V, curl psi_j^U0)
    with constrained boundary columns removed.
    """
    if formulation == "lee-madsen":
        dofU = dofmaps["U"]
        nt = ctx.num_tets
        signed_curls = ctx.edge_curls * dofU.cell_signs[:, :, None]  # (nt, 6, 3)
        vals = signed_curls * ctx.vol[:, None, None]
        rows = (3 * np.arange(nt)[:, None, None] + np.arange(3)[None, None, :])
        rows = np.broadcast_to(rows, (nt, 6, 3))
        cols = np.broadcast_to(dofU.cell_dofs[:, :, None], (nt, 6, 3))
        return from_triplets(
            rows.ravel(), cols.ravel(), vals.ravel(), shape=(3 * nt, dofU.num_dofs)
        )
    if formulation == "nedelec":
        dofU0 = dofmaps["U0"]
        dofV = dofmaps["V"]
        mv1 = assemble_mass(ctx, SpaceKind.RAVIART_THOMAS_FACE, dofV, weight=1.0)
        curl = assemble_discrete_curl(ctx, dofU0, dofV)
        K = (mv1 @ curl).csr.tocsr()
        keep = dofU0.free
        return linalg.from_csr(K[:, keep])
    raise ValueError(f"unknown formulation {formulation!r}")


def assemble_discrete_curl(ctx: FemContext, dofmap_u: DofMap,
                           dofmap_v: DofMap) -> SparseMatrix:
    """Exact coefficients of curl(u_h) in the face space, one row per face.

    curl U_h is a subset of V_h, so each face flux is read off from a single
    adjacent tet; interior faces give the same value from either side.
    """
    topo = ctx.topo
    verts = ctx.mesh.vertices
    owner = topo.face_tets[:, 0]
    # local slot of each face within its owner tet
    slot = np.argmax(topo.tet_faces[owner] == np.arange(topo.num_faces)[:, None], axis=1)
    loc_f = np.array(TET_FACES)
    tets = ctx.mesh.tets[owner]
    tri = np.take_along_axis(tets, loc_f[slot], axis=1)      # local vertex ids (nf, 3)
    p0, p1, p2 = verts[tri[:, 0]], verts[tri[:, 1]], verts[tri[:, 2]]
    area_normal = 0.5 * np.cross(p1 - p0, p2 - p0)           # local orientation
    sign_f = np.take_along_axis(topo.tet_face_sign[owner], slot[:, None], axis=1)[:, 0]
    flux = np.einsum(
        "fed,fd->fe",
        ctx.edge_curls[owner] * dofmap_u.cell_signs[owner][:, :, None],
        area_normal * sign_f[:, None],
    )  # (nf, 6): global flux of curl w_e through face f
    rows = np.repeat(np.arange(topo.num_faces), 6)
    cols = dofmap_u.cell_dofs[owner].ravel()
    vals = flux.ravel()
    return from_triplets(rows, cols, vals, shape=(dofmap_v.num_dofs, dofmap_u.num_dofs))


def assemble_gradient(ctx: FemContext, pinned_vertex: int = 0) -> SparseMatrix:
    """Whitney coefficients of gradients of P1 hats: +1 at the edge head,
    -1 at the tail, with the pinned gauge vertex's column dropped."""
    edges = ctx.topo.edges
    nv = int(edges.max()) + 1
    vmap = np.arange(nv, dtype=np.int64)
    vmap[pinned_vertex] = -1
    vmap[pinned_vertex + 1:] -= 1
    lo_dof = vmap[edges[:, 0]]
    hi_dof = vmap[edges[:, 1]]
    eids = np.arange(len(edges))
    keep_hi = hi_dof >= 0
    keep_lo = lo_dof >= 0
    rows = np.concatenate([eids[keep_hi], eids[keep_lo]])
    cols = np.concatenate([hi_dof[keep_hi], lo_dof[keep_lo]])
    vals = np.concatenate([np.ones(keep_hi.sum()), -np.ones(keep_lo.sum())])
    return from_triplets(rows, cols, vals, shape=(len(edges), nv - 1))


def assemble_source(ctx: FemContext, target, kind: SpaceKind, dofmap: DofMap,
                    time=None) -> np.ndarray:
    """Load vector (target, phi_i) by quadrature.

    ``target`` maps (m, 3) points to (m, 3) values; pass ``time`` for
    closures with signature (t, points).
    """
    flat = ctx.phys_pts.reshape(-1, 3)
    vals = target(flat) if time is None else target(time, flat)
    vals = np.asarray(vals, dtype=np.float64).reshape(*ctx.phys_pts.shape)
    if kind is SpaceKind.DISCONTINUOUS_VECTOR:
        local = np.einsum("q,tqd,t->td", ctx.rule.weights, vals, ctx.det)
        return local.ravel()
    phi = ctx.basis_at_quads(kind)
    local = np.einsum("q,tqd,tqid,t->ti", ctx.rule.weights, vals, phi, ctx.det)
    out = np.zeros(dofmap.num_dofs)
    np.add.at(out, dofmap.cell_dofs, local * dofmap.cell_signs)
    return out


def l2_project(ctx: FemContext, target, time=None) -> np.ndarray:
    """Cellwise-average projection onto the discontinuous vector space."""
    return (ctx.cell_integrals(target, time=time) / ctx.vol[:, None]).ravel()


def curl_project(forms: AssembledForms, target, target_curl, time=None,
                 pinned_vertex: int = 0, rel_tol: float = 1e-10) -> np.ndarray:
    """Curl-matching projection onto the edge space.

    Solves, as one saddle system, (curl u_h, curl psi) = (curl v, curl psi)
    for all edge test functions together with the gradient-moment matching
    (u_h, grad p) = (v, grad p) over gauge-fixed P1 scalars.  The result is
    independent of the pinned gauge vertex.
    """
    ctx = forms.ctx
    dofU = forms.dof_u
    A = assemble_curl_curl(ctx, dofU)
    grad = assemble_gradient(ctx, pinned_vertex=pinned_vertex)
    G = forms.mass_u1 @ grad
    cell_curl = ctx.cell_integrals(target_curl, time=time)  # (nt, 3)
    f = np.zeros(dofU.num_dofs)
    local = np.einsum(
        "tid,td->ti", ctx.edge_curls * dofU.cell_signs[:, :, None], cell_curl
    )
    np.add.at(f, dofU.cell_dofs, local)
    g = grad.T @ assemble_source(ctx, target, SpaceKind.NEDELEC_EDGE, dofU, time=time)
    u, _ = linalg.solve_saddle(A, G.T, f, g, rel_tol=rel_tol)
    return u


@dataclass
class AssembledForms:
    """All constant matrices of both semi-discrete formulations."""

    ctx: FemContext
    params: MaterialParams
    dof_u: DofMap      # edge space (H field of lee-madsen, gradients)
    dof_u0: DofMap     # edge space with boundary constraint (E of nedelec)
    dof_v: DofMap      # face space (H of nedelec)
    dof_w: DofMap      # cellwise-constant vectors (E of lee-madsen)
    mass_u1: SparseMatrix   # unweighted edge Gram matrix
    mass_u: SparseMatrix    # mu0-weighted edge Gram matrix
    mass_v1: SparseMatrix   # unweighted face Gram matrix
    mass_v: SparseMatrix    # mu0-weighted face Gram matrix
    coupling_lm: SparseMatrix     # (3 nt) x (n_edges)
    discrete_curl: SparseMatrix   # faces x edges, exact curl coefficients
    coupling_ned: SparseMatrix    # faces x free edges
    _solvers: dict = field(default_factory=dict)

    def mass_solver(self, name: str):
        """Cached direct factorization of a constant mass matrix."""
        if name not in self._solvers:
            mat = {
                "U": self.mass_u,
                "U1": self.mass_u1,
                "V": self.mass_v,
                "V1": self.mass_v1,
            }[name]
            self._solvers[name] = linalg.factorized(mat)
        return self._solvers[name]

    def linear_eps_mass_u0(self) -> SparseMatrix:
        """eps0 (1 + chi1)-weighted edge mass restricted to free dofs."""
        full = assemble_mass(
            self.ctx, SpaceKind.NEDELEC_EDGE, self.dof_u, weight=self.params.eps_lin
        )
        keep = self.dof_u0.free
        return linalg.from_csr(full.csr[np.ix_(keep, keep)])


def build_forms(mesh: Mesh, topo: Topology, params: MaterialParams,
                quad_degree: int = 5) -> AssembledForms:
    ctx = build_context(mesh, topo, quad_degree=quad_degree)
    dof_u = build_dof_map(SpaceKind.NEDELEC_EDGE, topo)
    dof_u0 = build_dof_map(SpaceKind.NEDELEC_EDGE_BC, topo)
    dof_v = build_dof_map(SpaceKind.RAVIART_THOMAS_FACE, topo)
    dof_w = build_dof_map(SpaceKind.DISCONTINUOUS_VECTOR, topo)
    mass_u1 = assemble_mass(ctx, SpaceKind.NEDELEC_EDGE, dof_u, weight=1.0)
    mass_v1 = assemble_mass(ctx, SpaceKind.RAVIART_THOMAS_FACE, dof_v, weight=1.0)
    return AssembledForms(
        ctx=ctx,
        params=params,
        dof_u=dof_u,
        dof_u0=dof_u0,
        dof_v=dof_v,
        dof_w=dof_w,
        mass_u1=mass_u1,
        mass_u=linalg.from_csr(params.mu0 * mass_u1.csr),
        mass_v1=mass_v1,
        mass_v=linalg.from_csr(params.mu0 * mass_v1.csr),
        coupling_lm=assemble_coupling(ctx, "lee-madsen", {"U": dof_u}),
        discrete_curl=assemble_discrete_curl(ctx, dof_u, dof_v),
        coupling_ned=assemble_coupling(ctx, "nedelec", {"U0": dof_u0, "V": dof_v}),
    )
