"""Assembly of the mass, coupling, Kerr and projection operators.

This module owns every quadrature decision.  :func:`build_context` maps one
rule to each element and stores the measure ``dx`` (weight times Jacobian
determinant), the rule's barycentric table ``bary`` (nq, 4) and the three
discrete spaces, each with its signed physical basis at the tet vertices
(see :mod:`kerrfem.fem_spaces`), once per mesh.  A :class:`FemContext` then
samples fields at the points (:meth:`FemContext.sample`), evaluates discrete
fields there as ``bary`` times their vertex values
(:meth:`FemContext.field`) and integrates densities against ``dx``
(:meth:`FemContext.integrate`), so no other module handles quadrature
weights or orientation signs.  No basis is kept at the points: the moments
of a load are ``bary^T (dx f)`` contracted with the vertex values.

The context of :func:`build_forms` is on one rule, the symmetric 14-point
degree-5 tet rule, which serves the integrands that are not polynomials:
source loads, projections and error norms.  Every polynomial integrand of
the lowest-order scheme has degree <= 4 in the barycentric coordinates and
is a closed form in the vertex values, by integral_K lambda^alpha =
3! alpha! |K| / (|alpha| + 3)!: the Gram matrices of the edge and face
spaces and the Kerr flux load, its nedelec Jacobian and the electric energy
(:func:`_vertex_moments`), so the time loop evaluates no field at a
quadrature point.

:func:`build_forms` assembles each constant operator of both formulations
once.  Every square matrix of a space has one sparsity pattern, the pairs
of dofs that meet in a tet: :func:`build_forms` sorts it once per space
into a :class:`Pattern`.  Each Gram matrix, the curl-curl matrix and the
Kerr Jacobians are ``bincount`` sums of per-tet blocks into it, and a
reduced matrix is a sum of their data on it.  The nedelec matrices on the
free edges live in the edge pattern's restriction, which reads the data
of the edge matrices on the entries that it keeps.  Every cache of
:class:`AssembledForms` is a function of the mesh, the medium and its key
alone; what a Kerr march carries from step to step (its lagged Jacobian's
solve) lives on the march, in :mod:`kerrfem.dynamics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import linalg
from .fem_spaces import (VERTEX_MOMENTS_2, VERTEX_MOMENTS_4, DofMap, barycentric,
                         build_spaces)
from .linalg import from_triplets
from .material import MaterialParams, cm_matrix
from .mesh import Mesh, Topology, all_geometry
from .quadrature import QuadratureRule, symmetric_tetrahedron_rule

__all__ = [
    "FemContext",
    "Pattern",
    "AssembledForms",
    "build_context",
    "build_forms",
    "assemble_nonlinear_mass_curl",
    "assemble_nonlinear_curl_curl",
    "assemble_flux_load",
    "electric_energy",
    "assemble_coupling",
    "assemble_discrete_curl",
    "assemble_gradient",
    "assemble_source",
    "l2_project",
    "curl_project",
]

@dataclass
class FemContext:
    """Geometry, the quadrature measure of one rule, and the three discrete
    spaces of one mesh."""

    mesh: Mesh
    topo: Topology
    vol: np.ndarray       # (nt,)
    phys_pts: np.ndarray  # (nt, nq, 3)
    dx: np.ndarray        # (nt, nq) quadrature weight times det J
    bary: np.ndarray      # (nq, 4) barycentric coordinates of the rule's points
    edge_curls: np.ndarray    # (nt, 6, 3) constant physical curls, signed
    face_divs: np.ndarray     # (nt, 4) signed
    dof_u: DofMap  # Whitney edges, H(curl)
    dof_v: DofMap  # Raviart-Thomas faces, H(div)
    dof_w: DofMap  # cellwise-constant vectors, L2

    @property
    def num_tets(self) -> int:
        return self.mesh.num_tets

    def spaces(self, formulation: str) -> tuple[DofMap, DofMap]:
        """Dof maps (E, H) of a formulation: (W, U) for lee-madsen, (U, V)
        for nedelec."""
        if formulation == "lee-madsen":
            return self.dof_w, self.dof_u
        return self.dof_u, self.dof_v

    def field(self, dofmap: DofMap, coeffs: np.ndarray) -> np.ndarray:
        """A discrete field of the space of ``dofmap`` at all quadrature
        points, (nt, nq, 3)."""
        return np.matmul(self.bary, dofmap.vertex_field(coeffs))

    def sample(self, func) -> np.ndarray:
        """Values of a vector field at all quadrature points, (nt, nq, 3).

        ``func`` maps (m, 3) points to (m, 3) values.
        """
        vals = func(self.phys_pts.reshape(-1, 3))
        return np.asarray(vals, dtype=np.float64).reshape(self.phys_pts.shape)

    def integrate(self, density: np.ndarray) -> float:
        """Integral over the mesh of a scalar density given at the quadrature
        points, (nt, nq)."""
        return float(np.einsum("tq,tq->", self.dx, density))

    def norm_sq(self, vals: np.ndarray) -> float:
        """Squared L2 norm of a vector field given at the quadrature points."""
        return self.integrate(np.einsum("tqd,tqd->tq", vals, vals))

    def gram(self, funcs) -> np.ndarray:
        """L2 Gram matrix (f_k, f_l) of vector fields given as callables."""
        vals = np.stack([self.sample(f) for f in funcs])
        return np.einsum("tq,ktqd,ltqd->kl", self.dx, vals, vals)


def build_context(mesh: Mesh, topo: Topology, rule: QuadratureRule) -> FemContext:
    """The :class:`FemContext` of a mesh at the points of a reference tet rule."""
    origins, J, det, invJT, vol = all_geometry(mesh)
    dof_u, dof_v, dof_w, edge_curls, face_divs = build_spaces(topo, J, det, invJT)
    return FemContext(
        mesh=mesh,
        topo=topo,
        vol=vol,
        phys_pts=origins[:, None, :] + np.einsum("tab,qb->tqa", J, rule.points),
        dx=det[:, None] * rule.weights[None, :],
        bary=barycentric(rule.points),
        edge_curls=edge_curls,
        face_divs=face_divs,
        dof_u=dof_u,
        dof_v=dof_v,
        dof_w=dof_w,
    )


def _local_moments(ctx: FemContext, measure: np.ndarray, vals: np.ndarray,
                   dofmap: DofMap) -> np.ndarray:
    """Per-tet integrals of vals (nt, nq, 3) . phi_i against a measure (nt, nq)
    over the space of ``dofmap``, (nt, nloc): the barycentric moments
    bary^T (measure vals) contracted with the vertex values."""
    return dofmap.moments(np.matmul(ctx.bary.T, measure[:, :, None] * vals))


def _scatter_vector(local: np.ndarray, dofmap: DofMap) -> np.ndarray:
    """Accumulate per-tet local vectors into a global load vector."""
    return np.bincount(dofmap.cell_dofs.ravel(), weights=local.ravel(),
                       minlength=dofmap.num_dofs)


# The ten vertex pairs a <= b of a tet: the rows 3 a + x and 3 b + x of the
# component-major vertex values (12, nt) whose products, summed over the
# component x, are E_a . E_b, and the table that forms from these (30,)
# products W_cd = sum_ab I_abcd E_a . E_b (rows 4 c + d).
_PAIRS = [(a, b) for a in range(4) for b in range(a, 4)]
_PAIR_ROWS = np.array([(3 * a + x, 3 * b + x) for a, b in _PAIRS for x in range(3)]).T
_W_TABLE = np.repeat([[(1.0 if a == b else 2.0) * VERTEX_MOMENTS_4[a, b, c, d]
                       for a, b in _PAIRS] for c in range(4) for d in range(4)], 3, axis=1)
_J = VERTEX_MOMENTS_2.reshape(16, 1)


def _kerr_vertex_terms(ctx: FemContext, coeffs: np.ndarray):
    """The vertex values E_a of an edge field on each tet, (nt, 4, 3) and
    component-major (12, nt) with rows 3 a + x."""
    E = ctx.dof_u.vertex_field(coeffs)
    return E, np.ascontiguousarray(E.reshape(len(E), 12).T)


def _vertex_moments(X: np.ndarray, lin: float, kerr: float) -> np.ndarray:
    """lin J_cd + kerr W_cd (16, nt), the integrals of lambda_c lambda_d
    (lin + kerr |E_h|^2) over a tet of unit volume, for the component-major
    vertex values X of :func:`_kerr_vertex_terms`; J is the degree-2 table
    and W_cd = sum_ab I_abcd E_a . E_b with I the degree-4 table
    (:data:`kerrfem.fem_spaces.VERTEX_MOMENTS_4`).

    E_h = sum_a lambda_a E_a is affine, so the integral over K of
    lambda_c lambda_d |E_h|^2 is |K| W_cd, and every Kerr integral is a
    finite sum of these.  A linear medium (kerr = 0) forms no W, so its
    moments are finite at any finite field."""
    if kerr == 0.0:
        return np.repeat(lin * _J, X.shape[1], axis=1)
    M = _W_TABLE @ (X[_PAIR_ROWS[0]] * X[_PAIR_ROWS[1]])
    M *= kerr
    M += lin * _J
    return M


def assemble_nonlinear_mass_curl(forms: AssembledForms, coeffs: np.ndarray,
                                 dt: float) -> sp.csr_matrix:
    """Kerr Jacobian of a nedelec midpoint step on the free edges,
    M_eps(E_h) + dt^2/(4 mu0) A_cc, in :attr:`AssembledForms.free_edge_pattern`.

    M_eps[i, j] is the integral of eps(E_h) psi_i . psi_j with the field
    derivative eps(E) = eps0 [(1 + chi1 + chi3 |E|^2) I + 2 chi3 E E^T].  In
    the vertex values psi_ic of the basis and E_a of the field (see
    :func:`_vertex_moments`) its local block is, in closed form,
    sum_cd M_cd psi_ic . psi_jd + 2 eps0 chi3 |K| sum_abcd I_abcd
    (E_a . psi_ic) (E_b . psi_jd).  At dt = 0 this is the Kerr mass of the
    RK4 stages.
    """
    params = forms.params
    ctx = forms.ctx
    E, X = _kerr_vertex_terms(ctx, coeffs)
    nt = len(E)
    V = ctx.dof_u.vertex_values                               # (nt, 6, 12)
    M = _vertex_moments(X, params.eps_lin, params.eps0 * params.chi3)
    M *= ctx.vol
    MV = np.matmul(np.ascontiguousarray(M.T).reshape(nt, 1, 4, 4), V.reshape(nt, 6, 4, 3))
    local = np.matmul(V, MV.reshape(nt, 6, 12).transpose(0, 2, 1))
    if params.chi3 > 0.0:
        EV = np.matmul(V.reshape(nt, 24, 3), E.transpose(0, 2, 1)).reshape(nt, 6, 16)
        IEV = EV @ VERTEX_MOMENTS_4.reshape(16, 16)             # I is symmetric
        IEV *= ((2.0 * params.eps0 * params.chi3) * ctx.vol)[:, None, None]
        local += np.matmul(EV, IEV.transpose(0, 2, 1))
    pattern = forms.free_edge_pattern
    return pattern.matrix(local, dt * dt / (4.0 * params.mu0) * forms.curl_curl.data[pattern.kept])


def assemble_nonlinear_curl_curl(forms: AssembledForms, e: np.ndarray,
                                 dt: float) -> sp.csr_matrix:
    """Kerr Jacobian of a lee-madsen midpoint step on all edges,
    mu0 M_u + (dt^2/4) C^T blockdiag(C_m(E_K) / (eps0 |K|)) C, in
    :attr:`AssembledForms.edge_pattern`.

    ``e`` holds the cellwise-constant E_K and :func:`kerrfem.material.cm_matrix`
    is the inverse of eps(E)/eps0, so the Kerr block of a tet is
    (dt^2/4) |K| curls^T C_m(E_K) curls / eps0 on its six edges.  In a
    linear medium C_m = I / (1 + chi1) and this is the reduced matrix.
    """
    params = forms.params
    ctx = forms.ctx
    curls = ctx.edge_curls                                 # (nt, 6, 3)
    cm = cm_matrix(params, e.reshape(-1, 3))               # (nt, 3, 3)
    scale = (dt * dt / (4.0 * params.eps0)) * ctx.vol
    local = np.matmul(curls, np.matmul(cm, curls.transpose(0, 2, 1))) * scale[:, None, None]
    return forms.edge_pattern.matrix(local, params.mu0 * forms.mass_u1.data)


def assemble_flux_load(ctx: FemContext, params: MaterialParams,
                       coeffs: np.ndarray) -> np.ndarray:
    """Edge-space load of the electric flux: entries integral of D(E_h) . psi_i,
    in closed form: the moments of F_d = |K| sum_c M_cd E_c at the vertices
    d, with M_cd = eps_lin J_cd + eps0 chi3 W_cd (see :func:`_vertex_moments`)."""
    _, X = _kerr_vertex_terms(ctx, coeffs)
    nt = X.shape[1]
    M = _vertex_moments(X, params.eps_lin, params.eps0 * params.chi3)
    F = np.einsum("cdt,cxt->dxt", M.reshape(4, 4, nt), X.reshape(4, 3, nt))
    local = ctx.dof_u.moments(F.reshape(12, nt).T)
    local *= ctx.vol[:, None]
    return _scatter_vector(local, ctx.dof_u)


def electric_energy(ctx: FemContext, params: MaterialParams, coeffs: np.ndarray) -> float:
    """Electric energy of an edge field, the integral of
    0.5 eps_lin |E_h|^2 + 0.75 eps0 chi3 |E_h|^4, in closed form:
    sum_K |K| sum_cd (0.5 eps_lin J_cd + 0.75 eps0 chi3 W_cd) E_c . E_d."""
    _, X = _kerr_vertex_terms(ctx, coeffs)
    nt = X.shape[1]
    M = _vertex_moments(X, 0.5 * params.eps_lin, 0.75 * params.eps0 * params.chi3)
    X = X.reshape(4, 3, nt)
    return float(np.einsum("cdt,cxt,dxt->t", M.reshape(4, 4, nt), X, X) @ ctx.vol)


def assemble_coupling(ctx: FemContext, dofmap: DofMap) -> sp.csr_matrix:
    """Curl coupling of the lee-madsen formulation, (3 nt) x (edges).

    C[i, j] = (curl phi_j^U, psi_i^W); the transpose of the same matrix
    realizes (E_h, curl Phi_h), which is what makes the discrete energy
    identity exact.  The nedelec coupling is built from the face Gram matrix
    and the discrete curl in :func:`build_forms`.
    """
    nt = ctx.num_tets
    vals = ctx.edge_curls * ctx.vol[:, None, None]
    rows = (3 * np.arange(nt)[:, None, None] + np.arange(3)[None, None, :])
    rows = np.broadcast_to(rows, (nt, 6, 3))
    cols = np.broadcast_to(dofmap.cell_dofs[:, :, None], (nt, 6, 3))
    return from_triplets(
        rows.ravel(), cols.ravel(), vals.ravel(), shape=(3 * nt, dofmap.num_dofs)
    )


def assemble_discrete_curl(topo: Topology) -> sp.csr_matrix:
    """Coefficients of curl(u_h) in the face space: the signed face-edge
    incidence (faces x edges), built from topology alone.

    By Stokes the flux of curl u through face (a, b, c) is the circulation
    u_ab + u_bc - u_ac of u around it (see :class:`kerrfem.mesh.Topology`),
    so every entry is +-1 and the curl of a discrete gradient is exactly 0.
    """
    nf = topo.num_faces
    return from_triplets(np.repeat(np.arange(nf), 3), topo.face_edges.ravel(),
                         np.tile([1.0, 1.0, -1.0], nf), shape=(nf, topo.num_edges))


def assemble_gradient(ctx: FemContext, pinned_vertex: int = 0) -> sp.csr_matrix:
    """Whitney coefficients of gradients of P1 hats: +1 at the edge head,
    -1 at the tail, with the pinned gauge vertex's column dropped."""
    edges = ctx.topo.edges
    nv = ctx.mesh.num_vertices
    if not 0 <= pinned_vertex < nv:
        raise ValueError(f"pinned_vertex {pinned_vertex} is not a vertex: the valid "
                         f"range is 0..{nv - 1}")
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


def assemble_source(ctx: FemContext, target, dofmap: DofMap) -> np.ndarray:
    """Load vector (target, phi_i) over the space of ``dofmap``, by quadrature.

    ``target`` maps (m, 3) points to (m, 3) values.
    """
    local = _local_moments(ctx, ctx.dx, ctx.sample(target), dofmap)
    return _scatter_vector(local, dofmap)


def l2_project(ctx: FemContext, target) -> np.ndarray:
    """Cellwise-average projection onto the discontinuous vector space."""
    integrals = assemble_source(ctx, target, ctx.dof_w).reshape(-1, 3)
    return (integrals / ctx.vol[:, None]).ravel()


def curl_project(forms: AssembledForms, target, target_curl,
                 pinned_vertex: int = 0) -> np.ndarray:
    """Curl-matching projection onto the edge space.

    Finds u_h with (curl u_h, curl psi) = (curl v, curl psi) for all edge
    test functions and the gradient-moment matching (u_h, grad p) =
    (v, grad p) over gauge-fixed P1 scalars, by :func:`linalg.solve_saddle`:
    gradients span the kernel of the curl-curl matrix and the curl load
    vanishes on them, so u_h is a CG solution of the singular curl-curl
    system plus the gradient of a P1 Laplacian solve.  The result is
    independent of the pinned gauge vertex.
    """
    ctx = forms.ctx
    dofU = forms.dof_u
    grad = assemble_gradient(ctx, pinned_vertex=pinned_vertex)
    cell_curl = assemble_source(ctx, target_curl, ctx.dof_w).reshape(-1, 3)
    f = _scatter_vector(np.einsum("tid,td->ti", ctx.edge_curls, cell_curl), dofU)
    g = grad.T @ assemble_source(ctx, target, dofU)
    return linalg.solve_saddle(forms.curl_curl, grad.T @ forms.mass_u1, grad, f, g)


@dataclass(frozen=True)
class Pattern:
    """Canonical CSR pattern (sorted, no duplicates) of the square matrices
    of one space, the pairs of dofs that meet in a tet, with the data slot
    of every local entry (t, i, j).  A restriction to a set of dofs
    (:meth:`restrict`) also holds ``kept``, the parent's data slots that it
    keeps, and gives each local entry outside the set the slot one past its
    last."""

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray                # (nt * nloc**2,)
    kept: np.ndarray | None = None   # (nnz,) slots of the parent pattern

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix whose data on the pattern is ``data``."""
        n = len(self.indptr) - 1
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def matrix(self, local: np.ndarray, base: np.ndarray | None = None) -> sp.csr_matrix:
        """Sum of per-tet matrices (nt, nloc, nloc) in the global
        orientation, plus the constant matrix whose data on the pattern is
        ``base`` if given."""
        nnz = len(self.indices)
        data = np.bincount(self.slots, weights=local.ravel(), minlength=nnz + 1)[:nnz]
        if base is not None:
            data += base
        return self.csr(data)

    def restrict(self, dofs: np.ndarray) -> Pattern:
        """The pattern of the rows and columns of the sorted ``dofs``, taken
        from this one by a mask, with no sort."""
        nnz = len(self.indices)
        position = np.full(len(self.indptr) - 1, -1, dtype=self.indices.dtype)
        position[dofs] = np.arange(len(dofs))
        rows = np.repeat(position, np.diff(self.indptr))
        cols = position[self.indices]
        kept = np.flatnonzero((rows >= 0) & (cols >= 0))
        slot = np.full(nnz + 1, len(kept))
        slot[kept] = np.arange(len(kept))
        indptr = np.searchsorted(rows[kept], np.arange(len(dofs) + 1)).astype(self.indptr.dtype)
        return Pattern(indptr, cols[kept], slot[self.slots], kept)


def _pattern(dofmap: DofMap) -> Pattern:
    """The :class:`Pattern` of the space of ``dofmap``, by one sort of the
    keys n row + col of its local entries.  They are int32 while n^2 fits,
    which sorts faster and is the index type scipy keeps without a copy."""
    n = dofmap.num_dofs
    index = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    cells = dofmap.cell_dofs.astype(index)
    keys, slots = np.unique((cells[:, :, None] * n + cells[:, None, :]).ravel(),
                            return_inverse=True)
    indptr = np.searchsorted(keys, n * np.arange(n + 1, dtype=index)).astype(index)
    return Pattern(indptr, keys % n, slots)


@dataclass
class AssembledForms:
    """All constant matrices of both semi-discrete formulations, the edge
    space's :class:`Pattern`, into which every square edge matrix is
    assembled, and, made on first use and then kept: the curl-curl matrix,
    the pattern's restriction to the free edges, the face mass LU, the LU
    of the last reduced matrix solved with (:meth:`reduced_solver`), and
    the load vectors and Gram matrices of separable sources."""

    ctx: FemContext
    params: MaterialParams
    free_edges: np.ndarray  # sorted interior edges: the free E dofs of nedelec
    edge_pattern: Pattern    # all edges; every lee-madsen Kerr Jacobian is assembled into it
    mass_u1: sp.csr_matrix   # edge Gram matrix, on edge_pattern
    mass_v1: sp.csr_matrix   # face Gram matrix
    coupling_lm: sp.csr_matrix     # (3 nt) x (n_edges)
    discrete_curl: sp.csr_matrix   # faces x edges, exact curl coefficients
    coupling_ned: sp.csr_matrix    # faces x free edges
    coupling_lm_t: sp.csr_matrix   # coupling_lm.T as CSR, for the time loop's matvecs
    coupling_ned_t: sp.csr_matrix  # coupling_ned.T as CSR
    # the LU of the last reduced matrix solved with, ((formulation, dt), solve)
    _reduced_lu: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    # load vectors of separable source factors, keyed by (g, dof map)
    source_loads: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # L2 Gram matrices of the factors of one current, keyed by (g_1, ..., g_K)
    source_grams: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dof_u(self) -> DofMap:
        """Edge space: H of lee-madsen, E of nedelec, gradients."""
        return self.ctx.dof_u

    @property
    def dof_v(self) -> DofMap:
        """Face space: H of nedelec."""
        return self.ctx.dof_v

    @property
    def dof_w(self) -> DofMap:
        """Cellwise-constant vectors: E of lee-madsen."""
        return self.ctx.dof_w

    @cached_property
    def curl_curl(self) -> sp.csr_matrix:
        """(curl u, curl v) on the edge space, A_cc = C^T diag(1/|K|) C, on
        :attr:`edge_pattern`; curls are cellwise constant."""
        curls = self.ctx.edge_curls
        return self.edge_pattern.matrix(np.einsum("tid,tjd,t->tij", curls, curls, self.ctx.vol))

    @cached_property
    def free_edge_pattern(self) -> Pattern:
        """The restriction of :attr:`edge_pattern` to the free edges, into
        which every nedelec matrix of a midpoint step is assembled."""
        return self.edge_pattern.restrict(self.free_edges)

    @cached_property
    def solve_mass_v1(self):
        """Solve with the face Gram matrix."""
        return linalg.factorized(self.mass_v1)

    def reduced_matrix(self, formulation: str, dt: float) -> sp.csr_matrix:
        """Linear edge matrix of a midpoint step with one field eliminated:
        mu0 M_u + dt^2/(4 eps_lin) A_cc (lee-madsen), or on the free edges
        eps_lin M_u + dt^2/(4 mu0) A_cc (nedelec; its Kerr counterpart is
        :func:`assemble_nonlinear_mass_curl`)."""
        params = self.params
        M, A = self.mass_u1.data, self.curl_curl.data
        if formulation == "lee-madsen":
            return self.edge_pattern.csr(params.mu0 * M + dt * dt / (4.0 * params.eps_lin) * A)
        pattern = self.free_edge_pattern
        kept = pattern.kept
        return pattern.csr(params.eps_lin * M[kept] + dt * dt / (4.0 * params.mu0) * A[kept])

    def reduced_solver(self, formulation: str, dt: float):
        """Solve with the linear :meth:`reduced_matrix`; at dt = 0 it is the
        RK4 mass.  The LU of the last ``(formulation, dt)`` asked for is
        kept, so a march factorizes once."""
        key, solve = self._reduced_lu
        if key != (formulation, dt):
            solve = linalg.factorized(self.reduced_matrix(formulation, dt))
            self._reduced_lu = ((formulation, dt), solve)
        return solve


def build_forms(mesh: Mesh, topo: Topology, params: MaterialParams) -> AssembledForms:
    """Context, dof maps and constant operators of both formulations.

    Each operator is assembled once: the two Gram matrices, each into the
    pattern of its space (the face pattern is not kept), the lee-madsen
    coupling C and the discrete curl.  The nedelec coupling
    K[i, j] = (phi_i^V, curl psi_j^U0) is the face Gram matrix times the
    discrete curl's columns of the free (interior) edges.  C^T and K^T
    are kept as CSR copies, so the time loop builds no transpose per step.
    """
    ctx = build_context(mesh, topo, symmetric_tetrahedron_rule())
    free_edges = np.delete(np.arange(topo.num_edges), topo.boundary_edges)
    edge_pattern = _pattern(ctx.dof_u)
    mass_u1 = edge_pattern.matrix(ctx.dof_u.gram(ctx.vol))
    mass_v1 = _pattern(ctx.dof_v).matrix(ctx.dof_v.gram(ctx.vol))
    discrete_curl = assemble_discrete_curl(topo)
    coupling_lm = assemble_coupling(ctx, ctx.dof_u)
    coupling_ned = mass_v1 @ discrete_curl[:, free_edges]
    return AssembledForms(
        ctx=ctx,
        params=params,
        free_edges=free_edges,
        edge_pattern=edge_pattern,
        mass_u1=mass_u1,
        mass_v1=mass_v1,
        coupling_lm=coupling_lm,
        discrete_curl=discrete_curl,
        coupling_ned=coupling_ned,
        coupling_lm_t=coupling_lm.T.tocsr(),
        coupling_ned_t=coupling_ned.T.tocsr(),
    )
