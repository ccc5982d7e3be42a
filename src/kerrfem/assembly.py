"""Quadrature-based assembly of mass, coupling, and projection operators.

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
of a load are ``bary^T (dx f)`` contracted with the vertex values, and the
Gram matrices of the edge and face spaces are closed forms in those values.

The context of :func:`build_forms` is on one rule, the symmetric 14-point
degree-5 tet rule: exact for every polynomial integrand, degree-5 accurate
for source loads, projections and norms.  Every polynomial integrand of the
lowest-order scheme has degree <= 4 in the piecewise-linear fields: the Kerr
flux load, the nedelec Kerr Jacobian and the energy density.

:func:`build_forms` assembles each constant operator of both formulations
once; :class:`AssembledForms` keeps the one LU factorization the time loop
solves with (a linear reduced matrix or the lagged Kerr Jacobian of either
formulation) and, on first use, the :class:`EdgePattern` into which each
Kerr Jacobian is assembled: the free edges for nedelec, all edges for
lee-madsen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import linalg
from .fem_spaces import DofMap, barycentric, build_spaces
from .linalg import from_triplets
from .material import MaterialParams, cm_matrix
from .mesh import Mesh, Topology, all_geometry
from .quadrature import QuadratureRule, symmetric_tetrahedron_rule

__all__ = [
    "FemContext",
    "EdgePattern",
    "AssembledForms",
    "build_context",
    "build_forms",
    "assemble_mass",
    "assemble_curl_curl",
    "assemble_nonlinear_mass_curl",
    "assemble_nonlinear_curl_curl",
    "assemble_flux_load",
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


def _local_gram(measure: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Per-tet matrices of the integral of phi_i . phi_j against a weighted
    measure (nt, nq); ``phi`` is (nt, nloc, k nq) with k components per point,
    and the result (nt, nloc, nloc)."""
    weights = np.repeat(measure, phi.shape[2] // measure.shape[1], axis=1)  # (nt, k nq)
    return np.matmul(phi * weights[:, None, :], phi.transpose(0, 2, 1))


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


def _scatter_matrix(local: np.ndarray, dofmap: DofMap) -> sp.csr_matrix:
    """Accumulate per-tet local matrices into a global sparse matrix."""
    nloc = dofmap.cell_dofs.shape[1]
    rows = np.repeat(dofmap.cell_dofs[:, :, None], nloc, axis=2)
    cols = np.repeat(dofmap.cell_dofs[:, None, :], nloc, axis=1)
    n = dofmap.num_dofs
    return from_triplets(rows.ravel(), cols.ravel(), local.ravel(), shape=(n, n))


def assemble_mass(ctx: FemContext, dofmap: DofMap) -> sp.csr_matrix:
    """Gram matrix (SPD) of the edge or face space of ``dofmap``, in closed
    form (:meth:`kerrfem.fem_spaces.DofMap.gram`)."""
    return _scatter_matrix(dofmap.gram(ctx.vol), dofmap)


def assemble_curl_curl(ctx: FemContext, dofmap: DofMap) -> sp.csr_matrix:
    """(curl u, curl v) on the edge space; curls are cellwise constant."""
    return _scatter_matrix(_local_curl_curl(ctx), dofmap)


def _local_curl_curl(ctx: FemContext) -> np.ndarray:
    """Per-tet (curl psi_i, curl psi_j), (nt, 6, 6); curls are cellwise constant."""
    return np.einsum("tid,tjd,t->tij", ctx.edge_curls, ctx.edge_curls, ctx.vol)


def _kerr_measure(ctx: FemContext, params: MaterialParams, coeffs: np.ndarray):
    """E_h at the points of ``ctx`` and the measure eps0 (1 + chi1 + chi3
    |E_h|^2) dx."""
    E = ctx.field(ctx.dof_u, coeffs)
    es = 1.0 + params.chi1 + params.chi3 * np.einsum("tqd,tqd->tq", E, E)
    return E, params.eps0 * es * ctx.dx


def assemble_nonlinear_mass_curl(forms: AssembledForms, coeffs: np.ndarray,
                                 dt: float) -> sp.csr_matrix:
    """Kerr Jacobian of a nedelec midpoint step on the free edges,
    M_eps(E_h) + dt^2/(4 mu0) A_cc, in :attr:`AssembledForms.free_edge_pattern`.

    M_eps[i, j] is the integral of eps(E_h) psi_i . psi_j with the field
    derivative eps(E) = eps0 [(1 + chi1 + chi3 |E|^2) I + 2 chi3 E E^T]; E_h
    is piecewise linear, so the degree-4 integrand is exact on the 14-point
    rule.  The basis at the points is formed for this call only.  At dt = 0
    this is the Kerr mass of the RK4 stages.
    """
    params = forms.params
    ctx = forms.ctx
    E, measure = _kerr_measure(ctx, params, coeffs)
    phi = ctx.dof_u.at(ctx.bary)
    local = _local_gram(measure, phi)
    if params.chi3 > 0.0:
        prod = phi * E.reshape(len(phi), 1, -1)          # (nt, nloc, 3 nq)
        ephi = prod[..., 0::3] + prod[..., 1::3] + prod[..., 2::3]  # E . psi_i
        local += _local_gram((2.0 * params.eps0 * params.chi3) * ctx.dx, ephi)
    pattern = forms.free_edge_pattern
    return pattern.matrix(local, dt * dt / (4.0 * params.mu0) * pattern.curl_curl)


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
    exact on the 14-point rule (degree 4)."""
    E, measure = _kerr_measure(ctx, params, coeffs)
    return _scatter_vector(_local_moments(ctx, measure, E, ctx.dof_u), ctx.dof_u)


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

    Solves, as one saddle system, (curl u_h, curl psi) = (curl v, curl psi)
    for all edge test functions together with the gradient-moment matching
    (u_h, grad p) = (v, grad p) over gauge-fixed P1 scalars.  The result is
    independent of the pinned gauge vertex.
    """
    ctx = forms.ctx
    dofU = forms.dof_u
    grad = assemble_gradient(ctx, pinned_vertex=pinned_vertex)
    G = forms.mass_u1 @ grad
    cell_curl = assemble_source(ctx, target_curl, ctx.dof_w).reshape(-1, 3)
    f = _scatter_vector(np.einsum("tid,td->ti", ctx.edge_curls, cell_curl), dofU)
    g = grad.T @ assemble_source(ctx, target, dofU)
    u, _ = linalg.solve_saddle(forms.curl_curl, G.T, f, g)
    return u


@dataclass(frozen=True)
class EdgePattern:
    """Canonical CSR pattern (sorted, no duplicates) of M_u + A_cc on a set
    of edges, all of them (the pattern of :attr:`AssembledForms.mass_u1`) or
    the free ones, with the data slot of every local entry (t, i, j) (one
    past the last slot for a pair with an edge outside the set) and A_cc's
    data on it."""

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray       # (nt * 36,)
    curl_curl: np.ndarray   # (nnz,)

    def matrix(self, local: np.ndarray, base: np.ndarray) -> sp.csr_matrix:
        """Sum of per-tet matrices (nt, 6, 6) in the global edge
        orientation plus the constant matrix whose data on the pattern is
        ``base``."""
        nnz = len(self.indices)
        data = np.bincount(self.slots, weights=local.ravel(), minlength=nnz + 1)[:nnz]
        n = len(self.indptr) - 1
        return sp.csr_matrix((data + base, self.indices, self.indptr), shape=(n, n))


def _edge_pattern(ctx: FemContext, edges: np.ndarray | None = None) -> EdgePattern:
    """The :class:`EdgePattern` of the edge space on the sorted ``edges``,
    or on all edges when None."""
    dofmap = ctx.dof_u
    if edges is None:
        edges = np.arange(dofmap.num_dofs)
    n = len(edges)
    position = np.full(dofmap.num_dofs, -1, dtype=np.int64)
    position[edges] = np.arange(n)
    local = position[dofmap.cell_dofs]                    # (nt, 6)
    rows = np.repeat(local[:, :, None], 6, axis=2).ravel()
    cols = np.repeat(local[:, None, :], 6, axis=1).ravel()
    kept = (rows >= 0) & (cols >= 0)
    keys, slot = np.unique(rows[kept] * n + cols[kept], return_inverse=True)
    nnz = len(keys)
    slots = np.full(len(rows), nnz, dtype=np.int64)
    slots[kept] = slot
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    curl_curl = _local_curl_curl(ctx).ravel()
    return EdgePattern(indptr, keys % n, slots,
                       np.bincount(slots, weights=curl_curl, minlength=nnz + 1)[:nnz])


@dataclass
class AssembledForms:
    """All constant matrices of both semi-discrete formulations, the face
    mass LU and the one time-loop LU (:meth:`kept_solver`), and the load
    vectors and Gram matrices of separable sources (all made on first use,
    then kept)."""

    ctx: FemContext
    params: MaterialParams
    free_edges: np.ndarray  # sorted interior edges: the free E dofs of nedelec
    mass_u1: sp.csr_matrix   # edge Gram matrix
    mass_v1: sp.csr_matrix   # face Gram matrix
    coupling_lm: sp.csr_matrix     # (3 nt) x (n_edges)
    discrete_curl: sp.csr_matrix   # faces x edges, exact curl coefficients
    coupling_ned: sp.csr_matrix    # faces x free edges
    # the one time-loop LU kept, ((name, dt), solve); see kept_solver
    _time_loop_lu: tuple = field(default=(None, None), init=False, repr=False, compare=False)
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
        """(curl u, curl v) on the edge space, A_cc = C^T diag(1/|K|) C."""
        return assemble_curl_curl(self.ctx, self.dof_u)

    @cached_property
    def edge_pattern(self) -> EdgePattern:
        """The pattern every lee-madsen Kerr Jacobian is assembled into,
        built on first use; it is the pattern of :attr:`mass_u1`."""
        return _edge_pattern(self.ctx)

    @cached_property
    def free_edge_pattern(self) -> EdgePattern:
        """The pattern every nedelec Kerr Jacobian is assembled into, built
        on first use."""
        return _edge_pattern(self.ctx, self.free_edges)

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
        A = self.curl_curl
        if formulation == "lee-madsen":
            return params.mu0 * self.mass_u1 + dt * dt / (4.0 * params.eps_lin) * A
        M = params.eps_lin * self.mass_u1
        free = self.free_edges
        return (M + dt * dt / (4.0 * params.mu0) * A)[np.ix_(free, free)]

    def reduced_solver(self, formulation: str, dt: float):
        """Solve with the linear :meth:`reduced_matrix`; at dt = 0 it is the
        RK4 mass."""
        solve = self.kept_solver(formulation, dt)
        if solve is None:
            solve = self.keep_solver(formulation, dt, self.reduced_matrix(formulation, dt))
        return solve

    def kept_solver(self, name: str, dt: float):
        """The kept time-loop LU solve if it was made for ``(name, dt)``,
        else None.  One is kept at a time: the linear reduced matrix of a
        formulation (``name`` the formulation), or the lagged Kerr Jacobian
        of one (``name`` "lee-madsen-kerr" or "nedelec-kerr"), which the
        next step at the same dt starts from."""
        key, solve = self._time_loop_lu
        return solve if key == (name, dt) else None

    def keep_solver(self, name: str, dt: float, matrix: sp.spmatrix):
        """Factorize ``matrix`` as the kept time-loop LU of ``(name, dt)``,
        replacing the one kept before, and return its solve."""
        self._time_loop_lu = ((name, dt), linalg.factorized(matrix))
        return self._time_loop_lu[1]


def build_forms(mesh: Mesh, topo: Topology, params: MaterialParams) -> AssembledForms:
    """Context, dof maps and constant operators of both formulations.

    Each operator is assembled once: the two Gram matrices, the lee-madsen
    coupling C and the discrete curl.  The nedelec coupling
    K[i, j] = (phi_i^V, curl psi_j^U0) is the face Gram matrix times the
    discrete curl, restricted to the free (interior) edges.
    """
    ctx = build_context(mesh, topo, symmetric_tetrahedron_rule())
    free_edges = np.setdiff1d(np.arange(topo.num_edges), topo.boundary_edges)
    mass_u1 = assemble_mass(ctx, ctx.dof_u)
    mass_v1 = assemble_mass(ctx, ctx.dof_v)
    discrete_curl = assemble_discrete_curl(topo)
    return AssembledForms(
        ctx=ctx,
        params=params,
        free_edges=free_edges,
        mass_u1=mass_u1,
        mass_v1=mass_v1,
        coupling_lm=assemble_coupling(ctx, ctx.dof_u),
        discrete_curl=discrete_curl,
        coupling_ned=(mass_v1 @ discrete_curl)[:, free_edges],
    )
