"""Tetrahedral meshes, structured cube generation, and oriented topology.

The mesh layer is deliberately small: vertices, tetrahedra, and the derived
edge/face incidence needed to place tangential (edge) and normal (face)
degrees of freedom consistently across elements.  Global orientation is
purely combinatorial: an edge always points from its lower-numbered vertex
to its higher-numbered one, and a face is identified by its sorted vertex
triple (its reference normal follows the right-hand rule on that triple).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MeshError(Exception):
    """Invalid mesh geometry or topology."""


# Local edge/face numbering of a tetrahedron (indices into its 4 vertices).
TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
TET_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


@dataclass(frozen=True)
class Mesh:
    """Tetrahedral mesh: vertex coordinates and 4-tuples of vertex indices.

    Tets are stored in canonical order: vertex indices ascending, except that
    the last two are swapped when needed to keep the signed volume positive.
    Instances are immutable; share freely between workers.
    """

    vertices: np.ndarray  # (nv, 3) float
    tets: np.ndarray      # (nt, 4) int

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_tets(self) -> int:
        return self.tets.shape[0]


@dataclass(frozen=True)
class Topology:
    """Oriented edge/face incidence derived from a Mesh.

    ``tet_edge_sign[t, k]`` is +1 when local edge k of tet t runs in the
    global lo->hi direction, -1 otherwise; ``tet_face_sign`` likewise records
    whether the local face triple is an even permutation of the sorted global
    triple.

    ``face_edges[f]`` holds the edges (a,b), (b,c), (a,c) of the sorted face
    (a,b,c).  Stokes convention: the boundary of face f runs a->b->c->a
    (right-hand rule about its normal), so the flux of curl u through it is
    u_ab + u_bc - u_ac in edge dofs.
    """

    edges: np.ndarray           # (ne, 2) int, lo < hi
    faces: np.ndarray           # (nf, 3) int, sorted
    tet_edges: np.ndarray       # (nt, 6) int
    tet_edge_sign: np.ndarray   # (nt, 6) int (+-1)
    tet_faces: np.ndarray       # (nt, 4) int
    tet_face_sign: np.ndarray   # (nt, 4) int (+-1)
    face_edges: np.ndarray      # (nf, 3) int, edges (a,b), (b,c), (a,c)
    boundary_faces: np.ndarray  # (nbf,) int
    boundary_edges: np.ndarray  # (nbe,) int

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]


def _canonicalize_tets(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Sort each tet's vertex indices, swapping the last pair if the signed
    volume would be negative."""
    tets = np.sort(tets, axis=1)
    v = vertices[tets]
    signed = np.einsum(
        "ti,ti->t",
        np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]),
        v[:, 3] - v[:, 0],
    )
    if np.any(signed == 0.0):
        bad = int(np.flatnonzero(signed == 0.0)[0])
        raise MeshError(f"tet {bad} is degenerate (zero volume)")
    flip = signed < 0.0
    tets[flip, 2], tets[flip, 3] = tets[flip, 3].copy(), tets[flip, 2].copy()
    return tets


def make_mesh(vertices, tets) -> Mesh:
    """Build a Mesh from raw arrays, canonicalizing and validating tets."""
    vertices = np.ascontiguousarray(vertices, dtype=np.float64)
    tets = np.ascontiguousarray(tets, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise MeshError(f"vertices must have shape (nv, 3), got {vertices.shape}")
    if tets.ndim != 2 or tets.shape[1] != 4:
        raise MeshError(f"tets must have shape (nt, 4), got {tets.shape}")
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise MeshError(f"vertex {bad} has a non-finite coordinate {vertices[bad].tolist()}")
    if tets.size and (tets.min() < 0 or tets.max() >= len(vertices)):
        raise MeshError("tet vertex index out of range")
    if len(np.unique(np.sort(tets, axis=1), axis=0)) != len(tets):
        raise MeshError("duplicate tets")
    tets = _canonicalize_tets(vertices, tets)
    return Mesh(vertices=vertices, tets=tets)


def generate_structured_cube(n: int) -> Mesh:
    """Kuhn (6-tet) subdivision of the unit cube into n**3 subcubes.

    Every subcube is split along monotone lattice paths from its low corner
    to its high corner, which keeps refinements nested and face diagonals
    consistent between neighboring subcubes.  The mesh size is h = sqrt(3)/n.
    """
    if n < 1:
        raise MeshError(f"subdivision count must be >= 1, got {n}")
    m = n + 1
    g = np.arange(m) / n
    # vertex (i, j, k) -> index i + m*j + m*m*k
    Z, Y, X = np.meshgrid(g, g, g, indexing="ij")
    vertices = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
    # Six monotone paths 0 -> e_p -> e_p + e_q -> (1,1,1), one tet each
    e = np.eye(3, dtype=np.int64)
    paths = np.array([(0 * e[p], e[p], e[p] + e[q], e.sum(axis=0))
                      for p in range(3) for q in range(3) if q != p])
    corners = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1)
    lattice = corners.reshape(-1, 1, 1, 3) + paths  # (n**3, 6, 4, 3), i-major
    tets = lattice @ np.array([1, m, m * m])
    return make_mesh(vertices, tets.reshape(-1, 4))


def mesh_size(mesh: Mesh) -> float:
    """h = max circumscribed-sphere diameter over all tets."""
    v = mesh.vertices[mesh.tets]  # (nt, 4, 3)
    a = v[:, 1] - v[:, 0]
    b = v[:, 2] - v[:, 0]
    c = v[:, 3] - v[:, 0]
    # circumcenter offset u solves 2 [a;b;c] u = (|a|^2, |b|^2, |c|^2)
    A = np.stack([a, b, c], axis=1)
    rhs = 0.5 * np.stack(
        [np.sum(a * a, axis=1), np.sum(b * b, axis=1), np.sum(c * c, axis=1)],
        axis=1,
    )
    u = np.linalg.solve(A, rhs[..., None])[..., 0]
    return float(2.0 * np.max(np.linalg.norm(u, axis=1)))


def all_geometry(mesh: Mesh):
    """Batched geometry arrays: (origins, J, detJ, invJT, volumes)."""
    v = mesh.vertices[mesh.tets]
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], v[:, 3] - v[:, 0]], axis=2)
    det = np.linalg.det(J)
    if np.any(det <= 0.0):
        bad = int(np.flatnonzero(det <= 0.0)[0])
        raise MeshError(f"tet {bad} has nonpositive Jacobian determinant")
    invJT = np.transpose(np.linalg.inv(J), (0, 2, 1))
    return v[:, 0].copy(), J, det, invJT, det / 6.0


def build_topology(mesh: Mesh) -> Topology:
    """Derive globally oriented edges/faces and boundary flags.

    Deterministic: global edge and face indices follow the lexicographic
    order of their sorted vertex tuples, so repeated calls on the same mesh
    give identical numbering.  Edge (lo, hi) has the integer key lo*nv + hi,
    which ascends with that order, so a binary search on the keys finds the
    edge of any vertex pair; face (a, b, c) is keyed by its edge (a, b) and c.
    """
    tets = mesh.tets
    nt = mesh.num_tets
    nv = mesh.num_vertices

    pairs = tets[:, np.array(TET_EDGES)]       # (nt, 6, 2)
    tet_edge_sign = np.where(pairs[..., 0] < pairs[..., 1], 1, -1).astype(np.int64)
    pairs = np.sort(pairs, axis=-1)
    edge_keys, inv_e = np.unique((pairs[..., 0] * nv + pairs[..., 1]).ravel(),
                                 return_inverse=True)
    edges = np.stack([edge_keys // nv, edge_keys % nv], axis=1)
    tet_edges = inv_e.reshape(nt, 6)

    def edge_index(lo, hi):
        return np.searchsorted(edge_keys, lo * nv + hi)

    triples = tets[:, np.array(TET_FACES)]     # (nt, 4, 3)
    a, b, c = np.moveaxis(np.sort(triples, axis=-1), -1, 0)
    face_keys, inv_f = np.unique((edge_index(a, b) * nv + c).ravel(), return_inverse=True)
    faces = np.column_stack([edges[face_keys // nv], face_keys % nv])
    tet_faces = inv_f.reshape(nt, 4)
    a, b, c = faces.T
    face_edges = np.stack([face_keys // nv, edge_index(b, c), edge_index(a, c)], axis=1)
    # Permutation parity of the local triple relative to its sorted order.
    t0, t1, t2 = triples[..., 0], triples[..., 1], triples[..., 2]
    even = (
        ((t0 < t1) & (t1 < t2))
        | ((t1 < t2) & (t2 < t0))
        | ((t2 < t0) & (t0 < t1))
    )
    tet_face_sign = np.where(even, 1, -1).astype(np.int64)

    counts = np.bincount(tet_faces.ravel(), minlength=len(faces))
    if np.any(counts > 2):
        bad = int(np.flatnonzero(counts > 2)[0])
        raise MeshError(
            f"non-manifold face {tuple(faces[bad])} shared by {counts[bad]} tets"
        )
    boundary_faces = np.flatnonzero(counts == 1)

    return Topology(
        edges=edges,
        faces=faces,
        tet_edges=tet_edges,
        tet_edge_sign=tet_edge_sign,
        tet_faces=tet_faces,
        tet_face_sign=tet_face_sign,
        face_edges=face_edges,
        boundary_faces=boundary_faces,
        boundary_edges=np.unique(face_edges[boundary_faces]),
    )


def write_mesh(mesh: Mesh, path) -> None:
    """Write the in-house text format (``tetmesh 1`` header)."""
    lines = ["tetmesh 1", f"{mesh.num_vertices} {mesh.num_tets}"]
    for x, y, z in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} {z:.17g}")
    for t in mesh.tets:
        lines.append(f"{t[0]} {t[1]} {t[2]} {t[3]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path) -> Mesh:
    """Read the text format written by :func:`write_mesh`.

    Whitespace separated; ``#`` starts a comment.
    """
    tokens: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if len(tokens) < 4 or tokens[0] != "tetmesh" or tokens[1] != "1":
        raise MeshError(f"{path}: missing 'tetmesh 1' header")
    nv, nt = int(tokens[2]), int(tokens[3])
    need = 4 + 3 * nv + 4 * nt
    if len(tokens) != need:
        raise MeshError(f"{path}: expected {need} tokens, found {len(tokens)}")
    vals = tokens[4:]
    vertices = np.array(vals[: 3 * nv], dtype=np.float64).reshape(nv, 3)
    tets = np.array(vals[3 * nv:], dtype=np.int64).reshape(nt, 4)
    return make_mesh(vertices, tets)
