import warnings

import numpy as np
import pytest

from conftest import to_reference
from kerrfem.mesh import (
    MeshError,
    all_geometry,
    build_topology,
    generate_structured_cube,
    make_mesh,
    mesh_size,
    read_mesh,
    write_mesh,
)


def test_unit_cube_counts():
    mesh = generate_structured_cube(1)
    assert mesh.num_vertices == 8
    assert mesh.num_tets == 6


def test_n2_counts():
    mesh = generate_structured_cube(2)
    assert mesh.num_vertices == 27
    assert mesh.num_tets == 48


def test_total_volume_is_one():
    for n in (1, 2, 3, 5, 8, 16):
        mesh = generate_structured_cube(n)
        *_, vol = all_geometry(mesh)
        assert abs(vol.sum() - 1.0) < 1e-12


def test_rejects_zero_subdivisions():
    with pytest.raises(MeshError):
        generate_structured_cube(0)


def test_mesh_size_and_halving():
    for n in (1, 2, 4):
        mesh = generate_structured_cube(n)
        assert mesh_size(mesh) == pytest.approx(np.sqrt(3.0) / n, abs=1e-14)
    assert mesh_size(generate_structured_cube(4)) == mesh_size(generate_structured_cube(2)) / 2


def test_positive_volumes_after_canonical_ordering():
    mesh = generate_structured_cube(3)
    *_, det, _, vol = all_geometry(mesh)
    assert np.all(vol > 0)
    # canonical: sorted ascending except possibly the last pair
    t = mesh.tets
    assert np.all(t[:, 0] < t[:, 1])
    assert np.all(t[:, 1] < np.maximum(t[:, 2], t[:, 3]))


def test_topology_counts_unit_cube():
    mesh = generate_structured_cube(1)
    topo = build_topology(mesh)
    assert topo.num_edges == 19  # 12 cube edges + 6 face diagonals + 1 body diagonal
    assert topo.num_faces == 18
    assert len(topo.boundary_faces) == 12
    euler = mesh.num_vertices - topo.num_edges + topo.num_faces - mesh.num_tets
    assert euler == 1


def test_topology_euler_n3():
    mesh = generate_structured_cube(3)
    topo = build_topology(mesh)
    assert mesh.num_vertices - topo.num_edges + topo.num_faces - mesh.num_tets == 1


def test_single_reference_tet_topology(reference_tet_mesh):
    topo = build_topology(reference_tet_mesh)
    assert topo.num_edges == 6
    assert topo.num_faces == 4
    assert len(topo.boundary_faces) == 4
    assert len(topo.boundary_edges) == 6


def test_topology_is_reproducible():
    mesh = generate_structured_cube(2)
    a = build_topology(mesh)
    b = build_topology(mesh)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.faces, b.faces)
    assert np.array_equal(a.tet_edges, b.tet_edges)
    assert np.array_equal(a.tet_edge_sign, b.tet_edge_sign)


def test_nonmanifold_face_rejected():
    verts = np.array(
        [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [1, 1, 1]]
    )
    # three tets sharing face (0,1,2)
    tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    mesh = make_mesh(verts, tets)
    with pytest.raises(MeshError, match="non-manifold"):
        build_topology(mesh)


def test_duplicate_tets_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(MeshError, match="duplicate"):
        make_mesh(verts, np.array([[0, 1, 2, 3], [1, 0, 2, 3]]))


def test_geometry_reference_tet(reference_tet_mesh):
    _, J, det, _, _ = all_geometry(reference_tet_mesh)
    assert np.allclose(J[0], np.eye(3))
    assert det[0] == pytest.approx(1.0)


def test_geometry_scaling():
    verts = 2.0 * np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    mesh = make_mesh(verts, np.array([[0, 1, 2, 3]]))
    _, _, det, _, _ = all_geometry(mesh)
    assert det[0] == pytest.approx(8.0)


def test_geometry_random_inverse():
    rng = np.random.default_rng(7)
    for _ in range(5):
        verts = rng.normal(size=(4, 3))
        mesh = make_mesh(verts, np.array([[0, 1, 2, 3]]))
        _, J, _, invJT, _ = all_geometry(mesh)
        prod = J[0] @ invJT[0].T
        assert np.abs(prod - np.eye(3)).max() < 1e-13


def test_geometry_roundtrip_points():
    mesh = generate_structured_cube(2)
    geometry = all_geometry(mesh)
    origins, J, *_ = geometry
    rng = np.random.default_rng(1)
    ref = rng.dirichlet(np.ones(4), size=6)[:, :3]
    phys = origins[17] + ref @ J[17].T
    back = to_reference(geometry, 17, phys)
    assert np.abs(back - ref).max() < 1e-13


def test_degenerate_tet_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(MeshError, match="degenerate"):
        make_mesh(verts, np.array([[0, 1, 2, 3]]))


def test_mesh_file_roundtrip(tmp_path):
    mesh = generate_structured_cube(2)
    path = tmp_path / "m.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.tets, mesh.tets)
    assert np.abs(back.vertices - mesh.vertices).max() == 0.0


def test_mesh_file_comments_and_errors(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(
        "# a comment\ntetmesh 1\n2 0  # counts\n0 0 0\n1 0 0\n", encoding="utf-8"
    )
    mesh = read_mesh(path)
    assert mesh.num_vertices == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("trimesh 1\n0 0\n", encoding="utf-8")
    with pytest.raises(MeshError, match="header"):
        read_mesh(bad)
    short = tmp_path / "short.txt"
    short.write_text("tetmesh 1\n2 1\n0 0 0\n", encoding="utf-8")
    with pytest.raises(MeshError, match="tokens"):
        read_mesh(short)
    for value in ("nan", "inf"):
        nonfinite = tmp_path / f"{value}.txt"
        nonfinite.write_text(f"tetmesh 1\n4 1\n0 0 0\n1 0 0\n0 {value} 0\n0 0 1\n"
                             "0 1 2 3\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="vertex 2 has a non-finite coordinate"):
                read_mesh(nonfinite)
