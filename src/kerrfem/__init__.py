"""kerrfem: finite element simulation of time-dependent Maxwell's equations
in Kerr-type nonlinear media on tetrahedral meshes."""

from .material import MaterialParams, cm_matrix, d_of_e, e_of_d, eps_matrix
from .mesh import (
    Mesh,
    MeshError,
    Topology,
    build_topology,
    generate_structured_cube,
    mesh_size,
    read_mesh,
    write_mesh,
)
from .fem_spaces import (
    DofMap,
    eval_edge_basis,
    eval_face_basis,
    piola_map,
)
from .linalg import cg_solve, from_triplets, solve_saddle
from .quadrature import QuadratureRule
from .assembly import (
    AssembledForms,
    FemContext,
    assemble_coupling,
    assemble_mass,
    assemble_nonlinear_mass,
    assemble_source,
    build_context,
    build_forms,
    curl_project,
    l2_project,
)
from .dynamics import (
    EnergyTrace,
    Sources,
    State,
    ZERO_SOURCES,
    energy_law_residual,
    initialize,
    integrate,
    rhs,
    stability_bound_check,
    step_rk4,
    total_energy,
)
from .verification import (
    EocTable,
    ManufacturedCase,
    cavity_mode_case,
    error_norms,
    kerr_manufactured_case,
    projection_study,
    run_convergence,
)

__version__ = "0.1.0"
