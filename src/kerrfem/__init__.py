"""kerrfem: finite element simulation of time-dependent Maxwell's equations
in Kerr-type nonlinear media on tetrahedral meshes."""

__version__ = "0.1.0"
