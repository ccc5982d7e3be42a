"""Kerr-type constitutive relations.

The medium is isotropic with an intensity-dependent permittivity: the flux
is D = eps0*(1 + chi1 + chi3*|E|^2)*E, and its field derivative is the
symmetric matrix eps(E) = eps0*[(1 + chi1 + chi3*|E|^2) I + 2*chi3*E E^T],
which is uniformly positive definite whenever chi1, chi3 >= 0.  The inverse
of eps(E)/eps0 is available in closed form (a rank-one Sherman-Morrison
update), so no 3x3 factorizations are ever needed.

All functions accept a single 3-vector or an (..., 3) batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MaterialError(Exception):
    """Invalid material parameters or failed constitutive inversion."""


@dataclass(frozen=True)
class MaterialParams:
    """Vacuum constants and susceptibilities of a Kerr medium.

    Defaults are nondimensionalized to 1; chi1 and chi3 must be nonnegative
    so the permittivity stays positive definite for every field strength.
    """

    eps0: float = 1.0
    mu0: float = 1.0
    chi1: float = 0.0
    chi3: float = 0.0

    def __post_init__(self):
        if not (self.eps0 > 0.0):
            raise MaterialError(f"eps0 must be > 0, got {self.eps0}")
        if not (self.mu0 > 0.0):
            raise MaterialError(f"mu0 must be > 0, got {self.mu0}")
        if self.chi1 < 0.0:
            raise MaterialError(
                f"chi1 must be >= 0 (nonnegative susceptibilities keep the "
                f"permittivity positive definite), got {self.chi1}"
            )
        if self.chi3 < 0.0:
            raise MaterialError(
                f"chi3 must be >= 0 (nonnegative susceptibilities keep the "
                f"permittivity positive definite), got {self.chi3}"
            )

    @property
    def eps_lin(self) -> float:
        """Linear permittivity eps0*(1 + chi1)."""
        return self.eps0 * (1.0 + self.chi1)


def eps_scalar(p: MaterialParams, E) -> np.ndarray:
    """Scalar permittivity factor 1 + chi1 + chi3*|E|^2 (shape (...,))."""
    E = np.asarray(E, dtype=np.float64)
    return 1.0 + p.chi1 + p.chi3 * np.sum(E * E, axis=-1)


def eps_matrix(p: MaterialParams, E) -> np.ndarray:
    """Field-dependent permittivity matrix, shape (..., 3, 3).

    eps(E) = eps0*[(1 + chi1 + chi3|E|^2) I + 2 chi3 E E^T]; symmetric with
    eigenvalues >= eps0.
    """
    E = np.asarray(E, dtype=np.float64)
    es = eps_scalar(p, E)
    eye = np.eye(3)
    outer = E[..., :, None] * E[..., None, :]
    return p.eps0 * (es[..., None, None] * eye + 2.0 * p.chi3 * outer)


def cm_matrix(p: MaterialParams, E) -> np.ndarray:
    """Closed-form inverse of eps(E)/eps0, shape (..., 3, 3).

    C_m(E) = (1/es)[I - 2 chi3 E E^T / (1 + chi1 + 3 chi3 |E|^2)] with
    es = 1 + chi1 + chi3 |E|^2; satisfies C_m(E) (eps(E)/eps0) = I and the
    denominators never drop below 1 for admissible parameters.
    """
    E = np.asarray(E, dtype=np.float64)
    es = eps_scalar(p, E)
    denom = 1.0 + p.chi1 + 3.0 * p.chi3 * np.sum(E * E, axis=-1)
    outer = E[..., :, None] * E[..., None, :]
    return (np.eye(3) - (2.0 * p.chi3 / denom)[..., None, None] * outer) / es[
        ..., None, None
    ]


def d_of_e(p: MaterialParams, E) -> np.ndarray:
    """Electric flux D = eps0*(1 + chi1 + chi3|E|^2)*E (parallel to E)."""
    E = np.asarray(E, dtype=np.float64)
    return p.eps0 * eps_scalar(p, E)[..., None] * E


FLUX_INVERSION_TOL = 1e-14  # relative Newton step at which the inversion stops
FLUX_INVERSION_MAX_ITER = 100


def field_magnitude_from_flux(p: MaterialParams, r) -> np.ndarray:
    """Solve eps0*chi3*s^3 + eps0*(1+chi1)*s = r for s >= 0, elementwise.

    The cubic is strictly increasing and convex for s > 0, so Newton started
    from an upper bound of the root decreases monotonically onto it.  Both
    r/(eps0*(1+chi1)) (the linear term alone) and cbrt(r/(eps0*chi3)) (the
    cubic term alone) bound the root from above; the smaller one is used as
    the start, which keeps s**3 finite for large |D|, and iterates are
    clamped to [0, start] as a safeguard.
    """
    r = np.asarray(r, dtype=np.float64)
    a = p.eps0 * p.chi3
    b = p.eps_lin
    if a == 0.0:
        return r / b
    upper = np.minimum(r / b, np.cbrt(r / a))
    s = upper.copy()
    for _ in range(FLUX_INVERSION_MAX_ITER):
        f = a * s**3 + b * s - r
        step = f / (3.0 * a * s * s + b)
        s_new = np.clip(s - step, 0.0, upper)
        if np.all(np.abs(s_new - s) <= FLUX_INVERSION_TOL * np.maximum(s_new, 1e-300)):
            return s_new
        s = s_new
    raise MaterialError(
        f"flux inversion did not converge in {FLUX_INVERSION_MAX_ITER} Newton steps"
    )


def e_of_d(p: MaterialParams, D) -> np.ndarray:
    """Exact inverse of :func:`d_of_e`: the unique E with D(E) = D.

    |E| solves a monotone scalar cubic in |D|, and E keeps D's direction.
    """
    D = np.asarray(D, dtype=np.float64)
    r = np.linalg.norm(D, axis=-1)
    s = field_magnitude_from_flux(p, r)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(r > 0.0, s / np.where(r > 0.0, r, 1.0), 0.0)
    return scale[..., None] * D

