"""Kerr-type constitutive relations.

The medium is isotropic with an intensity-dependent permittivity: the flux
is D = eps0*(1 + chi1 + chi3*|E|^2)*E, and its field derivative is the
symmetric matrix eps(E) = eps0*[(1 + chi1 + chi3*|E|^2) I + 2*chi3*E E^T],
which is uniformly positive definite whenever chi1, chi3 >= 0.  The inverse
of eps(E)/eps0 is available in closed form (a rank-one Sherman-Morrison
update), so no 3x3 factorizations are ever needed; D(E) too is inverted
in closed form (Cardano).

All functions accept a single 3-vector or an (..., 3) batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MaterialError(Exception):
    """Invalid material parameters."""


@dataclass(frozen=True)
class MaterialParams:
    """Vacuum constants and susceptibilities of a Kerr medium.

    Defaults are nondimensionalized to 1; every parameter must be finite,
    and chi1 and chi3 nonnegative so the permittivity stays positive
    definite for every field strength.
    """

    eps0: float = 1.0
    mu0: float = 1.0
    chi1: float = 0.0
    chi3: float = 0.0

    def __post_init__(self):
        for name in ("eps0", "mu0", "chi1", "chi3"):
            if not math.isfinite(getattr(self, name)):
                raise MaterialError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("eps0", "mu0"):
            if not getattr(self, name) > 0.0:
                raise MaterialError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("chi1", "chi3"):
            if getattr(self, name) < 0.0:
                raise MaterialError(
                    f"{name} must be >= 0 (nonnegative susceptibilities keep the "
                    f"permittivity positive definite), got {getattr(self, name)}"
                )

    @property
    def eps_lin(self) -> float:
        """Linear permittivity eps0*(1 + chi1)."""
        return self.eps0 * (1.0 + self.chi1)


def _norm_sq(E: np.ndarray) -> np.ndarray:
    """|E|^2 per vector, equal bit for bit to np.sum(E * E, axis=-1)."""
    x, y, z = E[..., 0], E[..., 1], E[..., 2]
    return x * x + y * y + z * z


def eps_scalar(p: MaterialParams, E) -> np.ndarray:
    """Scalar permittivity factor 1 + chi1 + chi3*|E|^2 (shape (...,))."""
    E = np.asarray(E, dtype=np.float64)
    return 1.0 + p.chi1 + p.chi3 * _norm_sq(E)


def cm_matrix(p: MaterialParams, E) -> np.ndarray:
    """Closed-form inverse of eps(E)/eps0, shape (..., 3, 3).

    C_m(E) = (1/es)[I - 2 chi3 E E^T / (1 + chi1 + 3 chi3 |E|^2)] with
    es = 1 + chi1 + chi3 |E|^2; satisfies C_m(E) (eps(E)/eps0) = I and the
    denominators never drop below 1 for admissible parameters.
    """
    E = np.asarray(E, dtype=np.float64)
    es = eps_scalar(p, E)
    denom = 1.0 + p.chi1 + 3.0 * p.chi3 * _norm_sq(E)
    outer = E[..., :, None] * E[..., None, :]
    scale = (2.0 * p.chi3 / denom)[..., None, None]
    return (np.eye(3) - scale * outer) / es[..., None, None]


def d_of_e(p: MaterialParams, E) -> np.ndarray:
    """Electric flux D = eps0*(1 + chi1 + chi3|E|^2)*E (parallel to E); a
    linear medium just multiplies by eps_lin."""
    E = np.asarray(E, dtype=np.float64)
    if p.chi3 == 0.0:
        return p.eps_lin * E
    return p.eps0 * eps_scalar(p, E)[..., None] * E


def field_magnitude_from_flux(p: MaterialParams, r) -> np.ndarray:
    """Solve a s^3 + b s = r for s >= 0, elementwise, with a = eps0*chi3 > 0
    and b = eps0*(1+chi1) (:func:`e_of_d` handles chi3 = 0).

    The cubic is strictly increasing, so its one real root has the
    hyperbolic Cardano form s = 2k sinh(asinh(r / (2 a k^3)) / 3) with
    k = sqrt(b / 3a) (Nickalls, Math. Gazette 77, 1993): s = 2k sinh(t)
    turns the cubic into sinh(3t) = r / (2 a k^3).  One Newton step polishes
    its roundoff, with s^3 formed as s (a s^2) so that it cannot overflow.
    Each step works in place on s and two work arrays, and rounds as the
    plain expressions of these formulas do.
    """
    r = np.asarray(r, dtype=np.float64)
    a = p.eps0 * p.chi3
    b = p.eps_lin
    k = np.sqrt(b / (3.0 * a))
    s = np.divide(r, 2.0 * a * k**3, out=np.empty_like(r))
    np.arcsinh(s, out=s)
    s /= 3.0
    np.sinh(s, out=s)
    s *= 2.0 * k
    as2 = a * s
    as2 *= s
    newton = as2 + b
    newton *= s
    newton -= r
    as2 *= 3.0
    as2 += b
    newton /= as2
    s -= newton
    return s[()]  # a scalar for a scalar r, as the plain expressions give


_TINY = np.finfo(np.float64).tiny  # smallest normal float64


def _flux_magnitude(D: np.ndarray) -> np.ndarray:
    """|D| per vector.  Where the squared norm underflows (|D| below about
    1e-154) that vector is first divided by its largest component; every
    other vector takes the plain square root of its squared norm."""
    r2 = np.einsum("...i,...i->...", D, D)
    r = np.sqrt(r2)
    if r2.size and r2.min() < _TINY:
        small = r2 < _TINY
        r = np.array(r)
        tiny_d = D[small]
        top = np.abs(tiny_d).max(axis=-1, keepdims=True)
        unit = np.divide(tiny_d, top, out=np.zeros_like(tiny_d), where=top > 0.0)
        r[small] = top[:, 0] * np.sqrt(np.einsum("...i,...i->...", unit, unit))
    return r


def e_of_d(p: MaterialParams, D) -> np.ndarray:
    """Exact inverse of :func:`d_of_e`: the unique E with D(E) = D.

    |E| solves a monotone scalar cubic in |D|, and E keeps D's direction
    (D = 0 maps to E = 0 exactly); a linear medium just divides by eps_lin.
    """
    D = np.asarray(D, dtype=np.float64)
    if p.chi3 == 0.0:
        return D / p.eps_lin
    r = _flux_magnitude(D)
    s = field_magnitude_from_flux(p, r)
    scale = np.divide(s, r, out=np.zeros_like(r), where=r > 0.0)
    return scale[..., None] * D
