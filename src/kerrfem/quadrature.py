"""Gauss quadrature on the reference tetrahedron, triangle, and segment.

Simplex rules are conical products of Gauss-Jacobi lines (Stroud), so a rule
with q points per direction integrates all polynomials of total degree
2q - 1 exactly and has strictly positive weights.  Weights sum to the
reference measure: 1/6 (tet), 1/2 (triangle), 1 (segment on [0, 1]).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


@dataclass(frozen=True)
class QuadratureRule:
    """Points (reference coordinates) and weights."""

    points: np.ndarray   # (nq, dim)
    weights: np.ndarray  # (nq,)


def _gauss_jacobi_01(q: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integral of g(x) (1-x)^alpha over [0, 1]."""
    if alpha == 0:
        t, w = roots_legendre(q)
    else:
        t, w = roots_jacobi(q, alpha, 0.0)
    return (1.0 + t) / 2.0, w / 2.0 ** (alpha + 1)


def _points_per_axis(degree: int) -> int:
    return max(1, (degree + 2) // 2)  # 2q - 1 >= degree


def _conical_rule(dim: int, q: int) -> QuadratureRule:
    """Conical product of q-point Gauss-Jacobi lines on the reference simplex
    of dimension dim: coordinate k carries the weight (1 - x)^k, and each new
    coordinate c scales the earlier ones by 1 - c."""
    pts, wts = _gauss_jacobi_01(q, 0)
    pts = pts[:, None]
    for alpha in range(1, dim):
        c, wc = _gauss_jacobi_01(q, alpha)
        scaled = pts[None] * (1.0 - c)[:, None, None]
        last = np.broadcast_to(c[:, None, None], (q, len(pts), 1))
        pts = np.concatenate([scaled, last], axis=2).reshape(-1, alpha + 1)
        wts = (wts[None] * wc[:, None]).ravel()
    return QuadratureRule(points=pts, weights=wts)


@lru_cache(maxsize=None)
def tetrahedron_rule(degree: int = 5) -> QuadratureRule:
    """Conical product rule on the reference tet {x, y, z >= 0, x+y+z <= 1}."""
    return _conical_rule(3, _points_per_axis(degree))


@lru_cache(maxsize=None)
def triangle_rule(degree: int = 5) -> QuadratureRule:
    """Conical product rule on the reference triangle {u, v >= 0, u+v <= 1}."""
    return _conical_rule(2, _points_per_axis(degree))


@lru_cache(maxsize=None)
def segment_rule(num_points: int = 4) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1]."""
    return _conical_rule(1, num_points)
