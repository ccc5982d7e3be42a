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


@lru_cache(maxsize=None)
def tetrahedron_rule(degree: int = 5) -> QuadratureRule:
    """Conical product rule on the reference tet {x, y, z >= 0, x+y+z <= 1}."""
    q = _points_per_axis(degree)
    x1, w1 = _gauss_jacobi_01(q, 0)
    x2, w2 = _gauss_jacobi_01(q, 1)
    x3, w3 = _gauss_jacobi_01(q, 2)
    pts = []
    wts = []
    for c, wc in zip(x3, w3):
        for b, wb in zip(x2, w2):
            for a, wa in zip(x1, w1):
                pts.append((a * (1.0 - b) * (1.0 - c), b * (1.0 - c), c))
                wts.append(wa * wb * wc)
    return QuadratureRule(points=np.array(pts), weights=np.array(wts))


@lru_cache(maxsize=None)
def triangle_rule(degree: int = 5) -> QuadratureRule:
    """Conical product rule on the reference triangle {u, v >= 0, u+v <= 1}."""
    q = _points_per_axis(degree)
    x1, w1 = _gauss_jacobi_01(q, 0)
    x2, w2 = _gauss_jacobi_01(q, 1)
    pts = []
    wts = []
    for b, wb in zip(x2, w2):
        for a, wa in zip(x1, w1):
            pts.append((a * (1.0 - b), b))
            wts.append(wa * wb)
    return QuadratureRule(points=np.array(pts), weights=np.array(wts))


@lru_cache(maxsize=None)
def segment_rule(num_points: int = 4) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1]."""
    x, w = _gauss_jacobi_01(num_points, 0)
    return QuadratureRule(points=x.reshape(-1, 1), weights=w)
