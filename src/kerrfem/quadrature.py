"""Gauss quadrature on the reference tetrahedron, triangle, and segment.

Triangle and segment rules are conical products of Gauss-Jacobi lines
(Stroud), so a rule with q points per direction integrates all polynomials
of total degree 2q - 1 exactly and has strictly positive weights.  The one
tet rule the library integrates on is a fixed symmetric one,
:func:`symmetric_tetrahedron_rule`: 14 points, exact to degree 5 like the
27-point conical rule, with positive weights.  Weights sum to the reference
measure: 1/6 (tet), 1/2 (triangle), 1 (segment on [0, 1]).
"""

from __future__ import annotations

import itertools
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
def triangle_rule(degree: int = 5) -> QuadratureRule:
    """Conical product rule on the reference triangle {u, v >= 0, u+v <= 1}."""
    return _conical_rule(2, _points_per_axis(degree))


@lru_cache(maxsize=None)
def segment_rule(num_points: int = 4) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1]."""
    return _conical_rule(1, num_points)


# Orbits of the symmetric 14-point degree-5 rule on the reference tet, as
# (barycentric parameter, weight): two 4-point orbits (a, a, a, 1 - 3a) and
# one 6-point orbit (b, b, 1/2 - b, 1/2 - b), solved to 40 digits from the
# moment equations (Jaskowiec and Sukumar, "High-order cubature rules for
# tetrahedra", IJNME 121, 2020, list the same rule).
_VERTEX_ORBITS = ((0.092735250310891226402, 0.012248840519393658257),
                  (0.3108859192633006098, 0.0187813209530026418))
_EDGE_ORBIT = (0.045503704125649649492, 0.007091003462846911073)


@lru_cache(maxsize=None)
def symmetric_tetrahedron_rule() -> QuadratureRule:
    """Symmetric rule on the reference tet, exact to degree 5, with
    positive weights: 14 points where the conical rule of degree 5 has 27."""
    bary, wts = [], []
    for a, w in _VERTEX_ORBITS:
        for k in range(4):
            lam = np.full(4, a)
            lam[k] = 1.0 - 3.0 * a
            bary.append(lam)
            wts.append(w)
    b, w = _EDGE_ORBIT
    for pair in itertools.combinations(range(4), 2):
        lam = np.full(4, 0.5 - b)
        lam[list(pair)] = b
        bary.append(lam)
        wts.append(w)
    return QuadratureRule(points=np.array(bary)[:, 1:], weights=np.array(wts))
