"""Minimal sparse linear algebra used by assembly and the time steppers.

Matrices are plain scipy.sparse CSR matrices (built by :func:`from_triplets`,
or by assembly straight into a fixed pattern) and factorizations are scipy's
SuperLU; the conjugate gradient loop is written out here because callers
need to distinguish an indefinite operator (breakdown) from a slow one
(non-convergence), which the library solvers do not report.  Everything is
float64.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class LinalgError(Exception):
    pass


class CgBreakdownError(LinalgError):
    """Negative curvature encountered: the operator is not positive definite."""


class CgNonConvergenceError(LinalgError):
    """Iteration cap reached before the residual tolerance."""


class SaddleSolveError(LinalgError):
    """Saddle-point solve failed or left a large residual."""


def from_triplets(rows, cols, values, shape) -> sp.csr_matrix:
    """Canonical CSR matrix (sorted, duplicates summed) from COO triplets."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    nr, nc = shape
    if rows.size and (rows.min() < 0 or rows.max() >= nr):
        raise LinalgError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= nc):
        raise LinalgError("column index out of range")
    return sp.coo_matrix((values, (rows, cols)), shape=shape).tocsr()


def cg_solve(A: sp.spmatrix, b: np.ndarray, rel_tol: float) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    Returns x with ||Ax - b|| <= rel_tol * ||b||, checked on the true
    residual once the recursively updated one meets the tolerance.  Raises
    CgBreakdownError on negative curvature (non-SPD operator),
    CgNonConvergenceError when the iteration cap of 10 n is exhausted or the
    true residual misses a tolerance that the recursive one met (a rel_tol
    below roundoff), and LinalgError at the first non-finite right-hand
    side, inner product or residual.
    """
    if not (0.0 < rel_tol < 1.0):
        raise LinalgError(f"rel_tol must be in (0, 1), got {rel_tol}")
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise LinalgError(f"matrix is not square: {A.shape}")
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        bnorm = _finite(np.linalg.norm(b), "||b||")
        if bnorm == 0.0:
            return np.zeros(n)
        diag = A.diagonal()
        inv_diag = np.where(np.abs(diag) > 0.0, 1.0 / np.where(diag != 0.0, diag, 1.0), 1.0)

        x = np.zeros(n)
        r = b.copy()
        z = inv_diag * r
        p = z.copy()
        rz = _finite(float(r @ z), "r^T z")
        cap = 10 * n
        for _ in range(cap):
            Ap = A @ p
            pAp = _finite(float(p @ Ap), "p^T A p")
            if pAp <= 0.0:
                raise CgBreakdownError(
                    f"negative curvature p^T A p = {pAp:.3e}; matrix not positive definite"
                )
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            rnorm = _finite(np.linalg.norm(r), "residual")
            if rnorm <= rel_tol * bnorm:
                true_res = np.linalg.norm(b - A @ x)
                if true_res <= rel_tol * bnorm:
                    return x
                raise CgNonConvergenceError(
                    f"recursive residual {rnorm / bnorm:.3e} of ||b|| met "
                    f"rel_tol {rel_tol:.1e}, but the true residual is "
                    f"{true_res / bnorm:.3e} of ||b||"
                )
            z = inv_diag * r
            rz_new = _finite(float(r @ z), "r^T z")
            p = z + (rz_new / rz) * p
            rz = rz_new
    raise CgNonConvergenceError(
        f"no convergence in {cap} iterations; residual "
        f"{np.linalg.norm(r) / bnorm:.3e} of ||b||"
    )


def _finite(value: float, name: str) -> float:
    if not np.isfinite(value):
        raise LinalgError(f"conjugate gradients met a non-finite {name}: the values overflowed")
    return value


# SuperLU settings of both factorizations: minimum degree ordering on the
# structure of A + A^T in symmetric mode, which fills far less than the
# default unsymmetric column ordering on these symmetric matrices, and no
# relaxed supernodes (SuperLU's default of up to 10 columns made the nedelec
# matrices 3-4x slower to factorize at the same fill).
_SYMMETRIC_LU = dict(permc_spec="MMD_AT_PLUS_A", relax=1, options={"SymmetricMode": True})


# Largest relative error of the probe back-solve in :func:`factorized`; a
# well-posed time-loop matrix recovers the probe to about 1e-14.
PROBE_TOL = 1e-8


def factorized(A: sp.spmatrix):
    """Cached sparse LU solve function for repeated right-hand sides.

    A must be symmetric positive definite: the columns are ordered by
    minimum degree on the structure of A + A^T and every pivot is taken on
    the diagonal.  One probe back-solve of A x for a fixed x must return x
    to :data:`PROBE_TOL` relative.  Raises LinalgError when the
    factorization fails, e.g. on an exactly singular matrix, or when the
    probe misses, on a numerically singular one.
    """
    try:
        lu = spla.splu(A.tocsc(), diag_pivot_thresh=0.0, **_SYMMETRIC_LU)
    except RuntimeError as exc:
        raise LinalgError(f"sparse LU factorization failed: {exc}") from exc
    x = np.cos(np.arange(A.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        error = np.linalg.norm(lu.solve(A @ x) - x) / max(np.linalg.norm(x), 1.0)
    if not error <= PROBE_TOL:
        raise LinalgError(f"matrix is numerically singular: a probe back-solve is off "
                          f"by {error:.1e} relative")
    return lu.solve


def solve_saddle(A: sp.spmatrix, B: sp.spmatrix, f: np.ndarray, g: np.ndarray,
                 rel_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Solve the saddle system  [A B^T; B 0] [u; p] = [f; g].

    A is symmetric positive semidefinite, B has full row rank after gauge
    fixing.  The full indefinite block matrix is assembled and solved by a
    sparse direct factorization (appropriate at the ~1e5-dof scale this
    package targets), with columns ordered by minimum degree on the
    structure of K + K^T in SuperLU's symmetric mode; pivoting keeps its
    threshold, because the (2,2) block is zero.  Residuals of both block
    equations are verified against rel_tol before returning.
    """
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    nu = A.shape[0]
    if B.shape[1] != nu:
        raise LinalgError(f"B shape {B.shape} incompatible with A {A.shape}")
    K = sp.bmat([[A, B.T], [B, None]], format="csc")
    try:
        lu = spla.splu(K, **_SYMMETRIC_LU)
        sol = lu.solve(np.concatenate([f, g]))
    except RuntimeError as exc:
        raise SaddleSolveError(f"sparse factorization failed: {exc}") from exc
    u, p = sol[:nu], sol[nu:]
    scale = max(np.linalg.norm(f), np.linalg.norm(g), 1e-30)
    res1 = np.linalg.norm(A @ u + B.T @ p - f)
    res2 = np.linalg.norm(B @ u - g)
    if max(res1, res2) > rel_tol * scale:
        raise SaddleSolveError(
            f"saddle residuals ({res1:.3e}, {res2:.3e}) exceed "
            f"{rel_tol:.1e} * {scale:.3e}"
        )
    return u, p
