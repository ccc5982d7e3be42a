"""Minimal sparse linear algebra used by assembly and the time steppers.

Matrices are plain scipy.sparse CSR matrices (square ones assembled straight
into the sparsity pattern of their space, see :class:`kerrfem.assembly.Pattern`;
rectangular ones built by :func:`from_triplets`) and factorizations are scipy's
SuperLU, of symmetric positive definite matrices only; the conjugate gradient
loop is written out here because callers need to distinguish an indefinite
operator (breakdown) from a slow one (non-convergence), which the library
solvers do not report.  Both are made once per matrix and return a solve
function of the right-hand side (:func:`factorized`, :func:`cg_solver`), so
a caller may keep either.  The one saddle-point system (the curl projection's)
has a zero multiplier and splits into a singular CG solve and an SPD LU, so
no indefinite matrix is factorized.  Everything is float64.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class LinalgError(Exception):
    pass


class CgBreakdownError(LinalgError):
    """Negative curvature encountered: the operator is not positive definite."""


class CgNonConvergenceError(LinalgError):
    """Iteration cap reached before the residual tolerance."""


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


def cg_solver(A: sp.spmatrix, rel_tol: float):
    """Jacobi-preconditioned conjugate gradients for SPD systems, as a solve
    function ``solve(b)`` for repeated right-hand sides with one A.

    The Jacobi scaling is computed once, here.  Each solve returns x with
    ||Ax - b|| <= rel_tol * ||b||, checked on the true residual once the
    recursively updated one meets the tolerance.  Raises LinalgError here
    for a rel_tol outside (0, 1) or a non-square A; a solve raises
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
    diag = A.diagonal()
    with np.errstate(over="ignore", invalid="ignore"):
        inv_diag = np.where(np.abs(diag) > 0.0, 1.0 / np.where(diag != 0.0, diag, 1.0), 1.0)
    cap = 10 * n

    def solve(b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            bnorm = _finite(math.sqrt(b @ b), "||b||")
            if bnorm == 0.0:
                return np.zeros(n)
            x = np.zeros(n)
            r = b.copy()
            z = inv_diag * r
            p = z.copy()
            step = np.empty(n)  # alpha p, then alpha A p
            rz = _finite(float(r @ z), "r^T z")
            for _ in range(cap):
                Ap = A @ p
                pAp = _finite(float(p @ Ap), "p^T A p")
                if pAp <= 0.0:
                    raise CgBreakdownError(
                        f"negative curvature p^T A p = {pAp:.3e}; matrix not positive definite"
                    )
                alpha = rz / pAp
                x += np.multiply(alpha, p, out=step)
                r -= np.multiply(alpha, Ap, out=step)
                rnorm = _finite(math.sqrt(r @ r), "residual")
                if rnorm <= rel_tol * bnorm:
                    true_res = np.linalg.norm(b - A @ x)
                    if true_res <= rel_tol * bnorm:
                        return x
                    raise CgNonConvergenceError(
                        f"recursive residual {rnorm / bnorm:.3e} of ||b|| met "
                        f"rel_tol {rel_tol:.1e}, but the true residual is "
                        f"{true_res / bnorm:.3e} of ||b||"
                    )
                np.multiply(inv_diag, r, out=z)
                rz_new = _finite(float(r @ z), "r^T z")
                p *= rz_new / rz
                p += z
                rz = rz_new
        raise CgNonConvergenceError(
            f"no convergence in {cap} iterations; residual "
            f"{np.linalg.norm(r) / bnorm:.3e} of ||b||"
        )

    return solve


def cg_solve(A: sp.spmatrix, b: np.ndarray, rel_tol: float) -> np.ndarray:
    """One solve of A x = b by :func:`cg_solver`, with its checks."""
    return cg_solver(A, rel_tol)(b)


def _finite(value: float, name: str) -> float:
    if math.isnan(value):
        raise LinalgError(f"conjugate gradients met a non-finite {name}: it is NaN")
    if math.isinf(value):
        raise LinalgError(f"conjugate gradients met a non-finite {name}: it is infinite "
                          f"(the values hold an infinity or overflowed)")
    return value


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
    # Minimum degree ordering on the structure of A + A^T in symmetric mode
    # fills far less than the default unsymmetric column ordering on these
    # symmetric matrices; relaxed supernodes (SuperLU's default of up to 10
    # columns) made the nedelec matrices 3-4x slower to factorize at the
    # same fill.
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       relax=1, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise LinalgError(f"sparse LU factorization failed: {exc}") from exc
    x = np.cos(np.arange(A.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        error = np.linalg.norm(lu.solve(A @ x) - x) / max(np.linalg.norm(x), 1.0)
    if not error <= PROBE_TOL:
        raise LinalgError(f"matrix is numerically singular: a probe back-solve is off "
                          f"by {error:.1e} relative")
    return lu.solve


# Largest ||N^T f|| / (||N||_F ||f||) that :func:`solve_saddle` accepts as a
# consistent right-hand side (roundoff level).
_CONSISTENCY_TOL = 1e-13


def solve_saddle(A: sp.spmatrix, B: sp.spmatrix, N: sp.spmatrix, f: np.ndarray,
                 g: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Solve the saddle system  [A B^T; B 0] [u; p] = [f; g]  whose multiplier
    p is zero, and return u.

    A is symmetric positive semidefinite, the columns of N span its kernel,
    and B N is symmetric positive definite.  Testing the first block equation
    with N gives (B N)^T p = N^T f, so p = 0 exactly when N^T f = 0; f must
    satisfy that to roundoff, or LinalgError is raised before any iteration.
    Then u = z + N s, where z solves the consistent singular system A z = f
    by Jacobi-preconditioned CG (which converges on a consistent singular
    system, Kaasschieter 1988) and s solves (B N) s = g - B z by
    :func:`factorized`, or is zero without a factorization when g - B z is
    exactly zero (a zero f and g, such as the projection of a zero field).
    Residuals of both block equations are verified
    against rel_tol before returning; every failure raises LinalgError.
    """
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    nu = A.shape[0]
    if B.shape != (N.shape[1], nu) or N.shape[0] != nu:
        raise LinalgError(f"B {B.shape} and N {N.shape} incompatible with A {A.shape}")
    f_norm = np.linalg.norm(f)
    kernel_load = np.linalg.norm(N.T @ f)
    if kernel_load > _CONSISTENCY_TOL * spla.norm(N) * f_norm:
        raise LinalgError(f"inconsistent right-hand side: ||N^T f|| = {kernel_load:.3e} "
                          f"for ||f|| = {f_norm:.3e}, so the multiplier is not zero")
    # CG takes 1% of the residual budget; A N s, zero in exact arithmetic,
    # leaves roundoff in the rest
    z = cg_solve(A, f, 0.01 * rel_tol)
    gz = g - B @ z
    u = z + N @ factorized(B @ N)(gz) if gz.any() else z
    scale = max(f_norm, np.linalg.norm(g), 1e-30)
    res1 = np.linalg.norm(A @ u - f)
    res2 = np.linalg.norm(B @ u - g)
    if max(res1, res2) > rel_tol * scale:
        raise LinalgError(
            f"saddle residuals ({res1:.3e}, {res2:.3e}) exceed "
            f"{rel_tol:.1e} * {scale:.3e}"
        )
    return u
