import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import jittered_cube
from kerrfem.assembly import assemble_nonlinear_mass_curl, build_forms
from kerrfem.linalg import (
    CgBreakdownError,
    CgNonConvergenceError,
    LinalgError,
    cg_solve,
    cg_solver,
    factorized,
    from_triplets,
    solve_saddle,
)
from kerrfem.material import MaterialParams
from kerrfem.mesh import build_topology, make_mesh, mesh_size


def dense_random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def test_from_triplets_duplicates_summed():
    A = from_triplets([0, 0], [0, 0], [1.0, 2.0], shape=(2, 2))
    assert A.toarray()[0, 0] == 3.0
    assert A.nnz == 1


def test_from_triplets_empty():
    A = from_triplets([], [], [], shape=(3, 4))
    assert A.shape == (3, 4)
    assert np.all(A.toarray() == 0.0)


def test_from_triplets_out_of_range():
    with pytest.raises(LinalgError):
        from_triplets([3], [0], [1.0], shape=(2, 2))
    with pytest.raises(LinalgError):
        from_triplets([0], [5], [1.0], shape=(2, 2))


def test_from_triplets_matches_dense_accumulation():
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 20, size=300)
    cols = rng.integers(0, 15, size=300)
    vals = rng.normal(size=300)
    dense = np.zeros((20, 15))
    for r, c, v in zip(rows, cols, vals):
        dense[r, c] += v
    A = from_triplets(rows, cols, vals, shape=(20, 15))
    assert np.abs(A.toarray() - dense).max() < 1e-13


def test_matvec_matches_dense_oracle():
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 100, size=2000)
    cols = rng.integers(0, 100, size=2000)
    vals = rng.normal(size=2000)
    A = from_triplets(rows, cols, vals, shape=(100, 100))
    x = rng.normal(size=100)
    rel = np.linalg.norm(A @ x - A.toarray() @ x) / np.linalg.norm(x)
    assert rel < 1e-13


def test_cg_identity():
    A = from_triplets(range(4), range(4), np.ones(4), shape=(4, 4))
    b = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(cg_solve(A, b, 1e-12), b)


def test_cg_2x2_hand_solve():
    A = from_triplets([0, 0, 1, 1], [0, 1, 0, 1], [2.0, 1.0, 1.0, 2.0], shape=(2, 2))
    x = cg_solve(A, np.array([1.0, 1.0]), 1e-13)
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_cg_random_spd_matches_dense():
    rng = np.random.default_rng(2)
    D = dense_random_spd(rng, 50)
    rows, cols = np.nonzero(D)
    A = from_triplets(rows, cols, D[rows, cols], shape=(50, 50))
    b = rng.normal(size=50)
    x = cg_solve(A, b, 1e-12)
    assert np.linalg.norm(x - np.linalg.solve(D, b)) < 1e-8
    # residual contract
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_cg_zero_rhs():
    A = from_triplets([0, 1], [0, 1], [2.0, 3.0], shape=(2, 2))
    assert np.all(cg_solve(A, np.zeros(2), 1e-10) == 0.0)


def test_cg_breakdown_on_indefinite():
    A = from_triplets([0, 1], [0, 1], [1.0, -1.0], shape=(2, 2))
    with pytest.raises(CgBreakdownError):
        cg_solve(A, np.array([0.0, 1.0]), 1e-10)


def test_cg_nonconvergence_signal():
    # condition number 1e12 with a geometric spectrum that the Jacobi
    # preconditioner does not touch: the 10 n iteration cap runs out
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    D = (Q * np.logspace(0.0, 12.0, 30)) @ Q.T
    D = 0.5 * (D + D.T)
    rows, cols = np.nonzero(D)
    A = from_triplets(rows, cols, D[rows, cols], shape=(30, 30))
    with pytest.raises(CgNonConvergenceError):
        cg_solve(A, rng.normal(size=30), 1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cg_signals_tolerance_below_roundoff(seed):
    # the recursively updated residual falls below 1e-20 of ||b||, while the
    # true residual stalls at roundoff (~5e-16): that is no convergence
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(30, 30))
    D = M @ M.T + 30.0 * np.eye(30)
    rows, cols = np.nonzero(D)
    A = from_triplets(rows, cols, D[rows, cols], shape=(30, 30))
    with pytest.raises(CgNonConvergenceError, match="true residual"):
        cg_solve(A, rng.normal(size=30), 1e-20)


@pytest.mark.parametrize("bad,kind", [(np.nan, "it is NaN$"), (np.inf, "it is infinite"),
                                      (-np.inf, "it is infinite")], ids=["nan", "inf", "-inf"])
def test_cg_rejects_non_finite_right_hand_side(bad, kind):
    # the error names a NaN and an infinity apart
    A = from_triplets(range(4), range(4), np.full(4, 2.0), shape=(4, 4))
    b = np.array([1.0, bad, 3.0, 0.5])
    with pytest.raises(LinalgError, match=r"non-finite \|\|b\|\|: " + kind):
        cg_solve(A, b, 1e-10)


def test_cg_raises_when_the_curvature_overflows():
    # an SPD matrix scaled by 1e-300 with strong coupling: ||b||^2 and
    # r^T z = 5e307 are finite, yet the Jacobi-scaled direction p, near
    # 2.5e303, gives p^T A p = 7.3 r^T z, which overflows
    n = 8
    D = 0.9 * np.ones((n, n)) + 0.1 * np.eye(n)
    rows, cols = np.nonzero(D)
    A = from_triplets(rows, cols, 1e-300 * D[rows, cols], shape=(n, n))
    b = np.full(n, np.sqrt(5e307 * 1e-300 / n))
    with pytest.raises(LinalgError, match=r"p\^T A p"):
        cg_solve(A, b, 1e-10)


def test_cg_rejects_bad_tolerance():
    A = from_triplets([0], [0], [1.0], shape=(1, 1))
    with pytest.raises(LinalgError):
        cg_solve(A, np.array([1.0]), rel_tol=0.0)


def _random_spd_csr(rng, n):
    D = dense_random_spd(rng, n)
    rows, cols = np.nonzero(D)
    return from_triplets(rows, cols, D[rows, cols], shape=(n, n))


def test_cg_solver_is_bitwise_cg_solve():
    rng = np.random.default_rng(6)
    A = _random_spd_csr(rng, 40)
    solve = cg_solver(A, 1e-9)
    for _ in range(3):
        b = rng.normal(size=40)
        assert np.array_equal(solve(b), cg_solve(A, b, 1e-9))


def test_cg_solver_scales_once_per_solver():
    # the Jacobi scaling is computed when the solver is made, not per solve
    class CountedDiagonal(sp.csr_matrix):
        calls = 0

        def diagonal(self, k=0):
            CountedDiagonal.calls += 1
            return super().diagonal(k)

    rng = np.random.default_rng(7)
    A = CountedDiagonal(_random_spd_csr(rng, 30))
    solve = cg_solver(A, 1e-10)
    for _ in range(4):
        b = rng.normal(size=30)
        assert np.linalg.norm(A @ solve(b) - b) <= 1e-10 * np.linalg.norm(b)
    assert CountedDiagonal.calls == 1


def test_cg_solver_rejects_bad_input_when_made():
    A = from_triplets([0], [0], [1.0], shape=(1, 1))
    for rel_tol in (0.0, 1.0, -1e-3, float("nan")):
        with pytest.raises(LinalgError, match="rel_tol"):
            cg_solver(A, rel_tol)
    with pytest.raises(LinalgError, match="not square"):
        cg_solver(from_triplets([0], [0], [1.0], shape=(2, 3)), 1e-8)


def _saddle_problem(rng, nu=12, nk=3):
    """Random PSD A = C^T C with kernel N (nu x nk) and B = N^T M for an SPD
    M, as sparse matrices, and the dense N."""
    Nd = rng.normal(size=(nu, nk))
    Q, _ = np.linalg.qr(Nd, mode="complete")
    C = rng.normal(size=(nu, nu - nk)) @ Q[:, nk:].T  # rows orthogonal to N
    Md = dense_random_spd(rng, nu)
    return sp.csr_matrix(C.T @ C), sp.csr_matrix(Nd.T @ Md), sp.csr_matrix(Nd), Nd


def test_saddle_matches_dense_block_solve():
    rng = np.random.default_rng(4)
    A, B, N, Nd = _saddle_problem(rng)
    nu, nk = Nd.shape
    f = A @ rng.normal(size=nu)  # in the range of A, so N^T f = 0
    g = rng.normal(size=nk)
    u = solve_saddle(A, B, N, f, g, rel_tol=1e-10)
    K = np.block([[A.toarray(), B.toarray().T], [B.toarray(), np.zeros((nk, nk))]])
    ref = np.linalg.solve(K, np.concatenate([f, g]))
    assert np.abs(ref[nu:]).max() <= 1e-10 * np.abs(ref).max()  # p = 0
    assert np.linalg.norm(u - ref[:nu]) <= 1e-10 * np.linalg.norm(ref[:nu])
    scale = max(np.linalg.norm(f), np.linalg.norm(g))
    assert np.linalg.norm(A @ u - f) <= 1e-10 * scale
    assert np.linalg.norm(B @ u - g) <= 1e-10 * scale


def test_saddle_inconsistent_rhs_raises():
    rng = np.random.default_rng(5)
    A, B, N, Nd = _saddle_problem(rng)
    f = A @ rng.normal(size=Nd.shape[0]) + 1e-6 * Nd[:, 0]
    with pytest.raises(LinalgError, match="inconsistent"):
        solve_saddle(A, B, N, f, np.zeros(Nd.shape[1]))


def test_saddle_singular_system_raises():
    # B N singular: B is zero on the second kernel vector, so the LU of B N
    # fails once g - B z needs a solve with it; a zero g - B z needs none,
    # and the returned u (s = 0) solves both block equations
    A = from_triplets([0], [0], [1.0], shape=(3, 3))
    N = from_triplets([1, 2], [0, 1], [1.0, 1.0], shape=(3, 2))
    B = from_triplets([0], [1], [1.0], shape=(2, 3))
    f = np.array([1.0, 0.0, 0.0])
    with pytest.raises(LinalgError):
        solve_saddle(A, B, N, f, np.array([0.0, 1.0]))
    assert np.array_equal(solve_saddle(A, B, N, f, np.zeros(2)), f)


def test_transpose():
    A = from_triplets([0, 1], [1, 0], [2.0, 3.0], shape=(2, 3))
    assert A.T.shape == (3, 2)
    assert np.allclose(A.T.toarray(), A.toarray().T)


def _jittered_forms(n, params):
    """Forms on a jittered Kuhn cube."""
    mesh = make_mesh(*jittered_cube(n, np.random.default_rng(5)))
    return build_forms(mesh, build_topology(mesh), params)


def test_factorized_solves_time_loop_matrices():
    params = MaterialParams(eps0=1.3, chi1=0.4, chi3=2.0)
    forms = _jittered_forms(3, params)
    dt = 0.3 * mesh_size(forms.ctx.mesh)
    rng = np.random.default_rng(6)
    e = rng.normal(size=forms.dof_u.num_dofs)
    jacobian = assemble_nonlinear_mass_curl(forms, e, dt)
    for A in (forms.reduced_matrix("lee-madsen", dt), forms.reduced_matrix("nedelec", dt),
              forms.mass_v1, jacobian):
        b = rng.normal(size=A.shape[0])
        x = factorized(A)(b)
        assert np.linalg.norm(A @ x - b) <= 1e-13 * np.linalg.norm(b)


def test_factorized_orders_symmetrically_with_less_fill():
    forms = _jittered_forms(4, MaterialParams())
    A = forms.reduced_matrix("lee-madsen", 0.3 * mesh_size(forms.ctx.mesh))
    lu = factorized(A).__self__
    assert np.array_equal(lu.perm_r, lu.perm_c)
    default = spla.splu(A.tocsc())
    assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz


def test_factorized_singular_raises():
    A = from_triplets([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 1.0, 1.0, 1.0], shape=(2, 2))
    with pytest.raises(LinalgError, match="singular"):
        factorized(A)


@pytest.mark.parametrize("condition,singular", [(1e4, False), (1e17, True)])
def test_factorized_probe_flags_numerically_singular(condition, singular):
    # an SPD matrix with eigenvalues from 1 down to 1 / condition factorizes
    # without a zero pivot either way; the probe back-solve tells them apart
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(20, 20)))
    A = (q * np.geomspace(1.0, 1.0 / condition, 20)) @ q.T
    A = sp.csr_matrix(0.5 * (A + A.T))
    if singular:
        with pytest.raises(LinalgError, match="numerically singular"):
            factorized(A)
    else:
        b = np.ones(20)
        assert np.linalg.norm(A @ factorized(A)(b) - b) <= 1e-12 * np.linalg.norm(b)
