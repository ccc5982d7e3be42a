import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies

from conftest import energy_density, eps_matrix, jittered_cube
from kerrfem import dynamics, linalg
from kerrfem.assembly import (
    assemble_flux_load,
    assemble_nonlinear_curl_curl,
    assemble_source,
    build_forms,
    curl_project,
    l2_project,
)
from kerrfem.dynamics import (
    NonlinearSolveError,
    Sources,
    State,
    ZERO_SOURCES,
    discrete_divergence,
    energy_law_residual,
    e_max_norm,
    initialize,
    integrate,
    rhs,
    source_norm_sq,
    stability_bound_check,
    step_rk4,
    total_energy,
)
from kerrfem.fem_spaces import interpolate_edge_dofs
from kerrfem.material import MaterialParams, d_of_e, e_of_d
from kerrfem.mesh import build_topology, generate_structured_cube, make_mesh, mesh_size
from kerrfem.verification import cavity_mode_case, kerr_manufactured_case


@pytest.fixture(scope="module")
def cavity():
    return cavity_mode_case()


@pytest.fixture(scope="module")
def cube4():
    mesh = generate_structured_cube(4)
    return mesh, build_topology(mesh)


@pytest.fixture(scope="module")
def cav_forms2(cube2, cavity):
    mesh, topo = cube2
    return build_forms(mesh, topo, cavity.params)


def one_step(state, dt, sources, forms):
    """The state after one midpoint step."""
    return integrate(state, dt, 1, sources, forms, collect=False)[0]


def count_sweeps(monkeypatch) -> list:
    """The list to which each later midpoint step appends its sweep count."""
    sweeps = []
    sweep_exit = dynamics._sweep_exit

    def counted(delta, tol, iteration):
        if iteration == 0:
            sweeps.append(0)
        sweeps[-1] += 1
        return sweep_exit(delta, tol, iteration)

    monkeypatch.setattr(dynamics, "_sweep_exit", counted)
    return sweeps


def record_matrices(monkeypatch, name: str = "factorized") -> list:
    """The list to which each later call of the solver maker ``linalg.<name>``
    (:func:`linalg.factorized` or :func:`linalg.cg_solver`) appends its
    matrix."""
    matrices = []
    original = getattr(linalg, name)

    def recorded(A, *args):
        matrices.append(A)
        return original(A, *args)

    monkeypatch.setattr(linalg, name, recorded)
    return matrices


def sampled_source_norm_sq(forms, case, t):
    """Oracle of :func:`source_norm_sq`: the weighted squared norms of the
    case's current closures, sampled at the quadrature points at time t."""
    ctx, params = forms.ctx, forms.params
    total = 0.0
    for j, weight in ((case.j_e, params.eps_lin), (case.j_m, params.mu0)):
        total += ctx.norm_sq(ctx.sample(lambda X: j(t, X))) / weight
    return total


def cavity_state(case, forms, formulation="lee-madsen"):
    return initialize(
        lambda X: case.E(0.0, X),
        lambda X: case.H(0.0, X),
        formulation,
        forms,
        H0_curl=lambda X: case.curl_H(0.0, X),
    )


def test_initialize_zero_fields(cav_forms2):
    zero = lambda X: np.zeros_like(np.atleast_2d(X))
    for formulation in ("lee-madsen", "nedelec"):
        st = initialize(zero, zero, formulation, cav_forms2)
        assert np.all(st.e == 0.0)
        assert np.all(st.h == 0.0)
        assert st.t == 0.0


def test_initialize_requires_curl_for_nonzero_h(cav_forms2):
    zero = lambda X: np.zeros_like(np.atleast_2d(X))
    one = lambda X: np.ones_like(np.atleast_2d(X))
    with pytest.raises(ValueError, match="H0_curl"):
        initialize(zero, one, "lee-madsen", cav_forms2)


def test_initialize_zero_h_builds_no_factorization(cav_forms2, cavity, monkeypatch):
    # the curl-matching projection of an H0 that is identically zero is
    # exactly zero and solves nothing with the P1 Laplacian; a nonzero H0
    # still factorizes it once
    factorized_matrices = record_matrices(monkeypatch)
    st = cavity_state(cavity, cav_forms2)
    assert factorized_matrices == []
    assert st.h.shape == (cav_forms2.dof_u.num_dofs,) and np.all(st.h == 0.0)
    H0 = lambda X: np.stack([X[:, 1] * X[:, 2], np.sin(X[:, 0]), X[:, 0] ** 2], axis=1)
    curl_H0 = lambda X: np.stack([np.zeros(len(X)), X[:, 1] - 2.0 * X[:, 0],
                                  np.cos(X[:, 0]) - X[:, 2]], axis=1)
    st = initialize(lambda X: cavity.E(0.0, X), H0, "lee-madsen", cav_forms2,
                    H0_curl=curl_H0)
    assert len(factorized_matrices) == 1
    assert np.array_equal(st.h, curl_project(cav_forms2, H0, curl_H0))
    assert np.linalg.norm(st.h) > 0.0


def test_initialize_projection_errors_shrink(cavity):
    errs = []
    for n in (2, 4):
        mesh = generate_structured_cube(n)
        forms = build_forms(mesh, build_topology(mesh), cavity.params)
        st = cavity_state(cavity, forms)
        ctx = forms.ctx
        d = ctx.field(forms.dof_w, st.e) - ctx.sample(lambda X: cavity.E(0.0, X))
        errs.append(np.sqrt(ctx.norm_sq(d)))
    assert errs[1] < 0.65 * errs[0]  # ~first-order decay


def test_rhs_equilibrium(cav_forms2):
    for formulation in ("lee-madsen", "nedelec"):
        nd = (
            cav_forms2.dof_w.num_dofs
            if formulation == "lee-madsen"
            else cav_forms2.dof_u.num_dofs
        )
        nh = (
            cav_forms2.dof_u.num_dofs
            if formulation == "lee-madsen"
            else cav_forms2.dof_v.num_dofs
        )
        st = State(formulation, np.zeros(nd), np.zeros(nh), 0.0)
        de, dh = rhs(st, ZERO_SOURCES, cav_forms2)
        assert np.all(de == 0.0)
        assert np.all(dh == 0.0)


def test_rhs_matches_cavity_mode_derivatives(cavity):
    # discrete time derivatives converge to the analytic mode derivatives
    errs = []
    t0 = 0.3
    for n in (2, 4):
        mesh = generate_structured_cube(n)
        forms = build_forms(mesh, build_topology(mesh), cavity.params)
        ctx = forms.ctx
        e = l2_project(ctx, lambda X: cavity.E(t0, X))
        h = interpolate_edge_dofs(lambda X: cavity.H(t0, X), mesh, ctx.topo)
        de, dh = rhs(State("lee-madsen", e, h, t0), ZERO_SOURCES, forms)
        d = ctx.field(forms.dof_w, de) - ctx.sample(lambda X: cavity.dt_E(t0, X))
        errs.append(np.sqrt(ctx.norm_sq(d)))
        _ = dh
    assert errs[1] < 0.7 * errs[0]


def test_rhs_energy_pairing_linear(cube2, cav_forms2, cavity):
    # e' |K| eps(e) de + mu0 h' M_U dh = -(j_e . e) - (j_m . h), in the linear
    # medium and in a Kerr one, with the currents manufactured for that medium;
    # the Kerr case checks rhs's closed-form block inverse of |K| eps(E_K)
    kerr_forms = build_forms(*cube2, MaterialParams(eps0=1.3, chi1=0.2, chi3=0.7))
    for forms in (cav_forms2, kerr_forms):
        st = cavity_state(cavity, forms)
        kerr = kerr_manufactured_case(forms.params, t_final=1.0)
        st = State("lee-madsen", st.e, st.h, 0.4)
        de, dh = rhs(st, kerr.sources, forms)
        je = assemble_source(forms.ctx, lambda X: kerr.j_e(st.t, X), forms.dof_w)
        jm = assemble_source(forms.ctx, lambda X: kerr.j_m(st.t, X), forms.dof_u)
        blocks = forms.ctx.vol[:, None, None] * eps_matrix(forms.params,
                                                           st.e.reshape(-1, 3))
        meps_de = np.einsum("tij,tj->ti", blocks, de.reshape(-1, 3)).ravel()
        lhs = st.e @ meps_de + forms.params.mu0 * (st.h @ (forms.mass_u1 @ dh))
        rhs_val = -(je @ st.e) - (jm @ st.h)
        assert lhs == pytest.approx(rhs_val, rel=1e-11, abs=1e-11)


def test_midpoint_consistency_richardson(cav_forms2, cavity):
    st = cavity_state(cavity, cav_forms2)
    de, dh = rhs(st, ZERO_SOURCES, cav_forms2)
    errs = []
    for dt in (0.02, 0.01):
        new = one_step(st, dt, ZERO_SOURCES, cav_forms2)
        euler_e = st.e + dt * de
        euler_h = st.h + dt * dh
        errs.append(
            np.linalg.norm(new.e - euler_e) + np.linalg.norm(new.h - euler_h)
        )
    assert 3.0 < errs[0] / errs[1] < 5.0  # midpoint - euler = O(dt^2)


def test_midpoint_conserves_linear_energy(cav_forms2, cavity):
    st = cavity_state(cavity, cav_forms2)
    _, trace = integrate(st, 1e-3, 1000, ZERO_SOURCES, cav_forms2)
    w = np.asarray(trace.energy)
    assert np.abs(w - w[0]).max() / w[0] <= 1e-10


@pytest.mark.parametrize("dt", [-0.01, 0.0, float("nan")])
def test_integrate_rejects_bad_dt(cav_forms2, cavity, dt):
    st = cavity_state(cavity, cav_forms2)
    for stepper in ("midpoint", "rk4"):
        with pytest.raises(ValueError, match="dt must be > 0"):
            integrate(st, dt, 3, ZERO_SOURCES, cav_forms2, stepper=stepper)
    with pytest.raises(ValueError, match="num_steps must be >= 0"):
        integrate(st, 0.01, -3, ZERO_SOURCES, cav_forms2)


def test_integrate_stops_at_non_finite_state(cav_forms2, cavity):
    # nedelec RK4 far above its stability limit overflows without a CG solve
    st = cavity_state(cavity, cav_forms2, formulation="nedelec")
    with pytest.raises(FloatingPointError, match=r"non-finite.*reduce dt$"):
        integrate(st, 0.5, 800, ZERO_SOURCES, cav_forms2, stepper="rk4")


def test_midpoint_signals_nonconvergence(cavity, cube2, monkeypatch):
    # a step of twice the unit cube's light-crossing time in a strongly Kerr
    # medium: even with its Jacobian refreshed, the lee-madsen chord does not
    # converge within the cap
    mesh, topo = cube2
    forms = build_forms(mesh, topo, MaterialParams(chi3=100.0))
    st = cavity_state(cavity, forms)
    with pytest.raises(NonlinearSolveError, match="reduce dt"):
        one_step(st, 2.0, ZERO_SOURCES, forms)
    # one Newton sweep of a nedelec Kerr step is not yet converged
    monkeypatch.setattr(dynamics, "MAX_SWEEPS", 1)
    st = cavity_state(cavity, forms, formulation="nedelec")
    with pytest.raises(NonlinearSolveError, match="after 1 sweeps; reduce dt"):
        one_step(st, 0.05, ZERO_SOURCES, forms)


def start_jacobian(forms, state, dt):
    """The Kerr Jacobian of a midpoint step of ``dt`` from ``state``,
    without sources, at the step's constant start iterate: E0 (nedelec) or
    E(H0) (lee-madsen)."""
    if state.formulation == "nedelec":
        return dynamics.assemble_nonlinear_mass_curl(forms, state.e, dt)
    params = forms.params
    d_start = (d_of_e(params, state.e.reshape(-1, 3))
               + (dt / forms.ctx.vol[:, None]) * (forms.coupling_lm @ state.h).reshape(-1, 3))
    return assemble_nonlinear_curl_curl(forms, e_of_d(params, d_start).ravel(), dt)


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_kerr_chord_carries_across_steps_at_one_dt(cube2, cavity, formulation, monkeypatch):
    # a step starts from the lagged Jacobian the step before left on its
    # march, so 5 steps at one dt hand fewer than 5 Jacobians to the solver
    # maker (PCG in lee-madsen, LU in nedelec).  A later call is a new
    # march: at the same dt, and at a new one, its first step makes the
    # chord afresh, at its start state
    forms = build_forms(*cube2, MaterialParams(chi3=1.0))
    solver_maker = "cg_solver" if formulation == "lee-madsen" else "factorized"
    jacobians = record_matrices(monkeypatch, solver_maker)
    st = cavity_state(cavity, forms, formulation=formulation)
    mid, _ = integrate(st, 0.01, 5, ZERO_SOURCES, forms, collect=False)
    assert 1 <= len(jacobians) < 5
    for dt in (0.01, 0.02):
        jacobians.clear()
        integrate(mid, dt, 1, ZERO_SOURCES, forms, collect=False)
        assert jacobians
        assert (jacobians[0] != start_jacobian(forms, mid, dt)).nnz == 0


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_kerr_marches_on_one_forms_at_one_dt_are_bitwise_equal(cube2, cavity, formulation):
    # the lagged Jacobian lives on the march, not on forms: once the first
    # march has made forms' caches, the second writes no attribute of forms
    # and starts from nothing that the first left behind
    forms = build_forms(*cube2, MaterialParams(chi3=1.0))
    st = cavity_state(cavity, forms, formulation=formulation)
    first, _ = integrate(st, 0.05, 5, ZERO_SOURCES, forms, collect=False)
    cached = dict(vars(forms))
    second, _ = integrate(st, 0.05, 5, ZERO_SOURCES, forms, collect=False)
    assert vars(forms).keys() == cached.keys()
    assert all(vars(forms)[name] is value for name, value in cached.items())
    assert np.array_equal(first.e, second.e)
    assert np.array_equal(first.h, second.h)


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_kerr_sweeps_stop_at_the_first_update_within_tolerance(cube2, cavity, formulation,
                                                               monkeypatch):
    # the per-sweep relative updates of each Kerr step: every one but the
    # last is above the tolerance, so the sweeps stop at the first within it
    mesh, topo = cube2
    forms = build_forms(mesh, topo, MaterialParams(chi3=1.0))
    updates = []
    original = dynamics._sweep_exit

    def recorded(delta, *args):
        updates[-1].append(delta)
        return original(delta, *args)

    monkeypatch.setattr(dynamics, "_sweep_exit", recorded)
    st = cavity_state(cavity, forms, formulation=formulation)
    updates.append([])
    integrate(st, 0.05, 4, ZERO_SOURCES, forms, collect=False,
              on_step=lambda step, state: updates.append([]))
    steps = updates[:-1]
    assert len(steps) == 4
    for sweeps in steps:
        assert len(sweeps) >= 2
        assert all(delta > dynamics.SOLVER_TOL for delta in sweeps[:-1])
        assert sweeps[-1] <= dynamics.SOLVER_TOL


@pytest.mark.parametrize("dt_over_h", [0.5, 1.0, 2.0, 5.0])
def test_nedelec_kerr_converges_at_large_dt(cavity, dt_over_h, monkeypatch):
    # the README's measured limit: nedelec Kerr midpoint steps converge up to
    # dt = 5 h, which needs the Jacobian refreshed when the sweeps slow down;
    # with the refresh no step takes more than 9 sweeps here, without it the
    # worst step takes 24-47
    sweeps = count_sweeps(monkeypatch)
    mesh = generate_structured_cube(4)
    forms = build_forms(mesh, build_topology(mesh), MaterialParams(chi3=1.0))
    st = cavity_state(cavity, forms, formulation="nedelec")
    end, _ = integrate(st, dt_over_h * mesh_size(mesh), 3, ZERO_SOURCES, forms,
                       collect=False)
    assert np.isfinite(end.e).all() and np.isfinite(end.h).all()
    assert len(sweeps) == 3 and max(sweeps) <= 12, sweeps


def test_lee_madsen_kerr_converges_at_dt_h(cube4, cavity):
    # lee-madsen Kerr sweeps, which form each H residual with E(H1), take
    # three cavity steps at dt = h on n = 4
    mesh, topo = cube4
    forms = build_forms(mesh, topo, MaterialParams(chi3=1.0))
    st = cavity_state(cavity, forms)
    end, _ = integrate(st, mesh_size(mesh), 3, ZERO_SOURCES, forms, collect=False)
    assert np.isfinite(end.e).all() and np.isfinite(end.h).all()


@pytest.mark.parametrize("n, dt_over_h", [pytest.param(4, 2.0, id="4"),
                                          pytest.param(8, 2.0, id="8"),
                                          pytest.param(8, 5.0, id="8-5h")])
def test_lee_madsen_kerr_converges_at_large_dt(cavity, n, dt_over_h):
    # the README's measured limits: the lee-madsen chord, whose Kerr Jacobian
    # is refreshed when the sweeps slow down, takes three cavity steps at
    # dt = 2 h, and at 5 h on n = 8; sweeps with the linear reduced matrix
    # stall by 1.1 h (n = 4) and 1.4 h (n = 8)
    mesh = generate_structured_cube(n)
    forms = build_forms(mesh, build_topology(mesh), MaterialParams(chi3=1.0))
    st = cavity_state(cavity, forms)
    end, _ = integrate(st, dt_over_h * mesh_size(mesh), 3, ZERO_SOURCES, forms,
                       collect=False)
    assert np.isfinite(end.e).all() and np.isfinite(end.h).all()


def test_lee_madsen_kerr_stalls_at_five_h_on_n4(cube4, cavity):
    # the README's measured limit on the coarse mesh: a step of dt = 5 h =
    # 2.17, longer than twice the light-crossing time, stalls
    mesh, topo = cube4
    forms = build_forms(mesh, topo, MaterialParams(chi3=1.0))
    st = cavity_state(cavity, forms)
    with pytest.raises(NonlinearSolveError, match="reduce dt$"):
        integrate(st, 5.0 * mesh_size(mesh), 3, ZERO_SOURCES, forms, collect=False)


def test_lee_madsen_kerr_chord_takes_few_sweeps(cube4, cavity, monkeypatch):
    # 8 cavity steps at dt = h/4 average 7.0 sweeps with the Kerr Jacobian;
    # with the linear reduced matrix they averaged 17.4
    sweeps = count_sweeps(monkeypatch)
    mesh, topo = cube4
    forms = build_forms(mesh, topo, MaterialParams(chi3=1.0))
    st = cavity_state(cavity, forms)
    integrate(st, 0.25 * mesh_size(mesh), 8, ZERO_SOURCES, forms, collect=False)
    assert len(sweeps) == 8 and np.mean(sweeps) <= 8.0, sweeps


def difference_table(samples):
    """The backward-difference table of the samples, oldest first."""
    table = []
    for x in samples:
        table = dynamics._push_differences(table, x)
    return table


def test_difference_table_holds_the_backward_differences():
    # row j is the j-th backward difference at the newest sample, and the
    # table keeps the rows up to the cap's miss, EXTRAPOLATION_ORDER + 1
    rng = np.random.default_rng(7)
    samples = [rng.normal(size=6) for _ in range(20)]
    table = difference_table(samples)
    assert len(table) == dynamics.EXTRAPOLATION_ORDER + 2
    x = np.array(samples)
    for j, row in enumerate(table):
        assert np.allclose(row, np.diff(x, n=j, axis=0)[-1], rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("degree", range(dynamics.EXTRAPOLATION_ORDER + 1))
def test_start_order_is_the_degree_of_polynomial_samples(degree):
    # samples of p(t) = C(t, degree) times an integer vector: the j-th
    # backward difference at t is C(t - j, degree - j), exact in floating
    # point and shrinking with j up to the degree, beyond which it is zero.
    # So the rule picks the degree, the start of that order is exact, and
    # its zero miss keeps it over the least-squares fit.
    def sample(t):
        return math.comb(t, degree) * np.array([1.0, -2.0, 3.0, 4.0, 5.0])

    num = dynamics.LSQ_WINDOW + 2
    march = dynamics._KerrMarch()
    for t in range(num):
        start = march(sample(t))
    assert dynamics._start_order(march.table)[0] == degree
    if degree == 0:
        assert start is None  # the constant start, exact for a constant
    else:
        assert np.array_equal(start, sample(num))


def test_start_order_is_zero_on_growing_differences():
    # alternating samples double their differences with each order, so
    # every extrapolation missed by more than the constant start
    v = np.array([1.0, 2.0, 3.0])
    march = dynamics._KerrMarch()
    starts = [march((-1) ** t * v) for t in range(8)]
    assert dynamics._start_order(march.table)[0] == 0
    assert starts[-1] is None


def test_least_squares_weights_reproduce_polynomials_of_their_degree():
    # the fit reproduces every polynomial of degree <= LSQ_DEGREE on its
    # window, so its weights sum to 1, here to a few ulps once rounded; it
    # multiplies the noise of the samples by sum |w| = 1643, less than the
    # 2^13 - 1 = 8191 of the order-12 extrapolation
    w = dynamics._LSQ_WEIGHTS
    assert w.shape == (dynamics.LSQ_WINDOW,)
    assert abs(math.fsum(w) - 1.0) <= 4 * np.finfo(float).eps
    assert np.abs(w).sum() < 2.0**13 - 1
    t = np.arange(dynamics.LSQ_WINDOW + 1) / dynamics.LSQ_WINDOW
    rng = np.random.default_rng(5)
    for degree in range(dynamics.LSQ_DEGREE + 1):
        shifted = np.polynomial.polynomial.polyval(t - 0.3, rng.normal(size=degree + 1))
        for p in (t**degree, shifted):
            assert abs(w @ p[:-1] - p[-1]) <= 1e-12 * np.abs(p).max()


def test_least_squares_start_is_taken_where_it_missed_by_less():
    # samples of C(t, LSQ_DEGREE): no extrapolation up to the order cap is
    # exact, and the fit is, to roundoff.  The fit needs LSQ_WINDOW samples
    # and its miss one step back, so it starts the step after the
    # LSQ_WINDOW + 1st sample, and every later one
    def sample(t):
        return math.comb(t, dynamics.LSQ_DEGREE) * np.array([1.0, -2.0, 3.0])

    march = dynamics._KerrMarch()
    for t in range(dynamics.LSQ_WINDOW):
        start = march(sample(t))
        assert start is None or start is not march.fit
    for t in range(dynamics.LSQ_WINDOW, dynamics.LSQ_WINDOW + 8):
        start = march(sample(t))
        assert start is march.fit
        assert np.allclose(start, sample(t + 1), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("formulation, field", [("lee-madsen", "h"), ("nedelec", "e")])
def test_kerr_march_tabulates_only_its_iterated_unknown(cube2, formulation, field,
                                                        monkeypatch):
    # lee-madsen iterates on H, nedelec on E: both are edge vectors, so
    # every value the march pushes has one entry per edge, the iterated
    # field of the state each step starts from
    forms = build_forms(*cube2, MaterialParams(chi3=1.0))
    pushed = []
    push = dynamics._push_differences

    def recording_push(table, x):
        pushed.append(x)
        return push(table, x)

    monkeypatch.setattr(dynamics, "_push_differences", recording_push)
    states = []
    case = kerr_manufactured_case(forms.params, t_final=1.0)
    st = initialize(lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), formulation, forms,
                    H0_curl=lambda X: case.curl_H(0.0, X))
    integrate(st, 0.05, 4, case.sources, forms, collect=False,
              on_step=lambda step, new: states.append(new))
    assert len(pushed) == 4
    for x, state in zip(pushed, [st] + states[:-1]):
        assert x.shape == (forms.dof_u.num_dofs,)
        assert np.array_equal(x, getattr(state, field))


def kerr_manufactured_march(forms, formulation, num_steps, state=None, dt=0.05):
    """The state after ``num_steps`` midpoint steps of ``dt`` of the
    Kerr-manufactured case on ``forms``, from ``state`` or from its initial
    data."""
    case = kerr_manufactured_case(forms.params, t_final=1.0)
    if state is None:
        state = initialize(lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), formulation,
                           forms, H0_curl=lambda X: case.curl_H(0.0, X))
    return integrate(state, dt, num_steps, case.sources, forms, collect=False)[0]


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_kerr_march_agrees_with_its_constant_start_march(cube2, formulation, monkeypatch):
    # the start changes the sweep count, never the answer: 30 steps take
    # extrapolated and least-squares starts, and with every step started
    # from the current state both marches converge each step to the sweep
    # tolerance
    forms = build_forms(*cube2, MaterialParams(chi3=1.0))
    sweeps = count_sweeps(monkeypatch)
    fits = []
    predict = dynamics._KerrMarch.__call__

    def recorded(self, x):
        start = predict(self, x)
        fits.append(start is not None and start is self.fit)
        return start

    monkeypatch.setattr(dynamics._KerrMarch, "__call__", recorded)
    extrapolated = kerr_manufactured_march(forms, formulation, 30, dt=0.02)
    extrapolated_sweeps = sum(sweeps)
    assert len(fits) == 30 and any(fits)
    monkeypatch.setattr(dynamics._KerrMarch, "__call__", lambda self, x: None)
    constant = kerr_manufactured_march(forms, formulation, 30, dt=0.02)
    assert extrapolated_sweeps < sum(sweeps) - extrapolated_sweeps
    for a, b in ((extrapolated.e, constant.e), (extrapolated.h, constant.h)):
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_kerr_march_split_in_two_calls_agrees_with_one(cube2, formulation):
    # each call extrapolates its step starts from its own states only and
    # lags its own Jacobian, so a second call restarts from the constant
    # start and a fresh Jacobian; both marches converge
    # each step to the sweep tolerance, and so agree to about that
    forms = build_forms(*cube2, MaterialParams(chi3=1.0))
    whole = kerr_manufactured_march(forms, formulation, 12)
    half = kerr_manufactured_march(forms, formulation, 7)
    split = kerr_manufactured_march(forms, formulation, 5, half)
    for a, b in ((split.e, whole.e), (split.h, whole.h)):
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)


def study_level_sweeps(cube, formulation, monkeypatch):
    """Steps and sweeps per step of the level of the Kerr EOC study (dt =
    0.08 h^2) on ``cube``."""
    sweeps = count_sweeps(monkeypatch)
    params = MaterialParams(chi3=1.0)
    case = kerr_manufactured_case(params)
    mesh, topo = cube
    forms = build_forms(mesh, topo, params)
    st = initialize(lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), formulation, forms,
                    H0_curl=lambda X: case.curl_H(0.0, X))
    num_steps = math.ceil(case.t_final / (0.08 * mesh_size(mesh) ** 2))
    integrate(st, case.t_final / num_steps, num_steps, case.sources, forms, collect=False)
    assert len(sweeps) == num_steps
    return num_steps, np.mean(sweeps)


def test_lee_madsen_kerr_study_steps_take_few_sweeps(cube4, monkeypatch):
    # the extrapolated starts take 3.12 sweeps per step, the constant start 5.09
    steps, sweeps = study_level_sweeps(cube4, "lee-madsen", monkeypatch)
    assert steps == 67 and sweeps <= 3.5


def test_lee_madsen_kerr_study_fine_level_takes_few_sweeps(monkeypatch):
    # at n = 8 the extrapolations' misses sit at the noise of the accepted
    # states, and the least-squares start misses by less: 1.13 sweeps per
    # step, where the backward-difference start alone took 1.44
    mesh = generate_structured_cube(8)
    steps, sweeps = study_level_sweeps((mesh, build_topology(mesh)), "lee-madsen",
                                       monkeypatch)
    assert steps == 267 and sweeps <= 1.25


def test_nedelec_kerr_study_steps_take_few_sweeps(cube4, monkeypatch):
    # the extrapolated starts take 4.57 sweeps per step, the constant start 6.6
    steps, sweeps = study_level_sweeps(cube4, "nedelec", monkeypatch)
    assert steps == 67 and sweeps <= 5.0


@pytest.mark.parametrize("dt_over_h", [2.0, 5.0])
def test_nedelec_kerr_large_steps_keep_the_constant_start(cube4, cavity, dt_over_h,
                                                         monkeypatch):
    # along large cavity steps the fields are far from polynomial, so their
    # backward differences grow with the order: the order rule keeps their
    # constant start, 6.125 and 6.25 sweeps per step, where an unguarded
    # order-3 extrapolation took 16.5 and 10.75
    sweeps = count_sweeps(monkeypatch)
    mesh, topo = cube4
    forms = build_forms(mesh, topo, MaterialParams(chi3=1.0))
    st = cavity_state(cavity, forms, formulation="nedelec")
    integrate(st, dt_over_h * mesh_size(mesh), 8, ZERO_SOURCES, forms, collect=False)
    assert len(sweeps) == 8 and np.mean(sweeps) <= 6.75, sweeps


def test_only_the_nedelec_kerr_march_factorizes(cube2, cavity, monkeypatch):
    # the lee-madsen Kerr chord solves by PCG, so its march builds no LU;
    # the nedelec chord keeps its LU
    forms = build_forms(*cube2, MaterialParams(chi3=1.0))
    factorized_matrices = record_matrices(monkeypatch)
    factorizations = {}
    for formulation in ("lee-madsen", "nedelec"):
        st = cavity_state(cavity, forms, formulation=formulation)
        factorized_matrices.clear()
        integrate(st, 0.01, 5, ZERO_SOURCES, forms)
        factorizations[formulation] = len(factorized_matrices)
    assert factorizations["lee-madsen"] == 0 and factorizations["nedelec"] >= 1


def test_lee_madsen_chord_nonconvergence_names_the_step(cube2, cavity, monkeypatch):
    # a chord PCG solve that runs out of iterations fails the step, which
    # integrate reports with its number, time and dt
    forms = build_forms(*cube2, MaterialParams(chi3=1.0))
    st = cavity_state(cavity, forms)

    def failing_solver(A, rel_tol):
        def solve(b):
            raise linalg.CgNonConvergenceError("no convergence in 10 iterations")
        return solve

    monkeypatch.setattr(linalg, "cg_solver", failing_solver)
    with pytest.raises(linalg.LinalgError,
                       match=r"^step 1 \(t = 0\.01, dt = 0\.01\): no convergence .*; reduce dt$"):
        integrate(st, 0.01, 3, ZERO_SOURCES, forms, collect=False)


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_midpoint_linear_step_takes_one_sweep(cube2, cavity, formulation, monkeypatch):
    # a linear step is affine and its first sweep solves it exactly, so each
    # step makes one back-solve with the reduced matrix, ends at one
    # _sweep_exit and measures no update
    def no_norms(*args):
        raise AssertionError("a linear step measured its update")

    monkeypatch.setattr(dynamics, "_relative_update", no_norms)
    sweeps = count_sweeps(monkeypatch)
    solves = []
    factorized = linalg.factorized

    def counted(A):
        solve = factorized(A)

        def counted_solve(b):
            solves.append(b)
            return solve(b)

        return counted_solve

    monkeypatch.setattr(linalg, "factorized", counted)
    mesh, topo = cube2
    forms = build_forms(mesh, topo, cavity.params)
    st = cavity_state(cavity, forms, formulation=formulation)
    solves.clear()
    integrate(st, 0.01, 5, ZERO_SOURCES, forms, collect=False)
    assert len(solves) == 5
    assert sweeps == [1] * 5


def test_midpoint_linear_nedelec_step_makes_one_flux_load(cav_forms2, cavity, monkeypatch):
    # a linear step's one sweep starts from E0, whose flux load the step
    # already holds, so each step assembles one flux load
    loads = []
    original = dynamics.assemble_flux_load

    def counted(*args):
        loads.append(args)
        return original(*args)

    monkeypatch.setattr(dynamics, "assemble_flux_load", counted)
    st = cavity_state(cavity, cav_forms2, formulation="nedelec")
    integrate(st, 0.01, 5, ZERO_SOURCES, cav_forms2, collect=False)
    assert len(loads) == 5


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_midpoint_linear_step_from_a_nan_names_the_step(cav_forms2, cavity, formulation):
    # the one linear sweep measures no update, so integrate's check of the
    # new state reports the NaN
    st = cavity_state(cavity, cav_forms2, formulation=formulation)
    st.e[cav_forms2.free_edges[0] if formulation == "nedelec" else 0] = np.nan
    with pytest.raises(FloatingPointError,
                       match=r"^step 1 \(t = 0\.01, dt = 0\.01\) left a non-finite state; "
                             r"reduce dt$"):
        integrate(st, 0.01, 3, ZERO_SOURCES, cav_forms2)


@pytest.mark.parametrize("chi3", [0.0, 1.0])
@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_midpoint_amplitude_symmetry(cube4, cavity, formulation, chi3):
    # E -> a E with chi3 -> chi3 / a^2 maps a solution to a times itself; the
    # sweeps measure each field's update relative to that field, so the end
    # states scale with a down to tiny amplitudes
    mesh, topo = cube4
    dt = 0.3 * mesh_size(mesh)
    forms = build_forms(mesh, topo, MaterialParams(chi3=chi3))
    st = cavity_state(cavity, forms, formulation=formulation)
    ref, _ = integrate(st, dt, 5, ZERO_SOURCES, forms, collect=False)
    for a in (1e-4, 1e-8):
        scaled = build_forms(mesh, topo, MaterialParams(chi3=chi3 / a**2))
        start = State(formulation, a * st.e, a * st.h, 0.0)
        end, _ = integrate(start, dt, 5, ZERO_SOURCES, scaled, collect=False)
        for got, want in ((end.e, ref.e), (end.h, ref.h)):
            assert np.linalg.norm(got / a - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_midpoint_linear_large_dt_conserves_energy(cavity, formulation):
    # SI-scale linear medium on a jittered mesh at dt = 5 h / c: the one sweep
    # of each step solves it exactly, so the energy is constant to roundoff
    mesh = make_mesh(*jittered_cube(3, np.random.default_rng(7)))
    params = MaterialParams(eps0=8.854e-12, mu0=1.2566e-6, chi1=2.5)
    forms = build_forms(mesh, build_topology(mesh), params)
    z = np.sqrt(params.eps_lin / params.mu0)  # balances the E and H energies
    st = initialize(lambda X: cavity.E(0.0, X), lambda X: z * cavity.H(0.0, X),
                    formulation, forms, H0_curl=lambda X: z * cavity.curl_H(0.0, X))
    dt = 5.0 * mesh_size(mesh) * np.sqrt(params.eps_lin * params.mu0)
    _, trace = integrate(st, dt, 20, ZERO_SOURCES, forms)
    w = np.asarray(trace.energy)
    assert np.abs(w - w[0]).max() <= 1e-12 * w[0]


def test_numerically_singular_time_loop_matrix_raises(cavity):
    # the SI-scale case above at dt = 6 h in seconds (dt c / h ~ 1e9): the
    # nedelec reduced matrix is numerically singular, and its factorization
    # fails its probe back-solve instead of marching a wrong state
    mesh = make_mesh(*jittered_cube(3, np.random.default_rng(7)))
    params = MaterialParams(eps0=8.854e-12, mu0=1.2566e-6, chi1=2.5)
    forms = build_forms(mesh, build_topology(mesh), params)
    z = np.sqrt(params.eps_lin / params.mu0)
    st = initialize(lambda X: cavity.E(0.0, X), lambda X: z * cavity.H(0.0, X),
                    "nedelec", forms, H0_curl=lambda X: z * cavity.curl_H(0.0, X))
    with pytest.raises(linalg.LinalgError, match=r"^step 1 .*numerically singular.*reduce dt$"):
        integrate(st, 6.0 * mesh_size(mesh), 20, ZERO_SOURCES, forms)


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_midpoint_step_solves_flux_form_equations(cube2, formulation):
    # the returned end-of-step fields satisfy the flux-form midpoint rule
    mesh, topo = cube2
    params = MaterialParams(chi3=1.0)
    case = kerr_manufactured_case(params, t_final=1.0)
    forms = build_forms(mesh, topo, params)
    ctx = forms.ctx
    st = initialize(
        lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), formulation, forms,
        H0_curl=lambda X: case.curl_H(0.0, X),
    )
    st = State(formulation, st.e, st.h, 0.3)
    dt = 0.1
    new = one_step(st, dt, case.sources, forms)
    em, hm = 0.5 * (st.e + new.e), 0.5 * (st.h + new.h)
    tm = st.t + 0.5 * dt
    if formulation == "lee-madsen":
        je = assemble_source(ctx, lambda X: case.j_e(tm, X), forms.dof_w)
        jm = assemble_source(ctx, lambda X: case.j_m(tm, X), forms.dof_u)
        C = forms.coupling_lm
        vol_d = ctx.vol[:, None] * (d_of_e(params, new.e.reshape(-1, 3))
                                    - d_of_e(params, st.e.reshape(-1, 3)))
        electric = (vol_d.ravel(), dt * (C @ hm - je))
        magnetic = (params.mu0 * (forms.mass_u1 @ (new.h - st.h)),
                    -dt * (C.T @ em + jm))
    else:
        free = forms.free_edges
        je = assemble_source(ctx, lambda X: case.j_e(tm, X), forms.dof_u)
        jm = assemble_source(ctx, lambda X: case.j_m(tm, X), forms.dof_v)
        flux = [assemble_flux_load(ctx, params, e)[free] for e in (st.e, new.e)]
        electric = (flux[1] - flux[0], dt * (forms.coupling_ned_t @ hm - je[free]))
        magnetic = (params.mu0 * (forms.mass_v1 @ (new.h - st.h)),
                    -dt * (forms.mass_v1 @ (forms.discrete_curl @ em) + jm))
        assert np.all(new.e[topo.boundary_edges] == 0.0)
    for lhs, rhs_val in (electric, magnetic):
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs_val))
        assert np.linalg.norm(lhs - rhs_val) <= 1e-10 * scale


def test_temporal_order_two(cube2):
    mesh, topo = cube2
    params = MaterialParams(chi3=1.0)
    case = kerr_manufactured_case(params, t_final=0.4)
    forms = build_forms(mesh, topo, params)
    st0 = initialize(
        lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), "lee-madsen", forms,
        H0_curl=lambda X: case.curl_H(0.0, X),
    )
    sols = {}
    for nsteps in (20, 40, 80):
        s, _ = integrate(
            st0, 0.4 / nsteps, nsteps, case.sources, forms, collect=False
        )
        sols[nsteps] = np.concatenate([s.e, s.h])
    e1 = np.linalg.norm(sols[20] - sols[80])
    e2 = np.linalg.norm(sols[40] - sols[80])
    order = np.log2(e1 / e2)
    assert 1.7 <= order <= 2.6  # Richardson-biased second order


def test_rk4_zero_fixed_point(cav_forms2):
    st = State(
        "lee-madsen",
        np.zeros(cav_forms2.dof_w.num_dofs),
        np.zeros(cav_forms2.dof_u.num_dofs),
        0.0,
    )
    new = step_rk4(st, 0.01, ZERO_SOURCES, cav_forms2)
    assert np.all(new.e == 0.0)
    assert np.all(new.h == 0.0)


def test_rk4_agrees_with_midpoint(cav_forms2, cavity):
    st = cavity_state(cavity, cav_forms2)
    dt = 0.01
    a, _ = integrate(st, dt, 20, ZERO_SOURCES, cav_forms2, stepper="midpoint")
    b, _ = integrate(st, dt, 20, ZERO_SOURCES, cav_forms2, stepper="rk4")
    diff = np.linalg.norm(a.e - b.e) + np.linalg.norm(a.h - b.h)
    scale = np.linalg.norm(a.e) + np.linalg.norm(a.h)
    assert diff <= 10.0 * dt**2 * scale


def test_rk4_linear_nedelec_assembles_no_nonlinear_mass(cav_forms2, cavity, monkeypatch):
    calls = []
    original = dynamics.assemble_nonlinear_mass_curl

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "assemble_nonlinear_mass_curl", counted)
    st = cavity_state(cavity, cav_forms2, formulation="nedelec")
    for _ in range(2):
        st = step_rk4(st, 0.01, ZERO_SOURCES, cav_forms2)
    assert len(calls) == 0


def test_rk4_lee_madsen_uses_no_cg(cav_forms2, cavity, monkeypatch):
    # both stage masses of lee-madsen RK4 are solved by cached factorizations
    # (the initial curl projection, which does run CG, is outside the count)
    kerr = kerr_manufactured_case(MaterialParams(chi3=1.0))
    forms = build_forms(cav_forms2.ctx.mesh, cav_forms2.ctx.topo, kerr.params)
    st = cavity_state(cavity, forms)
    calls = []
    original = linalg.cg_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "cg_solve", counted)
    step_rk4(st, 0.01, kerr.sources, forms)
    assert len(calls) == 0


def test_rk4_polynomial_time_exactness(reference_tet_mesh):
    # On a single tet every edge is constrained, so the nedelec electric
    # field is frozen at zero and the magnetic equation reduces to
    # h' = -(1/mu0) MV1^{-1} j_m(t): a purely time-dependent ODE that RK4
    # (Simpson in t) integrates exactly for polynomial integrands of
    # degree <= 3.
    topo = build_topology(reference_tet_mesh)
    params = MaterialParams(mu0=2.0)
    forms = build_forms(reference_tet_mesh, topo, params)
    assert len(forms.free_edges) == 0
    import scipy.sparse.linalg as spla

    g = np.array([1.0, 2.0, -1.0])
    p = np.polynomial.Polynomial([0.0, 1.0, -2.0, 0.5, 0.25])  # degree 4 in t
    dp = p.deriv()  # degree 3

    def g_field(X):
        return np.broadcast_to(g, np.atleast_2d(X).shape)

    g_load = assemble_source(forms.ctx, g_field, forms.dof_v)
    shape = spla.splu(forms.mass_v1.tocsc()).solve(g_load)
    st = State(
        "nedelec", np.zeros(forms.dof_u.num_dofs), np.zeros(forms.dof_v.num_dofs), 0.0
    )
    sources = Sources(j_m_terms=((lambda t: float(dp(t)), g_field),))
    T = 0.8
    final = st
    for _ in range(4):
        final = step_rk4(final, T / 4, sources, forms)
    expect = -(float(p(T)) - float(p(0.0))) / params.mu0 * shape
    assert np.abs(final.h - expect).max() < 1e-11
    assert np.abs(final.e).max() == 0.0


def test_total_energy_examples(cav_forms2):
    st = State(
        "lee-madsen",
        np.zeros(cav_forms2.dof_w.num_dofs),
        np.zeros(cav_forms2.dof_u.num_dofs),
        0.0,
    )
    assert total_energy(st, cav_forms2) == 0.0


def test_total_energy_single_tet_volume_one():
    a = 6.0 ** (1.0 / 3.0)  # tet volume a^3/6 = 1
    verts = np.array([[0.0, 0, 0], [a, 0, 0], [0, a, 0], [0, 0, a]])
    mesh = make_mesh(verts, np.array([[0, 1, 2, 3]]))
    topo = build_topology(mesh)
    params = MaterialParams(eps0=1.0, mu0=1.0, chi1=1.0, chi3=2.0)
    forms = build_forms(mesh, topo, params)
    e = np.array([1.0, 0.0, 0.0])
    h = interpolate_edge_dofs(
        lambda X: np.broadcast_to([0.0, 1.0, 0.0], np.atleast_2d(X).shape), mesh, topo
    )
    st = State("lee-madsen", e, h, 0.0)
    assert total_energy(st, forms) == pytest.approx(3.0, abs=1e-12)


def test_total_energy_linear_limit(cav_forms2, cavity):
    st = cavity_state(cavity, cav_forms2)
    w = total_energy(st, cav_forms2)
    blocks = cav_forms2.ctx.vol[:, None, None] * eps_matrix(cav_forms2.params,
                                                             st.e.reshape(-1, 3))
    mu0 = cav_forms2.params.mu0
    meps_e = np.einsum("tij,tj->ti", blocks, st.e.reshape(-1, 3)).ravel()
    quad = 0.5 * (st.e @ meps_e + mu0 * (st.h @ (cav_forms2.mass_u1 @ st.h)))
    assert w == pytest.approx(quad, rel=1e-13)


def test_total_energy_matches_density_quadrature(cube2):
    # total_energy equals the quadrature of the pointwise energy density
    # (the oracle pins 0.5 (2 + 1.5 * 2 + 1) = 3 at |E| = |H| = 1)
    mesh, topo = cube2
    params = MaterialParams(eps0=1.3, mu0=0.8, chi1=0.3, chi3=0.7)
    assert energy_density(MaterialParams(chi1=1.0, chi3=2.0),
                          np.array([1.0, 0, 0]), np.array([0.0, 1, 0])) == pytest.approx(3.0)
    forms = build_forms(mesh, topo, params)
    ctx = forms.ctx
    rng = np.random.default_rng(12)
    for formulation in ("lee-madsen", "nedelec"):
        dof_e, dof_h = ctx.spaces(formulation)
        e = rng.normal(size=dof_e.num_dofs)
        h = rng.normal(size=dof_h.num_dofs)
        density = energy_density(params, ctx.field(dof_e, e), ctx.field(dof_h, h))
        w = total_energy(State(formulation, e, h, 0.0), forms)
        assert w == pytest.approx(ctx.integrate(density), rel=1e-13)


def test_energy_law_residual_source_free(cav_forms2, cavity):
    st = cavity_state(cavity, cav_forms2)
    _, trace = integrate(st, 2e-3, 250, ZERO_SOURCES, cav_forms2)
    r = energy_law_residual(trace)
    assert np.abs(r).max() <= 1e-9 * trace.energy[0]


def test_energy_law_residual_quadratic_decay_kerr(cube2, cavity):
    mesh, topo = cube2
    params = MaterialParams(chi3=1.0)
    forms = build_forms(mesh, topo, params)
    st = cavity_state(cavity, forms)
    res = {}
    for dt in (4e-3, 2e-3):
        _, trace = integrate(st, dt, round(0.5 / dt), ZERO_SOURCES, forms)
        res[dt] = np.abs(energy_law_residual(trace)).max()
    assert 3.0 <= res[4e-3] / res[2e-3] <= 5.0


def test_energy_law_residual_forced_quadratic_decay(cube2):
    mesh, topo = cube2
    params = MaterialParams(chi3=0.5)
    case = kerr_manufactured_case(params, t_final=0.4)
    forms = build_forms(mesh, topo, params)
    st = initialize(
        lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), "lee-madsen", forms,
        H0_curl=lambda X: case.curl_H(0.0, X),
    )
    res = {}
    for dt in (8e-3, 4e-3):
        _, trace = integrate(st, dt, round(0.4 / dt), case.sources, forms)
        res[dt] = np.abs(energy_law_residual(trace)).max()
    assert 3.0 <= res[8e-3] / res[4e-3] <= 5.0


def test_stability_bound_source_free_ratio_half(cav_forms2, cavity):
    st = cavity_state(cavity, cav_forms2)
    _, trace = integrate(st, 5e-3, 100, ZERO_SOURCES, cav_forms2)
    ratios, violated = stability_bound_check(trace)
    assert not violated
    assert ratios[0] == pytest.approx(0.5, abs=1e-12)
    assert np.all(ratios <= 0.5 + 1e-9)


def test_stability_bound_zero_initial_forced(cube2):
    mesh, topo = cube2
    params = MaterialParams(chi3=1.0)
    case = kerr_manufactured_case(params, t_final=0.5)
    forms = build_forms(mesh, topo, params)
    zero = lambda X: np.zeros_like(np.atleast_2d(X))
    st = initialize(zero, zero, "lee-madsen", forms)
    sources = Sources(j_e_terms=case.j_e_terms)  # electric forcing only
    _, trace = integrate(st, 5e-3, 100, sources, forms)
    ratios, violated = stability_bound_check(trace)
    assert not violated
    assert trace.energy[-1] > 0.0  # the forcing injected energy


def test_source_norm_scaling(cav_forms2):
    params = MaterialParams(chi3=1.0)
    case = kerr_manufactured_case(params, t_final=1.0)
    double = Sources(j_e_terms=tuple((lambda t, a=a: 2.0 * a(t), g)
                                     for a, g in case.j_e_terms))
    single = Sources(j_e_terms=case.j_e_terms)
    a = source_norm_sq(cav_forms2, single, 0.3)
    b = source_norm_sq(cav_forms2, double, 0.3)
    assert b == pytest.approx(4.0 * a, rel=1e-12)


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_source_norm_matches_sampled_closures(cube2, formulation):
    # the cached-Gram monitor equals the norm of the sampled closures
    mesh, topo = cube2
    params = MaterialParams(eps0=1.2, mu0=0.8, chi1=0.3, chi3=1.0)
    case = kerr_manufactured_case(params)
    forms = build_forms(mesh, topo, params)
    for t in (0.0, 0.3, 1.1, 2.5):
        ref = sampled_source_norm_sq(forms, case, t)
        assert source_norm_sq(forms, case.sources, t) == pytest.approx(ref, rel=1e-13)


def test_divergence_free_preservation_nedelec(cube2, cavity):
    mesh, topo = cube2
    forms = build_forms(mesh, topo, cavity.params)
    st = cavity_state(cavity, forms, formulation="nedelec")
    assert np.abs(discrete_divergence(st, forms)).max() == 0.0
    final, trace = integrate(st, 0.01, 100, ZERO_SOURCES, forms)
    assert np.abs(discrete_divergence(final, forms)).max() <= 1e-12
    w = np.asarray(trace.energy)
    assert np.abs(w - w[0]).max() / w[0] <= 1e-10  # linear midpoint conserves


def test_divergence_monitor_wrong_formulation(cav_forms2, cavity):
    st = cavity_state(cavity, cav_forms2)
    with pytest.raises(ValueError):
        discrete_divergence(st, cav_forms2)


def test_nedelec_kerr_midpoint_step(cube1):
    # nonlinear flux-form Newton path: one step runs and is second order
    mesh, topo = cube1
    params = MaterialParams(chi3=1.0)
    case = kerr_manufactured_case(params, t_final=0.2)
    forms = build_forms(mesh, topo, params)
    st = initialize(
        lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), "nedelec", forms
    )
    de, dh = rhs(st, case.sources, forms)
    errs = []
    for dt in (0.02, 0.01):
        new = one_step(st, dt, case.sources, forms)
        errs.append(
            np.linalg.norm(new.e - (st.e + dt * de))
            + np.linalg.norm(new.h - (st.h + dt * dh))
        )
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_e_max_norm(cav_forms2, cavity):
    st = cavity_state(cavity, cav_forms2)
    m = e_max_norm(st, cav_forms2)
    assert 0.5 < m <= 1.01  # |E| of the mode is at most 1


def test_e_max_norm_nedelec_peaks_at_a_vertex(cube4, cavity):
    # the interpolated mode peaks at a tet vertex, above every interior
    # quadrature point, and above 1 (its interpolation error)
    mesh, topo = cube4
    forms = build_forms(mesh, topo, cavity.params)
    st = cavity_state(cavity, forms, formulation="nedelec")
    m = e_max_norm(st, forms)
    assert m == pytest.approx(1.0082965, rel=1e-6)
    E = forms.ctx.field(forms.dof_u, st.e)
    assert np.sqrt(np.einsum("tqd,tqd->tq", E, E).max()) < m


@pytest.fixture(scope="module")
def kerr_forms2(cube2):
    mesh, topo = cube2
    return build_forms(mesh, topo, MaterialParams(eps0=1.3, mu0=0.8, chi1=0.3, chi3=0.7))


@given(kerr=strategies.booleans(), seed=strategies.integers(0, 2**32 - 1),
       scale=strategies.one_of(strategies.just(0.0),
                               strategies.floats(-300.0, 150.0).map(lambda x: 10.0**x)),
       zeros=strategies.floats(0.0, 1.0))
def test_lee_madsen_monitors_are_their_plain_formulas_bit_for_bit(cav_forms2, kerr_forms2,
                                                                  kerr, seed, scale, zeros):
    # e_max_norm and total_energy sum |E|^2 component by component; they
    # equal the norm and np.sum expressions bit for bit, from zero fields to
    # |E| near 1e150 (the Kerr term |E|^4 then overflows in both)
    forms = kerr_forms2 if kerr else cav_forms2
    ctx, params = forms.ctx, forms.params
    rng = np.random.default_rng(seed)
    e = scale * rng.normal(size=3 * ctx.num_tets) * (rng.random(3 * ctx.num_tets) >= zeros)
    h = rng.normal(size=forms.dof_u.num_dofs)
    state = State("lee-madsen", e, h, 0.0)
    E = e.reshape(ctx.num_tets, 3)
    with np.errstate(over="ignore"):
        e2 = np.sum(E * E, axis=1)
        we = np.sum(ctx.vol * (0.5 * params.eps_lin * e2
                               + 0.75 * params.eps0 * params.chi3 * e2 * e2))
        energy = float(we + 0.5 * params.mu0 * float(h @ (forms.mass_u1 @ h)))
        assert np.float64(total_energy(state, forms)).tobytes() == np.float64(energy).tobytes()
    linf = float(np.max(np.linalg.norm(E, axis=1)))
    assert np.float64(e_max_norm(state, forms)).tobytes() == np.float64(linf).tobytes()


def test_trace_times_strictly_increasing(cav_forms2, cavity):
    st = cavity_state(cavity, cav_forms2)
    _, trace = integrate(st, 0.01, 10, ZERO_SOURCES, cav_forms2)
    t = np.asarray(trace.times)
    assert np.all(np.diff(t) > 0)
    assert np.all(np.asarray(trace.energy) >= 0.0)


def test_integrate_on_step_once_per_step(cav_forms2, cavity):
    st = cavity_state(cavity, cav_forms2)
    seen = []
    final, trace = integrate(st, 0.01, 5, ZERO_SOURCES, cav_forms2,
                             on_step=lambda step, state: seen.append((step, state)))
    assert [step for step, _ in seen] == [1, 2, 3, 4, 5]
    times = [state.t for _, state in seen]
    assert np.all(np.diff([st.t] + times) > 0)
    assert times == trace.times[1:]
    assert seen[-1][1] is final


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_separable_loads_match_closure_loads(cube2, formulation):
    mesh, topo = cube2
    case = kerr_manufactured_case(MaterialParams(chi1=0.3, chi3=1.0))
    forms = build_forms(mesh, topo, case.params)
    spaces = ((forms.dof_w, forms.dof_u) if formulation == "lee-madsen"
              else (forms.dof_u, forms.dof_v))
    for t in (0.0, 0.3, 1.7):
        loads = dynamics._loads(forms, formulation, case.sources, t)
        for load, j, dof in zip(loads, (case.j_e, case.j_m), spaces):
            ref = assemble_source(forms.ctx, lambda X: j(t, X), dof)
            assert np.abs(load - ref).max() <= 1e-13 * np.abs(ref).max()


def test_separable_sources_assemble_once_per_mesh(cube2, monkeypatch):
    # 20 forced Kerr midpoint steps: one load per term (two of j_e, one of
    # j_m), instead of a j_e and a j_m load in every step
    mesh, topo = cube2
    case = kerr_manufactured_case(MaterialParams(chi3=1.0))
    forms = build_forms(mesh, topo, case.params)
    st = initialize(lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), "lee-madsen",
                    forms, H0_curl=lambda X: case.curl_H(0.0, X))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble_source(*args, **kwargs)

    monkeypatch.setattr(dynamics, "assemble_source", counted)
    integrate(st, 0.01, 20, case.sources, forms)
    assert len(calls) == 3



def test_forced_run_samples_each_factor_once_per_space_and_gram(cube2):
    # 20 forced Kerr steps per formulation with every monitor collected: each
    # g_k is sampled for its load in each space it is tested against and once
    # for the Gram matrix of the source-norm monitor, never per step; the
    # closures, built from the same counted factors, are never called
    mesh, topo = cube2
    case = kerr_manufactured_case(MaterialParams(chi1=0.3, chi3=1.0))
    forms = build_forms(mesh, topo, case.params)
    calls = {}

    def counted(terms):
        def wrap(k, g):
            def g_counted(X):
                calls[k] = calls.get(k, 0) + 1
                return g(X)
            return g_counted
        return tuple((a, wrap(id(g), g)) for a, g in terms)

    def closure(terms):
        return lambda t, X: sum(a(t) * g(X) for a, g in terms)

    j_e_terms, j_m_terms = counted(case.j_e_terms), counted(case.j_m_terms)
    case = dataclasses.replace(case, j_e_terms=j_e_terms, j_m_terms=j_m_terms,
                               j_e=closure(j_e_terms), j_m=closure(j_m_terms))
    for spaces, formulation in enumerate(("lee-madsen", "nedelec"), start=1):
        st = initialize(lambda X: case.E(0.0, X), lambda X: case.H(0.0, X),
                        formulation, forms, H0_curl=lambda X: case.curl_H(0.0, X))
        _, trace = integrate(st, 0.01, 20, case.sources, forms)
        assert len(trace.source_sq) == 21
        assert sorted(calls.values()) == [spaces + 1] * 3


def manufactured_state(case, forms, formulation):
    return initialize(lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), formulation, forms,
                      H0_curl=lambda X: case.curl_H(0.0, X))


@pytest.mark.parametrize("stepper", ["midpoint", "rk4"])
@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_source_free_march_forms_no_loads(cube2, formulation, stepper, monkeypatch):
    # a source-free march, with every monitor collected, forms no load
    # vector; a sourced midpoint step forms its loads once, read by the
    # sweeps and the power column, and a sourced RK4 step once per distinct
    # stage time (t, t + dt/2 and t + dt), its midpoint loads read by stages
    # 2 and 3 and the power column, with or without monitors
    case = kerr_manufactured_case(MaterialParams(chi3=1.0))
    forms = build_forms(*cube2, case.params)
    calls = []
    loads = dynamics._loads

    def counted(*args):
        calls.append(args)
        return loads(*args)

    monkeypatch.setattr(dynamics, "_loads", counted)
    st = manufactured_state(case, forms, formulation)
    integrate(st, 0.01, 4, ZERO_SOURCES, forms, stepper=stepper)
    assert calls == []
    per_step = {"midpoint": 1, "rk4": 3}[stepper]
    for collect in (True, False):
        calls.clear()
        integrate(st, 0.01, 4, case.sources, forms, stepper=stepper, collect=collect)
        times = [args[-1] for args in calls]
        assert len(times) == 4 * per_step
        assert all(len(set(times[i:i + per_step])) == per_step
                   for i in range(0, len(times), per_step))


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_sourced_rk4_march_is_bitwise_the_four_rhs_stages(cube2, formulation):
    # integrate's RK4 step shares one set of loads between the stages at
    # t + dt/2 and the power column; its states and trace are bitwise those
    # of the four stages of rhs, each of which forms its own loads
    case = kerr_manufactured_case(MaterialParams(chi3=1.0))
    forms = build_forms(*cube2, case.params)
    st = manufactured_state(case, forms, formulation)
    dt, steps = 0.01, 4
    end, trace = integrate(st, dt, steps, case.sources, forms, stepper="rk4")
    ref, ref_trace = st, dynamics.EnergyTrace()
    ref_trace.sample(ref, forms, case.sources)
    for _ in range(steps):
        e, h, t = ref.e, ref.h, ref.t

        def f(e, h, t):
            return rhs(State(formulation, e, h, t), case.sources, forms)

        k1 = f(e, h, t)
        k2 = f(e + 0.5 * dt * k1[0], h + 0.5 * dt * k1[1], t + 0.5 * dt)
        k3 = f(e + 0.5 * dt * k2[0], h + 0.5 * dt * k2[1], t + 0.5 * dt)
        k4 = f(e + dt * k3[0], h + dt * k3[1], t + dt)
        new = State(formulation,
                    e + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                    h + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]), t + dt)
        je, jm = dynamics._loads(forms, formulation, case.sources, t + 0.5 * dt)
        ref_trace.sample(new, forms, case.sources,
                         float(je @ (0.5 * (e + new.e)) + jm @ (0.5 * (h + new.h))))
        ref = new
    for got, want in ((end.e, ref.e), (end.h, ref.h)):
        assert got.tobytes() == want.tobytes()
    for name in ("times", "energy", "power", "source_sq", "e_linf"):
        got, want = getattr(trace, name), getattr(ref_trace, name)
        assert np.array(got).tobytes() == np.array(want).tobytes(), name


@pytest.mark.parametrize("chi3", [0.0, 1.0])
@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_zero_amplitude_sources_march_bitwise_like_zero_sources(cube2, formulation, chi3):
    # sources whose every amplitude is 0 give loads of +0, whose terms a
    # source-free march leaves out: x - (+0) is x for every x, -0 included,
    # so both marches agree to the bit, signed zeros too, over 25 steps
    # (the least-squares start enters at step 21)
    case = kerr_manufactured_case(MaterialParams(chi3=chi3))
    forms = build_forms(*cube2, case.params)
    silent = Sources(*(tuple((lambda t: 0.0, g) for _, g in terms)
                       for terms in (case.j_e_terms, case.j_m_terms)))
    st = manufactured_state(case, forms, formulation)
    marches = [integrate(st, 0.02, 25, sources, forms) for sources in (silent, ZERO_SOURCES)]
    (end, trace), (ref, ref_trace) = marches
    for got, want in ((end.e, ref.e), (end.h, ref.h)):
        assert got.tobytes() == want.tobytes()
    for name in ("energy", "e_linf", "power", "source_sq"):
        got, want = getattr(trace, name), getattr(ref_trace, name)
        assert np.array(got).tobytes() == np.array(want).tobytes(), name


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_linear_energy_of_an_overflowing_field_is_inf(forms2, cube2, formulation):
    # a linear medium forms no quartic term, so the uniform field of
    # magnitude 1e160, whose |E|^2 overflows, has energy +inf, not the NaN
    # of 0 * inf
    assert forms2.params.chi3 == 0.0
    field = lambda X: np.broadcast_to([1e160, 0.0, 0.0], np.shape(X))
    h = np.zeros(forms2.dof_u.num_dofs)
    if formulation == "lee-madsen":
        e = field(np.zeros((forms2.ctx.num_tets, 3))).ravel()
    else:
        e, h = interpolate_edge_dofs(field, *cube2), np.zeros(forms2.dof_v.num_dofs)
    with np.errstate(over="ignore"):
        assert total_energy(State(formulation, e, h, 0.0), forms2) == math.inf
