import dataclasses

import numpy as np
import pytest

from conftest import energy_density, jittered_cube
from kerrfem import dynamics, linalg
from kerrfem.assembly import (
    assemble_flux_load,
    assemble_nonlinear_curl_curl,
    assemble_source,
    build_forms,
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
from kerrfem.material import MaterialParams, d_of_e, e_of_d, eps_matrix
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
    picard_exit = dynamics._picard_exit

    def counted(delta, tol, iteration):
        if iteration == 0:
            sweeps.append(0)
        sweeps[-1] += 1
        return picard_exit(delta, tol, iteration)

    monkeypatch.setattr(dynamics, "_picard_exit", counted)
    return sweeps


def count_factorizations(monkeypatch) -> list:
    """The list to which each later :func:`linalg.factorized` call appends
    its matrix."""
    matrices = []
    original = linalg.factorized

    def counted(A):
        matrices.append(A)
        return original(A)

    monkeypatch.setattr(linalg, "factorized", counted)
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


def test_nedelec_kerr_chord_carries_across_steps_at_one_dt(cube2, cavity, monkeypatch):
    # a step starts from the Jacobian factorization the step before left on
    # forms, so 5 steps at one dt factorize fewer than 5 Jacobians; a new dt
    # factorizes afresh, at the start state of its first step
    mesh, topo = cube2
    forms = build_forms(mesh, topo, MaterialParams(chi3=1.0))
    factorized_matrices = count_factorizations(monkeypatch)
    st = cavity_state(cavity, forms, formulation="nedelec")
    mid, _ = integrate(st, 0.01, 5, ZERO_SOURCES, forms, collect=False)
    assert 1 <= len(factorized_matrices) < 5
    factorized_matrices.clear()
    integrate(mid, 0.02, 1, ZERO_SOURCES, forms, collect=False)
    assert factorized_matrices
    fresh = dynamics.assemble_nonlinear_mass_curl(forms, mid.e, 0.02)
    assert (factorized_matrices[0] != fresh).nnz == 0


def test_nedelec_kerr_runs_on_fresh_forms_are_bitwise_equal(cube2, cavity):
    # the carried factorization lives on forms, so a run on fresh forms
    # starts from nothing that an earlier run left behind
    mesh, topo = cube2
    ends = []
    for _ in range(2):
        forms = build_forms(mesh, topo, MaterialParams(chi3=1.0))
        st = cavity_state(cavity, forms, formulation="nedelec")
        end, _ = integrate(st, 0.05, 5, ZERO_SOURCES, forms, collect=False)
        ends.append(end)
    assert np.array_equal(ends[0].e, ends[1].e)
    assert np.array_equal(ends[0].h, ends[1].h)


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_kerr_sweeps_stop_at_the_first_update_within_tolerance(cube2, cavity, formulation,
                                                               monkeypatch):
    # the per-sweep relative updates of each Kerr step: every one but the
    # last is above the tolerance, so the sweeps stop at the first within it
    mesh, topo = cube2
    forms = build_forms(mesh, topo, MaterialParams(chi3=1.0))
    updates = []
    original = dynamics._picard_exit

    def recorded(delta, *args):
        updates[-1].append(delta)
        return original(delta, *args)

    monkeypatch.setattr(dynamics, "_picard_exit", recorded)
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


@pytest.mark.parametrize("n", [4, 8])
def test_lee_madsen_kerr_converges_at_large_dt(cavity, n):
    # the README's measured limit: the lee-madsen chord, whose Kerr Jacobian
    # is refreshed when the sweeps slow down, takes three cavity steps at
    # dt = 2 h; sweeps with the linear reduced matrix stall there by 1.1 h
    # (n = 4) and 1.4 h (n = 8)
    mesh = generate_structured_cube(n)
    forms = build_forms(mesh, build_topology(mesh), MaterialParams(chi3=1.0))
    st = cavity_state(cavity, forms)
    end, _ = integrate(st, 2.0 * mesh_size(mesh), 3, ZERO_SOURCES, forms, collect=False)
    assert np.isfinite(end.e).all() and np.isfinite(end.h).all()


def test_lee_madsen_kerr_chord_takes_few_sweeps(cube4, cavity, monkeypatch):
    # 8 cavity steps at dt = h/4 average 6.1 sweeps with the Kerr Jacobian;
    # with the linear reduced matrix they averaged 17.4
    sweeps = count_sweeps(monkeypatch)
    mesh, topo = cube4
    forms = build_forms(mesh, topo, MaterialParams(chi3=1.0))
    st = cavity_state(cavity, forms)
    integrate(st, 0.25 * mesh_size(mesh), 8, ZERO_SOURCES, forms, collect=False)
    assert len(sweeps) == 8 and np.mean(sweeps) <= 8.0, sweeps


def test_lee_madsen_kerr_chord_carries_across_steps_at_one_dt(cube2, cavity, monkeypatch):
    # as in nedelec: 5 steps at one dt factorize fewer than 5 Jacobians, and
    # a new dt factorizes afresh at the start iterate E(H0) of its first step
    mesh, topo = cube2
    params = MaterialParams(chi3=1.0)
    forms = build_forms(mesh, topo, params)
    factorized_matrices = count_factorizations(monkeypatch)
    st = cavity_state(cavity, forms)
    mid, _ = integrate(st, 0.01, 5, ZERO_SOURCES, forms, collect=False)
    assert 1 <= len(factorized_matrices) < 5
    factorized_matrices.clear()
    dt = 0.02
    integrate(mid, dt, 1, ZERO_SOURCES, forms, collect=False)
    assert factorized_matrices
    d_start = (d_of_e(params, mid.e.reshape(-1, 3))
               + (dt / forms.ctx.vol[:, None]) * (forms.coupling_lm @ mid.h).reshape(-1, 3))
    fresh = assemble_nonlinear_curl_curl(forms, e_of_d(params, d_start).ravel(), dt)
    assert (factorized_matrices[0] != fresh).nnz == 0


@pytest.mark.parametrize("formulation", ["lee-madsen", "nedelec"])
def test_midpoint_linear_step_takes_one_sweep(cube2, cavity, formulation, monkeypatch):
    # a linear step is affine and its first sweep solves it exactly, so each
    # step makes one back-solve with the reduced matrix
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
        electric = (flux[1] - flux[0], dt * (forms.coupling_ned.T @ hm - je[free]))
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
            st0.copy(), 0.4 / nsteps, nsteps, case.sources, forms, collect=False
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
    a, _ = integrate(st.copy(), dt, 20, ZERO_SOURCES, cav_forms2, stepper="midpoint")
    b, _ = integrate(st.copy(), dt, 20, ZERO_SOURCES, cav_forms2, stepper="rk4")
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
    calls = []
    original = linalg.cg_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "cg_solve", counted)
    kerr = kerr_manufactured_case(MaterialParams(chi3=1.0))
    forms = build_forms(cav_forms2.ctx.mesh, cav_forms2.ctx.topo, kerr.params)
    st = cavity_state(cavity, forms)
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
        _, trace = integrate(st.copy(), dt, round(0.5 / dt), ZERO_SOURCES, forms)
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
        _, trace = integrate(st.copy(), dt, round(0.4 / dt), case.sources, forms)
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
