"""Semi-discrete Maxwell systems in time: right-hand sides, integrators,
and energy monitors.

Two formulations are supported.  ``lee-madsen`` evolves the electric field
as a cellwise-constant vector against the curl of an edge-element magnetic
field; ``nedelec`` evolves a constrained edge-element electric field against
a face-element magnetic field.  In both, a single coupling matrix appears
once plain and once transposed, which is what makes the semi-discrete energy
identity hold exactly in the linear limit.

Time integration is an addition to the semi-discrete setting: the implicit
midpoint rule (applied to the electric *flux*, with the field recovered by
exact constitutive inversion) preserves the quadratic invariants of the
linear subsystem and is second-order accurate; classical RK4 serves as an
independent cross-check.  A midpoint step eliminates one field in closed form
and takes Newton sweeps on the other's edge unknowns (H for lee-madsen, E for
nedelec) with the matrix M + (dt^2/4) A_cc / material; a linear step is
affine, so its one sweep is exact.  Kerr sweeps stop at the first update
within the tolerance.  In both formulations they solve with the Kerr
Jacobian of their residual, lagged (a chord method): its factorization is
kept on the forms and carried from step to step while dt is unchanged, and
re-evaluated at the current iterate only after an update that shrank by
less than :data:`REFRESH_RATIO`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import linalg
from .assembly import (
    AssembledForms,
    assemble_flux_load,
    assemble_nonlinear_curl_curl,
    assemble_nonlinear_mass_curl,
    assemble_source,
    curl_project,
    l2_project,
)
from .fem_spaces import interpolate_edge_dofs, interpolate_face_dofs
from .material import cm_matrix, d_of_e, e_of_d

FORMULATIONS = ("lee-madsen", "nedelec")
STEPPERS = ("midpoint", "rk4")
MAX_SWEEPS = 50  # cap on the midpoint sweeps of one step
REFRESH_RATIO = 0.05  # a sweep contracting less than this refreshes a lagged Jacobian
SOLVER_TOL = 1e-11  # default relative tolerance of the midpoint sweeps and CG solves


class NonlinearSolveError(Exception):
    """The implicit midpoint iteration failed to converge (try a smaller dt)."""


@dataclass
class State:
    """Coefficient vectors of (E_h, H_h) at time t for one formulation."""

    formulation: str
    e: np.ndarray
    h: np.ndarray
    t: float

    def copy(self) -> "State":
        return State(self.formulation, self.e.copy(), self.h.copy(), self.t)


@dataclass(frozen=True)
class Sources:
    """Time-dependent current densities in time-separable form.

    Each current J(t, x) = sum_k a_k(t) g_k(x) is a tuple of ``(a, g)``
    pairs, ``a(t) -> float`` and ``g(points (m,3)) -> (m,3)``; an empty tuple
    means zero.  The load vector of each g_k is assembled once per mesh and
    space, and the L2 Gram matrix of a current's g_k once per mesh, keyed by
    the callables themselves (so build the terms once, not per step); each
    step and each monitor sample only combines them.
    """

    j_e_terms: tuple = ()
    j_m_terms: tuple = ()

    @property
    def is_zero(self) -> bool:
        return not self.j_e_terms and not self.j_m_terms


ZERO_SOURCES = Sources()


@dataclass
class EnergyTrace:
    """Per-step energy samples of one run.

    ``power[n]`` is the source work rate (J_e, E_h) + (J_m, H_h) evaluated at
    the midpoint of step n; ``source_sq[n]`` the weighted squared source norm
    at sample time n (both zero for source-free runs).  ``e_linf`` tracks the
    max-norm of E_h, reported because the error theory assumes it bounded.
    """

    times: list = dataclass_field(default_factory=list)
    energy: list = dataclass_field(default_factory=list)
    power: list = dataclass_field(default_factory=list)
    source_sq: list = dataclass_field(default_factory=list)
    e_linf: list = dataclass_field(default_factory=list)

    def sample(self, state: State, forms: AssembledForms, sources: Sources,
               power: float | None = None) -> None:
        """Append the monitors of ``state``; ``power`` is the work rate of the
        step that produced it (omitted for the initial sample)."""
        self.times.append(state.t)
        self.energy.append(total_energy(state, forms))
        if power is not None:
            self.power.append(power)
        self.source_sq.append(source_norm_sq(forms, sources, state.t))
        self.e_linf.append(e_max_norm(state, forms))

    def arrays(self):
        return (
            np.asarray(self.times),
            np.asarray(self.energy),
            np.asarray(self.power),
            np.asarray(self.source_sq),
        )


def _validate_formulation(formulation: str) -> None:
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}, got {formulation!r}")


def initialize(E0, H0, formulation: str, forms: AssembledForms,
               H0_curl=None) -> State:
    """Discrete initial data at t = 0.

    lee-madsen: E -> cellwise averages, H -> curl-matching projection (pass
    ``H0_curl`` whenever it is known; it defaults to zero, which is exact for
    the zero field).  These choices make the initial-data terms of the error
    bound vanish.  nedelec: tangential edge interpolation of E (boundary
    dofs zeroed) and face-flux interpolation of H.
    """
    _validate_formulation(formulation)
    ctx = forms.ctx
    if formulation == "lee-madsen":
        e = l2_project(ctx, E0)
        if H0_curl is None:
            h = np.zeros(forms.dof_u.num_dofs)
            probe = np.linalg.norm(ctx.sample(H0))
            if probe > 0.0:
                raise ValueError("H0_curl is required for nonzero H0 initial data")
        else:
            h = curl_project(forms, H0, H0_curl)
        return State(formulation, e, h, 0.0)
    e = interpolate_edge_dofs(E0, ctx.mesh, ctx.topo)
    e[ctx.topo.boundary_edges] = 0.0
    h = interpolate_face_dofs(H0, ctx.mesh, ctx.topo)
    return State(formulation, e, h, 0.0)


def _term_load(forms: AssembledForms, g, dof) -> np.ndarray:
    """Load vector of the time-independent factor ``g`` over ``dof``'s space,
    assembled on first use and then kept on ``forms``."""
    key = (g, dof)
    load = forms.source_loads.get(key)
    if load is None:
        load = forms.source_loads[key] = assemble_source(forms.ctx, g, dof)
    return load


def _loads(forms: AssembledForms, formulation: str, sources: Sources, t: float):
    """Source load vectors (j_e, j_m) against the formulation's test spaces."""
    loads = []
    for terms, dof in zip((sources.j_e_terms, sources.j_m_terms),
                          forms.ctx.spaces(formulation)):
        load = np.zeros(dof.num_dofs)
        for a, g in terms:
            load += a(t) * _term_load(forms, g, dof)
        loads.append(load)
    return tuple(loads)


def rhs(state: State, sources: Sources, forms: AssembledForms,
        cg_tol: float = SOLVER_TOL):
    """Time derivatives (de/dt, dh/dt) of the semi-discrete system.

    The lee-madsen E mass |K| eps(E_K) is block diagonal and inverted per
    tet in closed form.  The constant masses are solved with their cached LU
    factorizations (mu0 M_u is the lee-madsen reduced matrix at dt = 0); only
    the nedelec Kerr mass, new at every stage, is solved by CG to ``cg_tol``.
    """
    _validate_formulation(state.formulation)
    params = forms.params
    je, jm = _loads(forms, state.formulation, sources, state.t)
    if state.formulation == "lee-madsen":
        E = state.e.reshape(-1, 3)
        inv_blocks = cm_matrix(params, E) / (params.eps0 * forms.ctx.vol[:, None, None])
        b = (forms.coupling_lm @ state.h - je).reshape(-1, 3)
        de = np.einsum("tij,tj->ti", inv_blocks, b).ravel()
        dh = forms.reduced_solver("lee-madsen", 0.0)(-(forms.coupling_lm.T @ state.e) - jm)
        return de, dh
    free = forms.free_edges
    rhs_e = (forms.coupling_ned.T @ state.h) - je[free]
    de = np.zeros_like(state.e)
    if params.chi3 == 0.0:
        de[free] = forms.reduced_solver("nedelec", 0.0)(rhs_e)
    else:
        meps = assemble_nonlinear_mass_curl(forms, state.e, 0.0)
        de[free] = linalg.cg_solve(meps, rhs_e, rel_tol=cg_tol)
    dh = forms.discrete_curl @ state.e
    if sources.j_m_terms:
        dh = dh + forms.solve_mass_v1(jm)
    return de, -dh / params.mu0


def _picard_exit(delta: float, tol: float, iteration: int) -> bool:
    """Whether the sweeps stop after an update of relative size ``delta``:
    at the first one within ``tol``, the stopping rule of a simplified Newton
    iteration (Hairer and Wanner, *Solving ODEs II*, IV.8).  Raises
    NonlinearSolveError on a non-finite update or when the
    :data:`MAX_SWEEPS` cap is reached above ``tol``."""
    if not np.isfinite(delta):
        raise NonlinearSolveError("midpoint iteration diverged (non-finite update); reduce dt")
    if delta <= tol:
        return True
    if iteration == MAX_SWEEPS - 1:
        raise NonlinearSolveError(
            f"midpoint iteration stalled at relative update {delta:.3e} "
            f"after {MAX_SWEEPS} sweeps; reduce dt"
        )
    return False


def _relative_update(new: np.ndarray, old: np.ndarray, floor: float) -> float:
    """||new - old|| over max(||new||, floor), or absolute if both are zero."""
    return np.linalg.norm(new - old) / (max(np.linalg.norm(new), floor) or 1.0)


def _midpoint_sweeps(e1: np.ndarray, h1: np.ndarray, sweep, tol: float, linear: bool):
    """Sweeps ``(e1, h1) = sweep(e1, h1, refresh)`` from the start iterate to
    the end-of-step fields, each one Newton update of the formulation's edge
    unknown with the other field recovered in closed form.  A linear step is
    affine and its first sweep exact, so it takes one; otherwise they stop
    per :func:`_picard_exit` on the larger update of the two fields, each
    relative to its own norm floored at its norm at the step start.
    ``refresh`` tells a sweep with a lagged Jacobian to re-evaluate it at
    the current iterate: it is set after an update larger than
    :data:`REFRESH_RATIO` times the one before."""
    e_floor, h_floor = np.linalg.norm(e1), np.linalg.norm(h1)
    prev = math.inf
    refresh = False
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(MAX_SWEEPS):
            e1_new, h1_new = sweep(e1, h1, refresh)
            delta = max(_relative_update(e1_new, e1, e_floor),
                        _relative_update(h1_new, h1, h_floor))
            e1, h1 = e1_new, h1_new
            if _picard_exit(delta, tol, it) or linear:
                break
            refresh = delta > REFRESH_RATIO * prev
            prev = delta
    return e1, h1


def _chord_solver(forms: AssembledForms, formulation: str, dt: float, jacobian, e_start):
    """The solve a midpoint step's sweeps start from, and the function
    ``refresh(e)`` that replaces it by the factorized
    ``jacobian(forms, e, dt)``.

    Linear media solve with the cached reduced solver, the exact and
    constant Jacobian (their one sweep never refreshes it).  Kerr media
    solve with the lagged Kerr Jacobian that ``forms`` keeps for this dt
    under "<formulation>-kerr", left by the step before; only when it keeps
    none is it evaluated and factorized afresh at the start iterate
    ``e_start``."""
    if forms.params.chi3 == 0.0:
        return forms.reduced_solver(formulation, dt), None
    name = formulation + "-kerr"

    def refresh(e):
        return forms.keep_solver(name, dt, jacobian(forms, e, dt))

    solve = forms.kept_solver(name, dt)
    return (refresh(e_start) if solve is None else solve), refresh


def _lee_madsen_sweep(state: State, dt: float, forms: AssembledForms,
                      je: np.ndarray, jm: np.ndarray):
    """Sweep of the lee-madsen step and its start iterate (E(H0), H0): a
    chord update of H for G(H1) = mu0 M_u (H1 - H0) + dt (C^T (E0 + E1)/2 +
    j_m), then E1 = E(H1) by cellwise constitutive inversion, which the next
    sweep's residual reads.  Its Jacobian
    mu0 M_u + (dt^2/4) C^T blockdiag(C_m(E1) / (eps0 |K|)) C
    (:func:`assemble_nonlinear_curl_curl`) is held as :func:`_chord_solver`
    says, and re-evaluated at the current E1 when ``refresh`` is set (see
    :func:`_midpoint_sweeps`)."""
    params = forms.params
    vol = forms.ctx.vol[:, None]
    C = forms.coupling_lm
    CT = C.T
    e0, h0 = state.e, state.h
    d0 = d_of_e(params, e0.reshape(-1, 3))

    def e_end(h1):
        d1 = d0 + (dt / vol) * (C @ (0.5 * (h0 + h1)) - je).reshape(-1, 3)
        return e_of_d(params, d1).ravel()

    e_start = e_end(h0)
    solve, refactorize = _chord_solver(forms, "lee-madsen", dt, assemble_nonlinear_curl_curl,
                                       e_start)

    def sweep(e1, h1, refresh):
        nonlocal solve
        if refresh:
            solve = refactorize(e1)
        h1 = h1 - solve(params.mu0 * (forms.mass_u1 @ (h1 - h0))
                        + dt * (CT @ (0.5 * (e0 + e1)) + jm))
        return e_end(h1), h1

    return sweep, e_start


def _nedelec_sweep(state: State, dt: float, forms: AssembledForms,
                   je: np.ndarray, jm: np.ndarray):
    """Sweep of the nedelec step: a chord update of E on the free edges for
    R(E1) = D(E1) - D(E0) - dt (K^T H_mid - j_e), whose Jacobian
    :func:`assemble_nonlinear_mass_curl` is held as :func:`_chord_solver`
    says, and re-evaluated at the current E1 when ``refresh`` is set (see
    :func:`_midpoint_sweeps`).  H1 follows exactly from the discrete curl of
    E1, so the ``h1`` argument is not read.  The start iterate is E0
    itself."""
    params = forms.params
    ctx = forms.ctx
    free = forms.free_edges
    KT = forms.coupling_ned.T
    e0, h0 = state.e, state.h
    jm_term = forms.solve_mass_v1(jm) if jm.any() else 0.0
    d0 = assemble_flux_load(ctx, params, e0)[free]
    solve, refactorize = _chord_solver(forms, "nedelec", dt, assemble_nonlinear_mass_curl, e0)

    def h_end(e1):
        return h0 - (dt / params.mu0) * (forms.discrete_curl @ (0.5 * (e0 + e1)) + jm_term)

    def sweep(e1, h1, refresh):
        nonlocal solve
        residual = (assemble_flux_load(ctx, params, e1)[free] - d0
                    - dt * (KT @ (0.5 * (h0 + h_end(e1))) - je[free]))
        if refresh:
            solve = refactorize(e1)
        e1 = e1.copy()
        e1[free] -= solve(residual)
        return e1, h_end(e1)

    return sweep, e0


_MIDPOINT_SWEEPS = {"lee-madsen": _lee_madsen_sweep, "nedelec": _nedelec_sweep}


def _step_midpoint(state: State, dt: float, forms: AssembledForms, je: np.ndarray,
                   jm: np.ndarray, tol: float) -> State:
    """One implicit-midpoint step on the flux form, second order in dt, with
    the source loads ``je``, ``jm`` at the step's midpoint t + dt/2."""
    sweep, e_start = _MIDPOINT_SWEEPS[state.formulation](state, dt, forms, je, jm)
    e1, h1 = _midpoint_sweeps(e_start, state.h, sweep, tol, forms.params.chi3 == 0.0)
    return State(state.formulation, e1, h1, state.t + dt)


def step_rk4(state: State, dt: float, sources: Sources, forms: AssembledForms,
             cg_tol: float = SOLVER_TOL) -> State:
    """Classical explicit 4-stage step on :func:`rhs`.

    Stability requires dt below roughly 0.5 h sqrt(eps0 mu0); this is the
    caller's responsibility.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")

    def f(e, h, t):
        return rhs(State(state.formulation, e, h, t), sources, forms, cg_tol=cg_tol)

    e, h, t = state.e, state.h, state.t
    k1e, k1h = f(e, h, t)
    k2e, k2h = f(e + 0.5 * dt * k1e, h + 0.5 * dt * k1h, t + 0.5 * dt)
    k3e, k3h = f(e + 0.5 * dt * k2e, h + 0.5 * dt * k2h, t + 0.5 * dt)
    k4e, k4h = f(e + dt * k3e, h + dt * k3h, t + dt)
    return State(
        state.formulation,
        e + dt / 6.0 * (k1e + 2 * k2e + 2 * k3e + k4e),
        h + dt / 6.0 * (k1h + 2 * k2h + 2 * k3h + k4h),
        t + dt,
    )


def total_energy(state: State, forms: AssembledForms) -> float:
    """Nonlinear electromagnetic energy W of the current state.

    W = 0.5 [ ||E||^2_{eps0(1+chi1)} + 1.5 || |E|^2 ||^2_{eps0 chi3}
    + ||H||^2_{mu0} ]; cellwise closed form in the lee-madsen case, exact
    quadrature otherwise.
    """
    params = forms.params
    ctx = forms.ctx
    if state.formulation == "lee-madsen":
        E = state.e.reshape(ctx.num_tets, 3)
        e2 = np.sum(E * E, axis=1)
        we = np.sum(ctx.vol * (0.5 * params.eps_lin * e2
                               + 0.75 * params.eps0 * params.chi3 * e2 * e2))
        wh = 0.5 * params.mu0 * float(state.h @ (forms.mass_u1 @ state.h))
        return float(we + wh)
    E = ctx.field(ctx.dof_u, state.e)
    e2 = np.einsum("tqd,tqd->tq", E, E)
    dens_e = 0.5 * params.eps_lin * e2 + 0.75 * params.eps0 * params.chi3 * e2 * e2
    we = ctx.integrate(dens_e)
    wh = 0.5 * params.mu0 * float(state.h @ (forms.mass_v1 @ state.h))
    return we + wh


def e_max_norm(state: State, forms: AssembledForms) -> float:
    """Max pointwise |E_h|, exact: an edge field is linear on each tet and
    its magnitude convex, so it peaks at a vertex."""
    ctx = forms.ctx
    if state.formulation == "lee-madsen":
        E = state.e.reshape(ctx.num_tets, 3)
        return float(np.max(np.linalg.norm(E, axis=1))) if E.size else 0.0
    E = ctx.dof_u.vertex_field(state.e)
    return float(np.sqrt(np.max(np.einsum("tvd,tvd->tv", E, E))))


def discrete_divergence(state: State, forms: AssembledForms) -> np.ndarray:
    """Cellwise divergence of the face-element magnetic field (nedelec)."""
    if state.formulation != "nedelec":
        raise ValueError("divergence monitor applies to the nedelec formulation")
    return np.einsum("ti,ti->t", state.h[forms.dof_v.cell_dofs], forms.ctx.face_divs)


def _term_gram(forms: AssembledForms, terms) -> np.ndarray:
    """L2 Gram matrix (g_k, g_l) of the factors of separable terms, made on
    first use and then kept on ``forms``."""
    key = tuple(g for _, g in terms)
    gram = forms.source_grams.get(key)
    if gram is None:
        gram = forms.source_grams[key] = forms.ctx.gram(key)
    return gram


def source_norm_sq(forms: AssembledForms, sources: Sources, t: float) -> float:
    """||J_e||^2 weighted by 1/(eps0(1+chi1)) plus ||J_m||^2 weighted by 1/mu0,
    each sum_kl a_k(t) a_l(t) (g_k, g_l) from the cached Gram matrix."""
    params = forms.params
    total = 0.0
    for terms, weight in ((sources.j_e_terms, params.eps_lin),
                          (sources.j_m_terms, params.mu0)):
        if terms:
            amps = np.array([a(t) for a, _ in terms])
            total += float(amps @ _term_gram(forms, terms) @ amps) / weight
    return total


def _step_label(step: int, t: float, dt: float) -> str:
    return f"step {step} (t = {t:.6g}, dt = {dt:.6g})"


def integrate(state: State, dt: float, num_steps: int, sources: Sources,
              forms: AssembledForms, stepper: str = "midpoint",
              nonlinear_tol: float = SOLVER_TOL, cg_tol: float = SOLVER_TOL,
              collect: bool = True, on_step=None):
    """March ``num_steps`` steps, optionally recording an EnergyTrace.

    ``on_step(step, state)``, when given, is called after each step
    ``step = 1 .. num_steps`` with the state that step produced.  Raises
    ValueError for an unknown formulation or stepper, a nonpositive or NaN
    ``dt`` or a negative ``num_steps``, and
    FloatingPointError at the first step that leaves a non-finite state; a
    LinalgError or NonlinearSolveError raised inside a step is re-raised as
    the same type with the step number, its end time and dt prefixed.
    """
    _validate_formulation(state.formulation)
    if stepper not in STEPPERS:
        raise ValueError(f"stepper must be one of {STEPPERS}, got {stepper!r}")
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps}")
    trace = EnergyTrace() if collect else None
    if collect:
        trace.sample(state, forms, sources)
    # midpoint loads: read by the midpoint step and by the power column
    need_loads = stepper == "midpoint" or (collect and not sources.is_zero)
    current = state
    for step in range(1, num_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                if need_loads:
                    je, jm = _loads(forms, current.formulation, sources, current.t + 0.5 * dt)
                if stepper == "midpoint":
                    new = _step_midpoint(current, dt, forms, je, jm, nonlinear_tol)
                else:
                    new = step_rk4(current, dt, sources, forms, cg_tol=cg_tol)
            except (linalg.LinalgError, NonlinearSolveError) as exc:
                message = str(exc)
                if not message.endswith("reduce dt"):
                    message += "; reduce dt"
                label = _step_label(step, current.t + dt, dt)
                raise type(exc)(f"{label}: {message}") from exc
            if not (np.isfinite(new.e).all() and np.isfinite(new.h).all()):
                raise FloatingPointError(
                    f"{_step_label(step, new.t, dt)} left a non-finite state; reduce dt"
                )
            if collect:
                if sources.is_zero:
                    power = 0.0
                else:
                    e_mid = 0.5 * (current.e + new.e)
                    h_mid = 0.5 * (current.h + new.h)
                    power = float(je @ e_mid + jm @ h_mid)
                trace.sample(new, forms, sources, power)
        if on_step is not None:
            on_step(step, new)
        current = new
    return current, trace


def energy_law_residual(trace: EnergyTrace) -> np.ndarray:
    """Residuals r_n = [W(t_{n+1}) - W(t_n)]/dt + (J_e, E) + (J_m, H).

    The continuous-time system satisfies dW/dt = -(J_e, E) - (J_m, H), so
    r_n measures the time-discretization error and decays like dt^2 under
    refinement.  Requires a uniformly sampled trace.
    """
    t, w, p, _ = trace.arrays()
    if len(t) < 2:
        return np.zeros(0)
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-10, atol=1e-14):
        raise ValueError("energy-law residual requires uniform time samples")
    return np.diff(w) / dt + p


def stability_bound_check(trace: EnergyTrace):
    """Ratios W(t) / [2 W(0) + t * cumulative weighted source norm].

    Returns (ratios, violated) where violated flags any ratio above
    1 + 1e-9, a roundoff allowance applied to every ratio.
    """
    t, w, _, ssq = trace.arrays()
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ssq[1:] + ssq[:-1]) * np.diff(t))])
    bound = 2.0 * w[0] + t * cum
    ratios = np.empty_like(w)
    for i in range(len(w)):
        if bound[i] > 0.0:
            ratios[i] = w[i] / bound[i]
        else:
            ratios[i] = 0.0 if w[i] <= 1e-30 else np.inf
    return ratios, bool(np.any(ratios > 1.0 + 1e-9))
