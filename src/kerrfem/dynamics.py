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
within the tolerance.  They start from a prediction of their edge unknown
from the march's accepted steps, a polynomial extrapolation or a
least-squares polynomial fit, whichever missed by less one step back,
and solve with the Kerr Jacobian of their residual, lagged (a chord method,
:func:`_chord_solver`): by LU in nedelec, and in lee-madsen,
mass-dominated, by Jacobi-PCG to the relative residual
:data:`CHORD_FORCING` (an inexact Newton forcing term, Eisenstat and
Walker 1996), so a lee-madsen Kerr march factorizes nothing.  The march
(:class:`_KerrMarch`, one per :func:`integrate` call) carries both the
accepted values and the chord from step to step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from . import linalg
from .assembly import (
    AssembledForms,
    assemble_flux_load,
    assemble_nonlinear_curl_curl,
    assemble_nonlinear_mass_curl,
    assemble_source,
    curl_project,
    electric_energy,
    l2_project,
)
from .fem_spaces import interpolate_edge_dofs, interpolate_face_dofs
from .material import _norm_sq, cm_matrix, d_of_e, e_of_d

FORMULATIONS = ("lee-madsen", "nedelec")
STEPPERS = ("midpoint", "rk4")
MAX_SWEEPS = 50  # cap on the midpoint sweeps of one step
REFRESH_RATIO = 0.05  # a sweep contracting less than this refreshes a lagged Jacobian
CHORD_FORCING = 1e-3  # relative residual of the lee-madsen Kerr chord's PCG solves
SOLVER_TOL = 1e-11  # default relative tolerance of the midpoint sweeps and CG solves
EXTRAPOLATION_ORDER = 12  # highest order of the extrapolated start of a Kerr midpoint step
LSQ_WINDOW = 20  # accepted values the least-squares start of a Kerr midpoint step fits
LSQ_DEGREE = 14  # degree of the polynomial it fits


class NonlinearSolveError(Exception):
    """The implicit midpoint iteration failed to converge (try a smaller dt)."""


@dataclass
class State:
    """Coefficient vectors of (E_h, H_h) at time t for one formulation."""

    formulation: str
    e: np.ndarray
    h: np.ndarray
    t: float


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
    the zero field), one CG solve and one P1 Laplacian LU, which a zero H0
    skips: its projection is exactly zero.  These choices make the
    initial-data terms of the error bound vanish.  nedelec:
    tangential edge interpolation of E (boundary dofs zeroed) and face-flux
    interpolation of H.
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
        dh = forms.reduced_solver("lee-madsen", 0.0)(-(forms.coupling_lm_t @ state.e) - jm)
        return de, dh
    free = forms.free_edges
    rhs_e = (forms.coupling_ned_t @ state.h) - je[free]
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


def _sweep_exit(delta: float, tol: float, iteration: int) -> bool:
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
    """Sweeps ``(e1, h1) = sweep(e1, h1, refresh)`` from the start iterate
    to the end-of-step fields, each one Newton update of the formulation's
    edge unknown with the other field recovered in closed form.  A linear
    step is affine and its first sweep exact, so it takes that one sweep
    (one LU solve) and measures no update: it ends at :func:`_sweep_exit`
    with a zero one and leaves a non-finite result to the caller's check of
    the state.  Kerr sweeps stop per :func:`_sweep_exit` on the larger
    update of the two fields, each relative to its own norm floored at its
    norm at the start iterate.
    ``refresh`` tells a sweep with a lagged Jacobian to re-evaluate it at
    the current iterate: it is set after an update larger than
    :data:`REFRESH_RATIO` times the one before.  With it a nedelec Kerr
    cavity step takes 6-9 sweeps at dt = 0.5-5 h; without it a step at
    n = 8 and dt = h took 49, one short of the :data:`MAX_SWEEPS` cap."""
    if linear:
        e1, h1 = sweep(e1, h1, False)
        _sweep_exit(0.0, tol, 0)
        return e1, h1
    e_floor, h_floor = np.linalg.norm(e1), np.linalg.norm(h1)
    prev = math.inf
    refresh = False
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(MAX_SWEEPS):
            e1_new, h1_new = sweep(e1, h1, refresh)
            delta = max(_relative_update(e1_new, e1, e_floor),
                        _relative_update(h1_new, h1, h_floor))
            e1, h1 = e1_new, h1_new
            if _sweep_exit(delta, tol, it):
                break
            refresh = delta > REFRESH_RATIO * prev
            prev = delta
    return e1, h1


def _push_differences(table, x):
    """The backward-difference table with ``x`` the newest accepted value of
    the iterated unknown: row j = 0 .. EXTRAPOLATION_ORDER + 1 holds its
    j-th difference there, one subtraction of the old table's row j - 1."""
    rows = [x]
    for row in table[:EXTRAPOLATION_ORDER + 1]:
        rows.append(rows[-1] - row)
    return rows


def _start_order(table) -> int:
    """The order k of the next Kerr midpoint step's start, raised from 0 up
    to :data:`EXTRAPOLATION_ORDER` while the next order missed the newest
    value by less (the order choice of multistep codes, Shampine and Gordon
    1975).  The order-k prediction made one step back missed it by exactly
    table row k + 1; the misses are compared by their norms (relative to
    the newest value's, a common factor), computed up to the chosen order + 1."""
    miss = functools.cache(lambda k: np.linalg.norm(table[k + 1]))
    k = 0
    while k < min(EXTRAPOLATION_ORDER, len(table) - 2) and miss(k + 1) < miss(k):
        k += 1
    return k


def _least_squares_weights(window: int, degree: int) -> np.ndarray:
    """Weights w, oldest sample first, of the value at the next sample of
    the polynomial of ``degree`` fitted by least squares to ``window``
    equally spaced samples (a Savitzky-Golay predictor, Anal. Chem. 36,
    1964): the smallest w in the 2-norm that reproduces every polynomial of
    that degree, w = V (V^T V)^{-1} v for the Vandermonde matrix V of the
    samples and the row v of the next one.  Computed in exact rational
    arithmetic on the abscissae 1 - window, 3 - window, ..., window - 1 (the
    next one window + 1), which keeps the numbers small; the oldest weight,
    the smallest, is then set so that the rounded weights sum to 1."""
    m = degree + 1
    V = [[t**j for j in range(m)] for t in range(1 - window, window, 2)]
    # Gauss-Jordan elimination on [V^T V | v], symmetric positive definite
    G = [[Fraction(sum(row[i] * row[j] for row in V)) for j in range(m)]
         + [Fraction((window + 1) ** i)] for i in range(m)]
    for c in range(m):
        for r in range(m):
            if r != c and G[r][c]:
                f = G[r][c] / G[c][c]
                G[r] = [x - f * y for x, y in zip(G[r], G[c])]
    y = [G[i][m] / G[i][i] for i in range(m)]
    w = [float(sum(v * yj for v, yj in zip(row, y))) for row in V]
    w[0] = float(1 - sum(map(Fraction, w[1:])))
    return np.array(w)


_LSQ_WEIGHTS = _least_squares_weights(LSQ_WINDOW, LSQ_DEGREE)


class _KerrMarch:
    """What a Kerr midpoint march carries from step to step: the accepted
    values of its iterated unknown, from which calling it predicts the next
    step's start (Hairer and Wanner, *Solving ODEs II*, IV.8), and
    ``solve``, the solve with the lagged Kerr Jacobian (the chord, see
    :func:`_chord_solver`), None until the first step makes it.

    Two candidates predict the next value.  The backward-difference table
    gives the order-k polynomial extrapolation, k = :func:`_start_order`, or
    the constant start for k = 0.  Once :data:`LSQ_WINDOW` values are in,
    the least-squares polynomial of degree :data:`LSQ_DEGREE` through them
    gives the other, :data:`_LSQ_WEIGHTS` applied to a ring of those values.
    A step starts from the fit only when, made one step back, it missed
    the newest value by less than the extrapolation of order k did (the
    table's row k + 1).  Calls of at most LSQ_WINDOW steps never reach it.

    An order-k extrapolation multiplies the noise of the accepted values,
    each converged only to the sweep tolerance, by sum |w| = 2^(k+1) - 1,
    8191 at the cap of 12; the least-squares weights by 1643.  So where
    truncation dominates (coarse meshes, large dt) the extrapolation wins,
    and where noise does the fit: on the n = 8 level of the ``kerr-eoc``
    study it starts 157 of the 267 lee-madsen steps, which take 1.13
    sweeps each against 1.44 from the extrapolation alone.  Of windows
    16-30 and degrees 12-18 tried there, 20 and 14 took the fewest sweeps: a
    lower degree leaves truncation, a higher one amplifies noise.  The ring
    holds LSQ_WINDOW vectors of the unknown's size, 0.67 MB at n = 8."""

    def __init__(self):
        self.table = []  # backward differences at the newest value
        self.ring = None  # the last LSQ_WINDOW values, the i-th pushed in row i % LSQ_WINDOW
        self.pushed = 0
        self.fit = None  # the least-squares prediction of the value pushed next
        self.solve = None  # the chord's solve, kept for the next step

    def __call__(self, x: np.ndarray):
        """The predicted end value of the step that starts from the newest
        value ``x``, or None for the constant start."""
        self.table = _push_differences(self.table, x)
        if self.ring is None:
            self.ring = np.empty((LSQ_WINDOW, x.size))
        self.ring[self.pushed % LSQ_WINDOW] = x
        self.pushed += 1
        fit = self.fit
        if self.pushed >= LSQ_WINDOW:
            self.fit = np.roll(_LSQ_WEIGHTS, self.pushed) @ self.ring
        k = _start_order(self.table)
        if fit is not None and np.linalg.norm(x - fit) < np.linalg.norm(self.table[k + 1]):
            return self.fit
        return sum(self.table[:k + 1]) if k else None


def _chord_solver(forms: AssembledForms, formulation: str, dt: float, jacobian, solver,
                  e_start, kerr: _KerrMarch | None):
    """The solve a midpoint step's sweeps start from, and the function
    ``refresh(e)`` that replaces it by ``solver(jacobian(forms, e, dt))``
    (``solver`` maps a matrix to its solve function).

    A linear medium (``kerr`` None) solves with the cached reduced LU, the
    exact and constant Jacobian (its one sweep never refreshes it).  A Kerr
    march solves with the lagged Kerr Jacobian that it carries in
    ``kerr.solve``, left by the step before; its first step evaluates the
    Jacobian at the start iterate ``e_start`` and makes the solver."""
    if kerr is None:
        return forms.reduced_solver(formulation, dt), None

    def refresh(e):
        kerr.solve = solver(jacobian(forms, e, dt))
        return kerr.solve

    return (refresh(e_start) if kerr.solve is None else kerr.solve), refresh


def _lee_madsen_sweep(state: State, dt: float, forms: AssembledForms,
                      je: np.ndarray, jm: np.ndarray, kerr: _KerrMarch | None):
    """Sweep of the lee-madsen step and its start iterate (E(H_s), H_s),
    with H_s the end H that the Kerr march ``kerr`` predicts or, when it
    predicts none or the medium is linear (``kerr`` None), H0: a chord
    update of H for G(H1) = mu0 M_u (H1 - H0) + dt (C^T
    (E0 + E1)/2 + j_m), then E1 = E(H1) by cellwise constitutive inversion,
    which the next sweep's residual reads.  Its Jacobian
    mu0 M_u + (dt^2/4) C^T blockdiag(C_m(E1) / (eps0 |K|)) C
    (:func:`assemble_nonlinear_curl_curl`) is mass-dominated, so it is
    solved by Jacobi-PCG to :data:`CHORD_FORCING`, held as
    :func:`_chord_solver` says, and re-evaluated at the current E1 when
    ``refresh`` is set (see :func:`_midpoint_sweeps`).  On the ``kerr-eoc``
    study a solve takes 8.5 PCG iterations.  The inexact solves cost
    sweeps (4.0 -> 4.4 per step from the constant start, against an LU
    chord) but not accuracy: each sweep forms the exact residual, and the
    committed lee-madsen ``converge`` references are those of the LU chord."""
    params = forms.params
    C, CT = forms.coupling_lm, forms.coupling_lm_t
    e0, h0 = state.e, state.h
    dt_vol = dt / forms.ctx.vol[:, None]
    # the step's constants: D1 = D(E0) - (dt/|K|) j_e + (dt/(2|K|)) C (H0 + H1)
    d_fixed = d_of_e(params, e0.reshape(-1, 3)) - dt_vol * je.reshape(-1, 3)
    half_dt_vol = 0.5 * dt_vol
    dt_jm = dt * jm

    def e_end(h1):
        d1 = (C @ (h0 + h1)).reshape(-1, 3)
        d1 *= half_dt_vol
        d1 += d_fixed
        return e_of_d(params, d1).ravel()

    start = None if kerr is None else kerr(h0)
    h_start = h0 if start is None else start
    e_start = e_end(h_start)
    solve, refresh_solver = _chord_solver(
        forms, "lee-madsen", dt, assemble_nonlinear_curl_curl,
        lambda A: linalg.cg_solver(A, CHORD_FORCING), e_start, kerr)

    def sweep(e1, h1, refresh):
        nonlocal solve
        if refresh:
            solve = refresh_solver(e1)
        if h1 is h0:  # the mass term from H0 is +0: a fresh dt_jm + 0.0 rounds as it does
            residual = dt_jm + 0.0
        else:
            residual = forms.mass_u1 @ (h1 - h0)
            residual *= params.mu0
            residual += dt_jm
        flux = CT @ (e0 + e1)
        flux *= 0.5 * dt
        residual += flux
        h1 = h1 - solve(residual)
        return e_end(h1), h1

    return sweep, e_start, h_start


def _nedelec_sweep(state: State, dt: float, forms: AssembledForms,
                   je: np.ndarray, jm: np.ndarray, kerr: _KerrMarch | None):
    """Sweep of the nedelec step and its start iterate: a chord update of E
    on the free edges for R(E1) = D(E1) - D(E0) - dt (K^T H_mid - j_e),
    whose Jacobian :func:`assemble_nonlinear_mass_curl` is factorized and
    held as :func:`_chord_solver` says, and re-evaluated at the current E1
    when ``refresh`` is set (see :func:`_midpoint_sweeps`).  H1 follows
    exactly from the discrete curl of E1, so the ``h1`` argument is not
    read.  The start iterate is (E0, H0) or the end E that the Kerr march
    ``kerr`` predicts, with H following from it."""
    params = forms.params
    ctx = forms.ctx
    free = forms.free_edges
    KT = forms.coupling_ned_t
    e0, h0 = state.e, state.h
    jm_term = forms.solve_mass_v1(jm) if jm.any() else 0.0
    d0 = assemble_flux_load(ctx, params, e0)[free]

    def h_end(e1):
        return h0 - (dt / params.mu0) * (forms.discrete_curl @ (0.5 * (e0 + e1)) + jm_term)

    # a march changes no constrained edge, so a predicted E keeps E0's there
    start = None if kerr is None else kerr(e0)
    e_start, h_start = (e0, h0) if start is None else (start, h_end(start))
    solve, refresh_solver = _chord_solver(forms, "nedelec", dt, assemble_nonlinear_mass_curl,
                                          linalg.factorized, e_start, kerr)

    def sweep(e1, h1, refresh):
        nonlocal solve
        # a start from E0 itself (every linear step) takes its load from d0
        d1 = d0 if e1 is e0 else assemble_flux_load(ctx, params, e1)[free]
        residual = (d1 - d0
                    - dt * (KT @ (0.5 * (h0 + h_end(e1))) - je[free]))
        if refresh:
            solve = refresh_solver(e1)
        e1 = e1.copy()
        e1[free] -= solve(residual)
        return e1, h_end(e1)

    return sweep, e_start, h_start


_MIDPOINT_SWEEPS = {"lee-madsen": _lee_madsen_sweep, "nedelec": _nedelec_sweep}


def _step_midpoint(state: State, dt: float, forms: AssembledForms, je: np.ndarray,
                   jm: np.ndarray, tol: float, kerr: _KerrMarch | None) -> State:
    """One implicit-midpoint step on the flux form, second order in dt, with
    the source loads ``je``, ``jm`` at the step's midpoint t + dt/2, in the
    Kerr march ``kerr`` (see :class:`_KerrMarch`) or, when it is None, in a
    linear medium."""
    sweep, e_start, h_start = _MIDPOINT_SWEEPS[state.formulation](state, dt, forms, je, jm,
                                                                  kerr)
    e1, h1 = _midpoint_sweeps(e_start, h_start, sweep, tol, kerr is None)
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
    + ||H||^2_{mu0} ]; in closed form, cellwise in the lee-madsen case and
    from the vertex values (:func:`kerrfem.assembly.electric_energy`) in the
    nedelec case.
    """
    params = forms.params
    ctx = forms.ctx
    if state.formulation == "lee-madsen":
        e2 = _norm_sq(state.e.reshape(ctx.num_tets, 3))
        we = np.sum(ctx.vol * (0.5 * params.eps_lin * e2
                               + 0.75 * params.eps0 * params.chi3 * e2 * e2))
        wh = 0.5 * params.mu0 * float(state.h @ (forms.mass_u1 @ state.h))
        return float(we + wh)
    we = electric_energy(ctx, params, state.e)
    wh = 0.5 * params.mu0 * float(state.h @ (forms.mass_v1 @ state.h))
    return we + wh


def e_max_norm(state: State, forms: AssembledForms) -> float:
    """Max pointwise |E_h|, exact: an edge field is linear on each tet and
    its magnitude convex, so it peaks at a vertex."""
    if state.formulation == "lee-madsen":
        e2 = _norm_sq(state.e.reshape(-1, 3))
    else:
        E = forms.ctx.dof_u.vertex_field(state.e)
        e2 = np.einsum("tvd,tvd->tv", E, E)
    return float(np.sqrt(np.max(e2))) if e2.size else 0.0


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

    The Kerr midpoint steps of one call are one march (:class:`_KerrMarch`):
    they predict their sweeps' start from the accepted values of the
    iterated unknown (H for lee-madsen, E for nedelec) in this call, and
    carry their lagged Jacobian from step to step.  The first two steps
    start from the current state, the least-squares candidate enters at
    step :data:`LSQ_WINDOW` + 1, and the first step evaluates the Jacobian
    at its start.  A march split over two calls starts both afresh, so its
    steps agree with one call's to the sweep tolerance, not bitwise; two
    calls from one state at one dt are bitwise equal.
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
    kerr = _KerrMarch() if stepper == "midpoint" and forms.params.chi3 > 0.0 else None
    current = state
    for step in range(1, num_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                if need_loads:
                    je, jm = _loads(forms, current.formulation, sources, current.t + 0.5 * dt)
                if stepper == "midpoint":
                    new = _step_midpoint(current, dt, forms, je, jm, nonlinear_tol, kerr)
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
