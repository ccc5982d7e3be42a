"""Manufactured solutions, exact reference solutions, error norms, and
convergence-order studies.

Every exact field here is time-separable, F(t, x) = sum_k a_k(t) g_k(x),
the form :class:`~kerrfem.dynamics.Sources` takes: a manufactured case is
built from ``(a, g)`` terms alone, and each of its closures is the sum of
its terms.  The current densities are *defined* as the strong-form
residuals, so the chosen fields solve the forced system identically; their
spatial shapes reuse the field shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import AssembledForms, build_forms, curl_project, l2_project
from .dynamics import Sources, State, initialize, integrate
from .material import MaterialParams
from .mesh import Mesh, build_topology, generate_structured_cube, mesh_size

PI = math.pi
# the exactly solvable cases of :func:`get_case`, and their default final time
EXACT_CASES = ("cavity", "kerr-manufactured")
T_FINAL = 1.0
# a convergence study's dt = DT_FACTOR h^2
DT_FACTOR = 0.08


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution closures and the sources that make them exact.

    All field closures map ``(t, points (m, 3))`` to ``(m, 3)`` arrays.  The
    electric field satisfies the perfect-conductor condition on the unit
    cube by construction.  ``j_e_terms``/``j_m_terms`` are the currents'
    time-separable terms (see :class:`~kerrfem.dynamics.Sources`), empty for
    source-free exact solutions; ``j_e``/``j_m`` are their sums as closures
    (``None`` when source-free), the strong-form reference.
    """

    name: str
    params: MaterialParams
    t_final: float
    E: object
    H: object
    dt_E: object
    dt_H: object
    curl_E: object
    curl_H: object
    j_e: object = None
    j_m: object = None
    j_e_terms: tuple = ()
    j_m_terms: tuple = ()

    @property
    def sources(self) -> Sources:
        return Sources(self.j_e_terms, self.j_m_terms)


def _sines(X):
    return np.sin(PI * X[:, 0]), np.sin(PI * X[:, 1]), np.sin(PI * X[:, 2])


def _cosines(X):
    return np.cos(PI * X[:, 0]), np.cos(PI * X[:, 1]), np.cos(PI * X[:, 2])


def _sum_of_terms(terms):
    """Closure (t, points) -> sum_k a_k(t) g_k(points) of separable terms."""

    def f(t, X):
        X = np.atleast_2d(X)
        return sum(a(t) * g(X) for a, g in terms)

    return f


def _separable_case(name, params, t_final, fields, j_e_terms=(), j_m_terms=()):
    """A ManufacturedCase whose every closure sums its ``(a, g)`` terms;
    ``fields`` maps E, H, dt_E, dt_H, curl_E and curl_H to their terms."""
    return ManufacturedCase(
        name=name,
        params=params,
        t_final=t_final,
        j_e=_sum_of_terms(j_e_terms) if j_e_terms else None,
        j_m=_sum_of_terms(j_m_terms) if j_m_terms else None,
        j_e_terms=j_e_terms,
        j_m_terms=j_m_terms,
        **{key: _sum_of_terms(terms) for key, terms in fields.items()},
    )


# Kerr case shapes: E, H and their curls.
def _kerr_e(X):
    sx, sy, sz = _sines(X)
    return np.stack([sy * sz, sx * sz, sx * sy], axis=-1)


def _kerr_h(X):
    sx, sy, sz = _sines(X)
    return np.stack([sy, sz, sx], axis=-1)


def _kerr_curl_e(X):
    sx, sy, sz = _sines(X)
    cx, cy, cz = _cosines(X)
    return PI * np.stack([sx * (cy - cz), sy * (cz - cx), sz * (cx - cy)], axis=-1)


def _kerr_curl_h(X):
    cx, cy, cz = _cosines(X)
    return -PI * np.stack([cz, cx, cy], axis=-1)


# Cavity shapes: curl S_E = -pi S_H and curl S_H = -2 pi S_E.
def _cavity_e(X):
    sx, sy, _ = _sines(X)
    zero = np.zeros(len(X))
    return np.stack([zero, zero, sx * sy], axis=-1)


def _cavity_h(X):
    sx, sy, _ = _sines(X)
    cx, cy, _ = _cosines(X)
    return np.stack([-sx * cy, cx * sy, np.zeros(len(X))], axis=-1)


def kerr_manufactured_case(params: MaterialParams, t_final: float = T_FINAL) -> ManufacturedCase:
    """Smooth forced solution on the unit cube for arbitrary Kerr parameters.

    E(t, x) = cos(t) (sin pi y sin pi z, sin pi x sin pi z, sin pi x sin pi y)
    vanishes tangentially on all six faces; H(t, x) = sin(t)
    (sin pi y, sin pi z, sin pi x) starts at zero, so projection-based
    initial data is exact.  The currents absorb both equations' residuals;
    with S_E, S_H the shapes of E and H they separate in time as

        j_e = sin t (curl S_H + eps0 (1+chi1) S_E)
              + sin t cos^2 t 3 eps0 chi3 |S_E|^2 S_E,
        j_m = cos t (-mu0 S_H - curl S_E).
    """

    def j_e_linear(X):
        return _kerr_curl_h(X) + params.eps_lin * _kerr_e(X)

    def j_e_kerr(X):
        S = _kerr_e(X)
        return 3.0 * params.eps0 * params.chi3 * np.sum(S * S, axis=-1)[:, None] * S

    def j_m_shape(X):
        return -params.mu0 * _kerr_h(X) - _kerr_curl_e(X)

    return _separable_case(
        "kerr-manufactured", params, t_final,
        dict(E=((math.cos, _kerr_e),),
             H=((math.sin, _kerr_h),),
             dt_E=((lambda t: -math.sin(t), _kerr_e),),
             dt_H=((math.cos, _kerr_h),),
             curl_E=((math.cos, _kerr_curl_e),),
             curl_H=((math.sin, _kerr_curl_h),)),
        j_e_terms=((math.sin, j_e_linear),
                   (lambda t: math.sin(t) * math.cos(t) ** 2, j_e_kerr)),
        j_m_terms=((math.cos, j_m_shape),),
    )


def cavity_mode_case(t_final: float = T_FINAL) -> ManufacturedCase:
    """Source-free eigenmode of the linear unit-cube cavity.

    E = (0, 0, sin pi x sin pi y cos omega t) with omega = sqrt(2) pi; the
    matching H solves the source-free system exactly with vacuum parameters
    and satisfies the divergence-free and zero-normal-trace conditions, and
    the total energy is constant (= 1/8) in time.
    """
    omega = math.sqrt(2.0) * PI
    return _separable_case(
        "cavity", MaterialParams(), t_final,
        dict(E=((lambda t: math.cos(omega * t), _cavity_e),),
             H=((lambda t: (PI / omega) * math.sin(omega * t), _cavity_h),),
             dt_E=((lambda t: -omega * math.sin(omega * t), _cavity_e),),
             dt_H=((lambda t: PI * math.cos(omega * t), _cavity_h),),
             curl_E=((lambda t: -PI * math.cos(omega * t), _cavity_h),),
             curl_H=((lambda t: -omega * math.sin(omega * t), _cavity_e),)),
    )


def get_case(name: str, params: MaterialParams | None = None,
             t_final: float = T_FINAL) -> ManufacturedCase:
    """The named case; the cavity is a vacuum solution and ignores params."""
    if name == "cavity":
        return cavity_mode_case(t_final)
    if name == "kerr-manufactured":
        if params is None:
            params = MaterialParams(chi3=1.0)
        return kerr_manufactured_case(params, t_final)
    raise ValueError(f"unknown case {name!r}")


def error_norms(state: State, case: ManufacturedCase,
                forms: AssembledForms) -> tuple[float, float]:
    """Weighted errors (||E_h - E||_eps0, ||H_h - H||_mu0) at state.t."""
    ctx = forms.ctx
    params = forms.params
    dof_e, dof_h = ctx.spaces(state.formulation)
    E_h = ctx.field(dof_e, state.e)
    H_h = ctx.field(dof_h, state.h)
    err_e = params.eps0 * ctx.norm_sq(E_h - ctx.sample(lambda X: case.E(state.t, X)))
    err_h = params.mu0 * ctx.norm_sq(H_h - ctx.sample(lambda X: case.H(state.t, X)))
    return math.sqrt(err_e), math.sqrt(err_h)


@dataclass
class EocTable:
    """Mesh sizes, terminal-time errors, and experimental convergence orders."""

    levels: np.ndarray   # subdivision counts n, doubling
    h: np.ndarray
    err_e: np.ndarray
    err_h: np.ndarray
    eoc_e: np.ndarray    # len(levels) - 1 entries
    eoc_h: np.ndarray
    monotone: bool = True

    def combined_eoc(self) -> np.ndarray:
        total = self.err_e + self.err_h
        return np.log2(total[:-1] / total[1:])

    def rows(self):
        out = []
        for i, n in enumerate(self.levels):
            ee = "" if i == 0 else f"{self.eoc_e[i - 1]:.6f}"
            eh = "" if i == 0 else f"{self.eoc_h[i - 1]:.6f}"
            out.append(
                f"{n},{self.h[i]:.12e},{self.err_e[i]:.12e},"
                f"{self.err_h[i]:.12e},{ee},{eh}"
            )
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("n,h,errE,errH,eocE,eocH\n")
            for row in self.rows():
                fh.write(row + "\n")


def _check_doubling(levels) -> np.ndarray:
    levels = np.asarray(levels, dtype=np.int64)
    if len(levels) < 2:
        raise ValueError("need at least two refinement levels")
    if np.any(levels[1:] != 2 * levels[:-1]):
        raise ValueError(f"levels must double, got {levels.tolist()}")
    return levels


def _make_table(levels, hs, errs_e, errs_h) -> EocTable:
    errs_e = np.asarray(errs_e)
    errs_h = np.asarray(errs_h)
    total = errs_e + errs_h
    return EocTable(
        levels=np.asarray(levels),
        h=np.asarray(hs),
        err_e=errs_e,
        err_h=errs_h,
        eoc_e=np.log2(errs_e[:-1] / errs_e[1:]),
        eoc_h=np.log2(errs_h[:-1] / errs_h[1:]),
        monotone=bool(np.all(total[1:] < total[:-1])),
    )


def discretize(case: ManufacturedCase, mesh: Mesh, params: MaterialParams,
               formulation: str) -> tuple[AssembledForms, State]:
    """The forms of ``mesh`` in the medium ``params`` and the discrete
    initial data of ``case`` in ``formulation``; ``params`` need not be the
    case's own (a source-free run may start from the cavity's data in any
    medium)."""
    forms = build_forms(mesh, build_topology(mesh), params)
    return forms, initialize(lambda X: case.E(0.0, X), lambda X: case.H(0.0, X), formulation,
                             forms, H0_curl=lambda X: case.curl_H(0.0, X))


def run_convergence(case: ManufacturedCase, levels, formulation: str = "lee-madsen",
                    dt_factor: float = DT_FACTOR, stepper: str = "midpoint") -> EocTable:
    """Terminal-time error study under mesh halving with dt proportional to
    h^2, so the midpoint's temporal error stays well below the spatial one."""
    if not (math.isfinite(dt_factor) and dt_factor > 0.0):
        raise ValueError(f"dt_factor must be finite and > 0, got {dt_factor}")
    T = case.t_final
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"t_final must be finite and > 0, got {T}")
    levels = _check_doubling(levels)
    hs, errs_e, errs_h = [], [], []
    for n in levels:
        mesh = generate_structured_cube(int(n))
        h = mesh_size(mesh)
        dt_target = dt_factor * h * h
        if not (dt_target > 0.0 and math.isfinite(T / dt_target)):
            raise ValueError(f"t_final / (dt_factor h^2) overflows the step count at level "
                             f"{n} (t_final = {T}, dt_factor = {dt_factor}, h = {h:.6g})")
        forms, state = discretize(case, mesh, case.params, formulation)
        num_steps = max(1, math.ceil(T / dt_target))
        dt = T / num_steps
        state, _ = integrate(state, dt, num_steps, case.sources, forms,
                             stepper=stepper, collect=False)
        ee, eh = error_norms(state, case, forms)
        hs.append(h)
        errs_e.append(ee)
        errs_h.append(eh)
    return _make_table(levels, hs, errs_e, errs_h)


def projection_study(levels) -> EocTable:
    """Rates of the two projection operators on smooth reference fields.

    Column errE holds the cellwise-average projection error of
    sin(pi x) e_1; column errH the curl-matching projection error of the
    cavity's divergence-free, tangential-boundary H shape
    (-sin pi x cos pi y, cos pi x sin pi y, 0).  Both decay like h.
    """
    levels = _check_doubling(levels)

    def w_field(X):
        X = np.atleast_2d(X)
        out = np.zeros_like(X)
        out[:, 0] = np.sin(PI * X[:, 0])
        return out

    hs, errs_w, errs_v = [], [], []
    for n in levels:
        mesh = generate_structured_cube(int(n))
        topo = build_topology(mesh)
        forms = build_forms(mesh, topo, MaterialParams())
        ctx = forms.ctx
        w_h = ctx.field(forms.dof_w, l2_project(ctx, w_field))
        err_w = math.sqrt(ctx.norm_sq(w_h - ctx.sample(w_field)))
        v_h = ctx.field(forms.dof_u, curl_project(
            forms, _cavity_h, lambda X: -2.0 * PI * _cavity_e(X)))
        err_v = math.sqrt(ctx.norm_sq(v_h - ctx.sample(_cavity_h)))
        hs.append(mesh_size(mesh))
        errs_w.append(err_w)
        errs_v.append(err_v)
    return _make_table(levels, hs, errs_w, errs_v)
