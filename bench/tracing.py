"""Spans around calls into kerrfem, recorded from outside the package.

A :class:`Recorder` replaces a public name with a wrapper that times each
call.  Names are patched where the caller looks them up: ``dynamics`` and
``verification`` import most of what they call by name, so patching the
home module alone would miss those calls.  A parent stack of child-time
accumulators gives every span its self time (its duration minus the time
its child spans cover).  Spans are aggregated in memory per name.
"""

from __future__ import annotations

import dataclasses
import time

from kerrfem import assembly, cli_io, dynamics, linalg, mesh, verification

# Spans that make up set-up time (mesh, topology, forms and initial data);
# ``mesh.generate`` is the benchmark's own seeded generator.
SETUP_SPANS = ("mesh.generate", "mesh.topology", "assembly.build_forms",
               "dynamics.initialize")
MARCH_SPAN = "dynamics.integrate"

# (module, attribute, span) patched in every run: the set-up and marching
# entry points, so that set-up time and steps per second can be measured
# with tracing off at a cost of a few wrapped calls per run.
TOP_LEVEL = (
    (mesh, "build_topology", "mesh.topology"),
    (verification, "build_topology", "mesh.topology"),
    (assembly, "build_forms", "assembly.build_forms"),
    (verification, "build_forms", "assembly.build_forms"),
    (dynamics, "initialize", "dynamics.initialize"),
    (verification, "initialize", "dynamics.initialize"),
)

# Further spans of the traced run, one per layer boundary crossed inside
# the time loop, the projections and the EOC study.
LAYERS = (
    (mesh, "mesh_size", "mesh.size"),
    (verification, "mesh_size", "mesh.size"),
    (dynamics, "l2_project", "assembly.projection"),
    (dynamics, "curl_project", "assembly.projection"),
    (linalg, "solve_saddle", "linalg.saddle"),
    (dynamics, "assemble_source", "assembly.source_load"),
    (dynamics, "assemble_flux_load", "assembly.flux_load"),
    (dynamics, "assemble_nonlinear_mass_curl", "assembly.nonlinear_mass"),
    (dynamics, "e_of_d", "material.e_of_d"),
    (dynamics, "d_of_e", "material.d_of_e"),
    (dynamics, "total_energy", "dynamics.monitor"),
    (dynamics, "e_max_norm", "dynamics.monitor"),
    (dynamics, "source_norm_sq", "dynamics.monitor"),
    (verification, "error_norms", "verification.error_norms"),
    (cli_io, "run_convergence", "verification.study"),
    (cli_io, "cli_main", "cli_io.self"),
)


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Recorder:
    """Per-name call counts, inclusive times and self times of spans."""

    def __init__(self, clock=time.perf_counter, logged=()):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        # (start, duration) of every call of the spans named in ``logged``
        self.intervals: dict[str, list[tuple[float, float]]] = {n: [] for n in logged}
        self.steps = 0
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        stack = self._stack
        stats = self.stats.setdefault(name, SpanStats())
        clock = self.clock
        log = self.intervals.get(name)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - children
                if log is not None:
                    log.append((start, elapsed))

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, module, attr: str, replacement) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def total(self, *names: str) -> float:
        return sum(self.stats[n].total for n in names if n in self.stats)

    def self_time(self, name: str) -> float:
        return self.stats[name].self_time if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def install(self, cube, traced: bool) -> None:
        """Patch kerrfem for one run.

        ``cube(n)`` is the seeded mesh generator; the EOC study receives its
        meshes through ``verification.generate_structured_cube``.  With
        ``traced`` every layer boundary gets a span; otherwise only the
        set-up and marching entry points do.
        """
        self.patch(verification, "generate_structured_cube", cube)
        for module, attr, name in TOP_LEVEL + (LAYERS if traced else ()):
            self.patch(module, attr, self.span(name, getattr(module, attr)))
        for module in (dynamics, verification):
            self.patch(module, "integrate",
                       self.span(MARCH_SPAN, self._count_steps(module.integrate)))
        if traced:
            self.patch(linalg, "factorized",
                       self.span("linalg.factorize", self._traced_factorized(linalg.factorized)))
            self.patch(cli_io, "get_case", self._traced_case(cli_io.get_case))

    def _count_steps(self, integrate):
        def counted(state, dt, num_steps, *args, **kwargs):
            self.steps += num_steps
            return integrate(state, dt, num_steps, *args, **kwargs)
        return counted

    def _traced_factorized(self, factorized):
        def traced(A):
            return self.span("linalg.lu_solve", factorized(A))
        return traced

    def _traced_case(self, get_case):
        def traced(*args, **kwargs):
            case = get_case(*args, **kwargs)
            wrap = {k: self.span("verification.source_eval", getattr(case, k))
                    for k in ("j_e", "j_m") if getattr(case, k) is not None}
            return dataclasses.replace(case, **wrap)
        return traced
