"""Host-speed reference: a fixed kernel timed at intervals during a run.

The benchmark runs on shared virtual machines whose speed for one process
drifts by up to 1.8x within minutes, with slow stretches that last tens
of seconds; process CPU time drifts with it, so the slowdown is contention
for the core and its caches, not time stolen from the process.  A timed
run therefore also times this kernel, which uses no kerrfem code: it is
timed before and after every repetition, and a timer signal interrupts the
workload once per ``INTERVAL_S`` to time it once more.  Each repetition is
rescaled by the samples taken while it ran,

    factor = (NOMINAL_S / median(kernel times during the repetition)) ** EXPONENT,

to the time it would take on a host on which the kernel takes
``NOMINAL_S``.  The kernel is a batched product of 6x6 matrices over a
working set larger than the per-core cache.  Among the candidates tried
(sparse LU, sparse matvec, interpreted loops, small-array numpy, memory
streaming, mixes of these) its time tracked the slowdown of kerrfem's
Picard loop, nonlinear assembly and set-up most closely, but the kernel
slows down more than they do: their log-times moved by 0.73 to 0.92 times
the kernel's log-time (least squares over the host's drift), hence
``EXPONENT``.

Set-up is a short part of a repetition (a tenth of a second on the
small meshes), so each set-up call is rescaled by the samples taken within
``PAD_S`` of it instead.

The time the handler takes is kept out of the workload's times:
:meth:`Sampler.clock` is ``time.perf_counter`` minus the time spent in the
kernel.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.017   # the kernel's median time on an unloaded 2-vCPU VM
INTERVAL_S = 0.5    # a sample every half second costs about 3.5% of the run
EXPONENT = 0.8      # workload time ~ kernel time ** EXPONENT as the host drifts
PAD_S = 2.0         # reach of the samples that rescale one set-up call


class Sampler:
    """Context manager that samples the kernel's time while it is active."""

    def __init__(self):
        self._q = np.random.default_rng(0).standard_normal((20000, 6, 6))
        self._out = np.empty_like(self._q)  # no allocation while the workload runs
        self.samples: list[float] = []
        self.times: list[float] = []   # clock() at the start of each sample
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def kernel(self) -> float:
        return float(np.einsum("eij,ejk->eik", self._q, self._q, out=self._out)[:, 0, 0].sum())

    def sample(self, *_) -> None:
        if self._busy:  # the timer fired during a sample taken between repetitions
            return
        self._busy = True
        try:
            self.times.append(self.clock())
            start = time.perf_counter()
            self.kernel()
            took = time.perf_counter() - start
            self.samples.append(took)
            self.spent += took
        finally:
            self._busy = False

    def clock(self) -> float:
        """``time.perf_counter`` without the time spent sampling."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def factor(self, first: int, last: int) -> float:
        """Host-speed factor of the samples ``first`` to ``last - 1``."""
        return self._factor(self.samples[first:last])

    def local_factor(self, start: float, end: float) -> float:
        """Host-speed factor of the samples within ``PAD_S`` of the clock
        interval [start, end], or of the three nearest if there are fewer."""
        near = [d for t, d in zip(self.times, self.samples) if start - PAD_S <= t <= end + PAD_S]
        if len(near) < 3:
            mid = 0.5 * (start + end)
            order = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            near = [self.samples[i] for i in order[:3]]
        return self._factor(near)

    @staticmethod
    def _factor(samples: list) -> float:
        return (NOMINAL_S / statistics.median(samples)) ** EXPONENT

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
