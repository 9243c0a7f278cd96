"""Machine-speed probe: rescales measured times to a fixed reference speed.

On a shared host the CPU's speed shifts from one moment to the next, by up
to a factor of three within a second and by a quarter between minutes,
and the same op's wall time follows it. While a timed section runs, a
``SIGPROF`` timer interrupts it every ``INTERVAL_S`` of CPU time and times
a fixed pure-Python loop (the probe). The section's time, less the probes'
own, is then rescaled by ``REF_PROBE_S`` / (mean probe time in the
section): the time the section would take at the speed at which a probe
takes ``REF_PROBE_S``. Code that gets faster or slower moves the rescaled
time as it moves the wall time; a slow spell of the machine moves the
probe as much as the code and cancels out.

The probes cost about 1.5% of the section's time. The handler runs between
bytecodes, so a long C call delays its probe but does not lose it (qgeo's
numpy calls on matrices of n <= 8 are short).
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 1e-3
REF_PROBE_S = 10e-6   # a probe's time at the reference speed (≈ the fast mode
#                       of a 2-vCPU Intel Xeon VM with Python 3.11)
_LOOP = range(300)


class Probe:
    """Times the probe loop on every ``SIGPROF`` while armed."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.last_mean = REF_PROBE_S
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        x = 0
        for i in _LOOP:
            x += i
        self.total += time.perf_counter() - start
        self.count += 1

    def section(self) -> "Section":
        return Section(self)


class Section:
    """One timed section, ``with probe.section() as s: ...`` or
    ``start()``/``stop()``; then ``s.raw_s`` is its wall time without the
    probes and ``s.ref_s`` that time at the reference speed."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.raw_s = self.ref_s = 0.0

    def start(self, at: float | None = None) -> "Section":
        """Arm the timer; ``at`` backdates the start to an earlier
        ``time.perf_counter()`` reading."""
        self.count0, self.total0 = self.probe.count, self.probe.total
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.begin = time.perf_counter() if at is None else at
        return self

    def stop(self) -> "Section":
        elapsed = time.perf_counter() - self.begin
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        probe = self.probe
        probes = probe.count - self.count0
        spent = probe.total - self.total0
        if probes:  # a section too short for one probe keeps the last speed
            probe.last_mean = spent / probes
        self.raw_s = elapsed - spent
        self.ref_s = self.raw_s * REF_PROBE_S / probe.last_mean
        return self

    def __enter__(self) -> "Section":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
