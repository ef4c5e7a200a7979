"""CPU times on one scale, whatever speed the shared machine runs at.

On a shared virtual machine the CPU time of the same work is not fixed:
on the machine this benchmark was written on, a pure-Python loop took
1.5 times as long for minutes at a time, as neighbours came and went,
and runs of the same operations drifted by 10% and more.  A
``SpeedProbe`` measures that speed while the program runs: every
``INTERVAL_S`` of CPU time, SIGPROF runs a fixed piece of Python that
shares nothing with kunits and times it.  ``since`` converts the CPU time
spent since a mark to reference seconds: each sample's share of it is
scaled by ``REF_S`` over the sample's time.  The probe's own time is taken
out.  A time in reference seconds is the CPU time the work would take on
a machine where the probe takes ``REF_S``; on the reference machine (a
2-vCPU Intel Xeon VM, Python 3.11.7) that was its faster state.

Times are read with ``thread_time``: while ITIMER_PROF is armed, Linux
reports process CPU time only at the resolution of the scheduler tick.
The worker that uses the probe is single-threaded, so its thread time is
its CPU time.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
# The probe's time on the reference machine in its faster state; pinned,
# so that reference seconds mean the same in every run.
REF_S = 2.2e-4
# Samples from before a mark that also describe the speed after it: an
# operation shorter than INTERVAL_S often gets no sample of its own.
CARRY = 4


def _probe() -> int:
    """Integer arithmetic, then strings, a dict and a list: the two kinds of
    work kunits does, which the neighbours slow by different factors."""
    s = 0
    for i in range(2000):
        s += i * i % 7
    table, out = {}, []
    for i in range(250):
        key = str(i * 7919)
        table[key] = i
        out.append(int(key) % 13)
    return pow(3, 10**4 + s % 5, 2**61 - 1) + sum(out) + len(table)


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def start(self) -> None:
        for _ in range(CARRY):
            self._sample()
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def _on_prof(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        start = time.thread_time()
        _probe()
        took = time.thread_time() - start
        self.samples.append(took)
        self.spent += took

    def mark(self) -> tuple[int, float, float]:
        return len(self.samples), self.spent, time.thread_time()

    def since(self, mark: tuple[int, float, float]) -> float:
        """Reference seconds of the CPU time spent since mark, probes excluded."""
        now = time.thread_time()
        count, spent, start = mark
        cpu = now - start - (self.spent - spent)
        recent = self.samples[max(count - CARRY, 0) :]
        return cpu * sum(REF_S / s for s in recent) / len(recent)
