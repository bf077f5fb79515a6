"""Host-speed probes interleaved with the measured window.

On a shared host the same window can take twice as long from one second
to the next, because the CPU's speed changes under other tenants' load.
:class:`Calibration` measures that speed while the window runs: an
interval timer interrupts the simulator every ``INTERVAL_S`` of wall time
and runs a fixed probe, a miniature event loop of generators on a heap.
The probe is the benchmark's own code, so a change to the program cannot
slow the probe along with the simulator and hide itself.  Nor can a change
that slows the whole process: the probe runs with the garbage collector
and any profile or trace hook (a stray ``sys.setprofile``) switched off.
A hook that cannot be put back once switched off, such as ``cProfile``'s
(``sys.getprofile()`` returns an object that is not callable), makes the
calibrated time an error instead.

``speed = REF_PROBE_S / probe duration`` is 1.0 when the host runs at the
reference speed.  The calibrated window is the wall time the program had,
probes excluded, times the mean speed over the window: the time the window
would have taken at the reference speed.
"""

import gc
import signal
import sys
import time
from heapq import heappop, heappush
from typing import List

__all__ = ["Calibration", "probe"]

#: wall seconds between probes.
INTERVAL_S = 0.025
#: duration of one probe at the reference speed.
REF_PROBE_S = 250e-6


class _Wake:
    __slots__ = ("delay", "value")

    def __init__(self, delay: int, value: int):
        self.delay = delay
        self.value = value


def _process(i: int):
    total = 0
    for step in range(30):
        total += yield _Wake(step % 3, i)
    return total


def probe() -> None:
    """A fixed amount of kernel-like work: 8 generators, 240 resumes."""
    heap: list = []
    seq = 0
    for i in range(8):
        seq += 1
        heappush(heap, (0, seq, _process(i), None))
    while heap:
        when, _, gen, wake = heappop(heap)
        try:
            nxt = gen.send(None if wake is None else wake.value)
        except StopIteration:
            continue
        seq += 1
        heappush(heap, (when + nxt.delay, seq, gen, nxt))


class Calibration:
    """Context manager: probe the host speed while the block runs.

    ``Calibration(False)`` probes nothing and calibrates nothing, for
    blocks whose wall time is wanted as it is.
    """

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.durations: List[float] = []
        #: a profile or trace hook the probe could not switch off.
        self.unswitchable = None
        self._previous = None

    def _probe(self, _signum, _frame) -> None:
        profile, trace = sys.getprofile(), sys.gettrace()
        for hook in (profile, trace):
            if hook is not None and not callable(hook):
                self.unswitchable = hook
                return
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not probe time
        sys.setprofile(None)  # nor is a hook the program installed
        sys.settrace(None)
        try:
            start = time.perf_counter()
            probe()
            self.durations.append(time.perf_counter() - start)
        finally:
            sys.settrace(trace)
            sys.setprofile(profile)
            if enabled:
                gc.enable()

    def __enter__(self) -> "Calibration":
        if self.probing:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def calibrated(self, window_s: float) -> float:
        """``window_s`` (probes included) as seconds at the reference speed."""
        if self.unswitchable is not None:
            raise RuntimeError("a profile or trace hook that cannot be switched "
                               "off for the probe ran in the window: %r"
                               % (self.unswitchable,))
        if not self.durations:
            return window_s
        speed = sum(REF_PROBE_S / d for d in self.durations) / len(self.durations)
        return (window_s - sum(self.durations)) * speed
