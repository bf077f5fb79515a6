"""Sim-time sampler: periodic gauge snapshots into an in-memory time series.

The sampler is a kernel process that wakes every ``interval`` seconds of
*virtual* time, evaluates every registered gauge, and appends one row to
``samples``.  Disabled (never started), it schedules nothing and perturbs
nothing — the zero-overhead contract of the observability layer.  Enabled,
it is exactly as deterministic as the rest of the kernel: ticks land at
``start + k * interval`` and gauge reads have no side effects, so reruns
(and ``--schedule-seed`` perturbations) produce byte-identical series.
Ticks ride :class:`~repro.sim.core.LateTimeout`, resuming after every other
event at the same instant — an end-of-instant snapshot is the same for any
same-time delivery order; a mid-instant one would be schedule-dependent.

Start/stop bracket the measured window (``run_closed_loop`` drives both).
``stop()`` only clears a flag; the already-scheduled tick sees it on wakeup
and exits, so the kernel's run-until-heap-empty loop still terminates.  A
generation counter makes start/stop re-entrant across sequential windows
(preload vs measured run) without ever leaving two ticker processes alive.
"""

from collections import deque
from typing import Dict, List, Tuple

__all__ = ["DEFAULT_INTERVAL", "DEFAULT_MAX_SAMPLES", "Sampler", "install_stats"]

#: 10 ms of virtual time, the cadence the paper-style utilization plots need.
DEFAULT_INTERVAL = 0.01

#: retention bound: a multi-hour simulated serve cannot grow sampler memory
#: without limit — the oldest rows are evicted and counted in ``dropped``.
DEFAULT_MAX_SAMPLES = 200000


class Sampler:
    """Periodic probe over ``env.metrics`` gauges."""

    def __init__(self, env, interval: float = DEFAULT_INTERVAL,
                 max_samples: int = DEFAULT_MAX_SAMPLES):
        if interval <= 0:
            raise ValueError("sampler interval must be positive")
        if max_samples < 1:
            raise ValueError("max_samples must be positive")
        self.env = env
        self.interval = interval
        self.max_samples = max_samples
        #: (sim_time, {gauge_name: value}) rows, in time order (a ring:
        #: the newest ``max_samples`` rows are kept, older ones dropped).
        self.samples: deque = deque()
        #: rows evicted at the retention cap (surfaced by the CSV export).
        self.dropped = 0
        self._running = False
        self._generation = 0

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Begin ticking at the current sim time (idempotent)."""
        if self._running:
            return
        self._running = True
        self._generation += 1
        self.env.sim.spawn(
            self._ticker(self._generation), "metrics-sampler"
        )

    def stop(self) -> None:
        """Stop after the current tick; pending wakeups become no-ops."""
        self._running = False

    def sample_once(self) -> None:
        """Take one snapshot immediately (also used by each tick).

        At the retention cap the *oldest* row is evicted (unlike the event
        log, nothing indexes sampler rows by position) so a long serve keeps
        its most recent history; evictions are counted in ``dropped``.
        """
        self.samples.append(
            (self.env.sim.now, self.env.metrics.gauge_values())
        )
        while len(self.samples) > self.max_samples:
            self.samples.popleft()
            self.dropped += 1

    def _ticker(self, generation: int):
        # Late timeouts resume at the *end* of each instant, after every
        # same-time model event — the only snapshot point that is identical
        # for all same-time delivery orders (i.e. under --schedule-seed).
        yield self.env.sim.timeout_late(0.0)
        while self._running and self._generation == generation:
            self.sample_once()
            yield self.env.sim.timeout_late(self.interval)

    def column_names(self) -> List[str]:
        """Union of gauge names across all rows, sorted (CSV header order)."""
        names = set()
        for _t, row in self.samples:
            names.update(row)
        return sorted(names)


def install_stats(env, interval_ms: float = DEFAULT_INTERVAL * 1e3) -> Sampler:
    """Turn on the observability layer for one env: per-request perf
    contexts plus a (not yet started) sampler at ``interval_ms``."""
    env.metrics.perf_enabled = True
    sampler = Sampler(env, interval=interval_ms / 1e3)
    env.metrics.sampler = sampler
    return sampler
