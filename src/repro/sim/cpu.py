"""CPU core model.

A :class:`CPUSet` owns ``n_cores`` cores.  Simulated threads
(:class:`ThreadContext`) must occupy a core to burn CPU time::

    yield cpu.exec(ctx, 2.9e-6, "memtable")

With more runnable threads than cores, bursts queue — reproducing the core
saturation that caps multi-instance scaling in the paper's Figure 5a.  A
thread may be *pinned* to one core (the paper pins workers to cores and
reports a 10-15% gain); unpinned threads pay a migration penalty when they
land on a different core than their previous burst, which is what that gain
measures.

Per-thread accounting of busy and wait time by category feeds the latency
breakdown of Figure 6 (WAL / MemTable / WAL lock / MemTable lock / Others).
"""

from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.sim.core import Event, SimError, Simulator
from repro.sim.stats import UtilizationTracker
from repro.trace.tracer import thread_track

__all__ = ["CPUSet", "ThreadContext"]


class ThreadContext:
    """Identity + accounting for one simulated thread."""

    __slots__ = (
        "name",
        "kind",
        "pinned",
        "last_core",
        "busy_time",
        "busy_by_category",
        "wait_by_category",
        "sim",
        "track",
        "perf",
    )

    def __init__(
        self,
        name: str,
        kind: str = "user",
        pinned: Optional[int] = None,
        sim: Optional[Simulator] = None,
    ):
        self.name = name
        self.kind = kind  # "user" | "worker" | "background"
        self.pinned = pinned
        self.sim = sim
        self.track = thread_track(name)
        self.last_core: Optional[int] = None
        self.busy_time = 0.0
        self.busy_by_category: Dict[str, float] = defaultdict(float)
        self.wait_by_category: Dict[str, float] = defaultdict(float)
        #: PerfContext of the request/batch this thread is executing, if the
        #: observability layer is on (see repro.metrics.perf_context).
        self.perf = None

    # Every Figure 6 input is accounted in one of two places: CPU bursts in
    # CPUSet._finish, waits (locks, WAL flushes, stalls, the CPU queue) in
    # account_wait.  When tracing is on, each accounted interval is also
    # emitted as a span on this thread's track — every caller accounts
    # dt = now - start, so the interval is exactly [now - dt, now].

    def account_wait(self, category: str, dt: float) -> None:
        self.wait_by_category[category] += dt
        if self.perf is not None:
            self.perf.add_wait(category, dt)
        if self.sim is not None and dt > 0:
            tracer = self.sim.tracer
            if tracer is not None:
                now = self.sim.now
                tracer.complete(category, "wait", self.track, now - dt, now)

    def __repr__(self) -> str:
        return "ThreadContext(%r, kind=%r, pinned=%r)" % (
            self.name,
            self.kind,
            self.pinned,
        )


class CPUSet:
    """A fixed set of cores that simulated threads contend for."""

    def __init__(
        self,
        sim: Simulator,
        n_cores: int,
        migration_overhead: float = 1.5e-6,
        series_bin: Optional[float] = None,
    ):
        if n_cores < 1:
            raise SimError("need at least one core")
        self.sim = sim
        self.n_cores = n_cores
        self.migration_overhead = migration_overhead
        self.trackers: List[UtilizationTracker] = [
            UtilizationTracker(series_bin) for _ in range(n_cores)
        ]
        # busy_kind[c] tracks which thread kind currently occupies core c so
        # utilization can be split into user/worker/background time.
        self.busy_until: List[float] = [0.0] * n_cores
        self._busy: List[bool] = [False] * n_cores
        self._pinned_waiting: List[Deque[Tuple]] = [deque() for _ in range(n_cores)]
        self._global_waiting: Deque[Tuple] = deque()
        #: cores some thread is pinned to; the scheduler steers unpinned
        #: work away from them (as a tuned deployment would via cpusets),
        #: so background bursts don't stall pinned foreground threads.
        self._pinned_cores: set = set()
        self.busy_by_kind: Dict[str, float] = defaultdict(float)
        self.threads: List[ThreadContext] = []
        #: what-if knob (see repro.critpath.whatif): burst durations for a
        #: category are multiplied by its factor.  Empty = exact baseline.
        self.category_scale: Dict[str, float] = {}
        #: per-core tracer/edge track names, formatted once instead of per
        #: burst ("cores:core-3" strings were a measurable share of _finish).
        self._tracks: List[str] = ["cores:core-%d" % c for c in range(n_cores)]

    # -- thread management -------------------------------------------------

    def new_thread(
        self, name: str, kind: str = "user", pinned: Optional[int] = None
    ) -> ThreadContext:
        if pinned is not None and not (0 <= pinned < self.n_cores):
            raise SimError("pin target %r out of range" % (pinned,))
        ctx = ThreadContext(name, kind=kind, pinned=pinned, sim=self.sim)
        if pinned is not None:
            self._pinned_cores.add(pinned)
        self.threads.append(ctx)
        return ctx

    # -- execution -----------------------------------------------------------

    def exec(self, ctx: ThreadContext, duration: float, category: str = "other") -> Event:
        """Occupy a core for ``duration`` seconds; yield the returned event."""
        if duration < 0:
            raise SimError("negative CPU burst")
        if self.category_scale:
            duration *= self.category_scale.get(category, 1.0)
        sim = self.sim
        ev = Event(sim)
        initiator = sim.current_process
        edgelog = sim.edgelog
        if edgelog is not None:
            edgelog.bind_track(ctx.track, initiator)
        item = (ctx, duration, category, ev, sim._now, initiator)
        core = self._pick_core(ctx)
        if core is not None:
            self._start(core, item)
        elif ctx.pinned is not None:
            self._pinned_waiting[ctx.pinned].append(item)
        else:
            self._global_waiting.append(item)
        return ev

    def _pick_core(self, ctx: ThreadContext) -> Optional[int]:
        if ctx.pinned is not None:
            return ctx.pinned if not self._busy[ctx.pinned] else None
        # Prefer the core this thread last ran on (warm cache), then any
        # free core nobody is pinned to, then any free core at all.
        if ctx.last_core is not None and not self._busy[ctx.last_core]:
            return ctx.last_core
        fallback = None
        for c in range(self.n_cores):
            if not self._busy[c]:
                if c not in self._pinned_cores:
                    return c
                if fallback is None:
                    fallback = c
        return fallback

    def _start(self, core: int, item: Tuple) -> None:
        ctx, duration, category, ev, queued_at, initiator = item
        sim = self.sim
        now = sim._now
        if queued_at < now:
            ctx.account_wait("cpu_queue", now - queued_at)
        if (
            ctx.pinned is None
            and ctx.last_core is not None
            and ctx.last_core != core
        ):
            duration += self.migration_overhead
        ctx.last_core = core
        self._busy[core] = True
        sim._call_later(
            duration,
            self._finish,
            (core, ctx, now, duration, category, ev, queued_at, initiator),
        )

    def _finish(self, item: Tuple) -> None:
        """Burst completion: core and thread busy-time accounting, hand the
        core to the next queued burst, then release the waiter."""
        core, ctx, started, duration, category, ev, queued_at, initiator = item
        sim = self.sim
        end = sim._now
        tracker = self.trackers[core]
        tracker.busy_time += end - started
        series = tracker._series
        if series is not None:
            # Single-bin fast path of TimeSeries.add_interval (rate 1.0):
            # identical arithmetic, saves the call for sub-bin bursts.
            width = series.bin_width
            first_bin = int(started / width)
            if end <= (first_bin + 1) * width:
                series._bins[first_bin] += (end - started) * 1.0
            else:
                series.add_interval(started, end, 1.0)
        tracer = sim.tracer
        if tracer is not None:
            # Core-occupancy view: one row per core, labelled by the burst.
            tracer.complete(
                category,
                "core",
                self._tracks[core],
                started,
                end,
                args={"thread": ctx.name},
            )
        ctx.busy_time += duration
        ctx.busy_by_category[category] += duration
        perf = ctx.perf
        if perf is not None:
            perf.cpu_busy_seconds += duration
        if tracer is not None and duration > 0:
            tracer.complete(category, "busy", ctx.track, end - duration, end)
        self.busy_by_kind[ctx.kind] += duration
        self._busy[core] = False
        pinned = self._pinned_waiting[core]
        if pinned:
            self._start(core, pinned.popleft())
        elif self._global_waiting:
            self._start(core, self._global_waiting.popleft())
        sim.wake(
            ev, None, "cpu", category, queued_at,
            "resource", started, initiator, self._tracks[core],
        )

    # -- metrics -------------------------------------------------------------

    def total_busy_time(self) -> float:
        return sum(t.busy_time for t in self.trackers)

    def busy_cores(self) -> int:
        """Cores occupied right now (the sampler's CPU gauge)."""
        return sum(1 for busy in self._busy if busy)

    def utilization(self, elapsed: float) -> float:
        """Aggregate utilization across cores, in [0, n_cores]."""
        if elapsed <= 0:
            return 0.0
        return self.total_busy_time() / elapsed

    def per_core_utilization(self, elapsed: float) -> List[float]:
        return [t.utilization(elapsed) for t in self.trackers]
