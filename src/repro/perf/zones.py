"""Wall-clock zone attribution for the simulator's own hot paths.

A *zone* is a named synchronous code section (``"kernel.dispatch"``,
``"storage.memtable.insert"``).  Which code is which zone is decided here
and nowhere else: :data:`ZONES` maps each zone name to a class attribute or
a module function, :func:`install` swaps every target for a wrapper that
enters the zone and closes it with :meth:`ZoneProfiler.unwind` in a
``finally``, and :func:`uninstall` puts the originals back.  No domain
module carries a probe, so an unprofiled run has none at all.

**Zones never span a simulation yield**: a generator yielding mid-zone
would charge every interleaved process to the open zone, so :func:`install`
raises on a generator-function target (and on a missing one).  A
module-function target is swapped on its defining module, so callers must
look it up there at call time (``runner.run_closed_loop(...)``), not through
a name bound at import; a module run with ``python -m`` resolves as
``__main__``.

The kernel is single-threaded, so one zone stack is enough; zones are
reentrant -- recursive enters of the same name nest and the inner
occurrence attributes its own self time.

Nothing returned from this module may influence the simulation: ``enter``
returns a stack-depth token (for ``unwind``), not a time, and the
``host-time-leak`` flow checker (docs/ANALYSIS.md) errors if any
``repro.perf`` return value reaches a sim-side sink.
"""

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

__all__ = [
    "PROFILER", "ZONES", "ZoneProfiler", "attach", "install", "targets", "uninstall",
]


class ZoneProfiler:
    """Accumulates per-zone (count, total ns, self ns) over a wall window.

    ``total`` is inclusive of nested zones; ``self`` excludes them, so the
    sum of ``self`` across all zones is exactly the wall time spent inside
    at least one zone ("attributed" time).  The remainder of the window
    between :meth:`start` and :meth:`stop` is reported as unattributed.
    """

    __slots__ = ("_stack", "zones", "_started_at", "_wall_ns")

    def __init__(self) -> None:
        #: live zone stack: [name, start_ns, child_ns] per open zone.
        self._stack: List[List] = []
        #: zone name -> [count, total_ns, self_ns].
        self.zones: Dict[str, List[int]] = {}
        self._started_at: Optional[int] = None
        self._wall_ns = 0

    # -- window ----------------------------------------------------------

    def start(self) -> None:
        if self._started_at is None:
            self._started_at = perf_counter_ns()

    def stop(self) -> None:
        if self._started_at is not None:
            self._wall_ns += perf_counter_ns() - self._started_at
            self._started_at = None

    def wall_ns(self) -> int:
        """Wall nanoseconds covered so far (window still open counts)."""
        if self._started_at is None:
            return self._wall_ns
        return self._wall_ns + (perf_counter_ns() - self._started_at)

    # -- hot path --------------------------------------------------------

    def enter(self, name: str) -> int:
        """Open a zone; returns the pre-push stack depth (an unwind token)."""
        stack = self._stack
        depth = len(stack)
        stack.append([name, perf_counter_ns(), 0])
        return depth

    def leave(self) -> None:
        """Close the innermost open zone."""
        now = perf_counter_ns()
        name, begin, child = self._stack.pop()
        elapsed = now - begin
        rec = self.zones.get(name)
        if rec is None:
            rec = self.zones[name] = [0, 0, 0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def unwind(self, depth: int) -> None:
        """Close zones until the stack is back at ``depth``.

        Every zone wrapper closes its zone with this instead of a bare
        :meth:`leave`: if an exception tears through a wrapped call with
        zones still open, leaving the wrapper closes them too rather than
        mis-nesting forever.
        """
        stack = self._stack
        while len(stack) > depth:
            self.leave()

    # -- reporting -------------------------------------------------------

    @property
    def attributed_ns(self) -> int:
        """Wall ns spent inside at least one zone (each ns counted once)."""
        return sum(rec[2] for rec in self.zones.values())

    def snapshot(self) -> dict:
        """Plain-dict summary (host-time values: never goes in sim reports)."""
        wall = self.wall_ns()
        attributed = self.attributed_ns
        return {
            "wall_ns": wall,
            "attributed_ns": attributed,
            "unattributed_ns": max(0, wall - attributed),
            "coverage": (attributed / wall) if wall > 0 else 0.0,
            "zones": {
                name: {"count": rec[0], "total_ns": rec[1], "self_ns": rec[2]}
                for name, rec in sorted(self.zones.items())
            },
        }


#: (zone, target) pairs: ``"module:function"`` or ``"module:Class.attr"``.
#: A zone may name several targets; every target must be a plain function.
ZONES: Tuple[Tuple[str, str], ...] = (
    ("kernel.dispatch", "repro.sim.core:Simulator.run"),
    ("storage.memtable.insert", "repro.storage.memtable:MemTable.add"),
    ("storage.memtable.search", "repro.storage.memtable:MemTable.get"),
    ("storage.wal.encode", "repro.storage.wal:encode_record"),
    ("storage.bloom.probe", "repro.storage.bloom:BloomFilter.may_contain"),
    ("storage.sst.build", "repro.storage.sstable:SSTableBuilder.add"),
    ("engine.batch.encode", "repro.engine.batch:WriteBatch.encode"),
    ("engine.compaction.merge", "repro.engine.db:LSMEngine._merge_chunk"),
    ("obs.trace", "repro.trace.tracer:Tracer._record"),
    ("obs.metrics", "repro.metrics.sampler:Sampler.sample_once"),
    ("obs.sanitize", "repro.analysis.sanitizer:Sanitizer.on_send"),
    ("obs.sanitize", "repro.analysis.sanitizer:Sanitizer.on_receive"),
    ("obs.monitor", "repro.monitor.monitor:HealthMonitor.observe"),
    ("harness.open", "repro.harness.runner:open_system"),
    ("harness.preload", "repro.harness.runner:preload"),
    ("harness.run", "repro.harness.runner:run_closed_loop"),
    ("harness.run", "repro.harness.runner:run_open_loop"),
    ("harness.workload", "repro.tools.dbbench:_ops_for"),
    ("service.preload", "repro.service.load:preload_plane"),
    ("service.run", "repro.service.load:run_service_load"),
)

#: the installed profiler, or None (the default: no target is wrapped).
PROFILER: Optional[ZoneProfiler] = None

#: (owner, attr, original) for every target the installed profiler wrapped.
_SWAPPED: List[Tuple[object, str, object]] = []


def _module(name: str):
    """The module ``name``: ``__main__`` when it was run with ``python -m``."""
    main = sys.modules.get("__main__")
    if getattr(getattr(main, "__spec__", None), "name", None) == name:
        return main
    return importlib.import_module(name)


def targets() -> List[Tuple[str, object, str, object]]:
    """Resolve :data:`ZONES` to ``(zone, owner, attr, current object)``;
    raises on a target its owner does not define or that is a generator."""
    out = []
    for zone, target in ZONES:
        module, _, path = target.partition(":")
        owner = _module(module)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        fn = vars(owner).get(attr)
        if fn is None:
            raise AttributeError("zone %r: %s is not defined" % (zone, target))
        if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
            raise TypeError(
                "zone %r: %s must be a plain (non-generator) function; zones "
                "never span a simulation yield" % (zone, target)
            )
        out.append((zone, owner, attr, fn))
    return out


def _zoned(profiler: ZoneProfiler, zone: str, fn):
    enter, unwind = profiler.enter, profiler.unwind

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tok = enter(zone)
        try:
            return fn(*args, **kwargs)
        finally:
            unwind(tok)

    return wrapper


def install(profiler: Optional[ZoneProfiler] = None) -> ZoneProfiler:
    """Wrap every :data:`ZONES` target and start ``profiler`` (or a new one),
    replacing any installed one.  A bad entry raises before anything is
    swapped.  Install *before* running the simulation."""
    global PROFILER
    uninstall()
    if profiler is None:
        profiler = ZoneProfiler()
    for zone, owner, attr, fn in targets():
        setattr(owner, attr, _zoned(profiler, zone, fn))
        _SWAPPED.append((owner, attr, fn))
    PROFILER = profiler
    profiler.start()
    return profiler


def uninstall() -> None:
    """Put every original target back and stop the profiler's wall window."""
    global PROFILER
    while _SWAPPED:
        owner, attr, fn = _SWAPPED.pop()
        setattr(owner, attr, fn)
    if PROFILER is not None:
        PROFILER.stop()
    PROFILER = None


class attach:
    """Context manager: ``with zones.attach() as prof: ...`` (test-friendly)."""

    def __init__(self, profiler: Optional[ZoneProfiler] = None):
        self.profiler = profiler

    def __enter__(self) -> ZoneProfiler:
        self.profiler = install(self.profiler)
        return self.profiler

    def __exit__(self, *exc) -> None:
        uninstall()
