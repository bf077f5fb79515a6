"""Experiment metrics: what every benchmark reports.

A :class:`MetricsCollector` snapshots the shared device/CPU state at workload
start and end, and accumulates per-operation latencies, so trailing
background work (compactions draining after the last op) does not pollute
the measured window — mirroring how the paper measures throughput over the
foreground run.

The machine state is read through the env's :class:`~repro.metrics.registry.
StatsRegistry` (the ``device.*``/``cpu.*`` providers and gauges registered by
``make_env``), so the registry is the single source both the collector and
the sim-time sampler consume.

Windowing contract: at most one collector may be *measuring* an env at a
time (overlapping windows would double-count cumulative deltas).  Use
:func:`scoped_collector` to guarantee the slot is released even when a run
raises, or :meth:`MetricsCollector.reset` to reuse/abandon a collector
explicitly.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.sim.stats import Histogram
from repro.trace.attribution import fig06_from_spans

__all__ = ["Metrics", "MetricsCollector", "scoped_collector"]


@dataclass
class Metrics:
    system: str
    n_ops: int
    elapsed: float
    latency: Dict[str, Histogram]
    device_bytes: Dict[str, float]
    #: windowed per-kind:category byte deltas (e.g. "write:compaction").
    device_bytes_kind: Dict[str, float]
    device_read_bytes: float
    device_write_bytes: float
    user_bytes_written: float
    cpu_busy: float
    cpu_busy_by_kind: Dict[str, float]
    per_core_util: List[float]
    memory_bytes: int
    n_cores: int
    write_bandwidth: float
    extra: dict = field(default_factory=dict)

    @property
    def qps(self) -> float:
        return self.n_ops / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def write_amplification(self) -> float:
        """Total device writes / user payload bytes (the paper's IO amp)."""
        if self.user_bytes_written <= 0:
            return 0.0
        return self.device_write_bytes / self.user_bytes_written

    @property
    def io_amplification(self) -> float:
        """(reads + writes) / user bytes, Figure 12b's metric."""
        if self.user_bytes_written <= 0:
            return 0.0
        return (
            self.device_read_bytes + self.device_write_bytes
        ) / self.user_bytes_written

    @property
    def bandwidth_utilization(self) -> float:
        """Moved bytes / (write bandwidth * elapsed), Figure 12c's metric."""
        if self.elapsed <= 0:
            return 0.0
        return (self.device_read_bytes + self.device_write_bytes) / (
            self.write_bandwidth * self.elapsed
        )

    @property
    def cpu_utilization(self) -> float:
        """Average busy cores over the run (paper normalizes to one core,
        e.g. 1694% in Table 2 == 16.94 cores)."""
        if self.elapsed <= 0:
            return 0.0
        return self.cpu_busy / self.elapsed

    def latency_of(self, verb_class: str) -> Histogram:
        return self.latency.get(verb_class, Histogram())

    @property
    def avg_latency(self) -> float:
        total, count = 0.0, 0
        for hist in self.latency.values():
            total += hist.mean * hist.count
            count += hist.count
        return total / count if count else 0.0

    @property
    def p99_latency(self) -> float:
        merged = Histogram()
        for hist in self.latency.values():
            for sample in hist._samples:
                merged.record(sample)
        return merged.p99


class MetricsCollector:
    """Start/stop snapshots around the measured window.

    At most ONE collector may be measuring a given env at a time.  The
    windowing works by differencing cumulative counters (device bytes, CPU
    busy time) between :meth:`start` and :meth:`finish`; two overlapping
    collectors would both attribute the same interval's deltas to their own
    windows — e.g. compaction bytes trailing from a preload phase would be
    double-counted into both results.  Sequential windows (preload collector
    finished, then a measured collector) are fine.  :meth:`start` asserts
    this contract; :meth:`reset` releases the slot and clears accumulated
    state, and :func:`scoped_collector` wraps both in a context manager.
    """

    def __init__(self, env, system_name: str):
        self.env = env
        self.system_name = system_name
        self.latency: Dict[str, Histogram] = {}
        #: typed-error counts by code; stays empty (and invisible in the
        #: output) on fault-free runs.
        self.errors: Dict[str, int] = {}
        self._t0: Optional[float] = None
        self._dev0: Dict[str, float] = {}
        self._cpu0 = 0.0
        self._cpu_kind0: Dict[str, float] = {}
        self._kind0: Dict[str, float] = {}
        self._rw0 = (0.0, 0.0)
        self._core0: List[float] = []
        self.memory_peak = 0

    # -- registry reads ----------------------------------------------------

    def _provider(self, name: str) -> Dict[str, float]:
        return self.env.metrics.providers[name]()

    def _gauge(self, name: str) -> float:
        return self.env.metrics.gauges[name].read()

    # -- windowing ---------------------------------------------------------

    def start(self) -> None:
        active = getattr(self.env, "_active_collector", None)
        assert active is None or active is self, (
            "env already has an active MetricsCollector (%r); overlapping "
            "windows double-count cumulative deltas — finish it, or use "
            "reset()/scoped_collector() to release the slot"
            % (active.system_name,)
        )
        self.env._active_collector = self
        self._t0 = self.env.sim.now
        self._dev0 = self._provider("device.bytes_by_category")
        self._kind0 = self._provider("device.bytes_by_kind")
        self._cpu0 = self._gauge("cpu.busy_seconds_total")
        self._cpu_kind0 = self._provider("cpu.busy_by_kind")
        self._core0 = [t.busy_time for t in self.env.cpu.trackers]
        self._rw0 = (
            self._gauge("device.read_bytes_total"),
            self._gauge("device.write_bytes_total"),
        )

    def release(self) -> None:
        """Give up the env's measuring slot if this collector holds it."""
        if getattr(self.env, "_active_collector", None) is self:
            self.env._active_collector = None

    def reset(self) -> None:
        """Release the measuring slot and drop all accumulated state, so
        this collector can :meth:`start` a fresh window (or be abandoned
        without wedging the env for the next collector)."""
        self.release()
        self.latency = {}
        self.errors = {}
        self._t0 = None
        self._dev0 = {}
        self._cpu0 = 0.0
        self._cpu_kind0 = {}
        self._kind0 = {}
        self._rw0 = (0.0, 0.0)
        self._core0 = []
        self.memory_peak = 0

    def record_latency(self, verb_class: str, seconds: float) -> None:
        hist = self.latency.get(verb_class)
        if hist is None:
            hist = self.latency[verb_class] = Histogram()
        hist.record(seconds)

    def note_memory(self, nbytes: int) -> None:
        self.memory_peak = max(self.memory_peak, nbytes)

    def record_error(self, code: str) -> None:
        """Count a typed per-op failure (KVError.code) in the window."""
        self.errors[code] = self.errors.get(code, 0) + 1

    def finish(self, n_ops: int, user_bytes_written: float, memory_bytes: int) -> Metrics:
        env = self.env
        self.release()
        elapsed = env.sim.now - self._t0
        dev1 = self._provider("device.bytes_by_category")
        device_bytes = {
            category: dev1.get(category, 0.0) - self._dev0.get(category, 0.0)
            for category in set(dev1) | set(self._dev0)
        }
        kind1 = self._provider("device.bytes_by_kind")
        device_bytes_kind = {
            k: kind1.get(k, 0.0) - self._kind0.get(k, 0.0)
            for k in set(kind1) | set(self._kind0)
        }
        read1 = self._gauge("device.read_bytes_total")
        write1 = self._gauge("device.write_bytes_total")
        cpu_kind1 = self._provider("cpu.busy_by_kind")
        busy_by_kind = {
            kind: cpu_kind1.get(kind, 0.0) - self._cpu_kind0.get(kind, 0.0)
            for kind in set(cpu_kind1) | set(self._cpu_kind0)
        }
        metrics = Metrics(
            system=self.system_name,
            n_ops=n_ops,
            elapsed=elapsed,
            latency=self.latency,
            device_bytes=device_bytes,
            device_bytes_kind=device_bytes_kind,
            device_read_bytes=read1 - self._rw0[0],
            device_write_bytes=write1 - self._rw0[1],
            user_bytes_written=user_bytes_written,
            cpu_busy=self._gauge("cpu.busy_seconds_total") - self._cpu0,
            cpu_busy_by_kind=busy_by_kind,
            per_core_util=[
                (tracker.busy_time - before) / max(elapsed, 1e-12)
                for tracker, before in zip(env.cpu.trackers, self._core0)
            ],
            memory_bytes=max(memory_bytes, self.memory_peak),
            n_cores=env.cpu.n_cores,
            write_bandwidth=env.device.spec.write_bandwidth,
        )
        if self.errors:
            # Only when nonzero: fault-free results stay byte-identical to
            # runs predating the fault plane.
            metrics.extra["errors"] = dict(sorted(self.errors.items()))
        tracer = env.sim.tracer
        if tracer is not None:
            # Span-derived Figure 6 breakdown over the measured window, for
            # the foreground path (user + worker threads; background flush /
            # compaction threads are outside the per-request attribution).
            tracks = {
                t.track for t in env.cpu.threads if t.kind in ("user", "worker")
            }
            metrics.extra["latency_attribution"] = fig06_from_spans(
                tracer, tracks=tracks, window=(self._t0, env.sim.now)
            )
        return metrics


@contextmanager
def scoped_collector(env, system_name: str) -> Iterator[MetricsCollector]:
    """A collector whose measuring slot is released no matter how the block
    exits — a failed benchmark run cannot wedge the env for the next window::

        with scoped_collector(env, "p2kvs-8") as collector:
            metrics = run_closed_loop(env, system, streams, collector=collector)
    """
    collector = MetricsCollector(env, system_name)
    try:
        yield collector
    finally:
        collector.release()
