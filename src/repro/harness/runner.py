"""Experiment runner: systems under test + closed/open-loop load generation.

Systems (paper Section 5 configurations):

* ``SingleInstanceSystem`` — one engine, user threads call it directly
  (vanilla RocksDB / LevelDB / PebblesDB).
* ``MultiInstanceSystem`` — N independent instances, thread i drives
  instance i (the "multi-instance" database practice of Section 3.2).
* ``P2KVSSystem`` — the framework, optionally with the asynchronous write
  interface (bounded in-flight window), as the micro-benchmarks enable.
* ``KVellSystem`` / ``WiredTigerSystem`` — the baselines.

``run_closed_loop`` spawns one simulated user thread per op stream and
measures per-op latency; ``run_open_loop`` injects ops at a Poisson rate
(Figure 13's intensity sweep).
"""

import random
from typing import Callable, Generator, List, Optional, Sequence, Tuple

from repro.baselines.kvell import KVellLike
from repro.baselines.wiredtiger import WiredTigerLike, wiredtiger_adapter_factory
from repro.core.framework import P2KVS
from repro.core.adapters import adapter_factory
from repro.engine.db import LSMEngine
from repro.engine.env import Env, make_env
from repro.engine.options import (
    EngineOptions,
    leveldb_options,
    pebblesdb_options,
    rocksdb_options,
)
from repro.errors import KVError
from repro.harness.metrics import Metrics, MetricsCollector
from repro.sim.sync import Semaphore

__all__ = [
    "KVellSystem",
    "MultiInstanceSystem",
    "P2KVSSystem",
    "SingleInstanceSystem",
    "WiredTigerSystem",
    "run_closed_loop",
    "run_open_loop",
    "scaled_options",
]

Op = Tuple[str, bytes, object]

_VERB_CLASS = {
    "insert": "write",
    "update": "write",
    "read": "read",
    "scan": "scan",
    "range": "scan",
    "rmw": "rmw",
}

MEMORY_SAMPLE_EVERY = 256


def scaled_options(maker: Callable = rocksdb_options, **overrides) -> EngineOptions:
    """The scaled-down LSM shape used by the benchmarks (DESIGN.md Section 5)."""
    defaults = dict(
        write_buffer_size=64 * 1024,
        target_file_size=64 * 1024,
        max_bytes_for_level_base=256 * 1024,
        level_size_multiplier=8,
        block_cache_bytes=2 * 1024 * 1024,
    )
    defaults.update(overrides)
    return maker(**defaults)


# ---------------------------------------------------------------------------
# Systems under test
# ---------------------------------------------------------------------------


class SingleInstanceSystem:
    """One shared engine instance driven directly by user threads."""

    def __init__(self, engine: LSMEngine, name: str = "single"):
        self.engine = engine
        self.name = name

    @classmethod
    def open(cls, env: Env, options=None, name: str = "single") -> Generator:
        engine = yield from LSMEngine.open(env, "%s/db" % name, options)
        return cls(engine, name)

    def execute(self, ctx, op: Op) -> Generator:
        verb, key, payload = op
        if verb in ("insert", "update"):
            yield from self.engine.put(ctx, key, payload)
        elif verb == "read":
            yield from self.engine.get(ctx, key)
        elif verb == "scan":
            yield from self.engine.scan(ctx, key, payload)
        elif verb == "range":
            yield from self.engine.range_query(ctx, key, payload)
        elif verb == "rmw":
            yield from self.engine.get(ctx, key)
            yield from self.engine.put(ctx, key, payload)
        else:
            raise ValueError("unknown verb %r" % verb)

    def user_bytes_written(self) -> float:
        return self.engine.counters.get("user_bytes_written")

    def memory_bytes(self) -> int:
        return self.engine.memory_bytes()

    def close(self) -> Generator:
        yield from self.engine.close()


class MultiInstanceSystem:
    """N independent instances; thread i owns instance i (Section 3.2)."""

    def __init__(self, engines: List[LSMEngine], name: str = "multi"):
        self.engines = engines
        self.name = name

    @classmethod
    def open(cls, env: Env, n_instances: int, options_maker=None, name: str = "multi") -> Generator:
        engines = []
        for i in range(n_instances):
            options = options_maker() if options_maker else None
            engine = yield from LSMEngine.open(env, "%s/db-%d" % (name, i), options)
            engines.append(engine)
        return cls(engines, name)

    def engine_for(self, thread_index: int) -> LSMEngine:
        return self.engines[thread_index % len(self.engines)]

    def execute(self, ctx, op: Op, thread_index: int = 0) -> Generator:
        engine = self.engine_for(thread_index)
        verb, key, payload = op
        if verb in ("insert", "update"):
            yield from engine.put(ctx, key, payload)
        elif verb == "read":
            yield from engine.get(ctx, key)
        elif verb == "scan":
            yield from engine.scan(ctx, key, payload)
        elif verb == "range":
            yield from engine.range_query(ctx, key, payload)
        elif verb == "rmw":
            yield from engine.get(ctx, key)
            yield from engine.put(ctx, key, payload)
        else:
            raise ValueError("unknown verb %r" % verb)

    def user_bytes_written(self) -> float:
        return sum(e.counters.get("user_bytes_written") for e in self.engines)

    def memory_bytes(self) -> int:
        return sum(e.memory_bytes() for e in self.engines)

    def close(self) -> Generator:
        for engine in self.engines:
            yield from engine.close()


class P2KVSSystem:
    """The framework under test; optional async write window."""

    def __init__(self, kvs: P2KVS, env: Env, async_window: int = 0):
        self.kvs = kvs
        self.env = env
        self.name = "%s-%d" % (kvs.name, len(kvs.workers))
        self.async_window = async_window
        self._window = (
            Semaphore(env.sim, async_window, "async-window")
            if async_window
            else None
        )

    @classmethod
    def open(
        cls,
        env: Env,
        n_workers: int = 8,
        adapter_open=None,
        obm: bool = True,
        obm_cap: int = 32,
        async_window: int = 0,
        scan_strategy: str = "parallel",
        name: str = "p2kvs",
        pin_base: int = 0,
    ) -> Generator:
        kvs = yield from P2KVS.open(
            env,
            n_workers=n_workers,
            adapter_open=adapter_open,
            obm=obm,
            obm_cap=obm_cap,
            scan_strategy=scan_strategy,
            name=name,
            pin_base=pin_base,
        )
        return cls(kvs, env, async_window)

    def execute(self, ctx, op: Op, collector: Optional[MetricsCollector] = None) -> Generator:
        verb, key, payload = op
        if verb in ("insert", "update"):
            if self._window is not None:
                yield from self._async_put(ctx, key, payload, collector)
            else:
                yield from self.kvs.put(ctx, key, payload)
        elif verb == "read":
            yield from self.kvs.get(ctx, key)
        elif verb == "scan":
            yield from self.kvs.scan(ctx, key, payload)
        elif verb == "range":
            yield from self.kvs.range_query(ctx, key, payload)
        elif verb == "rmw":
            yield from self.kvs.get(ctx, key)
            yield from self.kvs.put(ctx, key, payload)
        else:
            raise ValueError("unknown verb %r" % verb)

    def _async_put(self, ctx, key, value, collector) -> Generator:
        # The window slot is intentionally released by the completion
        # callback below, not lexically — that is what makes the put async.
        yield self._window.acquire()  # lint: disable=lock-pairing  (released in on_done)
        submitted = self.env.sim.now
        window = self._window

        def on_done(_result, submitted=submitted):
            window.release()
            if collector is not None:
                collector.record_latency("write", self.env.sim.now - submitted)

        yield from self.kvs.put_async(ctx, key, value, callback=on_done)

    def drain(self) -> Generator:
        """Wait until every async write has completed."""
        if self._window is None:
            return
        for _ in range(self.async_window):
            yield self._window.acquire()
        for _ in range(self.async_window):
            self._window.release()

    def user_bytes_written(self) -> float:
        return sum(a.counters.get("user_bytes_written") for a in self.kvs.adapters)

    def memory_bytes(self) -> int:
        return self.kvs.memory_bytes()

    def close(self) -> Generator:
        yield from self.kvs.close()


class KVellSystem:
    def __init__(self, store: KVellLike):
        self.store = store
        self.name = "kvell-%d" % store.n_workers

    @classmethod
    def open(cls, env: Env, n_workers: int = 8, page_cache_bytes: int = 4 * 1024 * 1024) -> Generator:
        store = KVellLike(env, n_workers=n_workers, page_cache_bytes=page_cache_bytes)
        return cls(store)
        yield  # pragma: no cover

    def execute(self, ctx, op: Op) -> Generator:
        verb, key, payload = op
        if verb in ("insert", "update"):
            yield from self.store.put(ctx, key, payload)
        elif verb == "read":
            yield from self.store.get(ctx, key)
        elif verb == "scan":
            yield from self.store.scan(ctx, key, payload)
        elif verb == "range":
            yield from self.store.range_query(ctx, key, payload)
        elif verb == "rmw":
            yield from self.store.get(ctx, key)
            yield from self.store.put(ctx, key, payload)
        else:
            raise ValueError("unknown verb %r" % verb)

    def user_bytes_written(self) -> float:
        return self.store.counters.get("user_bytes_written")

    def memory_bytes(self) -> int:
        return self.store.memory_bytes()

    def close(self) -> Generator:
        yield from self.store.close()


class WiredTigerSystem:
    """Vanilla WiredTiger: one B+-tree instance, direct user threads."""

    def __init__(self, store: WiredTigerLike):
        self.store = store
        self.name = "wiredtiger"

    @classmethod
    def open(cls, env: Env, name: str = "wt") -> Generator:
        store = yield from WiredTigerLike.open(env, name)
        return cls(store)

    def execute(self, ctx, op: Op) -> Generator:
        verb, key, payload = op
        if verb in ("insert", "update"):
            yield from self.store.put(ctx, key, payload)
        elif verb == "read":
            yield from self.store.get(ctx, key)
        elif verb == "scan":
            yield from self.store.scan(ctx, key, payload)
        elif verb == "range":
            yield from self.store.range_query(ctx, key, payload)
        elif verb == "rmw":
            yield from self.store.get(ctx, key)
            yield from self.store.put(ctx, key, payload)
        else:
            raise ValueError("unknown verb %r" % verb)

    def user_bytes_written(self) -> float:
        return self.store.counters.get("user_bytes_written")

    def memory_bytes(self) -> int:
        return self.store.memory_bytes()

    def close(self) -> Generator:
        yield from self.store.close()


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


def open_system(env: Env, factory: Generator):
    """Run a system's open() generator to completion."""
    box = []

    def opener():
        system = yield from factory
        box.append(system)

    env.sim.spawn(opener())
    env.sim.run()
    return box[0]


def run_closed_loop(
    env: Env,
    system,
    streams: Sequence[Sequence[Op]],
    pin_users: bool = False,
    measure: bool = True,
    collector: Optional[MetricsCollector] = None,
    on_done: Optional[Callable[[], None]] = None,
) -> Metrics:
    """One simulated user thread per stream; returns window metrics.

    ``on_done`` runs *inside the simulation* once every user thread has
    drained — the hook for tearing down layers (e.g. the health monitor's
    ticker) that would otherwise keep the event loop alive forever.
    """
    if collector is None:
        collector = MetricsCollector(env, system.name)
    user_bytes0 = system.user_bytes_written()
    collector.start()
    # The sim-time sampler (installed by --stats) covers only the measured
    # window: preload phases run with measure=False and are not sampled.
    sampler = env.metrics.sampler if measure else None
    if sampler is not None:
        sampler.start()
    n_ops = sum(len(s) for s in streams)
    procs = []
    per_instance = isinstance(system, MultiInstanceSystem)
    is_p2kvs = isinstance(system, P2KVSSystem)

    def user_thread(ctx, stream, thread_index):
        count = 0
        sim = env.sim
        tracer = sim.tracer
        record_latency = collector.record_latency
        async_window = is_p2kvs and system.async_window
        for op in stream:
            started = sim._now
            # p2KVS emits its own request spans (with routing args) from the
            # accessing layer; for every other system the harness emits one
            # per op so the critical-path extractor has walk endpoints.
            span = (
                tracer.begin(
                    "request:%s" % op[0], "request", ctx.track, args={"op": op[0]}
                )
                if tracer is not None and not is_p2kvs
                else None
            )
            try:
                if per_instance:
                    yield from system.execute(ctx, op, thread_index)
                elif is_p2kvs:
                    yield from system.execute(ctx, op, collector if measure else None)
                else:
                    yield from system.execute(ctx, op)
            except KVError as exc:
                # Degradation, not termination: a typed error fails the op
                # and the user thread moves on (only fault-injection runs
                # ever take this path).
                if measure:
                    collector.record_error(exc.code)
            if span is not None:
                span.finish()
            if measure and not (async_window and op[0] in ("insert", "update")):
                record_latency(_VERB_CLASS[op[0]], sim._now - started)
            count += 1
            if count % MEMORY_SAMPLE_EVERY == 0:
                collector.note_memory(system.memory_bytes())

    for i, stream in enumerate(streams):
        core = (i % env.cpu.n_cores) if pin_users else None
        ctx = env.cpu.new_thread("user-%d" % i, pinned=core)
        procs.append(env.sim.spawn(user_thread(ctx, stream, i)))

    box = []

    def finisher():
        yield env.sim.all_of(procs)
        if is_p2kvs and system.async_window:
            yield from system.drain()
        if sampler is not None:
            sampler.sample_once()  # final row at the window's end time
            sampler.stop()
        box.append(
            collector.finish(
                n_ops,
                system.user_bytes_written() - user_bytes0,
                system.memory_bytes(),
            )
        )
        if on_done is not None:
            on_done()

    env.sim.spawn(finisher())
    env.sim.run()
    return box[0]


def run_open_loop(
    env: Env,
    system,
    ops: Sequence[Op],
    rate: float,
    seed: int = 42,
) -> Metrics:
    """Poisson arrivals at ``rate`` ops/second (Figure 13's load sweep)."""
    collector = MetricsCollector(env, system.name)
    user_bytes0 = system.user_bytes_written()
    collector.start()
    rng = random.Random(seed)
    box = []

    def one_op(ctx, op):
        started = env.sim.now
        try:
            yield from system.execute(ctx, op)
        except KVError as exc:
            collector.record_error(exc.code)
        collector.record_latency(_VERB_CLASS[op[0]], env.sim.now - started)

    def arrivals():
        procs = []
        for i, op in enumerate(ops):
            yield env.sim.timeout(rng.expovariate(rate))
            ctx = env.cpu.new_thread("ol-%d" % i)
            procs.append(env.sim.spawn(one_op(ctx, op)))
        yield env.sim.all_of(procs)
        box.append(
            collector.finish(
                len(ops),
                system.user_bytes_written() - user_bytes0,
                system.memory_bytes(),
            )
        )

    env.sim.spawn(arrivals())
    env.sim.run()
    return box[0]


def preload(env: Env, system, ops: Sequence[Op], n_threads: int = 8) -> None:
    """Load a dataset before the measured window (not timed)."""
    streams: List[List[Op]] = [[] for _ in range(n_threads)]
    for i, op in enumerate(ops):
        streams[i % n_threads].append(op)
    run_closed_loop(env, system, streams, measure=False)
