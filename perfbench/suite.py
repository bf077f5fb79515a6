"""The benchmark's three workloads, built only from the program's public API.

Every workload runs on the ``nvme`` (Optane 905P) preset of one simulated
44-core machine.  Keys come from ``repro.workloads.make_key`` (the prefix
``user`` plus 16 digits) and values from ``make_value``, which embeds the
key id, so any value read back can be checked byte for byte.  Only the ops
generated from ``--seed`` reach the program.

A workload has two phases.  :meth:`Workload.setup` builds the op stream,
the machine and the system, and preloads data; the benchmark reports it as
set-up time.  :meth:`Workload.window` runs the measured window and returns
an :class:`Outcome` whose ``material`` is the sim-side result the digest
covers.  The simulator is one host thread: simulated user threads are
generator processes, not OS threads.
"""

import time
from typing import Callable, Dict, List, Optional

from repro.core.adapters import adapter_factory
from repro.engine import make_env
from repro.errors import KVError
from repro.harness import (
    MetricsCollector,
    P2KVSSystem,
    open_system,
    preload,
    run_closed_loop,
)
from repro.service import (
    ServicePlane,
    build_scenario,
    build_slo_report,
    preload_plane,
    run_service_load,
)
from repro.sim.device import OPTANE_905P
from repro.systems import _BENCH_SHAPE
from repro.systems import open_system as open_named_system
from repro.workloads import fillrandom, make_key, make_value, readrandom, split_stream

__all__ = ["WORKLOADS", "Outcome", "Prepared", "percentile", "read_back"]

VALUE_SIZE = 112
#: closed-loop simulated user threads on ``fill`` and ``read``.
THREADS = 16
#: p2KVS workers (instances) on ``fill`` and ``read``.
WORKERS = 8

#: fill: 32k fresh keys run 72 flushes and 48 compactions in the window
#: (seed 0), and leave 32 latency samples beyond p999.
FILL_OPS = 32000

#: read: 16k preloaded keys are ~2.4 MB of data, ~300 KB per worker,
#: about 9x the 32 KiB per-worker block cache (the shared default shape
#: would hold most of it).  40k reads leave 40 samples beyond p999.
READ_KEYS = 16000
READ_OPS = 40000
READ_BLOCK_CACHE_BYTES = 32 * 1024

#: serve-hotkey: 10k keys (~1.3 MB) fit each shard's default 8 MiB block
#: cache.  40k offered ops at 1 Mops/s keep >= 30 completed requests beyond
#: p999 after 11-13% are shed.
SERVE_OPS = 40000
SERVE_KEYS = 10000
SERVE_VALUE_SIZE = 100
SERVE_RATE = 1e6
SERVE_SHARDS = 4
SERVE_WORKERS = 2

#: registry counters folded into the closed-loop digest, summed by suffix.
KEY_COUNTERS = (
    "batches",
    "compactions",
    "flushes",
    "obm_read_merged",
    "obm_write_merged",
    "read_requests",
    "requests",
    "user_bytes_written",
    "wal_appends",
    "wal_bytes",
    "write_requests",
)


def percentile(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (the repo's rule)."""
    if not ordered:
        return 0.0
    # ceil(p/100 * n) in integers, so 99.9 cannot round up a rank.
    rank = max(1, -(-round(p * 1000) * len(ordered) // 100000))
    return ordered[min(rank, len(ordered)) - 1]


def counter_sums(env) -> Dict[str, float]:
    """Every registry counter summed by its last dotted component."""
    out: Dict[str, float] = {}
    for name, value in env.metrics.counter_values().items():
        suffix = name.rsplit(".", 1)[-1]
        out[suffix] = out.get(suffix, 0.0) + value
    return out


class Prepared:
    """A workload after set-up: machine, system and inputs."""

    def __init__(self, env, system, engines, lookup, written: int,
                 value_size: int, timings: Dict[str, float], inputs):
        self.env = env
        self.system = system
        #: every LSM engine of the deployment (block-cache counts).
        self.engines = engines
        #: ``lookup(ctx, key)``: the public get path, as a generator.
        self.lookup = lookup
        #: key ids ``0 .. written-1`` hold ``make_value(id, value_size)``.
        self.written = written
        self.value_size = value_size
        #: host seconds of op generation, system open and preload.
        self.timings = timings
        self.inputs = inputs


class Outcome:
    """What one measured window produced."""

    def __init__(self, ops: int, failed: int, samples: List[float],
                 sim_kqps: float, material: dict):
        #: simulated requests completed (or shed) in the window.
        self.ops = ops
        #: typed KVErrors and shard error counts.
        self.failed = failed
        #: sorted simulated latencies (seconds), all op classes.
        self.samples = samples
        self.sim_kqps = sim_kqps
        #: the sim-side result the digest covers.
        self.material = material

    def latency_us(self, p: float) -> float:
        return percentile(self.samples, p) * 1e6


class _AllClasses(MetricsCollector):
    """A collector that also keeps every latency sample in one list."""

    def __init__(self, env, system_name: str):
        super().__init__(env, system_name)
        self.all_samples: List[float] = []

    def record_latency(self, verb_class: str, seconds: float) -> None:
        super().record_latency(verb_class, seconds)
        self.all_samples.append(seconds)


def _p2kvs_engines(system) -> list:
    return [worker.adapter.engine for worker in system.kvs.workers]


def _timed(timings: Dict[str, float], phase: str, fn: Callable, *args):
    start = time.perf_counter()
    result = fn(*args)
    timings[phase] = time.perf_counter() - start
    return result


def _closed_loop_outcome(env, system, streams) -> Outcome:
    collector = _AllClasses(env, system.name)
    metrics = run_closed_loop(env, system, streams, collector=collector)
    samples = sorted(collector.all_samples)
    failed = sum(metrics.extra.get("errors", {}).values())
    counters = counter_sums(env)
    material = {
        "ops": metrics.n_ops,
        "qps": metrics.qps,
        "p50_us": percentile(samples, 50) * 1e6,
        "p99_us": percentile(samples, 99) * 1e6,
        "p999_us": percentile(samples, 99.9) * 1e6,
        "latency_samples": len(samples),
        "write_amp": metrics.write_amplification,
        "errors": failed,
        "counters": {name: counters.get(name, 0.0) for name in KEY_COUNTERS},
    }
    return Outcome(metrics.n_ops, failed, samples, metrics.qps / 1e3, material)


class Workload:
    #: why each workload was chosen is recorded in BENCHMARK.json.
    name = ""

    def setup(self, seed: int) -> Prepared:
        raise NotImplementedError

    def window(self, prepared: Prepared) -> Outcome:
        raise NotImplementedError


class ClosedLoop(Workload):
    """16 simulated user threads, each sending its next op on completion."""

    def window(self, prepared: Prepared) -> Outcome:
        return _closed_loop_outcome(prepared.env, prepared.system,
                                    prepared.inputs)


class Fill(ClosedLoop):
    name = "fill"

    def setup(self, seed: int) -> Prepared:
        timings: Dict[str, float] = {"preload": 0.0}
        streams = _timed(timings, "gen", lambda: split_stream(
            fillrandom(FILL_OPS, VALUE_SIZE, seed), THREADS))

        def open_fill():
            env = make_env(device_spec=OPTANE_905P)
            return env, open_named_system("p2kvs", env, workers=WORKERS)

        env, system = _timed(timings, "open", open_fill)
        return Prepared(env, system, _p2kvs_engines(system), system.kvs.get,
                        FILL_OPS, VALUE_SIZE, timings, streams)


class Read(ClosedLoop):
    name = "read"

    def setup(self, seed: int) -> Prepared:
        timings: Dict[str, float] = {}

        def generate():
            return (list(fillrandom(READ_KEYS, VALUE_SIZE, seed)),
                    split_stream(readrandom(READ_OPS, READ_KEYS, seed), THREADS))

        load, streams = _timed(timings, "gen", generate)

        def open_read():
            env = make_env(device_spec=OPTANE_905P)
            adapter_open = adapter_factory(
                "rocksdb",
                **dict(_BENCH_SHAPE, block_cache_bytes=READ_BLOCK_CACHE_BYTES),
            )
            return env, open_system(env, P2KVSSystem.open(
                env, n_workers=WORKERS, adapter_open=adapter_open))

        env, system = _timed(timings, "open", open_read)
        _timed(timings, "preload", preload, env, system, load, 8)
        return Prepared(env, system, _p2kvs_engines(system), system.kvs.get,
                        READ_KEYS, VALUE_SIZE, timings, streams)


class ServeHotkey(Workload):
    name = "serve-hotkey"

    def setup(self, seed: int) -> Prepared:
        timings: Dict[str, float] = {}
        spec = _timed(timings, "gen", build_scenario, "hotkey", SERVE_OPS,
                      SERVE_RATE, SERVE_KEYS, SERVE_VALUE_SIZE, seed)

        def open_plane():
            env = make_env(device_spec=OPTANE_905P)
            plane = ServicePlane(env, n_shards=SERVE_SHARDS, key_space=SERVE_KEYS,
                                 system_opts=dict(workers=SERVE_WORKERS))
            return env, plane

        env, plane = _timed(timings, "open", open_plane)
        _timed(timings, "preload", preload_plane, env, plane, spec["preload"])
        samples: List[float] = []
        for lane in plane.lanes:
            # The plane keeps latencies only in log2-bucketed histograms;
            # tee the lane callback to keep every exact sample as well.
            lane._record_latency = _tee(lane._record_latency, samples)
        engines = [e for shard in plane.shards for e in _p2kvs_engines(shard)]

        def lookup(ctx, key):
            shard = plane.shards[plane.router.shard_of(key)]
            return shard.kvs.get(ctx, key)

        return Prepared(env, plane, engines, lookup, SERVE_KEYS,
                        SERVE_VALUE_SIZE, timings, (spec, samples))

    def window(self, prepared: Prepared) -> Outcome:
        env, plane = prepared.env, prepared.system
        spec, samples = prepared.inputs
        run = run_service_load(env, plane, spec["ops"], spec["arrivals"])
        report = build_slo_report(plane, run, spec)
        ordered = sorted(samples)
        if len(ordered) != report["completed"]:
            # The tee sits on a private lane attribute; a refactor that
            # stops calling it must fail loudly, not report 0 us latencies.
            raise RuntimeError("kept %d latency samples for %d completed requests"
                               % (len(ordered), report["completed"]))
        material = {
            "report": report,
            "p50_us": percentile(ordered, 50) * 1e6,
            "p99_us": percentile(ordered, 99) * 1e6,
            "p999_us": percentile(ordered, 99.9) * 1e6,
            "latency_samples": len(ordered),
        }
        return Outcome(report["offered"], report["errors"], ordered,
                       report["goodput_ops_per_s"] / 1e3, material)


def _tee(record: Callable, samples: List[float]) -> Callable:
    def record_and_keep(op_class: str, latency: float) -> None:
        record(op_class, latency)
        samples.append(latency)

    return record_and_keep


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (Fill(), Read(), ServeHotkey())}


def read_back(env, lookup: Callable, ids: List[int], value_size: int) -> int:
    """Read ``ids`` back through ``lookup`` after the window; returns how
    many reads failed (a typed error, or bytes that differ from
    ``make_value``)."""
    failures: List[int] = []

    def reader(ctx):
        bad = 0
        for i in ids:
            try:
                value = yield from lookup(ctx, make_key(i))
            except KVError:
                bad += 1
                continue
            if value != make_value(i, value_size):
                bad += 1
        failures.append(bad)

    env.sim.spawn(reader(env.cpu.new_thread("perfbench-readback")))
    env.sim.run()
    if not failures:
        raise RuntimeError("read-back reader did not finish")
    return failures[0]


def window_counts(prepared: Prepared, since: Optional[float] = None) -> Dict[str, float]:
    """Cumulative counts the per-layer table differences across the window.

    ``stall_s`` sums only stalls begun at or after ``since`` (sim seconds),
    and is 0 without it.
    """
    env = prepared.env
    counters = counter_sums(env)
    gauges = env.metrics.gauges
    stall = 0.0
    if since is not None:
        now = env.sim.now
        for kind, begin, end, _detail in env.metrics.events.entries:
            if kind == "write_stall" and begin >= since:
                stall += (end if end is not None else now) - begin
    return {
        "flushes": counters.get("flushes", 0.0),
        "compactions": counters.get("compactions", 0.0),
        "merged": counters.get("obm_write_merged", 0.0)
        + counters.get("obm_read_merged", 0.0),
        "requests": counters.get("requests", 0.0),
        "user_bytes": counters.get("user_bytes_written", 0.0),
        "device_read": gauges["device.read_bytes_total"].read(),
        "device_write": gauges["device.write_bytes_total"].read(),
        "cache_hits": float(sum(e.block_cache.hits for e in prepared.engines)),
        "cache_misses": float(sum(e.block_cache.misses for e in prepared.engines)),
        "stall_s": stall,
        "now": env.sim.now,
    }
