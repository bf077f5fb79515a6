"""Which public functions the traced run wraps, and the per-layer table.

Each per-layer metric names the end-to-end metric it should move and the
workload it should move it on (README.md, "Per-layer metrics").  Host times are
normalized as microseconds per simulated op of the measured window.
"""

from typing import Dict, List, Tuple

from spans import SpanTracer, Target

#: (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.kernel.self_us_per_op", "us/op", "lower"),
    ("sim.kernel.spawns_per_op", "1/op", "lower"),
    ("sim.kernel.timeouts_per_op", "1/op", "lower"),
    ("sim.cpu.exec_per_op", "1/op", "lower"),
    ("sim.cpu.self_us_per_op", "us/op", "lower"),
    ("sim.device.submits_per_op", "1/op", "lower"),
    ("sim.device.self_us_per_op", "us/op", "lower"),
    ("sim.sync.blocks_per_op", "1/op", "lower"),
    ("sim.sync.self_us_per_op", "us/op", "lower"),
    ("core.framework.self_us_per_op", "us/op", "lower"),
    ("core.worker.self_us_per_op", "us/op", "lower"),
    ("core.router.self_us_per_op", "us/op", "lower"),
    ("core.obm.merge_ratio", "ratio", "higher"),
    ("engine.write.self_us_per_op", "us/op", "lower"),
    ("engine.read.self_us_per_op", "us/op", "lower"),
    ("engine.flushes", "count", "lower"),
    ("engine.compactions", "count", "lower"),
    ("engine.write_amp", "ratio", "lower"),
    ("engine.stall_sim_s", "s", "lower"),
    ("storage.memtable.self_us_per_op", "us/op", "lower"),
    ("storage.wal.self_us_per_op", "us/op", "lower"),
    ("storage.sst_build.self_us_per_op", "us/op", "lower"),
    ("storage.sst_read.self_us_per_op", "us/op", "lower"),
    ("storage.bloom.self_us_per_op", "us/op", "lower"),
    ("storage.bloom.negative_ratio", "ratio", "higher"),
    ("storage.block_cache.hit_rate", "ratio", "higher"),
    ("storage.device.read_bytes_per_op", "B/op", "lower"),
    ("storage.device.write_bytes_per_op", "B/op", "lower"),
    ("service.self_us_per_op", "us/op", "lower"),
    ("service.shed_share", "ratio", "lower"),
    ("workloads.gen_s", "s", "lower"),
    ("harness.open_s", "s", "lower"),
    ("harness.preload_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

#: the layer whose self time is what no wrapped function claimed.
KERNEL = "sim.kernel"


def _event_pending(event) -> bool:
    """A sync primitive returned an event that has not fired: the caller
    blocks on it."""
    return not event.triggered


def _bloom_negative(hit: bool) -> bool:
    return not hit


def targets() -> List[Target]:
    """The wrapped functions, grouped by layer (imports ``repro``)."""
    from repro.core.framework import P2KVS
    from repro.core.router import HashRouter
    from repro.core.worker import Worker
    from repro.engine.batch import WriteBatch
    from repro.engine.db import LSMEngine
    from repro.engine.write_group import WriteGroupCoordinator
    from repro.service.admission import ShardLane
    from repro.service.partition import HashPartitioner
    from repro.service.plane import ServicePlane
    from repro.service.router import ServiceRouter
    from repro.sim.core import Simulator
    from repro.sim.cpu import CPUSet
    from repro.sim.device import StorageDevice
    from repro.sim.queues import FIFOQueue
    from repro.sim.sync import Condition, Lock
    from repro.storage.bloom import BloomFilter
    from repro.storage.memtable import MemTable
    from repro.storage.sstable import SSTable, SSTableBuilder
    from repro.storage.wal import LogWriter

    return [
        Target(KERNEL, Simulator, "run", root=True),
        Target("sim.kernel.spawn", Simulator, "spawn", timed=False),
        Target("sim.kernel.timeout", Simulator, "timeout", timed=False),
        Target("sim.cpu", CPUSet, "exec"),
        Target("sim.device", StorageDevice, "submit"),
        Target("sim.sync", Lock, "acquire", flag=_event_pending),
        Target("sim.sync", Condition, "wait", flag=_event_pending),
        Target("sim.sync", FIFOQueue, "get", flag=_event_pending),
        Target("sim.sync", FIFOQueue, "put"),
        Target("core.framework", P2KVS, "put"),
        Target("core.framework", P2KVS, "get"),
        Target("core.framework", P2KVS, "get_status"),
        Target("core.worker", Worker, "submit"),
        Target("core.router", HashRouter, "route"),
        Target("engine.write", LSMEngine, "write"),
        Target("engine.write", WriteGroupCoordinator, "write"),
        Target("engine.write", WriteBatch, "encode"),
        Target("engine.read", LSMEngine, "get"),
        Target("engine.read", LSMEngine, "get_status"),
        Target("engine.read", LSMEngine, "multiget"),
        Target("engine.read", LSMEngine, "multiget_status"),
        Target("storage.memtable", MemTable, "add"),
        Target("storage.memtable", MemTable, "get"),
        Target("storage.wal", LogWriter, "append"),
        Target("storage.wal", LogWriter, "flush"),
        Target("storage.sst_build", SSTableBuilder, "add"),
        Target("storage.sst_build", SSTableBuilder, "finish"),
        Target("storage.sst_read", SSTable, "get"),
        Target("storage.sst_read", SSTable, "load_block"),
        Target("storage.bloom", BloomFilter, "may_contain", flag=_bloom_negative),
        Target("service", ServicePlane, "submit"),
        Target("service", ShardLane, "submit"),
        Target("service", ServiceRouter, "route"),
        Target("service", HashPartitioner, "partition"),
    ]


def layer_totals(tracer: SpanTracer) -> Dict[str, Dict[str, int]]:
    """Sum the per-function aggregates of each layer."""
    out: Dict[str, Dict[str, int]] = {}
    for stat in tracer.stats.values():
        row = out.setdefault(
            stat.layer, {"calls": 0, "self_ns": 0, "total_ns": 0, "flagged": 0}
        )
        row["calls"] += stat.calls
        row["self_ns"] += stat.self_ns
        row["total_ns"] += stat.total_ns
        row["flagged"] += stat.flagged
    return out


def traced_metrics(tracer: SpanTracer, ops: int) -> Dict[str, float]:
    """The host-time half of the per-layer table, from one traced window."""
    layers = layer_totals(tracer)

    def row(layer: str) -> Dict[str, int]:
        return layers.get(layer, {"calls": 0, "self_ns": 0, "total_ns": 0,
                                  "flagged": 0})

    def self_us(layer: str) -> float:
        return row(layer)["self_ns"] / 1e3 / ops

    def per_op(layer: str) -> float:
        return row(layer)["calls"] / ops

    kernel = row(KERNEL)
    covered = sum(r["self_ns"] for name, r in layers.items() if name != KERNEL)
    bloom = row("storage.bloom")
    out = {
        "sim.kernel.self_us_per_op": self_us(KERNEL),
        "sim.kernel.spawns_per_op": per_op("sim.kernel.spawn"),
        "sim.kernel.timeouts_per_op": per_op("sim.kernel.timeout"),
        "sim.cpu.exec_per_op": per_op("sim.cpu"),
        "sim.device.submits_per_op": per_op("sim.device"),
        "sim.sync.blocks_per_op": row("sim.sync")["flagged"] / ops,
        "storage.bloom.negative_ratio": (
            bloom["flagged"] / bloom["calls"] if bloom["calls"] else 0.0
        ),
        "trace.coverage": covered / kernel["total_ns"] if kernel["total_ns"] else 0.0,
    }
    suffix = ".self_us_per_op"
    for name, _unit, _better in PER_LAYER:
        if name.endswith(suffix) and name not in out:
            out[name] = self_us(name[:-len(suffix)])
    return out


def function_rows(tracer: SpanTracer, ops: int) -> List[Tuple[str, str, int, float, float]]:
    """(layer, function, calls, self us/op, share of Simulator.run) rows."""
    run_ns = sum(s.total_ns for s in tracer.stats.values() if s.layer == KERNEL)
    rows = []
    for stat in sorted(tracer.stats.values(), key=lambda s: -s.self_ns):
        rows.append((
            stat.layer,
            stat.name,
            stat.calls,
            stat.self_ns / 1e3 / ops,
            stat.self_ns / run_ns if run_ns else 0.0,
        ))
    return rows
