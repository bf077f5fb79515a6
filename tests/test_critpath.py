"""Critical-path extraction and causal what-if profiler tests.

Covers the wakeup edge log, exact hand-built paths over the sim kernel's
primitives, the per-request/makespan extractors, the Figure 6 cross-check
against span attribution, and the Coz-style prediction-vs-measurement
acceptance criteria (WAL speedup and +1 device channel within tolerance).
"""

import json

import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.core import adapter_factory
from repro.critpath import (
    EXPERIMENTS,
    EdgeLog,
    check_prediction,
    critpath_report,
    fig06_from_blame,
    install_edgelog,
    makespan_path,
    path_trace_extras,
    predicted_delta,
    request_paths,
    uninstall_edgelog,
    walk_back,
)
from repro.critpath.extract import CriticalPath, Segment, aggregate_blame
from repro.engine import make_env
from repro.harness import P2KVSSystem, open_system, preload, run_closed_loop
from repro.harness.report import format_blame_table
from repro.sim.core import Simulator
from repro.sim.cpu import CPUSet
from repro.sim.device import OPTANE_905P, StorageDevice
from repro.sim.queues import FIFOQueue
from repro.sim.sync import Condition, Lock
from repro.tools import whatif
from repro.trace import install_tracer
from repro.trace.attribution import fig06_from_spans
from repro.trace.chrome import to_chrome_events
from repro.workloads import YCSBWorkload, fillrandom, split_stream


def _segs(segments):
    """(label, start, end) triples in chronological order."""
    return [
        (s.label, pytest.approx(s.start, abs=1e-12), pytest.approx(s.end, abs=1e-12))
        for s in reversed(segments)
    ]


# ---------------------------------------------------------------------------
# edge log mechanics
# ---------------------------------------------------------------------------


def _release_every_primitive(sim, cpu, dev, lock, queue, cond):
    """One round that releases a waiter through each kernel primitive: a
    condvar notify, a contended lock hand-off, a CPU burst, a device IO and
    a queue get."""
    ctx = cpu.new_thread("consumer")

    def consumer():
        yield cond.wait()
        yield cpu.exec(ctx, 1e-6, "work")
        yield dev.write(4096, category="wal")
        yield queue.get()

    def holder():
        yield lock.acquire()
        yield sim.timeout(1e-6)
        lock.release()

    def contender():
        yield lock.acquire()
        lock.release()

    def producer():
        yield sim.timeout(1e-6)
        cond.notify()
        queue.put("item")

    for gen in (consumer(), holder(), contender(), producer()):
        sim.spawn(gen)
    sim.run()


def _plain_bindings(sim):
    overlays = ("wake", "spawn", "timeout", "timeout_late", "_call_later")
    return (
        not any(attr in vars(sim) for attr in overlays)
        and sim.wake.__func__ is Simulator.wake
        and sim.spawn.__func__ is Simulator.spawn
        and sim.timeout.__func__ is Simulator.timeout
        and sim._call_later.__func__ is Simulator._call_later
        and sim._resume_hook is None
    )


def _finished_process(sim):
    """A process whose completion was released inside that process, the
    release the sanitizer stamps with a happens-before clock."""

    def step():
        yield sim.timeout(1e-6)

    proc = sim.spawn(step())
    sim.run()
    return proc


@pytest.mark.no_sanitize  # attaches and detaches its own sanitizer
def test_edgelog_install_uninstall():
    sim = Simulator()
    cpu = CPUSet(sim, n_cores=1)
    dev = StorageDevice(sim, OPTANE_905P)
    primitives = (cpu, dev, Lock(sim, "l"), FIFOQueue(sim, "q"), Condition(sim, "c"))
    _release_every_primitive(sim, *primitives)
    assert sim.now > 0 and _plain_bindings(sim)
    assert _finished_process(sim)._hb is None

    # Attach to a simulator that has already run: every release site must
    # record its typed edge from then on.
    log = install_edgelog(sim)
    assert sim.edgelog is log
    assert not _plain_bindings(sim)
    _release_every_primitive(sim, *primitives)
    edges = [
        edge
        for hist in log.history.values()
        for _t, _seq, edge in hist
        if edge is not None
    ]
    assert {"cpu", "device", "queue:q", "cond:c"} <= {e.resource for e in edges}
    # The contended acquire resumes through the holder's release, after
    # waiting (the uncontended one carries no wait).
    assert any(e.resource == "lock:l" and e.queued_at < e.begin for e in edges)

    uninstall_edgelog(sim)
    assert sim.edgelog is None
    assert _plain_bindings(sim)
    before = log.counts()
    _release_every_primitive(sim, *primitives)
    assert log.counts() == before

    # A sanitizer alone overlays the release, spawn and resume hooks, not
    # the timers: releases get happens-before clocks and no edges.
    sanitizer = Sanitizer().attach(sim)
    assert sim.sanitizer is sanitizer and not _plain_bindings(sim)
    assert "timeout" not in vars(sim) and "_call_later" not in vars(sim)
    proc = _finished_process(sim)
    assert proc._hb is not None and proc._edge is None

    # Both attached: one overlay runs both hooks.
    log = install_edgelog(sim)
    proc = _finished_process(sim)
    assert proc._hb is not None and proc._edge is not None

    # Edgelog detached, sanitizer kept: edges stop, clocks continue.
    uninstall_edgelog(sim)
    assert not _plain_bindings(sim)
    before = log.counts()
    _release_every_primitive(sim, *primitives)
    proc = _finished_process(sim)
    assert log.counts() == before
    assert proc._hb is not None and proc._edge is None
    assert not sanitizer.findings

    sim.set_observer("sanitizer", None)
    assert _plain_bindings(sim)
    assert _finished_process(sim)._hb is None
    with pytest.raises(ValueError):
        sim.set_observer("tracer", None)


def test_edgelog_records_resumes_and_spawns():
    sim = Simulator()
    log = install_edgelog(sim)

    def child():
        yield sim.timeout(1.0)

    def parent():
        yield sim.spawn(child(), "child")

    sim.spawn(parent(), "parent")
    sim.run()
    counts = log.counts()
    assert counts["resumes"] > 0
    assert counts["edges"] > 0
    assert counts["spawns"] >= 2
    assert counts["dropped"] == 0


def test_edgelog_bounded_by_max_records():
    sim = Simulator()
    log = install_edgelog(sim, max_records=5)

    def ticker():
        for _ in range(50):
            yield sim.timeout(0.001)

    sim.spawn(ticker(), "ticker")
    sim.run()
    assert log.counts()["resumes"] == 5
    assert log.counts()["dropped"] == 45


def test_track_bindings_are_time_qualified():
    """Two successive processes reusing one track name (preload then the
    measured run) must resolve to the process live at the queried time."""
    sim = Simulator()
    log = install_edgelog(sim)
    procs = {}

    def phase(name, start):
        def body():
            yield sim.timeout(start)
            log.bind_track("threads:user-0", sim.current_process)
            procs[name] = sim.current_process
            yield sim.timeout(1.0)

        return body

    sim.spawn(phase("first", 0.0)(), "first")
    sim.spawn(phase("second", 5.0)(), "second")
    sim.run()
    assert log.track_proc_at("threads:user-0", 0.5) is procs["first"]
    assert log.track_proc_at("threads:user-0", 6.0) is procs["second"]


# ---------------------------------------------------------------------------
# hand-built scenarios with known exact paths
# ---------------------------------------------------------------------------


def test_timeout_blames_the_sleep():
    sim = Simulator()
    log = install_edgelog(sim)
    done = {}

    def sleeper():
        yield sim.timeout(5.0)
        done["proc"] = sim.current_process

    sim.spawn(sleeper(), "sleeper")
    sim.run()
    segments = walk_back(log, done["proc"], 5.0, 0.0)
    assert _segs(segments) == [("timeout", 0.0, 5.0)]


def test_lock_chain_walks_through_all_holders():
    """Three processes serialized on one lock: the path through the last
    completion is exactly the three holders' CPU bursts, chained via the
    FIFO lock hand-offs — the textbook critical path."""
    sim = Simulator()
    log = install_edgelog(sim)
    cpu = CPUSet(sim, n_cores=4, migration_overhead=0.0)
    lock = Lock(sim, "wal")
    done = {}

    def worker(name, duration, category):
        ctx = cpu.new_thread(name)
        yield lock.acquire()
        yield cpu.exec(ctx, duration, category)
        lock.release()
        done[name] = sim.current_process

    sim.spawn(worker("c", 2.0, "gamma"), "c")
    sim.spawn(worker("b", 3.0, "beta"), "b")
    sim.spawn(worker("a", 1.0, "alpha"), "a")
    sim.run()
    assert sim.now == pytest.approx(6.0)
    segments = walk_back(log, done["a"], 6.0, 0.0)
    assert _segs(segments) == [
        ("cpu:gamma", 0.0, 2.0),
        ("cpu:beta", 2.0, 5.0),
        ("cpu:alpha", 5.0, 6.0),
    ]
    # Coverage invariant: the segments tile the walked window exactly.
    path = CriticalPath("a", 0.0, 6.0, segments)
    assert path.covered == pytest.approx(path.span)
    assert path.blame() == {
        "cpu:gamma": pytest.approx(2.0),
        "cpu:beta": pytest.approx(3.0),
        "cpu:alpha": pytest.approx(1.0),
    }


def test_queue_handoff_walks_into_the_producer():
    """A consumer blocked on an empty queue inherits the producer's history:
    the wait is *caused* by the producer still computing the item."""
    sim = Simulator()
    log = install_edgelog(sim)
    cpu = CPUSet(sim, n_cores=2, migration_overhead=0.0)
    queue = FIFOQueue(sim, "jobs")
    done = {}

    def producer():
        ctx = cpu.new_thread("producer")
        yield cpu.exec(ctx, 3.0, "produce")
        queue.put("job")

    def consumer():
        item = yield queue.get()
        assert item == "job"
        done["proc"] = sim.current_process

    sim.spawn(consumer(), "consumer")
    sim.spawn(producer(), "producer")
    sim.run()
    segments = walk_back(log, done["proc"], 3.0, 0.0)
    assert _segs(segments) == [("cpu:produce", 0.0, 3.0)]


def test_cpu_queueing_blamed_separately_from_service():
    """Two bursts contending for one core: the loser's path shows its own
    service time plus the winner's burst as cpu_queue time."""
    sim = Simulator()
    log = install_edgelog(sim)
    cpu = CPUSet(sim, n_cores=1, migration_overhead=0.0)
    done = {}

    def burst(name, category):
        ctx = cpu.new_thread(name)
        yield cpu.exec(ctx, 2.0, category)
        done[name] = sim.current_process

    sim.spawn(burst("first", "win"), "first")
    sim.spawn(burst("second", "lose"), "second")
    sim.run()
    assert sim.now == pytest.approx(4.0)
    segments = walk_back(log, done["second"], 4.0, 0.0)
    blame = CriticalPath("second", 0.0, 4.0, segments).blame()
    assert blame["cpu:lose"] == pytest.approx(2.0)
    assert blame["cpu_queue:lose"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# aggregate blame / formatting
# ---------------------------------------------------------------------------


def test_aggregate_blame_ranks_and_shares():
    paths = [
        CriticalPath("r1", 0.0, 3.0, [Segment("cpu:wal", 0.0, 2.0), Segment("timeout", 2.0, 3.0)]),
        CriticalPath("r2", 0.0, 2.0, [Segment("cpu:wal", 0.0, 2.0)]),
    ]
    blame = aggregate_blame(paths)
    assert [row["label"] for row in blame["rows"]] == ["cpu:wal", "timeout"]
    top = blame["rows"][0]
    assert top["seconds"] == pytest.approx(4.0)
    assert top["share"] == pytest.approx(0.8)
    assert top["paths"] == 2
    assert blame["n_paths"] == 2
    text = format_blame_table(blame)
    assert "cpu:wal" in text and "80.0%" in text and "total" in text


def test_fig06_bucket_mapping():
    blame = aggregate_blame(
        [
            CriticalPath(
                "r",
                0.0,
                10.0,
                [
                    Segment("device:write:wal", 0.0, 4.0),
                    Segment("lock:wal_lock", 4.0, 6.0),
                    Segment("cpu:memtable", 6.0, 9.0),
                    Segment("cpu:dispatch", 9.0, 10.0),
                ],
            )
        ]
    )
    fig06 = fig06_from_blame(blame)
    assert fig06["categories"]["WAL"] == pytest.approx(4.0)
    assert fig06["categories"]["WAL lock"] == pytest.approx(2.0)
    assert fig06["categories"]["MemTable"] == pytest.approx(3.0)
    assert fig06["categories"]["Others"] == pytest.approx(1.0)
    assert sum(fig06["shares"].values()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# end-to-end extraction on the simulated stack
# ---------------------------------------------------------------------------


def _ycsb_run(n_records=300, n_ops=400, threads=2):
    env = make_env(n_cores=8)
    tracer = install_tracer(env)
    edgelog = install_edgelog(env)
    system = open_system(
        env,
        P2KVSSystem.open(
            env,
            n_workers=4,
            adapter_open=adapter_factory(
                "rocksdb",
                write_buffer_size=64 * 1024,
                target_file_size=64 * 1024,
                max_bytes_for_level_base=256 * 1024,
            ),
        ),
    )
    workload = YCSBWorkload("A", n_records, value_size=112, seed=5)
    preload(env, system, workload.load_ops(), n_threads=threads)
    ops = list(workload.ops(n_ops))
    streams = [[] for _ in range(threads)]
    for i, op in enumerate(ops):
        streams[i % threads].append(op)
    t0 = env.sim.now
    metrics = run_closed_loop(env, system, streams)
    return env, tracer, edgelog, (t0, t0 + metrics.elapsed), n_ops


def test_request_paths_cover_their_spans():
    _env, tracer, edgelog, window, n_ops = _ycsb_run()
    paths = request_paths(edgelog, tracer, window)
    assert len(paths) == n_ops
    for path in paths:
        assert path.covered == pytest.approx(path.span, rel=1e-9, abs=1e-12)
        for seg in path.segments:
            assert window[0] - 1e-12 <= seg.start <= seg.end <= window[1] + 1e-12


def test_makespan_path_tiles_the_window():
    _env, tracer, edgelog, window, _n = _ycsb_run()
    path = makespan_path(edgelog, tracer, window)
    assert path is not None
    assert path.t_start == pytest.approx(window[0])
    assert path.covered == pytest.approx(path.span, rel=1e-9, abs=1e-12)
    assert path.blame()


def test_critpath_report_shape():
    _env, tracer, edgelog, window, n_ops = _ycsb_run()
    report = critpath_report(edgelog, tracer, window)
    assert report["n_requests"] == n_ops
    assert report["blame"]["rows"]
    assert report["makespan"]["covered"] == pytest.approx(
        report["makespan"]["t_end"] - report["makespan"]["t_start"], rel=1e-9
    )
    json.dumps(report)  # must be JSON-serializable as exported


def test_blame_argmax_matches_fig06_spans():
    """Acceptance criterion: on the concurrency workload the critical-path
    blame ranking names the same dominant Figure 6 component as the
    span-derived breakdown (repro.trace.attribution)."""
    _env, tracer, edgelog, window, _n = _ycsb_run()
    report = critpath_report(edgelog, tracer, window)
    from_blame = fig06_from_blame(report["blame"])
    from_spans = fig06_from_spans(tracer, window=window)
    assert from_blame["categories"] and from_spans["categories"]
    top_blame = max(from_blame["categories"].items(), key=lambda kv: kv[1])[0]
    top_spans = max(from_spans["categories"].items(), key=lambda kv: kv[1])[0]
    assert top_blame == top_spans


def test_chrome_trace_gets_critpath_track_and_flow():
    _env, tracer, edgelog, window, _n = _ycsb_run(n_records=100, n_ops=100)
    path = makespan_path(edgelog, tracer, window)
    extras, flows = path_trace_extras(path, name="makespan")
    assert extras and flows
    events = to_chrome_events(tracer, extra_spans=extras, flows=flows)
    flow_events = [e for e in events if e["ph"] in ("s", "t", "f")]
    assert flow_events and flow_events[0]["ph"] == "s"
    assert flow_events[-1]["ph"] == "f" and flow_events[-1]["bp"] == "e"
    assert any(e["ph"] == "M" and e["args"]["name"] == "critpath" for e in events)
    # Flow timestamps are non-decreasing along the chain.
    ts = [e["ts"] for e in flow_events]
    assert ts == sorted(ts)


# ---------------------------------------------------------------------------
# causal what-if profiler (acceptance criteria)
# ---------------------------------------------------------------------------


WHATIF_ARGS = [
    "--num", "2000",
    "--device", "sata",
    "--value-size", "4096",
    "--workers", "8",
    "--threads", "8",
]


@pytest.fixture(scope="module")
def whatif_baseline():
    args = whatif.build_parser().parse_args(WHATIF_ARGS)
    metrics, report = whatif._run(args, with_critpath=True)
    return args, metrics, report


def _measured_delta(args, baseline_metrics, experiment):
    metrics, _ = whatif._run(args, experiment=experiment)
    return metrics.qps / baseline_metrics.qps - 1.0


def test_whatif_wal_speedup_prediction_within_tolerance(whatif_baseline):
    """Acceptance criterion 1: speeding up WAL writes 0.8x — the predicted
    throughput delta from the critical path lands within 25% of the delta
    measured by actually re-running with the scaled service time."""
    args, metrics, report = whatif_baseline
    experiment = EXPERIMENTS["wal-write-0.8x"]
    predicted = predicted_delta(report, experiment, metrics.elapsed, channels=1)
    measured = _measured_delta(args, metrics, experiment)
    assert measured > 0.02  # the speedup is real, not noise
    assert check_prediction(predicted, measured)


def test_whatif_extra_channel_prediction_within_tolerance(whatif_baseline):
    """Acceptance criterion 2: adding one device channel — predicted from
    device queueing blame on the makespan path, within 25% of measured."""
    args, metrics, report = whatif_baseline
    from repro.tools.dbbench import DEVICES

    channels = DEVICES[args.device].channels
    experiment = EXPERIMENTS["channels+1"]
    predicted = predicted_delta(report, experiment, metrics.elapsed, channels)
    measured = _measured_delta(args, metrics, experiment)
    assert measured > 0.02
    assert check_prediction(predicted, measured)


def test_whatif_cli_check_passes():
    rc = whatif.main(
        WHATIF_ARGS + ["--experiments", "wal-write-0.8x,channels+1", "--check"]
    )
    assert rc == 0


def test_check_prediction_tolerance_band():
    assert check_prediction(0.10, 0.10)
    assert check_prediction(0.10, 0.12)  # within 25% relative
    assert not check_prediction(0.10, 0.20)
    assert check_prediction(0.0, 0.015)  # absolute floor for near-zero deltas
    assert not check_prediction(0.0, 0.05)
