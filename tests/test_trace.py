"""Tests for the tracing layer: span invariants, zero-overhead default,
Chrome export, and the span-derived Figure 6 attribution."""

import json

import pytest

from repro.core import P2KVS
from repro.engine import LSMEngine, make_env, rocksdb_options
from repro.trace import (
    CATEGORIES,
    Tracer,
    fig06_from_contexts,
    fig06_from_spans,
    install_tracer,
    thread_track,
    to_chrome_events,
    uninstall_tracer,
    write_chrome_trace,
)
from repro.tools import dbbench
from tests.conftest import run_process

EPS = 1e-9


def small_options(**kw):
    kw.setdefault("write_buffer_size", 64 * 1024)
    kw.setdefault("target_file_size", 64 * 1024)
    kw.setdefault("max_bytes_for_level_base", 256 * 1024)
    return rocksdb_options(**kw)


def run_p2kvs_workload(env, n_ops=300, n_workers=2, value_size=112):
    """A deterministic single-user write workload; returns final sim time."""
    kvs = run_process(env, P2KVS.open(env, n_workers=n_workers))
    ctx = env.cpu.new_thread("user-0")

    def work():
        for i in range(n_ops):
            yield from kvs.put(ctx, b"key%08d" % i, b"v" * value_size)
        yield from kvs.close()

    run_process(env, work())
    return env.sim.now


class TestTracerBasics:
    def test_simulator_defaults_to_null_tracer(self):
        env = make_env(n_cores=4)
        assert env.sim.tracer is None

    def test_install_and_uninstall(self):
        env = make_env(n_cores=4)
        tracer = install_tracer(env)
        assert env.sim.tracer is tracer
        assert tracer.sim is env.sim
        uninstall_tracer(env)
        assert env.sim.tracer is None

    def test_unfinished_spans_are_not_recorded(self):
        env = make_env(n_cores=4)
        tracer = install_tracer(env)
        tracer.begin("open", "c", "t")  # never finished
        done = tracer.begin("done", "c", "t").finish(tag=1)
        assert [s.name for s in tracer.events] == ["done"]
        assert done.args == {"tag": 1}
        assert done.finish() is done  # double finish is a no-op
        assert len(tracer.events) == 1

    def test_max_events_increments_dropped(self):
        env = make_env(n_cores=4)
        tracer = install_tracer(env, max_events=10)
        for i in range(25):
            tracer.instant("i%d" % i, "c", "t")
        assert len(tracer.events) == 10
        assert tracer.dropped == 15
        tracer.clear()
        assert tracer.events == [] and tracer.dropped == 0

    def test_async_spans_get_unique_ids(self):
        env = make_env(n_cores=4)
        tracer = install_tracer(env)
        a = tracer.async_begin("a", "c", "t").finish()
        b = tracer.async_begin("b", "c", "t").finish()
        assert a.aid is not None and b.aid is not None and a.aid != b.aid


class TestZeroOverhead:
    def test_traced_run_ends_at_identical_sim_time(self):
        times = []
        for traced in (False, True):
            env = make_env(n_cores=8)
            if traced:
                install_tracer(env)
            times.append(run_p2kvs_workload(env))
        assert times[0] == times[1]

    def test_traced_engine_run_identical(self):
        times = []
        for traced in (False, True):
            env = make_env(n_cores=8)
            if traced:
                install_tracer(env)
            engine = run_process(env, LSMEngine.open(env, "db", small_options()))
            ctx = env.cpu.new_thread("w")

            def work():
                for i in range(200):
                    yield from engine.put(ctx, b"k%06d" % i, b"v" * 200)
                yield from engine.close()

            run_process(env, work())
            times.append(env.sim.now)
        assert times[0] == times[1]


class TestSpanInvariants:
    @pytest.fixture(scope="class")
    def traced(self):
        env = make_env(n_cores=8)
        tracer = install_tracer(env)
        # Enough bytes through 1 worker to force WAL flushes and a memtable
        # switch, so storage/device/flush spans all appear.
        run_p2kvs_workload(env, n_ops=800, n_workers=1, value_size=512)
        return env, tracer

    def test_all_recorded_spans_are_finished_and_ordered(self, traced):
        env, tracer = traced
        for span in tracer.events:
            assert span.finished
            assert span.end >= span.start >= 0.0
            assert span.end <= env.sim.now + EPS

    def test_expected_tracks_present(self, traced):
        _, tracer = traced
        tracks = tracer.tracks()
        prefixes = {t.split(":", 1)[0] for t in tracks}
        assert thread_track("user-0") in tracks
        assert "queues:worker-0" in tracks
        assert {"threads", "cores", "queues", "memtable", "storage",
                "device"} <= prefixes

    def test_expected_span_names_present(self, traced):
        _, tracer = traced
        names = {s.name for s in tracer.events}
        for expected in (
            "request:PUT",
            "queued:PUT",
            "execute:write",
            "wg:lead",
            "wg:wal",
            "wg:memtable",
            "wal:append",
            "wal:flush",
            "memtable:add",
            "flush",
        ):
            assert expected in names, expected

    def test_sync_spans_nest_on_each_track(self, traced):
        """Synchronous spans on one track either nest or are disjoint —
        partial overlap would mean broken instrumentation."""
        _, tracer = traced
        # Quantize to picoseconds: spans reconstructed as [now - dt, now]
        # carry one-ulp float noise, far below any real interval (>= ns).
        quant = lambda t: round(t, 12)
        by_track = {}
        for span in tracer.events:
            if span.aid is not None:
                continue  # async spans may overlap by design
            start, end = quant(span.start), quant(span.end)
            if end <= start:
                continue  # instants are trivially fine
            by_track.setdefault(span.track, []).append((start, end, span))
        for track, spans in by_track.items():
            spans.sort(key=lambda item: (item[0], -item[1]))
            stack = []
            for start, end, span in spans:
                while stack and stack[-1] <= start:
                    stack.pop()
                if stack:
                    # open enclosing span must fully contain this one
                    assert end <= stack[-1], (track, span)
                stack.append(end)

    def test_request_span_contains_queue_residency(self, traced):
        _, tracer = traced
        requests = list(tracer.spans(cat="request"))
        queued = list(tracer.spans(cat="queue"))
        assert len(requests) == 800
        assert len(queued) == 800
        for req, q in zip(
            sorted(requests, key=lambda s: s.start),
            sorted(queued, key=lambda s: s.start),
        ):
            assert req.start - EPS <= q.start and q.end <= req.end + EPS

    def test_request_spans_carry_routing_decision(self, traced):
        _, tracer = traced
        span = next(iter(tracer.spans(cat="request")))
        assert span.args["worker"] == 0
        assert span.args["op"] == "PUT"
        assert span.args["router"] == "hash"


class TestChromeExport:
    def test_json_roundtrip_and_schema(self, tmp_path):
        env = make_env(n_cores=8)
        tracer = install_tracer(env)
        run_p2kvs_workload(env, n_ops=100)
        path = tmp_path / "trace.json"
        assert write_chrome_trace(tracer, str(path)) == str(path)
        payload = json.loads(path.read_text())
        assert payload["otherData"]["dropped_events"] == 0
        events = payload["traceEvents"]
        assert events, "trace must not be empty"
        begins, ends = {}, {}
        for ev in events:
            assert {"ph", "name", "pid", "tid"} <= set(ev)
            if ev["ph"] == "M":
                continue
            assert ev["ts"] >= 0.0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0
            elif ev["ph"] == "b":
                begins[ev["id"]] = ev
            elif ev["ph"] == "e":
                ends[ev["id"]] = ev
            else:
                assert ev["ph"] == "i"
        assert begins and set(begins) == set(ends)
        for aid, b in begins.items():
            assert ends[aid]["ts"] >= b["ts"]

    def test_metadata_names_every_track(self):
        env = make_env(n_cores=8)
        tracer = install_tracer(env)
        run_p2kvs_workload(env, n_ops=50)
        events = to_chrome_events(tracer)
        named = {
            (ev["pid"], ev["tid"])
            for ev in events
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        used = {(ev["pid"], ev["tid"]) for ev in events if ev["ph"] != "M"}
        assert used <= named

    def test_timestamps_are_simulated_microseconds(self):
        env = make_env(n_cores=8)
        tracer = install_tracer(env)
        run_p2kvs_workload(env, n_ops=50)
        horizon_us = env.sim.now * 1e6
        for ev in to_chrome_events(tracer):
            if ev["ph"] != "M":
                assert ev["ts"] <= horizon_us + 1e-3


class TestFig06Attribution:
    def test_fig06_spans_match_contexts(self):
        """The span-derived breakdown equals the context-derived one — the
        guarantee that keeps docs/TRACING.md's table honest."""
        env = make_env(n_cores=8)
        tracer = install_tracer(env)
        engine = run_process(env, LSMEngine.open(env, "db", small_options()))
        contexts = []

        def writer(ctx, lo, hi):
            for i in range(lo, hi):
                yield from engine.put(ctx, b"k%08d" % i, b"v" * 112)

        for t in range(4):
            ctx = env.cpu.new_thread("user-%d" % t)
            contexts.append(ctx)
            env.sim.spawn(writer(ctx, t * 250, (t + 1) * 250))
        env.sim.run()

        from_ctx = fig06_from_contexts(contexts)
        from_spans = fig06_from_spans(
            tracer, tracks={ctx.track for ctx in contexts}
        )
        assert from_ctx["total"] > 0
        assert from_spans["total"] == pytest.approx(from_ctx["total"], rel=1e-9)
        for cat in CATEGORIES:
            assert from_spans["categories"][cat] == pytest.approx(
                from_ctx["categories"][cat], rel=1e-9, abs=1e-12
            )

    def test_window_clips_spans(self):
        env = make_env(n_cores=4)
        tracer = install_tracer(env)
        t0 = env.sim.now
        tracer.complete("wal", "busy", "threads:u", t0, t0 + 1.0)
        busy_full = fig06_from_spans(tracer)["categories"]["WAL"]
        busy_half = fig06_from_spans(tracer, window=(t0 + 0.5, t0 + 1.0))
        assert busy_full == pytest.approx(1.0)
        assert busy_half["categories"]["WAL"] == pytest.approx(0.5)

    def test_metrics_attribution_only_with_tracer(self):
        rc = dbbench.main(
            ["--num", "300", "--threads", "2", "--workers", "2",
             "--cores", "8", "--benchmarks", "fillrandom"]
        )
        assert rc == 0  # no tracer: must run without attribution machinery


class TestMetricsCollectorContract:
    def test_overlapping_collectors_assert(self):
        from repro.harness.metrics import MetricsCollector

        env = make_env(n_cores=4)
        first = MetricsCollector(env, "a")
        first.start()
        second = MetricsCollector(env, "b")
        with pytest.raises(AssertionError):
            second.start()
        first.finish(n_ops=0, user_bytes_written=0.0, memory_bytes=0)
        # sequential windows are fine once the first has finished
        second.start()
        second.finish(n_ops=0, user_bytes_written=0.0, memory_bytes=0)

    def test_restart_same_collector_is_allowed(self):
        from repro.harness.metrics import MetricsCollector

        env = make_env(n_cores=4)
        collector = MetricsCollector(env, "a")
        collector.start()
        collector.start()  # idempotent re-start of the active collector


class TestCliTraceOut:
    def test_dbbench_trace_out(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = dbbench.main(
            ["--num", "400", "--threads", "2", "--workers", "2",
             "--cores", "8", "--system", "p2kvs",
             "--benchmarks", "fillrandom", "--trace-out", str(out)]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "latency attribution" in printed
        assert str(out) in printed
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]

    def test_dbbench_trace_out_multiple_benchmarks(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = dbbench.main(
            ["--num", "300", "--threads", "2", "--workers", "2",
             "--cores", "8", "--benchmarks", "fillrandom,readrandom",
             "--trace-out", str(out)]
        )
        assert rc == 0
        for name in ("fillrandom", "readrandom"):
            per = tmp_path / ("t-%s.json" % name)
            assert per.exists(), name
            assert json.loads(per.read_text())["traceEvents"]

    def test_ycsb_trace_out(self, tmp_path, capsys):
        from repro.tools import ycsb

        out = tmp_path / "y.json"
        rc = ycsb.main(
            ["--workload", "A", "--records", "300", "--ops", "300",
             "--threads", "2", "--workers", "2", "--cores", "8",
             "--system", "p2kvs", "--trace-out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["traceEvents"]
