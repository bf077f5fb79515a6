"""Host-profiling plane tests: zone mechanics, the zone table (targets
wrapped at install time, originals restored, bad targets rejected, the zone
names each CLI reports), the report tree, the stack
sampler's speedscope export, the instrument-tax harness, non-interference
(byte-identical sim reports with ``--profile`` on vs off, across reruns and
schedule seeds) and the zero-overhead off path.

Everything here touches *host* wall time, so the assertions are structural
(counts, nesting, monotonicity), never about absolute durations.
"""

import json
import runpy
import sys
import textwrap

import pytest

from repro.analysis.lint import lint_source
from repro.perf import zones
from repro.perf.report import coverage, format_zone_tree, zone_tree
from repro.perf.sampling import StackSampler
from repro.perf.tax import LAYERS, format_tax
from repro.perf.zones import ZoneProfiler
from tests.test_flow import rule_names


@pytest.fixture(autouse=True)
def _no_leaked_profiler():
    """Every test starts and ends with the global probe disabled."""
    zones.uninstall()
    yield
    zones.uninstall()


# ---------------------------------------------------------------------------
# zone mechanics
# ---------------------------------------------------------------------------


def test_zone_enter_leave_accumulates():
    p = ZoneProfiler()
    p.start()
    p.enter("kernel.dispatch")
    p.leave()
    p.enter("kernel.dispatch")
    p.leave()
    p.stop()
    rec = p.zones["kernel.dispatch"]
    assert rec[0] == 2
    assert rec[1] >= rec[2] > 0
    snap = p.snapshot()
    assert snap["zones"]["kernel.dispatch"]["count"] == 2


def test_nested_zone_self_excludes_child():
    p = ZoneProfiler()
    p.start()
    p.enter("outer")
    p.enter("outer.inner")
    # burn a little host time inside the child so the split is visible
    sum(range(20000))
    p.leave()
    p.leave()
    p.stop()
    outer, inner = p.zones["outer"], p.zones["outer.inner"]
    # outer's total includes the child; its self time does not
    assert outer[1] >= inner[1]
    assert outer[2] == outer[1] - inner[1]
    # attributed = sum of self times = wall spent inside at least one zone
    assert p.attributed_ns == outer[2] + inner[2]
    assert p.attributed_ns <= p.wall_ns()


def test_reentrant_same_name_nests():
    p = ZoneProfiler()
    p.start()
    p.enter("z")
    p.enter("z")
    p.leave()
    p.leave()
    p.stop()
    rec = p.zones["z"]
    assert rec[0] == 2
    # self of both occurrences sums to the outer total (inner counted once)
    assert rec[2] == pytest.approx(rec[1] - (rec[1] - rec[2]))
    assert p.attributed_ns == rec[2]


def test_unwind_closes_to_token_depth():
    p = ZoneProfiler()
    p.start()
    tok = p.enter("dispatch")
    p.enter("a")
    p.enter("b")
    # simulate an exception tearing out of a callback: unwind, don't leave
    p.unwind(tok)
    assert p._stack == []
    assert set(p.zones) == {"dispatch", "a", "b"}
    p.stop()
    snap = p.snapshot()
    assert snap["coverage"] <= 1.0 + 1e-9
    assert snap["unattributed_ns"] >= 0


def test_snapshot_window_and_coverage_bounds():
    p = ZoneProfiler()
    snap = p.snapshot()
    assert snap == {
        "wall_ns": 0,
        "attributed_ns": 0,
        "unattributed_ns": 0,
        "coverage": 0.0,
        "zones": {},
    }
    p.start()
    p.enter("only")
    p.leave()
    p.stop()
    wall_after_stop = p.wall_ns()
    assert wall_after_stop == p.snapshot()["wall_ns"]  # window closed
    assert 0.0 < p.snapshot()["coverage"] <= 1.0


def test_install_uninstall_manage_global():
    assert zones.PROFILER is None
    prof = zones.install()
    assert zones.PROFILER is prof
    zones.uninstall()
    assert zones.PROFILER is None
    with zones.attach() as prof2:
        assert zones.PROFILER is prof2
        prof2.enter("x")
        prof2.leave()
    assert zones.PROFILER is None
    assert prof2.wall_ns() > 0


# ---------------------------------------------------------------------------
# zone table: wrappers swapped in at install time, originals put back
# ---------------------------------------------------------------------------


def _raise_key_error():
    raise KeyError("boom")


def test_install_wraps_every_target_and_uninstall_restores():
    originals = zones.targets()
    assert len(originals) == len(zones.ZONES)
    zones.install()
    for zone, owner, attr, fn in originals:
        wrapper = vars(owner)[attr]
        assert wrapper is not fn, zone
        assert wrapper.__wrapped__ is fn, zone
    zones.uninstall()
    for zone, owner, attr, fn in originals:
        assert vars(owner)[attr] is fn, zone


def test_wrapped_target_charges_its_zone():
    from repro.storage.bloom import BloomFilter

    bloom = BloomFilter.from_keys([b"a"])
    with zones.attach() as prof:
        assert bloom.may_contain(b"a")
    assert prof.zones["storage.bloom.probe"][0] == 1
    assert prof._stack == []


def test_wrapper_unwinds_its_zone_on_exception(monkeypatch):
    target = "%s:_raise_key_error" % __name__
    monkeypatch.setattr(zones, "ZONES", (("test.raise", target),))
    with zones.attach() as prof:
        with pytest.raises(KeyError):
            _raise_key_error()  # looked up in module globals: the wrapper
        assert prof._stack == []
    assert prof.zones["test.raise"][0] == 1


@pytest.mark.parametrize(
    "target, error",
    [
        ("repro.storage.bloom:BloomFilter.no_such_method", AttributeError),
        # a generator function would hold its zone open across sim yields
        ("repro.engine.db:LSMEngine._run_compaction", TypeError),
    ],
)
def test_install_rejects_bad_target(monkeypatch, target, error):
    originals = zones.targets()
    monkeypatch.setattr(zones, "ZONES", zones.ZONES + (("bad.zone", target),))
    with pytest.raises(error):
        zones.install()
    # the table is resolved before anything is swapped
    assert zones.PROFILER is None
    for zone, owner, attr, fn in originals:
        assert vars(owner)[attr] is fn, zone


# ---------------------------------------------------------------------------
# report tree
# ---------------------------------------------------------------------------


def _fake_snapshot():
    # hand-built snapshot: 100us wall, 90 attributed across a 2-level tree
    zmap = {
        "engine.batch.encode": {"count": 3, "total_ns": 20000, "self_ns": 20000},
        "engine.compaction.merge": {"count": 1, "total_ns": 30000, "self_ns": 30000},
        "kernel.dispatch": {"count": 9, "total_ns": 90000, "self_ns": 40000},
    }
    attributed = sum(z["self_ns"] for z in zmap.values())
    return {
        "wall_ns": 100000,
        "attributed_ns": attributed,
        "unattributed_ns": 100000 - attributed,
        "coverage": attributed / 100000.0,
        "zones": zmap,
    }


def test_zone_tree_groups_by_prefix():
    tree = zone_tree(_fake_snapshot())
    assert tree["name"] == "attributed"
    assert tree["cum_ns"] == 90000
    children = {c["name"]: c for c in tree["children"]}
    assert set(children) == {"engine", "kernel"}
    engine = children["engine"]
    assert engine["cum_ns"] == 50000
    mid = {c["name"]: c for c in engine["children"]}
    assert set(mid) == {"engine.batch", "engine.compaction"}
    merge = mid["engine.compaction"]["children"][0]
    assert merge["name"] == "engine.compaction.merge"
    assert merge["cum_ns"] == 30000
    encode = mid["engine.batch"]["children"][0]
    assert encode["count"] == 3
    # children sorted by descending cumulative time
    assert [c["name"] for c in tree["children"]] == ["engine", "kernel"]


def test_format_zone_tree_mentions_unattributed():
    text = format_zone_tree(_fake_snapshot())
    assert "unattributed" in text
    assert "dispatch" in text  # nested nodes print their last segment
    assert "90.0%" in text  # the root line accounts for coverage
    assert coverage(_fake_snapshot()) == pytest.approx(0.9)


def test_format_zone_tree_min_share_prunes():
    text = format_zone_tree(_fake_snapshot(), min_share=0.25)
    assert "merge" in text
    assert "encode" not in text  # engine.batch subtree is 20% < 25%


# ---------------------------------------------------------------------------
# stack sampler / speedscope
# ---------------------------------------------------------------------------


def _burn(n):
    total = 0
    for i in range(n):
        total += i * i
    return total


def test_sampler_collapsed_and_speedscope():
    sampler = StackSampler(interval_us=50.0)
    sampler.start()
    for _ in range(200):
        _burn(2000)
    sampler.stop()
    collapsed = sampler.collapsed()
    assert collapsed, "expected at least one sampled stack"
    for line in collapsed.splitlines():
        frames, weight = line.rsplit(" ", 1)
        assert float(weight) > 0
        assert ";" in frames or frames
    assert any("_burn" in line for line in collapsed.splitlines())

    doc = sampler.speedscope("unit")
    # schema shape speedscope.app actually validates
    assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
    frames = doc["shared"]["frames"]
    prof = doc["profiles"][0]
    assert prof["type"] == "sampled"
    assert prof["unit"] == "nanoseconds"
    assert len(prof["samples"]) == len(prof["weights"]) > 0
    for stack in prof["samples"]:
        for idx in stack:
            assert 0 <= idx < len(frames)
    assert prof["endValue"] == sum(prof["weights"])
    json.dumps(doc)  # must be JSON-serializable as-is


def test_sampler_noop_when_never_started():
    sampler = StackSampler()
    assert sampler.collapsed() == ""
    doc = sampler.speedscope("empty")
    assert doc["profiles"][0]["samples"] == []


# ---------------------------------------------------------------------------
# instrument tax
# ---------------------------------------------------------------------------


def test_tax_layers_and_format():
    assert LAYERS[0] == "off"
    report = {
        "base_wall_ns": 10_000_000,
        "layers": [
            {"layer": "off", "wall_ns": 10_000_000, "overhead_pct": 0.0},
            {"layer": "trace", "wall_ns": 12_000_000, "overhead_pct": 20.0},
        ],
    }
    text = format_tax(report)
    assert "off" in text and "trace" in text
    assert "+20.0%" in text


def test_tax_unknown_layer_rejected():
    from repro.perf.tax import run_workload

    with pytest.raises(ValueError):
        run_workload("nosuch")


# ---------------------------------------------------------------------------
# non-interference: byte-identical sim output with --profile on/off
# ---------------------------------------------------------------------------


def _dbbench_json(tmp_path, tag, extra=()):
    from repro.tools import dbbench

    out = tmp_path / ("bench-%s.json" % tag)
    argv = [
        "--benchmarks", "fillrandom", "--system", "p2kvs",
        "--workers", "2", "--threads", "4", "--num", "300",
        "--cores", "8", "--device", "nvme", "--seed", "0",
        "--json", str(out),
    ] + list(extra)
    assert dbbench.main(argv) == 0
    return out.read_bytes()


def test_dbbench_profile_does_not_change_report(tmp_path, capsys):
    plain = _dbbench_json(tmp_path, "plain")
    profiled = _dbbench_json(tmp_path, "prof", ["--profile"])
    again = _dbbench_json(tmp_path, "prof2", ["--profile"])
    assert profiled == plain
    assert again == plain
    # ...and under schedule perturbation: profiled-vs-plain at the same seed
    seeded_plain = _dbbench_json(tmp_path, "s7", ["--schedule-seed", "7"])
    seeded_prof = _dbbench_json(
        tmp_path, "s7p", ["--profile", "--schedule-seed", "7"]
    )
    assert seeded_prof == seeded_plain
    assert zones.PROFILER is None  # CLI uninstalls its profiler


def test_dbbench_profile_out_writes_snapshot(tmp_path, capsys):
    out = tmp_path / "prof.json"
    _dbbench_json(tmp_path, "artifact", ["--profile-out", str(out)])
    snap = json.loads(out.read_text())
    assert 0.0 < snap["coverage"] <= 1.0
    assert "kernel.dispatch" in snap["zones"]
    # the profile tree goes to stderr: sim stdout must not mention it
    captured = capsys.readouterr()
    assert "attributed" not in captured.out
    assert "dispatch" in captured.err


def _serve_json(tmp_path, tag, extra=()):
    from repro.tools import serve

    out = tmp_path / ("slo-%s.json" % tag)
    argv = [
        "--scenario", "uniform", "--shards", "4", "--partitions", "8",
        "--ops", "200", "--rate", "600000", "--key-space", "200",
        "--dispatchers", "2", "--workers", "2", "--cores", "16",
        "--json", str(out),
    ] + list(extra)
    assert serve.main(argv) == 0
    return out.read_bytes()


def test_serve_profile_does_not_change_report(tmp_path, capsys):
    plain = _serve_json(tmp_path, "plain")
    profiled = _serve_json(tmp_path, "prof", ["--profile"])
    assert profiled == plain
    # the service plane's SLO report is byte-stable across schedule seeds,
    # so the profiled seeded run must match the unseeded plain bytes too
    seeded = _serve_json(
        tmp_path, "seed", ["--profile", "--schedule-seed", "99"]
    )
    assert seeded == plain


#: zone names each profiled CLI run reports; a target its callers stop
#: reaching (a name bound at import time) drops out of these sets.
DBBENCH_ZONES = {
    "engine.batch.encode", "harness.open", "harness.preload", "harness.run",
    "harness.workload", "kernel.dispatch", "obs.metrics", "obs.sanitize",
    "obs.trace", "storage.bloom.probe", "storage.memtable.insert",
    "storage.memtable.search", "storage.sst.build", "storage.wal.encode",
}
SERVE_ZONES = {
    "engine.batch.encode", "harness.open", "kernel.dispatch", "obs.monitor",
    "service.preload", "service.run", "storage.memtable.insert",
    "storage.memtable.search", "storage.wal.encode",
}
PROFILE_ZONES = {
    "engine.batch.encode", "engine.compaction.merge", "harness.open",
    "harness.run", "kernel.dispatch", "storage.memtable.insert",
    "storage.sst.build", "storage.wal.encode",
}


def test_dbbench_profile_zone_names(tmp_path, monkeypatch, capsys):
    """Run the way ``python -m repro.tools.dbbench`` runs, as ``__main__``:
    the ``harness.workload`` target must resolve to that module."""
    out = tmp_path / "prof.json"
    argv = [
        "--benchmarks", "readrandom", "--system", "p2kvs",
        "--workers", "2", "--threads", "4", "--num", "1000",
        "--cores", "8", "--seed", "0", "--sanitize",
        "--trace-out", str(tmp_path / "trace.json"),
        "--stats", "--stats-out", str(tmp_path / "stats"),
        "--profile-out", str(out),
    ]
    monkeypatch.setattr(sys, "argv", ["dbbench"] + argv)
    # runpy warns if the module it is about to run as __main__ is imported
    monkeypatch.delitem(sys.modules, "repro.tools.dbbench", raising=False)
    with pytest.raises(SystemExit) as done:
        runpy.run_module("repro.tools.dbbench", run_name="__main__", alter_sys=True)
    assert done.value.code == 0
    assert set(json.loads(out.read_text())["zones"]) == DBBENCH_ZONES


def _with_suite_sanitizer(request, zones):
    """Under ``pytest --sanitize`` every Simulator carries a sanitizer, so a
    run that opens its own also reports the ``obs.sanitize`` zone."""
    if request.config.getoption("--sanitize"):
        return zones | {"obs.sanitize"}
    return zones


def test_serve_profile_zone_names(tmp_path, capsys, request):
    out = tmp_path / "prof.json"
    _serve_json(tmp_path, "zones", ["--monitor", "--profile-out", str(out)])
    assert set(json.loads(out.read_text())["zones"]) == _with_suite_sanitizer(
        request, SERVE_ZONES
    )


def test_profile_tool_zone_names(tmp_path, capsys, request):
    from repro.tools import profile

    out = tmp_path / "prof.json"
    assert profile.main(["--json", str(out)]) == 0
    assert set(json.loads(out.read_text())["zones"]) == _with_suite_sanitizer(
        request, PROFILE_ZONES
    )


def test_disabled_probes_never_touch_the_profiler(monkeypatch):
    """With no profiler installed the probes must be dead code: poison every
    ZoneProfiler method and run a full benchmark."""
    from repro.tools import dbbench

    def _boom(*a, **k):  # pragma: no cover - must never run
        raise AssertionError("probe fired with PROFILER unset")

    monkeypatch.setattr(ZoneProfiler, "enter", _boom)
    monkeypatch.setattr(ZoneProfiler, "leave", _boom)
    monkeypatch.setattr(ZoneProfiler, "unwind", _boom)
    assert zones.PROFILER is None
    args = dbbench.build_parser().parse_args(
        ["--benchmarks", "fillrandom", "--system", "p2kvs", "--workers", "2",
         "--threads", "4", "--num", "200", "--cores", "8", "--seed", "0"]
    )
    result = dbbench.run_benchmark("fillrandom", args)
    assert result["ops"] == 200
    # ...because no zone target is wrapped at all
    for zone, _owner, _attr, fn in zones.targets():
        assert not hasattr(fn, "__wrapped__"), zone


# ---------------------------------------------------------------------------
# lint / flow integration: the repro.perf allowlist and host-time-leak
# ---------------------------------------------------------------------------


def test_wall_clock_rule_exempts_repro_perf_only():
    code = textwrap.dedent(
        """
        from time import perf_counter_ns

        def wall():
            return perf_counter_ns()
        """
    )
    inside = lint_source(code, module="repro.perf.zones")
    assert [d.rule for d in inside] == []
    outside = lint_source(code, module="repro.engine.db")
    assert "wall-clock" in [d.rule for d in outside]
    # bare-name calls are caught even outside the classic sim scopes
    tools = lint_source(code, module="repro.tools.newtool")
    assert "wall-clock" in [d.rule for d in tools]


def test_host_time_leak_flagged():
    names = rule_names(
        repro__perf__zones="""
        def wall_ns():
            return 123
        """,
        repro__engine__perffix="""
        from repro.perf.zones import wall_ns

        def pace(self, env, ctx):
            budget = wall_ns()
            yield env.sim.timeout(budget)
        """,
    )
    assert names == ["host-time-leak"]


# ---------------------------------------------------------------------------
# bench-regress wall-clock gate
# ---------------------------------------------------------------------------


def _bench_entry(qps=1000.0, wall=5000.0):
    return {
        "qps": qps,
        "p99_latency_us": 10.0,
        "simulated_seconds": 1.0,
        "wall_seconds": 1.0,
        "wall_ops_per_s": wall,
        "counters": {},
        "events": {},
    }


def _meta():
    import platform

    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "wall_protocol": "best-of-3 after 1 warmup"}


def test_regress_gates_wall_column():
    from benchmarks.regress import compare

    baseline = {"_meta": _meta(), "fill": _bench_entry()}
    ok = {"_meta": _meta(), "fill": _bench_entry(wall=4000.0)}
    assert compare(ok, baseline, 0.10, wall_tolerance=0.30) == []
    slow = {"_meta": _meta(), "fill": _bench_entry(wall=3000.0)}
    failures = compare(slow, baseline, 0.10, wall_tolerance=0.30)
    assert len(failures) == 1 and "wall throughput" in failures[0]
    # a missing wall column (e.g. the zero-wall guard fired) also fails
    missing = {"_meta": _meta(), "fill": _bench_entry(wall=None)}
    failures = compare(missing, baseline, 0.10, wall_tolerance=0.30)
    assert len(failures) == 1 and "missing" in failures[0]


def test_regress_wall_gate_skipped_on_foreign_host(capsys):
    from benchmarks.regress import compare

    foreign = dict(_meta(), platform="OtherOS-1.0-sparc64")
    baseline = {"_meta": foreign, "fill": _bench_entry()}
    current = {"_meta": _meta(), "fill": _bench_entry(wall=100.0)}
    # host speed is not portable: qps still gated, wall only reported
    assert compare(current, baseline, 0.10, wall_tolerance=0.30) == []
    assert "not gated" in capsys.readouterr().out


def test_regress_meta_is_not_a_config():
    from benchmarks.regress import compare

    baseline = {"_meta": _meta(), "fill": _bench_entry()}
    current = {"fill": _bench_entry()}
    assert compare(current, baseline, 0.10, wall_tolerance=0.30) == []


def test_host_time_leak_negative_outside_sinks():
    # reading a snapshot for reporting is fine; only sim sinks are errors
    names = rule_names(
        repro__perf__zones="""
        def wall_ns():
            return 123
        """,
        repro__engine__perfok="""
        from repro.perf.zones import wall_ns

        def report(self):
            return {"wall": wall_ns()}
        """,
    )
    assert names == []
