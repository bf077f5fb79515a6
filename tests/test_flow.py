"""Whole-program flow-analysis tests: call-graph construction, the three
interprocedural checkers (positive and negative fixtures each), determinism
of the output, the baseline machinery, and the unified check CLI."""

import json
import os
import textwrap

import pytest

from repro.analysis.callgraph import Project, load_project
from repro.analysis.flow import analyze_project, flow_rules
from repro.analysis.lint import ModuleUnderLint, lint_source
from repro.analysis.report import (
    apply_baseline,
    fingerprints,
    render_json,
    render_sarif,
    render_text,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: a stub of the sim lock API so fixtures type `self.x = Lock(...)` the
#: same way the real tree does.
SYNC_STUB = """
class Lock:
    def acquire(self, ctx, category=None):
        yield
    def release(self):
        pass

class Semaphore:
    def acquire(self, ctx, category=None):
        yield
    def release(self):
        pass
"""


def project_of(**modules):
    """Build a Project from ``module_name=source`` pairs (dots as __)."""
    mods = []
    for name, source in sorted(modules.items()):
        dotted = name.replace("__", ".")
        mods.append(
            ModuleUnderLint(
                textwrap.dedent(source), dotted, dotted.replace(".", "/") + ".py"
            )
        )
    return Project.from_modules(mods)


def flow(**modules):
    return analyze_project(project_of(**modules))


def rule_names(**modules):
    return [d.rule for d in flow(**modules)]


# ---------------------------------------------------------------------------
# call-graph construction
# ---------------------------------------------------------------------------


def test_callgraph_indexes_functions_and_classes():
    project = project_of(
        repro__engine__fix="""
        def helper():
            return 1

        class Engine:
            def put(self, key):
                return helper()
        """
    )
    assert "repro.engine.fix.helper" in project.functions
    assert "repro.engine.fix.Engine" in project.classes
    assert "repro.engine.fix.Engine.put" in project.functions
    callees = [s.callee for s in project.callees("repro.engine.fix.Engine.put")]
    assert callees == ["repro.engine.fix.helper"]


def test_callgraph_resolves_self_dispatch_through_bases():
    project = project_of(
        repro__engine__basefix="""
        class Base:
            def flush_impl(self):
                return 1

        class Child(Base):
            def run(self):
                return self.flush_impl()
        """
    )
    callees = [s.callee for s in project.callees("repro.engine.basefix.Child.run")]
    assert callees == ["repro.engine.basefix.Base.flush_impl"]


def test_callgraph_resolves_cross_module_imports_and_attr_types():
    project = project_of(
        repro__storage__devfix="""
        class Device:
            def write(self, n):
                yield
        """,
        repro__engine__userfix="""
        from repro.storage.devfix import Device

        class Engine:
            def __init__(self):
                self.device = Device()

            def flush(self):
                yield self.device.write(4096)
        """,
    )
    callees = [s.callee for s in project.callees("repro.engine.userfix.Engine.flush")]
    assert "repro.storage.devfix.Device.write" in callees


def test_callgraph_infers_factory_returns_and_param_types():
    # The WAL pattern: a factory returns a file object, a constructor takes
    # it as an untyped parameter — both hops must be inferred for the call
    # to resolve.  Two classes define flush() so the unique-name fallback
    # cannot mask a failure of the type inference.
    project = project_of(
        repro__storage__vfsfix="""
        class VFile:
            def flush(self):
                yield

        class Disk:
            def open_file(self, path):
                f = VFile()
                return f
        """,
        repro__storage__walfix="""
        class Writer:
            def __init__(self, vfile):
                self.vfile = vfile

            def flush(self):
                yield from self.vfile.flush()
        """,
        repro__engine__dbfix="""
        from repro.storage.vfsfix import Disk
        from repro.storage.walfix import Writer

        class Engine:
            def __init__(self):
                self.disk = Disk()
                self.writer = Writer(self.disk.open_file("wal"))

            def commit(self):
                yield from self.writer.flush()
        """,
    )
    assert (
        project.func_return_class["repro.storage.vfsfix.Disk.open_file"]
        == "repro.storage.vfsfix.VFile"
    )
    callees = [
        s.callee for s in project.callees("repro.storage.walfix.Writer.flush")
    ]
    assert callees == ["repro.storage.vfsfix.VFile.flush"]


def test_callgraph_stats_full_coverage_on_fixture():
    project = project_of(
        repro__engine__statfix="""
        def a():
            return b()

        def b():
            return 1
        """
    )
    stats = project.stats()
    assert stats["function_coverage"] == 1.0
    assert stats["resolved_call_sites"] == 1


# ---------------------------------------------------------------------------
# lock discipline
# ---------------------------------------------------------------------------


def lock_fixture(body):
    return {
        "repro__sim__sync": SYNC_STUB,
        "repro__engine__lockfix": (
            "from repro.sim.sync import Lock\n\n" + textwrap.dedent(body)
        ),
    }


def test_lock_blocking_while_locked_direct():
    diags = flow(
        **lock_fixture(
            """
        class Engine:
            def __init__(self):
                self.mu = Lock()

            def run(self, ctx):
                yield self.mu.acquire(ctx, "mu")
                yield self.cond.wait(ctx)
                self.mu.release()
        """
        )
    )
    assert [d.rule for d in diags] == ["blocking-while-locked"]
    assert "condvar" in diags[0].message


def test_lock_blocking_while_locked_through_call_chain():
    diags = flow(
        **lock_fixture(
            """
        class Engine:
            def __init__(self):
                self.mu = Lock()

            def _flush(self, ctx):
                yield self.disk.device.write(4096)

            def run(self, ctx):
                yield self.mu.acquire(ctx, "mu")
                yield from self._flush(ctx)
                self.mu.release()
        """
        )
    )
    assert [d.rule for d in diags] == ["blocking-while-locked"]
    assert "device-io" in diags[0].message
    assert "_flush" in diags[0].message  # the chain is reported


def test_lock_order_cycle_detected():
    diags = flow(
        **lock_fixture(
            """
        class Engine:
            def __init__(self):
                self.lock_a = Lock()
                self.lock_b = Lock()

            def forward(self, ctx):
                yield self.lock_a.acquire(ctx, "a")
                yield self.lock_b.acquire(ctx, "b")
                self.lock_b.release()
                self.lock_a.release()

            def backward(self, ctx):
                yield self.lock_b.acquire(ctx, "b")
                yield self.lock_a.acquire(ctx, "a")
                self.lock_a.release()
                self.lock_b.release()
        """
        )
    )
    assert [d.rule for d in diags] == ["lock-order-cycle"]
    assert "lock_a" in diags[0].message and "lock_b" in diags[0].message


def test_lock_negative_cost_charging_allowed_in_critical():
    assert (
        rule_names(
            **lock_fixture(
                """
        class Engine:
            def __init__(self):
                self.mu = Lock()

            def run(self, ctx, env):
                yield self.mu.acquire(ctx, "mu")
                yield env.cpu.exec(ctx, 1e-6, "work")
                yield env.sim.timeout(0.001)
                self.mu.release()
        """
            )
        )
        == []
    )


def test_lock_negative_spawned_work_does_not_block_caller():
    assert (
        rule_names(
            **lock_fixture(
                """
        class Engine:
            def __init__(self):
                self.mu = Lock()

            def run(self, ctx, env):
                yield self.mu.acquire(ctx, "mu")
                env.spawn(self.drain(ctx))
                self.mu.release()

            def drain(self, ctx):
                yield self.cond.wait(ctx)
        """
            )
        )
        == []
    )


def test_lock_negative_blocking_after_release():
    assert (
        rule_names(
            **lock_fixture(
                """
        class Engine:
            def __init__(self):
                self.mu = Lock()

            def run(self, ctx):
                yield self.mu.acquire(ctx, "mu")
                self.counter = self.counter + 1
                self.mu.release()
                yield self.cond.wait(ctx)
        """
            )
        )
        == []
    )


def test_lock_consistent_order_has_no_cycle():
    assert (
        rule_names(
            **lock_fixture(
                """
        class Engine:
            def __init__(self):
                self.lock_a = Lock()
                self.lock_b = Lock()

            def one(self, ctx):
                yield self.lock_a.acquire(ctx, "a")
                yield self.lock_b.acquire(ctx, "b")
                self.lock_b.release()
                self.lock_a.release()

            def two(self, ctx):
                yield self.lock_a.acquire(ctx, "a")
                yield self.lock_b.acquire(ctx, "b")
                self.lock_b.release()
                self.lock_a.release()
        """
            )
        )
        == []
    )


def test_lock_interprocedural_case_is_invisible_to_lint():
    """The acceptance differentiator: blocking reached through a call is
    beyond the per-module lint (which only sees same-function waits)."""
    body = """
    class Engine:
        def __init__(self):
            self.mu = Lock()

        def _flush(self, ctx):
            yield self.disk.device.write(4096)

        def run(self, ctx):
            yield self.mu.acquire(ctx, "mu")
            yield from self._flush(ctx)
            self.mu.release()
    """
    source = "from repro.sim.sync import Lock\n\n" + textwrap.dedent(body)
    lint_diags = lint_source(source, module="repro.engine.lockfix")
    assert "yield-in-critical" not in [d.rule for d in lint_diags]
    assert "blocking-while-locked" in rule_names(**lock_fixture(body))


# ---------------------------------------------------------------------------
# determinism taint
# ---------------------------------------------------------------------------


def test_taint_wall_clock_to_timeout_sink():
    diags = flow(
        repro__service__taintfix="""
        import time

        def pace(self, env, ctx):
            now = time.time()
            yield env.sim.timeout(now)
        """
    )
    assert [d.rule for d in diags] == ["determinism-taint"]
    assert "wall clock" in diags[0].message
    assert "sinks at" in diags[0].message


def test_taint_flows_through_helper_return_across_modules():
    diags = flow(
        repro__harness__helperfix="""
        import time

        def stamp():
            return time.time()
        """,
        repro__engine__taintfix="""
        from repro.harness.helperfix import stamp

        def schedule(self, env, ctx):
            cost = stamp()
            yield env.cpu.exec(ctx, cost, "work")
        """,
    )
    assert [d.rule for d in diags] == ["determinism-taint"]
    assert "returned by stamp()" in diags[0].message


def test_taint_set_iteration_reaches_heap_sink():
    diags = flow(
        repro__core__taintfix="""
        from heapq import heappush

        def enqueue(self, items):
            pending = set(items)
            for key in pending:
                heappush(self.heap, key)
        """
    )
    assert [d.rule for d in diags] == ["determinism-taint"]
    assert "unordered set" in diags[0].message


def test_taint_propagates_into_callee_params():
    diags = flow(
        repro__engine__paramfix="""
        import time

        def delay(env, amount):
            yield env.sim.timeout(amount)

        def run(self, env):
            skew = time.time()
            yield from delay(env, skew)
        """
    )
    assert "determinism-taint" in [d.rule for d in diags]
    joined = " ".join(d.message for d in diags)
    assert "passed to delay(amount)" in joined


def test_taint_negative_outside_sink_scopes():
    # Reporting tools may read wall clocks; only the simulation stack sinks.
    assert (
        rule_names(
            repro__toolsx__reportfix="""
        import time

        def pace(self, env, ctx):
            now = time.time()
            yield env.sim.timeout(now)
        """
        )
        == []
    )


def test_taint_negative_seeded_rng_and_sorted_iteration():
    assert (
        rule_names(
            repro__engine__cleanfix="""
        def pace(self, env, ctx, items):
            jitter = self.rng.random()
            yield env.sim.timeout(jitter)
            for key in sorted(set(items)):
                yield env.cpu.exec(ctx, 1e-7, "scan")
        """
        )
        == []
    )


def test_lint_and_taint_both_catch_wall_clock_in_service():
    """The wall-clock lint covers all of src/ (repro.perf is the one exempt
    package); the flow checker additionally proves the value *reaches a
    scheduling sink* — same defect, two complementary reports."""
    code = """
    import time

    def pace(self, env, ctx):
        now = time.time()
        yield env.sim.timeout(now)
    """
    lint_diags = lint_source(textwrap.dedent(code), module="repro.service.taintfix")
    assert [d.rule for d in lint_diags] == ["wall-clock"]
    assert rule_names(repro__service__taintfix=code) == ["determinism-taint"]


# ---------------------------------------------------------------------------
# status contract
# ---------------------------------------------------------------------------


def test_status_discarded_hit():
    diags = flow(
        repro__engine__statusfix="""
        class Engine:
            def get_status(self, ctx, key):
                return KVStatus.ok(b"v")

            def warm(self, ctx):
                self.get_status(ctx, b"k")
        """
    )
    assert [d.rule for d in diags] == ["status-discarded"]
    assert "get_status" in diags[0].message


def test_status_discarded_through_yield_from():
    diags = flow(
        repro__engine__statusfix="""
        class Engine:
            def get_status(self, ctx, key):
                status = KVStatus.not_found(key)
                return status

            def warm(self, ctx):
                yield from self.get_status(ctx, b"k")
        """
    )
    assert [d.rule for d in diags] == ["status-discarded"]


def test_status_negative_when_consumed_or_returned():
    assert (
        rule_names(
            repro__engine__statusfix="""
        class Engine:
            def get_status(self, ctx, key):
                return KVStatus.ok(b"v")

            def warm(self, ctx):
                status = self.get_status(ctx, b"k")
                if not status.is_ok():
                    raise RuntimeError(status)

            def passthrough(self, ctx):
                return self.get_status(ctx, b"k")
        """
        )
        == []
    )


def test_crash_swallowed_hit_and_reraise_negative():
    bad = """
    def drain(self):
        try:
            self.step()
        except Exception:
            self.log("oops")
    """
    good = """
    from repro.faults.plane import CrashTriggered

    def drain(self):
        try:
            self.step()
        except CrashTriggered:
            self.note()
            raise
        except Exception:
            self.log("oops")
            raise
    """
    assert rule_names(repro__service__crashfix=bad) == ["crash-swallowed"]
    assert rule_names(repro__service__crashfix=good) == []


def test_crash_swallowed_bare_except_hit():
    assert rule_names(
        repro__engine__crashfix="""
        def drain(self):
            try:
                self.step()
            except:
                pass
        """
    ) == ["crash-swallowed"]


def test_crash_swallowed_is_invisible_to_lint_outside_core():
    """lint's bare-except rule watches worker loops; an `except Exception:
    pass` in the service plane only the flow contract checker sees."""
    code = """
    def drain(self):
        try:
            self.step()
        except Exception:
            self.log("oops")
    """
    lint_diags = lint_source(textwrap.dedent(code), module="repro.service.crashfix")
    assert lint_diags == []
    assert rule_names(repro__service__crashfix=code) == ["crash-swallowed"]


def test_unbounded_retry_no_bound_hit():
    diags = flow(
        repro__core__retryfix="""
        from repro.errors import KVError

        def submit(self, env, ctx):
            while True:
                try:
                    yield from self.io(ctx)
                    return
                except KVError:
                    yield env.sim.timeout(0.001)
        """
    )
    assert [d.rule for d in diags] == ["unbounded-retry"]
    assert "never gives up" in diags[0].message


def test_unbounded_retry_no_backoff_hit():
    diags = flow(
        repro__core__retryfix="""
        from repro.errors import KVError

        def submit(self, ctx):
            attempts = 0
            while True:
                try:
                    self.io(ctx)
                    return
                except KVError:
                    attempts = attempts + 1
                    if attempts >= 3:
                        raise
        """
    )
    assert [d.rule for d in diags] == ["unbounded-retry"]
    assert "no backoff" in diags[0].message


def test_retry_negative_bounded_with_backoff():
    assert (
        rule_names(
            repro__core__retryfix="""
        from repro.errors import KVError

        def submit(self, env, ctx):
            attempts = 0
            while True:
                try:
                    yield from self.io(ctx)
                    return
                except KVError:
                    attempts = attempts + 1
                    if attempts >= 3:
                        raise
                    yield env.sim.timeout(0.001 * attempts)
        """
        )
        == []
    )


def test_retry_negative_service_loop_exempt():
    # A dispatcher that dequeues fresh work each iteration is not a retry
    # loop, even though it catches retryable errors forever.
    assert (
        rule_names(
            repro__service__loopfix="""
        from repro.errors import KVError

        def dispatcher(self, ctx):
            while True:
                item = yield self.queue.get(ctx)
                try:
                    yield from self.handle(item)
                except KVError:
                    self.counters.add("retries")
        """
        )
        == []
    )


def test_retry_negative_shutdown_flag_is_a_bound():
    assert (
        rule_names(
            repro__engine__loopfix="""
        from repro.errors import KVError

        def flush_loop(self, env, ctx):
            while not self.closing:
                try:
                    yield from self.flush_once(ctx)
                except KVError:
                    yield env.sim.timeout(0.01)
        """
        )
        == []
    )


# ---------------------------------------------------------------------------
# suppression, determinism, report formats
# ---------------------------------------------------------------------------


def test_flow_diagnostics_honor_line_suppressions():
    assert (
        rule_names(
            repro__engine__suppfix="""
        class Engine:
            def get_status(self, ctx, key):
                return KVStatus.ok(b"v")

            def warm(self, ctx):
                self.get_status(ctx, b"k")  # lint: disable=status-discarded  (warm-up: outcome is irrelevant)
        """
        )
        == []
    )


def _dirty_tree_sources():
    return dict(
        repro__sim__sync=SYNC_STUB,
        repro__engine__many="""
        from repro.sim.sync import Lock
        import time

        class Engine:
            def __init__(self):
                self.mu = Lock()

            def get_status(self, ctx, key):
                return KVStatus.ok(b"v")

            def run(self, env, ctx):
                self.get_status(ctx, b"k")
                now = time.time()
                yield env.sim.timeout(now)
                yield self.mu.acquire(ctx, "mu")
                yield self.cond.wait(ctx)
                self.mu.release()
        """,
    )


def test_output_is_byte_identical_across_fresh_runs():
    runs = []
    for _ in range(2):
        diags = flow(**_dirty_tree_sources())
        runs.append(
            (render_text(diags), render_json(diags), fingerprints(diags))
        )
    assert runs[0] == runs[1]
    assert len(runs[0][2]) == 3  # three distinct findings, all fingerprinted


def test_fingerprints_tolerate_line_drift():
    from repro.analysis.lint import Diagnostic

    a = Diagnostic("p.py", 10, 4, "r", "lock acquired line 10 in 'f'")
    b = Diagnostic("p.py", 99, 0, "r", "lock acquired line 99 in 'f'")
    assert fingerprints([a]) == fingerprints([b])


def test_apply_baseline_matches_and_reports_stale():
    diags = flow(**_dirty_tree_sources())
    entries = [
        {"fingerprint": fp, "rule": d.rule}
        for d, fp in zip(diags, fingerprints(diags))
    ]
    new, matched, stale = apply_baseline(diags, entries)
    assert (new, matched, stale) == ([], len(diags), [])
    # Fix one finding: its entry goes stale, nothing is "new".
    new, matched, stale = apply_baseline(diags[1:], entries)
    assert new == [] and matched == len(diags) - 1 and len(stale) == 1


def test_sarif_render_shape():
    diags = flow(**_dirty_tree_sources())
    payload = json.loads(render_sarif(diags, flow_rules()))
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-check"
    assert len(run["results"]) == len(diags)
    assert all("partialFingerprints" in r for r in run["results"])


# ---------------------------------------------------------------------------
# the real tree
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def src_project():
    return load_project([SRC])


@pytest.fixture(scope="module")
def src_findings(src_project):
    """The flow analysis of src/, computed once for the module (it is the
    slowest step of the suite)."""
    return analyze_project(src_project)


def test_real_tree_call_graph_coverage(src_project):
    stats = src_project.stats()
    assert stats["function_coverage"] >= 0.95  # acceptance criterion
    assert stats["functions"] > 500
    assert stats["resolution_rate"] > 0.3


def test_real_tree_is_flow_clean(src_findings):
    assert src_findings == []


def test_real_tree_analysis_is_deterministic(src_project, src_findings):
    assert render_json(src_findings) == render_json(analyze_project(src_project))


def test_no_stale_baseline_entries(src_findings):
    """Every committed baseline entry must match a current finding."""
    root = os.path.join(os.path.dirname(__file__), "..")
    path = os.path.join(root, "analysis-baseline.json")
    if not os.path.exists(path):
        pytest.skip("no committed baseline")
    with open(path) as f:
        entries = json.load(f)["entries"]
    from repro.analysis.lint import lint_paths

    diags = lint_paths([SRC]) + src_findings
    _new, _matched, stale = apply_baseline(diags, entries)
    assert stale == []


# ---------------------------------------------------------------------------
# the unified CLI
# ---------------------------------------------------------------------------


BAD_TREE = """
class Engine:
    def get_status(self, ctx, key):
        return KVStatus.ok(b"v")

    def warm(self, ctx):
        self.get_status(ctx, b"k")
"""


def _write_tree(tmp_path):
    pkg = tmp_path / "repro" / "engine"
    pkg.mkdir(parents=True)
    (pkg / "clifix.py").write_text(textwrap.dedent(BAD_TREE))
    return str(tmp_path)


def test_cli_exclusive_flags_usage_error(capsys):
    from repro.tools.check import main

    assert main(["--lint-only", "--flow-only"]) == 2


def test_cli_list_rules_covers_both_pipelines(capsys):
    from repro.tools.check import main

    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("wall-clock", "lock-order-cycle", "determinism-taint",
                 "status-discarded", "unbounded-retry", "blocking-while-locked",
                 "crash-swallowed"):
        assert rule in out


def test_cli_reports_flow_findings(tmp_path, capsys):
    from repro.tools.check import main

    tree = _write_tree(tmp_path)
    assert main([tree]) == 1
    out = capsys.readouterr().out
    assert "status-discarded" in out


def test_cli_lint_only_skips_flow(tmp_path, capsys):
    from repro.tools.check import main

    tree = _write_tree(tmp_path)
    assert main(["--lint-only", tree]) == 0


def test_cli_json_and_sarif_outputs(tmp_path, capsys):
    from repro.tools.check import main

    tree = _write_tree(tmp_path)
    sarif = tmp_path / "out" / "report.sarif"
    assert main([tree, "--json", "-", "--sarif", str(sarif)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["total"] == 1
    assert payload["diagnostics"][0]["rule"] == "status-discarded"
    assert payload["diagnostics"][0]["fingerprint"]
    sarif_payload = json.loads(sarif.read_text())
    assert sarif_payload["runs"][0]["results"][0]["ruleId"] == "status-discarded"


def test_cli_baseline_roundtrip_and_stale_failure(tmp_path, capsys, monkeypatch):
    from repro.tools.check import main

    tree = _write_tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([tree]) == 1
    assert main([tree, "--update-baseline"]) == 0
    assert os.path.exists(tmp_path / "analysis-baseline.json")
    capsys.readouterr()
    # Baselined: same findings now pass, and say so.
    assert main([tree]) == 0
    assert "baselined" in capsys.readouterr().out
    # Fix the defect: the baseline entry is stale, which must fail the run.
    fixed = BAD_TREE.replace(
        "self.get_status(ctx, b\"k\")", "return self.get_status(ctx, b\"k\")"
    )
    (tmp_path / "repro" / "engine" / "clifix.py").write_text(
        textwrap.dedent(fixed)
    )
    assert main([tree]) == 1
    assert "stale" in capsys.readouterr().err
    # --update-baseline prunes it; runs are clean again.
    assert main([tree, "--update-baseline"]) == 0
    assert main([tree]) == 0


def test_cli_rule_filter(tmp_path, capsys):
    from repro.tools.check import main

    tree = _write_tree(tmp_path)
    assert main([tree, "--rule", "determinism-taint"]) == 0
    assert main([tree, "--rule", "status-discarded"]) == 1


def test_flow_rule_catalogue():
    names = {name for name, _desc in flow_rules()}
    assert names == {
        "lock-order-cycle",
        "blocking-while-locked",
        "determinism-taint",
        "host-time-leak",
        "status-discarded",
        "crash-swallowed",
        "unbounded-retry",
    }
