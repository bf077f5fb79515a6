"""Shared helpers for driving simulated processes in tests."""

import pytest

from repro.engine.env import make_env


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help="attach the lock-order/data-race sanitizers to every Simulator "
        "created during a test; fail the test on any finding",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_sanitize: skip the --sanitize autouse fixture for this test "
        "(tests that intentionally provoke findings)",
    )


@pytest.fixture(autouse=True)
def _sanitize_every_simulator(request, monkeypatch):
    """Opt-in (``pytest --sanitize``): every Simulator built during the test
    gets a fresh Sanitizer; findings fail the test at teardown."""
    if not request.config.getoption("--sanitize") or request.node.get_closest_marker(
        "no_sanitize"
    ):
        yield
        return
    from repro.analysis.sanitizer import Sanitizer
    from repro.sim.core import Simulator

    created = []
    orig_init = Simulator.__init__

    def patched_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        created.append(Sanitizer().attach(self))

    monkeypatch.setattr(Simulator, "__init__", patched_init)
    yield
    # A test that installed its own sanitizer replaced sim.sanitizer; only
    # sanitizers still attached at teardown are ours to judge.
    reports = [
        s.format_report() for s in created if s.sim.sanitizer is s and s.findings
    ]
    if reports:
        raise AssertionError("sanitizer findings:\n" + "\n".join(reports))


def run_process(env, gen):
    """Run one generator process to completion; return its result."""
    box = []

    def wrapper():
        value = yield from gen
        box.append(value)

    env.sim.spawn(wrapper())
    env.sim.run()
    if not box:
        raise AssertionError("process did not complete")
    return box[0]


@pytest.fixture
def env():
    return make_env(n_cores=8)


@pytest.fixture
def small_env():
    """A tiny machine for contention-sensitive tests."""
    return make_env(n_cores=2)
