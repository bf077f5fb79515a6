"""The correctness gate: digests, read-back, and traced-vs-untraced identity."""

import json

import pytest

import layers
import rep
import run
import suite
from repro.engine import make_env
from repro.errors import IOFailure
from repro.workloads import make_value
from spans import SpanTracer

MATERIAL = {"qps": 1239516.3044871902, "p99_us": 28.249213, "counters": {"flushes": 72.0}}


def test_digest_check_rejects_a_perturbed_result(tmp_path, monkeypatch):
    good = rep.digest(MATERIAL)
    perturbed = rep.digest(dict(MATERIAL, qps=MATERIAL["qps"] * (1 + 1e-15)))
    assert good != perturbed
    pins = tmp_path / "digests.json"
    pins.write_text(json.dumps({"fill": {"seed": 0, "sha256": good}}))
    monkeypatch.setattr(run, "DIGESTS", str(pins))
    assert run.check_digests("fill", 0, [good, good]) == []
    assert run.check_digests("fill", 0, [perturbed, perturbed])  # vs the pin
    assert run.check_digests("fill", 7, [good, perturbed])  # reps disagree
    assert run.check_digests("fill", 7, [perturbed, perturbed]) == []  # unpinned


def _read_back(corrupt=None, fail=None):
    env = make_env()

    def lookup(ctx, key):
        yield env.sim.timeout(1e-6)
        i = int(key[len(b"user"):])
        if i == fail:
            raise IOFailure("injected", site="test")
        value = make_value(i, 16)
        return value[:-1] + b"!" if i == corrupt else value

    return suite.read_back(env, lookup, [3, 1, 4, 5], 16)


def test_read_back_catches_a_corrupted_value():
    assert _read_back() == 0
    assert _read_back(corrupt=4) == 1
    assert _read_back(fail=1) == 1


SMALL = {
    "fill": {"FILL_OPS": 600},
    "read": {"READ_KEYS": 400, "READ_OPS": 600},
    "serve-hotkey": {"SERVE_OPS": 600, "SERVE_KEYS": 300},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_window_has_the_untraced_digest(name, monkeypatch):
    for attr, value in SMALL[name].items():
        monkeypatch.setattr(suite, attr, value)
    workload = suite.WORKLOADS[name]
    plain = rep.Rep(workload, 3)
    tracer = SpanTracer()
    traced = rep.Rep(workload, 3, tracer, layers.targets())
    assert plain.digest == traced.digest
    assert plain.failed == traced.failed == 0
    metrics = layers.traced_metrics(tracer, traced.outcome.ops)
    assert 0.0 < metrics["trace.coverage"] < 1.0
    assert metrics["sim.kernel.self_us_per_op"] > 0.0


def test_serve_window_fails_when_latency_samples_go_missing(monkeypatch):
    for attr, value in SMALL["serve-hotkey"].items():
        monkeypatch.setattr(suite, attr, value)
    # As if a refactor stopped calling the lane callback the samples tee.
    monkeypatch.setattr(suite, "_tee", lambda record, samples: record)
    workload = suite.WORKLOADS["serve-hotkey"]
    with pytest.raises(RuntimeError, match="latency samples"):
        workload.window(workload.setup(3))
