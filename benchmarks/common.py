"""Shared plumbing for the benchmark suite.

Every ``bench_figXX`` module regenerates one table or figure of the paper:
it runs the scaled experiment, prints the same rows/series the paper shows,
writes the output to ``results/<name>.txt``, and asserts the paper's
qualitative shape (who wins, roughly by what factor).

Run with::

    pytest benchmarks/ --benchmark-only

Absolute numbers are simulated quantities at scaled-down data sizes; see
EXPERIMENTS.md for the paper-vs-measured record.
"""

import os
from typing import List

from repro.core import adapter_factory
from repro.engine import make_env
from repro.harness import (
    KVellSystem,
    MultiInstanceSystem,
    P2KVSSystem,
    SingleInstanceSystem,
    open_system,
    preload,
    run_closed_loop,
    scaled_options,
)
from repro.harness.metrics import scoped_collector
from repro.harness.report import ShapeCheck, format_qps, format_table
from repro.systems import _BENCH_SHAPE
from repro.workloads import fillrandom, split_stream

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

#: scaled-down stand-ins for the paper's op counts.
SMALL = 4000
MEDIUM = 12000
LARGE = 32000

#: dataset size for read experiments (paper: 100M keys).
READ_KEYS = 24000

#: 16-byte keys + 112-byte values = the paper's 128-byte KV pairs.
VALUE_SIZE = 112

#: the scaled LSM shape shared by all systems (see DESIGN.md Section 5).
SHAPE = dict(_BENCH_SHAPE, block_cache_bytes=512 * 1024)


def lsm_options(maker=None, **overrides):
    merged = dict(SHAPE)
    merged.update(overrides)
    if maker is None:
        return scaled_options(**merged)
    return scaled_options(maker, **merged)


def lsm_adapter(flavor: str = "rocksdb", **overrides):
    merged = dict(SHAPE)
    merged.update(overrides)
    return adapter_factory(flavor, **merged)


def report(name: str, text: str) -> None:
    """Print the figure's table and persist it under results/."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "%s.txt" % name), "w") as f:
        f.write(text + "\n")


def measured_run(env, system, streams, **kwargs):
    """Closed-loop run under a scoped collector: the env's measuring slot is
    released even when the run (or a shape assertion inside it) raises, so a
    failed bench cannot wedge the env for the next window."""
    with scoped_collector(env, system.name) as collector:
        return run_closed_loop(env, system, streams, collector=collector, **kwargs)


def assert_shapes(name: str, checks: List[ShapeCheck], env=None) -> None:
    """Record shape checks and fail the bench if a claim's band is missed.

    When ``env`` is given, the registry's write-stall / compaction-backlog
    event summary is appended to ``results/<name>.checks.txt`` so backpressure
    behind a shape miss is visible next to the verdicts.
    """
    table = format_table(
        ["shape check", "paper", "measured", "accept band", "verdict"],
        [c.row() for c in checks],
    )
    text = table + "\n"
    if env is not None:
        summary = env.metrics.events.summary()
        lines = ["", "observability events:"]
        if summary:
            for kind in sorted(summary):
                row = summary[kind]
                lines.append(
                    "  %s: count=%d total=%.3f ms active=%d"
                    % (kind, row["count"], row["total_seconds"] * 1e3, row["active"])
                )
        else:
            lines.append("  (none recorded)")
        text += "\n".join(lines) + "\n"
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "%s.checks.txt" % name), "w") as f:
        f.write(text)
    print()
    print(text)
    missed = [c for c in checks if not c.ok]
    assert not missed, "shape checks missed: %s" % [c.name for c in missed]


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
