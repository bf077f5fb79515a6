"""Host-speed benchmark of the p2KVS simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fill --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: each
repetition (fresh machine, same seed) runs cold in a process of its own
(``rep.py``), until ``--seconds`` have passed and at least three
repetitions ran, and the run reports medians.  ``--trace 1`` alternates
untraced and traced repetitions in this process and reports the per-layer
table instead.  Every repetition's sim-side result must hash to the same
digest, and on the pinned seed to the digest in ``digests.json``; a sample
of written keys is read back and compared byte for byte.  Any mismatch
makes ``correct`` false and the exit code 1.  The last line of standard
output is the JSON result.  See README.md for every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import spans
from rep import SRC, Rep

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(HERE, "out")
REP_SCRIPT = os.path.join(HERE, "rep.py")

#: the seed whose digests are pinned in digests.json.
DEFAULT_SEED = 0
#: repetitions per run at least, whatever --seconds says.
MIN_REPS = 3
#: a repetition process that runs longer than this has hung.
REP_TIMEOUT_S = 150

#: the gated metrics (BENCHMARK.json ``end_to_end``), in report order.
END_TO_END = (
    ("host_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_kqps", "kops/s"),
    ("sim_p99_us", "us"),
    ("sim_p999_us", "us"),
)
#: printed beside them but not gated: the uncalibrated rate, a median that
#: is the same on every seed of ``read``, and a share that is 0 when correct.
PRINTED = (
    ("wall_ops_per_s", "ops/s"),
    ("sim_p50_us", "us"),
    ("failed_ops_share", "ratio"),
)


def pinned_digest(workload: str, seed: int):
    """The pinned digest for ``workload`` at ``seed``, or None if unpinned."""
    with open(DIGESTS) as fh:
        entry = json.load(fh).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["sha256"]


def check_digests(workload: str, seed: int, digests) -> list:
    """Problems with a run's digests: repetitions that disagree, or a
    mismatch with the pinned digest.  Empty means correct."""
    problems = []
    if len(set(digests)) != 1:
        problems.append("repetitions of seed %d disagree: %s"
                        % (seed, sorted(set(digests))))
    expected = pinned_digest(workload, seed)
    if expected is not None and digests[0] != expected:
        problems.append("digest %s differs from the pinned %s"
                        % (digests[0], expected))
    return problems


def cold_rep(workload: str, seed: int) -> dict:
    """One repetition in a fresh process; its ``rep.py`` summary."""
    proc = subprocess.run(
        [sys.executable, REP_SCRIPT, "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=REP_TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])


def repeat(seconds: float, make_rep, min_reps: int = MIN_REPS) -> list:
    """Run ``make_rep()`` until ``seconds`` passed and ``min_reps`` ran."""
    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        reps.append(make_rep())
    return reps


def end_to_end(reps) -> dict:
    """Medians over ``rep.py`` summaries; the sim-side values repeat exactly."""
    attempted = sum(r["attempted"] for r in reps)
    return {
        "host_ops_per_s": statistics.median(r["ops"] / r["ref_window_s"] for r in reps),
        "wall_ops_per_s": statistics.median(r["ops"] / r["window_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "sim_kqps": reps[0]["sim_kqps"],
        "sim_p50_us": reps[0]["sim_p50_us"],
        "sim_p99_us": reps[0]["sim_p99_us"],
        "sim_p999_us": reps[0]["sim_p999_us"],
        "failed_ops_share": sum(r["failed"] for r in reps) / attempted,
    }


def per_layer(plain, traced, tracer) -> dict:
    import layers

    ops = sum(r.outcome.ops for r in traced)
    out = layers.traced_metrics(tracer, ops)
    d = plain[0].delta
    n = plain[0].outcome.ops
    lookups = d["cache_hits"] + d["cache_misses"]
    out.update({
        "core.obm.merge_ratio": d["merged"] / d["requests"] if d["requests"] else 0.0,
        "engine.flushes": d["flushes"],
        "engine.compactions": d["compactions"],
        "engine.write_amp": d["device_write"] / d["user_bytes"] if d["user_bytes"] else 0.0,
        "engine.stall_sim_s": d["stall_s"],
        "storage.block_cache.hit_rate": d["cache_hits"] / lookups if lookups else 0.0,
        "storage.device.read_bytes_per_op": d["device_read"] / n,
        "storage.device.write_bytes_per_op": d["device_write"] / n,
        "service.shed_share": _shed_share(plain[0].outcome),
        "workloads.gen_s": statistics.median(r.timings["gen"] for r in plain),
        "harness.open_s": statistics.median(r.timings["open"] for r in plain),
        "harness.preload_s": statistics.median(r.timings["preload"] for r in plain),
        "trace.overhead": (sum(r.window_s for r in traced)
                           / sum(r.window_s for r in plain)),
    })
    return out


def _shed_share(outcome) -> float:
    report = outcome.material.get("report")
    return report["shed"] / report["offered"] if report else 0.0


def _print_rows(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print("  %-36s %16.6f %s" % (name, value, unit))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import suite

    if args.workload not in suite.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(suite.WORKLOADS)), file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        workload = suite.WORKLOADS[args.workload]
        tracer = spans.SpanTracer()
        targets = layers.targets()
        plain, traced = [], []

        def pair():
            plain.append(Rep(workload, args.seed))
            traced.append(Rep(workload, args.seed, tracer, targets))
            return traced[-1]

        repeat(args.seconds, pair, min_reps=1)
        reps = [r.summary() for r in plain + traced]
        metrics = per_layer(plain, traced, tracer)
        units = {name: unit for name, unit, _better in layers.PER_LAYER}
        printed = {}
    else:
        reps = repeat(args.seconds, lambda: cold_rep(args.workload, args.seed))
        metrics = end_to_end(reps)
        units = dict(END_TO_END)
        printed = dict(PRINTED)

    digests = [r["digest"] for r in reps]
    problems = check_digests(args.workload, args.seed, digests)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if failed:
        problems.append("%d of %d ops failed (errors or read-back mismatches)"
                        % (failed, attempted))

    print("workload=%s seed=%d reps=%d digest=%s"
          % (args.workload, args.seed, len(reps), digests[0]))
    print("latency samples=%d (%d beyond p999)"
          % (reps[0]["latency_samples"], reps[0]["beyond_p999"]))
    for rep in reps:
        print("  rep setup %.3fs window %.3fs%s"
              % (rep["setup_s"], rep["window_s"], " traced" if rep["traced"]
                 else " (%.3fs at reference speed)" % rep["ref_window_s"]))
    if tracer is not None:
        ops = sum(r.outcome.ops for r in traced)
        print("per-function self time (traced windows, %d ops):" % ops)
        print("  %-16s %-32s %10s %10s %7s" % ("layer", "function", "calls",
                                              "self us/op", "of run"))
        for layer, name, calls, us, share in layers.function_rows(tracer, ops):
            print("  %-16s %-32s %10d %10.3f %6.1f%%"
                  % (layer, name, calls, us, 100 * share))
        print("  (Simulator.run self time includes every generator body no "
              "wrapped function covers: worker, dispatcher, user-thread and "
              "background loops)")
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "%s-seed%d-spans.json" % (args.workload, args.seed))
        tracer.write_records(path)
        print("wrote %d span records to %s" % (len(tracer.records), path))
    _print_rows("metrics:", [(name, metrics[name], units[name]) for name in units])
    if printed:
        _print_rows("printed, not gated:",
                    [(name, metrics[name], printed[name]) for name in printed])
    for problem in problems:
        print("INCORRECT: %s" % problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
