"""SLO benchmark for the sharded service plane.

Examples::

    python -m repro.tools.serve --shards 4
    python -m repro.tools.serve --scenario hotkey --json slo.json
    python -m repro.tools.serve --scenario migration --shards 4 \
        --trace-out service.json --stats
    python -m repro.tools.serve --scenario diurnal --csv slo.csv

Runs one of the pinned scenarios (see ``--scenario`` and
docs/SERVICE.md): N p2KVS shards behind a partition router, an open-loop
client population, bounded admission with load shedding.  Prints per-class
p50/p99/p999 latency at the offered load plus the goodput-versus-shed
ledger, and optionally writes the full report as deterministic JSON
(``--json``) and the per-shard ledger as CSV (``--csv``).

The report is a pure function of the arguments: rerunning with the same
flags — or any ``--schedule-seed`` — produces byte-identical files, which
``make serve-smoke`` checks on every CI run.  The tracing
(``--trace-out``), stats (``--stats``), critical-path (``--critpath``) and
fault-injection (``--fault-rate``) hooks all work unchanged: shards are
ordinary p2KVS deployments on one simulated machine.
"""

import argparse
import json
import sys
from typing import List, Optional

from repro.critpath import install_edgelog
from repro.faults import FaultPolicy, install_faults
from repro.harness.report import format_table
from repro.monitor import (
    attach_service_monitor,
    ground_truth_from_env,
    render_narrative,
    score_detection,
)
from repro.service import (
    ServicePlane,
    build_scenario,
    build_slo_report,
    render_slo_csv,
    scenario_names,
    write_report,
)
from repro.service import load as service_load
from repro.service.scenarios import SCENARIOS
from repro.tools.common import (
    DEVICES,
    check_sanitizer,
    critpath_trace_extras,
    export_critpath,
    export_stats,
    finish_profile,
    install_stats_if_requested,
    make_env_from_args,
    observability_parent,
    start_profile,
)
from repro.trace import install_tracer, write_chrome_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.serve",
        description="SLO benchmark for the sharded p2KVS service plane",
        parents=[observability_parent(monitor=True)],
        epilog="scenarios: "
        + "; ".join("%s — %s" % (n, SCENARIOS[n]) for n in scenario_names()),
    )
    parser.add_argument(
        "--scenario",
        choices=scenario_names(),
        default="uniform",
        help="pinned scenario to run (default: uniform)",
    )
    parser.add_argument("--shards", type=int, default=4, help="p2kvs instances")
    parser.add_argument(
        "--partitions",
        type=int,
        default=32,
        help="partition count (several per shard keeps moves cheap)",
    )
    parser.add_argument("--ops", type=int, default=1500, help="offered requests")
    parser.add_argument(
        "--rate",
        type=float,
        default=1000000.0,
        help="nominal offered rate, ops/second of simulated time",
    )
    parser.add_argument("--key-space", type=int, default=800, help="distinct keys")
    parser.add_argument("--value-size", type=int, default=100)
    parser.add_argument(
        "--queue-cap",
        type=int,
        default=48,
        help="admission queue bound per shard; arrivals beyond it are shed",
    )
    parser.add_argument(
        "--dispatchers", type=int, default=4, help="dispatcher threads per shard"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="p2kvs workers per shard"
    )
    parser.add_argument("--cores", type=int, default=44, help="simulated CPU cores")
    parser.add_argument("--device", choices=sorted(DEVICES), default="nvme")
    parser.add_argument(
        "--page-cache-mb",
        type=float,
        default=None,
        help="OS page cache size in MB (default: effectively unlimited)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="per-IO transient fault probability injected during the "
        "measured window (see docs/FAULTS.md); failed ops surface as "
        "per-shard error counts",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="fault injection RNG seed"
    )
    parser.add_argument("--json", metavar="PATH", help="write the SLO report as JSON")
    parser.add_argument(
        "--csv", metavar="PATH", help="write the per-shard ledger as CSV"
    )
    return parser


def run_scenario(args) -> dict:
    env = make_env_from_args(args)
    tracer = (
        install_tracer(env) if (args.trace_out or args.critpath) else None
    )
    edgelog = install_edgelog(env) if args.critpath else None
    sampler = install_stats_if_requested(env, args)
    spec = build_scenario(
        args.scenario,
        n_ops=args.ops,
        rate=args.rate,
        key_space=args.key_space,
        value_size=args.value_size,
        seed=args.seed,
    )
    plane = ServicePlane(
        env,
        n_shards=args.shards,
        n_partitions=args.partitions,
        queue_cap=args.queue_cap,
        n_dispatchers=args.dispatchers,
        key_space=args.key_space,
        system_opts=dict(workers=args.workers),
    )
    service_load.preload_plane(env, plane, spec["preload"])
    if args.fault_rate > 0.0:
        # Faults arm only after the (clean) preload: the scenario injects
        # into the measured window, not into dataset loading.
        install_faults(
            env,
            policy=FaultPolicy(args.fault_seed, error_rate=args.fault_rate),
            seed=args.fault_seed,
        )
    monitor = None
    if args.monitor or args.monitor_out:
        monitor = attach_service_monitor(
            env, plane, window=args.monitor_window_ms / 1e3
        )
    t0 = env.sim.now
    run_facts = service_load.run_service_load(
        env,
        plane,
        spec["ops"],
        spec["arrivals"],
        rebalance_at=spec["rebalance_at"],
        rebalance_moves=spec["rebalance_moves"],
        monitor=monitor,
    )
    window = (t0, t0 + run_facts["makespan"])
    check_sanitizer(env)
    report = build_slo_report(plane, run_facts, spec)
    report["shards_opened"] = plane.shard_names()
    if monitor is not None:
        report["health"] = monitor.timeline()
        # Scored even on clean runs: a clean scenario with page alerts is a
        # false-positive finding, which the monitor smoke gate checks.
        report["detection"] = score_detection(
            monitor, ground_truth_from_env(env), args.scenario
        )
    extras = {}
    if monitor is not None and args.monitor_out:
        with open(args.monitor_out, "w") as fh:
            fh.write(json.dumps(
                {"health": report["health"], "detection": report["detection"]},
                sort_keys=True, indent=2,
            ))
            fh.write("\n")
        extras["monitor_file"] = args.monitor_out
    if tracer is not None and args.trace_out:
        spans, flows = (
            critpath_trace_extras(edgelog, tracer, window)
            if edgelog is not None
            else ((), ())
        )
        extras["trace_file"] = write_chrome_trace(
            tracer, args.trace_out, extra_spans=spans, flows=flows
        )
    if edgelog is not None:
        export_critpath(edgelog, tracer, window, args.critpath_out, extras)
    if sampler is not None:
        export_stats(env, sampler, args.stats_out, extras)
    report["_artifacts"] = extras
    return report


def _print_report(report: dict) -> None:
    print(
        "scenario=%s shards=%d partitions=%d ops=%d rate=%s"
        % (
            report["scenario"],
            report["directory"]["n_shards"],
            report["directory"]["n_partitions"],
            report["params"]["n_ops"],
            report["arrivals"].get("rate", report["arrivals"].get("peak_rate")),
        )
    )
    print(
        "offered=%d admitted=%d shed=%d (%.2f%%) completed=%d errors=%d "
        "goodput=%.0f ops/s makespan=%.3f ms"
        % (
            report["offered"],
            report["admitted"],
            report["shed"],
            100.0 * report["shed_rate"],
            report["completed"],
            report["errors"],
            report["goodput_ops_per_s"],
            1e3 * report["makespan_s"],
        )
    )
    rows = []
    for cls in ("read", "write", "rmw"):
        summary = report["latency"][cls]
        if not summary["count"]:
            continue
        rows.append(
            [
                cls,
                "%d" % summary["count"],
                "%.1f" % summary["mean_us"],
                "%.1f" % summary["p50_us"],
                "%.1f" % summary["p99_us"],
                "%.1f" % summary["p999_us"],
                "%.1f" % summary["max_us"],
            ]
        )
    print()
    print(
        format_table(
            ["class", "count", "mean us", "p50 us", "p99 us", "p999 us", "max us"],
            rows,
        )
    )
    print()
    shard_rows = [
        [
            "%d" % row["shard"],
            row["instance"],
            "%d" % row["admitted"],
            "%d" % row["shed"],
            "%d" % row["rebalance_shed"],
            "%d" % row["completed"],
            "%d" % row["errors"],
            "%d" % row["queue_max_depth"],
            "%d" % len(row["partitions"]),
        ]
        for row in report["per_shard"]
    ]
    print(
        format_table(
            [
                "shard",
                "instance",
                "admitted",
                "shed",
                "rb-shed",
                "completed",
                "errors",
                "max depth",
                "partitions",
            ],
            shard_rows,
        )
    )
    for move in report["moves"]:
        print(
            "moved partition %d: shard %d -> shard %d"
            % (move["partition"], move["from_shard"], move["to_shard"])
        )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.shards < 1:
        print("need at least one shard", file=sys.stderr)
        return 2
    profiler = start_profile(args)
    report = run_scenario(args)
    finish_profile(args, profiler)
    artifacts = report.pop("_artifacts")
    _print_report(report)
    if "health" in report:
        print()
        print(render_narrative(report["health"], report.get("detection")))
    if "monitor_file" in artifacts:
        print("wrote monitor %s" % artifacts["monitor_file"])
    if "critpath" in artifacts:
        print("wrote critpath %s" % artifacts["critpath_file"])
    if "trace_file" in artifacts:
        print("wrote trace %s" % artifacts["trace_file"])
    for path in sorted(artifacts.get("stats_files", {}).values()):
        print("wrote stats %s" % path)
    if args.json:
        write_report(report, args.json)
        print("wrote %s" % args.json)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(render_slo_csv(report))
        print("wrote %s" % args.csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
