"""YCSB CLI over the simulated systems.

Examples::

    python -m repro.tools.ycsb --workload A --system p2kvs --workers 8 \
        --threads 32 --records 16000 --ops 10000

    python -m repro.tools.ycsb --workload LOAD,A,B,C --system rocksdb \
        --json ycsb.json

Runs the paper's Table 1 mixes (LOAD, A-F) against any supported system and
prints per-workload throughput and latency percentiles.
"""

import argparse
import json
import sys
from typing import List, Optional

from repro.critpath import install_edgelog
from repro.harness import runner
from repro.harness.report import format_attribution, format_blame_table, format_qps, format_table
from repro.systems import format_system_options
from repro.tools.common import (
    DEVICES,
    build_system,
    check_sanitizer,
    critpath_trace_extras,
    export_critpath,
    export_stats,
    finish_profile,
    install_stats_if_requested,
    make_env_from_args,
    observability_parent,
    start_profile,
    trace_path,
)
from repro.tools.dbbench import SYSTEMS
from repro.trace import install_tracer, write_chrome_trace
from repro.workloads import WORKLOADS, YCSBWorkload

WORKLOAD_NAMES = tuple(WORKLOADS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.ycsb",
        description="YCSB workloads (paper Table 1) on the simulated machine",
        parents=[observability_parent()],
        epilog=format_system_options(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload",
        default="A",
        help="comma-separated list from: %s" % ", ".join(WORKLOAD_NAMES),
    )
    parser.add_argument("--system", choices=SYSTEMS, default="rocksdb")
    parser.add_argument("--records", type=int, default=16000)
    parser.add_argument("--ops", type=int, default=10000)
    parser.add_argument("--threads", type=int, default=16)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--value-size", type=int, default=112)
    parser.add_argument("--cores", type=int, default=44)
    parser.add_argument("--device", choices=sorted(DEVICES), default="nvme")
    parser.add_argument("--page-cache-mb", type=float, default=None)
    parser.add_argument("--no-obm", action="store_true")
    parser.add_argument("--async-window", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH")
    return parser


def run_workload(
    name: str,
    args,
    trace_path: Optional[str] = None,
    stats_base: Optional[str] = None,
    critpath_base: Optional[str] = None,
) -> dict:
    env = make_env_from_args(args)
    tracer = install_tracer(env) if (trace_path or critpath_base) else None
    edgelog = install_edgelog(env) if critpath_base else None
    sampler = install_stats_if_requested(env, args)
    system = build_system(env, args)
    workload = YCSBWorkload(
        name, args.records, value_size=args.value_size, seed=args.seed
    )
    if name == "LOAD":
        ops = list(workload.load_ops())[: args.ops]
    else:
        runner.preload(env, system, workload.load_ops(), n_threads=8)
        ops = list(workload.ops(args.ops))
    streams = [[] for _ in range(args.threads)]
    for i, op in enumerate(ops):
        streams[i % args.threads].append(op)
    t0 = env.sim.now
    metrics = runner.run_closed_loop(env, system, streams)
    window = (t0, t0 + metrics.elapsed)
    check_sanitizer(env)
    result = {
        "workload": name,
        "system": system.name,
        "threads": args.threads,
        "ops": metrics.n_ops,
        "qps": metrics.qps,
        "avg_latency_us": metrics.avg_latency * 1e6,
        "p99_latency_us": metrics.p99_latency * 1e6,
        "simulated_seconds": metrics.elapsed,
    }
    if tracer is not None:
        if trace_path:
            extras, flows = (
                critpath_trace_extras(edgelog, tracer, window)
                if edgelog is not None
                else ((), ())
            )
            result["trace_file"] = write_chrome_trace(
                tracer, trace_path, extra_spans=extras, flows=flows
            )
        attribution = metrics.extra.get("latency_attribution")
        if attribution is not None:
            result["latency_attribution"] = attribution
    if edgelog is not None:
        export_critpath(edgelog, tracer, window, critpath_base, result)
    if sampler is not None:
        export_stats(env, sampler, stats_base or "stats", result)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    names = [w.strip().upper() for w in args.workload.split(",") if w.strip()]
    for name in names:
        if name not in WORKLOAD_NAMES:
            print("unknown workload %r" % name, file=sys.stderr)
            return 2
    profiler = start_profile(args)
    results = [
        run_workload(
            name,
            args,
            trace_path(args.trace_out, name, len(names) > 1)
            if args.trace_out
            else None,
            trace_path(args.stats_out, name, len(names) > 1)
            if args.stats
            else None,
            trace_path(args.critpath_out, name, len(names) > 1)
            if args.critpath
            else None,
        )
        for name in names
    ]
    finish_profile(args, profiler)
    rows = [
        [
            r["workload"],
            format_qps(r["qps"]),
            "%.1f" % r["avg_latency_us"],
            "%.1f" % r["p99_latency_us"],
        ]
        for r in results
    ]
    print(
        "system=%s threads=%d records=%d ops=%d"
        % (args.system, args.threads, args.records, args.ops)
    )
    print(format_table(["workload", "throughput", "avg us", "p99 us"], rows))
    for r in results:
        if "latency_attribution" in r:
            print()
            print("%s latency attribution (paper Figure 6):" % r["workload"])
            print(format_attribution(r["latency_attribution"]))
        if "critpath" in r:
            print()
            print(
                "%s critical-path blame (%d request paths):"
                % (r["workload"], r["critpath"]["n_requests"])
            )
            print(format_blame_table(r["critpath"]["blame"]))
            print("wrote critpath %s" % r["critpath_file"])
        if "trace_file" in r:
            print("wrote trace %s" % r["trace_file"])
        if "stall_timeline" in r:
            print()
            print("%s stall/utilization timeline:" % r["workload"])
            print(r["stall_timeline"])
        for path in sorted(r.get("stats_files", {}).values()):
            print("wrote stats %s" % path)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=2)
        print("wrote %s" % args.json)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
