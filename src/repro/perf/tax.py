"""Instrument-tax accounting: what each observability layer costs in host time.

Every observability plane in this repo (tracing, metrics, sanitizers,
critical-path edgelog, health monitor) promises "zero overhead when off,
cheap when on".  The *sim-side* half of that promise is tested exactly
(byte-identical reports); this module measures the *host-side* half: the
wall-clock tax of running the pinned workload with each layer switched on,
relative to a bare run.

The harness runs one benchmark configuration (``PINNED`` below, the same
shape ``repro.tools.profile`` attributes by zone) once per layer, each in a
fresh environment, and reports per-layer wall time and overhead percent over
the ``off`` baseline.  A single warmup run absorbs import and JIT-less
bytecode-cache effects.

Host clocks live here by design: ``repro.perf`` is the one package the
wall-clock lint rule exempts.  Nothing this module returns may flow back
into a simulation (enforced by the host-time-leak checker).
"""

from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence

__all__ = ["LAYERS", "PINNED", "format_tax", "measure_tax", "run_workload"]

#: the layers the tax matrix toggles, in report order; "off" is the baseline.
LAYERS = ("off", "trace", "metrics", "sanitize", "critpath", "monitor")

#: the pinned workload every layer runs (dbbench fillrandom on SATA).
PINNED: Dict[str, object] = {
    "system": "p2kvs",
    "workers": 8,
    "threads": 8,
    "cores": 44,
    "device": "sata",
    "value_size": 4096,
    "num": 2000,
    "seed": 0,
}


def run_workload(
    layer: str = "off",
    num: Optional[int] = None,
    schedule_seed: Optional[int] = None,
) -> None:
    """Run the pinned workload once with ``layer`` attached.

    Each call builds a fresh env/system so no layer sees another's state.
    Imports are local so merely importing ``repro.perf`` stays cheap.
    ``schedule_seed`` perturbs same-time event delivery (the tool's shared
    determinism flag): the workload must behave identically for every N.
    """
    from repro.engine import make_env
    from repro.harness import runner
    from repro.sim.device import HDD_WD100EFAX, OPTANE_905P, SATA_860PRO
    from repro.systems import open_system
    from repro.workloads import fillrandom, split_stream

    devices = {"nvme": OPTANE_905P, "sata": SATA_860PRO, "hdd": HDD_WD100EFAX}
    env = make_env(
        n_cores=PINNED["cores"],
        device_spec=devices[PINNED["device"]],
        page_cache_bytes=1 << 40,
    )
    if schedule_seed is not None:
        env.sim.perturb_schedule(schedule_seed)
    monitor = None
    if layer == "off":
        pass
    elif layer == "trace":
        from repro.trace import install_tracer

        install_tracer(env)
    elif layer == "metrics":
        from repro.metrics import install_stats

        install_stats(env, interval_ms=10.0)
    elif layer == "sanitize":
        from repro.analysis.sanitizer import install_sanitizer

        install_sanitizer(env)
    elif layer == "critpath":
        from repro.critpath import install_edgelog

        install_edgelog(env)
    elif layer == "monitor":
        from repro.monitor import attach_store_monitor

        monitor = attach_store_monitor(env, window=0.005)
    else:
        raise ValueError("unknown layer %r (choose from %s)" % (layer, LAYERS))
    system = open_system(
        PINNED["system"],
        env,
        workers=PINNED["workers"],
        obm=True,
        async_window=0,
    )
    if monitor is not None:
        monitor.start()
    n = PINNED["num"] if num is None else num
    ops = fillrandom(n, PINNED["value_size"], PINNED["seed"])
    runner.run_closed_loop(
        env,
        system,
        split_stream(ops, PINNED["threads"]),
        # The monitor ticker must be stopped from *inside* the sim or the
        # event loop never drains (its LateTimeout reschedules forever).
        on_done=(lambda: monitor.stop(flush=True)) if monitor else None,
    )


def measure_tax(
    layers: Sequence[str] = LAYERS,
    num: Optional[int] = None,
    warmup: bool = True,
    schedule_seed: Optional[int] = None,
) -> dict:
    """Time the pinned workload once per layer; returns the tax report.

    The report is host data: ``base_wall_ns`` (the ``off`` run), and one row
    per layer with ``wall_ns`` and ``overhead_pct`` relative to the baseline
    (None when ``off`` itself was not measured).
    """
    import sys

    if warmup:
        run_workload("off", num=num, schedule_seed=schedule_seed)
    rows: List[dict] = []
    base: Optional[int] = None
    for layer in layers:
        print("tax: running layer %s ..." % layer, file=sys.stderr)
        t0 = perf_counter_ns()
        run_workload(layer, num=num, schedule_seed=schedule_seed)
        wall = perf_counter_ns() - t0
        if layer == "off":
            base = wall
        rows.append({"layer": layer, "wall_ns": wall})
    for row in rows:
        row["overhead_pct"] = (
            round(100.0 * (row["wall_ns"] / base - 1.0), 1)
            if base
            else None
        )
    return {"base_wall_ns": base, "layers": rows}


def format_tax(report: dict) -> str:
    """Fixed-width table of the tax report (layer, wall ms, overhead %)."""
    lines = ["%-10s %10s %10s" % ("layer", "wall ms", "overhead")]
    for row in report["layers"]:
        pct = row.get("overhead_pct")
        lines.append(
            "%-10s %10.1f %10s"
            % (
                row["layer"],
                row["wall_ns"] / 1e6,
                ("%+.1f%%" % pct) if pct is not None else "-",
            )
        )
    return "\n".join(lines)
