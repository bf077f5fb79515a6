"""Request-level tracing and span observability for the simulated stack.

Enable tracing on a machine, run any workload, export:

    from repro.trace import install_tracer, write_chrome_trace

    env = make_env(n_cores=16)
    tracer = install_tracer(env)      # before opening the system under test
    ...run the workload...
    write_chrome_trace(tracer, "trace.json")   # open in ui.perfetto.dev

By default every :class:`~repro.sim.core.Simulator` has ``tracer = None``,
the same off-state as its sanitizer and edgelog: instrumentation points all
over the stack (submit/route/enqueue, OBM batch formation, write-group
phases, WAL, memtable, flush/compaction, CPU bursts, device channels) check
``tracer is not None`` and cost one branch when tracing is off — and *zero
simulated time* always.

See ``docs/TRACING.md`` for the full guide and
:mod:`repro.trace.attribution` for the span-derived Figure 6 latency
breakdown.
"""

from repro.trace.attribution import (
    CATEGORIES,
    fig06_breakdown,
    fig06_from_contexts,
    fig06_from_spans,
    span_totals,
)
from repro.trace.chrome import to_chrome_events, write_chrome_trace
from repro.trace.tracer import Span, Tracer, thread_track

__all__ = [
    "CATEGORIES",
    "Span",
    "Tracer",
    "fig06_breakdown",
    "fig06_from_contexts",
    "fig06_from_spans",
    "install_tracer",
    "span_totals",
    "thread_track",
    "to_chrome_events",
    "uninstall_tracer",
    "write_chrome_trace",
]


def install_tracer(target, max_events: int = 2_000_000) -> Tracer:
    """Attach a live :class:`Tracer` to an Env or Simulator and return it.

    Call *before* opening the system under test so components that cache
    per-object trace state (memtables) pick it up.
    """
    sim = getattr(target, "sim", target)
    tracer = Tracer(sim, max_events=max_events)
    sim.tracer = tracer
    return tracer


def uninstall_tracer(target) -> None:
    """Detach the tracer: ``sim.tracer`` is None again (tracing off)."""
    sim = getattr(target, "sim", target)
    sim.tracer = None
