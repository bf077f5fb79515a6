"""Host-side profiling plane: where the *simulator's* wall-clock time goes.

Every other observability layer (trace, metrics, critpath, monitor) measures
*simulated* time.  This package measures the *host*: the DES kernel and the
Python engine are the hardware this repo runs on, and speed work on them
(ROADMAP item 4) needs attribution before optimisation.  Three instruments:

* :mod:`repro.perf.zones` — wall-clock zones over synchronous code
  sections, decided in one table (``ZONES``) that maps each zone name to a
  function or method: the kernel event loop, memtable, WAL encode, bloom
  probes, SST builds, compaction merge, the observability probe sites and
  the harness drivers.  ``install()`` wraps every target from outside and
  ``uninstall()`` restores the originals, so no domain module carries a
  probe.  Rolls up into a per-subsystem wall-time tree
  (:mod:`repro.perf.report`).
* :mod:`repro.perf.sampling` — an optional ``sys.setprofile`` stack sampler
  emitting collapsed stacks and speedscope JSON flamegraphs.
* :mod:`repro.perf.tax` — the instrument-tax harness: runs a pinned
  workload with each observability layer toggled and reports per-layer
  wall-clock overhead.

**Determinism contract.**  This is the only package in ``src/`` allowed to
read host clocks (the ``wall-clock`` lint rule exempts exactly
``repro.perf``), and nothing it returns may flow into a simulation
decision: the ``host-time-leak`` flow checker fails the build if any
``repro.perf`` return value reaches a sim-side sink (timeout/exec/submit/
sort key).  Profiler-attached runs are byte-identical to unprofiled runs —
asserted in ``tests/test_perf.py`` across reruns and ``--schedule-seed``.
"""

from repro.perf.report import (
    coverage,
    format_zone_tree,
    zone_tree,
)
from repro.perf.sampling import StackSampler
from repro.perf.zones import (
    PROFILER,
    ZoneProfiler,
    attach,
    install,
    uninstall,
)

__all__ = [
    "PROFILER",
    "StackSampler",
    "ZoneProfiler",
    "attach",
    "coverage",
    "format_zone_tree",
    "install",
    "uninstall",
    "zone_tree",
]
