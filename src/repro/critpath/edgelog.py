"""Wakeup-edge recording: the raw material of critical-path extraction.

An :class:`EdgeLog` is an opt-in kernel hook (``sim.edgelog``, installed by
:func:`repro.critpath.install_edgelog`) that records, for every
:class:`~repro.sim.core.Process`, *why* each of its resumes happened:

* release sites annotate the event they are about to trigger with a typed
  :class:`Edge` — lock hand-offs, condvar notifies, queue puts, CPU slot
  frees and device channel frees all go through
  :meth:`Simulator.wake <repro.sim.core.Simulator.wake>`, timeouts and
  joins are annotated by the kernel itself, and any un-annotated
  ``succeed()`` (engine-level futures) falls back to a generic ``"event"``
  hand-off edge;
* :meth:`on_resume` appends ``(time, seq, edge)`` to the woken process's
  resume history; :meth:`on_spawn` records each process's parent.

Two invariants make the log useful:

* **Zero overhead when absent.**  The default is ``None``.  The kernel's
  release, spawn, timer, burst-completion and resume hooks are bound once,
  by :meth:`Simulator.set_observer <repro.sim.core.Simulator.set_observer>`
  at attach and detach, so without a log they carry no check at all; only
  the join annotations and the CPU/device probes test
  ``sim.edgelog is not None``.  Recording never advances simulated time,
  so an un-instrumented run is byte-identical to a pre-EdgeLog run
  (asserted in ``tests/test_metrics.py``).
* **Global sequence numbers.**  ``annotate``/``on_resume``/``on_spawn``
  share one monotonically increasing counter.  An edge is always stamped
  *before* the resume it causes, and a spawn before the child's first
  resume, so the backward walk in :mod:`repro.critpath.extract` can jump
  from any resume to its cause with a strictly decreasing sequence bound —
  guaranteed termination, no cycles.

Memory is bounded by ``max_records``: past the cap new resume entries are
counted in :attr:`dropped` instead of stored (the extractor reports the
loss), mirroring the tracer's bounded event buffer.
"""

from typing import Dict, List, Optional, Tuple

__all__ = ["Edge", "EdgeLog"]


class Edge:
    """One typed wakeup edge: why (and through what resource) an event fired.

    ``kind`` selects the backward-walk rule:

    * ``"handoff"`` — a zero-width transfer at the wakeup instant (lock
      release, queue put, future completion); the critical path continues
      through ``waker``'s own history.
    * ``"resource"`` — an activity interval ``[begin, wakeup]`` on a shared
      resource (CPU burst, device IO, timeout), preceded by a queueing
      interval ``[queued_at, begin]``; the path continues at ``initiator``
      (the process that requested the activity) at ``queued_at``.
    """

    __slots__ = (
        "seq",
        "kind",
        "resource",
        "category",
        "begin",
        "queued_at",
        "waker",
        "initiator",
        "via",
        "track",
    )

    def __init__(
        self,
        seq: int,
        kind: str,
        resource: str,
        category: str,
        begin: float,
        queued_at: float,
        waker,
        initiator,
        via,
        track: Optional[str],
    ):
        self.seq = seq
        self.kind = kind
        self.resource = resource
        self.category = category
        self.begin = begin
        self.queued_at = queued_at
        self.waker = waker  # Process that executed the release (handoffs)
        self.initiator = initiator  # Process that requested the activity
        self.via = via  # child Event a join resolved through (AllOf/AnyOf)
        self.track = track  # tracer track rendering this interval, if any

    @property
    def label(self) -> str:
        return "%s:%s" % (self.resource, self.category) if self.category else self.resource

    def __repr__(self) -> str:
        return "Edge(%s, %r, begin=%r, queued_at=%r)" % (
            self.kind,
            self.label,
            self.begin,
            self.queued_at,
        )


#: resume-history entry: (sim time, global seq, causing edge or None).
Resume = Tuple[float, int, Optional[Edge]]


def _resume_key(resume: Resume):
    """Canonical order for resumes that share one simulated instant.

    Same-time event delivery order is exactly what ``--schedule-seed``
    perturbs, so a walk that breaks time-ties by sequence number would blame
    different (equally defensible, zero-lead) concurrent activities under
    different seeds.  Ranking tied resumes by edge *content* — resource
    intervals over hand-offs, then labels and interval endpoints — keeps the
    extracted paths, and therefore the blame table, schedule-invariant.
    """
    edge = resume[2]
    if edge is None:
        return (0, "", "", 0.0, 0.0, "", "")
    return (
        2 if edge.kind == "resource" else 1,
        edge.resource,
        edge.category,
        edge.begin,
        edge.queued_at,
        getattr(edge.waker, "name", None) or "",
        getattr(edge.initiator, "name", None) or "",
    )


class EdgeLog:
    """Bounded, opt-in record of wakeup edges and per-process resume history."""

    def __init__(self, sim, max_records: int = 4_000_000):
        self.sim = sim
        self.max_records = max_records
        #: per-process resume history, ascending in (time, seq).
        self.history: Dict[object, List[Resume]] = {}
        #: per-process (spawn_time, parent_process_or_None, spawn_seq).
        self.spawns: Dict[object, Tuple[float, Optional[object], int]] = {}
        #: tracer track -> [(bind_time, Process)...]: which Process was
        #: executing on a thread context's track when (the CPU model binds
        #: these; preload and measured runs reuse track names, so bindings
        #: are time-qualified).  Maps request spans back to processes.
        self.track_bindings: Dict[str, List[Tuple[float, object]]] = {}
        self.n_edges = 0
        self.n_resumes = 0
        self.dropped = 0
        self._seq = 0

    # -- kernel-facing hooks (see repro.sim.core / repro.sim.wakeup) -------

    def annotate(
        self,
        event,
        resource: str,
        category: str = "",
        kind: str = "handoff",
        begin: Optional[float] = None,
        queued_at: Optional[float] = None,
        initiator=None,
        via=None,
        track: Optional[str] = None,
    ) -> Edge:
        """Stamp ``event`` with the edge describing its (imminent) trigger.

        Called by release sites *before* ``event.succeed()``; re-annotating
        replaces a less specific earlier edge (e.g. a device RAM read
        relabelling its underlying timeout).
        """
        now = self.sim.now
        if begin is None:
            begin = now
        if queued_at is None:
            queued_at = begin
        self._seq += 1
        self.n_edges += 1
        edge = Edge(
            self._seq,
            kind,
            resource,
            category,
            begin,
            queued_at,
            self.sim.current_process,
            initiator,
            via,
            track,
        )
        event._edge = edge
        return edge

    def on_resume(self, proc, event, now: float) -> None:
        """Record that ``proc`` was resumed by ``event`` at ``now``."""
        if self.n_resumes >= self.max_records:
            self.dropped += 1
            return
        self._seq += 1
        self.n_resumes += 1
        hist = self.history.get(proc)
        if hist is None:
            hist = self.history[proc] = []
        hist.append((now, self._seq, event._edge))

    def on_spawn(self, proc, parent, now: float) -> None:
        self._seq += 1
        self.spawns[proc] = (now, parent, self._seq)

    def bind_track(self, track: str, proc) -> None:
        """Remember which Process executes on a thread context's track."""
        if proc is None:
            return
        hist = self.track_bindings.get(track)
        if hist is None:
            hist = self.track_bindings[track] = []
        if not hist or hist[-1][1] is not proc:
            hist.append((self.sim.now, proc))

    # -- queries (see repro.critpath.extract) ------------------------------

    @property
    def seq(self) -> int:
        """The current global sequence counter (upper bound for walks)."""
        return self._seq

    def last_resume(
        self, proc, seq_limit: int, t_limit: float
    ) -> Optional[Resume]:
        """The latest resume of ``proc`` with ``seq < seq_limit`` and
        ``time <= t_limit``, or None."""
        hist = self.history.get(proc)
        if not hist:
            return None
        # History is ascending in both time and seq; binary search on seq.
        lo, hi = 0, len(hist)
        while lo < hi:
            mid = (lo + hi) // 2
            if hist[mid][1] < seq_limit:
                lo = mid + 1
            else:
                hi = mid
        idx = lo - 1
        while idx >= 0 and hist[idx][0] > t_limit:
            idx -= 1
        if idx < 0:
            return None
        # Among resumes at the same instant, pick the canonical one (see
        # _resume_key) rather than the latest-delivered one.
        t_star = hist[idx][0]
        best = hist[idx]
        best_key = _resume_key(best)
        j = idx - 1
        while j >= 0 and hist[j][0] == t_star:
            key = _resume_key(hist[j])
            if key > best_key:
                best, best_key = hist[j], key
            j -= 1
        return best

    def track_proc_at(self, track: str, t: float):
        """The Process bound to ``track`` at time ``t``, or None."""
        hist = self.track_bindings.get(track)
        if not hist:
            return None
        proc = None
        for bind_time, candidate in hist:
            if bind_time > t:
                break
            proc = candidate
        return proc

    def counts(self) -> Dict[str, int]:
        """Deterministic volume summary (the determinism suite fingerprints
        this alongside the blame table)."""
        return {
            "edges": self.n_edges,
            "resumes": self.n_resumes,
            "processes": len(self.history),
            "spawns": len(self.spawns),
            "tracks": len(self.track_bindings),
            "dropped": self.dropped,
        }
