"""Span-based tracing for the simulated stack.

A :class:`Tracer` records *spans* — named intervals of simulated time on a
named *track* — and *instants* (zero-width markers).  Tracks are strings of
the form ``"<process>:<thread>"`` (e.g. ``"cores:core-3"``,
``"threads:user-0"``, ``"device:ch-1"``); the Chrome exporter maps the
prefix to a trace process and the full name to a timeline row.

Two invariants keep tracing honest:

* **Zero sim-time**: recording a span never advances the clock, charges CPU,
  or touches the event heap — a traced run and an untraced run of the same
  workload end at the *identical* simulated time (asserted by
  ``tests/test_trace.py``).
* **Zero-overhead default**: every :class:`~repro.sim.core.Simulator` starts
  with ``sim.tracer = None``.  Hot paths guard with
  ``if tracer is not None:`` so the disabled cost is one attribute load and
  a branch.

Span kinds:

* ``begin()``/``finish()`` — a synchronous span on a track.  Spans on one
  track are expected to nest (a request span contains its phase spans);
  the Chrome exporter renders them as ``"X"`` complete events.
* ``async_begin()``/``finish()`` — a span that may *overlap* others on its
  track (queue residency: many requests sit in one worker queue at once).
  Exported as ``"b"``/``"e"`` async event pairs.
* ``complete()`` — record an already-elapsed interval in one call (used by
  the CPU model, which learns the burst interval only at its end).
* ``instant()`` — a zero-width marker (WAL append, memtable insert).

Only *finished* spans are recorded; a span still open when the trace is
exported is silently absent.
"""

from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "thread_track",
]


def thread_track(name: str) -> str:
    """The track carrying a simulated thread's busy/wait/request spans."""
    return "threads:%s" % name


class Span:
    """One named interval of simulated time on a track."""

    __slots__ = ("name", "cat", "track", "start", "end", "args", "aid", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        track: str,
        start: float,
        args: Optional[Dict[str, Any]],
        aid: Optional[int] = None,
    ):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.args = args
        self.aid = aid  # async-event id; None for synchronous spans

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set(self, **args: Any) -> "Span":
        """Attach/merge argument key-values onto the span."""
        if self.args is None:
            self.args = {}
        self.args.update(args)
        return self

    def finish(self, **args: Any) -> "Span":
        """Close the span at the current simulated time and record it."""
        if self.end is None:
            if args:
                self.set(**args)
            self.end = self._tracer.sim.now
            self._tracer._record(self)
        return self

    def __repr__(self) -> str:
        return "Span(%r, cat=%r, track=%r, %r..%r)" % (
            self.name,
            self.cat,
            self.track,
            self.start,
            self.end,
        )


class Tracer:
    """Collects finished spans and instants, in simulated time.

    ``max_events`` bounds memory on long runs: past the cap new events are
    counted in ``dropped`` instead of stored (the exporter reports the loss).
    """

    def __init__(self, sim, max_events: int = 2_000_000):
        self.sim = sim
        self.max_events = max_events
        self.events: List[Span] = []  # finished spans, in finish-time order
        self.dropped = 0
        self._next_aid = 1

    # -- recording ----------------------------------------------------------

    def begin(
        self,
        name: str,
        cat: str,
        track: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a synchronous (nesting) span at the current sim time."""
        return Span(self, name, cat, track, self.sim.now, args)

    def async_begin(
        self,
        name: str,
        cat: str,
        track: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span that may overlap others on its track (e.g. queue
        residency); exported as a Chrome async event pair."""
        aid = self._next_aid
        self._next_aid += 1
        return Span(self, name, cat, track, self.sim.now, args, aid=aid)

    def complete(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        end: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Record an already-elapsed ``[start, end]`` interval in one call."""
        span = Span(self, name, cat, track, start, args)
        span.end = end
        self._record(span)
        return span

    def instant(
        self,
        name: str,
        cat: str,
        track: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Record a zero-width marker at the current sim time."""
        now = self.sim.now
        return self.complete(name, cat, track, now, now, args)

    def _record(self, span: Span) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
        else:
            self.events.append(span)

    # -- querying -----------------------------------------------------------

    def spans(
        self,
        track: Optional[str] = None,
        cat: Optional[str] = None,
        name: Optional[str] = None,
    ) -> Iterator[Span]:
        """Iterate recorded spans, optionally filtered."""
        for span in self.events:
            if track is not None and span.track != track:
                continue
            if cat is not None and span.cat != cat:
                continue
            if name is not None and span.name != name:
                continue
            yield span

    def tracks(self) -> List[str]:
        """Every track that has at least one recorded event, sorted."""
        return sorted({span.track for span in self.events})

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

