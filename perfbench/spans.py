"""Host-time spans recorded from outside the program.

The traced run times the public functions of each ``repro`` layer without
touching the program's source: :func:`installed` replaces each target
attribute with a wrapper for the duration of a ``with`` block and puts the
original back afterwards.

* A plain function gets a synchronous wrapper: one span per call.  If the
  call hands back a generator (``LogWriter.flush`` returns one), that
  generator is driven by the generator wrapper below.
* A generator function gets a delegating generator wrapper.  It forwards
  ``send``, ``throw`` and ``close`` to the wrapped generator, passes its
  return value back through ``yield from``, and opens one span per resume,
  so the time a simulated process spends suspended is never charged.  It
  keeps the wrapped generator's ``__name__`` because the kernel names
  processes after it.

Spans nest on one LIFO stack.  A span's self time is its duration minus
the durations of the spans opened directly inside it.  Totals are kept per
``(layer, function)``; full span records (name, start, end, id, parent id,
request id) are kept only for the first ``max_records`` spans.

A span's request id is the call id of the outermost wrapped call under a
root function (``Simulator.run``), so every resume of one ``P2KVS.put``
call, and every span inside those resumes, shares one id.  Work a request
hands to another simulated process (a worker draining its queue) gets that
process's own id: linking the two needs spans inside the program.
"""

import functools
import inspect
import json
import time
from contextlib import contextmanager
from types import FunctionType, GeneratorType
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["SpanTracer", "Stat", "Target", "installed"]


class Stat:
    """Aggregate of one wrapped function."""

    __slots__ = ("layer", "name", "root", "calls", "spans", "total_ns",
                 "self_ns", "flagged")

    def __init__(self, layer: str, name: str, root: bool = False):
        self.layer = layer
        self.name = name
        #: spans directly under a root start a new request id.
        self.root = root
        #: invocations (a generator call counts once, however many resumes).
        self.calls = 0
        #: timed spans: one per synchronous call or generator resume.
        self.spans = 0
        self.total_ns = 0
        self.self_ns = 0
        #: results for which the target's ``flag`` predicate held.
        self.flagged = 0


class Target:
    """One attribute to wrap: ``owner.attr`` charged to ``layer``.

    ``timed=False`` only counts calls (no span, so the time stays with the
    caller).  ``flag`` is a predicate on the returned value; matches are
    counted in :attr:`Stat.flagged`.  ``root`` marks the function whose
    direct children start new request ids.
    """

    __slots__ = ("layer", "owner", "attr", "timed", "flag", "root")

    def __init__(self, layer: str, owner, attr: str, timed: bool = True,
                 flag: Optional[Callable] = None, root: bool = False):
        self.layer = layer
        self.owner = owner
        self.attr = attr
        self.timed = timed
        self.flag = flag
        self.root = root

    @property
    def name(self) -> str:
        return "%s.%s" % (self.owner.__name__, self.attr)


class SpanTracer:
    """LIFO span stack plus per-function aggregates."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 max_records: int = 50000):
        self.clock = clock
        self.max_records = max_records
        self.stats: Dict[Tuple[str, str], Stat] = {}
        #: (name, start_ns, end_ns, span_id, parent_id, request_id)
        self.records: List[tuple] = []
        self.dropped = 0
        #: open frames: [stat, start_ns, child_ns, span_id, request_id]
        self._stack: List[list] = []
        self._ids = 0

    def stat(self, layer: str, name: str, root: bool = False) -> Stat:
        key = (layer, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat(layer, name, root)
        return stat

    def new_id(self) -> int:
        self._ids += 1
        return self._ids

    # -- spans -----------------------------------------------------------

    def enter(self, stat: Stat, call_id: int) -> list:
        stack = self._stack
        self._ids += 1
        if stack and not stack[-1][0].root:
            request_id = stack[-1][4]
        else:
            request_id = call_id
        frame = [stat, self.clock(), 0, self._ids, request_id]
        stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError("span stack left out of LIFO order")
        stack.pop()
        stat, start, child_ns, span_id, request_id = frame
        duration = end - start
        stat.spans += 1
        stat.total_ns += duration
        stat.self_ns += duration - child_ns
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if len(self.records) < self.max_records:
            self.records.append(
                (stat.name, start, end, span_id, parent_id, request_id)
            )
        else:
            self.dropped += 1

    # -- wrappers --------------------------------------------------------

    def drive(self, stat: Stat, gen: GeneratorType) -> GeneratorType:
        """Wrap a started-or-fresh generator; one span per resume."""
        wrapper = self._delegate(stat, gen, self.new_id())
        wrapper.__name__ = gen.__name__
        wrapper.__qualname__ = gen.__qualname__
        return wrapper

    def _delegate(self, stat: Stat, gen: GeneratorType, call_id: int):
        enter, leave = self.enter, self.leave
        value = None
        error: Optional[BaseException] = None
        while True:
            frame = enter(stat, call_id)
            try:
                if error is None:
                    yielded = gen.send(value)
                else:
                    yielded = gen.throw(error)
            except StopIteration as stop:
                leave(frame)
                return stop.value
            except BaseException:
                leave(frame)
                raise
            leave(frame)
            error = None
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the wrapped generator
                error = exc
                value = None

    def wrap(self, target: Target, fn: FunctionType) -> Callable:
        stat = self.stat(target.layer, target.name, target.root)
        flag = target.flag
        if not target.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted

        if inspect.isgeneratorfunction(fn):
            drive = self.drive

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                stat.calls += 1
                return drive(stat, fn(*args, **kwargs))

            return generator

        enter, leave, new_id, drive = self.enter, self.leave, self.new_id, self.drive

        @functools.wraps(fn)
        def synchronous(*args, **kwargs):
            stat.calls += 1
            frame = enter(stat, new_id())
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if flag is not None and flag(result):
                stat.flagged += 1
            if type(result) is GeneratorType:
                return drive(stat, result)
            return result

        return synchronous

    # -- output ----------------------------------------------------------

    def write_records(self, path: str) -> None:
        """Write the kept span records as JSON (names, ns times, ids)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "span_id",
                               "parent_id", "request_id"],
                    "records": self.records,
                    "dropped": self.dropped,
                },
                fh,
            )
            fh.write("\n")


@contextmanager
def installed(tracer: SpanTracer, targets: Sequence[Target]) -> Iterator[SpanTracer]:
    """Wrap every target for the block's duration, then restore them all.

    A class attribute that is another name for the same function
    (``P2KVS.update = put``) is wrapped with it, so aliases cannot bypass
    the span.
    """
    saved: List[Tuple[object, str, object]] = []
    try:
        for target in targets:
            owner = target.owner
            original = owner.__dict__[target.attr]
            if not isinstance(original, FunctionType):
                raise TypeError("%s is not a plain function" % target.name)
            wrapper = tracer.wrap(target, original)
            for attr, value in list(owner.__dict__.items()):
                if value is original:
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
