"""Event loop, events and processes for the simulation kernel.

The kernel follows the SimPy model: a :class:`Process` wraps a Python
generator; every value the generator yields must be an :class:`Event`, and the
process is resumed when that event triggers.  Time is a float in *seconds*;
micro-latencies from the paper (e.g. 2.1 us WAL writes) are expressed as
``2.1e-6``.

Events are single-shot: they trigger once, with either a value or an
exception, and then fan out to all registered callbacks in FIFO order.

Hot-path layout: this module is the top of the wall-clock zone tree, so
the common cases are slot-based and allocation-free where the semantics
allow:

* an :class:`Event` stores its waiters in a single ``_cb`` slot —
  ``None`` (no waiter), a bare callable (the single-waiter common case), or
  a list only once a second waiter registers;
* heap entries are plain 5-tuples ``(when, rank, seq, target, value)``;
  deferred calls encode ``target`` as a ``(fn, arg)`` tuple so the dispatch
  loop discriminates with one ``type(target) is tuple`` check instead of an
  ``isinstance`` walk;
* :class:`Process` resumes drive ``gen.send``/``gen.throw`` directly (the
  bound ``send`` is cached at spawn) instead of allocating a closure per
  step;
* releases (:meth:`Simulator.wake`), spawns, timers and CPU/device
  completions (:meth:`Simulator._call_later`) read no observer: attaching
  a sanitizer or an edgelog (:meth:`Simulator.set_observer`) overlays
  observed variants on the instance that run the same class method plus
  the hooks, and a process resume reads one ``_resume_hook``.

Ordering contract: all fast paths preserve the heap ordering key.  The only
tolerated difference vs. the historical kernel is *within* a single sim-time
instant (e.g. a callback added to an already-triggered event now joins that
event's pending delivery instead of a fresh heap entry), which the
perturbation-invariance contract — ``perturb_schedule`` reruns must be
byte-identical — already requires models to be robust to.  The golden
fingerprint suite (tests/test_golden.py) pins this.
"""

import heapq
from heapq import heappush as _heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

# lint: disable-file=unlabeled-wakeup -- the kernel defines succeed() and
# annotates its own wakeups (timeouts, joins, process completion) inline.

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "LateTimeout",
    "Process",
    "SimError",
    "Simulator",
    "Timeout",
]

# An event that triggered successfully carries _ok=True; a failed event
# carries the exception in _value and re-raises it inside waiting processes.
_PENDING = object()

_INF = float("inf")


class SimError(Exception):
    """Raised for misuse of the simulation kernel (e.g. yielding non-events)."""


class Event:
    """A single-shot occurrence that processes can wait for.

    Create via :meth:`Simulator.event` (or subclasses).  Trigger with
    :meth:`succeed` or :meth:`fail`.  A process waits on an event simply by
    yielding it.
    """

    __slots__ = ("sim", "_value", "_ok", "_cb", "_hb", "_edge")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: waiter slot: None | callable | list of callables (FIFO).
        self._cb: Any = None
        #: happens-before clock stamped by the sanitizer (if any) when
        #: the event triggers; joined into the waiter's clock on resume.
        self._hb = None
        #: wakeup edge stamped by the edgelog (if any) at the release site;
        #: consumed by repro.critpath when the waiter resumes.
        self._edge = None

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimError("event has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger successfully.  The trigger is un-annotated: an attached
        edgelog records a generic ``"event"`` hand-off edge unless the
        caller stamped a more specific one first."""
        self.sim.wake(self, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._value is not _PENDING:
            raise SimError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimError("fail() requires an exception instance")
        self._value = exc
        self._ok = False
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.on_send(self)
        self.sim._queue_callbacks(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` once the event has triggered.

        If the event already triggered, the callback fires on the next loop
        iteration (never synchronously), preserving run-to-completion
        semantics for the caller: it joins the event's still-pending delivery
        if one exists, else a fresh delivery entry is queued — no per-call
        closure or heap entry on hot futures.
        """
        cb = self._cb
        if self._value is _PENDING:
            if cb is None:
                self._cb = fn
            elif type(cb) is list:
                cb.append(fn)
            else:
                self._cb = [cb, fn]
            return
        # Already triggered.  A non-None _cb means a delivery entry is still
        # pending in the heap (drains set _cb back to None), so appending is
        # enough; from None we must queue a delivery for this callback.
        if cb is None:
            self._cb = fn
            self.sim._queue_callbacks(self)
        elif type(cb) is list:
            cb.append(fn)
        else:
            self._cb = [cb, fn]


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimError("negative timeout: %r" % (delay,))
        self.sim = sim
        self._value = _PENDING
        self._ok = None
        self._cb = None
        self._hb = None
        self._edge = None
        sim._seq = seq = sim._seq + 1
        rng = sim._perturb_rng
        _heappush(
            sim._heap,
            (
                sim._now + delay,
                rng.random() if rng is not None else 0.0,
                seq,
                self,
                value,
            ),
        )


class LateTimeout(Event):
    """A timeout delivered after every other event at the same instant.

    Same-time heap entries normally deliver FIFO (or seeded-shuffled under
    :meth:`Simulator.perturb_schedule`); a late timeout carries a fixed rank
    above both, so its waiter resumes only once the instant's other activity
    — including same-time cascades it triggers — has drained.  Observers
    (the sim-time sampler) use this: an end-of-instant snapshot is the same
    for every same-time delivery order, a mid-instant one is not.
    """

    __slots__ = ()

    #: sorts after FIFO's 0.0 and after any perturbation rank in [0, 1).
    RANK = 2.0

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimError("negative timeout: %r" % (delay,))
        super().__init__(sim)
        sim._push(sim._now + delay, self, value, rank=self.RANK)


class Process(Event):
    """A running generator.  As an Event it triggers when the generator ends.

    The generator's ``return`` value becomes the event value, so
    ``result = yield some_process`` works, as does ``yield from`` composition
    between plain generator functions.
    """

    __slots__ = ("gen", "name", "held_locks", "_send")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self._value = _PENDING
        self._ok = None
        self._cb = None
        self._hb = None
        self._edge = None
        self.gen = gen
        #: bound gen.send, cached once: resumes are the hottest call site in
        #: the kernel and must not re-resolve the method per step.
        self._send = gen.send
        self.name = name or getattr(gen, "__name__", "process")
        #: sim locks currently owned by this process (repro.sim.sync
        #: maintains this); a process must release them before returning.
        self.held_locks: List[Any] = []
        # Kick off on the next loop iteration.
        sim._seq = seq = sim._seq + 1
        rng = sim._perturb_rng
        _heappush(
            sim._heap,
            (
                sim._now,
                rng.random() if rng is not None else 0.0,
                seq,
                (self._resume_ok, None),
                _PENDING,
            ),
        )

    def _resume_ok(self, _event: Optional[Event]) -> None:
        """First step: nothing was received, so no resume hook."""
        sim = self.sim
        sim.current_process = self
        try:
            target = self._send(None if _event is None else _event._value)
        except StopIteration as stop:
            self._on_stop(stop.value)
            sim.current_process = None
            return
        except BaseException as exc:  # lint: disable=crash-swallowed  (kernel boundary: fail() re-raises at every waiter, _crash aborts the run)
            self._on_error(exc)
            sim.current_process = None
            return
        sim.current_process = None
        if isinstance(target, Event):
            target.add_callback(self._resume)
        else:
            self._step_fail(target)

    def _resume(self, event: Event) -> None:
        sim = self.sim
        hook = sim._resume_hook
        if hook is not None:
            hook(self, event)
        sim.current_process = self
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self.gen.throw(event._value)
        except StopIteration as stop:
            self._on_stop(stop.value)
            sim.current_process = None
            return
        except BaseException as exc:  # lint: disable=crash-swallowed  (kernel boundary: fail() re-raises at every waiter, _crash aborts the run)
            self._on_error(exc)
            sim.current_process = None
            return
        sim.current_process = None
        if isinstance(target, Event):
            target.add_callback(self._resume)
        else:
            self._step_fail(target)

    def _on_stop(self, value: Any) -> None:
        """Generator returned: trigger the process event (current_process is
        still this process, so the completion edge blames the right waker)."""
        if self.held_locks:
            # A finished generator can never release its locks, so every
            # future acquirer would hang silently.  Fail loudly instead.
            self._exit_holding_locks()
            return
        # Waker is still `self` here (current_process), so joiners' paths
        # continue through the finished process's history.
        self.sim.wake(self, value, "process")

    def _on_error(self, exc: BaseException) -> None:
        if self._cb is not None:
            self.fail(exc)
        else:
            # Nobody is waiting: surface the error out of Simulator.run().
            self.sim._crash(exc)

    def _exit_holding_locks(self) -> None:
        names = ", ".join(repr(lock.name) for lock in self.held_locks)
        exc = SimError(
            "process %r exited while holding lock(s) %s: waiters would hang "
            "forever; release before returning (or use try/finally)"
            % (self.name, names)
        )
        # Deadlocked state is unrecoverable: surface the error even when a
        # waiter exists, so Simulator.run() always fails fast.
        if self._cb is not None:
            self.fail(exc)
        self.sim._crash(exc)

    def _step_fail(self, target: Any) -> None:
        exc = SimError(
            "process %r yielded %r, which is not an Event" % (self.name, target)
        )
        self.gen.close()
        self.sim._crash(exc)


class AllOf(Event):
    """Triggers once every event in ``events`` has triggered.

    The value is the list of the individual event values, in input order.
    Fails fast if any child fails.
    """

    __slots__ = ("_pending", "_results")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        self._results: List[Any] = [None] * len(events)
        self._pending = len(events)
        if not events:
            self.succeed([])
            return
        for i, ev in enumerate(events):
            ev.add_callback(self._make_child_callback(i))

    def _make_child_callback(self, index: int) -> Callable[[Event], None]:
        def on_child(ev: Event) -> None:
            if self.triggered:
                return
            if not ev.ok:
                self.fail(ev.value)
                return
            self._results[index] = ev.value
            self._pending -= 1
            if self._pending == 0:
                edgelog = self.sim.edgelog
                if edgelog is not None:
                    # The join completes through its last child: record the
                    # child event so the walk can follow the child's edge.
                    edgelog.annotate(self, "join", via=ev)
                self.succeed(self._results)

        return on_child


class AnyOf(Event):
    """Triggers when the first of ``events`` triggers; value is (index, value)."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        if not events:
            raise SimError("AnyOf requires at least one event")
        for i, ev in enumerate(events):
            ev.add_callback(self._make_child_callback(i))

    def _make_child_callback(self, index: int) -> Callable[[Event], None]:
        def on_child(ev: Event) -> None:
            if self.triggered:
                return
            if not ev.ok:
                self.fail(ev.value)
            else:
                edgelog = self.sim.edgelog
                if edgelog is not None:
                    edgelog.annotate(self, "join", via=ev)
                self.succeed((index, ev.value))

        return on_child


class Simulator:
    """The event loop: a time-ordered heap of triggered events to deliver."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List = []
        self._seq = 0  # tie-break so heap order is FIFO and deterministic
        self._pending_error: Optional[BaseException] = None
        #: observers (repro.trace, repro.analysis.sanitizer, repro.critpath);
        #: None is each one's off-state.  Attach the last two only through
        #: set_observer, which rebinds the kernel's entry points.
        self.tracer = None
        self.sanitizer = None
        self.edgelog = None
        #: per-resume observer call, or None; set only by set_observer.
        self._resume_hook = None
        #: the Process currently executing a step, or None in kernel context.
        self.current_process: Optional["Process"] = None
        #: seeded RNG for schedule perturbation; None keeps FIFO tie-break.
        self._perturb_rng = None

    def perturb_schedule(self, seed: int) -> None:
        """Randomize delivery order of same-time events (seeded, reproducible).

        Entries at *different* sim times are unaffected; FIFO order among
        same-time entries — normally the insertion order — is replaced by a
        seeded shuffle.  A correct model must produce the same final state
        and metrics for every seed (see docs/ANALYSIS.md).
        """
        import random  # lint: disable=global-random  (seeded Random only)

        self._perturb_rng = random.Random(seed)

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    # -- event construction ----------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_late(self, delay: float, value: Any = None) -> LateTimeout:
        """A timeout that resumes its waiter at the *end* of the target
        instant, after every same-time event (perturbation-stable)."""
        return LateTimeout(self, delay, value)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start running ``gen`` as a concurrent simulated process."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling internals ----------------------------------------------

    def _push(
        self, when: float, target: Any, value: Any, rank: Optional[float] = None
    ) -> None:
        """Heap insert.  Ties at equal ``when`` break FIFO by default; under
        schedule perturbation a seeded random rank shuffles same-time order
        (the trailing seq keeps runs reproducible per seed).  An explicit
        ``rank`` (see :class:`LateTimeout`) bypasses both."""
        self._seq += 1
        if rank is None:
            rng = self._perturb_rng
            rank = rng.random() if rng is not None else 0.0
        _heappush(self._heap, (when, rank, self._seq, target, value))

    def _queue_callbacks(self, event: Event) -> None:
        """Deliver an already-triggered event's callbacks at the current time."""
        self._push(self._now, event, _PENDING)

    def _call_later(self, delay: float, fn: Callable, arg: Any) -> None:
        """Run ``fn(arg)`` after ``delay`` seconds — the closure-free burst
        completion of the CPU and device models.

        Same heap ordering key as ``timeout(delay).add_callback(...)``, minus
        the Timeout event and per-burst closure.  An attached edgelog
        replaces this with :meth:`_call_later_recording`.
        """
        self._seq += 1
        rng = self._perturb_rng
        _heappush(
            self._heap,
            (
                self._now + delay,
                rng.random() if rng is not None else 0.0,
                self._seq,
                (fn, arg),
                _PENDING,
            ),
        )

    def _call_later_recording(self, delay: float, fn: Callable, arg: Any) -> None:
        """:meth:`_call_later` with an edgelog attached: a real, observed
        Timeout, which stamps its timer edge (critpath counts those edges)."""
        self.timeout(delay).add_callback(lambda _ev: fn(arg))

    # -- observed overlays (bound by set_observer) ---------------------------

    def _spawn_observed(self, gen: Generator, name: str = "") -> Process:
        proc = Simulator.spawn(self, gen, name)
        if self.sanitizer is not None:
            self.sanitizer.on_spawn(proc)
        if self.edgelog is not None:
            self.edgelog.on_spawn(proc, self.current_process, self._now)
        return proc

    def _timeout_observed(self, delay: float, value: Any = None) -> Timeout:
        return self._stamp_timer(Simulator.timeout(self, delay, value))

    def _timeout_late_observed(self, delay: float, value: Any = None) -> LateTimeout:
        return self._stamp_timer(Simulator.timeout_late(self, delay, value))

    def _stamp_timer(self, timer: Event) -> Any:
        # Timers never pass through wake() — Simulator.run delivers them
        # directly — so the edge is stamped at creation.
        self.edgelog.annotate(
            timer, "timeout", kind="resource", initiator=self.current_process
        )
        return timer

    def _resume_observed(self, proc: Process, event: Event) -> None:
        if self.sanitizer is not None:
            self.sanitizer.on_receive(proc, event)
        if self.edgelog is not None:
            self.edgelog.on_resume(proc, event, self._now)

    # -- releasing waiters ---------------------------------------------------

    def wake(
        self,
        event: Event,
        value: Any = None,
        resource: Optional[str] = None,
        category: str = "",
        queued_at: Optional[float] = None,
        kind: str = "handoff",
        begin: Optional[float] = None,
        initiator: Any = None,
        track: Optional[str] = None,
    ) -> None:
        """Trigger ``event`` with ``value``: the one entry point through which
        every waiter release in the simulation layer goes.

        The edge arguments describe the release for an attached edgelog
        (:mod:`repro.critpath`): ``resource`` names what released the waiter
        (``"lock:mem-stage"``, ``"cpu"``, ``"device"``, ``"queue:obm-0"``...)
        and ``category`` the workload category metrics already use.  For
        ``kind="resource"`` edges, ``begin``/``queued_at`` delimit the service
        and queueing intervals and ``initiator`` is the process that
        requested the activity; hand-offs only need ``queued_at`` (when the
        waiter began waiting).  Hot callers pass them positionally.

        This method ignores them: it is exactly the trigger.
        :meth:`set_observer` overlays :meth:`_wake_observed`, which stamps
        the edge, calls this, then stamps the sanitizer's clock.  The ``unlabeled-wakeup`` lint rule
        keeps bare ``succeed()`` calls, which carry no resource label, out
        of :mod:`repro.sim`.
        """
        if event._value is not _PENDING:
            raise SimError("event already triggered")
        event._value = value
        event._ok = True
        self._seq = seq = self._seq + 1
        rng = self._perturb_rng
        _heappush(
            self._heap,
            (self._now, rng.random() if rng is not None else 0.0, seq, event, _PENDING),
        )

    def _wake_observed(
        self,
        event: Event,
        value: Any = None,
        resource: Optional[str] = None,
        category: str = "",
        queued_at: Optional[float] = None,
        kind: str = "handoff",
        begin: Optional[float] = None,
        initiator: Any = None,
        track: Optional[str] = None,
    ) -> None:
        """:meth:`wake` with an observer attached: stamp the edge, trigger,
        then stamp the triggerer's happens-before clock."""
        edgelog = self.edgelog
        if edgelog is not None:
            if resource is not None:
                edgelog.annotate(
                    event,
                    resource,
                    category=category,
                    kind=kind,
                    begin=begin,
                    queued_at=queued_at,
                    initiator=initiator,
                    track=track,
                )
            elif event._edge is None:
                # Un-annotated trigger (engine-level future): generic
                # hand-off edge so the critical path flows through the waker.
                edgelog.annotate(event, "event")
        # The class method, not self.wake: while observed, that is us.
        Simulator.wake(self, event, value)
        if self.sanitizer is not None:
            self.sanitizer.on_send(event)

    def set_observer(self, name: str, observer: Any) -> None:
        """Attach observer ``name`` (``"sanitizer"``/``"edgelog"``; None
        detaches it) and decide, once, every kernel hook: the observed
        variants of :meth:`wake`, :meth:`spawn`, the resume hook and (for
        an edgelog) the timers and :meth:`_call_later` are overlaid as
        instance attributes; with nothing attached the class methods, the
        plain path, are back.  Safe at any point between events."""
        if name not in ("sanitizer", "edgelog"):
            raise ValueError("unknown simulator observer %r" % (name,))
        setattr(self, name, observer)
        for attr in ("wake", "spawn", "timeout", "timeout_late", "_call_later"):
            # delattr, not vars(self).pop: materializing the instance dict
            # would slow every later attribute load on the simulator.
            try:
                delattr(self, attr)
            except AttributeError:
                pass
        if self.sanitizer is None and self.edgelog is None:
            self._resume_hook = None
            return
        self.wake = self._wake_observed
        self.spawn = self._spawn_observed
        self._resume_hook = self._resume_observed
        if self.edgelog is not None:
            self.timeout = self._timeout_observed
            self.timeout_late = self._timeout_late_observed
            self._call_later = self._call_later_recording

    def _crash(self, exc: BaseException) -> None:
        if self._pending_error is None:
            self._pending_error = exc

    # -- running -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event heap is empty or sim time passes ``until``.

        Errors raised by processes with no waiters propagate out of here.

        Dispatch discriminates deferred ``(fn, arg)`` calls from event
        deliveries with a single ``type(target) is tuple`` check; event
        deliveries drain the single ``_cb`` slot without allocating or
        swapping lists.  The host zone profiler charges each call to its
        ``kernel.dispatch`` zone by wrapping this method from outside.
        """
        heap = self._heap
        pop = heapq.heappop
        push = _heappush
        limit = _INF if until is None else until
        while heap:
            if self._pending_error is not None:
                err, self._pending_error = self._pending_error, None
                raise err
            entry = pop(heap)
            when = entry[0]
            if when > limit:
                push(heap, entry)
                self._now = until
                return
            self._now = when
            target = entry[3]
            if type(target) is tuple:
                target[0](target[1])
            else:
                value = entry[4]
                if value is not _PENDING and target._value is _PENDING:
                    # A timer-style entry: trigger the event now.
                    target._value = value
                    target._ok = True
                cb = target._cb
                if cb is not None:
                    target._cb = None
                    if type(cb) is list:
                        for fn in cb:
                            fn(target)
                    else:
                        cb(target)
        if self._pending_error is not None:
            err, self._pending_error = self._pending_error, None
            raise err
        if until is not None:
            self._now = max(self._now, until)

