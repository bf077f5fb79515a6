"""The online health monitor: windowed probes + rules + incident timeline.

A :class:`HealthMonitor` is the service's watchdog on the simulated
machine.  Started, it spawns a kernel ticker riding
:class:`~repro.sim.core.LateTimeout` — every ``window`` seconds of
*virtual* time it closes one telemetry window (end-of-instant, so the
values are identical for every same-time delivery order), feeds the new
window to every rule, and appends any fire/resolve transitions to the
incident timeline.  Everything it records is a pure function of the run:
reruns — and ``--schedule-seed`` perturbations — produce byte-identical
timelines, which the monitor tests pin.

Two lifecycle details matter:

* ``stop()`` only clears a flag (the pending tick sees it and exits, so
  the kernel's run-until-empty loop still terminates); ``stop(flush=True)``
  first closes a final partial window so the tail of the run is observed.
* :meth:`finalize` extends the timeline *past the end of the simulation*
  with synthetic windows: after a simulated power loss the machine stops
  producing events, but a real monitoring plane keeps scraping and sees
  silence.  Synthetic windows read the frozen instruments (counter deltas
  are zero by construction), which is exactly what lets the
  :class:`~repro.monitor.rules.ShardSilence` watchdog detect a crash with
  a finite, deterministic time-to-detect.
"""

from typing import Dict, List, Optional

from repro.monitor.windows import DEFAULT_RETENTION, SeriesTap, WindowStore

__all__ = ["DEFAULT_WINDOW", "HealthMonitor", "Incident", "install_monitor"]

#: 100 us of virtual time — small enough that the pinned scenarios span
#: dozens of windows, large enough that every healthy window shows progress.
DEFAULT_WINDOW = 1e-4


class Incident:
    """One alert: fired (with evidence), possibly resolved later."""

    __slots__ = ("rule", "severity", "series", "fired_at", "resolved_at",
                 "evidence", "resolve_evidence", "synthetic")

    def __init__(self, rule: str, severity: str, series: str, fired_at: float,
                 evidence: dict, synthetic: bool):
        self.rule = rule
        self.severity = severity
        self.series = series
        self.fired_at = fired_at
        self.resolved_at: Optional[float] = None
        self.evidence = evidence
        self.resolve_evidence: Optional[dict] = None
        #: True when the fire happened in a synthesized post-run window
        #: (the machine was already dead; the monitor noticed afterwards).
        self.synthetic = synthetic

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "series": self.series,
            "fired_at": round(self.fired_at, 9),
            "resolved_at": (
                round(self.resolved_at, 9) if self.resolved_at is not None else None
            ),
            "synthetic": self.synthetic,
            "evidence": self.evidence,
            "resolve_evidence": self.resolve_evidence,
        }


class HealthMonitor:
    """Windowed telemetry + rules engine over one env's stats registry."""

    def __init__(self, env, window: float = DEFAULT_WINDOW,
                 retention: int = DEFAULT_RETENTION, ewma_alpha: float = 0.3):
        if window <= 0:
            raise ValueError("monitor window must be positive")
        self.env = env
        self.window = window
        self.store = WindowStore(retention=retention, ewma_alpha=ewma_alpha)
        self.taps: List[SeriesTap] = []
        self.rules: List = []
        self.incidents: List[Incident] = []
        self.started_at: Optional[float] = None
        self.last_window_end: Optional[float] = None
        self.windows_observed = 0
        self.synthetic_windows = 0
        self._running = False
        self._generation = 0

    # -- wiring --------------------------------------------------------------

    def add_series(self, name: str, kind: str, fn) -> SeriesTap:
        tap = SeriesTap(name, kind, fn)
        self.taps.append(tap)
        return tap

    def add_rule(self, rule) -> None:
        self.rules.append(rule)

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Open window 0 at the current sim time and begin ticking."""
        if self._running:
            return
        self._running = True
        self._generation += 1
        self.started_at = self.env.sim.now
        self.last_window_end = self.started_at
        self.env.sim.spawn(self._ticker(self._generation), "health-monitor")

    def stop(self, flush: bool = True) -> None:
        """Stop ticking; ``flush`` closes a final partial window first."""
        if flush and self._running and self.env.sim.now > self.last_window_end:
            self.observe(self.env.sim.now)
        self._running = False

    def _ticker(self, generation: int):
        # End-of-instant baselines and snapshots: see the sampler's ticker
        # for why LateTimeout is the only schedule-invariant probe point.
        yield self.env.sim.timeout_late(0.0)
        if self._generation == generation:
            for tap in self.taps:
                tap.baseline()
        while self._running and self._generation == generation:
            yield self.env.sim.timeout_late(self.window)
            if not (self._running and self._generation == generation):
                break
            self.observe(self.env.sim.now)

    # -- observation ---------------------------------------------------------

    def observe(self, now: float, synthetic: bool = False) -> None:
        """Close one window ending at ``now`` and run every rule over it."""
        dt = now - (self.last_window_end
                    if self.last_window_end is not None else now)
        self.last_window_end = now
        self.windows_observed += 1
        if synthetic:
            self.synthetic_windows += 1
        for tap in self.taps:
            self.store.append(tap.name, now, dt, tap.observe())
        open_by_rule: Dict[str, Incident] = {}
        for incident in self.incidents:
            if incident.resolved_at is None:
                open_by_rule[incident.rule] = incident
        for rule in self.rules:
            transition = rule.evaluate(self.store, now)
            if transition is None:
                continue
            state, evidence = transition
            if state == "fire":
                self.incidents.append(Incident(
                    rule.name, rule.severity, rule.series, now, evidence,
                    synthetic,
                ))
            else:
                open_incident = open_by_rule.get(rule.name)
                if open_incident is not None:
                    open_incident.resolved_at = now
                    open_incident.resolve_evidence = evidence

    def finalize(self, horizon: float) -> int:
        """Synthesize windows up to ``horizon`` after the sim has ended.

        Call only after ``sim.run()`` has returned/crashed; the synthetic
        windows read the frozen instruments, so counter deltas are zero —
        the silence a dead machine presents to its monitoring plane.
        Returns the number of windows synthesized.
        """
        if self._running:
            self.stop(flush=True)
        if self.last_window_end is None:
            return 0
        n = 0
        while self.last_window_end + self.window <= horizon:
            self.observe(self.last_window_end + self.window, synthetic=True)
            n += 1
        return n

    # -- reads ---------------------------------------------------------------

    def alert_counts(self) -> Dict[str, int]:
        counts = {"page": 0, "warn": 0}
        for incident in self.incidents:
            counts[incident.severity] += 1
        return counts

    def page_incidents(self) -> List[Incident]:
        return [i for i in self.incidents if i.severity == "page"]

    def first_page_at(self, not_before: float = 0.0) -> Optional[Incident]:
        """The earliest page fired at or after ``not_before``, or None."""
        for incident in self.incidents:  # timeline order == fire order
            if incident.severity == "page" and incident.fired_at >= not_before:
                return incident
        return None

    def timeline(self) -> dict:
        """The full monitor state as a deterministic, JSON-ready document."""
        return {
            "window_s": round(self.window, 9),
            "started_at": (
                round(self.started_at, 9) if self.started_at is not None else None
            ),
            "last_window_end": (
                round(self.last_window_end, 9)
                if self.last_window_end is not None else None
            ),
            "windows_observed": self.windows_observed,
            "synthetic_windows": self.synthetic_windows,
            "dropped_windows": self.store.dropped(),
            "rules": [rule.describe() for rule in self.rules],
            "series": self.store.summary(),
            "incidents": [incident.as_dict() for incident in self.incidents],
            "alerts": self.alert_counts(),
        }


def install_monitor(env, window: float = DEFAULT_WINDOW, **kwargs) -> HealthMonitor:
    """Build a bare monitor (no series/rules) for one env."""
    return HealthMonitor(env, window=window, **kwargs)
