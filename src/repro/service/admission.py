"""Per-shard admission control: bounded queue, load shedding, dispatchers.

Each shard instance gets one :class:`ShardLane` in front of it.  A lane is
the service plane's backpressure point:

* **Bounded admission** — arrivals are accepted while the lane holds fewer
  than ``queue_cap`` queued requests; beyond that they are *shed*
  (rejected at the front door).  Shedding keeps queueing delay — and
  therefore tail latency — bounded for the requests the service does
  accept; the price is goodput, which the SLO report accounts for
  explicitly.
* **Dispatchers** — ``n_dispatchers`` simulated threads execute admitted
  requests on the shard's p2KVS instance.  They bound the *concurrency* a
  shard sees from the service plane, exactly like a server worker pool in
  front of an embedded store.  Each dispatcher drains its own run queue
  and admission deals requests round-robin across them — a deterministic
  op-to-dispatcher pairing that is a pure function of the arrival
  sequence.  (A shared work-stealing queue would let the same-time order
  in which dispatchers go idle pick the pairing, and dispatcher identity
  is visible through CPU core affinity — that is exactly the
  schedule-perturbation sensitivity ``--schedule-seed`` exists to catch.)

Latency for admitted requests is completion − arrival, i.e. it includes
the time spent queued in the lane.  That is the number a client of the
service would observe, and it is what the per-class
``service.latency.<class>`` histograms in the stats registry record.

Lanes also implement the drain/freeze used by partition migration:
:meth:`quiesce` parks every dispatcher after its already-admitted work
finishes, so a partition copy observes a stable shard; :meth:`release`
resumes them.
"""

from typing import Generator, List, Optional

from repro.errors import KVError
from repro.sim.queues import FIFOQueue

__all__ = ["Admitted", "ShardLane", "request_skew"]

#: request_skew quantum and bucket count.  The quantum sits far above the
#: float ulp of any sim timestamp this model reaches (~1e-18 at t=10ms) so
#: the skew is never absorbed by rounding, and the largest skew
#: (2^24 quanta ~ 0.17 ns) stays below the SLO report's 1 ns latency
#: resolution, so skews never show up in the numbers.
_SKEW_QUANTUM = 1e-17
_SKEW_BUCKETS = 1 << 24


def request_skew(stream: int, seq: int) -> float:
    """Deterministic sub-nanosecond client-stub delay for one request.

    A saturated shard is completion-driven: every instant in its pipeline
    is one anchor time plus a sum of fixed model costs, so a dispatcher's
    submit can land at *exactly* the instant a worker forms its next
    opportunistic batch — and then the batch's composition (and with it
    real microseconds of latency) would depend on same-time event order,
    which ``--schedule-seed`` deliberately shuffles.  Skewing each request
    by a unique hash of ``(stream, seq)`` — assigned at admission, where
    order is already deterministic — makes those exact ties measure-zero
    without perturbing any reported number.
    """
    h = (seq * 2654435761 + stream * 40503) % _SKEW_BUCKETS
    return (h + 1) * _SKEW_QUANTUM


class Admitted:
    """One admitted request riding a run queue to its dispatcher."""

    __slots__ = ("op", "op_class", "arrived", "seq")

    def __init__(self, op, op_class: str, arrived: float, seq: int):
        self.op = op
        self.op_class = op_class
        self.arrived = arrived
        self.seq = seq


class _Drain:
    """Quiesce token: one per dispatcher, parks it until release()."""

    def __init__(self, sim, lane_name: str, n_dispatchers: int):
        self.n_dispatchers = n_dispatchers
        self.parked = 0
        self.all_parked = sim.event()
        self.resume = sim.event()
        self.resource = "lane:%s" % lane_name


class ShardLane:
    """Admission bound + dispatcher pool for one shard instance."""

    def __init__(
        self,
        env,
        shard_id: int,
        system,
        queue_cap: int = 48,
        n_dispatchers: int = 4,
        record_latency=None,
        pin_base: Optional[int] = None,
    ):
        self.env = env
        self.shard_id = shard_id
        self.system = system
        self.queue_cap = queue_cap
        self.n_dispatchers = n_dispatchers
        self._record_latency = record_latency
        self.name = "svc-lane-%d" % shard_id
        self.queues = [
            FIFOQueue(env.sim, "svc-lane-%d-%d" % (shard_id, d))
            for d in range(n_dispatchers)
        ]
        self._next_queue = 0  # round-robin dealing position
        self._admit_seq = 0  # admission order; feeds request_skew
        #: queued-but-not-dispatched requests, bounded by queue_cap.
        self.queued = 0
        self.max_depth = 0
        self.counters = env.metrics.group("service.shard-%d" % shard_id, fresh=True)
        env.metrics.gauge("service.shard-%d.queue_depth" % shard_id, lambda: self.queued)
        self._pin_base = pin_base
        self._drain: Optional[_Drain] = None
        self._quiet: Optional[object] = None  # Event while someone waits
        self._procs: List[object] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        for d in range(self.n_dispatchers):
            # Pinned dispatchers keep the measured pipeline deterministic:
            # an unpinned thread's core (and with it the migration penalty)
            # would depend on same-time scheduling order, which
            # --schedule-seed deliberately shuffles.
            core = (
                (self._pin_base + d) % self.env.cpu.n_cores
                if self._pin_base is not None
                else None
            )
            ctx = self.env.cpu.new_thread(
                "svc-%d-disp-%d" % (self.shard_id, d), kind="user", pinned=core
            )
            self._procs.append(
                self.env.sim.spawn(
                    self._dispatcher(ctx, self.queues[d]),
                    name="%s-disp-%d" % (self.name, d),
                )
            )

    # -- admission -----------------------------------------------------------

    def submit(self, op, op_class: str) -> bool:
        """Admit ``op`` or shed it; returns True when admitted."""
        if self.queued >= self.queue_cap:
            self.counters.add("shed")
            return False
        self.counters.add("admitted")
        self.queued += 1
        if self.queued > self.max_depth:
            self.max_depth = self.queued
        queue = self.queues[self._next_queue]
        self._next_queue = (self._next_queue + 1) % self.n_dispatchers
        queue.put(Admitted(op, op_class, self.env.sim.now, self._admit_seq))
        self._admit_seq += 1
        return True

    def shed_for_rebalance(self) -> None:
        """Account one arrival rejected because its partition is migrating."""
        self.counters.add("shed")
        self.counters.add("rebalance_shed")

    # -- dispatch ------------------------------------------------------------

    def _dispatcher(self, ctx, queue: FIFOQueue) -> Generator:
        while True:
            item = yield queue.get()
            if isinstance(item, _Drain):
                yield from self._park(item)
                continue
            self.queued -= 1
            # Unique stub delay (see request_skew): kills exact-time ties
            # between this submit and the workers' batch-collect instants.
            yield self.env.sim.timeout(request_skew(self.shard_id, item.seq))
            try:
                yield from self.system.execute(ctx, item.op)
            except KVError as exc:
                # Typed failure = degradation: the op failed, the lane
                # lives on (only fault-injection runs take this path).
                self.counters.add("errors")
                self.counters.add("error.%s" % exc.code)
            self.counters.add("completed")
            if self._record_latency is not None:
                self._record_latency(item.op_class, self.env.sim.now - item.arrived)
            self._note_maybe_quiet()

    def _park(self, drain: _Drain) -> Generator:
        drain.parked += 1
        if drain.parked == drain.n_dispatchers:
            self.env.sim.wake(drain.all_parked, resource=drain.resource)
        yield drain.resume

    # -- migration freeze ----------------------------------------------------

    def quiesce(self) -> Generator:
        """Park every dispatcher once its in-queue work finishes.

        The drain tokens join each run queue *behind* whatever is already
        admitted, so quiescing never cancels accepted requests — it only
        delays new ones.  Returns once all dispatchers are parked.
        """
        if self._drain is not None:
            raise RuntimeError("lane %s already quiescing" % self.name)
        drain = _Drain(self.env.sim, self.name, self.n_dispatchers)
        self._drain = drain
        for queue in self.queues:
            # Drain tokens are control flow, not requests: they do not
            # count against the admission bound.
            queue.put(drain)
        yield drain.all_parked

    def release(self) -> None:
        """Resume the dispatchers parked by :meth:`quiesce`."""
        if self._drain is None:
            raise RuntimeError("lane %s is not quiescing" % self.name)
        drain, self._drain = self._drain, None
        self.env.sim.wake(drain.resume, resource=drain.resource)

    # -- completion tracking -------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Admitted requests not yet completed (queued or executing)."""
        return int(self.counters.get("admitted") - self.counters.get("completed"))

    def _note_maybe_quiet(self) -> None:
        if self._quiet is not None and self.outstanding == 0:
            ev, self._quiet = self._quiet, None
            self.env.sim.wake(ev, resource="lane:%s" % self.name)

    def wait_quiet(self) -> Generator:
        """Block until every admitted request has completed."""
        while self.outstanding > 0:
            if self._quiet is None:
                self._quiet = self.env.sim.event()
            yield self._quiet
