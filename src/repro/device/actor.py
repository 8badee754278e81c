"""The simulated device: an actor driving the active participation lifecycle.

One :class:`DeviceActor` per phone.  It owns check-in, plan download,
local training, update upload, and every Table 1 event along the way —
the WAITING → PARTICIPATING → reporting pipeline.  Its check-in is
already admitted when it opens the stream: the idle plane's screen judged
it, attestation verdict included (a device is attested once, when its
row is enrolled), and reserved its Selector pool slot.  Interruption
semantics follow Sec. 3: "Once started, the FL runtime will abort,
freeing the allocated resources, if these conditions are no longer met."

The *idle* half of the lifecycle — eligibility flips (idle/charging/
unmetered, diurnally modulated), the periodic job schedule, the
pace-steering pending window, the on-device worker queue and the
Selector pick — is the device's row of the :class:`~repro.sim.idle_plane.
VectorizedIdlePlane`: idle devices are rows in fleet-wide arrays and
only materialize as actor interactions when a Selector admits a
check-in — a fleet does not even construct a row's ``DeviceActor``
before its first admitted check-in (:mod:`repro.device.table`).  The
actor holds its ``plane`` and its ``row`` and calls the plane's per-row
entry points with them; ``scheduler`` is that row of the worker queue.

A device may belong to *several* FL populations (Sec. 2's multi-tenancy:
one fleet, many learning problems).  Each job-scheduler firing enqueues
every membership on the on-device worker queue (the device's row of the
plane's :class:`~repro.device.scheduler.ColumnScheduler`); exactly one
session runs at a time, and the check-in announces the session's
population so the Selector can route it.

The actor is not a home of its tenancy.  Its memberships are its row of
the plane's membership columns (``memberships`` is a read-only view) and
its trainers are its tenants' (a session asks ``trainer_of(name)``, which
a fleet resolves in the tenant's ``PopulationRuntime``): a tenant
attaching to or draining from a live fleet writes columns and never
visits a device.  Nor is it a home of its record: what it tallies
(:class:`DeviceHealthStats`) and its eligibility are columns of its row,
which ``health`` / ``eligible`` / ``state`` read.  What the object owns
is its session — the round it is in, its timers — and, between sessions,
its two stale-event guards (``_generation``, ``_wait_epoch``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.actors.kernel import Actor, ActorRef
from repro.actors import messages as msg
from repro.analytics.events import DeviceEvent, EventLog
from repro.device.runtime import ComputeModel, LocalTrainer, TrainResult
from repro.device.scheduler import JobSchedule
from repro.sim.rng import standalone_stream
from repro.sim.network import NetworkConditions, NetworkModel, TransferDirection
from repro.sim.population import DeviceProfile


class DeviceState(enum.Enum):
    SLEEPING = "sleeping"          # ineligible
    IDLE = "idle"                  # eligible, between check-ins
    WAITING = "waiting"            # connected to a Selector, not selected
    PARTICIPATING = "participating"  # configured; downloading/training/uploading


@dataclass(frozen=True)
class DeviceHealthStats:
    """PII-free health counters logged to the cloud (Sec. 5).

    "the device state in which training was activated, how often and how
    long it ran, [...] which errors where detected, which phone model /
    OS / FL runtime version was used" — aggregated by
    :meth:`repro.system.FLFleet.health_report`.  The value ``device.health``
    builds on read from the columns of the device's idle-plane row
    (errors are tallied fleet-wide, by reason).
    """

    checkins: int = 0
    sessions_started: int = 0
    train_seconds: float = 0.0
    #: Bounded-retry recovery on the upload path: transient failures that
    #: were retried, and sessions dropped after the retry budget ran out.
    upload_retries: int = 0
    upload_retries_exhausted: int = 0
    #: Sessions started per FL population this device belongs to — the
    #: multi-tenant interleaving record (Sec. 11 "Device Scheduling").
    sessions_by_population: dict[str, int] = field(default_factory=dict)


class DeviceActor(Actor):
    """One phone in the fleet, member of one or more FL populations."""

    # Constructed by the thousand inside a run (each at its first admitted
    # check-in): no instance dict, one slot per field.
    __slots__ = (
        "profile", "network", "conditions", "trainer_of", "compute",
        "event_log", "_rng", "job",
        "compute_error_prob", "ack_timeout_s",
        "waiting_timeout_s", "upload_retry", "plane", "row", "scheduler",
        "_active_population", "_selector", "_round_id",
        "_aggregator", "_generation", "_waiting_timeout_event",
        "_ack_timeout_event", "_last_checkin_t", "_wait_epoch",
    )

    def __init__(
        self,
        profile: DeviceProfile,
        network: NetworkModel,
        conditions: NetworkConditions,
        trainer_of: Callable[[str], LocalTrainer],
        compute: ComputeModel | None = None,
        event_log: EventLog | None = None,
        rng: np.random.Generator | Callable[[], np.random.Generator] | None = None,
        job: JobSchedule | None = None,
        compute_error_prob: float = 0.005,
        ack_timeout_s: float = 60.0,
        waiting_timeout_s: float = 1800.0,
        upload_retry: Any = None,  # faults.RetryPolicy; None = legacy no-retry
        plane: Any = None,  # sim.idle_plane.VectorizedIdlePlane
        row: int = -1,
        scheduler: Any = None,  # device.scheduler.RowScheduler
    ):
        self.profile = profile
        self.network = network
        self.conditions = conditions
        #: Tenant name -> this device's trainer for it, asked when a
        #: session trains: the tenant's runtime holds it (a fleet hands in
        #: the lifecycle plane's lookup, a hand-built device a dict's
        #: ``__getitem__``).
        self.trainer_of = trainer_of
        self.compute = compute or ComputeModel()
        self.event_log = event_log if event_log is not None else EventLog()
        #: A generator, or a source of one that :attr:`rng` calls at the
        #: first draw (a plane-owned device draws nothing of its own until
        #: its first session).
        self._rng = rng if rng is not None else standalone_stream(0)
        self.job = job or JobSchedule()
        self.compute_error_prob = compute_error_prob
        self.ack_timeout_s = ack_timeout_s
        self.waiting_timeout_s = waiting_timeout_s
        self.upload_retry = upload_retry

        #: The idle plane and this device's row of it — the home of its
        #: idle life, its eligibility and everything it tallies — and that
        #: row's view of the on-device worker queue (memberships
        #: included): handed in by the fleet's device table, or set by
        #: ``VectorizedIdlePlane.adopt`` on a hand-built device.
        self.plane = plane
        self.row = row
        self.scheduler = scheduler
        self._active_population: str | None = None
        self._selector: ActorRef | None = None
        self._round_id: int | None = None
        self._aggregator: ActorRef | None = None
        self._generation = 0
        #: Stale-guard timers: cancelled eagerly when their session ends so
        #: they are reclaimed by the event loop's compaction instead of
        #: surviving on the heap until their (guarded no-op) fire time.
        self._waiting_timeout_event = None
        self._ack_timeout_event = None
        self._last_checkin_t: float | None = None
        self._wait_epoch = 0

    # -- helpers -----------------------------------------------------------------
    @property
    def device_id(self) -> int:
        return self.profile.device_id

    @property
    def rng(self) -> np.random.Generator:
        """This device's pinned stream (session draws: transfers, training,
        job jitter), created on first use."""
        rng = self._rng
        if not isinstance(rng, np.random.Generator):
            rng = self._rng = rng()
        return rng

    @property
    def memberships(self) -> tuple[str, ...]:
        """The FL populations this device belongs to, in attach order: a
        read-only view of its row of the plane's membership columns."""
        return self.scheduler.memberships

    @property
    def eligible(self) -> bool:
        """Idle, charging and unmetered right now: the row's column."""
        return bool(self.plane.eligible[self.row])

    @property
    def state(self) -> DeviceState:
        """Inside a session, its phase; outside one, the row's
        eligibility — read where each lives, so never stale."""
        if self._aggregator is not None:
            return DeviceState.PARTICIPATING
        if self._active_population is not None:
            return DeviceState.WAITING
        return DeviceState.IDLE if self.eligible else DeviceState.SLEEPING

    @property
    def health(self) -> DeviceHealthStats:
        """This device's health record, built from its row's columns."""
        return self.plane.health(self.row)

    def _log(self, event: DeviceEvent, **attrs: object) -> None:
        self.event_log.log(
            self.now, self.device_id, self._round_id or 0, event, **attrs
        )

    def _transfer(self, nbytes: int, direction: TransferDirection) -> tuple[float, bool]:
        return self.network.transfer(self.conditions, nbytes, direction, self.rng)

    def _cancel_waiting_timer(self) -> None:
        if self._waiting_timeout_event is not None:
            self._waiting_timeout_event.cancel()
            self._waiting_timeout_event = None

    def _cancel_ack_timer(self) -> None:
        if self._ack_timeout_event is not None:
            self._ack_timeout_event.cancel()
            self._ack_timeout_event = None

    # -- lifecycle ------------------------------------------------------------
    def on_start(self) -> None:
        if self.plane is None:
            raise RuntimeError(
                f"device {self.device_id} was spawned without an idle plane "
                "row: enroll a hand-built device with "
                "VectorizedIdlePlane.adopt(device, memberships) before spawning it"
            )
        self.plane.start()

    def on_eligibility_lost(self) -> None:
        """Eligibility vanished (the plane's callback): interrupt any
        session.

        The plane has already flipped the row and owns the idle-side
        rescheduling; this handles only the active-session teardown
        (Sec. 3's abort semantics).
        """
        if self.state is DeviceState.WAITING:
            self._leave_waiting(disconnect=True)
            # The interrupted job reschedules at its normal cadence, not
            # at the next eligibility window.
            self.plane.set_pending_window(
                self.row, self.now + self.job.next_delay(self.rng)
            )
        elif self.state is DeviceState.PARTICIPATING:
            # Sec. 3: the runtime aborts when conditions are no longer met.
            self._abort_participation("eligibility_change")
            self._hand_back()

    def _abort_participation(self, reason: str) -> None:
        """The PARTICIPATING-session abort core, shared by eligibility
        loss and server-driven interrupts: log, notify the round's
        aggregator, and invalidate in-flight work."""
        self._log(DeviceEvent.INTERRUPTED, reason=reason)
        self._tell_dropped(reason)
        self._end_participation()

    def _tell_dropped(self, reason: str) -> None:
        """Tell the round's aggregator this PARTICIPATING device is out
        (``state`` is PARTICIPATING exactly while ``_aggregator`` is set)."""
        self.tell(
            self._aggregator,
            msg.DeviceDropped(
                device_id=self.device_id, round_id=self._round_id, reason=reason
            ),
        )

    def interrupt_session(self, reason: str) -> None:
        """Server-driven session teardown (tenant drain past its deadline):
        the same abort semantics as eligibility loss, except the device
        keeps its eligibility and resumes its normal idle cadence."""
        if self.state is DeviceState.WAITING:
            self._leave_waiting(disconnect=True, back_in=self._next_job_delay)
        elif self.state is DeviceState.PARTICIPATING:
            self._abort_participation(reason)
            self._hand_back(self._next_job_delay)

    # -- session teardown --------------------------------------------------------
    def _leave_waiting(
        self, disconnect: bool, back_in: Callable[[], float] | None = None
    ) -> None:
        """Every way out of WAITING but selection: hang up (``disconnect``:
        the Selector's end is still up and has not hung up itself), free
        the on-device worker queue (a stuck session would block every
        tenant forever) and hand the row back."""
        self._cancel_waiting_timer()
        if disconnect:
            self.tell(
                self._selector,
                msg.DeviceDisconnect(
                    self.device_id, population_name=self._active_population
                ),
            )
        self.scheduler.abort()
        self._active_population = None
        self._selector = None
        self._hand_back(back_in)

    def _hand_back(self, back_in: Callable[[], float] | None = None) -> None:
        """The session is over: the plane owns the row again and, if the
        device is still eligible, books its next check-in ``back_in()``
        seconds out (drawn only then)."""
        self.plane.session_ended(self.row)
        if back_in is not None and self.eligible:
            self.plane.schedule_checkin(self.row, back_in())

    def _next_job_delay(self) -> float:
        if self.scheduler.queue_depth > 0:
            # A queued tenant is waiting its turn on the worker queue:
            # check in again promptly for it rather than sleeping a full
            # job interval (cross-population interleaving, Sec. 11).
            return 1.0
        return self.job.next_delay(self.rng)

    # -- check-in ------------------------------------------------------------
    def _materialize_checkin(self, started: str) -> None:
        """Open the real device stream: timers, messages."""
        self.plane.session_started(self.row)
        self._wait_epoch += 1
        # A real check-in stream does not stay open forever: if no round
        # wants this device within the timeout, hang up and retry on the
        # normal job cadence.
        self._waiting_timeout_event = self.schedule(
            self.waiting_timeout_s, self._on_waiting_timeout, self._wait_epoch
        )
        self._round_id = None
        # The round id is unknown until selection; the check-in event is
        # logged retroactively (at its true time) once configured, so
        # Table 1 sessions are keyed by the round they belong to.
        self._last_checkin_t = self.now
        self.tell(
            self._selector,
            msg.DeviceCheckin(
                device_id=self.device_id,
                population_name=started,
                runtime_version=self.profile.runtime_version,
                device_ref=self.ref,
            ),
            delay=self.conditions.rtt_s,
        )

    def _attempt_screened_checkin(self, started: str, selector: ActorRef) -> None:
        """The device half of a check-in the idle plane's screen
        admitted.  The plane has already run the worker queue (``started``
        is the session it picked), resolved ``selector`` from the row's
        pick draw and had it reserve a pool slot; a bounced row never
        gets here — its rejection is array writes inside the plane.
        """
        self._active_population = started
        self._selector = selector
        self._materialize_checkin(started)

    def _on_waiting_timeout(self, wait_epoch: int) -> None:
        self._waiting_timeout_event = None
        if self.state is not DeviceState.WAITING or wait_epoch != self._wait_epoch:
            return
        self._leave_waiting(
            disconnect=True, back_in=lambda: self.job.next_delay(self.rng)
        )

    # -- message handling ------------------------------------------------------
    def receive(self, sender: Optional[ActorRef], message: Any) -> None:
        if isinstance(message, msg.CheckinRejected):
            self._on_rejected(message)
        elif isinstance(message, msg.ConfigureDevice):
            self._on_configure(message)
        elif isinstance(message, msg.ReportAck):
            self._on_report_ack(message)
        elif isinstance(message, msg.ConnectionReset):
            self._on_connection_reset()

    def _on_connection_reset(self) -> None:
        """The selector's end of the stream died; retry another one."""
        if self.state is not DeviceState.WAITING:
            return
        self._leave_waiting(
            disconnect=False, back_in=lambda: self.rng.uniform(30.0, 180.0)
        )

    def _on_rejected(self, rejected: msg.CheckinRejected) -> None:
        if self.state is not DeviceState.WAITING:
            return
        # Pace steering: "The device attempts to respect this, modulo its
        # eligibility."
        # The window gates the whole device, not just the rejected tenant:
        # pace steering is the server's overload valve, and a multi-tenant
        # device hammering back for its other population would defeat it.
        reconnect_at = rejected.window.sample(self.rng)
        self.plane.set_pending_window(self.row, reconnect_at)
        self._leave_waiting(
            disconnect=False, back_in=lambda: max(reconnect_at - self.now, 1.0)
        )

    # -- participation pipeline ----------------------------------------------------
    def _on_configure(self, configure: msg.ConfigureDevice) -> None:
        if self.state is not DeviceState.WAITING or not self.eligible:
            self.tell(
                configure.aggregator,
                msg.DeviceDropped(
                    device_id=self.device_id,
                    round_id=configure.round_id,
                    reason="gone_before_configuration",
                ),
            )
            return
        self._cancel_waiting_timer()
        self.plane.scheduler.count_session(self.row, self._active_population)
        self._round_id = configure.round_id
        self._aggregator = configure.aggregator  # PARTICIPATING from here
        self.event_log.log(
            self._last_checkin_t, self.device_id, configure.round_id, DeviceEvent.CHECKIN
        )
        generation = self._generation
        nbytes = configure.plan.nbytes + configure.checkpoint.nbytes
        duration, ok = self._transfer(nbytes, TransferDirection.DOWNLOAD)
        self.schedule(duration, self._on_downloaded, generation, ok, configure)

    def _guard(self, generation: int) -> bool:
        # Same session, still PARTICIPATING.
        return generation == self._generation and self._aggregator is not None

    def _on_downloaded(
        self, generation: int, ok: bool, configure: msg.ConfigureDevice
    ) -> None:
        if not self._guard(generation):
            return
        if not ok:
            self._log(DeviceEvent.ERROR, reason="download_failed")
            self._drop("network_download")
            return
        self._log(DeviceEvent.DOWNLOADED_PLAN)
        self._log(DeviceEvent.TRAIN_STARTED)
        trainer = self.trainer_of(self._active_population)
        result: TrainResult | None = None
        try:
            # Cohort execution plane: a deferral-capable trainer enqueues
            # the workload (store query + RNG draws happen now; the numbers
            # at the round's fold, if this report is accepted) and falls
            # back to inline training when deferral doesn't apply.
            defer = getattr(trainer, "defer", None)
            if defer is not None:
                result = defer(
                    configure.plan, configure.checkpoint, self.now, self.rng
                )
            if result is None:
                result = trainer.train(
                    configure.plan, configure.checkpoint, self.now, self.rng
                )
        except Exception:
            # Sec. 5's "model issue" shape: error right after load (-v[*).
            self._log(DeviceEvent.ERROR, reason="plan_execution_failed")
            self._drop("compute_error")
            return
        train_time = self.compute.train_time_s(
            result.train_compute_units, self.profile.speed_factor
        )
        self.plane.train_seconds[self.row] += train_time
        if self.rng.random() < self.compute_error_prob:
            self.schedule(
                float(self.rng.uniform(0.0, train_time)),
                self._on_train_error,
                generation,
            )
            return
        self.schedule(train_time, self._on_trained, generation, result)

    def _on_train_error(self, generation: int) -> None:
        if not self._guard(generation):
            return
        self._log(DeviceEvent.ERROR, reason="compute_error")
        self._drop("compute_error")

    def _on_trained(self, generation: int, result: TrainResult) -> None:
        if not self._guard(generation):
            return
        self._log(DeviceEvent.TRAIN_COMPLETED)
        self._log(DeviceEvent.UPLOAD_STARTED)
        self._begin_upload(generation, result, 0)

    def _begin_upload(
        self, generation: int, result: TrainResult, attempt: int
    ) -> None:
        """One upload attempt; retried under ``upload_retry`` on failure."""
        duration, ok = self._transfer(result.upload_nbytes, TransferDirection.UPLOAD)
        if ok:
            self.schedule(duration, self._on_uploaded, generation, result)
        else:
            self.schedule(duration, self._on_upload_failed, generation, result, attempt)

    def _on_upload_failed(
        self, generation: int, result: TrainResult | None = None, attempt: int = 0
    ) -> None:
        if not self._guard(generation):
            return
        policy = self.upload_retry
        if policy is not None and result is not None and attempt < policy.max_retries:
            # Transient: back off (jittered, from this device's own
            # stream) and re-send the same payload.
            self._log(DeviceEvent.ERROR, reason="upload_transient", attempt=attempt + 1)
            self.plane.upload_retries[self.row] += 1
            self.network.meter.record_retry(result.upload_nbytes)
            backoff = policy.backoff_s(attempt, self.rng)
            self.schedule(backoff, self._begin_upload, generation, result, attempt + 1)
            return
        if policy is not None:
            self.plane.upload_retries_exhausted[self.row] += 1
            self._log(DeviceEvent.ERROR, reason="upload_exhausted")
        else:
            self._log(DeviceEvent.ERROR, reason="upload_failed")
        self._drop("network_upload")

    def _on_uploaded(self, generation: int, result: TrainResult) -> None:
        if not self._guard(generation):
            return
        assert self._round_id is not None
        self.tell(
            self._aggregator,
            msg.DeviceReport(
                device_id=self.device_id,
                round_id=self._round_id,
                delta_vector=result.delta_vector,
                weight=result.weight,
                num_examples=result.num_examples,
                train_metrics=result.metrics,
                upload_nbytes=result.upload_nbytes,
                deferred=result.deferred,
            ),
        )
        # If the server never answers (round torn down), treat as rejected.
        self._ack_timeout_event = self.schedule(
            self.ack_timeout_s, self._on_ack_timeout, self._generation
        )

    def _on_report_ack(self, ack: msg.ReportAck) -> None:
        if self.state is not DeviceState.PARTICIPATING or ack.round_id != self._round_id:
            return
        self._log(DeviceEvent.UPLOAD_COMPLETED if ack.accepted else DeviceEvent.UPLOAD_REJECTED)
        self._finish_participation()

    def _on_ack_timeout(self, generation: int) -> None:
        self._ack_timeout_event = None
        if not self._guard(generation):
            return
        self._log(DeviceEvent.UPLOAD_REJECTED, reason="ack_timeout")
        self._finish_participation()

    # -- participation teardown -----------------------------------------------------
    def _drop(self, reason: str) -> None:
        self.plane.errors_by_reason[reason] += 1
        self._tell_dropped(reason)
        self._finish_participation()

    def _end_participation(self) -> None:
        """Invalidate in-flight work (interruption path)."""
        self._generation += 1
        self._cancel_waiting_timer()
        self._cancel_ack_timer()
        if self.scheduler.running == self._active_population:
            self.scheduler.abort()
        self._active_population = None
        self._selector = None
        self._aggregator = None

    def _finish_participation(self) -> None:
        self._generation += 1
        self._cancel_waiting_timer()
        self._cancel_ack_timer()
        if (
            self._active_population is not None
            and self.scheduler.running == self._active_population
        ):
            self.scheduler.finish(self._active_population)
        self._active_population = None
        self._selector = None
        self._aggregator = None
        self._round_id = None
        self._hand_back(self._next_job_delay)
