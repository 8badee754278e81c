"""The simulated device: an actor driving the active participation lifecycle.

One :class:`DeviceActor` per phone in a session, for as long as the
session lasts.  It owns that session — plan download, local training,
update upload, and every Table 1 event along the way — from the
``ConfigureDevice`` that starts it to the hand-back that ends it.
Interruption semantics follow Sec. 3: "Once started, the FL runtime will
abort, freeing the allocated resources, if these conditions are no
longer met."

Everything else is the device's row of the :class:`~repro.sim.
idle_plane.VectorizedIdlePlane` — eligibility flips, the job schedule,
the pace-steering window, the on-device worker queue, the Selector pick,
the screen's verdict and WAITING at a Selector — and so is its tenancy
and its record: ``memberships``, ``health``, ``eligible`` and ``state``
read its row's columns, and a session asks ``trainer_of(name)`` for the
trainer its tenant's ``PopulationRuntime`` holds, so a tenant attaching
or draining writes columns and never visits a device.  A device may
belong to *several* FL populations (Sec. 2's multi-tenancy); exactly one
session runs at a time, and the check-in announces its population so
the Selector can route it.

A fleet builds a row's ``DeviceActor`` when a round takes the row and
drops it when the session is over (:mod:`repro.device.table`).  The
actor holds its ``plane`` and its ``row`` and calls the plane's per-row
entry points with them (``scheduler`` is that row of the worker queue).
What it owns is its session — the round it is in, its timers — and
nothing after it: a timer of a session that is over finds ``_aggregator``
``None``, and the row's next session has an object of its own.
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

#: Chance that a finished training pass ends in an on-device compute error
#: (Sec. 5's "model issue" shape) instead of an upload.
COMPUTE_ERROR_PROB = 0.005


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
    """One phone in the fleet, member of one or more FL populations, for
    the length of one session (its stream, ``rng``, is the row's: its
    position carries over to the row's next session)."""

    # Built by the ten thousand inside a run (one per session): no
    # instance dict, one slot per field.
    __slots__ = (
        "profile", "network", "_link", "trainer_of", "compute",
        "event_log", "_rng", "_stream", "job", "ack_timeout_s",
        "upload_retry", "plane", "row", "scheduler",
        "_active_population", "_round_id", "_aggregator", "_ack_timeout_event",
    )

    def __init__(
        self,
        profile: DeviceProfile,
        network: NetworkModel,
        conditions: NetworkConditions | None,
        trainer_of: Callable[[str], LocalTrainer],
        compute: ComputeModel | None = None,
        event_log: EventLog | None = None,
        rng: np.random.Generator | Callable[[], np.random.Generator] | None = None,
        job: JobSchedule | None = None,
        ack_timeout_s: float = 60.0,
        upload_retry: Any = None,  # faults.RetryPolicy; None = legacy no-retry
        plane: Any = None,  # sim.idle_plane.VectorizedIdlePlane
        row: int = -1,
        scheduler: Any = None,  # device.scheduler.RowScheduler
    ):
        self.profile = profile
        self.network = network
        #: A hand-built device's link (``adopt`` copies it into its row); a
        #: fleet's device reads its row's link columns once, when first used.
        self._link = conditions
        #: Tenant name -> this device's trainer for it, which the tenant's
        #: runtime holds (a fleet hands in the lifecycle plane's lookup).
        self.trainer_of = trainer_of
        self.compute = compute or ComputeModel()
        self.event_log = event_log if event_log is not None else EventLog()
        #: A generator, or a source of one that :attr:`rng` asks at a
        #: session's first draw (a device that turns its configuration
        #: away draws nothing); ``_stream`` is the answer, for the session.
        self._rng = rng if rng is not None else self._standalone_stream
        self._stream: np.random.Generator | None = None
        self.job = job or JobSchedule()
        self.ack_timeout_s = ack_timeout_s
        self.upload_retry = upload_retry

        #: The idle plane, this device's row of it (its idle life and its
        #: record) and that row's view of the worker queue: the fleet's,
        #: or set on a hand-built device by the test that enrolls it.
        self.plane = plane
        self.row = row
        self.scheduler = scheduler
        self._active_population: str | None = None
        self._round_id: int | None = None
        self._aggregator: ActorRef | None = None
        #: Cancelled when its session ends (else it fires, as a no-op).
        self._ack_timeout_event = None

    # -- helpers -----------------------------------------------------------------
    @property
    def device_id(self) -> int:
        return self.profile.device_id

    @property
    def rng(self) -> np.random.Generator:
        """This device's pinned stream (session draws: transfers, training,
        job jitter); a fleet device's is its row's, which outlives it."""
        stream = self._stream
        if stream is None:
            rng = self._rng
            stream = self._stream = rng if isinstance(rng, np.random.Generator) else rng()
        return stream

    def _standalone_stream(self) -> np.random.Generator:
        """The stream of a device built without one, made at its first draw."""
        self._rng = standalone_stream(0)
        return self._rng

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any):
        """A device's timer runs only while its session lasts (its object
        may have gone by then: a timer left behind is a no-op)."""
        loop = self.loop
        return loop.schedule_at(loop.now + delay, self._in_session, fn, *args)

    def _in_session(self, fn: Callable[..., Any], *args: Any) -> None:
        if self._aggregator is not None:
            fn(*args)

    @property
    def conditions(self) -> NetworkConditions:
        """This device's link: its row's link columns, read once."""
        if self._link is None:
            self._link = self.plane.conditions(self.row)
        return self._link

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
        """The row's state: its columns say it all."""
        return self.plane.state(self.row)

    @property
    def health(self) -> DeviceHealthStats:
        """This device's health record, built from its row's columns."""
        return self.plane.health(self.row)

    def _log(self, event: DeviceEvent, **attrs: object) -> None:
        self.event_log.log(
            self.loop.now, self.profile.device_id, self._round_id or 0, event,
            **attrs,
        )

    def _transfer(self, nbytes: int, direction: TransferDirection) -> tuple[float, bool]:
        return self.network.transfer(self.conditions, nbytes, direction, self.rng)

    def _cancel_ack_timer(self) -> None:
        if self._ack_timeout_event is not None:
            self._ack_timeout_event.cancel()
            self._ack_timeout_event = None

    # -- lifecycle ------------------------------------------------------------
    def on_start(self) -> None:
        if self.plane is None:
            raise RuntimeError(
                f"device {self.device_id} was spawned without an idle plane "
                "row: enroll a hand-built device in a plane (device.plane, "
                "device.row, device.scheduler) before spawning it"
            )
        self.plane.start()

    def on_eligibility_lost(self) -> None:
        """Eligibility vanished mid-session (the plane's callback): Sec. 3's
        abort.  The plane has already flipped the row and owns the
        idle-side rescheduling."""
        self._abort_participation("eligibility_change", None)

    def _abort_participation(
        self, reason: str, back_in: Callable[[], float] | None
    ) -> None:
        """The PARTICIPATING-session abort core, shared by eligibility
        loss and server-driven interrupts: log, notify the round's
        aggregator, and end the session with its worker aborted."""
        self._log(DeviceEvent.INTERRUPTED, reason=reason)
        self._tell_dropped(reason)
        self._end_session(False, back_in)

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
        """Server-driven session teardown (a fault, a tenant drain past its
        deadline): the same abort semantics as eligibility loss, except the
        device keeps its eligibility and resumes its normal idle cadence."""
        self._abort_participation(reason, self._next_job_delay)

    def _next_job_delay(self) -> float:
        if self.scheduler.queue_depth > 0:
            # A queued tenant is waiting its turn on the worker queue:
            # check in again promptly for it rather than sleeping a full
            # job interval (cross-population interleaving, Sec. 11).
            return 1.0
        return self.job.next_delay(self.rng)

    # -- message handling ------------------------------------------------------
    def receive(self, sender: Optional[ActorRef], message: Any) -> None:
        if isinstance(message, msg.ConfigureDevice):
            self._attempt_screened_checkin(message)
        elif isinstance(message, msg.ReportAck):
            self._on_report_ack(message)

    # -- participation pipeline ----------------------------------------------------
    def _attempt_screened_checkin(self, configure: msg.ConfigureDevice) -> None:
        """The device's entry: a round took its row — pooled at a Selector
        since the screen admitted its check-in — and its configuration
        arrived.  If the row still waits for it, the session starts
        (PARTICIPATING) and logs its check-in at its true time; a row that
        hung up meanwhile is gone before configuration (and, unless in a
        session, so is this object)."""
        started = self.plane.begin_session(self.row)
        if started is None:
            self.tell(
                configure.aggregator,
                msg.DeviceDropped(
                    device_id=self.device_id,
                    round_id=configure.round_id,
                    reason="gone_before_configuration",
                ),
            )
            return
        self.plane.scheduler.count_session(self.row, started)
        self._active_population = started
        self._round_id = configure.round_id
        self._aggregator = configure.aggregator  # PARTICIPATING from here
        self.event_log.log(
            self.plane.connected_at_s.item(self.row),
            self.profile.device_id,
            configure.round_id,
            DeviceEvent.CHECKIN,
        )
        nbytes = configure.plan.nbytes + configure.checkpoint.nbytes
        duration, ok = self._transfer(nbytes, TransferDirection.DOWNLOAD)
        self.schedule(duration, self._on_downloaded, ok, configure)

    def _on_downloaded(self, ok: bool, configure: msg.ConfigureDevice) -> None:
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
        if self.rng.random() < COMPUTE_ERROR_PROB:
            self.schedule(
                float(self.rng.uniform(0.0, train_time)), self._on_train_error
            )
            return
        self.schedule(train_time, self._on_trained, result)

    def _on_train_error(self) -> None:
        self._log(DeviceEvent.ERROR, reason="compute_error")
        self._drop("compute_error")

    def _on_trained(self, result: TrainResult) -> None:
        self._log(DeviceEvent.TRAIN_COMPLETED)
        self._log(DeviceEvent.UPLOAD_STARTED)
        self._begin_upload(result, 0)

    def _begin_upload(self, result: TrainResult, attempt: int) -> None:
        """One upload attempt; retried under ``upload_retry`` on failure."""
        duration, ok = self._transfer(result.upload_nbytes, TransferDirection.UPLOAD)
        if ok:
            self.schedule(duration, self._on_uploaded, result)
        else:
            self.schedule(duration, self._on_upload_failed, result, attempt)

    def _on_upload_failed(self, result: TrainResult | None = None, attempt: int = 0) -> None:
        policy = self.upload_retry
        if policy is not None and result is not None and attempt < policy.max_retries:
            # Transient: back off (jittered, from this device's own
            # stream) and re-send the same payload.
            self._log(DeviceEvent.ERROR, reason="upload_transient", attempt=attempt + 1)
            self.plane.upload_retries[self.row] += 1
            self.network.meter.record_retry(result.upload_nbytes)
            backoff = policy.backoff_s(attempt, self.rng)
            # Not a session timer: a retry whose session ends during its
            # backoff still sends, metered, on the row's stream.
            self.loop.schedule(backoff, self._begin_upload, result, attempt + 1)
            return
        if policy is not None:
            self.plane.upload_retries_exhausted[self.row] += 1
            self._log(DeviceEvent.ERROR, reason="upload_exhausted")
        else:
            self._log(DeviceEvent.ERROR, reason="upload_failed")
        self._drop("network_upload")

    def _on_uploaded(self, result: TrainResult) -> None:
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
        self._ack_timeout_event = self.schedule(self.ack_timeout_s, self._on_ack_timeout)

    def _on_report_ack(self, ack: msg.ReportAck) -> None:
        if self._aggregator is None or ack.round_id != self._round_id:
            return
        self._log(DeviceEvent.UPLOAD_COMPLETED if ack.accepted else DeviceEvent.UPLOAD_REJECTED)
        self._end_session(True, self._next_job_delay)

    def _on_ack_timeout(self) -> None:
        self._ack_timeout_event = None
        self._log(DeviceEvent.UPLOAD_REJECTED, reason="ack_timeout")
        self._end_session(True, self._next_job_delay)

    # -- participation teardown -----------------------------------------------------
    def _drop(self, reason: str) -> None:
        self.plane.errors_by_reason[reason] += 1
        self._tell_dropped(reason)
        self._end_session(True, self._next_job_delay)

    def _end_session(self, finished: bool, back_in: Callable[[], float] | None) -> None:
        """The session is over: in-flight work is void, the worker's
        session ``finished`` or aborted, and the row handed back to the
        plane (:meth:`~repro.sim.idle_plane.VectorizedIdlePlane.
        session_ended`), which drops this object."""
        self._cancel_ack_timer()
        scheduler, population = self.scheduler, self._active_population
        if scheduler.running == population:
            if finished:
                scheduler.finish(population)
            else:
                scheduler.abort()
        self._aggregator = None
        self.plane.session_ended(self.row, back_in)
        self._stream = None  # a retry left behind asks for the row's again
