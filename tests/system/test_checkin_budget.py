"""Check-in budget: a check-in must not visit its device.

A count, so it cannot flake: the same seed dispatches the same check-ins.
The paper's regime is a huge idle majority held back by Selector quotas
and pace steering — almost every check-in is told "come back later" — so
what it costs to say so must not grow a Python object visit per device.
On an idle-majority fleet over a simulated day, a sweep's check-in
dispatch makes no call into ``DeviceActor`` at all — bounced rows are
pace-steered and admitted ones WAIT as columns — while every attempt,
bounced or not, still lands on its device's health record; a device is
built only for a configuration a round sends it.
"""

import sys
import types

import numpy as np

from repro import FLFleet, RoundConfig, TaskConfig
from repro.actors.coordinator import CoordinatorConfig
from repro.core.pace import PaceConfig
from repro.device.actor import DeviceActor
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim import idle_plane
from repro.sim.population import PopulationConfig


def _device_actor_code() -> set[types.CodeType]:
    """Code objects of everything callable on a ``DeviceActor``, inherited
    methods and property getters included."""
    code = set()
    for cls in DeviceActor.__mro__:
        for value in vars(cls).values():
            for fn in (value, getattr(value, "fget", None), getattr(value, "fset", None)):
                if isinstance(fn, types.FunctionType):
                    code.add(fn.__code__)
    return code


def test_a_bounced_checkin_never_visits_its_device(monkeypatch):
    device_code = _device_actor_code()
    plane_file = idle_plane.__file__
    visits = []

    def profiler(frame, event, _arg):
        # A call into DeviceActor made *by the plane's own code* (what
        # the device then does inside that call is the session's cost).
        if (
            event == "call"
            and frame.f_code in device_code
            and frame.f_back.f_code.co_filename == plane_file
        ):
            visits.append(frame.f_code.co_name)

    dispatch = idle_plane.VectorizedIdlePlane._checkin_rows

    def profiled_dispatch(self, *args):
        sys.setprofile(profiler)
        try:
            return dispatch(self, *args)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(
        idle_plane.VectorizedIdlePlane, "_checkin_rows", profiled_dispatch
    )
    configured = []
    configure = DeviceActor._attempt_screened_checkin

    def recording(self, message):
        configured.append(self.device_id)
        configure(self, message)

    monkeypatch.setattr(DeviceActor, "_attempt_screened_checkin", recording)
    params = LogisticRegression(input_dim=4, n_classes=3).init(
        np.random.default_rng(0)
    )
    task = TaskConfig(
        task_id="train/pop",
        population_name="pop",
        round_config=RoundConfig(target_participants=10),
    )
    fleet = (
        FLFleet.builder()
        .seed(2019)
        .devices(PopulationConfig(num_devices=4000))
        .selectors(1)
        .coordinator(CoordinatorConfig(pipelining=False, inter_round_gap_s=2700.0))
        .pace(PaceConfig(
            round_period_s=2700.0,
            small_population_threshold=500,
            max_reconnect_delay_s=7200.0,
        ))
        .job(JobSchedule(3600.0, 0.5))
        .waiting_timeout(3600.0)
        .population("pop", tasks=[task], model=params)
        .build()
    )
    fleet.run_days(1.0)
    plane = fleet.idle_plane
    # The regime: rounds commit, and most check-ins are turned away.
    assert fleet.report().rounds_committed >= 10
    assert plane.checkins_fast_rejected > 4 * plane.materializations > 0
    assert plane.checkins_dispatched == (
        plane.checkins_fast_rejected + plane.materializations
    )
    assert visits == []
    assert fleet.devices.constructions == len(configured) > 0
    assert sum(d.health.checkins for d in fleet.devices) == (
        plane.checkins_fast_rejected + plane.materializations
    )
