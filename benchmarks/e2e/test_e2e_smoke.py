"""Tier-1 smoke for the `fleet-day` benchmark: every workload at
``--tiny`` scale (<= 200 devices, minutes of simulated time), untraced
and traced in one process, plus the contract between the code's metric
tables and ``BENCHMARK.json``.  Whole file: well under 15 s.

(``repro-lint`` over ``benchmarks/`` is already a tier-1 assertion in
``tests/tools/test_lint.py``; it is not repeated here.)
"""

from __future__ import annotations

import json
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
for _path in (str(REPO_ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import fleetday_measure as measure  # noqa: E402
import fleetday_trace as trace  # noqa: E402
from fleetday_workloads import BY_NAME, WORKLOADS  # noqa: E402

from repro.sim.event_loop import EventLoop  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Layers a workload must bypass *exactly* (its "why" says so).
_NUMERIC = ("core.fedavg", "nn.models", "nn.optimizers", "device.cohort")
MUST_BE_ZERO = {
    "idle_fleet_day": _NUMERIC + ("secagg",),
    "training_rounds": ("secagg",),
    "tenant_control_plane": _NUMERIC + ("secagg",),
    "secure_chaos_lifecycle": _NUMERIC,
}


def test_metric_tables_match_benchmark_json():
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == [w.name for w in WORKLOADS]
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in measure.END_TO_END
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in measure.PER_LAYER
    ]
    names = [w.name for w in WORKLOADS]
    names += [m.name for m in measure.END_TO_END + measure.PER_LAYER]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_tiny_workload_traced_and_untraced(name):
    original_schedule_at = EventLoop.schedule_at
    outcome, tracer = measure.run_traced(BY_NAME[name], seed=2019, seconds=10.0, tiny=True)

    # Digest equality across the two passes, the Sec. 4.2 write-count
    # law, one commit per tenant: all folded into the failure list.
    assert outcome.failures == []
    assert outcome.attempted == 2
    reference, traced = outcome.passes
    assert traced.digest == reference.digest
    assert traced.stats == reference.stats

    assert list(outcome.metrics) == [m.name for m in measure.PER_LAYER]
    assert tracer.absent == []
    values = {metric: value for metric, (value, _) in outcome.metrics.items()}
    assert all(value is not None for value in values.values())

    # Self times partition the window: layers (root included) sum to the
    # root span, and almost none of it is unattributed.
    layers = tracer.layers("window")
    root_total = tracer.total_s("window", trace.ROOT)
    assert sum(layers.values()) == pytest.approx(root_total, rel=0.01)
    assert values["trace.coverage"] >= 0.95

    for layer in MUST_BE_ZERO[name]:
        assert layers.get(layer, 0.0) == 0.0, layer
    assert values["sim.event_loop.events"] == traced.events_in_window
    assert values["core.checkpoint.commits"] == traced.rounds_in_window

    # The tracer put everything back.
    assert EventLoop.schedule_at is original_schedule_at
    assert trace._ACTIVE is None


def test_untraced_run_yields_the_end_to_end_metrics():
    outcome = measure.run_untraced(
        BY_NAME["secure_chaos_lifecycle"], seed=2019, seconds=10.0, tiny=True
    )
    assert outcome.failures == [] and outcome.attempted == 1
    (result,) = outcome.passes
    values = {name: value for name, (value, _) in outcome.metrics.items()}
    assert list(values) == [m.name for m in measure.END_TO_END]
    assert all(value > 0 for value in values.values())
    assert values["rounds_per_s"] == result.rounds_in_window / result.window_s
    # Lifecycle operations run inside the timed window.
    assert set(result.lifecycle) >= {"attach_s", "snapshot_s", "restore_s", "drain_s"}
    assert sum(
        result.lifecycle[f"{op}_s"] for op in ("attach", "snapshot", "restore", "drain")
    ) < result.window_s


def test_host_clock_scales_by_the_probe(monkeypatch):
    """A probe that runs twice as long as the reference means the box is
    at half speed: the work counts for half its host seconds."""
    monkeypatch.setattr(measure, "_speed_probe", lambda: time.sleep(0.02))
    monkeypatch.setattr(measure, "PROBE_REF_S", 0.01)
    clock = measure.HostClock()
    for _ in range(2):
        with clock.timed():
            time.sleep(0.03)
    assert clock.raw_s == pytest.approx(0.06, rel=0.3)
    assert clock.ref_s == pytest.approx(clock.raw_s / 2, rel=0.2)


def test_unresolvable_hook_is_absent_not_fatal():
    """A later PR may delete a traced function: the run must complete
    and say ``absent`` for the rows that hook fed."""
    gone = "repro.actors.selector:Selector.fast_checkin_decision"
    hooks = tuple(
        replace(hook, target=hook.target + "_was_deleted") if hook.target == gone
        else hook
        for hook in trace.HOOKS
    )
    outcome, tracer = measure.run_traced(
        BY_NAME["idle_fleet_day"], seed=2019, seconds=10.0, tiny=True, hooks=hooks
    )
    assert outcome.failures == []
    assert tracer.absent == [gone + "_was_deleted"]
    assert outcome.metrics["actors.selector.screens"][0] is None
    assert outcome.metrics["actors.selector.screen_s"][0] is None
    assert outcome.metrics["actors.selector.messages"][0] > 0
    # ``null`` in the result line, so the suite prints ``absent``: a 0
    # there would read as a layer that became free.
    line = json.loads(outcome.to_json())
    assert line["correct"] is True
    assert line["metrics"]["actors.selector.screens"]["value"] is None
    assert line["metrics"]["actors.selector.messages"]["value"] > 0
