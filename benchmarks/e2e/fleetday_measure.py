"""One `fleet-day` pass: build, warm, timed window, report, checks.

:func:`run_pass` executes one workload once and returns what was
measured (:class:`PassResult`).  An untraced run is one pass in a fresh
process (:func:`run_untraced`); repeats are the caller's — the suite in
``run.py`` makes N of them and reports median and quartiles.
:func:`run_traced` runs an untraced reference pass and a traced pass
back to back in one process, checks that tracing changed no report
byte, and yields the per-layer table.

Host time is what is measured; every simulated statistic must repeat
exactly for a (workload, seed, window), which the digest checks.  Host
time is read through :class:`HostClock`, in *reference seconds*.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import heapq
import json
import resource
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fleetday_trace import HOOKS, ROOT, Hook, Tracer
from fleetday_workloads import Workload

REPO_ROOT = Path(__file__).resolve().parents[2]
#: Scratch for snapshots and ``trace-*.json`` (git-ignored, inside the
#: checkout: the benchmark writes nowhere else).
OUT_DIR = REPO_ROOT / ".bench_out" / "fleet-day"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Tenants whose numeric layers get their own rows (``training_rounds``).
SPLIT_TENANTS = ("ranker", "keyboard")

#: Host seconds one :func:`_speed_probe` takes on the reference box while
#: nothing disturbs it.
PROBE_REF_S = 0.0090
#: Slices the window is timed in, per requested second of window.
SLICES_PER_SECOND = 4
#: Fleet builds a run times besides the one its window runs on.
EXTRA_BUILDS = 2


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median an end-to-end metric may worsen by.
    bound: float | None = None


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("sim_days_per_s", "1/s", "higher", 0.15),
    Metric("rounds_per_s", "1/s", "higher", 0.15),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)


def _layer_rows() -> tuple[Metric, ...]:
    def rows(layer: str, *specs: tuple[str, str, str]) -> list[Metric]:
        return [Metric(f"{layer}.{n}", unit, better) for n, unit, better in specs]

    s, c = ("self_s", "s", "lower"), "count"
    out: list[Metric] = []
    out += rows("sim.event_loop", ("events", c, "lower"), s,
                ("events_per_s", "1/s", "higher"))
    out += rows("actors.kernel", ("messages", c, "lower"), s)
    out += rows("sim.idle_plane", ("sweeps", c, "lower"), ("flips", c, "lower"),
                ("checkins", c, "lower"), ("fast_rejected", c, "lower"),
                ("materializations", c, "higher"),
                ("admit_ratio", "ratio", "higher"), s)
    out += rows("sim.diurnal", ("samples", c, "lower"), s)
    out += rows("sim.rng", ("stream_calls", c, "lower"), s)
    out += rows("sim.network", ("transfers", c, "lower"), s)
    out += rows("sim.population", ("build_s", "s", "lower"))
    out += rows("actors.selector", ("screens", c, "lower"),
                ("screen_s", "s", "lower"), ("messages", c, "lower"), s,
                ("accept_ratio", "ratio", "higher"))
    out += rows("device.actor", ("messages", c, "lower"),
                ("sessions", c, "higher"), s)
    out += rows("device.runtime", ("defers", c, "higher"), s)
    out += rows("device.example_store", ("queries", c, "lower"), s)
    out += rows("device.cohort", ("executions", c, "lower"),
                ("clients", c, "higher"), s)
    for layer, work in (("core.fedavg", "cohort_updates"),
                        ("nn.models", "grad_calls"),
                        ("nn.optimizers", "steps"),
                        ("nn.parameters", "folds")):
        out += rows(layer, (work, c, "lower"), s)
        for tenant in SPLIT_TENANTS:
            out += rows(layer, (f"{work}.{tenant}", c, "lower"),
                        (f"self_s.{tenant}", "s", "lower"))
    out += rows("actors.coordinator", ("messages", c, "lower"), s)
    out += rows("actors.master_aggregator", ("messages", c, "lower"), s)
    out += rows("actors.aggregator", ("reports", c, "higher"), s,
                ("flushes", c, "lower"), ("flush_s", "s", "lower"),
                ("shard_flushes", c, "lower"))
    out += rows("core.checkpoint", ("commits", c, "higher"),
                ("failed_writes", c, "lower"), s)
    out += rows("secagg", ("rounds", c, "higher"), ("below_threshold", c, "lower"),
                s, ("key_agreement_s", "s", "lower"), ("masking_s", "s", "lower"),
                ("recovery_s", "s", "lower"))
    out += rows("system.lifecycle", ("attach_s", "s", "lower"),
                ("drain_s", "s", "lower"), ("snapshot_s", "s", "lower"),
                ("restore_s", "s", "lower"), ("snapshot_mb", "MB", "lower"))
    out += rows("system.faults", ("injected", c, "higher"),
                ("recoveries", c, "higher"), s)
    out += rows("system.fleet", ("build_s", "s", "lower"),
                ("warmup_s", "s", "lower"), ("telemetry_s", "s", "lower"),
                ("report_s", "s", "lower"))
    out += rows("analytics", ("updates", c, "lower"), s)
    out += rows("trace", ("coverage", "ratio", "higher"),
                ("overhead_pct", "%", "lower"))
    return tuple(out)


PER_LAYER: tuple[Metric, ...] = _layer_rows()

#: Spans a row is read from; a row whose span no hook feeds is ``absent``.
_SPAN_OF_ROW = {
    "actors.selector.screens": "actors.selector/screen",
    "actors.selector.screen_s": "actors.selector/screen",
    "actors.selector.accept_ratio": "actors.selector/screen",
    "device.runtime.defers": "device.runtime/defer",
    "actors.aggregator.flushes": "actors.aggregator/flush",
    "actors.aggregator.flush_s": "actors.aggregator/flush",
    "actors.aggregator.shard_flushes": "actors.aggregator/shard_flush",
}


@dataclass
class PassResult:
    """What one pass over a workload measured."""

    digest: str
    stats: dict[str, int]
    failures: list[str]
    #: Reference seconds (see :class:`HostClock`) of the build and of the
    #: timed window, lifecycle operations included — and the host seconds
    #: they were scaled from.
    build_s: float
    window_s: float
    build_raw_s: float
    window_raw_s: float
    #: Host seconds of the untimed phases.
    warm_s: float
    report_s: float
    sim_s: float
    rounds_in_window: int
    events_in_window: int
    peak_rss_mb: float
    lifecycle: dict[str, float] = field(default_factory=dict)
    plane: dict[str, int | None] = field(default_factory=dict)
    first_committed: dict[str, int] = field(default_factory=dict)
    #: The run's recovery ledger (whole run): injected crashes per actor
    #: kind, and crash-to-commit recoveries.
    faults_by_kind: dict[str, int] = field(default_factory=dict)
    recoveries: int = 0


_PLANE_COUNTERS = (
    "sweeps", "flips", "checkins_dispatched", "checkins_fast_rejected",
    "materializations",
)


def _plane_counters(fleet) -> dict[str, int | None]:
    plane = getattr(fleet, "idle_plane", None)
    return {name: getattr(plane, name, None) for name in _PLANE_COUNTERS}


# -- host speed --------------------------------------------------------------------
_PROBE_MATRIX = np.random.default_rng(0).normal(size=(160, 160))
_PROBE_VECTOR = np.arange(8192, dtype=float)


def _speed_probe() -> None:
    """Fixed work in the simulator's mix — heap and dict traffic in pure
    Python, small array arithmetic, a few matrix products; no ``repro``
    code — about 9 ms."""
    heap: list[int] = []
    table: dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(12_000):
        push(heap, (i * 7919) % 10_007)
        table[i & 1023] = i
    while heap:
        pop(heap)
    vector = _PROBE_VECTOR
    for _ in range(150):
        vector = vector * 1.0001 + 0.5
        vector.sum()
    matrix = _PROBE_MATRIX
    for _ in range(12):
        matrix = (matrix @ _PROBE_MATRIX) * 1e-2


class HostClock:
    """Adds up timed pieces of work in *reference seconds*: each piece's
    host seconds, divided by how much slower than :data:`PROBE_REF_S` the
    speed probe ran just before and just after it.

    The box this was written on switches between two speeds about 1.4x
    apart, for a fraction of a second to minutes at a time.  Ten plain
    12-15 s windows (ten seeds, fresh processes) spread p25-p75 by 11-28 %
    of their median; the same windows in probe-scaled slices spread by
    5-7 % (README, "Why reference seconds").  A slice is short so that the
    two probes around it see the speed it ran at."""

    def __init__(self, tracer: Tracer | None = None):
        self._tracer = tracer
        self.raw_s = 0.0
        self.ref_s = 0.0
        #: The probe that ended the previous piece; it opens the next one
        #: (pieces of one clock are timed back to back).
        self._last_probe_s: float | None = None

    def _probe(self) -> float:
        tracer = self._tracer
        with tracer.span("benchmark/speed_probe") if tracer else nullcontext():
            start = time.perf_counter()
            _speed_probe()
            return time.perf_counter() - start

    @contextmanager
    def timed(self):
        before = self._last_probe_s
        if before is None:
            before = self._probe()
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        after = self._last_probe_s = self._probe()
        self.raw_s += elapsed
        self.ref_s += elapsed * PROBE_REF_S / ((before + after) / 2.0)


def report_digest(fleet, report) -> str:
    """sha256 over the canonical JSON of the run's report (which embeds
    the fleet health telemetry and the recovery ledger) and the event
    count — every simulated statistic a run yields."""
    payload = {
        "report": dataclasses.asdict(report),
        "events_processed": fleet.loop.events_processed,
    }
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    tiny: bool = False,
    tracer: Tracer | None = None,
) -> PassResult:
    """Build, warm, run the timed window, report and check one workload.
    ``seconds`` sizes this pass's window."""
    clock = time.perf_counter
    sim_window_s = workload.tiny_sim_s if tiny else seconds * workload.pace_sim_s
    warm_sim_s = min(workload.warm_sim_s, 300.0) if tiny else workload.warm_sim_s
    # A tiny window is milliseconds: more slices would time the probe.
    slices = 12 if tiny else max(1, round(seconds * SLICES_PER_SECOND))
    lifecycle: dict[str, float] = {}
    build_clock, window_clock = HostClock(tracer), HostClock(tracer)

    def phase(name: str):
        return tracer.phase(name) if tracer is not None else nullcontext()

    def run(fleet, sim_s: float) -> None:
        """Advance ``fleet`` by ``sim_s`` in timed slices that end where
        one ``run_for`` would."""
        n = max(1, round(slices * sim_s / sim_window_s))
        start_sim = fleet.loop.now
        for i in range(1, n + 1):
            with window_clock.timed():
                fleet.run_for(start_sim + sim_s * i / n - fleet.loop.now)

    @contextmanager
    def operation(name: str):
        """Time one lifecycle operation of a script, as part of the
        window and as ``system.lifecycle.<name>_s``."""
        with window_clock.timed():
            start = clock()
            with tracer.span(f"system.lifecycle/{name}") if tracer else nullcontext():
                yield
            lifecycle[f"{name}_s"] = clock() - start

    with phase("build"), build_clock.timed():
        fleet = workload.build(seed, tiny)
    if tracer is not None:
        for runtime in fleet.lifecycle.runtimes():
            tracer.tenant_of_index[runtime.index] = runtime.name
        for name, plane in fleet.cohort_planes.items():
            tracer.tag(plane.model, name)
        # First commits usually land in the warm prefix, so raw spans are
        # kept from here, not from the window.
        tracer.record_rounds_until_committed(
            len(fleet.population_names) + len(workload.late_tenants)
        )

    with phase("warmup"):
        start = clock()
        fleet.run_for(warm_sim_s)
        warm_s = clock() - start

    committed_before = len(fleet.committed_rounds)
    events_before = fleet.loop.events_processed
    sim_before = fleet.loop.now
    plane_before = _plane_counters(fleet)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        with phase("window"):
            fleet = workload.script(fleet, sim_window_s, seed, scratch, run, operation)
        snapshot_bytes = sum(
            entry.stat().st_size for entry in Path(scratch).iterdir()
        )
    if snapshot_bytes:
        lifecycle["snapshot_mb"] = snapshot_bytes / 1e6
    rounds_in_window = len(fleet.committed_rounds) - committed_before
    events_in_window = fleet.loop.events_processed - events_before
    sim_s = fleet.loop.now - sim_before
    plane_after = _plane_counters(fleet)
    plane = {
        name: None if plane_after[name] is None or plane_before[name] is None
        else plane_after[name] - plane_before[name]
        for name in _PLANE_COUNTERS
    }

    with phase("report"):
        start = clock()
        report = fleet.report()
        report_s = clock() - start

    digest = report_digest(fleet, report)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures: list[str] = []
    if rounds_in_window < 1:
        failures.append("no round committed inside the timed window")
    if sim_s < sim_window_s * (1.0 - 1e-9):
        failures.append(
            f"window covered {sim_s} simulated s, wanted {sim_window_s}"
        )
    # Sec. 4.2: one durable write per committed round, plus the initial
    # checkpoint of every tenant slice — under any fault rate.
    expected_writes = report.rounds_committed + len(report.populations)
    if fleet.store.write_count != expected_writes:
        failures.append(
            f"write-count law: {fleet.store.write_count} durable writes, "
            f"expected {expected_writes}"
        )
    for population in report.populations:
        if population.rounds_committed < 1:
            failures.append(f"tenant {population.name!r} committed no round")

    first_committed = {}
    for population in report.populations:
        for result in fleet.results_for(population.name):
            if result.committed:
                first_committed[population.name] = result.round_id
                break
    recovery = report.recovery
    stats = {
        "stats.events": fleet.loop.events_processed,
        "stats.rounds_total": report.rounds_total,
        "stats.rounds_committed": report.rounds_committed,
        "stats.device_sessions": sum(
            p.device_sessions for p in report.populations
        ),
        "stats.checkins": sum(d.health.checkins for d in fleet.devices),
        "stats.download_bytes": report.download_bytes,
        "stats.upload_bytes": report.upload_bytes,
        "stats.faults_injected": recovery.faults_total if recovery else 0,
    }
    return PassResult(
        digest=digest,
        stats=stats,
        failures=failures,
        build_s=build_clock.ref_s,
        window_s=window_clock.ref_s,
        build_raw_s=build_clock.raw_s,
        window_raw_s=window_clock.raw_s,
        warm_s=warm_s,
        report_s=report_s,
        sim_s=sim_s,
        rounds_in_window=rounds_in_window,
        events_in_window=events_in_window,
        peak_rss_mb=peak_rss_mb,
        lifecycle=lifecycle,
        plane=plane,
        first_committed=first_committed,
        faults_by_kind=dict(recovery.faults_by_kind) if recovery else {},
        recoveries=recovery.recoveries if recovery else 0,
    )


# -- pins -------------------------------------------------------------------------
def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as f:
        return json.load(f)


def pin_key(workload: str, seed: int, seconds: float, tiny: bool) -> str:
    scale = "tiny" if tiny else f"{seconds:g}s"
    return f"{workload}/seed{seed}/{scale}"


def pin_status(result: PassResult, key: str, pins: dict) -> str:
    """``pinned`` / ``digest_changed`` / ``unpinned`` — informational: a
    declared re-pin updates ``pins.json``; only a digest that differs
    *between runs of one seed* fails an operation."""
    pin = pins.get(key)
    if pin is None:
        return "unpinned"
    return "pinned" if pin["report_digest"] == result.digest else "digest_changed"


# -- runs --------------------------------------------------------------------------------
@dataclass
class Outcome:
    """An operation's result in the benchmark contract's terms."""

    attempted: int
    failures: list[str]
    metrics: dict[str, tuple[float | None, str]]
    passes: list[PassResult]

    def to_json(self) -> str:
        return json.dumps(
            {
                "correct": not self.failures,
                "attempted": self.attempted,
                "failed": min(len(self.failures), self.attempted),
                # ``null``: the row's hook no longer resolves.  Not 0 —
                # a deleted function is not a layer that got faster.
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def run_untraced(workload: Workload, seed: int, seconds: float,
                 tiny: bool = False) -> Outcome:
    """One pass, the end-to-end metrics: one operation.  Call it in a
    fresh process — ``peak_rss_mb`` is the process's, and a fleet built
    into a heap another fleet has used runs slower.

    ``setup_s`` is the median of :data:`EXTRA_BUILDS` + 1 builds: the
    fleet the window ran on, and more built once that one is gone (and
    the peak RSS read).  One build is too noisy to bound: a process's
    first build pays page faults and first calls that vary by a third."""
    result = run_pass(workload, seed, seconds, tiny=tiny)
    builds = [result.build_s]
    for _ in range(EXTRA_BUILDS):
        gc.collect()
        clock = HostClock()
        with clock.timed():
            fleet = workload.build(seed, tiny)
        del fleet
        builds.append(clock.ref_s)
    values = {
        "setup_s": statistics.median(builds),
        "sim_days_per_s": result.sim_s / 86400.0 / result.window_s,
        "rounds_per_s": result.rounds_in_window / result.window_s,
        "peak_rss_mb": result.peak_rss_mb,
    }
    return Outcome(
        attempted=1,
        failures=result.failures,
        metrics={m.name: (values[m.name], m.unit) for m in END_TO_END},
        passes=[result],
    )


def run_traced(
    workload: Workload,
    seed: int,
    seconds: float,
    tiny: bool = False,
    hooks: tuple[Hook, ...] = HOOKS,
) -> tuple[Outcome, Tracer]:
    """An untraced reference pass, then the same pass traced.  Two
    operations; the second also fails if tracing moved the digest."""
    reference = run_pass(workload, seed, seconds, tiny=tiny)
    gc.collect()
    with Tracer(hooks) as tracer:
        traced = run_pass(workload, seed, seconds, tiny=tiny, tracer=tracer)
    failures = [f"untraced: {f}" for f in reference.failures]
    failures += [f"traced: {f}" for f in traced.failures]
    if traced.digest != reference.digest:
        failures.append(
            f"tracing changed the report: {traced.digest} != {reference.digest}"
        )
    values = layer_metrics(tracer, traced, reference)
    outcome = Outcome(
        attempted=2,
        failures=failures,
        metrics={m.name: (values[m.name], m.unit) for m in PER_LAYER},
        passes=[reference, traced],
    )
    return outcome, tracer


# -- the per-layer table ----------------------------------------------------------------
def layer_metrics(
    tracer: Tracer, traced: PassResult, reference: PassResult
) -> dict[str, float | None]:
    """Every :data:`PER_LAYER` row; ``None`` marks a row whose hook
    target no longer resolves (printed as ``absent``)."""
    w = "window"
    calls = lambda layer, tenant=None: tracer.calls(w, layer, tenant)
    self_s = lambda layer, tenant=None: tracer.self_s(w, layer, tenant)
    received = lambda layer, message: tracer.counter(w, f"{layer}#{message}")
    messages = lambda layer: sum(
        value for name, value in tracer.counters.get(w, {}).items()
        if name.startswith(layer + "#")
    )
    plane = traced.plane
    ratio = lambda num, den: (num / den) if num is not None and den else 0.0
    screens = calls("actors.selector/screen")
    phases = ("build", "warmup", w)
    root = tracer.spans.get(w, {}).get((ROOT, None), [0, 0.0, 0.0])

    values: dict[str, float | None] = {
        "sim.event_loop.events": traced.events_in_window,
        "sim.event_loop.events_per_s": traced.events_in_window / reference.window_s,
        "actors.kernel.messages": calls("actors.kernel"),
        "sim.idle_plane.sweeps": plane["sweeps"],
        "sim.idle_plane.flips": plane["flips"],
        "sim.idle_plane.checkins": plane["checkins_dispatched"],
        "sim.idle_plane.fast_rejected": plane["checkins_fast_rejected"],
        "sim.idle_plane.materializations": plane["materializations"],
        "sim.idle_plane.admit_ratio": ratio(
            plane["materializations"], plane["checkins_dispatched"]
        ),
        "sim.diurnal.samples": calls("sim.diurnal"),
        "sim.rng.stream_calls": sum(tracer.calls(p, "sim.rng") for p in phases),
        "sim.rng.self_s": sum(tracer.self_s(p, "sim.rng") for p in phases),
        "sim.network.transfers": calls("sim.network"),
        "sim.population.build_s": tracer.total_s("build", "sim.population"),
        "actors.selector.screens": screens,
        "actors.selector.screen_s": self_s("actors.selector/screen"),
        "actors.selector.messages": messages("actors.selector"),
        "actors.selector.accept_ratio": ratio(
            tracer.counter(w, "actors.selector.screen_accepts"), screens
        ),
        "device.actor.messages": messages("device.actor"),
        "device.actor.sessions": received("device.actor", "ConfigureDevice"),
        "device.runtime.defers": calls("device.runtime/defer"),
        "device.example_store.queries": calls("device.example_store"),
        "device.cohort.executions": calls("device.cohort"),
        "device.cohort.clients": tracer.counter(w, "device.cohort.clients"),
        "actors.coordinator.messages": messages("actors.coordinator"),
        "actors.master_aggregator.messages": messages("actors.master_aggregator"),
        "actors.aggregator.reports": received("actors.aggregator", "DeviceReport"),
        "actors.aggregator.flushes": calls("actors.aggregator/flush"),
        "actors.aggregator.flush_s": self_s("actors.aggregator/flush"),
        "actors.aggregator.shard_flushes": calls("actors.aggregator/shard_flush"),
        "core.checkpoint.commits": tracer.counter(w, "core.checkpoint.commits"),
        "core.checkpoint.failed_writes": tracer.counter(
            w, "core.checkpoint.failed_writes"
        ),
        "secagg.rounds": calls("secagg"),
        "secagg.below_threshold": tracer.counter(w, "secagg.below_threshold"),
        "system.faults.injected": traced.stats["stats.faults_injected"],
        "system.faults.recoveries": traced.recoveries,
        "system.fleet.build_s": traced.build_raw_s,
        "system.fleet.warmup_s": traced.warm_s,
        "system.fleet.telemetry_s": self_s("system.fleet"),
        "system.fleet.report_s": traced.report_s,
        "analytics.updates": calls("analytics"),
        "trace.coverage": 1.0 - root[2] / root[1] if root[1] else 0.0,
        "trace.overhead_pct": 100.0 * (traced.window_s / reference.window_s - 1.0),
    }
    for phase in ("key_agreement", "masking", "recovery"):
        values[f"secagg.{phase}_s"] = tracer.counter(w, f"secagg.{phase}_s")
    for name in ("attach_s", "drain_s", "snapshot_s", "restore_s", "snapshot_mb"):
        values[f"system.lifecycle.{name}"] = traced.lifecycle.get(name, 0.0)
    for layer, work in (("core.fedavg", "cohort_updates"),
                        ("nn.models", "grad_calls"),
                        ("nn.optimizers", "steps"),
                        ("nn.parameters", "folds")):
        values[f"{layer}.{work}"] = calls(layer)
        for tenant in SPLIT_TENANTS:
            values[f"{layer}.{work}.{tenant}"] = calls(layer, tenant)
            values[f"{layer}.self_s.{tenant}"] = self_s(layer, tenant)
    for metric in PER_LAYER:
        if metric.name.endswith(".self_s") and metric.name not in values:
            values[metric.name] = self_s(metric.name[: -len(".self_s")])
    for metric in PER_LAYER:
        # A zero in a layer whose hook is gone was not measured.
        layer = metric.name.rsplit(".", 1)[0]
        span = _SPAN_OF_ROW.get(metric.name, layer)
        if span in tracer.absent_spans and not values[metric.name]:
            values[metric.name] = None
    return values


def write_trace(path: Path, tracer: Tracer, traced: PassResult, header: dict) -> None:
    """Raw spans of each tenant's first committed round, plus the
    per-phase layer tables, as JSON."""
    wanted = set(traced.first_committed.values())
    spans = [
        {"id": span_id, "parent": parent, "name": name, "start": start,
         "end": end, "round_id": round_id}
        for span_id, parent, name, start, end, round_id in tracer.raw
        if round_id in wanted
    ]
    document = dict(header)
    document["first_committed_round"] = traced.first_committed
    document["absent_hooks"] = tracer.absent
    document["layers_self_s"] = {
        phase: tracer.layers(phase) for phase in tracer.spans if phase
    }
    document["spans"] = spans
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(document, f)
