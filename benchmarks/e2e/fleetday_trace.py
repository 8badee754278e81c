"""Outside-in tracing for the `fleet-day` benchmark.

Nothing under ``src/`` knows about this module.  A :class:`Tracer`
patches the simulator from outside, only for the traced pass, and puts
everything back when it exits; untraced passes execute unpatched code.

Two kinds of hook feed one single-threaded span stack:

* **Event callbacks.**  ``EventLoop.schedule_at`` is wrapped so every
  callback the loop will fire is boxed in a :class:`TracedCall`, which
  attributes the call to the layer owning the callback (the module of the
  bound method's class).  Actor deliveries are split further by wrapping
  each ``Actor`` subclass's ``receive`` (layer of the receiving class,
  counted per message type).
* **Named functions.**  :data:`HOOKS` lists public functions by dotted
  name; each gets an enter/exit timer.  A name that no longer resolves
  is recorded in :attr:`Tracer.absent` and its rows print ``absent`` —
  a refactor that deletes a function must not crash the benchmark.

A span's *self* time is its duration minus the time its child spans
cover, so layer self times sum to the root span.  Aggregates (count,
total, self) are kept per (span, tenant) for every phase; raw spans
(id, parent, name, start, end, round id) are kept only until every
tenant has committed its first round.

The tracer reads the host clock between a parent's and a child's clock
reads, so its own cost lands in the *parent's* self time — mostly
``sim.event_loop``.  ``trace.overhead_pct`` says how much that is.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from dataclasses import dataclass
from typing import Any, Callable

#: The installed tracer, or ``None``.  Module-level on purpose:
#: ``fleet.snapshot()`` pickles every pending event, so the boxes around
#: callbacks must be picklable and cannot hold the tracer themselves — a
#: restored fleet's boxes find the live tracer here.  Set and cleared only
#: by :meth:`Tracer.install` / :meth:`Tracer.uninstall`.
_ACTIVE: "Tracer | None" = None

#: Raw spans kept at most (a bound on memory, not a sampling rate).
RAW_SPAN_LIMIT = 200_000

ROOT = "root"


def layer_of_module(module: str) -> str:
    """``repro.sim.event_loop`` -> ``sim.event_loop``; the ``secagg`` and
    ``analytics`` packages are one layer each; anything outside ``repro``
    (a benchmark-side callback) is ``other``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] in ("secagg", "analytics"):
        return parts[1]
    return ".".join(parts[1:3])


_LAYER_OF_CLASS: dict[type, str] = {}


def _callback_layer(fn: Callable[..., Any]) -> str:
    owner = getattr(fn, "__self__", None)
    if owner is None:
        return layer_of_module(getattr(fn, "__module__", "") or "")
    cls = type(owner)
    layer = _LAYER_OF_CLASS.get(cls)
    if layer is None:
        layer = _LAYER_OF_CLASS[cls] = layer_of_module(cls.__module__)
    return layer


def _round_id_among(owner: Any, args: tuple) -> int | None:
    """The round a callback belongs to, when anything in reach says so."""
    rid = getattr(owner, "round_id", None)
    if rid is not None:
        return rid
    for arg in args:
        rid = getattr(arg, "round_id", None)
        if rid is not None:
            return rid
    return None


class TracedCall:
    """A picklable box around one scheduled callback."""

    __slots__ = ("fn", "layer")

    def __init__(self, fn: Callable[..., Any]):
        self.fn = fn
        self.layer = _callback_layer(fn)

    def __call__(self, *args: Any) -> Any:
        tracer = _ACTIVE
        if tracer is None:
            return self.fn(*args)
        round_id = None
        if tracer.raw_on:
            round_id = _round_id_among(getattr(self.fn, "__self__", None), args)
        tracer.enter(self.layer, round_id)
        try:
            return self.fn(*args)
        finally:
            tracer.exit()


@dataclass(frozen=True)
class Hook:
    """One named function to time.

    ``target`` is ``"module:Qualified.name"``.  ``span`` names the span
    (``layer`` or ``layer/part``); ``None`` derives it from the module
    of the class the function is found on.  ``subclasses`` also wraps
    every ``repro`` subclass that overrides the method.  ``kind`` picks
    the bookkeeping done besides timing (see ``Tracer._wrap``)."""

    target: str
    span: str | None
    subclasses: bool = False
    kind: str = "plain"


HOOKS: tuple[Hook, ...] = (
    Hook("repro.sim.event_loop:EventLoop.run", "sim.event_loop"),
    Hook("repro.actors.kernel:Actor.receive", None, subclasses=True, kind="receive"),
    Hook("repro.sim.idle_plane:VectorizedIdlePlane._sweep", "sim.idle_plane"),
    Hook("repro.sim.diurnal:AvailabilityProcess.time_until_eligible", "sim.diurnal"),
    Hook("repro.sim.diurnal:AvailabilityProcess.time_until_ineligible", "sim.diurnal"),
    Hook("repro.sim.rng:RngRegistry.stream", "sim.rng"),
    Hook("repro.sim.network:NetworkModel.transfer", "sim.network"),
    Hook("repro.sim.population:build_population", "sim.population"),
    Hook("repro.actors.selector:Selector.fast_checkin_decision",
         "actors.selector/screen", kind="screen"),
    # The device half of a screened check-in runs inside the plane's sweep,
    # not in a callback of its own; without this it would count as plane time.
    Hook("repro.device.actor:DeviceActor._attempt_screened_checkin",
         "device.actor/checkin"),
    Hook("repro.device.runtime:RealTrainer.defer", "device.runtime/defer"),
    Hook("repro.device.runtime:RealTrainer.train", "device.runtime"),
    Hook("repro.device.runtime:SyntheticTrainer.train", "device.runtime"),
    Hook("repro.device.example_store:ExampleStore.query", "device.example_store"),
    Hook("repro.device.cohort:CohortExecutionPlane.execute_pending",
         "device.cohort", kind="cohort"),
    Hook("repro.core.fedavg:client_update_cohort", "core.fedavg", kind="tenant_arg0"),
    Hook("repro.nn.models:Model.loss_and_grad_cohort", "nn.models",
         subclasses=True, kind="tenant_arg0"),
    Hook("repro.nn.optimizers:SGD.step_stack_", "nn.optimizers"),
    Hook("repro.nn.parameters:ParameterAccumulator.add", "nn.parameters"),
    Hook("repro.nn.parameters:ParameterAccumulator.add_vector", "nn.parameters"),
    Hook("repro.actors.aggregator:Aggregator.flush", "actors.aggregator/flush"),
    Hook("repro.actors.aggregator:ShardAggregator.flush",
         "actors.aggregator/shard_flush"),
    Hook("repro.core.checkpoint:CheckpointStore.commit", "core.checkpoint",
         kind="commit"),
    Hook("repro.secagg.protocol:run_secure_aggregation", "secagg", kind="secagg"),
    Hook("repro.analytics.quantile:MetricSummary.update", "analytics"),
)


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute name, function)`` for a hook target.  Raises
    ``LookupError`` when the name is gone or is no longer a plain
    function (a hook can only wrap what it can put back)."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(target) from exc
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(target)
    fn = vars(owner).get(name)
    if not isinstance(fn, types.FunctionType):
        raise LookupError(target)
    return owner, name, fn


def _repro_subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        if sub.__module__.split(".")[0] == "repro":
            found.append(sub)
        found.extend(_repro_subclasses(sub))
    return found


class Tracer:
    """Span stack + aggregates + the patches that feed them.

    Use as a context manager around the whole traced pass::

        with Tracer(hooks) as tracer:
            with tracer.phase("build"): ...
    """

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS):
        self.hooks = hooks
        self._clock = time.perf_counter
        #: Frames: [span, start, child seconds, round id, tenant, id, parent id].
        self._stack: list[list] = []
        self._next_id = 0
        #: phase -> {(span, tenant): [count, total seconds, self seconds]}
        self.spans: dict[str, dict[tuple[str, str | None], list]] = {}
        #: phase -> {counter name: value}
        self.counters: dict[str, dict[str, float]] = {}
        self._spans_now: dict[tuple[str, str | None], list] = {}
        self._counters_now: dict[str, float] = {}
        self.phase_name = ""
        #: Hook targets that did not resolve, and the spans nothing feeds.
        self.absent: list[str] = []
        self.absent_spans: set[str] = set()
        #: (id, parent id, span, start, end, round id) while ``raw_on``.
        self.raw: list[tuple] = []
        self.raw_on = False
        self._raw_tenants_wanted = 0
        self._committed_tenants: set[str] = set()
        #: Tenant attribution: runtime index -> name (round ids are
        #: ``index * stride + n``) and ``id(object) -> name`` for tagged
        #: models.
        self.round_id_stride: int | None = None
        self.tenant_of_index: dict[int, str] = {}
        self._tenant_of_object: dict[int, str] = {}
        self._undo: list[tuple[Any, str, Any]] = []
        self._begin("")

    # -- spans -------------------------------------------------------------------
    def enter(
        self, span: str, round_id: int | None = None, tenant: str | None = None
    ) -> None:
        stack = self._stack
        parent_id = None
        if stack:
            parent = stack[-1]
            parent_id = parent[5]
            if round_id is None:
                round_id = parent[3]
            if tenant is None:
                tenant = parent[4]
        if tenant is None and round_id is not None and self.round_id_stride:
            tenant = self.tenant_of_index.get(round_id // self.round_id_stride)
        self._next_id += 1
        stack.append(
            [span, self._clock(), 0.0, round_id, tenant, self._next_id, parent_id]
        )

    def exit(self) -> None:
        end = self._clock()
        span, start, child_s, round_id, tenant, span_id, parent_id = (
            self._stack.pop()
        )
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        key = (span, tenant)
        agg = self._spans_now.get(key)
        if agg is None:
            agg = self._spans_now[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_s
        if self.raw_on and round_id is not None:
            self.raw.append((span_id, parent_id, span, start, end, round_id))
            if len(self.raw) >= RAW_SPAN_LIMIT:
                self.raw_on = False

    def count(self, name: str, amount: float = 1) -> None:
        self._counters_now[name] = self._counters_now.get(name, 0) + amount

    def _begin(self, phase: str) -> None:
        self.phase_name = phase
        self._spans_now = self.spans.setdefault(phase, {})
        self._counters_now = self.counters.setdefault(phase, {})

    def phase(self, name: str) -> "_Scope":
        """Aggregate into ``name`` under one root span until exit."""
        return _Scope(self, ROOT, phase=name)

    def span(self, name: str) -> "_Scope":
        return _Scope(self, name)

    # -- reading the aggregates ----------------------------------------------------
    def _matching(self, phase: str, layer: str, tenant: str | None):
        for (span, span_tenant), agg in self.spans.get(phase, {}).items():
            if span != layer and not span.startswith(layer + "/"):
                continue
            if tenant is not None and span_tenant != tenant:
                continue
            yield agg

    def calls(self, phase: str, layer: str, tenant: str | None = None) -> int:
        return sum(agg[0] for agg in self._matching(phase, layer, tenant))

    def total_s(self, phase: str, layer: str, tenant: str | None = None) -> float:
        return sum(agg[1] for agg in self._matching(phase, layer, tenant))

    def self_s(self, phase: str, layer: str, tenant: str | None = None) -> float:
        return sum(agg[2] for agg in self._matching(phase, layer, tenant))

    def counter(self, phase: str, name: str) -> float:
        return self.counters.get(phase, {}).get(name, 0)

    def layers(self, phase: str) -> dict[str, float]:
        """Layer -> self seconds in ``phase`` (the root included)."""
        out: dict[str, float] = {}
        for (span, _), agg in self.spans.get(phase, {}).items():
            layer = span.split("/")[0]
            out[layer] = out.get(layer, 0.0) + agg[2]
        return out

    # -- tenant / round attribution ---------------------------------------------------
    def tag(self, obj: Any, tenant: str) -> None:
        """Spans entered with ``obj`` as first argument belong to ``tenant``."""
        self._tenant_of_object[id(obj)] = tenant

    def record_rounds_until_committed(self, tenants: int) -> None:
        """Keep raw spans until ``tenants`` populations have each
        committed a round (or the limit is reached)."""
        self._raw_tenants_wanted = tenants
        self.raw_on = tenants > 0

    # -- patching -------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def install(self) -> None:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        try:
            from repro.system.lifecycle import ROUND_ID_STRIDE
        except ImportError:
            ROUND_ID_STRIDE = None
        self.round_id_stride = ROUND_ID_STRIDE
        self._box_callbacks()
        resolved_spans: set[str] = set()
        wanted_spans: set[str] = set()
        for hook in self.hooks:
            if hook.span is not None:
                wanted_spans.add(hook.span)
            try:
                owner, name, fn = _resolve(hook.target)
            except LookupError:
                self.absent.append(hook.target)
                continue
            if hook.span is not None:
                resolved_spans.add(hook.span)
            owners = [owner]
            if hook.subclasses and isinstance(owner, type):
                owners += [
                    sub for sub in _repro_subclasses(owner)
                    if isinstance(vars(sub).get(name), types.FunctionType)
                ]
            for cls in owners:
                self._patch(cls, name, hook)
        self.absent_spans = wanted_spans - resolved_spans
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        _ACTIVE = None

    def _set(self, owner: Any, name: str, value: Any) -> None:
        """Replace ``owner.name`` (always the owner's own attribute:
        ``_resolve`` only finds those) and remember how to put it back."""
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _box_callbacks(self) -> None:
        try:
            loop_cls, name, schedule_at = _resolve(
                "repro.sim.event_loop:EventLoop.schedule_at"
            )
        except LookupError:
            self.absent.append("repro.sim.event_loop:EventLoop.schedule_at")
            return

        def traced_schedule_at(loop, when, fn, *args):
            return schedule_at(loop, when, TracedCall(fn), *args)

        traced_schedule_at.__name__ = name
        traced_schedule_at.__qualname__ = schedule_at.__qualname__
        self._set(loop_cls, name, traced_schedule_at)

    def _patch(self, owner: Any, name: str, hook: Hook) -> None:
        original = vars(owner)[name]
        span = hook.span
        if span is None:
            span = layer_of_module(owner.__module__)
        wrapper = self._wrap(original, span, hook.kind)
        wrapper.__name__ = original.__name__
        wrapper.__qualname__ = original.__qualname__
        wrapper.__module__ = original.__module__
        wrapper.__doc__ = original.__doc__
        if isinstance(owner, types.ModuleType):
            # ``from m import f`` copies the reference: replace it in
            # every repro module that holds it, not just where it lives.
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if module_name.split(".")[0] != "repro":
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, alias, wrapper)
        else:
            self._set(owner, name, wrapper)

    def _wrap(self, fn: Callable[..., Any], span: str, kind: str):
        enter, exit_, count = self.enter, self.exit, self.count

        if kind == "plain":
            def plain(*args, **kwargs):
                enter(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
            return plain

        if kind == "receive":
            counter_prefix = span + "#"

            def receive(actor, sender, message):
                count(counter_prefix + type(message).__name__)
                round_id = getattr(message, "round_id", None)
                if round_id is None:
                    round_id = getattr(actor, "round_id", None)
                enter(span, round_id)
                try:
                    return fn(actor, sender, message)
                finally:
                    exit_()
            return receive

        if kind == "tenant_arg0":
            tenant_of_object = self._tenant_of_object

            def tagged(*args, **kwargs):
                enter(span, None, tenant_of_object.get(id(args[0])))
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
            return tagged

        if kind == "screen":
            def screen(*args, **kwargs):
                enter(span)
                try:
                    window = fn(*args, **kwargs)
                finally:
                    exit_()
                if window is None:
                    count("actors.selector.screen_accepts")
                return window
            return screen

        if kind == "cohort":
            def cohort(*args, **kwargs):
                enter(span)
                try:
                    ran = fn(*args, **kwargs)
                finally:
                    exit_()
                count("device.cohort.clients", ran)
                return ran
            return cohort

        if kind == "commit":
            def commit(store, checkpoint, *args, **kwargs):
                enter(span)
                try:
                    fn(store, checkpoint, *args, **kwargs)
                except Exception:
                    count("core.checkpoint.failed_writes")
                    raise
                finally:
                    exit_()
                count("core.checkpoint.commits")
                self._on_commit(getattr(checkpoint, "population_name", None))
            return commit

        if kind == "secagg":
            def secagg(*args, **kwargs):
                enter(span)
                try:
                    total, metrics = fn(*args, **kwargs)
                except Exception:
                    count("secagg.below_threshold")
                    raise
                finally:
                    exit_()
                for phase in ("key_agreement", "masking", "recovery"):
                    count(
                        f"secagg.{phase}_s",
                        getattr(metrics, f"{phase}_seconds", 0.0),
                    )
                return total, metrics
            return secagg

        raise ValueError(f"unknown hook kind {kind!r}")

    def _on_commit(self, tenant: str | None) -> None:
        if not self.raw_on or tenant is None:
            return
        self._committed_tenants.add(tenant)
        if len(self._committed_tenants) >= self._raw_tenants_wanted:
            self.raw_on = False


class _Scope:
    """``with`` form of enter/exit; with ``phase`` it also switches the
    aggregate tables so each phase has its own root."""

    def __init__(self, tracer: Tracer, span: str, phase: str | None = None):
        self._tracer = tracer
        self._span = span
        self._phase = phase
        self._previous = ""

    def __enter__(self) -> None:
        if self._phase is not None:
            self._previous = self._tracer.phase_name
            self._tracer._begin(self._phase)
        self._tracer.enter(self._span)

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer.exit()
        if self._phase is not None:
            self._tracer._begin(self._previous)
