"""Versioned FL plans via graph transformations (Sec. 7.3).

"Devices may be running a version of the TensorFlow runtime that is many
months older than what is required by the FL plan generated by modelers
today ... The FL infrastructure deals with this problem by generating
versioned FL plans for each task.  Each versioned FL plan is derived from
the default (unversioned) FL plan by transforming its computation graph to
achieve compatibility with a deployed TensorFlow version."

A transform rewrites one op into a sequence of older-runtime ops with the
same semantics (e.g. un-fusing a fused train step).  Versioned and
unversioned plans must pass the same release tests (enforced by
:mod:`repro.tools.deployment`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.core.plan import DevicePlan, FLPlan
from repro.nn.graph import (
    GraphDef,
    OpSpec,
    OP_APPLY_GRADIENTS,
    OP_BACKWARD,
    OP_FORWARD,
    OP_FUSED_TRAIN_STEP,
)


class IncompatiblePlanError(RuntimeError):
    """No transform chain reaches the requested runtime version."""


TransformFn = Callable[[OpSpec], list[OpSpec]]


class TransformRegistry:
    """Rewrite rules keyed by ``(op_name, op_version)``."""

    def __init__(self) -> None:
        self._rules: dict[tuple[str, int], TransformFn] = {}

    def register(self, op_name: str, op_version: int, fn: TransformFn) -> None:
        key = (op_name, op_version)
        if key in self._rules:
            raise ValueError(f"transform already registered for {key}")
        self._rules[key] = fn

    def lower(self, op: OpSpec) -> list[OpSpec] | None:
        fn = self._rules.get(op.key)
        return fn(op) if fn is not None else None


def _unfuse_train_step(op: OpSpec) -> list[OpSpec]:
    """fused_train_step v2 (runtime >= 9) -> forward/backward/apply (v1)."""
    lr = op.attrs.get("learning_rate", 0.1)
    return [
        OpSpec(OP_FORWARD, version=1, min_runtime_version=1),
        OpSpec(OP_BACKWARD, version=1, min_runtime_version=1),
        OpSpec(
            OP_APPLY_GRADIENTS,
            version=1,
            min_runtime_version=1,
            attrs={"learning_rate": lr},
        ),
    ]


def default_transforms() -> TransformRegistry:
    """The stock rule set (the paper reports ~one lowering every 3 months)."""
    registry = TransformRegistry()
    registry.register(OP_FUSED_TRAIN_STEP, 2, _unfuse_train_step)
    return registry


def transform_graph_for_runtime(
    graph: GraphDef,
    runtime_version: int,
    transforms: TransformRegistry | None = None,
) -> GraphDef:
    """Lower every incompatible op until the graph fits ``runtime_version``.

    Raises :class:`IncompatiblePlanError` when an op cannot be lowered —
    the paper's "slightly smaller number that cannot be fixed without
    complex workarounds".
    """
    transforms = transforms or default_transforms()
    new_ops: list[OpSpec] = []
    for op in graph.ops:
        if op.min_runtime_version <= runtime_version:
            new_ops.append(op)
            continue
        lowered = transforms.lower(op)
        if lowered is None:
            raise IncompatiblePlanError(
                f"op {op.name} v{op.version} requires runtime "
                f">= {op.min_runtime_version}, no transform to {runtime_version}"
            )
        for sub in lowered:
            if sub.min_runtime_version > runtime_version:
                raise IncompatiblePlanError(
                    f"transform of {op.name} produced {sub.name} which still "
                    f"requires runtime >= {sub.min_runtime_version}"
                )
        new_ops.extend(lowered)
    return graph.replace_ops(new_ops)


def generate_versioned_plan(
    plan: FLPlan,
    runtime_version: int,
    transforms: TransformRegistry | None = None,
) -> FLPlan:
    """Derive the versioned plan for one deployed runtime version."""
    device_graph = transform_graph_for_runtime(
        plan.device.graph, runtime_version, transforms
    )
    device = replace(plan.device, graph=device_graph)
    return replace(
        plan,
        device=device,
        runtime_version=runtime_version,
        version_tag=f"runtime-{runtime_version}",
    )


@dataclass
class PlanRepository:
    """Serves the appropriate (versioned) plan per device runtime (Sec. 7.4).

    "As soon as an FL task has been accepted for deployment, devices
    checking in may be served the appropriate (versioned) plan."
    """

    default_plan: FLPlan
    transforms: TransformRegistry

    def __post_init__(self) -> None:
        self._cache: dict[int, FLPlan | None] = {}

    @classmethod
    def build(
        cls,
        default_plan: FLPlan,
        fleet_runtime_versions: list[int],
        transforms: TransformRegistry | None = None,
    ) -> "PlanRepository":
        repo = cls(default_plan, transforms or default_transforms())
        for version in fleet_runtime_versions:
            repo.plan_for_runtime(version)  # pre-materialize + validate
        return repo

    def plan_for_runtime(self, runtime_version: int) -> FLPlan | None:
        """The newest plan servable to ``runtime_version``; None if none."""
        if runtime_version not in self._cache:
            if self.default_plan.compatible_with_runtime(runtime_version):
                self._cache[runtime_version] = self.default_plan
            else:
                try:
                    self._cache[runtime_version] = generate_versioned_plan(
                        self.default_plan, runtime_version, self.transforms
                    )
                except IncompatiblePlanError:
                    self._cache[runtime_version] = None
        return self._cache[runtime_version]

    def plan_for_task(self, task_id: str, runtime_version: int) -> FLPlan | None:
        """Single-task repositories serve the same plan for any task id."""
        return self.plan_for_runtime(runtime_version)

    def materialized_versions(self) -> list[int]:
        return sorted(v for v, p in self._cache.items() if p is not None)


class PlanDirectory:
    """Per-task plan repositories for a population (Sec. 7.4).

    Selectors resolve the versioned plan by *(task id, device runtime)*;
    the check-in gate only needs "is any deployed task servable to this
    runtime at all".
    """

    def __init__(self) -> None:
        self._repos: dict[str, PlanRepository] = {}

    def add(self, task_id: str, repo: PlanRepository) -> None:
        if task_id in self._repos:
            raise ValueError(f"task {task_id!r} already has a repository")
        self._repos[task_id] = repo

    def plan_for_runtime(self, runtime_version: int) -> FLPlan | None:
        for repo in self._repos.values():
            plan = repo.plan_for_runtime(runtime_version)
            if plan is not None:
                return plan
        return None

    def plan_for_task(self, task_id: str, runtime_version: int) -> FLPlan | None:
        repo = self._repos.get(task_id)
        if repo is None:
            return None
        return repo.plan_for_runtime(runtime_version)

    def task_ids(self) -> list[str]:
        return sorted(self._repos)
