"""Deployment gating (Sec. 7.3).

"An FL task that has been translated into an FL plan is not accepted by
the server for deployment unless certain conditions are met.  First, it
must have been built from auditable, peer reviewed code.  Second, it must
have bundled test predicates for each FL task that pass in simulation.
Third, the resources consumed during testing must be within a safe range
of expected resources for the target population.  And finally, the FL task
tests must pass on every version of the TensorFlow runtime that the FL
task claims to support, as verified by testing the FL task's plan in an
Android emulator."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.datasets import ClientDataset
from repro.core.fedavg import client_update
from repro.core.plan import FLPlan
from repro.nn.models import Model
from repro.nn.parameters import Parameters
from repro.tools.modeling import FLTaskBuilder
from repro.tools.perf import wall_timer
from repro.tools.versioning import (
    IncompatiblePlanError,
    PlanRepository,
    TransformRegistry,
    default_transforms,
    generate_versioned_plan,
)


@dataclass(frozen=True)
class ResourceEstimate:
    """Resources observed while executing the plan in simulation."""

    peak_memory_mb: float
    train_seconds_per_100_examples: float
    update_nbytes: int


def measure_resources(
    model: Model,
    params: Parameters,
    plan: FLPlan,
    proxy_data: ClientDataset,
    rng: np.random.Generator,
) -> ResourceEstimate:
    """Execute one client update on proxy data and measure consumption.

    Memory is estimated structurally (parameters + activations for one
    batch); time is measured for real.
    """
    cfg = plan.device.training
    # Deployment gating measures *real* train time by design (the
    # resource estimate is about this machine, not simulated time).
    start = wall_timer()
    update = client_update(
        model,
        params,
        proxy_data,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        rng=rng,
    )
    elapsed = wall_timer() - start
    n = max(update.num_examples, 1)
    # params + gradients + the stepped copy (SGD keeps no state) + one batch.
    param_mb = 3 * params.nbytes / 1e6
    batch_mb = cfg.batch_size * np.asarray(proxy_data.x[0]).size * 8 / 1e6
    return ResourceEstimate(
        peak_memory_mb=param_mb + batch_mb,
        train_seconds_per_100_examples=100.0 * elapsed / (n * cfg.epochs),
        update_nbytes=update.delta.num_parameters * 8,
    )


class PlanEmulator:
    """The "Android emulator" stand-in: executes a plan under a pinned
    runtime version, rejecting ops that version cannot run."""

    def __init__(self, runtime_version: int):
        self.runtime_version = runtime_version

    def check_ops(self, plan: FLPlan) -> list[str]:
        """Which device-graph ops the emulated runtime refuses to load."""
        return [
            f"{op.name} v{op.version} (needs runtime {op.min_runtime_version})"
            for op in plan.device.graph.ops
            if op.min_runtime_version > self.runtime_version
        ]

    def run_task_tests(
        self,
        builder: FLTaskBuilder,
        plan: FLPlan,
    ) -> list[str]:
        """Load check + the same release tests as the default plan."""
        refused = self.check_ops(plan)
        if refused:
            return [f"runtime {self.runtime_version} refuses: " + ", ".join(refused)]
        return builder.validate()


@dataclass
class DeploymentReport:
    accepted: bool
    violations: list[str] = field(default_factory=list)
    resources: ResourceEstimate | None = None
    versioned_plans: dict[int, FLPlan] = field(default_factory=dict)


@dataclass
class DeploymentGate:
    """The four acceptance conditions, checked in order.

    ``resource_limits`` describe the safe range for the target population
    (derived from the fleet's weakest supported devices).
    """

    fleet_runtime_versions: list[int]
    max_memory_mb: float = 512.0
    max_train_seconds_per_100_examples: float = 30.0
    max_update_nbytes: int = 50 * 1024 * 1024
    transforms: TransformRegistry = field(default_factory=default_transforms)

    def evaluate(
        self,
        builder: FLTaskBuilder,
        plan: FLPlan,
        rng: np.random.Generator,
    ) -> DeploymentReport:
        violations: list[str] = []

        # 1. Auditable, peer-reviewed code.
        if not builder.code_reviewed:
            violations.append("code has not been peer reviewed")

        # 2. Bundled test predicates pass in simulation.
        if not builder.predicates:
            violations.append("no bundled test predicates")
        else:
            failures = builder.validate()
            violations.extend(f"task test failed: {f}" for f in failures)

        # 3. Resources within the safe range for the target population.
        resources: ResourceEstimate | None = None
        assert builder.model is not None and builder.initial_params is not None
        assert builder.proxy_data is not None
        resources = measure_resources(
            builder.model, builder.initial_params, plan, builder.proxy_data, rng
        )
        if resources.peak_memory_mb > self.max_memory_mb:
            violations.append(
                f"peak memory {resources.peak_memory_mb:.0f}MB exceeds "
                f"{self.max_memory_mb:.0f}MB"
            )
        if (
            resources.train_seconds_per_100_examples
            > self.max_train_seconds_per_100_examples
        ):
            violations.append(
                f"training too slow: "
                f"{resources.train_seconds_per_100_examples:.1f}s/100ex"
            )
        if resources.update_nbytes > self.max_update_nbytes:
            violations.append(
                f"update size {resources.update_nbytes} exceeds "
                f"{self.max_update_nbytes} bytes"
            )

        # 4. Task tests pass on every claimed runtime version (in emulator),
        #    using the *versioned* plan each fleet runtime would be served.
        versioned: dict[int, FLPlan] = {}
        for version in sorted(set(self.fleet_runtime_versions)):
            try:
                vplan = (
                    plan
                    if plan.compatible_with_runtime(version)
                    else generate_versioned_plan(plan, version, self.transforms)
                )
            except IncompatiblePlanError as exc:
                violations.append(f"runtime {version}: {exc}")
                continue
            failures = PlanEmulator(version).run_task_tests(builder, vplan)
            violations.extend(f"runtime {version}: {f}" for f in failures)
            versioned[version] = vplan

        return DeploymentReport(
            accepted=not violations,
            violations=violations,
            resources=resources,
            versioned_plans=versioned,
        )

    def build_repository(self, plan: FLPlan) -> PlanRepository:
        """Plan repository for the fleet once the gate has accepted."""
        return PlanRepository.build(
            plan, self.fleet_runtime_versions, self.transforms
        )
