"""FL plans (Secs. 2.1, 7.2).

A plan has a device part (graph + data selection + batching/epoch
instructions) and a server part (aggregation logic).  The paper notes that
*plan size is comparable with the global model* (Appendix A, Fig. 9), so
:meth:`DevicePlan.nbytes` accounts for both the graph structure and the
embedded graph constants sized relative to the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.bounds import check, count, positive
from repro.core.config import ClientTrainingConfig, SecAggConfig, TaskKind
from repro.nn.graph import (
    GraphDef,
    build_eval_graph,
    build_server_aggregation_graph,
    build_training_graph,
)

#: Serialized size of one OpSpec: name + version + attrs, empirically ~64B.
_OP_SPEC_BYTES = 64


@dataclass(frozen=True)
class ExampleSelectionCriteria:
    """Which rows of the example store the plan consumes (Sec. 7.2)."""

    store_name: str = "default"
    max_examples: int = count(1, default=10_000)
    max_age_s: float | None = positive(default=None)
    holdout: bool = False

    __post_init__ = check


@dataclass(frozen=True)
class DevicePlan:
    """The on-device half of an FL plan."""

    graph: GraphDef
    selection_criteria: ExampleSelectionCriteria
    training: ClientTrainingConfig
    kind: TaskKind
    #: Bytes of graph constants embedded in the plan (vocab tables, feature
    #: transforms...).  Defaults set so plan size ≈ model size, per App. A.
    embedded_constants_bytes: int = 0

    @property
    def min_runtime_version(self) -> int:
        return self.graph.min_runtime_version()

    @property
    def nbytes(self) -> int:
        return len(self.graph.ops) * _OP_SPEC_BYTES + self.embedded_constants_bytes


@dataclass(frozen=True)
class ServerPlan:
    """The server half: aggregation logic and round acceptance criteria."""

    graph: GraphDef
    secagg: SecAggConfig
    kind: TaskKind

    @property
    def nbytes(self) -> int:
        return len(self.graph.ops) * _OP_SPEC_BYTES


@dataclass(frozen=True)
class FLPlan:
    """A complete, deployable FL plan.

    ``runtime_version`` identifies which fleet runtime this (possibly
    version-transformed, Sec. 7.3) plan targets; ``version_tag`` is
    "unversioned" for the default plan.
    """

    task_id: str
    device: DevicePlan
    server: ServerPlan
    runtime_version: int
    version_tag: str = "unversioned"
    metadata: Mapping[str, object] = field(default_factory=dict)

    def compatible_with_runtime(self, runtime_version: int) -> bool:
        return self.device.min_runtime_version <= runtime_version

    @property
    def nbytes(self) -> int:
        return self.device.nbytes + self.server.nbytes


def generate_plan(
    task_id: str,
    kind: TaskKind,
    client_config: ClientTrainingConfig,
    secagg: SecAggConfig,
    model_nbytes: int,
    selection_criteria: ExampleSelectionCriteria | None = None,
) -> FLPlan:
    """Build the default (unversioned) plan for a task (Sec. 7.2).

    Our libraries "automatically split the part of a provided model's
    computation which runs on device from the part that runs on the
    server": the device graph is a training or eval graph, the server
    graph is the aggregation logic.
    """
    criteria = selection_criteria or ExampleSelectionCriteria(
        max_examples=client_config.max_examples,
        holdout=(kind is TaskKind.EVALUATION),
    )
    if kind is TaskKind.TRAINING:
        device_graph = build_training_graph(
            epochs=client_config.epochs,
            batch_size=client_config.batch_size,
            learning_rate=client_config.learning_rate,
        )
    else:
        device_graph = build_eval_graph(batch_size=client_config.batch_size)
    device = DevicePlan(
        graph=device_graph,
        selection_criteria=criteria,
        training=client_config,
        kind=kind,
        embedded_constants_bytes=model_nbytes,
    )
    server = ServerPlan(
        graph=build_server_aggregation_graph(), secagg=secagg, kind=kind
    )
    return FLPlan(
        task_id=task_id,
        device=device,
        server=server,
        runtime_version=device_graph.min_runtime_version(),
    )
