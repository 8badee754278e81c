"""Task definition and validation (Sec. 7.1).

"Model engineers begin by defining the FL tasks that they would like to
run on a given FL population in Python ... FL tasks are validated against
engineer-provided test data and expectations, similar in nature to unit
tests.  FL task tests are ultimately required in order to deploy a model."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.config import (
    ClientTrainingConfig,
    RoundConfig,
    SecAggConfig,
    TaskConfig,
    TaskKind,
)
from repro.core.datasets import ClientDataset
from repro.core.plan import FLPlan, generate_plan
from repro.nn.models import Model
from repro.nn.parameters import Parameters
from repro.nn.serialization import checkpoint_nbytes


class ValidationError(RuntimeError):
    """An FL task test predicate failed."""


@dataclass(frozen=True)
class TestPredicate:
    """One engineer-provided expectation over (model, params, proxy data)."""

    __test__ = False  # tells pytest the Test* name is not a test class

    name: str
    check: Callable[[Model, Parameters, ClientDataset], bool]

    def run(self, model: Model, params: Parameters, data: ClientDataset) -> bool:
        return bool(self.check(model, params, data))


def loss_is_finite() -> TestPredicate:
    def check(model: Model, params: Parameters, data: ClientDataset) -> bool:
        return bool(np.isfinite(model.loss(params, data.x, data.y)))

    return TestPredicate("loss_is_finite", check)


def loss_decreases_after_one_step(learning_rate: float = 0.1) -> TestPredicate:
    def check(model: Model, params: Parameters, data: ClientDataset) -> bool:
        loss0, grads = model.loss_and_grad(params, data.x, data.y)
        stepped = params.axpy(-learning_rate, grads)
        return model.loss(stepped, data.x, data.y) < loss0 + 1e-9

    return TestPredicate("loss_decreases_after_one_step", check)


@dataclass
class FLTaskBuilder:
    """Fluent task construction for model engineers.

    Example::

        task, plan, params = (
            FLTaskBuilder("next_word/train", "next_word")
            .with_model(model, init_rng)
            .with_client_config(ClientTrainingConfig(epochs=1))
            .with_proxy_data(proxy)
            .with_test(loss_is_finite())
            .build()
        )
    """

    task_id: str
    population_name: str
    kind: TaskKind = TaskKind.TRAINING
    model: Model | None = None
    initial_params: Parameters | None = None
    client_config: ClientTrainingConfig = field(default_factory=ClientTrainingConfig)
    round_config: RoundConfig = field(default_factory=RoundConfig)
    secagg: SecAggConfig = field(default_factory=SecAggConfig)
    proxy_data: ClientDataset | None = None
    predicates: list[TestPredicate] = field(default_factory=list)
    code_reviewed: bool = False

    # -- fluent setters -----------------------------------------------------------
    def with_model(
        self, model: Model, rng: np.random.Generator
    ) -> "FLTaskBuilder":
        self.model = model
        self.initial_params = model.init(rng)
        return self

    def with_pretrained(self, model: Model, params: Parameters) -> "FLTaskBuilder":
        self.model = model
        self.initial_params = params
        return self

    def with_client_config(self, config: ClientTrainingConfig) -> "FLTaskBuilder":
        self.client_config = config
        return self

    def with_round_config(self, config: RoundConfig) -> "FLTaskBuilder":
        self.round_config = config
        return self

    def with_secagg(self, config: SecAggConfig) -> "FLTaskBuilder":
        self.secagg = config
        return self

    def with_proxy_data(self, data: ClientDataset) -> "FLTaskBuilder":
        self.proxy_data = data
        return self

    def with_test(self, predicate: TestPredicate) -> "FLTaskBuilder":
        self.predicates.append(predicate)
        return self

    def mark_reviewed(self) -> "FLTaskBuilder":
        self.code_reviewed = True
        return self

    # -- validation + build -----------------------------------------------------
    def validate(self) -> list[str]:
        """Run all task tests; returns failures (empty = pass)."""
        if self.model is None or self.initial_params is None:
            raise ValidationError("no model attached to the task")
        if self.proxy_data is None:
            raise ValidationError("no proxy/test data attached to the task")
        failures = []
        for predicate in self.predicates:
            try:
                ok = predicate.run(self.model, self.initial_params, self.proxy_data)
            except Exception as exc:  # predicate crash = failure
                failures.append(f"{predicate.name}: raised {exc!r}")
                continue
            if not ok:
                failures.append(f"{predicate.name}: expectation not met")
        return failures

    def build(self) -> tuple[TaskConfig, FLPlan, Parameters]:
        """Validate, then produce (task config, default plan, initial params)."""
        if not self.predicates:
            raise ValidationError(
                "FL task tests are required in order to deploy a model (Sec. 7.1)"
            )
        failures = self.validate()
        if failures:
            raise ValidationError("; ".join(failures))
        assert self.model is not None and self.initial_params is not None
        config = TaskConfig(
            task_id=self.task_id,
            population_name=self.population_name,
            kind=self.kind,
            round_config=self.round_config,
            client_config=self.client_config,
            secagg=self.secagg,
        )
        plan = generate_plan(
            task_id=self.task_id,
            kind=self.kind,
            client_config=self.client_config,
            secagg=self.secagg,
            model_nbytes=checkpoint_nbytes(self.initial_params),
        )
        return config, plan, self.initial_params
