"""FL tasks, populations, and multi-task scheduling (Secs. 2.1, 7.1).

An *FL population* is a globally unique learning problem name; an *FL
task* is a specific computation for it (training with given
hyperparameters, or evaluation).  When several tasks are deployed for one
population, "the FL service chooses among them using a dynamic strategy
that allows alternating between training and evaluation of a single model
or A/B comparisons between models".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import TaskConfig, TaskKind
from repro.core.plan import FLPlan
from repro.sim.rng import standalone_stream


@dataclass
class FLTask:
    """A deployed FL task: its config, plan, and live round counter."""

    config: TaskConfig
    plan: FLPlan | None = None
    rounds_started: int = 0
    rounds_committed: int = 0

    @property
    def task_id(self) -> str:
        return self.config.task_id

    @property
    def kind(self) -> TaskKind:
        return self.config.kind


class SchedulingStrategy(enum.Enum):
    SINGLE = "single"                       # only task, always chosen
    ROUND_ROBIN = "round_robin"
    ALTERNATE_TRAIN_EVAL = "alternate"      # train, then eval, then train...
    AB_WEIGHTED = "ab_weighted"             # sample by task priority (A/B)


@dataclass
class FLPopulation:
    """All tasks deployed for one population name."""

    name: str
    tasks: list[FLTask] = field(default_factory=list)

    def add_task(self, task: FLTask) -> None:
        if task.config.population_name != self.name:
            raise ValueError(
                f"task {task.task_id} targets population "
                f"{task.config.population_name!r}, not {self.name!r}"
            )
        if any(t.task_id == task.task_id for t in self.tasks):
            raise ValueError(f"duplicate task id {task.task_id!r}")
        self.tasks.append(task)

    def task(self, task_id: str) -> FLTask:
        for t in self.tasks:
            if t.task_id == task_id:
                return t
        raise KeyError(f"no task {task_id!r} in population {self.name!r}")

    @property
    def selection_goal(self) -> int:
        """Devices a round of this population wants at most: the largest
        of its tasks' selection goals (1 with no task deployed)."""
        goals = [t.config.round_config.selection_goal for t in self.tasks]
        return max(goals) if goals else 1


class TaskScheduler:
    """Chooses the next FL task to run a round for (Sec. 7.1)."""

    def __init__(
        self,
        population: FLPopulation,
        strategy: SchedulingStrategy = SchedulingStrategy.ROUND_ROBIN,
        rng: np.random.Generator | None = None,
    ):
        self.population = population
        self.strategy = strategy
        self.rng = rng or standalone_stream(0)
        self._cursor = 0

    def next_task(self) -> FLTask:
        tasks = self.population.tasks
        if not tasks:
            raise RuntimeError(
                f"population {self.population.name!r} has no deployed tasks"
            )
        if self.strategy is SchedulingStrategy.SINGLE or len(tasks) == 1:
            return tasks[0]
        if self.strategy is SchedulingStrategy.ROUND_ROBIN:
            task = tasks[self._cursor % len(tasks)]
            self._cursor += 1
            return task
        if self.strategy is SchedulingStrategy.ALTERNATE_TRAIN_EVAL:
            return self._alternate_train_eval()
        if self.strategy is SchedulingStrategy.AB_WEIGHTED:
            weights = np.array([t.config.priority for t in tasks])
            weights = weights / weights.sum()
            return tasks[int(self.rng.choice(len(tasks), p=weights))]
        raise AssertionError(f"unhandled strategy {self.strategy}")

    def _alternate_train_eval(self) -> FLTask:
        """Training rounds interleaved with evaluation of the same model."""
        train = [t for t in self.population.tasks if t.kind is TaskKind.TRAINING]
        evals = [t for t in self.population.tasks if t.kind is TaskKind.EVALUATION]
        if not train:
            return self.population.tasks[self._pick_cursor(len(self.population.tasks))]
        if not evals:
            return train[self._pick_cursor(len(train))]
        # Even slots train, odd slots evaluate.
        slot = self._cursor
        self._cursor += 1
        if slot % 2 == 0:
            return train[(slot // 2) % len(train)]
        return evals[(slot // 2) % len(evals)]

    def _pick_cursor(self, n: int) -> int:
        i = self._cursor % n
        self._cursor += 1
        return i
