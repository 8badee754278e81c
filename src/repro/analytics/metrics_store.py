"""Materialized model metrics (Sec. 7.4).

"As soon as an FL round closes, that round's aggregated model parameters
and metrics are written to the server storage location chosen by the model
engineer.  Materialized model metrics are annotated with additional data,
including metadata like the source FL task's name, FL round number within
the FL task, and other basic operational data."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.analytics.quantile import MetricSummary


class FinalizedMetricsError(RuntimeError):
    """An update reached a record whose round is closed and stored."""


@dataclass(frozen=True, slots=True)
class FinalSummary:
    """What a closed round keeps of a :class:`MetricSummary`: the numbers
    of its ``to_dict()``, without the sketches that produced them."""

    stats: Mapping[str, float]

    def to_dict(self) -> dict[str, float]:
        return dict(self.stats)


@dataclass
class MaterializedMetrics:
    """One round's metric summaries plus annotations.  Summaries are live
    sketches while device reports are fed in and finished statistics after
    :meth:`finalize`, which the store calls before it keeps a record."""

    task_name: str
    round_number: int
    time_s: float
    summaries: dict[str, MetricSummary | FinalSummary] = field(default_factory=dict)
    metadata: Mapping[str, object] = field(default_factory=dict)
    final: bool = field(default=False, init=False)

    def update(self, metric: str, value: float) -> None:
        if self.final:
            raise FinalizedMetricsError(
                f"{self.task_name} round {self.round_number} is materialized: "
                f"its {metric!r} summary no longer takes updates"
            )
        if metric not in self.summaries:
            self.summaries[metric] = MetricSummary.empty()
        self.summaries[metric].update(value)

    def finalize(self) -> None:
        """Replace every live summary by its finished statistics."""
        self.summaries = {
            metric: FinalSummary(summary.to_dict())
            for metric, summary in self.summaries.items()
        }
        self.final = True

    def to_row(self) -> dict[str, object]:
        """Flatten for loading into numerical data-science tooling."""
        row: dict[str, object] = {
            "task_name": self.task_name,
            "round_number": self.round_number,
            "time_s": self.time_s,
            **dict(self.metadata),
        }
        for metric, summary in self.summaries.items():
            for stat, value in summary.to_dict().items():
                row[f"{metric}/{stat}"] = value
        return row


class ModelMetricsStore:
    """Per-task history of materialized round metrics."""

    def __init__(self) -> None:
        self._by_task: dict[str, list[MaterializedMetrics]] = {}

    def materialize(
        self,
        task_name: str,
        round_number: int,
        time_s: float,
        device_metrics: list[Mapping[str, float]],
        **metadata: object,
    ) -> MaterializedMetrics:
        """Summarize a closed round's complete device reports and persist
        the result, final from here on."""
        record = MaterializedMetrics(
            task_name=task_name,
            round_number=round_number,
            time_s=time_s,
            metadata=metadata,
        )
        for report in device_metrics:
            for metric, value in report.items():
                record.update(metric, float(value))
        record.finalize()
        self._by_task.setdefault(task_name, []).append(record)
        return record

    def history(self, task_name: str) -> list[MaterializedMetrics]:
        return list(self._by_task.get(task_name, []))

    def to_rows(self, task_name: str) -> list[dict[str, object]]:
        return [m.to_row() for m in self.history(task_name)]

    def tasks(self) -> list[str]:
        return sorted(self._by_task)
