"""Materialized model metrics (Sec. 7.4)."""

import pytest
from hypothesis import given, strategies as st

from repro.analytics.metrics_store import (
    FinalizedMetricsError,
    MaterializedMetrics,
    ModelMetricsStore,
)
from repro.analytics.quantile import MetricSummary


def test_materialize_summarizes_device_reports():
    store = ModelMetricsStore()
    reports = [{"loss": 1.0, "n": 10}, {"loss": 3.0, "n": 30}, {"loss": 2.0, "n": 20}]
    record = store.materialize(
        "task", round_number=5, time_s=100.0, device_metrics=reports,
        fl_runtime="sim",
    )
    assert record.summaries["loss"].stats["mean"] == 2.0
    assert record.summaries["n"].stats["count"] == 3
    assert record.metadata["fl_runtime"] == "sim"


def test_rows_are_flat_and_annotated():
    store = ModelMetricsStore()
    store.materialize("task", 1, 10.0, [{"loss": 2.0}])
    store.materialize("task", 2, 20.0, [{"loss": 1.0}])
    rows = store.to_rows("task")
    assert len(rows) == 2
    assert rows[0]["task_name"] == "task"
    assert rows[0]["round_number"] == 1
    assert rows[1]["loss/mean"] == 1.0
    assert "loss/p50" in rows[0]


def test_histories_per_task():
    store = ModelMetricsStore()
    store.materialize("a", 1, 0.0, [])
    store.materialize("b", 1, 0.0, [])
    assert store.tasks() == ["a", "b"]
    assert len(store.history("a")) == 1
    assert store.history("zzz") == []


def test_materialized_record_is_final():
    store = ModelMetricsStore()
    record = store.materialize("task", 1, 10.0, [{"loss": 2.0}, {"loss": 4.0}])
    before = record.to_row()
    with pytest.raises(FinalizedMetricsError, match="task round 1"):
        record.update("loss", 100.0)
    with pytest.raises(FinalizedMetricsError):
        record.update("never_seen", 1.0)
    assert record.to_row() == before == store.to_rows("task")[0]


def test_a_record_outside_the_store_takes_updates_until_finalized():
    record = MaterializedMetrics("task", 1, 0.0)
    record.update("loss", 1.0)
    record.update("loss", 3.0)
    assert record.summaries["loss"].to_dict()["mean"] == 2.0
    record.finalize()
    assert record.summaries["loss"].to_dict()["mean"] == 2.0
    with pytest.raises(FinalizedMetricsError):
        record.update("loss", 5.0)


def test_empty_round_and_empty_summary_materialize_as_count_zero():
    store = ModelMetricsStore()
    record = store.materialize("task", 1, 0.0, [], kind="training")
    assert record.summaries == {}
    assert record.to_row() == {
        "task_name": "task", "round_number": 1, "time_s": 0.0, "kind": "training",
    }
    unfed = MaterializedMetrics("task", 2, 0.0, summaries={"loss": MetricSummary.empty()})
    unfed.finalize()
    assert unfed.summaries["loss"].to_dict() == {"count": 0}
    assert unfed.to_row()["loss/count"] == 0


# Device metrics are losses, accuracies and example counts.
metric_values = st.floats(-1e9, 1e9) | st.integers(0, 10_000)


@given(
    reports=st.lists(
        st.dictionaries(st.sampled_from(["loss", "accuracy", "n"]), metric_values, max_size=3),
        max_size=40,
    )
)
def test_finalized_rows_equal_the_live_summaries_bit_for_bit(reports):
    """Oracle: the live sketches the store used to keep for good, fed the
    same values in the same order (including the <= 5-sample rounds whose
    quantiles are exact order statistics)."""
    live: dict[str, MetricSummary] = {}
    for report in reports:
        for metric, value in report.items():
            live.setdefault(metric, MetricSummary.empty()).update(float(value))
    store = ModelMetricsStore()
    record = store.materialize("task", 3, 7.0, reports, committed=True)
    assert list(record.summaries) == list(live)
    for metric, summary in live.items():
        stored, expected = record.summaries[metric].to_dict(), summary.to_dict()
        assert list(stored) == list(expected)
        for stat, value in expected.items():
            assert type(stored[stat]) is type(value)
            assert repr(stored[stat]) == repr(value)  # repr: the float's bits
    expected_row = {"task_name": "task", "round_number": 3, "time_s": 7.0, "committed": True}
    for metric, summary in live.items():
        for stat, value in summary.to_dict().items():
            expected_row[f"{metric}/{stat}"] = value
    assert record.to_row() == expected_row
    assert list(record.to_row()) == list(expected_row)
