"""Analytics (Secs. 5 and 7.4).

Device and server health telemetry: per-state event logs rendered as the
ASCII "session shapes" of Table 1, time-series dashboards, and
materialized per-round model metrics summarized by
approximate order statistics (a P² quantile sketch) and moments.

No entry contains personally identifiable information: events carry only
device id, round id, state, and timestamps.
"""

from repro.analytics.events import DeviceEvent, EventLog, EventRecord
from repro.analytics.session_shapes import (
    SESSION_LEGEND,
    session_shape,
    shape_distribution,
    format_table,
)
from repro.analytics.quantile import P2Quantile, StreamingMoments, MetricSummary
from repro.analytics.dashboard import TimeSeries, Dashboard
from repro.analytics.metrics_store import MaterializedMetrics, ModelMetricsStore

__all__ = [
    "DeviceEvent",
    "EventLog",
    "EventRecord",
    "SESSION_LEGEND",
    "session_shape",
    "shape_distribution",
    "format_table",
    "P2Quantile",
    "StreamingMoments",
    "MetricSummary",
    "TimeSeries",
    "Dashboard",
    "MaterializedMetrics",
    "ModelMetricsStore",
]
