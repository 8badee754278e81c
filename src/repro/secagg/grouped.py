"""Per-Aggregator Secure Aggregation groups (Sec. 6, last paragraph).

"Several costs for Secure Aggregation grow quadratically with the number
of users ... In practice, this limits the maximum size of a Secure
Aggregation to hundreds of users.  So as not to constrain the number of
users ... we run an instance of Secure Aggregation on each Aggregator
actor to aggregate inputs from that Aggregator's devices into an
intermediate sum; FL tasks define a parameter k so that all updates are
securely aggregated over groups of size at least k.  The Master Aggregator
then further aggregates the intermediate aggregators' results into a final
aggregate for the round, without Secure Aggregation."

The groups are embarrassingly parallel — one instance per Aggregator —
so the production "vectorized" plane batches the DH, PRG, and
reconstruction sweeps across *all* groups at once
(:func:`repro.secagg.vectorized.run_vectorized_grouped`); the "scalar"
test reference (``plane="scalar"``, per call) runs one device state
machine at a time.  Both produce byte-identical sums, metrics counts,
transcripts, rng trajectories, and error messages.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.secagg.masking import VectorQuantizer
from repro.secagg.protocol import (
    DropoutSchedule,
    SecAggError,
    SecAggMetrics,
    SecAggTranscript,
    _dispatch,
    check_plane,
)


def partition_into_groups(user_ids: list[int], min_group_size: int) -> list[list[int]]:
    """Split users into contiguous groups, each of size >= ``min_group_size``.

    With fewer than ``2k`` users a single group is returned (still >= k
    required, else :class:`SecAggError`).
    """
    if min_group_size < 2:
        raise ValueError("min_group_size must be >= 2")
    ids = sorted(user_ids)
    n = len(ids)
    if n < min_group_size:
        raise SecAggError(
            f"{n} users cannot form a secure group of size >= {min_group_size}"
        )
    num_groups = max(1, n // min_group_size)
    # Spread the remainder so every group keeps >= min_group_size members.
    bounds = np.linspace(0, n, num_groups + 1).astype(int)
    return [ids[bounds[i] : bounds[i + 1]] for i in range(num_groups)]


def _group_schedule(
    group: list[int], dropouts: DropoutSchedule | None
) -> DropoutSchedule:
    """Restrict a fleet-wide dropout schedule to one group's members."""
    if dropouts is None:
        return DropoutSchedule.none()
    group_set = set(group)
    return DropoutSchedule(
        after_advertise=frozenset(dropouts.after_advertise & group_set),
        after_share=frozenset(dropouts.after_share & group_set),
        after_mask=frozenset(dropouts.after_mask & group_set),
    )


def _grouped_dispatch(
    inputs: dict[int, np.ndarray],
    min_group_size: int,
    threshold_fraction: float,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule | None,
    plane: str,
    timer: Callable[[], float] | None,
    capture: bool,
) -> tuple[
    np.ndarray, list[SecAggMetrics], list[SecAggTranscript] | None
]:
    groups = partition_into_groups(list(inputs), min_group_size)
    check_plane(plane)
    thresholds = [
        max(2, int(np.ceil(len(group) * threshold_fraction)))
        for group in groups
    ]
    schedules = [_group_schedule(group, dropouts) for group in groups]
    group_inputs = [
        {uid: inputs[uid] for uid in group} for group in groups
    ]

    if plane == "vectorized":
        # Cross-group plane: one stacked pairwise-agreement pass, one
        # (ΣC, dim) PRG/commit pass, one shared reconstruction sweep.
        from repro.secagg.vectorized import run_vectorized_grouped

        group_sums, all_metrics, transcripts = run_vectorized_grouped(
            group_inputs, thresholds, quantizer, rng, schedules,
            timer=timer, capture=capture,
        )
    else:
        # Scalar reference: one per-device instance per group, in order.
        group_sums = []
        all_metrics = []
        transcripts = [] if capture else None
        for instance, threshold, schedule in zip(
            group_inputs, thresholds, schedules
        ):
            group_sum, metrics, transcript = _dispatch(
                instance, threshold, quantizer, rng, schedule, "scalar",
                timer, capture,
            )
            group_sums.append(group_sum)
            all_metrics.append(metrics)
            if capture:
                transcripts.append(transcript)

    # Master-Aggregator fold: one preallocated total, accumulated in
    # place.  Bit-identical to a left-to-right chain of `+` because
    # float addition with a 0.0 start is exact on the first summand.
    total = np.zeros_like(group_sums[0])
    for group_sum in group_sums:
        np.add(total, group_sum, out=total)
    return total, all_metrics, transcripts


def grouped_secure_sum(
    inputs: dict[int, np.ndarray],
    min_group_size: int,
    threshold_fraction: float,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule | None = None,
    plane: str = "vectorized",
    timer: Callable[[], float] | None = None,
) -> tuple[np.ndarray, list[SecAggMetrics]]:
    """Secure-sum per group, then a plain (Master Aggregator) sum of sums.

    ``plane`` selects how the group instances execute (see module
    docstring); ``timer`` is forwarded into every instance's metrics.
    """
    total, all_metrics, _ = _grouped_dispatch(
        inputs, min_group_size, threshold_fraction, quantizer, rng,
        dropouts, plane, timer, capture=False,
    )
    return total, all_metrics


def grouped_secure_sum_transcripts(
    inputs: dict[int, np.ndarray],
    min_group_size: int,
    threshold_fraction: float,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule | None = None,
    plane: str = "vectorized",
    timer: Callable[[], float] | None = None,
) -> tuple[np.ndarray, list[SecAggMetrics], list[SecAggTranscript]]:
    """Like :func:`grouped_secure_sum`, also returning per-group transcripts.

    Exists so equivalence tests can compare the grouped planes round by
    round — masked vectors, delivered shares, ring sums — not just on the
    folded total.
    """
    total, all_metrics, transcripts = _grouped_dispatch(
        inputs, min_group_size, threshold_fraction, quantizer, rng,
        dropouts, plane, timer, capture=True,
    )
    assert transcripts is not None
    return total, all_metrics, transcripts
