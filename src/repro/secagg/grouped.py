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

Each group is one instance (:func:`repro.secagg.vectorized.run_vectorized`),
run in turn on the same rng.  The per-device reference protocol in
``tests/reference/secagg.py`` runs the groups one device state machine
at a time; the two produce byte-identical sums, metrics counts,
transcripts, rng trajectories, and error messages.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import Callable

import numpy as np

from repro.secagg.masking import VectorQuantizer
from repro.secagg.protocol import (
    DropoutSchedule,
    SecAggError,
    SecAggMetrics,
    SecAggTranscript,
)
from repro.secagg.vectorized import _PhaseTimer, run_vectorized


def shamir_threshold(group_size: int, threshold_fraction: float) -> int:
    """The Shamir threshold of a ``group_size``-device instance:
    ``max(2, ceil(group_size · threshold_fraction))``.

    The one threshold rule — :meth:`repro.core.config.SecAggConfig.threshold`,
    :func:`grouped_secure_sum` and federated analytics all call it.  A
    fraction outside ``(0.5, 1]`` (NaN included) is refused: at or below
    one half, two disjoint halves of a group could each reach the
    threshold — one revealing a device's self mask, the other its key —
    and above one no group could ever reach it.
    """
    if not 0.5 < threshold_fraction <= 1:
        raise ValueError(
            f"threshold_fraction must be in (0.5, 1], got {threshold_fraction!r}"
        )
    return max(2, math.ceil(group_size * threshold_fraction))


def partition_into_groups(user_ids: list[int], min_group_size: int) -> list[list[int]]:
    """Split users into contiguous groups, each of size >= ``min_group_size``.

    With fewer than ``2k`` users a single group is returned (still >= k
    required, else :class:`SecAggError`).
    """
    if (
        isinstance(min_group_size, bool)
        or not isinstance(min_group_size, Integral)
        or min_group_size < 2
    ):
        raise ValueError(
            f"min_group_size must be an integer >= 2, got {min_group_size!r}"
        )
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


def _grouped_run(
    inputs: dict[int, np.ndarray],
    min_group_size: int,
    threshold_fraction: float,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule | None,
    timer: Callable[[], float] | None,
    capture: bool,
) -> tuple[
    np.ndarray, list[SecAggMetrics], list[SecAggTranscript | None]
]:
    # Every argument is checked here, before the first rng draw.
    groups = partition_into_groups(list(inputs), min_group_size)
    thresholds = [
        shamir_threshold(len(group), threshold_fraction) for group in groups
    ]
    phases = _PhaseTimer(timer)
    group_sums, all_metrics, transcripts = zip(*(
        run_vectorized(
            {uid: inputs[uid] for uid in group}, threshold, quantizer, rng,
            _group_schedule(group, dropouts), phases, capture,
        )
        for group, threshold in zip(groups, thresholds)
    ))

    # Master-Aggregator fold: one preallocated total, accumulated in
    # place.  Bit-identical to a left-to-right chain of `+` because
    # float addition with a 0.0 start is exact on the first summand.
    total = np.zeros_like(group_sums[0])
    for group_sum in group_sums:
        np.add(total, group_sum, out=total)
    return total, list(all_metrics), list(transcripts)


def grouped_secure_sum(
    inputs: dict[int, np.ndarray],
    min_group_size: int,
    threshold_fraction: float,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule | None = None,
    timer: Callable[[], float] | None = None,
) -> tuple[np.ndarray, list[SecAggMetrics]]:
    """Secure-sum per group, then a plain (Master Aggregator) sum of sums.

    Each group of at least ``min_group_size`` devices runs at threshold
    :func:`shamir_threshold`, the groups in turn; each phase of each
    group is one lap of one clock over ``timer``.
    """
    total, all_metrics, _ = _grouped_run(
        inputs, min_group_size, threshold_fraction, quantizer, rng,
        dropouts, timer, capture=False,
    )
    return total, all_metrics


def grouped_secure_sum_transcripts(
    inputs: dict[int, np.ndarray],
    min_group_size: int,
    threshold_fraction: float,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule | None = None,
    timer: Callable[[], float] | None = None,
) -> tuple[np.ndarray, list[SecAggMetrics], list[SecAggTranscript]]:
    """Like :func:`grouped_secure_sum`, also returning per-group transcripts.

    Exists so equivalence tests can compare the groups round by round
    against the per-device reference — masked vectors, delivered shares,
    ring sums — not just on the folded total.
    """
    return _grouped_run(
        inputs, min_group_size, threshold_fraction, quantizer, rng,
        dropouts, timer, capture=True,
    )
