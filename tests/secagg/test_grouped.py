"""Per-Aggregator SecAgg groups and the master's plain combine."""

import numpy as np
import pytest

from reference import secagg as reference
from repro.secagg.grouped import (
    grouped_secure_sum,
    grouped_secure_sum_transcripts,
    partition_into_groups,
)
from repro.secagg.masking import VectorQuantizer
from repro.secagg.protocol import DropoutSchedule, SecAggError

#: The per-device reference and the production plane: byte-equivalent.
#: Each entry returns ``(total, metrics, transcripts)``.
ALL_PLANES = {
    "scalar": reference.grouped_secure_sum_transcripts,
    "vectorized": grouped_secure_sum_transcripts,
}


def test_partition_all_groups_at_least_k():
    groups = partition_into_groups(list(range(25)), min_group_size=10)
    assert len(groups) == 2
    assert all(len(g) >= 10 for g in groups)
    assert sorted(sum(groups, [])) == list(range(25))


def test_partition_single_group_under_2k():
    groups = partition_into_groups(list(range(15)), min_group_size=10)
    assert len(groups) == 1


def test_partition_too_few_users():
    with pytest.raises(SecAggError):
        partition_into_groups(list(range(5)), min_group_size=10)


def test_partition_validates_k():
    with pytest.raises(ValueError):
        partition_into_groups([1, 2, 3], min_group_size=1)


@pytest.mark.parametrize(
    "kwargs,argument",
    [
        ({"threshold_fraction": 0.0}, "threshold_fraction"),
        ({"threshold_fraction": -1}, "threshold_fraction"),
        ({"threshold_fraction": 0.5}, "threshold_fraction"),
        ({"threshold_fraction": 1.5}, "threshold_fraction"),
        ({"threshold_fraction": float("nan")}, "threshold_fraction"),
        ({"threshold_fraction": float("inf")}, "threshold_fraction"),
        ({"min_group_size": float("nan")}, "min_group_size"),
        ({"min_group_size": 2.5}, "min_group_size"),
        ({"min_group_size": 5.0}, "min_group_size"),
        ({"min_group_size": True}, "min_group_size"),
    ],
    ids=[
        "fraction_zero", "fraction_negative", "fraction_half",
        "fraction_above_one", "fraction_nan", "fraction_inf",
        "k_nan", "k_fractional", "k_float", "k_bool",
    ],
)
def test_bad_arguments_refused_before_any_draw(kwargs, argument):
    """One threshold rule, ``max(2, ceil(n·f))`` with ``f`` in (0.5, 1],
    and an integer ``k >= 2``: anything else is a ValueError naming the
    argument, raised before the rng has drawn a byte."""
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    args = {"min_group_size": 5, "threshold_fraction": 0.66, **kwargs}
    with pytest.raises(ValueError, match=argument):
        grouped_secure_sum(
            _fleet(n=10), quantizer=VectorQuantizer(max_summands=16),
            rng=rng, **args,
        )
    assert rng.bit_generator.state == before


def test_grouped_sum_matches_plain_sum(rng):
    inputs = {uid: rng.uniform(-2, 2, size=30) for uid in range(30)}
    q = VectorQuantizer(modulus_bits=32, clip_range=2.5, max_summands=32)
    total, metrics_list = grouped_secure_sum(
        inputs, min_group_size=10, threshold_fraction=0.7, quantizer=q, rng=rng
    )
    expected = sum(inputs.values())
    # Each group introduces its own quantization error.
    bound = sum(q.max_quantization_error(12) for _ in metrics_list)
    assert np.abs(total - expected).max() <= bound
    assert len(metrics_list) == 3


def test_grouped_sum_with_dropouts(rng):
    inputs = {uid: rng.uniform(-1, 1, size=20) for uid in range(20)}
    q = VectorQuantizer(modulus_bits=32, clip_range=1.5, max_summands=32)
    drops = DropoutSchedule(after_share=frozenset({0, 11}))
    total, metrics_list = grouped_secure_sum(
        inputs, min_group_size=10, threshold_fraction=0.6,
        quantizer=q, rng=rng, dropouts=drops,
    )
    expected = sum(v for u, v in inputs.items() if u not in {0, 11})
    bound = sum(q.max_quantization_error(10) for _ in metrics_list)
    assert np.abs(total - expected).max() <= bound


def test_group_cost_is_bounded_by_group_size(rng):
    """Sec. 6's point: grouping caps the quadratic cost per instance."""
    inputs = {uid: rng.uniform(-1, 1, size=10) for uid in range(40)}
    q = VectorQuantizer(modulus_bits=32, clip_range=1.5, max_summands=64)
    drops = DropoutSchedule(after_share=frozenset({1, 11, 21, 31}))
    _, metrics_list = grouped_secure_sum(
        inputs, min_group_size=10, threshold_fraction=0.6,
        quantizer=q, rng=rng, dropouts=drops,
    )
    for metrics in metrics_list:
        # Each group: 1 dropped x <=9 survivors, never 4 x 36.
        assert metrics.key_agreements <= 9


# -- grouped plane equivalence ------------------------------------------------


def _fleet(n=60, dim=13, seed=11):
    r = np.random.default_rng(seed)
    return {uid: r.uniform(-1, 1, size=dim) for uid in range(n)}


def _fleet_drops(n=60):
    return DropoutSchedule(
        after_advertise=frozenset(u for u in range(n) if u % 10 == 3),
        after_share=frozenset(u for u in range(n) if u % 10 == 6),
        after_mask=frozenset(u for u in range(n) if u % 10 == 9),
    )


def test_both_planes_identical_sums_metrics_and_rng():
    """The plane runs the groups in turn, each as one instance; the
    contract is byte-identity with the sequential scalar reference, rng
    trajectory included.  The second point is the Sec. 6
    operating size: groups of >= 50 at dim 256."""
    for n, dim, group, groups in ((60, 13, 15, 4), (150, 256, 50, 3)):
        inputs = _fleet(n, dim)
        q = VectorQuantizer(modulus_bits=32, clip_range=1.5, max_summands=128)
        results = {}
        for plane, run in ALL_PLANES.items():
            plane_rng = np.random.default_rng(77)
            total, metrics, _ = run(
                inputs, min_group_size=group, threshold_fraction=0.66,
                quantizer=q, rng=plane_rng, dropouts=_fleet_drops(n),
            )
            results[plane] = (total, metrics, plane_rng.bytes(8))
        base_total, base_metrics, base_probe = results["scalar"]
        assert len(base_metrics) == groups
        for plane in list(ALL_PLANES)[1:]:
            total, metrics, probe = results[plane]
            assert np.array_equal(total, base_total), (plane, n)
            assert metrics == base_metrics, (plane, n)
            assert probe == base_probe, (plane, n)


def test_both_planes_identical_transcripts():
    inputs = _fleet(n=30)
    q = VectorQuantizer(modulus_bits=32, clip_range=1.5, max_summands=64)
    captured = {}
    for plane, run in ALL_PLANES.items():
        _, _, transcripts = run(
            inputs, min_group_size=10, threshold_fraction=0.66,
            quantizer=q, rng=np.random.default_rng(5),
            dropouts=_fleet_drops(30),
        )
        captured[plane] = transcripts
    base = captured["scalar"]
    for plane in list(ALL_PLANES)[1:]:
        assert len(captured[plane]) == len(base) == 3
        for tr, tr0 in zip(captured[plane], base):
            assert set(tr.masked) == set(tr0.masked)
            for uid in tr0.masked:
                assert np.array_equal(tr.masked[uid], tr0.masked[uid])
            assert tr.shares == tr0.shares
            assert np.array_equal(tr.ring_sum, tr0.ring_sum)


def test_mid_sequence_group_failure_parity():
    """A threshold failure in a *later* group must surface the same
    error at the same rng position on every plane — earlier groups'
    draws (and the failing group's own) happen in sequential order."""
    inputs = _fleet(n=45)
    # Kill most of the last group (uids 30-44) after ShareKeys.
    drops = DropoutSchedule(after_share=frozenset(range(32, 45)))
    q = VectorQuantizer(modulus_bits=32, clip_range=1.5, max_summands=64)
    observed = {}
    for plane, run in (
        ("scalar", reference.grouped_secure_sum_transcripts),
        ("vectorized", grouped_secure_sum),
    ):
        plane_rng = np.random.default_rng(21)
        with pytest.raises(SecAggError) as exc:
            run(
                inputs, min_group_size=15, threshold_fraction=0.66,
                quantizer=q, rng=plane_rng, dropouts=drops,
            )
        observed[plane] = (str(exc.value), plane_rng.bytes(8))
    assert observed["scalar"] == observed["vectorized"]
    assert "committed, threshold is" in observed["scalar"][0]


def test_phase_breakdown_populated_only_with_timer():
    inputs = _fleet(n=30)
    q = VectorQuantizer(modulus_bits=32, clip_range=1.5, max_summands=64)

    def run(plane, timer=None):
        return ALL_PLANES[plane](
            inputs, min_group_size=10, threshold_fraction=0.66,
            quantizer=q, rng=np.random.default_rng(5),
            dropouts=_fleet_drops(30), timer=timer,
        )[:2]

    for plane in ALL_PLANES:
        _, metrics = run(plane)
        for m in metrics:
            assert m.key_agreement_seconds == 0.0
            assert m.masking_seconds == 0.0
            assert m.recovery_seconds == 0.0
    ticks = iter(float(i) for i in range(1000))
    _, metrics = run("vectorized", timer=lambda: next(ticks))
    phase_total = sum(
        m.key_agreement_seconds + m.masking_seconds + m.recovery_seconds
        for m in metrics
    )
    assert phase_total > 0.0


def test_grouped_phases_sum_to_the_timed_span_under_a_step_clock():
    """The groups run in turn on one clock, each phase of each group one
    lap of it; across groups the four phases add up to the whole span
    the timer saw."""
    reads: list[float] = []

    def step_clock():
        reads.append(float(len(reads)))
        return reads[-1]

    _, metrics = grouped_secure_sum(
        _fleet(n=30), min_group_size=10, threshold_fraction=0.66,
        quantizer=VectorQuantizer(
            modulus_bits=32, clip_range=1.5, max_summands=64
        ),
        rng=np.random.default_rng(5), dropouts=_fleet_drops(30),
        timer=step_clock,
    )
    assert len(metrics) == 3
    assert [m.sharing_seconds for m in metrics] == [1.0, 1.0, 1.0]
    assert sum(
        m.sharing_seconds + m.key_agreement_seconds + m.masking_seconds
        + m.recovery_seconds
        for m in metrics
    ) == pytest.approx(reads[-1] - reads[0])
