"""The vectorized plane vs the per-device reference: byte-identity,
boundaries, error parity.

The plane's contract is not "approximately the same sum" — it is
byte-for-byte equivalence of every observable artifact with the
per-device reference protocol (``tests/reference/secagg.py``) from the
same rng: masked vectors, delivered shares, ring sum, decoded total,
server metrics, post-run rng position, and the exact SecAggError on
every failure path.
"""

import inspect
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.secagg
from reference import secagg as reference
from repro.secagg.grouped import (
    grouped_secure_sum,
    grouped_secure_sum_transcripts,
)
from repro.secagg.masking import VectorQuantizer
from repro.secagg.protocol import (
    DropoutSchedule,
    SecAggError,
    run_secure_aggregation,
    run_secure_aggregation_transcript,
)


def quantizer(n=16):
    return VectorQuantizer(modulus_bits=32, clip_range=4.0, max_summands=n)


def make_inputs(n=12, dim=33, seed=5):
    r = np.random.default_rng(seed)
    return {100 + u: r.uniform(-3, 3, size=dim) for u in range(n)}


#: The per-device reference and the production plane, one entry each.
RUNS = {
    "scalar": reference.run_secure_aggregation_transcript,
    "vectorized": run_secure_aggregation_transcript,
}


def run_both(inputs, threshold, dropouts, seed=2019, q=None):
    """Run the reference and the plane, each from a fresh identically-seeded
    rng; return both (total, metrics, transcript, rng-position probe)
    tuples."""
    out = {}
    for plane, run in RUNS.items():
        rng = np.random.default_rng(seed)
        total, metrics, transcript = run(
            inputs, threshold, q or quantizer(), rng, dropouts
        )
        out[plane] = (total, metrics, transcript, rng.bytes(8))
    return out["scalar"], out["vectorized"]


def assert_identical(scalar, vectorized):
    (t_s, m_s, tr_s, probe_s), (t_v, m_v, tr_v, probe_v) = scalar, vectorized
    assert np.array_equal(t_s, t_v)
    assert t_s.dtype == t_v.dtype
    assert m_s == m_v
    assert probe_s == probe_v  # both planes consumed the same rng draws
    assert set(tr_s.masked) == set(tr_v.masked)
    for uid in tr_s.masked:
        assert np.array_equal(tr_s.masked[uid], tr_v.masked[uid])
        assert tr_s.masked[uid].dtype == np.uint64
    assert tr_s.shares == tr_v.shares
    assert np.array_equal(tr_s.ring_sum, tr_v.ring_sum)


@pytest.fixture
def kernel_counts(monkeypatch):
    """Count the pairs the plane agrees and the rows it expands, by
    wrapping the kernels its module calls."""
    import repro.secagg.vectorized as plane

    counts = {"agreed": 0, "expanded": 0}
    agree, expand = plane.agree_pairs_batch, plane.prg_expand_batch

    def counted_agree(pairs):
        counts["agreed"] += len(pairs)
        return agree(pairs)

    def counted_expand(seeds, *args, **kwargs):
        counts["expanded"] += len(seeds)
        return expand(seeds, *args, **kwargs)

    monkeypatch.setattr(plane, "agree_pairs_batch", counted_agree)
    monkeypatch.setattr(plane, "prg_expand_batch", counted_expand)
    return counts


def round_two_work(shared, share_then_drop):
    """The round-3 work law: the kernel work of a group whose ``shared``
    devices shared keys, ``share_then_drop`` of them never committing, is
    round 2's alone — each pair with a committed endpoint agreed once,
    and its mask and each committer's self mask expanded once.  Round 3
    reads its dangling seeds, their masks and the self masks back."""
    dropped_pairs = share_then_drop * (share_then_drop - 1) // 2
    pairs = shared * (shared - 1) // 2 - dropped_pairs
    return {"agreed": pairs, "expanded": pairs + shared - share_then_drop}


@pytest.mark.parametrize(
    "dropouts",
    [
        DropoutSchedule.none(),
        DropoutSchedule(after_advertise=frozenset({103, 110})),
        DropoutSchedule(after_share=frozenset({101, 105})),
        DropoutSchedule(after_mask=frozenset({102, 111})),
        DropoutSchedule(
            after_advertise=frozenset({100}),
            after_share=frozenset({104, 109}),
            after_mask=frozenset({106, 111}),
        ),
    ],
    ids=["none", "after_advertise", "after_share", "after_mask", "all_stages"],
)
def test_planes_byte_identical_across_dropout_stages(dropouts, kernel_counts):
    scalar, vectorized = run_both(make_inputs(), threshold=7, dropouts=dropouts)
    assert_identical(scalar, vectorized)
    assert kernel_counts == round_two_work(
        12 - len(dropouts.after_advertise), len(dropouts.after_share)
    )
    # and the sum is still correct
    total, metrics, _, _ = vectorized
    survivors = set(make_inputs()) - dropouts.after_advertise - dropouts.after_share
    expected = sum(v for u, v in make_inputs().items() if u in survivors)
    assert np.abs(total - expected).max() <= quantizer().max_quantization_error(12)
    assert metrics.succeeded


def test_exactly_threshold_survivors_boundary():
    """t committers remain after round 3 — the minimum that can unmask."""
    inputs = make_inputs(n=10)
    dropouts = DropoutSchedule(
        after_share=frozenset({100}),          # one dangling-mask recovery
        after_mask=frozenset({101, 109}),      # 9 committed, 7 respond = t
    )
    scalar, vectorized = run_both(inputs, threshold=7, dropouts=dropouts)
    assert_identical(scalar, vectorized)
    _, metrics, _, _ = vectorized
    assert metrics.committed == 9
    assert metrics.dropped_after_commit == 2
    assert metrics.key_agreements == 9  # 1 dropped x 9 survivors


@pytest.mark.parametrize(
    "n,dropouts,expected",
    [
        (
            6, DropoutSchedule.none(),
            "only 6 devices advertised keys, threshold is 7",
        ),
        (
            10, DropoutSchedule(after_advertise=frozenset(range(100, 106))),
            "only 4 devices shared keys, threshold is 7",
        ),
        (
            10, DropoutSchedule(after_share=frozenset(range(100, 106))),
            "only 4 devices committed, threshold is 7",
        ),
        (
            10, DropoutSchedule(after_mask=frozenset(range(100, 106))),
            "only 4 devices answered unmasking, threshold is 7",
        ),
    ],
    ids=["advertise_keys", "share_keys", "commit", "unmask"],
)
def test_below_threshold_error_identical_on_both_planes(n, dropouts, expected):
    inputs = make_inputs(n=n)
    observed = {}
    for plane, run in (
        ("scalar", reference.run_secure_aggregation_transcript),
        ("vectorized", run_secure_aggregation),
    ):
        rng = np.random.default_rng(2019)
        with pytest.raises(SecAggError) as exc:
            run(inputs, 7, quantizer(), rng, dropouts)
        # Error message, type, and the rng position afterwards all match:
        # a fleet that catches the error and reuses the rng stays
        # deterministic regardless of plane.
        observed[plane] = (str(exc.value), rng.bytes(8))
    assert observed["scalar"] == observed["vectorized"]
    assert observed["scalar"][0] == expected


@pytest.mark.parametrize(
    "threshold", [1, 0, -3, True, False, 2.0, 6.5, float("nan"), None, "6"],
)
@pytest.mark.parametrize(
    "run", [run_secure_aggregation, run_secure_aggregation_transcript],
)
def test_unsafe_threshold_refused_before_any_draw(run, threshold):
    """At threshold 1 any single share reconstructs a secret: a threshold
    that is not an integer >= 2 is refused by name, and the rng is where
    it was."""
    rng = np.random.default_rng(2019)
    with pytest.raises(ValueError, match="threshold"):
        run(make_inputs(n=8), threshold, quantizer(), rng)
    assert rng.bytes(8) == np.random.default_rng(2019).bytes(8)


def test_grouped_secure_sum_identical_across_planes(kernel_counts):
    """Three groups, a share-then-drop device in each of the first two:
    the reference's sums and metrics, and the round-3 work law summed
    over the groups (no device leaves before sharing)."""
    inputs = make_inputs(n=40, dim=17)
    dropouts = DropoutSchedule(
        after_share=frozenset({103, 117}), after_mask=frozenset({125})
    )
    results = {}
    for plane, run in (
        ("scalar", reference.grouped_secure_sum_transcripts),
        ("vectorized", grouped_secure_sum),
    ):
        total, metrics = run(
            inputs,
            min_group_size=12,
            threshold_fraction=0.66,
            quantizer=quantizer(n=40),
            rng=np.random.default_rng(7),
            dropouts=dropouts,
        )[:2]
        results[plane] = (total, metrics)
    t_s, m_s = results["scalar"]
    t_v, m_v = results["vectorized"]
    assert np.array_equal(t_s, t_v)
    assert m_s == m_v
    assert [m.dropped_before_commit for m in m_v] == [1, 1, 0]
    work = [round_two_work(m.cohort_size, m.dropped_before_commit) for m in m_v]
    assert kernel_counts == {k: sum(w[k] for w in work) for k in kernel_counts}


def test_secagg_surface_is_pinned():
    """One protocol in ``repro.secagg``: no plane to choose, and no scalar
    crypto exported (it lives in ``tests/reference/secagg.py``).  A
    second plane or a scalar primitive creeping back is a reviewed edit
    here."""
    assert set(repro.secagg.__all__) == {
        "FixedBaseTable", "SHAMIR_PRIME", "centered_mod",
        "share_secrets_batch", "reconstruct_secrets_batch",
        "agree_pairs_batch", "prg_expand_batch", "VectorQuantizer",
        "DropoutSchedule", "SecAggError", "SecAggMetrics", "SecAggTranscript",
        "run_secure_aggregation", "run_secure_aggregation_transcript",
        "grouped_secure_sum", "grouped_secure_sum_transcripts",
    }
    for entry in (
        run_secure_aggregation, run_secure_aggregation_transcript,
        grouped_secure_sum, grouped_secure_sum_transcripts,
    ):
        assert "plane" not in inspect.signature(entry).parameters, entry


def test_server_seconds_zero_without_timer_and_positive_with():
    ticks = iter(float(i) for i in range(100))
    inputs = make_inputs(n=8, dim=9)
    for run in RUNS.values():
        metrics = run(inputs, 6, quantizer(), np.random.default_rng(3))[1]
        assert metrics.server_seconds == 0.0
    _, metrics = run_secure_aggregation(
        inputs, 6, quantizer(), np.random.default_rng(3),
        timer=lambda: next(ticks),
    )
    assert metrics.server_seconds == 1.0  # two injected ticks, one apart


def test_phase_seconds_on_single_instance():
    inputs = make_inputs(n=8, dim=9)
    _, metrics = run_secure_aggregation(
        inputs, 6, quantizer(), np.random.default_rng(3)
    )
    assert (metrics.key_agreement_seconds, metrics.masking_seconds,
            metrics.recovery_seconds) == (0.0, 0.0, 0.0)
    ticks = iter(float(i) for i in range(100))
    _, metrics = run_secure_aggregation(
        inputs, 6, quantizer(), np.random.default_rng(3),
        timer=lambda: next(ticks),
    )
    assert metrics.key_agreement_seconds > 0.0
    assert metrics.masking_seconds > 0.0
    # Phases partition the instrumented span.
    assert (
        metrics.key_agreement_seconds
        + metrics.masking_seconds
        + metrics.recovery_seconds
    ) > 0.0


def test_phases_sum_to_the_timed_span_under_a_step_clock():
    """Each timer read advances one second, so every phase is a count of
    reads: the prologue (rounds 0–1) is one lap, each sweep one lap, and
    the four phases add up to the whole span the timer saw."""
    reads: list[float] = []

    def step_clock():
        reads.append(float(len(reads)))
        return reads[-1]

    _, metrics = run_secure_aggregation(
        make_inputs(n=8, dim=9), 6, quantizer(), np.random.default_rng(3),
        dropouts=DropoutSchedule(after_share=frozenset({101})),
        timer=step_clock,
    )
    phases = (
        metrics.sharing_seconds, metrics.key_agreement_seconds,
        metrics.masking_seconds, metrics.recovery_seconds,
    )
    assert phases == (1.0, 1.0, 1.0, 1.0)
    assert sum(phases) == reads[-1] - reads[0]


# -- generated equivalence law -----------------------------------------------

#: The stages a device can leave the protocol after (or never leave).
STAGES = ("survivor", "after_advertise", "after_share", "after_mask")
#: Each device's stage: a survivor five times in eight, so that most
#: generated instances clear every threshold and reach round 3.
stage_of = st.sampled_from(STAGES[:1] * 5 + STAGES[1:])


def split(uids, stages):
    """A ``DropoutSchedule`` putting ``uids[i]`` in ``stages[i]``."""
    return DropoutSchedule(**{
        stage: frozenset(u for u, s in zip(uids, stages) if s == stage)
        for stage in STAGES[1:]
    })


@dataclass(frozen=True)
class Case:
    """One generated instance: the uids in insertion order, each
    device's input drawn from ``input_seed`` in that order."""

    uids: tuple
    dim: int
    modulus_bits: int
    max_summands: int
    threshold: int
    dropouts: DropoutSchedule
    input_seed: int = 5
    rng_seed: int = 2019

    def inputs(self):
        r = np.random.default_rng(self.input_seed)
        return {uid: r.uniform(-3, 3, size=self.dim) for uid in self.uids}

    def quantizer(self):
        return VectorQuantizer(
            modulus_bits=self.modulus_bits, clip_range=4.0,
            max_summands=self.max_summands,
        )


@st.composite
def cases(draw):
    n = draw(st.integers(2, 24))
    uids = draw(st.lists(
        st.integers(0, 999), min_size=n, max_size=n, unique=True
    ))
    stages = draw(st.lists(stage_of, min_size=n, max_size=n))
    return Case(
        uids=tuple(uids),
        dim=draw(st.integers(1, 40)),
        modulus_bits=draw(st.integers(8, 48)),
        # clip 4 * at most 31 summands < 2^7: valid at every ring size.
        max_summands=draw(st.integers(n, 31)),
        threshold=draw(st.integers(2, n + 1)),
        dropouts=split(uids, stages),
        input_seed=draw(st.integers(0, 2**32 - 1)),
        rng_seed=draw(st.integers(0, 2**32 - 1)),
    )


def outcome(run, rng, *args, **kwargs):
    """``run``'s result, or its SecAggError message — with the rng's next
    eight bytes either way."""
    try:
        result = run(*args, rng=rng, **kwargs)
    except SecAggError as exc:
        result = str(exc)
    return result, rng.bytes(8)


def hand_picked(dropouts, n=12, threshold=7):
    """The hand-written schedules above: uids 100.., dim 33, t=7, seed 2019."""
    return Case(
        uids=tuple(range(100, 100 + n)), dim=33, modulus_bits=32,
        max_summands=16, threshold=threshold, dropouts=dropouts,
    )


@given(case=cases())
@example(case=hand_picked(DropoutSchedule.none()))
@example(case=hand_picked(DropoutSchedule(after_advertise=frozenset({103, 110}))))
@example(case=hand_picked(DropoutSchedule(after_share=frozenset({101, 105}))))
@example(case=hand_picked(DropoutSchedule(after_mask=frozenset({102, 111}))))
@example(case=hand_picked(DropoutSchedule(
    after_advertise=frozenset({100}), after_share=frozenset({104, 109}),
    after_mask=frozenset({106, 111}),
)))
@example(case=hand_picked(DropoutSchedule(
    after_share=frozenset({100}), after_mask=frozenset({101, 109}),
), n=10))
@example(case=hand_picked(
    DropoutSchedule(after_advertise=frozenset(range(100, 106))), n=10
))
@example(case=hand_picked(
    DropoutSchedule(after_share=frozenset(range(100, 106))), n=10
))
@example(case=hand_picked(
    DropoutSchedule(after_mask=frozenset(range(100, 106))), n=10
))
@settings(max_examples=40, deadline=None)
def test_plane_equals_reference_on_generated_instances(case):
    """Any cohort, ring, threshold and dropout split: the plane and the
    reference either raise the same SecAggError or agree on total,
    metrics and transcript — and leave the rng at the same position."""
    (ref, ref_probe), (got, got_probe) = (
        outcome(run, np.random.default_rng(case.rng_seed), case.inputs(),
                case.threshold, case.quantizer(), dropouts=case.dropouts)
        for run in RUNS.values()
    )
    if isinstance(ref, str) or isinstance(got, str):
        assert (got, got_probe) == (ref, ref_probe)
    else:
        assert_identical((*ref, ref_probe), (*got, got_probe))


@st.composite
def grouped_cases(draw):
    """1–4 groups: ``n`` devices with ``n // k`` = the group count."""
    groups = draw(st.integers(1, 4))
    k = draw(st.integers(2, 8))
    n = draw(st.integers(groups * k, groups * k + k - 1))
    uids = draw(st.lists(
        st.integers(0, 999), min_size=n, max_size=n, unique=True
    ))
    stages = draw(st.lists(stage_of, min_size=n, max_size=n))
    case = Case(
        uids=tuple(uids), dim=draw(st.integers(1, 40)),
        modulus_bits=draw(st.integers(8, 48)), max_summands=31,
        threshold=0,  # unused: each group's comes from the fraction
        dropouts=split(uids, stages),
        input_seed=draw(st.integers(0, 2**32 - 1)),
        rng_seed=draw(st.integers(0, 2**32 - 1)),
    )
    fraction = draw(st.floats(0.5, 1.0, exclude_min=True))
    return case, k, fraction


@given(grouped=grouped_cases())
@settings(max_examples=40, deadline=None)
def test_grouped_plane_equals_reference_on_generated_instances(grouped):
    """The grouped plane against the reference's group-by-group run:
    the same error at the same rng position, or the same folded total,
    per-group metrics and per-group transcripts."""
    case, k, fraction = grouped
    (ref, ref_probe), (got, got_probe) = (
        outcome(run, np.random.default_rng(case.rng_seed), case.inputs(), k,
                fraction, case.quantizer(), dropouts=case.dropouts)
        for run in (
            reference.grouped_secure_sum_transcripts,
            grouped_secure_sum_transcripts,
        )
    )
    if isinstance(ref, str) or isinstance(got, str):
        assert (got, got_probe) == (ref, ref_probe)
        return
    assert len(ref[1]) == len(got[1]) == len(case.uids) // k
    for r_metrics, r_tr, g_metrics, g_tr in zip(ref[1], ref[2], got[1], got[2]):
        assert_identical(
            (ref[0], r_metrics, r_tr, ref_probe),
            (got[0], g_metrics, g_tr, got_probe),
        )


def test_a_seed_round_two_never_held_is_expanded():
    """The miss path: a seed outside round 2's expansion comes back as
    ``prg_expand_batch`` makes it, beside the rows read back."""
    from repro.secagg.prg import prg_expand_batch
    from repro.secagg.vectorized import _expand_held

    held = [11, 22, (1 << 120) - 3]
    rows = prg_expand_batch(held, 17, 32)
    fresh = 12345
    np.testing.assert_array_equal(
        _expand_held([22, fresh, 11, fresh], held, rows, 32),
        prg_expand_batch([22, fresh, 11, fresh], 17, 32),
    )
    nothing_held = prg_expand_batch([], 17, 32)
    np.testing.assert_array_equal(
        _expand_held([fresh], [], nothing_held, 32),
        prg_expand_batch([fresh], 17, 32),
    )
