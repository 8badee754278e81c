"""Diurnal model: the 4x availability swing and hazard consistency."""

from bisect import bisect_right
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.diurnal import (
    AvailabilityProcess,
    DiurnalModel,
    _rate_tables,
    sample_transitions,
)
from repro.sim.event_loop import SECONDS_PER_DAY, SECONDS_PER_HOUR


def test_peak_to_trough_ratio_is_4x():
    model = DiurnalModel(amplitude=0.6)
    hours = np.linspace(0, 24, 1000)
    fractions = [model.eligible_fraction(h * SECONDS_PER_HOUR) for h in hours]
    assert max(fractions) / min(fractions) == pytest.approx(4.0, rel=1e-3)


def test_peak_is_at_peak_hour():
    model = DiurnalModel(peak_hour=2.0)
    at_peak = model.eligible_fraction(2.0 * SECONDS_PER_HOUR)
    at_trough = model.eligible_fraction(14.0 * SECONDS_PER_HOUR)
    assert at_peak > at_trough
    hours = np.arange(0, 24, 0.25)
    best = hours[np.argmax([model.eligible_fraction(h * 3600) for h in hours])]
    assert best == pytest.approx(2.0, abs=0.25)


@pytest.mark.parametrize(
    "law",
    [
        {"base_eligible_fraction": -0.1},   # negative hazards: delays < 0
        {"base_eligible_fraction": 0.0},    # rate_on == 0: nobody ever wakes
        {"base_eligible_fraction": 1.5},
        {"mean_eligible_minutes": -5.0},    # negative hazards
        {"mean_eligible_minutes": 0.0},
        {"amplitude": float("nan")},        # no row ever flips or checks in
        {"amplitude": 1.0},                 # rate_off touches 0 at the peak
        {"amplitude": -0.2},
        {"peak_hour": float("inf")},
    ],
)
def test_law_without_finite_positive_hazards_fails_at_construction(law):
    with pytest.raises(ValueError, match=next(iter(law))):
        DiurnalModel(**law)


def test_degenerate_but_lawful_models_construct():
    DiurnalModel(amplitude=0.0, base_eligible_fraction=1.0, mean_eligible_minutes=1e9)


def test_rate_off_is_higher_during_the_day():
    """Fig. 7: drop-out is higher in daytime (users pick up their phones)."""
    model = DiurnalModel(peak_hour=2.0)
    assert model.rate_off(14 * SECONDS_PER_HOUR) > model.rate_off(2 * SECONDS_PER_HOUR)


def test_stationary_fraction_matches_hazard_ratio():
    model = DiurnalModel()
    for hour in (0, 6, 12, 18):
        t = hour * SECONDS_PER_HOUR
        on, off = model.rate_on(t), model.rate_off(t)
        stationary = on / (on + off)
        assert stationary == pytest.approx(
            min(model.eligible_fraction(t), 0.97), rel=1e-9
        )


@given(st.floats(min_value=0.0, max_value=7 * SECONDS_PER_DAY))
@settings(max_examples=50, deadline=None)
def test_modulation_stays_in_band(t):
    model = DiurnalModel(amplitude=0.6)
    assert 0.4 - 1e-9 <= model.modulation(t) <= 1.6 + 1e-9


def test_availability_process_transitions_positive(rng):
    process = AvailabilityProcess(DiurnalModel(), tz_offset_hours=-8.0, rng=rng)
    for t in (0.0, 40_000.0, 80_000.0):
        assert process.time_until_eligible(t) > 0
        assert process.time_until_ineligible(t) > 0


def test_eligible_durations_average_near_configured_mean(rng):
    model = DiurnalModel(mean_eligible_minutes=45.0, amplitude=0.6)
    process = AvailabilityProcess(model, tz_offset_hours=0.0, rng=rng)
    # At the availability peak the off-hazard is lowest; sample many
    # durations across the day and compare to the configured scale.
    samples = [
        process.time_until_ineligible(t)
        for t in np.linspace(0, SECONDS_PER_DAY, 400)
    ]
    mean_minutes = np.mean(samples) / 60.0
    assert 25.0 < mean_minutes < 80.0


def test_more_devices_eligible_at_night(rng):
    model = DiurnalModel(peak_hour=2.0)
    process = AvailabilityProcess(model, tz_offset_hours=0.0, rng=rng)
    night = 2 * SECONDS_PER_HOUR
    day = 14 * SECONDS_PER_HOUR
    night_count = sum(
        process.is_initially_eligible(night) for _ in range(2000)
    )
    day_count = sum(process.is_initially_eligible(day) for _ in range(2000))
    assert night_count > 2.0 * day_count


@lru_cache(maxsize=None)
def oracle_table(model, to_eligible):
    """Per-minute hazard ``rates`` and their running integral ``cum``."""
    rates = (model.rate_on if to_eligible else model.rate_off)(
        np.arange(1440) * 60.0
    )
    return rates.tolist(), np.concatenate(([0.0], np.cumsum(rates * 60.0))).tolist()


def scalar_transition_oracle(model, wall_time_s, tz_offset_s, to_eligible, exp1):
    """The scalar inversion formula :func:`sample_transitions` replaced,
    kept as its oracle: burn the cumulative hazard up to the current
    local phase, add the Exp(1) draw, and invert."""
    rates, cum = oracle_table(model, to_eligible)
    phase = (wall_time_s + tz_offset_s) % SECONDS_PER_DAY
    k0 = int(phase / 60.0)
    target = cum[k0] + rates[k0] * (phase - k0 * 60.0) + exp1
    whole_days, remainder = divmod(target, cum[-1])
    k = bisect_right(cum, remainder) - 1
    hit_phase = k * 60.0 + (remainder - cum[k]) / rates[k]
    return whole_days * SECONDS_PER_DAY + hit_phase - phase


@pytest.mark.parametrize(
    "model",
    [DiurnalModel(), DiurnalModel(amplitude=0.0, base_eligible_fraction=0.7,
                                  mean_eligible_minutes=240.0)],
)
def test_batched_inversion_equals_the_scalar_formula_bit_for_bit(model, rng):
    n = 4000
    now = rng.uniform(0.0, 9 * SECONDS_PER_DAY, n)
    tz = rng.integers(-12, 15, n) * SECONDS_PER_HOUR
    to_eligible = rng.random(n) < 0.5
    # Exp(1) draws, some stretched past one and several days of hazard.
    exp1 = rng.exponential(1.0, n) * rng.choice([1.0, 1.0, 40.0, 400.0], n)
    # Day wrap and bucket edges: local phases exactly on a minute edge,
    # at midnight, and one ulp either side of an edge.
    edge = rng.integers(0, 1440, n // 4) * 60.0
    now[: n // 4] = edge - tz[: n // 4]
    now[n // 4 : n // 2] = np.nextafter(
        edge, rng.choice([-np.inf, np.inf], n // 4)
    ) - tz[n // 4 : n // 2]
    now[:8] = -tz[:8]
    # One call per distinct wall time (the sampler takes a scalar time).
    for t in np.unique(now)[:600]:
        at = now == t
        got = sample_transitions(model, float(t), tz[at], to_eligible[at], exp1[at])
        want = [
            scalar_transition_oracle(model, float(t), float(z), bool(e), float(x))
            for z, e, x in zip(tz[at], to_eligible[at], exp1[at])
        ]
        assert got.tolist() == want
    # ... and one big batch at a single instant, every time zone at once.
    t = 3.7 * SECONDS_PER_DAY
    got = sample_transitions(model, t, tz, to_eligible, exp1)
    want = [
        scalar_transition_oracle(model, t, float(z), bool(e), float(x))
        for z, e, x in zip(tz, to_eligible, exp1)
    ]
    assert got.tolist() == want
    assert (got > 0).all() and got.max() > 2 * SECONDS_PER_DAY


def test_tabulated_sampler_matches_thinning_in_distribution(rng):
    """The idle plane's batched sampler draws from the same law as
    thinning (up to the per-minute hazard discretisation): compare mean
    delays from many samples at several times of day, both transitions."""
    model = DiurnalModel()
    tz = np.full(1500, -8.0 * SECONDS_PER_HOUR)
    for attr, to_eligible in (
        ("time_until_ineligible", False), ("time_until_eligible", True)
    ):
        for t0 in (0.0, 6 * SECONDS_PER_HOUR, 15 * SECONDS_PER_HOUR):
            slow_p = AvailabilityProcess(
                model, tz_offset_hours=-8.0, rng=np.random.default_rng(1)
            )
            slow = np.mean([getattr(slow_p, attr)(t0) for _ in range(1500)])
            fast = sample_transitions(
                model, t0, tz, np.full(1500, to_eligible),
                np.random.default_rng(2).exponential(1.0, 1500),
            ).mean()
            assert 0.85 < fast / slow < 1.18, (attr, t0, slow, fast)


def test_tabulated_sampler_is_strictly_positive_and_deterministic(rng):
    tz = np.full(5, 3.0 * SECONDS_PER_HOUR)
    both = np.array([True, False, True, False, True])
    for t in (0.0, 12_345.0, 5 * SECONDS_PER_DAY + 17.0):
        delays = sample_transitions(
            DiurnalModel(), t, tz, both, rng.exponential(1.0, 5)
        )
        assert (delays > 0).all()
    draws = [
        sample_transitions(
            DiurnalModel(), 4.0, tz, both,
            np.random.default_rng(9).exponential(1.0, 5),
        )
        for _ in range(2)
    ]
    assert draws[0].tolist() == draws[1].tolist()


# -- one search per row, against the two-table form it replaced --------------------


def two_search_transitions(model, wall_time_s, tz_offset_s, to_eligible, exp1):
    """:func:`sample_transitions` as it was before each row searched once:
    every row searched in both hazard tables, one result kept by ``where``."""
    tables = _rate_tables(model)
    bucket_s = tables.bucket_s
    phase = (wall_time_s + tz_offset_s) % SECONDS_PER_DAY
    k0 = (phase / bucket_s).astype(np.intp)
    row = to_eligible.astype(np.intp)
    base = row * tables.stride
    at = base + k0
    target = tables.cum[at] + tables.rates[at] * (phase - k0 * bucket_s) + exp1
    whole_days, remainder = np.divmod(target, tables.total[row])
    cum_off, cum_on = tables.cum[: tables.stride], tables.cum[tables.stride :]
    k = np.where(
        to_eligible,
        cum_on.searchsorted(remainder, "right"),
        cum_off.searchsorted(remainder, "right"),
    ) - 1
    at = base + k
    hit_phase = k * bucket_s + (remainder - tables.cum[at]) / tables.rates[at]
    return whole_days * SECONDS_PER_DAY + hit_phase - phase


LAWS = [DiurnalModel(), DiurnalModel(amplitude=0.0, base_eligible_fraction=0.7,
                                     mean_eligible_minutes=20.0)]


@st.composite
def laws_and_draws(draw):
    """A law and Exp(1) draws that, at local midnight (phase 0, so the
    remainder *is* the draw), land on an entry of either of its tables, on
    0, and just below each table's total — beside arbitrary ones."""
    law = draw(st.sampled_from(LAWS))
    tables = _rate_tables(law)
    edges = [*tables.cum.tolist(), *np.nextafter(tables.total, 0.0).tolist()]
    near = st.sampled_from(edges).flatmap(lambda x: st.sampled_from(
        [x, float(np.nextafter(x, np.inf)), float(np.nextafter(x, -np.inf))]
    )).filter(lambda x: x >= 0.0)
    values = st.one_of(near, st.floats(0.0, 40.0 * float(tables.total.max())))
    return law, np.array(draw(st.lists(values, min_size=1, max_size=40)))


@given(
    law_and_exp1=laws_and_draws(),
    eligible=st.lists(st.booleans(), min_size=40, max_size=40),
    day=st.integers(0, 9),
    shift=st.sampled_from([0.0, 37.5, 59.999, 0.25 * SECONDS_PER_DAY]),
)
@settings(max_examples=60, deadline=None)
def test_one_search_per_row_equals_the_two_table_form(law_and_exp1, eligible, day, shift):
    law, exp1 = law_and_exp1
    to_eligible = np.array(eligible[: exp1.size])
    # Each time zone's local midnight (``shift`` 0), or a phase off it.
    for offset in (-8.0 * SECONDS_PER_HOUR, 0.0, 5.5 * SECONDS_PER_HOUR):
        now = day * SECONDS_PER_DAY - offset + shift
        tz = np.full(exp1.size, offset)
        got = sample_transitions(law, now, tz, to_eligible, exp1)
        want = two_search_transitions(law, now, tz, to_eligible, exp1)
        assert got.tobytes() == want.tobytes()
