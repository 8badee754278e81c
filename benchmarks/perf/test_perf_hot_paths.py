"""Perf harness smoke: the buffered plane must beat the functional one.

These are sanity floors, deliberately looser than the speedups recorded
in ``BENCH_hotpath.json`` (shared CI runners are noisy); the committed
reference numbers are guarded by the ``perf-smoke`` CI job via
``benchmarks/perf/run.py --check``.  Byte-identity of the two paths is
asserted inside every benchmark before it is timed, so simply running
the harness re-proves the equivalence claims.
"""

from __future__ import annotations

import json

import pytest

from repro.tools import perf

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

_REPEATS = 5


@pytest.fixture(scope="module")
def micro_results() -> dict:
    return {
        "client_update": perf.bench_client_update(_REPEATS),
        "sgd_step": perf.bench_sgd_step(_REPEATS),
        "aggregator_fold": perf.bench_aggregator_fold(_REPEATS),
        "weighted_mean": perf.bench_weighted_mean(_REPEATS),
        "vector_fold": perf.bench_vector_fold(3),
    }


def test_client_update_plane_speedup(micro_results):
    assert micro_results["client_update"]["speedup"] >= 2.0


def test_sgd_step_speedup(micro_results):
    assert micro_results["sgd_step"]["speedup"] >= 2.0


def test_aggregator_fold_speedup(micro_results):
    assert micro_results["aggregator_fold"]["speedup"] >= 2.0


def test_streaming_paths_no_slower(micro_results):
    # The leaf vector fold removes an allocation per report and must win.
    # weighted_mean used to pay per-call accumulator setup and lose to
    # the functional chain for one-shot means (0.9x); with the cached
    # per-layout accumulators and prebuilt views it must now win too.
    assert micro_results["vector_fold"]["speedup"] >= 1.0
    assert micro_results["weighted_mean"]["speedup"] >= 1.0


def test_harness_report_shape_and_write(tmp_path):
    # CI-sized values for every field: the test asserts the report's
    # shape, not its numbers.
    report = perf.run_harness(
        perf.HarnessConfig(
            repeats=2,
            scale_days=0.01,
            scale_counts=(300,),
            scale_baseline_counts=(300,),
            scale_profile_devices=None,
            sharded_days=0.02,
            sharded_cells=((300, 3),),
            sharded_shard_counts=(1, 2),
            sharded_selectors=4,
            secagg_clients=50,
        )
    )
    assert report["schema"] == perf.SCHEMA
    for name in perf.GUARDED:
        assert name in report["results"], name
        assert report["results"][name]["speedup"] > 0
    # The scale benchmarks prove same-seed determinism on the fleets
    # they time.
    assert report["results"]["fleet_scale"]["identical_run_reports"] is True
    assert report["results"]["fleet_scale_sharded"]["identical_run_reports"] is True
    assert report["results"]["fleet_scale"]["speedup_by_devices"].keys() == {"300"}
    assert report["environment"]["git_commit"]
    out = tmp_path / "bench.json"
    perf.write_report(report, str(out))
    loaded = json.loads(out.read_text())
    assert loaded["results"].keys() == report["results"].keys()


def test_check_against_reference_flags_regressions():
    reference = {
        "guarded": ["sgd_step"],
        "results": {"sgd_step": {"speedup": 4.0}},
    }
    good = {"results": {"sgd_step": {"speedup": 3.5}}}
    bad = {"results": {"sgd_step": {"speedup": 2.0}}}
    assert perf.check_against_reference(good, reference) == []
    failures = perf.check_against_reference(bad, reference)
    assert len(failures) == 1 and "sgd_step" in failures[0]


def test_check_against_reference_flags_benchmark_set_mismatch():
    """A benchmark guarded by the current harness but missing from the
    reference (rename, newly-promoted guard) must fail the check rather
    than silently skipping its regression gate."""
    reference = {
        "guarded": ["sgd_step"],
        "results": {"sgd_step": {"speedup": 4.0}},
    }
    # Harness grew a guarded benchmark the reference has never seen.
    report = {
        "guarded": ["sgd_step", "cohort_round_v2"],
        "results": {
            "sgd_step": {"speedup": 4.0},
            "cohort_round_v2": {"speedup": 2.0},
        },
    }
    failures = perf.check_against_reference(report, reference)
    assert len(failures) == 1
    assert "cohort_round_v2" in failures[0]
    assert "regenerate" in failures[0]
    # A reference guarding a benchmark the harness no longer produces
    # fails with a message naming the missing side.
    renamed = {
        "guarded": ["sgd_step"],
        "results": {"other": {"speedup": 1.0}},
    }
    failures = perf.check_against_reference(renamed, reference)
    assert any("not produced by this run" in f for f in failures)
