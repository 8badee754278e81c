"""SECAGG — Server cost grows quadratically with cohort size; groups cap it.

Paper (Sec. 6): "Several costs for Secure Aggregation grow quadratically
with the number of users, most notably the computational cost for the
server.  In practice, this limits the maximum size of a Secure
Aggregation to hundreds of users", motivating one SecAgg instance per
Aggregator over groups of size >= k.

Regenerates: server unmasking work vs cohort size at a fixed 10% post-
ShareKeys drop-out rate, and the grouped-mode comparison.
"""

import numpy as np

from repro.secagg.grouped import grouped_secure_sum
from repro.secagg.masking import VectorQuantizer
from repro.secagg.protocol import DropoutSchedule, run_secure_aggregation
from repro.tools.perf import wall_timer


DIM = 200
DROP_FRACTION = 0.10


def run_cohort(n: int, rng: np.random.Generator):
    inputs = {uid: rng.normal(size=DIM) for uid in range(n)}
    dropped = frozenset(range(0, n, int(1 / DROP_FRACTION)))
    quantizer = VectorQuantizer(modulus_bits=32, clip_range=6.0, max_summands=n)
    start = wall_timer()
    _, metrics = run_secure_aggregation(
        inputs,
        threshold=max(2, int(0.66 * n)),
        quantizer=quantizer,
        rng=rng,
        dropouts=DropoutSchedule(after_share=dropped),
        timer=wall_timer,
    )
    wall = wall_timer() - start
    return {
        "wall_s": wall,
        "server_s": metrics.server_seconds,
        "key_agreements": metrics.key_agreements,
        "prg_expansions": metrics.prg_expansions,
    }


def sweep_cohort_sizes(rng):
    return {n: run_cohort(n, rng) for n in (25, 50, 100, 200)}


def test_secagg_server_cost_quadratic(benchmark):
    rng = np.random.default_rng(5)
    table = benchmark.pedantic(
        sweep_cohort_sizes, args=(rng,), rounds=1, iterations=1
    )

    print("\n=== SECAGG: server cost vs cohort size (10% dropout) ===")
    print(f"{'n':>6}{'key agr.':>10}{'PRG exp.':>10}{'server s':>10}{'wall s':>9}")
    for n, row in table.items():
        print(
            f"{n:>6}{row['key_agreements']:>10}{row['prg_expansions']:>10}"
            f"{row['server_s']:>10.3f}{row['wall_s']:>9.2f}"
        )
    ka = {n: row["key_agreements"] for n, row in table.items()}
    print(
        f"key-agreement growth 25->50: {ka[50] / ka[25]:.1f}x, "
        f"50->100: {ka[100] / ka[50]:.1f}x, 100->200: {ka[200] / ka[100]:.1f}x "
        "(quadratic => ~4x per doubling)"
    )

    benchmark.extra_info.update({f"ka_n{n}": v for n, v in ka.items()})
    # Quadratic: doubling the cohort ~quadruples dropped x survivors work.
    assert ka[100] / ka[50] > 3.0
    assert ka[200] / ka[100] > 3.0


def test_secagg_grouping_caps_cost(benchmark):
    """Groups of >= k bound each instance's quadratic term (Sec. 6)."""
    rng = np.random.default_rng(6)

    def run_grouped():
        inputs = {uid: rng.normal(size=DIM) for uid in range(200)}
        dropped = frozenset(range(0, 200, 10))
        quantizer = VectorQuantizer(
            modulus_bits=32, clip_range=6.0, max_summands=256
        )
        total, metrics_list = grouped_secure_sum(
            inputs,
            min_group_size=50,
            threshold_fraction=0.66,
            quantizer=quantizer,
            rng=rng,
            dropouts=DropoutSchedule(after_share=dropped),
            timer=wall_timer,
        )
        return {
            "groups": len(metrics_list),
            "max_group_key_agreements": max(
                m.key_agreements for m in metrics_list
            ),
            "total_key_agreements": sum(
                m.key_agreements for m in metrics_list
            ),
        }

    stats = benchmark.pedantic(run_grouped, rounds=1, iterations=1)

    print("\n=== SECAGG: grouped mode, 200 users in groups of >= 50 ===")
    print(
        f"groups: {stats['groups']}; per-group key agreements "
        f"<= {stats['max_group_key_agreements']} "
        f"(single 200-cohort with same dropout: ~{20 * 180})"
    )

    benchmark.extra_info.update(stats)
    assert stats["groups"] == 4
    # Each group's quadratic term is bounded by group size, far below the
    # single-instance cost.
    assert stats["max_group_key_agreements"] <= 5 * 45
    assert stats["total_key_agreements"] < 20 * 180 / 2
