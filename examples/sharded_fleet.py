"""A multi-tenant fleet on a sharded control plane (ISSUE 10).

Six FL populations share one 900-device fleet whose eight Selectors are
split into four shards by a consistent-hash :class:`ShardRouter`: each
tenant's routes, check-in traffic, and admission quotas live only on its
owning shard's selectors, and each round folds leaf aggregates through a
per-shard tier of shard aggregators before the MasterAggregator commits.

The run prints the tenant->shard map, then per-shard admission totals
(summed over the shard's selectors) and per-shard fold counts (the
``shards/<s>/folds`` dashboard counters) — the two signals that show the
control plane actually partitioned the work.

    python examples/sharded_fleet.py
"""

import numpy as np

from repro import FLFleet, RoundConfig, TaskConfig
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig

NUM_SHARDS = 4
NUM_SELECTORS = 8
TENANTS = ["keyboard", "asr", "ocr", "telemetry", "ranker", "spellcheck"]


def main() -> None:
    seed = 23
    model = LogisticRegression(input_dim=6, n_classes=3)
    params = model.init(np.random.default_rng(seed))

    builder = (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=900))
        .selectors(NUM_SELECTORS)
        .selector_shards(NUM_SHARDS)
        .job(JobSchedule(1200.0, 0.5))
    )
    for name in TENANTS:
        builder = builder.population(
            name,
            tasks=[
                TaskConfig(
                    task_id=f"{name}/train",
                    population_name=name,
                    round_config=RoundConfig(
                        target_participants=10,
                        selection_timeout_s=90,
                        reporting_timeout_s=180,
                    ),
                )
            ],
            model=params,
            membership=0.5,
        )
    fleet = builder.build()

    print(f"== Tenant -> shard assignment ({NUM_SHARDS} shards, "
          f"{NUM_SELECTORS} selectors) ==")
    for name in TENANTS:
        shard = fleet.shards.shard_of(name)
        indices = fleet.shard_selector_indices(name)
        print(f"  {name:<10s} -> shard {shard}  (selectors {list(indices)})")

    print("\nsimulating 8 hours of the sharded fleet...")
    fleet.run_for(8 * 3600)
    report = fleet.report()

    print("\n== Per-tenant rounds ==")
    for pop in report.populations:
        print(f"  {pop.name:<10s} rounds run/committed: "
              f"{pop.rounds_total} / {pop.rounds_committed}")

    # Admission work, grouped by the shard that owns each selector: on a
    # sharded plane a selector only ever sees check-ins for populations
    # its shard hosts.
    selectors = fleet.selector_actors()
    counters = fleet.dashboard.counters()
    print("\n== Per-shard control-plane work ==")
    total_folds = 0
    for shard in range(NUM_SHARDS):
        indices = fleet.shards.selector_indices(shard)
        routes = [r for i in indices for r in selectors[i].routes.values()]
        checkins = sum(route.stats.checkins for route in routes)
        accepted = sum(route.stats.accepted for route in routes)
        folds = int(counters.get(f"shards/{shard}/folds", 0))
        total_folds += folds
        tenants = [t for t in TENANTS if fleet.shards.shard_of(t) == shard]
        print(f"  shard {shard} (selectors {list(indices)}): "
              f"{checkins} check-ins, {accepted} admitted, {folds} folds"
              f"  <- {', '.join(tenants) if tenants else '(no tenants)'}")
    assert total_folds > 0, "sharded rounds must fold through the tree"

    print(f"\nrounds committed (all tenants): {report.rounds_committed}")


if __name__ == "__main__":
    main()
