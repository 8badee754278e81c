"""ABL-PIPE — Selection gap ablation (Sec. 4.3).

"the Selection phase doesn't depend on any input from a previous round
[so it can run] in parallel with the Configuration/Reporting phases of a
previous round".

Regenerates: committed-round throughput with no selection gap between
rounds against a 240 s gap.  It does not measure Sec. 4.3's overlap yet:
a forwarding Selector bounces the rows its round cannot take, so the pool
is empty when a round ends, and ``pipelining=True`` commits what
``pipelining=False`` with a zero gap does (ROADMAP.md, "Sec. 4.3
pipelining, for real").
"""

import numpy as np

from repro import FLFleet, RoundConfig, TaskConfig
from repro.actors.coordinator import CoordinatorConfig
from repro.device.scheduler import JobSchedule
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig


def run_fleet(pipelining: bool, hours: float = 4.0) -> int:
    task = TaskConfig(
        task_id="pipe/train",
        population_name="pipe",
        round_config=RoundConfig(
            target_participants=12, selection_timeout_s=45,
            reporting_timeout_s=120,
        ),
    )
    model = LogisticRegression(input_dim=4, n_classes=2)
    fleet = (
        FLFleet.builder()
        .seed(31)
        .devices(PopulationConfig(num_devices=600))
        .selectors(2)
        .job(JobSchedule(500.0, 0.5))
        .coordinator(
            CoordinatorConfig(pipelining=pipelining, inter_round_gap_s=240.0)
        )
        .population("pipe", tasks=[task], model=model.init(np.random.default_rng(0)))
        .build()
    )
    fleet.run_for(hours * 3600)
    return len(fleet.committed_rounds)


def test_ablation_pipelining(benchmark):
    def run_both():
        return {
            "pipelined_rounds": run_fleet(True),
            "sequential_rounds": run_fleet(False),
        }

    stats = benchmark.pedantic(run_both, rounds=1, iterations=1)
    speedup = stats["pipelined_rounds"] / max(stats["sequential_rounds"], 1)

    print("\n=== ABL-PIPE: round throughput over 4 simulated hours ===")
    print(f"no selection gap:       {stats['pipelined_rounds']} rounds")
    print(f"240s selection gap:     {stats['sequential_rounds']} rounds")
    print(f"throughput gain of no gap: {speedup:.2f}x")

    benchmark.extra_info.update(stats)
    assert speedup > 1.3
