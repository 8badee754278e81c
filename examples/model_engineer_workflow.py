"""The Sec. 7 model-engineer workflow, end to end.

define -> validate -> (pre-train on proxy) -> generate plan -> pass the
four deployment gates -> serve versioned plans -> run in the simulated
fleet.  This is Fig. 4 as code.

    python examples/model_engineer_workflow.py
"""

import numpy as np

from repro import (
    ClientTrainingConfig,
    FLFleet,
    RoundConfig,
    TaskConfig,
)
from repro.core.datasets import ClientDataset
from repro.data.keyboard import KeyboardCorpusConfig, build_proxy_corpus
from repro.device.scheduler import JobSchedule
from repro.nn.models import BagOfWordsLanguageModel
from repro.sim.population import PopulationConfig
from repro.tools.deployment import DeploymentGate
from repro.tools.modeling import (
    FLTaskBuilder,
    loss_decreases_after_one_step,
    loss_is_finite,
)
from repro.tools.simulation import pretrain_on_proxy


def main() -> None:
    rng = np.random.default_rng(5)
    corpus = KeyboardCorpusConfig(vocab_size=80, num_users=1)
    proxy = build_proxy_corpus(corpus, rng, num_tokens=8_000)

    # 1. Define the task in Python with bundled tests (Sec. 7.1).
    model = BagOfWordsLanguageModel(vocab_size=80, embed_dim=16)
    builder = (
        FLTaskBuilder("keyboard/next-word", "keyboard")
        .with_model(model, rng)
        .with_client_config(
            ClientTrainingConfig(epochs=1, batch_size=16, learning_rate=0.3)
        )
        .with_round_config(
            RoundConfig(target_participants=20, selection_timeout_s=60,
                        reporting_timeout_s=150)
        )
        .with_proxy_data(proxy)
        .with_test(loss_is_finite())
        .with_test(loss_decreases_after_one_step(0.3))
        .mark_reviewed()
    )
    print("task tests:", "PASS" if not builder.validate() else builder.validate())

    # 2. Pre-train on proxy data before FL refinement (Sec. 7.1).
    pretrained = pretrain_on_proxy(
        model, builder.initial_params, [proxy], epochs=2, batch_size=32,
        learning_rate=0.3, rng=rng,
    )
    builder.with_pretrained(model, pretrained)

    # 3. Generate the plan and run the deployment gates (Secs. 7.2-7.3).
    task, plan, params = builder.build()
    gate = DeploymentGate(fleet_runtime_versions=[7, 8, 9, 10])
    report = gate.evaluate(builder, plan, rng)
    print(f"deployment gate: {'ACCEPTED' if report.accepted else 'REJECTED'}")
    print(f"  measured resources: {report.resources.peak_memory_mb:.1f} MB, "
          f"{report.resources.train_seconds_per_100_examples:.3f}s/100ex")
    for version, vplan in sorted(report.versioned_plans.items()):
        print(f"  runtime {version}: served {vplan.version_tag} "
              f"({len(vplan.device.graph.ops)} device ops)")

    if not report.accepted:
        raise SystemExit(f"violations: {report.violations}")

    # 4. Deploy to the (simulated) fleet (Sec. 7.4).
    fleet = (
        FLFleet.builder()
        .seed(2)
        .devices(PopulationConfig(num_devices=400))
        .job(JobSchedule(1500.0, 0.5))
        .population(task.population_name, tasks=[task], model=params, plan=plan)
        .build()
    )
    fleet.run_for(2 * 3600)
    summary = fleet.report()
    print(f"\nfleet run: {summary.rounds_committed} rounds committed, "
          f"drop rate {summary.mean_drop_rate:.1%}")
    # One column read: walking ``fleet.profiles`` builds a profile per row.
    print("versioned plans were served to runtimes:",
          np.unique(fleet.profiles.column("runtime_version")).tolist())


if __name__ == "__main__":
    main()
