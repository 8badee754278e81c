"""repro — a reproduction of "Towards Federated Learning at Scale: System
Design" (Bonawitz et al., MLSYS 2019).

Three API layers:

* **Algorithms** (:mod:`repro.core`): ``FederatedAveraging`` over
  in-memory clients — Appendix B, runnable anywhere.
* **System** (:class:`repro.system.FLFleet`): the full production design as
  a *multi-tenant fleet* — one actor server and simulated device fleet
  hosting many FL populations concurrently (Secs. 2-4), with pace
  steering, Secure Aggregation, and per-population analytics — on a
  deterministic discrete-event simulation.  Declared via
  ``FLFleet.builder()`` — the one way to build a fleet, one population
  or many; results come back as typed :class:`repro.system.RunReport`
  objects.
* **Tools** (:mod:`repro.tools`): the model-engineer workflow — define,
  validate, version, gate, deploy.

Quickstart (algorithm layer)::

    import numpy as np
    from repro import FederatedAveraging, FedAvgConfig, ClientDataset
    from repro.nn import LogisticRegression

    rng = np.random.default_rng(0)
    model = LogisticRegression(input_dim=10, n_classes=3)
    clients = [...]  # list[ClientDataset]
    algo = FederatedAveraging(model, FedAvgConfig(clients_per_round=10))
    params, history = algo.fit(clients, num_rounds=100, rng=rng)

Fleet quickstart (system layer)::

    fleet = (
        FLFleet.builder()
        .seed(7)
        .population("kbd", tasks=[train_task], model=initial_params)
        .population("stats", tasks=[eval_task], model=stats_params,
                    membership=0.5)
        .build()
    )
    fleet.run_days(1.0)
    for pop in fleet.report().populations:
        print(pop.name, pop.rounds_committed)
"""

from repro.core import (
    ClientDataset,
    ClientTrainingConfig,
    FedAvgConfig,
    FederatedAveraging,
    RoundConfig,
    SecAggConfig,
    TaskConfig,
    TaskKind,
)
from repro.system import (
    FaultPlan,
    FLFleet,
    FleetBuilder,
    FleetConfig,
    FleetValidationError,
    PopulationLifecycleReport,
    PopulationReport,
    PopulationSpec,
    PopulationState,
    RecoveryReport,
    RetryPolicy,
    RunReport,
)

__version__ = "1.1.0"

__all__ = [
    "ClientDataset",
    "ClientTrainingConfig",
    "FedAvgConfig",
    "FederatedAveraging",
    "RoundConfig",
    "SecAggConfig",
    "TaskConfig",
    "TaskKind",
    "FaultPlan",
    "FLFleet",
    "FleetBuilder",
    "FleetConfig",
    "FleetValidationError",
    "PopulationLifecycleReport",
    "PopulationReport",
    "PopulationSpec",
    "PopulationState",
    "RecoveryReport",
    "RetryPolicy",
    "RunReport",
    "__version__",
]
