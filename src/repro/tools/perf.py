"""Hot-path performance harness for the buffered model plane.

Times the model-update hot paths in both execution modes on pinned
workloads and emits a JSON report (``BENCH_hotpath.json`` at the repo
root), seeding the perf trajectory that every future PR is measured
against.  Run it via::

    PYTHONPATH=src python benchmarks/perf/run.py            # full, writes JSON
    PYTHONPATH=src python benchmarks/perf/run.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/perf/run.py --check BENCH_hotpath.json

What is measured (see ROADMAP.md "Performance" for how to read it):

* ``client_update`` — local-SGD steps/sec through
  :func:`repro.core.fedavg.client_update` with the gradient source pinned
  (a fixed-gradient model), isolating the *parameter-plane* cost the PR
  rebuilt — exactly the "allocation churn rather than FLOPs" called out
  in the issue.  ``client_update_e2e`` reports the same comparison with a
  real model's forward/backward included.
* ``sgd_step`` — a bare optimizer step, functional vs in-place.
* ``aggregator_fold`` — folding a round's client deltas into the global
  aggregate: the pre-buffering functional path (``Parameters``-level
  ``delta_sum + delta`` chain, exactly the old
  ``FederatedAveraging.aggregate``) vs the streaming
  :class:`~repro.nn.parameters.ParameterAccumulator` over the flat
  vectors the buffered pipeline emits.  ``vector_fold`` reports the
  leaf-aggregator flat-vector fold on its own.
* ``weighted_mean`` — the FedAvg combination rule, old functional chain
  vs the streaming implementation.
* ``cohort_round`` — one round's local training for a 50-device cohort:
  per-device plane (K buffered ``client_update`` calls) vs the cohort
  execution plane (one ``client_update_cohort`` over stacked buffers),
  on the small on-device ranking model where per-step dispatch dominates
  FLOPs.  ``cohort_round_98k`` reports (unguarded) the same A/B on the
  98k-param model, where single-core GEMM/memory costs are
  plane-independent and the honest ratio is ~1x.
* ``fleet_scale_sharded`` — sim-days/sec of the multi-tenant control
  plane across (devices x tenants x shards): consistent-hash selector
  shards plus the per-shard aggregation tree vs the flat shards=1
  baseline, with same-seed determinism asserted at every shard count.
* ``tenant_starvation`` (separate runner, ``benchmarks/perf/
  starvation.py``) — per-tenant round-start gap p50/p95 under tenant
  contention, ``fifo`` vs ``fair_share`` on-device scheduling.
* ``event_loop`` — scheduler throughput under timer-cancel churn (the
  pace-steering pattern that used to leak cancelled events).
* ``secagg_round`` — one grouped Secure Aggregation round (1k clients in
  ~50-device groups, 10% dropout at each protocol stage), scalar
  per-device plane vs the cross-group vectorized plane (one stacked DH
  pass over all groups on the Montgomery substrate, one (ΣC, dim)
  PRG/commit pass, one shared reconstruction sweep); a
  timer-instrumented run reports the key-agreement / masking /
  recovery ``phase_seconds`` split.  Sums and metrics are asserted
  byte-identical across the two before timing; the ratio is
  group-local, so the ``--quick`` run at 200 clients checks against the
  committed 1k-client reference ratio.

Every functional/buffered pair is asserted byte-identical before it is
timed; the harness refuses to report a speedup for paths that diverge.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from repro.core.datasets import ClientDataset
from repro.core.fedavg import ClientUpdateBuffers, client_update
from repro.nn.models import LogisticRegression, MLPClassifier, Model
from repro.nn.optimizers import SGD, SGDConfig
from repro.nn.parameters import ParameterAccumulator, Parameters
from repro.sim.event_loop import EventLoop

SCHEMA = "repro-hotpath-bench/v1"

#: Benchmarks whose speedup the CI perf-smoke job guards against
#: regression (>30% drop vs the committed reference fails the build).
#: ``fleet_scale`` is compared per device count (``speedup_by_devices``),
#: so a quick CI run at 1k devices checks against the committed 1k ratio.
GUARDED = (
    "client_update",
    "client_update_e2e",
    "sgd_step",
    "aggregator_fold",
    "weighted_mean",
    "cohort_round",
    "fleet_scale",
    #: Control-plane sharding: compared per (devices x tenants @ shards)
    #: cell (``speedup_by_shards``), so a quick CI run checks exactly the
    #: cells it shares with the committed reference.
    "fleet_scale_sharded",
    "secagg_round",
)


# ---------------------------------------------------------------------------
# timing utilities


def wall_timer() -> float:
    """Injectable wall clock for observability timings.

    Simulation and protocol code never reads wall time directly (the
    ``no-wall-clock`` lint contract); components that *report* real
    elapsed cost — e.g. ``SecAggMetrics.server_seconds`` — take a timer
    callable from their caller instead, and this is the one callers
    inject.  Timings it produces feed metrics only, never event ordering.
    """
    return time.perf_counter()


def _time_per_call(fn: Callable[[], object], repeats: int, inner: int = 1) -> float:
    """Best-of-``repeats`` seconds per ``fn()`` call (min is robust to
    scheduler noise on shared CI runners)."""
    fn()  # warm-up: allocators, caches, lazy buffers
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _time_pair(
    functional: Callable[[], object],
    buffered: Callable[[], object],
    repeats: int,
    inner: int = 1,
) -> tuple[float, float]:
    """Time a functional/buffered pair in interleaved blocks.

    Alternating the two sides within one measurement keeps slow drift in
    machine or allocator state from landing entirely on one side of the
    ratio; each side keeps its own best block."""
    blocks = max(2, repeats // 2)
    tf = _time_per_call(functional, blocks, inner)
    tb = _time_per_call(buffered, blocks, inner)
    tf = min(tf, _time_per_call(functional, blocks, inner))
    tb = min(tb, _time_per_call(buffered, blocks, inner))
    return tf, tb


def _pair(
    unit: str,
    functional_s: float,
    buffered_s: float,
    workload: str,
) -> dict:
    return {
        "workload": workload,
        "unit": unit,
        f"functional_{unit}": 1.0 / functional_s,
        f"buffered_{unit}": 1.0 / buffered_s,
        "functional_seconds": functional_s,
        "buffered_seconds": buffered_s,
        "speedup": functional_s / buffered_s,
    }


# ---------------------------------------------------------------------------
# pinned workloads


class _PinnedGradientModel(Model):
    """A model whose gradient *values* are precomputed constants.

    Gradient production keeps each path's real mechanics but pins its
    cost to one structure-sized write: the functional path gets a fresh
    allocated copy per step (as a real backward pass produces), the
    buffered path gets the same values written into its reusable buffer
    (as the ``loss_and_grad_into`` overrides do).  What remains is the
    parameter-plane math (step / delta / flatten) that this PR rebuilt —
    the "allocation churn rather than FLOPs" from the issue.
    """

    def __init__(self, template: Parameters, rng: np.random.Generator):
        grads = Parameters(
            {k: rng.normal(0.0, 1e-2, v.shape) for k, v in template.items()}
        )
        # Flat-backed, as a buffered backward pass would produce them.
        self._grads = template.layout.unflatten(grads.to_vector())

    @property
    def num_classes(self) -> int:
        return 2

    def init(self, rng: np.random.Generator) -> Parameters:
        raise NotImplementedError("pinned model is never initialised")

    def logits(self, params: Parameters, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError("pinned model has no forward pass")

    def loss_and_grad(
        self, params: Parameters, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, Parameters]:
        return 1.0, self._grads.copy()

    def loss_and_grad_into(
        self, params: Parameters, x: np.ndarray, y: np.ndarray, out: Parameters
    ) -> float:
        out.copy_from_(self._grads)
        return 1.0


def _ranking_mlp() -> MLPClassifier:
    """The Sec. 8 on-device item-ranking workload shape (~5.5k params in
    6 arrays — the small multi-array regime typical of on-device models,
    where per-array dispatch and allocation dominate the parameter math)."""
    return MLPClassifier(input_dim=96, hidden_dims=(48, 24), n_classes=8)


def _deep_stack_mlp() -> MLPClassifier:
    """A deep narrow on-device stack (12 arrays, ~7.7k params) — the
    many-small-arrays regime of layered keyboard models, where the
    functional path pays per-array dict/allocation churn on every step."""
    return MLPClassifier(input_dim=64, hidden_dims=(48, 40, 32, 24, 16), n_classes=8)


# ---------------------------------------------------------------------------
# microbenchmarks


def bench_sgd_step(repeats: int) -> dict:
    rng = np.random.default_rng(2019)
    params = _deep_stack_mlp().init(rng)
    grads = Parameters({k: rng.normal(0.0, 1e-2, v.shape) for k, v in params.items()})
    cfg = SGDConfig(learning_rate=0.1, momentum=0.9, weight_decay=1e-4)

    functional_opt = SGD(cfg)
    state = {"w": params}

    def functional():
        state["w"] = functional_opt.step(state["w"], grads)

    layout = params.layout
    flat = params.to_vector()
    work = layout.unflatten(flat)
    gflat = layout.unflatten(grads.to_vector())
    buffered_opt = SGD(cfg)

    def buffered():
        buffered_opt.step_(work, gflat)

    # Equivalence before timing: run one step of each from the same state.
    check_w = params.copy()
    a = SGD(cfg).step(check_w, grads)
    b = SGD(cfg).step_(layout.unflatten(check_w.to_vector()), gflat)
    if not np.array_equal(a.to_vector(), b.to_vector()):
        raise AssertionError("sgd_step paths diverged")

    tf, tb = _time_pair(functional, buffered, repeats, inner=20)
    return _pair(
        "steps_per_sec",
        tf,
        tb,
        "7.7k-param 12-array layered model, momentum 0.9, weight decay 1e-4",
    )


def _client_update_pair(
    model: Model,
    params: Parameters,
    dataset: ClientDataset,
    steps_hint: int,
    repeats: int,
) -> tuple[float, float]:
    """Seconds per client_update call, functional then buffered."""
    kwargs = dict(epochs=2, batch_size=16, learning_rate=0.1, clip_update_norm=5.0)

    def functional():
        return client_update(
            model, params, dataset, rng=np.random.default_rng(7), **kwargs
        )

    buffers = ClientUpdateBuffers.for_structure(params)

    def buffered():
        return client_update(
            model, params, dataset, rng=np.random.default_rng(7),
            buffers=buffers, **kwargs,
        )

    a, b = functional(), buffered()
    if not np.array_equal(a.delta.to_vector(), b.delta.to_vector()):
        raise AssertionError("client_update paths diverged")
    if (a.mean_loss, a.steps) != (b.mean_loss, b.steps):
        raise AssertionError("client_update metrics diverged")
    assert a.steps >= steps_hint
    return _time_pair(functional, buffered, repeats)


def bench_client_update(repeats: int) -> dict:
    """Parameter-plane client update: gradient values pinned, gradient
    production reduced to one structure write per step in both modes."""
    rng = np.random.default_rng(2019)
    params = _deep_stack_mlp().init(rng)
    model = _PinnedGradientModel(params, rng)
    n = 320  # 2 epochs x 320/16 -> 40 local steps
    dataset = ClientDataset("bench", rng.normal(size=(n, 4)), rng.integers(0, 2, n))
    tf, tb = _client_update_pair(model, params, dataset, 40, repeats)
    steps = 40
    out = _pair(
        "updates_per_sec",
        tf,
        tb,
        "40 local steps on a 7.7k-param 12-array layered model, gradient "
        "production pinned to one structure write per step in both modes "
        "(isolates the parameter-plane math this PR rebuilt)",
    )
    out["functional_steps_per_sec"] = steps / tf
    out["buffered_steps_per_sec"] = steps / tb
    return out


def bench_client_update_e2e(repeats: int) -> dict:
    """Whole client update with a real forward/backward included."""
    rng = np.random.default_rng(2019)
    model = LogisticRegression(input_dim=1024, n_classes=96)
    params = model.init(rng)
    n = 320
    x = rng.normal(size=(n, 1024))
    y = rng.integers(0, 96, size=n)
    dataset = ClientDataset("bench", x, y)
    tf, tb = _client_update_pair(model, params, dataset, 40, repeats)
    return _pair(
        "updates_per_sec",
        tf,
        tb,
        "40 local steps on the 98k-param model incl. real forward/backward "
        "(FLOPs unchanged by this PR, so the plane speedup is diluted)",
    )


def _cohort_round_pair(
    model: Model,
    datasets: list[ClientDataset],
    epochs: int,
    batch_size: int,
    repeats: int,
    seed: int = 4100,
) -> tuple[float, float]:
    """Seconds per full round of local training: per-device plane (K
    buffered ``client_update`` calls) vs cohort plane (one
    ``client_update_cohort``).  Equivalence is asserted before timing."""
    from repro.core.fedavg import CohortUpdateBuffers, client_update_cohort

    rng = np.random.default_rng(2019)
    params = model.init(rng)
    kwargs = dict(
        epochs=epochs, batch_size=batch_size, learning_rate=0.1,
        clip_update_norm=5.0,
    )
    buffers = ClientUpdateBuffers.for_structure(params)

    def per_device():
        # As the device runtime does: the update's delta aliases the
        # shared session buffers, so it is copied out per session.
        out = []
        for i, d in enumerate(datasets):
            update = client_update(
                model, params, d, rng=np.random.default_rng(seed + i),
                buffers=buffers, **kwargs,
            )
            out.append(
                (update.delta.to_vector(), update.mean_loss, update.steps)
            )
        return out

    cohort_buffers = CohortUpdateBuffers(params.layout, capacity=len(datasets))

    def cohort():
        return client_update_cohort(
            model, params,
            datasets=datasets,
            rngs=[np.random.default_rng(seed + i) for i in range(len(datasets))],
            buffers=cohort_buffers,
            **kwargs,
        )

    singles, stacked = per_device(), cohort()
    for i, (vector, mean_loss, steps) in enumerate(singles):
        if not np.array_equal(vector, stacked.delta_row(i)):
            raise AssertionError(f"cohort_round deltas diverged for client {i}")
        if (mean_loss, steps) != (
            float(stacked.mean_losses[i]), int(stacked.steps[i])
        ):
            raise AssertionError(f"cohort_round metrics diverged for client {i}")
    return _time_pair(per_device, cohort, repeats)


def bench_cohort_round(repeats: int) -> dict:
    """One round's local training, per-device plane vs cohort plane.

    The workload is the overhead-bound regime the cohort plane exists
    for: 50 devices each running 40 local steps (2 epochs x 80/4) on
    the Sec. 8 on-device ranking MLP, whose per-step tensors are so
    small that the per-device plane's time is dominated by dispatch
    rather than FLOPs.  The companion ``cohort_round_98k`` entry reports
    (unguarded) the same comparison on the 98k-param e2e model, where a
    single core is GEMM/memory-bound and batching is honestly ~neutral.
    """
    rng = np.random.default_rng(77)
    model = _ranking_mlp()
    n = 80
    datasets = [
        ClientDataset(
            f"c{i}", rng.normal(size=(n, 96)), rng.integers(0, 8, size=n)
        )
        for i in range(50)
    ]
    tf, tb = _cohort_round_pair(model, datasets, epochs=2, batch_size=4,
                                repeats=repeats)
    out = {
        "workload": (
            "50-device cohort, 40 local steps each (2 epochs x 80/4, the "
            "small on-device batches the paper's keyboard workloads use) "
            "on the 5.5k-param 6-array Sec. 8 ranking MLP; cohort plane "
            "runs the round as stacked (K, ...) tensor ops, per-device "
            "plane runs 50 buffered client_update calls (deltas asserted "
            "byte-identical before timing)"
        ),
        "unit": "rounds_per_sec",
        "per_device_rounds_per_sec": 1.0 / tf,
        "cohort_rounds_per_sec": 1.0 / tb,
        "per_device_seconds": tf,
        "cohort_seconds": tb,
        "per_device_updates_per_sec": 50 / tf,
        "cohort_updates_per_sec": 50 / tb,
        "speedup": tf / tb,
    }
    return out


def bench_cohort_round_98k(repeats: int) -> dict:
    """Transparency companion to ``cohort_round``: the same plane A/B on
    the 98k-param e2e model (LogisticRegression 1024->96, batch 16).

    On a single core this workload is bound by dgemm FLOPs and the
    98k-parameter SGD memory traffic, both identical under either plane,
    so the honest cohort speedup here is modest — which is exactly why
    it is reported but not guarded."""
    rng = np.random.default_rng(77)
    model = LogisticRegression(input_dim=1024, n_classes=96)
    n = 320
    datasets = [
        ClientDataset(
            f"c{i}", rng.normal(size=(n, 1024)), rng.integers(0, 96, size=n)
        )
        for i in range(50)
    ]
    tf, tb = _cohort_round_pair(model, datasets, epochs=2, batch_size=16,
                                repeats=repeats)
    return {
        "workload": (
            "50-device cohort, 40 local steps each on the 98k-param model "
            "(real forward/backward; dgemm + full-dim SGD memory traffic "
            "dominate and are plane-independent, so this ratio is "
            "informational, not guarded)"
        ),
        "unit": "rounds_per_sec",
        "per_device_seconds": tf,
        "cohort_seconds": tb,
        "per_device_updates_per_sec": 50 / tf,
        "cohort_updates_per_sec": 50 / tb,
        "speedup": tf / tb,
    }


def _make_round_updates(
    rng: np.random.Generator, structure: Parameters, cohort: int
) -> list[tuple[Parameters, float]]:
    updates = []
    for _ in range(cohort):
        p = Parameters(
            {k: rng.normal(0.0, 1e-3, v.shape) for k, v in structure.items()}
        )
        updates.append((p, float(rng.integers(10, 200))))
    return updates


def bench_aggregator_fold(repeats: int) -> dict:
    """Fold one round's accepted deltas into the global aggregate."""
    rng = np.random.default_rng(2019)
    structure = _ranking_mlp().init(rng)
    cohort = 100
    updates = _make_round_updates(rng, structure, cohort)

    def functional():
        # Pre-buffering FederatedAveraging.aggregate: Parameters-level
        # re-allocating chain.
        delta_sum = updates[0][0].copy()
        weight_sum = updates[0][1]
        for p, w in updates[1:]:
            delta_sum = delta_sum + p
            weight_sum += w
        return delta_sum.scale(1.0 / weight_sum).to_vector()

    # The buffered pipeline hands the aggregator flat vectors (clients
    # emit flat weighted deltas); pre-flattening is not part of the fold.
    flats = [p.to_vector() for p, _ in updates]
    weights = [w for _, w in updates]
    acc = ParameterAccumulator(dim=flats[0].size)

    def buffered():
        acc.reset()
        weight_sum = weights[0]
        acc.add_vector(flats[0], 1.0)
        for f, w in zip(flats[1:], weights[1:]):
            acc.add_vector(f, 1.0)
            weight_sum += w
        return acc.scaled_sum(1.0 / weight_sum, out=acc.sum_vector)

    if not np.array_equal(functional(), buffered()):
        raise AssertionError("aggregator_fold paths diverged")

    tf, tb = _time_pair(functional, buffered, repeats)
    out = _pair(
        "rounds_per_sec",
        tf,
        tb,
        f"{cohort}-device cohort, 5.5k-param 6-array ranking model "
        "(per-round fold into the global aggregate)",
    )
    out["functional_folds_per_sec"] = cohort / tf
    out["buffered_folds_per_sec"] = cohort / tb
    return out


def bench_weighted_mean(repeats: int) -> dict:
    from repro.nn.parameters import weighted_mean

    rng = np.random.default_rng(2019)
    structure = _ranking_mlp().init(rng)
    updates = _make_round_updates(rng, structure, 50)

    def functional():
        acc = updates[0][0].scale(updates[0][1])
        for p, w in updates[1:]:
            acc = acc.axpy(w, p)
        total = sum(w for _, w in updates)
        return acc.scale(1.0 / total)

    def buffered():
        return weighted_mean(updates)

    if not np.array_equal(functional().to_vector(), buffered().to_vector()):
        raise AssertionError("weighted_mean paths diverged")
    tf, tb = _time_pair(functional, buffered, repeats)
    return _pair(
        "calls_per_sec", tf, tb,
        "50 weighted updates, 5.5k-param 6-array structure",
    )


def bench_vector_fold(repeats: int) -> dict:
    """Leaf-aggregator flat-vector fold (memory-bound; smaller win)."""
    rng = np.random.default_rng(2019)
    dim = 98_400
    vectors = [rng.normal(0.0, 1e-3, dim) for _ in range(50)]

    def functional():
        delta_sum = vectors[0].copy()
        for v in vectors[1:]:
            delta_sum = delta_sum + v
        return delta_sum

    acc = ParameterAccumulator(dim=dim)

    def buffered():
        acc.reset()
        for v in vectors:
            acc.add_vector(v, 1.0)
        return acc.sum_vector

    if not np.array_equal(functional(), buffered()):
        raise AssertionError("vector_fold paths diverged")
    tf, tb = _time_pair(functional, buffered, repeats)
    return _pair(
        "rounds_per_sec", tf, tb,
        "50 flat 98k-dim report vectors per round (leaf aggregator)",
    )


def bench_event_loop(repeats: int) -> dict:
    """Scheduler throughput under pace-steering-style cancel churn."""
    def churn() -> int:
        loop = EventLoop()
        pending = []
        fired = [0]

        def tick():
            fired[0] += 1

        for i in range(20_000):
            event = loop.schedule(float(i % 97) + 1.0, tick)
            pending.append(event)
            if len(pending) >= 8:
                # Cancel most of the backlog, as pace steering does when
                # it reshuffles a device's check-in timer.
                for e in pending[:7]:
                    e.cancel()
                del pending[:7]
        live = len(loop)
        loop.run()
        assert fired[0] == live
        return loop.events_processed

    t = _time_per_call(churn, max(2, repeats // 2))
    return {
        "workload": "20k schedules with 7/8 cancelled (pace-steering churn)",
        "unit": "ops_per_sec",
        "ops_per_sec": 20_000 / t,
        "seconds": t,
    }


def bench_secagg_round(clients: int, repeats: int) -> dict:
    """One grouped SecAgg round: scalar reference vs cross-group plane.

    The pinned workload is the paper's operating point — groups of ~50
    devices (Sec. 6 caps SecAgg instances at "hundreds of users"), dim
    256, 32-bit masking ring, threshold 0.66 — with 10% of the cohort
    dropping at *each* protocol stage (after AdvertiseKeys, after
    ShareKeys, after MaskedInputCollection), so the benchmark exercises
    dangling-mask recovery, not just the happy path.  Decoded sums and
    full server metrics are asserted identical across the two before
    any timing; both replay the same rng trajectory.

    Besides the guarded scalar/vectorized ``speedup``, the result carries
    a ``phase_seconds`` breakdown (key agreement / masking / recovery,
    summed over groups from one timer-instrumented cross-group run) and
    the ``dominant_phase`` it implies.
    """
    from repro.secagg.grouped import grouped_secure_sum
    from repro.secagg.masking import VectorQuantizer
    from repro.secagg.protocol import DropoutSchedule

    dim = 256
    group = 50
    data_rng = np.random.default_rng(4242)
    inputs = {uid: data_rng.normal(size=dim) for uid in range(clients)}
    dropouts = DropoutSchedule(
        after_advertise=frozenset(u for u in range(clients) if u % 10 == 3),
        after_share=frozenset(u for u in range(clients) if u % 10 == 6),
        after_mask=frozenset(u for u in range(clients) if u % 10 == 9),
    )
    quantizer = VectorQuantizer(
        modulus_bits=32, clip_range=8.0, max_summands=2 * group
    )

    def run(plane: str, timer=None):
        return grouped_secure_sum(
            inputs,
            min_group_size=group,
            threshold_fraction=0.66,
            quantizer=quantizer,
            rng=np.random.default_rng(2019),
            dropouts=dropouts,
            plane=plane,
            timer=timer,
        )

    total_s, metrics_s = run("scalar")
    total_v, metrics_v = run("vectorized")
    if not np.array_equal(total_s, total_v):
        raise AssertionError("secagg_round planes diverged (sums differ)")
    if metrics_s != metrics_v:
        raise AssertionError("secagg_round planes diverged (metrics differ)")

    tf, tb = _time_pair(lambda: run("scalar"), lambda: run("vectorized"),
                        repeats)
    _, timed_metrics = run("vectorized", timer=time.perf_counter)
    phase_seconds = {
        "key_agreement": sum(m.key_agreement_seconds for m in timed_metrics),
        "masking": sum(m.masking_seconds for m in timed_metrics),
        "recovery": sum(m.recovery_seconds for m in timed_metrics),
    }
    committed = sum(m.committed for m in metrics_s)
    return {
        "workload": (
            f"{clients} clients in {len(metrics_s)} groups of ~{group}, "
            f"dim {dim}, 32-bit ring, threshold 0.66, 10% dropout after "
            "each of AdvertiseKeys/ShareKeys/MaskedInputCollection "
            "(sums and metrics asserted identical across the two planes "
            "before timing; ratio is group-local, comparable across "
            "client counts)"
        ),
        "unit": "rounds_per_sec",
        "scalar_rounds_per_sec": 1.0 / tf,
        "vectorized_rounds_per_sec": 1.0 / tb,
        "scalar_seconds": tf,
        "vectorized_seconds": tb,
        "clients": clients,
        "groups": len(metrics_s),
        "committed_devices": committed,
        "phase_seconds": phase_seconds,
        "dominant_phase": max(phase_seconds, key=phase_seconds.get),
        "speedup": tf / tb,
    }


# ---------------------------------------------------------------------------
# population-plane scale benchmark


def _build_scale_fleet(seed: int, devices: int, plane: str):
    """The idle-majority operating point: one population of ``devices``
    phones feeding rounds of ~26, so the overwhelming majority of the
    fleet is — at any instant — flipping eligibility or steered away by
    pace windows rather than training.  This is the regime Bonawitz et
    al. run at millions of devices, and the workload the vectorized idle
    plane exists for; sessions themselves are deliberately cheap
    (synthetic trainer) so the benchmark times the *population plane*.
    """
    from repro import FLFleet
    from repro.actors.coordinator import CoordinatorConfig
    from repro.core.config import RoundConfig, TaskConfig
    from repro.core.pace import PaceConfig
    from repro.device.scheduler import JobSchedule
    from repro.sim.population import PopulationConfig

    params = MLPClassifier(
        input_dim=16, hidden_dims=(16,), n_classes=4
    ).init(np.random.default_rng(0))
    task = TaskConfig(
        task_id="scale",
        population_name="pop",
        round_config=RoundConfig(target_participants=20),
    )

    return (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .idle_plane(plane)
        .selectors(1)
        # Rounds on a fixed ~45-minute cadence: demand stays constant as
        # the population scales, exactly the paper's supply-rich regime.
        .coordinator(CoordinatorConfig(pipelining=False, inter_round_gap_s=2700.0))
        # Pace steering models the actual round cadence and spreads the
        # oversupplied fleet across multi-hour reconnect horizons.
        .pace(PaceConfig(round_period_s=2700.0, small_population_threshold=500,
                         max_reconnect_delay_s=43200.0))
        # Devices wake the FL runtime a few times a day, hold their
        # check-in stream up to an hour, and sample telemetry at the
        # operational-dashboard cadence.
        .job(JobSchedule(10800.0, 0.5))
        .waiting_timeout(3600.0)
        .sample_interval(60.0)
        .population("pop", tasks=[task], model=params)
        .build()
    )


def _time_run_days(fleet, days: float):
    """``(wall seconds of fleet.run_days(days), the fleet)``."""
    t0 = time.perf_counter()
    fleet.run_days(days)
    return time.perf_counter() - t0, fleet


def _time_scale_run(seed: int, devices: int, plane: str, days: float):
    return _time_run_days(_build_scale_fleet(seed, devices, plane), days)


#: Dispatcher frames: bodies that pop due work and route control to
#: handlers, so their *inclusive* time is (transitively) the whole
#: simulation — nobody would rank ``EventLoop.run``.  They stay in the
#: ranking, but scored by **self time**: a sweep loop whose own array
#: scans ballooned would still surface, while the work it merely
#: dispatches is attributed to the handler frames that do it.
_PROFILE_DISPATCH_FRAMES = {
    "event_loop.py": {"run", "run_for", "step", "_fire"},
    "fleet.py": {"run_days", "run_for"},
    "idle_plane.py": {"_sweep", "_run_sweep"},
}


def _profile_scale_run(seed: int, devices: int, days: float, top: int = 10):
    """cProfile one vectorized run; report the top-cost frames.

    Frames are ranked by inclusive time, except dispatcher wrappers
    (:data:`_PROFILE_DISPATCH_FRAMES`), which are ranked by their own
    self time.  ``idle_plane_in_top3`` is reported, not required to be
    false: the sweep is array-at-a-time, so the plane's own frames
    (``_flip_rows``, ``_checkin_rows``) *are* the idle work — hazard
    inversion, row draws, array writes — next to the per-row check-in
    verdicts they dispatch.  ``plane_self_seconds`` additionally reports
    the summed self time of every ``idle_plane.py`` frame.
    """
    import cProfile
    import pstats

    fleet = _build_scale_fleet(seed, devices, "vectorized")
    profiler = cProfile.Profile()
    profiler.enable()
    fleet.run_days(days)
    profiler.disable()
    stats = pstats.Stats(profiler)
    frames = []
    plane_self = 0.0
    total = getattr(stats, "total_tt", 0.0)
    for (filename, _line, func), (_cc, _nc, tt, ct, _callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        if f"repro{os.sep}" not in filename:
            continue
        short = os.path.join(*filename.split(os.sep)[-2:])
        basename = os.path.basename(short)
        if basename == "idle_plane.py":
            plane_self += tt
        dispatcher = func in _PROFILE_DISPATCH_FRAMES.get(basename, ())
        cost = tt if dispatcher else ct
        frames.append((cost, "self" if dispatcher else "inclusive", f"{short}:{func}"))
    frames.sort(reverse=True)
    top_frames = [
        {"frame": name, "seconds": round(cost, 4), "metric": metric}
        for cost, metric, name in frames[:top]
    ]
    idle_in_top3 = any("idle_plane.py" in f["frame"] for f in top_frames[:3])
    return top_frames, idle_in_top3, plane_self, total


def bench_fleet_scale(
    days: float,
    counts: tuple[int, ...],
    baseline_counts: tuple[int, ...],
    repeats: int = 3,
    profile_devices: int | None = None,
) -> dict:
    """Sim-days/sec of the idle-majority fleet across device counts.

    The vectorized plane is timed at every count in ``counts``; the
    per-device actor baseline only at ``baseline_counts`` (it is the slow
    side — that is the point).  Runs are interleaved best-of-``repeats``.
    Determinism is asserted at the smallest count: two fresh vectorized
    fleets must produce identical ``RunReport``s.
    """
    seed = 2019
    by_devices: dict[str, dict] = {}
    for devices in counts:
        vec = act = float("inf")
        reps = repeats if devices in baseline_counts else max(2, repeats - 1)
        for _ in range(reps):
            if devices in baseline_counts:
                elapsed, _fleet = _time_scale_run(seed, devices, "actor", days)
                act = min(act, elapsed)
            elapsed, fleet = _time_scale_run(seed, devices, "vectorized", days)
            vec = min(vec, elapsed)
        plane = fleet.idle_plane
        entry = {
            "vectorized_sim_days_per_sec": days / vec,
            "vectorized_seconds": vec,
            "sweeps": plane.sweeps,
            "flips": plane.flips,
            "checkins": plane.checkins_dispatched,
            "checkins_fast_rejected": plane.checkins_fast_rejected,
            "materializations": plane.materializations,
            "rounds": len(fleet.round_results),
        }
        if devices in baseline_counts:
            entry["actor_sim_days_per_sec"] = days / act
            entry["actor_seconds"] = act
            entry["speedup"] = act / vec
        by_devices[str(devices)] = entry

    # Determinism: same seed => identical RunReport (full dataclass
    # equality, health included), identical health telemetry, and the
    # same event-by-event trajectory length — twice.
    smallest = counts[0]
    _, fleet_a = _time_scale_run(seed, smallest, "vectorized", days)
    _, fleet_b = _time_scale_run(seed, smallest, "vectorized", days)
    if fleet_a.report() != fleet_b.report():
        raise AssertionError("vectorized idle plane is not deterministic")
    if fleet_a.health_report().to_dict() != fleet_b.health_report().to_dict():
        raise AssertionError("vectorized plane health telemetry diverged")
    if fleet_a.loop.events_processed != fleet_b.loop.events_processed:
        raise AssertionError("vectorized plane event trajectories diverged")

    baselined = [int(c) for c in by_devices if "speedup" in by_devices[c]]
    out = {
        "workload": (
            f"idle-majority fleet at {list(counts)} devices, {days} simulated "
            "days: one population, ~26-device rounds every 45 min, 3h job "
            "cadence, multi-hour pace horizons, 60s telemetry (vectorized "
            "idle plane vs per-device actor timers)"
        ),
        "unit": "sim_days_per_sec",
        "days": days,
        "by_devices": by_devices,
        "speedup_by_devices": {
            c: e["speedup"] for c, e in by_devices.items() if "speedup" in e
        },
        "identical_run_reports": True,
    }
    if baselined:
        # Headline ratio: the largest count that was also run on the
        # actor baseline.  A vectorized-only config simply has none.
        guarded_count = max(baselined)
        out["speedup"] = by_devices[str(guarded_count)]["speedup"]
        out["speedup_devices"] = guarded_count
    if profile_devices is not None:
        top_frames, idle_in_top3, plane_self, total = _profile_scale_run(
            seed, profile_devices, days
        )
        out["profile"] = {
            "devices": profile_devices,
            "top_frames": top_frames,
            "idle_plane_in_top3": idle_in_top3,
            "plane_self_seconds": round(plane_self, 4),
            "plane_self_fraction": (
                round(plane_self / total, 4) if total else None
            ),
        }
    return out


def _build_tenant_fleet(
    seed: int,
    devices: int,
    tenants: int,
    selectors: int,
    shards: int,
    policy: str = "fifo",
):
    """The multi-tenant control-plane operating point: ``tenants``
    populations (every device enrolled in all of them) on ``selectors``
    Selectors split into ``shards`` shards.  Sessions are deliberately
    cheap (synthetic trainer, small model) and the Coordinator tick is
    fast, so the run times the *control plane*: route registration,
    check-in admission, connected-count polling while a tenant waits
    for devices, and the ForwardDevices/ClearForwarding round machinery
    — all of which an unsharded fleet pays O(tenants x selectors) for,
    and a sharded fleet O(tenants x selectors / shards).
    """
    from repro import FLFleet
    from repro.actors.coordinator import CoordinatorConfig
    from repro.core.config import RoundConfig, TaskConfig
    from repro.device.scheduler import JobSchedule
    from repro.sim.population import PopulationConfig

    params = MLPClassifier(
        input_dim=16, hidden_dims=(16,), n_classes=4
    ).init(np.random.default_rng(0))

    builder = (
        FLFleet.builder()
        .seed(seed)
        .devices(PopulationConfig(num_devices=devices))
        .selectors(selectors)
        .selector_shards(shards)
        .device_scheduler(policy)
        # A fast tick keeps every Coordinator polling its Selectors at
        # the cadence a production control plane would; rounds on a
        # 15-minute gap keep all tenants' pipelines continuously active.
        .coordinator(
            CoordinatorConfig(
                tick_interval_s=1.0,
                pipelining=False,
                inter_round_gap_s=900.0,
            )
        )
        .job(JobSchedule(7200.0, 0.5))
        .waiting_timeout(1800.0)
        .sample_interval(300.0)
    )
    for t in range(tenants):
        name = f"tenant{t:02d}"
        task = TaskConfig(
            task_id=f"train/{name}",
            population_name=name,
            round_config=RoundConfig(target_participants=10),
        )
        builder = builder.population(name, tasks=[task], model=params)
    return builder.build()


def bench_fleet_scale_sharded(
    days: float,
    cells: tuple[tuple[int, int], ...],
    shard_counts: tuple[int, ...],
    selectors: int = 16,
    repeats: int = 2,
) -> dict:
    """Sim-days/sec of the multi-tenant fleet across (devices x tenants
    x shards).

    Every cell is timed at every shard count (interleaved best-of-
    ``repeats``); speedups are shards=1 over shards=N within the same
    cell, so the ratio isolates what control-plane sharding buys.  One
    correctness gate runs on the same fleets the timings use: every
    (cell, shards) config must produce the identical ``RunReport`` on
    every repeat (same-seed determinism at every shard count).
    """
    seed = 2019
    if 1 not in shard_counts:
        raise ValueError("shard_counts must include 1 (the flat baseline)")
    by_cell: dict[str, dict] = {}
    speedup_by_shards: dict[str, float] = {}
    for devices, tenants in cells:
        cell_key = f"{devices}x{tenants}"
        best: dict[int, float] = {s: float("inf") for s in shard_counts}
        report_of: dict[int, object] = {}
        fleet_of: dict[int, object] = {}
        for _ in range(repeats):
            for s in shard_counts:
                elapsed, fleet = _time_run_days(
                    _build_tenant_fleet(seed, devices, tenants, selectors, s),
                    days,
                )
                best[s] = min(best[s], elapsed)
                report = fleet.report()
                if s in report_of and report_of[s] != report:
                    raise AssertionError(
                        f"sharded fleet is not deterministic at "
                        f"{cell_key}@{s} shards"
                    )
                report_of[s] = report
                fleet_of[s] = fleet
        by_shards = {}
        for s in shard_counts:
            fleet = fleet_of[s]
            folds = sum(
                count
                for name, count in fleet.dashboard.counters().items()
                if name.startswith("shards/") and name.endswith("/folds")
            )
            entry = {
                "sim_days_per_sec": days / best[s],
                "seconds": best[s],
                "rounds": len(fleet.round_results),
                "shard_folds": int(folds),
            }
            if s != 1:
                entry["speedup"] = best[1] / best[s]
                speedup_by_shards[f"{cell_key}@{s}"] = entry["speedup"]
            by_shards[str(s)] = entry
        by_cell[cell_key] = {"by_shards": by_shards}

    largest_cell = f"{cells[-1][0]}x{cells[-1][1]}"
    max_shards = max(shard_counts)
    out = {
        "workload": (
            f"multi-tenant control plane at {list(cells)} (devices x "
            f"tenants) on {selectors} selectors, {days} simulated days: "
            "every device enrolled in every tenant, ~10-device rounds on "
            "a 15-min gap, 1s coordinator ticks (shards=1 flat baseline "
            "vs consistent-hash selector shards + aggregation tree)"
        ),
        "unit": "sim_days_per_sec",
        "days": days,
        "selectors": selectors,
        "by_cell": by_cell,
        "speedup_by_shards": speedup_by_shards,
        "identical_run_reports": True,
    }
    if max_shards != 1:
        out["speedup"] = by_cell[largest_cell]["by_shards"][str(max_shards)][
            "speedup"
        ]
        out["speedup_cell"] = f"{largest_cell}@{max_shards}"
    return out


def bench_tenant_starvation(
    days: float,
    devices: int,
    tenants: int,
    selectors: int = 8,
    shards: int = 1,
) -> dict:
    """Per-tenant round-start latency under tenant contention, ``fifo``
    vs ``fair_share`` device scheduling.

    Many concurrent populations compete for the same devices; a tenant
    is *starved* when its rounds start rarely because devices keep
    serving other tenants first.  For each policy the same seeded
    workload runs once, and each tenant's consecutive round-start gaps
    (from its ``RoundResult.started_at_s`` trail) summarize to p50/p95.

    Expect near-parity between the policies on a static fleet: the
    worker queue coalesces requests and never drops them except at
    drain, so FIFO cannot be overtaken and degenerates to round-robin
    (see :class:`repro.device.scheduler.MultiTenantScheduler` — the
    burst-leader starvation fair_share exists for needs per-window
    request expiry).  The A/B records that parity;
    the per-tenant p50/p95 quantify contention itself.  Not
    speed-guarded — this benchmark measures scheduling fairness, not
    throughput; the JSON is uploaded by CI so the trajectory is
    reviewable."""
    seed = 2019
    by_policy: dict[str, dict] = {}
    for policy in ("fifo", "fair_share"):
        fleet = _build_tenant_fleet(
            seed, devices, tenants, selectors, shards, policy=policy
        )
        fleet.run_days(days)
        per_tenant: dict[str, dict] = {}
        p95s: list[float] = []
        for t in range(tenants):
            name = f"tenant{t:02d}"
            starts = sorted(
                r.started_at_s for r in fleet.results_for(name)
            )
            gaps = np.diff(np.asarray(starts)) if len(starts) > 1 else None
            entry: dict = {"rounds_started": len(starts)}
            if gaps is not None and gaps.size:
                entry["start_gap_p50_s"] = float(np.percentile(gaps, 50))
                entry["start_gap_p95_s"] = float(np.percentile(gaps, 95))
                p95s.append(entry["start_gap_p95_s"])
            per_tenant[name] = entry
        rounds_total = sum(e["rounds_started"] for e in per_tenant.values())
        by_policy[policy] = {
            "per_tenant": per_tenant,
            "rounds_started_total": rounds_total,
            "worst_p95_s": max(p95s) if p95s else None,
            "p95_spread_s": (max(p95s) - min(p95s)) if p95s else None,
        }
    out = {
        "workload": (
            f"{tenants} tenants contending for {devices} devices on "
            f"{selectors} selectors ({shards} shard(s)), {days} simulated "
            "days: per-tenant round-start gap p50/p95 under fifo vs "
            "fair_share on-device scheduling"
        ),
        "unit": "seconds_between_round_starts",
        "days": days,
        "by_policy": by_policy,
    }
    fifo_worst = by_policy["fifo"]["worst_p95_s"]
    fair_worst = by_policy["fair_share"]["worst_p95_s"]
    if fifo_worst and fair_worst:
        out["fair_share_worst_p95_ratio"] = fifo_worst / fair_worst
    return out


# ---------------------------------------------------------------------------
# harness entry points


@dataclass(frozen=True)
class HarnessConfig:
    repeats: int = 20
    #: ``fleet_scale``: vectorized plane timed at every count, the actor
    #: baseline (and the guarded speedup) at ``scale_baseline_counts``.
    scale_days: float = 0.1
    scale_counts: tuple[int, ...] = (1000, 5000, 20000)
    scale_baseline_counts: tuple[int, ...] = (1000, 5000)
    #: Device count for the cProfile pass (None skips profiling).
    scale_profile_devices: int | None = 20000
    #: ``fleet_scale_sharded``: every (devices, tenants) cell timed at
    #: every shard count on ``sharded_selectors`` Selectors.
    sharded_days: float = 0.1
    sharded_cells: tuple[tuple[int, int], ...] = ((1000, 6), (2000, 12))
    sharded_shard_counts: tuple[int, ...] = (1, 2, 4, 8)
    sharded_selectors: int = 32
    #: ``secagg_round`` cohort size (the ratio is group-local, so quick
    #: runs shrink the cohort, not the group).
    secagg_clients: int = 1000

    @classmethod
    def quick(cls) -> "HarnessConfig":
        return cls(
            repeats=6,
            scale_days=0.02,
            scale_counts=(1000,),
            scale_baseline_counts=(1000,),
            scale_profile_devices=None,
            sharded_days=0.05,
            sharded_cells=((1000, 6),),
            sharded_shard_counts=(1, 4),
            sharded_selectors=16,
            secagg_clients=200,
        )

    def scale_quick(self) -> "HarnessConfig":
        """Same classic benches, CI-sized ``fleet_scale`` (1k devices).

        The simulated window is kept at the full config's ``scale_days``
        so the CI ratio is measured on exactly the workload the committed
        1k reference ratio was (shorter windows are dominated by fixed
        startup costs and read systematically low); at 1k devices the
        run is still only seconds of wall clock.
        """
        return replace(
            self,
            # Pin the window to the full-config default even when chained
            # after quick() (which shrinks scale_days): the CI ratio must
            # be measured on the same workload as the committed reference.
            scale_days=HarnessConfig().scale_days,
            scale_counts=(1000,),
            scale_baseline_counts=(1000,),
            scale_profile_devices=None,
            # One sharded cell, two shard counts — but the cell itself,
            # the selector count, and the window all match the full
            # config, so CI's 2000x12@4 ratio checks against the
            # committed reference's on an identical workload.
            sharded_days=HarnessConfig().sharded_days,
            sharded_cells=((2000, 12),),
            sharded_shard_counts=(1, 4),
            sharded_selectors=HarnessConfig().sharded_selectors,
            secagg_clients=200,
        )


def _git_commit() -> str:
    """HEAD hash, with a ``-dirty`` marker when the tree has uncommitted
    changes (the reference is usually regenerated *before* the commit
    that ships it, so bare HEAD would point at code that lacks the
    benchmarked changes)."""
    cwd = os.path.dirname(os.path.abspath(__file__))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        return f"{head}-dirty" if status else head
    except Exception:
        return "unknown"


def run_harness(
    config: HarnessConfig | None = None,
    include_scale: bool = True,
) -> dict:
    config = config or HarnessConfig()
    # Allocation-sensitive comparisons run first, before earlier benches
    # have warmed the allocator's free lists for the functional baseline.
    results = {
        "aggregator_fold": bench_aggregator_fold(config.repeats),
        "sgd_step": bench_sgd_step(config.repeats),
        "client_update": bench_client_update(config.repeats),
        "client_update_e2e": bench_client_update_e2e(max(3, config.repeats // 2)),
        "cohort_round": bench_cohort_round(max(3, config.repeats // 2)),
        "cohort_round_98k": bench_cohort_round_98k(max(2, config.repeats // 4)),
        "weighted_mean": bench_weighted_mean(config.repeats),
        "vector_fold": bench_vector_fold(max(3, config.repeats // 2)),
        "event_loop": bench_event_loop(max(3, config.repeats // 2)),
        # Each timed call runs the full grouped protocol (seconds on the
        # scalar side at 1k clients), so the repeat budget stays small.
        "secagg_round": bench_secagg_round(
            config.secagg_clients, max(3, config.repeats // 6)
        ),
    }
    if include_scale:
        results["fleet_scale"] = bench_fleet_scale(
            config.scale_days,
            config.scale_counts,
            config.scale_baseline_counts,
            repeats=3 if config.repeats >= 10 else 2,
            profile_devices=config.scale_profile_devices,
        )
        results["fleet_scale_sharded"] = bench_fleet_scale_sharded(
            config.sharded_days,
            config.sharded_cells,
            config.sharded_shard_counts,
            selectors=config.sharded_selectors,
            repeats=3 if config.repeats >= 10 else 2,
        )
    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "git_commit": _git_commit(),
        },
        "config": asdict(config),
        "guarded": list(GUARDED),
        "results": results,
    }


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=False)
        f.write("\n")


def history_line(report: dict) -> dict:
    """One compact perf-trajectory record for ``BENCH_history.jsonl``.

    Captures the run's headline speedups (per device count for
    ``fleet_scale``) plus the commit the run was made from, so the
    repo-root history file accumulates one line per full harness run and
    the trajectory across PRs can be plotted without re-running
    anything."""
    speedups = {
        name: round(entry["speedup"], 4)
        for name, entry in report["results"].items()
        if isinstance(entry.get("speedup"), float)
    }
    line = {
        "created_unix": report.get("created_unix"),
        "git_commit": report.get("environment", {}).get("git_commit"),
        "guarded": list(report.get("guarded", ())),
        "speedups": speedups,
    }
    by_devices = (
        report["results"].get("fleet_scale", {}).get("speedup_by_devices")
    )
    if by_devices:
        line["fleet_scale_by_devices"] = {
            count: round(ratio, 4) for count, ratio in by_devices.items()
        }
    by_shards = (
        report["results"]
        .get("fleet_scale_sharded", {})
        .get("speedup_by_shards")
    )
    if by_shards:
        line["fleet_scale_sharded_by_shards"] = {
            cell: round(ratio, 4) for cell, ratio in by_shards.items()
        }
    return line


def append_history(report: dict, path: str) -> dict:
    """Append this run's :func:`history_line` to the JSONL trajectory."""
    line = history_line(report)
    with open(path, "a") as f:
        json.dump(line, f, sort_keys=False)
        f.write("\n")
    return line


def check_against_reference(
    report: dict, reference: dict, tolerance: float = 0.30
) -> list[str]:
    """Regression check: guarded speedups may not drop more than
    ``tolerance`` (relative) below the committed reference.  Speedup
    ratios are compared — not wall times — so the check is stable across
    differently-sized CI machines.

    The two benchmark sets must also *match*: a benchmark guarded by this
    harness but absent from the reference's guarded set would otherwise
    silently skip its regression check (the classic failure mode after a
    rename or a newly-promoted guard), so any mismatch is a failure."""
    failures = []
    # Guarded-set drift: only checkable when the report carries its own
    # guarded list (every harness-produced report does).
    report_guarded = set(report.get("guarded") or ())
    if report_guarded:
        for name in sorted(report_guarded - set(reference.get("guarded", ()))):
            failures.append(
                f"{name}: guarded by this harness but not by the reference "
                "— its regression check would silently be skipped; "
                "regenerate the committed reference"
            )
    for name in reference.get("guarded", GUARDED):
        ref_entry = reference["results"].get(name, {})
        new_entry = report["results"].get(name, {})
        # Keyed speedups (per device count for fleet_scale, per
        # devices-x-tenants@shards cell for fleet_scale_sharded) are
        # compared per shared key: a quick CI run checks exactly the
        # cells it shares with the committed reference, never against a
        # headline measured on a workload it did not run.
        keyed = None
        for field_name in ("speedup_by_devices", "speedup_by_shards"):
            if ref_entry.get(field_name) and new_entry.get(field_name):
                keyed = field_name
                break
        if keyed is not None:
            ref_by = ref_entry[keyed]
            new_by = new_entry[keyed]
            shared = sorted(set(ref_by) & set(new_by), key=str)
            if not shared:
                failures.append(f"{name}: no shared {keyed} keys to compare")
            for key in shared:
                floor = ref_by[key] * (1.0 - tolerance)
                if new_by[key] < floor:
                    failures.append(
                        f"{name}@{key}: speedup {new_by[key]:.2f}x "
                        f"regressed below {floor:.2f}x (reference "
                        f"{ref_by[key]:.2f}x, tolerance {tolerance:.0%})"
                    )
            continue
        ref = ref_entry.get("speedup")
        new = new_entry.get("speedup")
        if ref is None and new is None:
            failures.append(
                f"{name}: guarded but present in neither the reference nor "
                "this run — benchmark renamed or removed; regenerate the "
                "committed reference"
            )
            continue
        if ref is None:
            failures.append(
                f"{name}: no reference entry — the reference predates this "
                "benchmark; regenerate the committed reference"
            )
            continue
        if new is None:
            failures.append(
                f"{name}: in the reference but not produced by this run — "
                "benchmark renamed or skipped; run the full harness or "
                "regenerate the committed reference"
            )
            continue
        floor = ref * (1.0 - tolerance)
        if new < floor:
            failures.append(
                f"{name}: speedup {new:.2f}x regressed below {floor:.2f}x "
                f"(reference {ref:.2f}x, tolerance {tolerance:.0%})"
            )
    return failures
