"""Gradient-descent optimizers.

Clients run plain SGD inside ``ClientUpdate`` (Algorithm 1); the server can
apply the aggregated update with its own learning rate / momentum (the
"server optimizer" generalisation of FedAvg).

``step`` is functional (returns new :class:`Parameters`) — the public API
and the byte oracle; ``step_stack_`` is the in-place kernel that advances a
whole cohort's stacked working copies, which is what runs.  Row ``i`` of a
stacked step receives the same elementwise float operations in the same
order as a functional step on client ``i`` alone (guarded by
``tests/nn/test_models_cohort.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds import check, interval, non_negative, positive
from repro.nn.parameters import Parameters, StackedParameters

@dataclass(frozen=True)
class SGDConfig:
    """Hyperparameters for :class:`SGD`."""

    learning_rate: float = positive(default=0.1)
    momentum: float = interval("[0, 1)", default=0.0)
    weight_decay: float = non_negative(default=0.0)

    __post_init__ = check


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay.

    Stateful (keeps velocity) with two entry points: functional ``step``
    (new ``Parameters`` out, inputs untouched) and in-place
    ``step_stack_`` (mutates the stacked ``params``; consumes ``grads``).
    Each keeps momentum state in its own layout, so with momentum enabled
    one optimizer instance must not mix the two mid-run (it raises rather
    than silently restarting momentum).
    """

    def __init__(self, config: SGDConfig | None = None):
        self.config = config or SGDConfig()
        self._velocity: dict[str, np.ndarray] | None = None
        self._stack_velocity: dict[str, np.ndarray] | None = None

    def reset(self) -> None:
        self._velocity = None
        self._stack_velocity = None

    def _refuse_mixed_momentum(self, other: dict[str, np.ndarray] | None) -> None:
        if self.config.momentum > 0 and other is not None:
            raise RuntimeError(
                "momentum state was accumulated by the other calling "
                "convention (step vs step_stack_); mixing them mid-run "
                "would silently restart momentum from zero (call reset() "
                "to start over)"
            )

    def step(self, params: Parameters, grads: Parameters) -> Parameters:
        """One update: ``w <- w - lr * (v if momentum else g)``."""
        cfg = self.config
        self._refuse_mixed_momentum(self._stack_velocity)
        updated: dict[str, np.ndarray] = {}
        if cfg.momentum > 0 and self._velocity is None:
            self._velocity = {k: np.zeros_like(v) for k, v in params.items()}
        for name, w in params.items():
            g = grads[name]
            if cfg.weight_decay > 0:
                g = g + cfg.weight_decay * w
            if cfg.momentum > 0:
                assert self._velocity is not None
                v = cfg.momentum * self._velocity[name] + g
                self._velocity[name] = v
                g = v
            updated[name] = w - cfg.learning_rate * g
        return Parameters(updated)

    def step_stack_(
        self, params: StackedParameters, grads: StackedParameters
    ) -> StackedParameters:
        """Vectorized :meth:`step` advancing ``K`` stacked working copies
        in place.

        Every row receives the same elementwise float ops as a per-client
        :meth:`step` call (``w - lr * g`` with optional weight decay and
        momentum), so row ``i`` is bitwise-identical to stepping client
        ``i`` alone.  ``grads`` is *consumed* — its arrays are used as the
        update scratch — which is the contract the cohort execution plane
        wants (gradient stacks are rewritten by the next batched backward
        pass anyway).  Momentum state is kept as per-array stacked
        velocity buffers keyed to this calling convention; don't mix it
        with :meth:`step` on one live optimizer.
        """
        cfg = self.config
        if cfg.momentum > 0:
            self._refuse_mixed_momentum(self._velocity)
            if self._stack_velocity is None:
                # One-time lazy momentum-state allocation; every later
                # step is allocation-free.
                self._stack_velocity = {
                    name: np.zeros_like(a) for name, a in params.items()  # repro-lint: allow(inplace-op-discipline)
                }
        for name, w in params.items():
            g = grads[name]
            if cfg.weight_decay > 0:
                # g <- g + wd * w (bitwise-commutative add, matching the
                # functional `g + wd * w`).
                np.add(g, cfg.weight_decay * w, out=g)
            if cfg.momentum > 0:
                v = self._stack_velocity[name]
                np.multiply(v, cfg.momentum, out=v)
                np.add(v, g, out=v)
                # Scale the update into the (consumable) gradient buffer,
                # never the live velocity.
                np.multiply(v, cfg.learning_rate, out=g)
            else:
                np.multiply(g, cfg.learning_rate, out=g)
            np.subtract(w, g, out=w)
        return params
