"""Plain SGD, the client optimizer of ``ClientUpdate`` (Algorithm 1); the
server adds the mean delta itself (:class:`repro.core.fedavg.FederatedAveraging`).

``step`` is functional (returns new :class:`Parameters`) — the public API
and the byte oracle; ``step_stack_`` is the in-place kernel that advances a
whole cohort's stacked working copies, which is what runs.  Row ``i`` of a
stacked step receives the same elementwise float operations in the same
order as a functional step on client ``i`` alone (guarded by
``tests/nn/test_models_cohort.py``).
"""

from __future__ import annotations

import numpy as np

from repro.nn.parameters import Parameters, StackedParameters


class SGD:
    """Stochastic gradient descent, ``w <- w - lr * g``; stateless.

    Two entry points: functional ``step`` (new ``Parameters`` out, inputs
    untouched) and in-place ``step_stack_`` (mutates the stacked
    ``params``; consumes ``grads``).
    """

    def __init__(self, learning_rate: float):
        if not 0 < learning_rate < np.inf:  # NaN fails it too
            raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
        self.learning_rate = learning_rate

    def step(self, params: Parameters, grads: Parameters) -> Parameters:
        """One update: ``w <- w - lr * g``."""
        lr = self.learning_rate
        return Parameters({name: w - lr * grads[name] for name, w in params.items()})

    def step_stack_(
        self, params: StackedParameters, grads: StackedParameters
    ) -> StackedParameters:
        """Vectorized :meth:`step` advancing ``K`` stacked working copies
        in place.

        Every row receives the same elementwise float ops as a per-client
        :meth:`step` call (``w - lr * g``), so row ``i`` is bitwise-identical
        to stepping client ``i`` alone.  ``grads`` is *consumed* — its arrays
        are used as the update scratch — which is the contract the cohort
        execution plane wants (gradient stacks are rewritten by the next
        batched backward pass anyway).
        """
        lr = self.learning_rate
        for name, w in params.items():
            g = grads[name]
            np.multiply(g, lr, out=g)
            np.subtract(w, g, out=w)
        return params
