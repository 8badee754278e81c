"""The four-round Secure Aggregation protocol (Sec. 6).

Rounds (names from Bonawitz et al. 2017; Sec. 6 groups them into phases):

* **Round 0 — AdvertiseKeys** (Prepare): devices publish two DH public
  keys; the server broadcasts the roster ``U1``.
* **Round 1 — ShareKeys** (Prepare): each device Shamir-shares its
  pairwise-mask secret key and its self-mask seed among ``U1`` with
  threshold ``t``, encrypted per recipient; the server forwards them.
  Devices that drop out here ("will not have their updates included").
* **Round 2 — MaskedInputCollection** (Commit): devices upload
  double-masked quantized inputs; the server accumulates the sum.  "All
  devices who complete this round will have their model update included."
* **Round 3 — Unmasking** (Finalization): surviving devices reveal self-
  mask shares of committed peers and key shares of dropped peers; the
  server reconstructs, strips masks, and reveals only the sum.  Only a
  threshold of committed devices needs to survive this round.

Dropouts at every stage are injected via :class:`DropoutSchedule`; server
work is accounted in :class:`SecAggMetrics` — the quadratic unmasking cost
is the reason Sec. 6 caps cohorts at "hundreds of users" per Aggregator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.secagg.masking import VectorQuantizer


class SecAggError(RuntimeError):
    """Protocol failure: below threshold, or inconsistent state."""


@dataclass(frozen=True)
class DropoutSchedule:
    """Devices that vanish *after* completing the named round."""

    after_advertise: frozenset[int] = frozenset()   # in U1, never share keys
    after_share: frozenset[int] = frozenset()       # in U2, never commit
    after_mask: frozenset[int] = frozenset()        # in U3, never unmask

    @classmethod
    def none(cls) -> "DropoutSchedule":
        return cls()


@dataclass
class SecAggMetrics:
    """Server-side cost accounting for one protocol instance.

    The phase-seconds fields partition the instance's timed span into
    four phases: the prologue (rounds 0–1: secret draws, Shamir share
    creation and the threshold checks), pairwise seed derivation
    (round 2), PRG expansion + mask arithmetic (round 2), and dropout
    recovery (round 3, the same span as ``server_seconds``).  They are
    populated only when a ``timer`` is injected — the per-device
    reference protocol (``tests/reference/secagg.py``) leaves them 0.0,
    so the equivalence tests' metrics ``==`` holds whenever no timer is
    injected.  Grouped instances run in turn, each phase one lap of a
    clock they share.
    """

    cohort_size: int = 0
    committed: int = 0
    dropped_before_commit: int = 0
    dropped_after_commit: int = 0
    key_agreements: int = 0
    prg_expansions: int = 0
    shamir_reconstructions: int = 0
    server_seconds: float = 0.0
    sharing_seconds: float = 0.0
    key_agreement_seconds: float = 0.0
    masking_seconds: float = 0.0
    recovery_seconds: float = 0.0
    succeeded: bool = False


@dataclass
class SecAggTranscript:
    """Byte-comparable artifacts of one protocol instance.

    Captured by :func:`run_secure_aggregation_transcript` (and by the
    per-device reference protocol in ``tests/reference/secagg.py``) so
    tests can assert the two agree round by round, not just on the
    decoded total: the committed masked vectors (round 2), every share as
    delivered to each committed device (round 1), and the unmasked ring
    sum (round 3).  ``shares[receiver][sender]`` is ``(x, s_y, b_y)``.
    """

    masked: dict[int, np.ndarray]
    shares: dict[int, dict[int, tuple[int, int, int]]]
    ring_sum: np.ndarray


def run_secure_aggregation(
    inputs: dict[int, np.ndarray],
    threshold: int,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule | None = None,
    timer: Callable[[], float] | None = None,
) -> tuple[np.ndarray, SecAggMetrics]:
    """Orchestrate one full instance over in-memory participants.

    Returns the decoded float sum over devices that committed (round 2),
    and the server's cost metrics.  A ``threshold`` that is not an
    integer >= 2 is refused with ``ValueError`` before any rng draw;
    :class:`SecAggError` is raised if any stage falls below it.
    ``timer`` is the injected clock for the metrics' ``*_seconds``.
    """
    # Imported here: vectorized.py builds on this module's types.
    from repro.secagg.vectorized import _PhaseTimer, run_vectorized

    total, metrics, _ = run_vectorized(
        inputs, threshold, quantizer, rng, dropouts or DropoutSchedule.none(),
        _PhaseTimer(timer), capture=False,
    )
    return total, metrics


def run_secure_aggregation_transcript(
    inputs: dict[int, np.ndarray],
    threshold: int,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule | None = None,
    timer: Callable[[], float] | None = None,
) -> tuple[np.ndarray, SecAggMetrics, SecAggTranscript]:
    """Like :func:`run_secure_aggregation`, also returning the transcript.

    The transcript exists so equivalence tests can compare the instance
    round by round against the per-device reference protocol
    (``tests/reference/secagg.py``).
    """
    from repro.secagg.vectorized import _PhaseTimer, run_vectorized

    return run_vectorized(
        inputs, threshold, quantizer, rng, dropouts or DropoutSchedule.none(),
        _PhaseTimer(timer), capture=True,
    )
