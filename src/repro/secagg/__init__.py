"""Secure Aggregation (Sec. 6; Bonawitz et al., CCS 2017).

A four-round interactive protocol making individual device updates
uninspectable by the server: the server only learns the *sum* of the
devices' (quantized) input vectors, provided at least a threshold ``t`` of
devices survive to the Finalization phase.

Structure is faithful to the paper — AdvertiseKeys / ShareKeys (the
Prepare phase), MaskedInputCollection (Commit), Unmasking (Finalization) —
with double masking (pairwise Diffie–Hellman masks + a self mask), Shamir
secret sharing for dropout recovery, and the quadratic server unmasking
cost that motivates running one SecAgg instance per Aggregator over groups
of size at least ``k``.

Cryptographic primitives are *simulation grade* (smaller DH group,
Philox-based PRG); the protocol logic, message flow, threshold semantics
and cost structure match the real system.  The protocol runs as stacked
matrix work (:mod:`repro.secagg.vectorized`); the per-device state
machines it is byte-identical to are the test reference,
``tests/reference/secagg.py``.
"""

from repro.secagg.field import SHAMIR_PRIME, centered_mod
from repro.secagg.shamir import reconstruct_secrets_batch, share_secrets_batch
from repro.secagg.dh import agree_pairs_batch
from repro.secagg.bigmod import FixedBaseTable
from repro.secagg.prg import prg_expand_batch
from repro.secagg.masking import VectorQuantizer
from repro.secagg.protocol import (
    DropoutSchedule,
    SecAggError,
    SecAggMetrics,
    SecAggTranscript,
    run_secure_aggregation,
    run_secure_aggregation_transcript,
)
from repro.secagg.grouped import (
    grouped_secure_sum,
    grouped_secure_sum_transcripts,
)

__all__ = [
    "FixedBaseTable",
    "SHAMIR_PRIME",
    "centered_mod",
    "share_secrets_batch",
    "reconstruct_secrets_batch",
    "agree_pairs_batch",
    "prg_expand_batch",
    "VectorQuantizer",
    "DropoutSchedule",
    "SecAggError",
    "SecAggMetrics",
    "SecAggTranscript",
    "run_secure_aggregation",
    "run_secure_aggregation_transcript",
    "grouped_secure_sum",
    "grouped_secure_sum_transcripts",
]
