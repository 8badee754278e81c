"""The Secure Aggregation protocol (Sec. 6) as matrix work.

The protocol is one state machine per device — K PRG expansions, K share
loops, per-device ring chains (the per-device form is the test reference,
``tests/reference/secagg.py``).  This module replays the *same* protocol
as stacked operations:

* pairwise PRG seeds ride the batched DH substrate
  (:func:`~repro.secagg.dh.agree_pairs_batch` on the 2^255−19 limb
  kernels of :mod:`repro.secagg.bigmod`) — the simulator holds both
  secrets of every pair, so each seed is one fixed-base exponentiation
  of ``g^(a·b)``, no per-pair squaring ladder;
* mask expansion for all devices is one ``(K, dim)``
  :func:`~repro.secagg.prg.prg_expand_batch` call per mask family;
* Shamir sharing is one :func:`~repro.secagg.shamir.share_secrets_words`
  over every secret of the round (limb-vectorized Horner), kept as
  uint64 halves;
* MaskedInputCollection is in-place uint64 arithmetic on a ``(K, dim)``
  matrix — exact, because 2^b divides 2^64 so wrapping sums followed by
  one final mask equal per-op-masked chains;
* dropout recovery reconstructs every seed with one shared Lagrange
  basis (:func:`~repro.secagg.shamir.reconstruct_secrets_batch`).

:func:`run_vectorized` is one instance: the one engine behind
:func:`repro.secagg.protocol.run_secure_aggregation` (a leaf
Aggregator's cohort) and, group by group, :mod:`repro.secagg.grouped`.

Byte-for-byte equivalence with the per-device reference is a hard
contract: same rng draw order (so trajectories match even across a
raised :class:`SecAggError`), same masked vectors, same shares, same
ring sum, same metrics counts, same error messages at every threshold
check.  ``tests/secagg/test_vectorized.py`` and
``tests/secagg/test_grouped.py`` assert all of it.

Deliberate simulation shortcuts, none observable in any output:

* share-transport encryption is skipped — the reference's
  encrypt/decrypt round-trips are the identity on payloads, and the
  ``c`` exponent is still drawn so the rng trajectory is unchanged;
* each pairwise PRG seed is computed once per unordered pair from the
  two secret exponents (``agree(a, g^b)`` hashes the symmetric group
  element ``g^(a·b)``), where devices compute it independently at both
  endpoints.  Server-side metrics count unmasking work only, so counts
  are unaffected;
* shares are converted to field elements lazily: round 3 converts the
  first-``threshold`` responders' x-set of each secret it reconstructs
  (840 of 2,450 at 35 devices and threshold 24), a transcript all;
* round 2's server reads the committers' sum, not their rows: a pair
  both of whose endpoints committed adds its mask at one and subtracts
  it at the other, so the fleet's path sums the quantized inputs, the
  self masks and the dangling pairs' rows, and only a transcript folds
  each committer's masked row;
* round 3 reads from round 2: a ``b`` seed's self-mask row, keyed on
  the reconstructed seed (a seed round 2 never held is expanded), and a
  dangling pair's mask row by pair index.  Both kernels are pure, so a
  read equals a recomputation; metrics count the recomputations;
* a reconstructed key is checked against round 2's secret exponent,
  not against its public key: g's order exceeds 2^251 and exponents are
  below 2^127, so the keys match exactly when the exponents do, and no
  ``g^s`` is ever computed.
"""

from __future__ import annotations

from numbers import Integral
from typing import Callable

import numpy as np

from repro.secagg.dh import _secret_of, agree_pairs_batch
from repro.secagg.field import SECRET_BITS, field_values, ring_mask
from repro.secagg.masking import VectorQuantizer
from repro.secagg.prg import prg_expand_batch
from repro.secagg.protocol import (
    DropoutSchedule,
    SecAggError,
    SecAggMetrics,
    SecAggTranscript,
)
from repro.secagg.shamir import reconstruct_secrets_batch, share_secrets_words


def _expand_held(
    seeds: list[int], held: list[int], rows: np.ndarray, bits: int
) -> np.ndarray:
    """``prg_expand_batch(seeds, …)``: ``rows``, round 2's expansion of
    ``held``, when the seeds are round 2's (expansion is pure, so a read
    row equals a fresh one); seeds round 2 never held are expanded."""
    return rows if seeds == held else prg_expand_batch(seeds, rows.shape[1], bits)


class _PhaseTimer:
    """Lap clock over an injected timer; every lap is 0.0 without one."""

    def __init__(self, timer: Callable[[], float] | None):
        self._timer = timer or float  # float() is 0.0: a stopped clock
        self._last = self._timer()

    def lap(self) -> float:
        """Seconds since the previous lap."""
        now = self._timer()
        elapsed, self._last = now - self._last, now
        return elapsed


def run_vectorized(
    inputs: dict[int, np.ndarray],
    threshold: int,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule,
    phases: _PhaseTimer,
    capture: bool,
) -> tuple[np.ndarray, SecAggMetrics, SecAggTranscript | None]:
    """Run one protocol instance: rounds 0–1 draw and check in the
    reference's order, then three sweeps (pair agreements, PRG and mask
    arithmetic, Shamir reconstruction with key verification and dangling
    recovery) do the math.  Each phase is one lap of ``phases``; the
    transcript is built only when ``capture`` is set."""
    if (
        isinstance(threshold, bool)
        or not isinstance(threshold, Integral)
        or threshold < 2
    ):
        raise ValueError(f"threshold must be an integer >= 2, got {threshold!r}")
    lengths = {v.shape for v in inputs.values()}
    if len(lengths) != 1:
        raise ValueError(f"input vectors must share a shape, got {lengths}")
    bits = quantizer.modulus_bits
    metrics = SecAggMetrics()
    uids = list(inputs)
    cohort = len(uids)

    # -- Rounds 0–1: every rng draw and every threshold check of rounds
    # 0–3 happens here, at the reference's stream position (rounds 2–3
    # draw nothing).
    # Round 0: AdvertiseKeys — per device: c exponent (trajectory only:
    # no wire encryption in simulation), s exponent, self-mask seed;
    # draws precede the threshold check exactly as the reference
    # constructs clients before the server thresholds the roster.  The
    # reference's three 15-byte draws per device are one draw here: a
    # 15-byte draw spends four whole 4-byte words, so its draws are the
    # 16-byte-strided slices of one 48-byte-per-device draw, which leaves
    # the stream where they leave it (pinned by tests/secagg/test_dh.py).
    width = SECRET_BITS // 8
    draws = rng.bytes(48 * cohort)
    s_secret: dict[int, int] = {}
    b_seed: dict[int, int] = {}
    for i, uid in enumerate(uids):
        s_at, b_at = 48 * i + 16, 48 * i + 32
        s_secret[uid] = _secret_of(draws[s_at : s_at + width])
        b_seed[uid] = int.from_bytes(draws[b_at : b_at + width], "little")
    if cohort < threshold:
        raise SecAggError(
            f"only {cohort} devices advertised keys, threshold is {threshold}"
        )
    metrics.cohort_size = cohort

    peer_ids = sorted(uids)
    pos = {uid: i for i, uid in enumerate(peer_ids)}

    # Round 1: ShareKeys — interleaved (s, b) secrets per survivor,
    # coefficients drawn in the reference's per-device order; the shares
    # stay uint64 halves, row 2i for u2[i]'s s and row 2i + 1 for its b.
    u2 = [uid for uid in peer_ids if uid not in dropouts.after_advertise]
    secrets = [v for uid in u2 for v in (s_secret[uid], b_seed[uid])]
    share_lo, share_hi = share_secrets_words(secrets, cohort, threshold, rng)
    if len(u2) < threshold:
        raise SecAggError(
            f"only {len(u2)} devices shared keys, threshold is {threshold}"
        )

    # Rounds 2–3 membership checks (no draws, no crypto needed).
    committers = [uid for uid in u2 if uid not in dropouts.after_share]
    committed = set(committers)
    if len(committers) < threshold:
        raise SecAggError(
            f"only {len(committers)} devices committed, "
            f"threshold is {threshold}"
        )
    metrics.committed = len(committers)
    metrics.dropped_before_commit = cohort - len(committers)

    responders = [uid for uid in committers if uid not in dropouts.after_mask]
    if len(responders) < threshold:
        raise SecAggError(
            f"only {len(responders)} devices answered unmasking, "
            f"threshold is {threshold}"
        )
    metrics.dropped_after_commit = len(committers) - len(responders)
    dropped = [uid for uid in u2 if uid not in committed]
    metrics.sharing_seconds = phases.lap()

    # -- Round 2, sweep 1: the pairwise seeds in one fixed-base pass —
    # one seed per unordered pair of u2 positions (i < j, in order) with
    # at least one committed endpoint; agree() hashes the symmetric
    # element g^(ab), so both endpoints of the pair would compute it.
    at_u2 = np.array([uid in committed for uid in u2])
    firsts, seconds = np.triu_indices(len(u2), 1)
    keep = at_u2[firsts] | at_u2[seconds]
    firsts, seconds = firsts[keep], seconds[keep]
    pairs = list(zip(firsts.tolist(), seconds.tolist()))
    s_of = [s_secret[uid] for uid in u2]
    pair_seeds = agree_pairs_batch([(s_of[i], s_of[j]) for i, j in pairs])
    metrics.key_agreement_seconds = phases.lap()

    # -- Round 2, sweep 2: one (C, dim) PRG/quantize/mask pass over the
    # committers, then their wrapped sum.  A pair's mask enters + at its
    # first endpoint and - at its second, so the masks of a pair that
    # both committed cancel in the sum: the server's sum reads the
    # dangling pairs' rows, by pair index, and only a transcript folds
    # each committer's masked row.
    dim = next(iter(inputs.values())).shape[0]
    self_seeds = [b_seed[uid] for uid in committers]
    pair_rows = prg_expand_batch(pair_seeds, dim, bits)
    self_rows = prg_expand_batch(self_seeds, dim, bits)
    # (C, dim) uint64, freshly owned.
    masked = quantizer.quantize(np.stack([inputs[uid] for uid in committers]))
    masked += self_rows
    ahead = at_u2[firsts] & ~at_u2[seconds]     # committed, dropped peer above
    behind = at_u2[seconds] & ~at_u2[firsts]    # committed, dropped peer below
    if capture:  # + at a pair's first endpoint, - at its second
        row_at = (np.cumsum(at_u2) * at_u2 - 1).tolist()
        for row, (i, j) in zip(pair_rows, pairs):
            if row_at[i] >= 0:
                masked[row_at[i]] += row
            if row_at[j] >= 0:
                masked[row_at[j]] -= row
        masked &= ring_mask(bits)
        result = masked.sum(axis=0)  # uint64 sums wrap: exact mod 2^b
    else:
        result = masked.sum(axis=0)
        result += pair_rows[ahead].sum(axis=0) - pair_rows[behind].sum(axis=0)
    result &= ring_mask(bits)
    metrics.masking_seconds = phases.lap()

    # -- Round 3: one reconstruction sweep.  Every responder holds a
    # share of every reconstructed secret, so all of them use one x-set
    # — the first `threshold` responders, exactly the shares the
    # reference server consumes — and one Lagrange basis; only those
    # shares become field elements.
    cols = [pos[uid] for uid in responders[:threshold]]
    targets = np.concatenate(
        [2 * np.flatnonzero(at_u2) + 1, 2 * np.flatnonzero(~at_u2)]
    )
    picked = np.ix_(targets, cols)
    metrics.shamir_reconstructions = len(committers) + len(dropped)
    recon = reconstruct_secrets_batch(
        [x + 1 for x in cols], field_values(share_lo[picked], share_hi[picked])
    )
    recon_b, recon_s = recon[:len(committers)], recon[len(committers):]

    # Verify every reconstructed key against its advertised public key.
    # g has order above 2^251 and both exponents are below 2^127, so the
    # keys match exactly when the exponents do: the key is then the one
    # round 2 agreed with, and its pairs' seeds and rows are round 2's.
    for uid, reconstructed in zip(dropped, recon_s):
        if reconstructed != s_secret[uid]:
            raise SecAggError(
                f"reconstructed key for {uid} does not match advertised key"
            )

    # Self masks off, then the dangling pairwise masks of share-then-drop
    # devices.  The reference server re-derives each self mask from its
    # reconstructed ``b`` seed and each dangling seed from a reconstructed
    # key (one agreement per survivor), and the metrics count that work;
    # the plane reads round 2's rows for what it reconstructed instead.
    result -= _expand_held(recon_b, self_seeds, self_rows, bits).sum(axis=0)
    work = len(dropped) * len(committers)
    metrics.key_agreements = work
    metrics.prg_expansions = len(committers) + work
    # Each survivor applied +mask toward a dropped peer above it and
    # -mask toward one below: subtract what it applied.
    result -= pair_rows[ahead].sum(axis=0) - pair_rows[behind].sum(axis=0)
    result &= ring_mask(bits)
    # server_seconds keeps its reference meaning — round-3 unmasking time.
    metrics.recovery_seconds = metrics.server_seconds = phases.lap()
    metrics.succeeded = True

    transcript = None
    if capture:
        ys = field_values(share_lo, share_hi)
        transcript = SecAggTranscript(
            masked={uid: masked[i] for i, uid in enumerate(committers)},
            shares={
                uid: {
                    sender: (pos[uid] + 1, ys[2 * i][pos[uid]], ys[2 * i + 1][pos[uid]])
                    for i, sender in enumerate(u2)
                }
                for uid in committers
            },
            ring_sum=result,
        )
    return quantizer.dequantize_sum(result), metrics, transcript
