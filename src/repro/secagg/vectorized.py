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
* Shamir sharing is one :func:`~repro.secagg.shamir.share_secrets_batch`
  over every secret of the round (limb-vectorized Horner);
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
* round 3 reads from round 2, keyed on what it reconstructed: a ``b``
  seed's self-mask row, a dangling pair's seed (keyed on the product of
  the reconstructed key and the survivor's secret) and its mask row.
  Both kernels are pure, so a read equals a recomputation, and a key
  round 2 never held is computed; metrics count the recomputations;
* ``g^s`` public keys are materialized only where an output can observe
  them — verifying reconstructed keys of dropped devices — in one
  stacked fixed-base pass, instead of one ``pow`` per device at
  AdvertiseKeys.
"""

from __future__ import annotations

from numbers import Integral
from typing import Callable

import numpy as np

from repro.secagg.dh import _secret_of, agree_pairs_batch, public_keys_batch
from repro.secagg.field import SECRET_BITS, ring_mask
from repro.secagg.masking import VectorQuantizer
from repro.secagg.prg import prg_expand_batch
from repro.secagg.protocol import (
    DropoutSchedule,
    SecAggError,
    SecAggMetrics,
    SecAggTranscript,
)
from repro.secagg.shamir import reconstruct_secrets_batch, share_secrets_batch


def _expand_held(
    seeds: list[int], held: list[int], rows: np.ndarray, bits: int
) -> np.ndarray:
    """``prg_expand_batch(seeds, …)``, read from ``rows`` (round 2's
    expansion of ``held``) wherever round 2 holds the seed: expansion is
    pure, so a read row equals a fresh one.  A seed round 2 never held
    (a wrong reconstruction would be one) is expanded as it stands."""
    row_of = {seed: k for k, seed in enumerate(held)}
    fresh = [seed for seed in seeds if seed not in row_of]
    if fresh:
        row_of.update(zip(fresh, range(len(held), len(held) + len(fresh))))
        rows = np.concatenate(
            [rows, prg_expand_batch(fresh, rows.shape[1], bits)]
        )
    return rows[[row_of[seed] for seed in seeds]]


def _apply_pair_masks_(
    masked: np.ndarray,
    pair_rows: np.ndarray,
    plus_rows: list[list[int]],
    minus_rows: list[list[int]],
) -> None:
    """Fold signed pairwise mask rows into ``masked`` in place.

    ``plus_rows[i]`` / ``minus_rows[i]`` index into ``pair_rows`` for
    committer row ``i`` (sign convention: + toward higher-id peers).
    uint64 ops wrap mod 2^64; the caller masks down to 2^b once at the
    end, which is exact because 2^b divides 2^64.
    """
    for i in range(masked.shape[0]):
        row = masked[i]
        for k in plus_rows[i]:
            row += pair_rows[k]
        for k in minus_rows[i]:
            row -= pair_rows[k]


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
    # coefficients drawn in the reference's per-device order.
    u2 = [uid for uid in peer_ids if uid not in dropouts.after_advertise]
    secrets: list[int] = []
    for uid in u2:
        secrets.append(s_secret[uid])
        secrets.append(b_seed[uid])
    ys = share_secrets_batch(secrets, cohort, threshold, rng)
    s_ys = {uid: ys[2 * i] for i, uid in enumerate(u2)}
    b_ys = {uid: ys[2 * i + 1] for i, uid in enumerate(u2)}
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
    # one seed per unordered pair with at least one committed endpoint;
    # agree() hashes the symmetric element g^(ab), so both endpoints of
    # the pair would compute this exact value.
    pairs: list[tuple[int, int]] = []
    secret_pairs: list[tuple[int, int]] = []
    for i, a in enumerate(u2):
        a_committed = a in committed
        for b in u2[i + 1:]:
            if a_committed or b in committed:
                pairs.append((a, b))
                secret_pairs.append((s_secret[a], s_secret[b]))
    pair_seeds = agree_pairs_batch(secret_pairs)
    metrics.key_agreement_seconds = phases.lap()

    # -- Round 2, sweep 2: one (C, dim) PRG/quantize/mask pass over the
    # committers, then their wrapped sum.
    dim = next(iter(inputs.values())).shape[0]
    self_seeds = [b_seed[uid] for uid in committers]
    pair_rows = prg_expand_batch(pair_seeds, dim, bits)
    self_rows = prg_expand_batch(self_seeds, dim, bits)

    row_of = {uid: i for i, uid in enumerate(committers)}
    plus_rows: list[list[int]] = [[] for _ in committers]
    minus_rows: list[list[int]] = [[] for _ in committers]
    for k, (a, b) in enumerate(pairs):
        ia = row_of.get(a)
        if ia is not None:
            plus_rows[ia].append(k)
        ib = row_of.get(b)
        if ib is not None:
            minus_rows[ib].append(k)
    # (C, dim) uint64, freshly owned.
    masked = quantizer.quantize(np.stack([inputs[uid] for uid in committers]))
    masked += self_rows
    _apply_pair_masks_(masked, pair_rows, plus_rows, minus_rows)
    masked &= ring_mask(bits)
    result = masked.sum(axis=0)  # uint64 sums wrap: exact mod 2^b
    result &= ring_mask(bits)
    metrics.masking_seconds = phases.lap()

    # -- Round 3: one reconstruction sweep.  Every responder holds a
    # share of every reconstructed secret, so all of them use one x-set
    # — the first `threshold` responders, exactly the shares the
    # reference server consumes — and one Lagrange basis.
    xs = [pos[uid] + 1 for uid in responders[:threshold]]
    targets = [b_ys[uid] for uid in committers] + [s_ys[uid] for uid in dropped]
    metrics.shamir_reconstructions = len(targets)
    recon = reconstruct_secrets_batch(
        xs, [[target[x - 1] for x in xs] for target in targets]
    )
    recon_b, recon_s = recon[:len(committers)], recon[len(committers):]

    # Verify every reconstructed key against its advertised public key in
    # one fixed-base pass (the only place public keys are observable).
    publics = public_keys_batch([s_secret[uid] for uid in dropped] + recon_s)
    for uid, advertised, reconstructed in zip(
        dropped, publics, publics[len(dropped):]
    ):
        if reconstructed != advertised:
            raise SecAggError(
                f"reconstructed key for {uid} does not match advertised key"
            )

    # Self masks off, then the dangling pairwise masks of share-then-drop
    # devices.  The reference server re-derives each self mask from its
    # reconstructed ``b`` seed and each dangling seed from a reconstructed
    # key (one agreement per survivor), and the metrics count that work;
    # the plane reads round 2's value for what it reconstructed instead.
    result -= _expand_held(recon_b, self_seeds, self_rows, bits).sum(axis=0)
    work = len(dropped) * len(committers)
    metrics.key_agreements = work
    metrics.prg_expansions = len(committers) + work
    dangling: list[tuple[int, int]] = []
    folds: tuple[list[int], list[int]] = ([], [])  # (sub, add)
    for uid, s_rec in zip(dropped, recon_s):
        for survivor in committers:
            # survivor applied +mask if survivor < uid else -mask;
            # subtract exactly what was applied.
            folds[survivor > uid].append(len(dangling))
            dangling.append((s_rec, s_secret[survivor]))
    if dangling:
        # agree() hashes g^(a·b): round 2's seed of the same product.
        seed_of = dict(zip((a * b for a, b in secret_pairs), pair_seeds))
        fresh = [(a, b) for a, b in dangling if a * b not in seed_of]
        seed_of.update(
            zip((a * b for a, b in fresh), agree_pairs_batch(fresh))
        )
        rows = _expand_held(
            [seed_of[a * b] for a, b in dangling], pair_seeds, pair_rows, bits
        )
        sub, add = folds
        result -= rows[sub].sum(axis=0) - rows[add].sum(axis=0)
    result &= ring_mask(bits)
    # server_seconds keeps its reference meaning — round-3 unmasking time.
    metrics.recovery_seconds = metrics.server_seconds = phases.lap()
    metrics.succeeded = True

    transcript = None
    if capture:
        transcript = SecAggTranscript(
            masked={uid: masked[i] for i, uid in enumerate(committers)},
            shares={
                uid: {
                    sender: (
                        pos[uid] + 1,
                        s_ys[sender][pos[uid]],
                        b_ys[sender][pos[uid]],
                    )
                    for sender in u2
                }
                for uid in committers
            },
            ring_sum=result,
        )
    return quantizer.dequantize_sum(result), metrics, transcript
