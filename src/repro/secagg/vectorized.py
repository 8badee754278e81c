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

:func:`run_vectorized_grouped` batches the same sweeps *across* the
per-Aggregator groups of :mod:`repro.secagg.grouped` (Sec. 6): rng draws
and threshold checks stay strictly sequential in group order — so every
error raises with the message and rng position of the sequential
per-group run — while the pairwise-agreement, PRG/commit, and
reconstruction sweeps each run once over all groups' work stacked into
one batch.  A single instance
(:func:`repro.secagg.protocol.run_secure_aggregation`) is the one-group
case.

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
  AdvertiseKeys;
* the defensive "reconstructed key does not match" check runs in the
  batched round-3 sweep, after every group's threshold checks.  With
  in-memory Shamir shares reconstruction is exact, so the check cannot
  fire before a later group's threshold error in any achievable
  execution — threshold errors, the only observable failures, keep
  their exact sequential order.
"""

from __future__ import annotations

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


def _attribute_phase(
    states: list["_GroupState"],
    field: str,
    duration: float,
    weights: list[int],
) -> None:
    """Split one shared sweep's duration over groups by work-item share."""
    total = max(sum(weights), 1)
    for state, weight in zip(states, weights):
        share = duration * weight / total
        setattr(state.metrics, field, getattr(state.metrics, field) + share)


class _GroupState:
    """Everything one group carries from its sequential draws into the
    stacked sweeps."""

    __slots__ = (
        "uids", "threshold", "metrics", "pos", "u2", "s_secret", "b_seed",
        "s_ys", "b_ys", "committers", "committed", "dropped", "responders",
        "xs", "pairs", "pair_start", "row_start",
    )

    def __init__(self, uids: list[int], threshold: int):
        self.uids = uids
        self.threshold = threshold
        self.metrics = SecAggMetrics()


def run_vectorized_grouped(
    group_inputs: list[dict[int, np.ndarray]],
    thresholds: list[int],
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    schedules: list[DropoutSchedule],
    timer: Callable[[], float] | None = None,
    capture: bool = False,
) -> tuple[
    list[np.ndarray], list[SecAggMetrics], list[SecAggTranscript] | None
]:
    """Run one protocol instance per group with cross-group batched sweeps.

    rng draws, threshold checks, and their error messages happen group by
    group in list order — byte- and position-identical to running the
    groups sequentially — then the expensive sweeps (pair agreements, PRG
    and mask arithmetic, Shamir reconstruction, key verification, dangling
    recovery) each execute once over all groups' stacked work.
    """
    bits = quantizer.modulus_bits
    states: list[_GroupState] = []
    phases = _PhaseTimer(timer)

    # -- Rounds 0–1 per group, in order: every rng draw and every
    # threshold check of rounds 0–3 happens here, at the exact stream
    # position of a sequential per-group run (rounds 2–3 draw nothing).
    # Each group's prologue is its own lap of `sharing_seconds`.
    for inputs, threshold, dropouts in zip(group_inputs, thresholds, schedules):
        lengths = {v.shape for v in inputs.values()}
        if len(lengths) != 1:
            raise ValueError(
                f"input vectors must share a shape, got {lengths}"
            )
        state = _GroupState(list(inputs), threshold)
        cohort = len(state.uids)

        # Round 0: AdvertiseKeys — per device: c exponent (trajectory
        # only: no wire encryption in simulation), s exponent, self-mask
        # seed; draws precede the threshold check exactly as the reference
        # constructs clients before the server thresholds the roster.
        # The reference's three 15-byte draws per device are one draw
        # here: a 15-byte draw spends four whole 4-byte words, so its
        # draws are the 16-byte-strided slices of one 48-byte-per-
        # device draw, which leaves the stream where they leave it
        # (pinned by tests/secagg/test_dh.py).
        width = SECRET_BITS // 8
        draws = rng.bytes(48 * cohort)
        state.s_secret = {}
        state.b_seed = {}
        for i, uid in enumerate(state.uids):
            s_at, b_at = 48 * i + 16, 48 * i + 32
            state.s_secret[uid] = _secret_of(draws[s_at : s_at + width])
            state.b_seed[uid] = int.from_bytes(draws[b_at : b_at + width], "little")
        if cohort < threshold:
            raise SecAggError(
                f"only {cohort} devices advertised keys, threshold is "
                f"{threshold}"
            )
        state.metrics.cohort_size = cohort

        peer_ids = sorted(state.uids)
        state.pos = {uid: i for i, uid in enumerate(peer_ids)}

        # Round 1: ShareKeys — interleaved (s, b) secrets per survivor,
        # coefficients drawn in the reference's per-device order.
        state.u2 = [
            uid for uid in peer_ids if uid not in dropouts.after_advertise
        ]
        secrets: list[int] = []
        for uid in state.u2:
            secrets.append(state.s_secret[uid])
            secrets.append(state.b_seed[uid])
        ys = share_secrets_batch(secrets, cohort, threshold, rng)
        state.s_ys = {uid: ys[2 * i] for i, uid in enumerate(state.u2)}
        state.b_ys = {uid: ys[2 * i + 1] for i, uid in enumerate(state.u2)}
        if len(state.u2) < threshold:
            raise SecAggError(
                f"only {len(state.u2)} devices shared keys, threshold is "
                f"{threshold}"
            )

        # Rounds 2–3 membership checks (no draws, no crypto needed).
        state.committers = [
            uid for uid in state.u2 if uid not in dropouts.after_share
        ]
        state.committed = set(state.committers)
        if len(state.committers) < threshold:
            raise SecAggError(
                f"only {len(state.committers)} devices committed, "
                f"threshold is {threshold}"
            )
        state.metrics.committed = len(state.committers)
        state.metrics.dropped_before_commit = cohort - len(state.committers)

        state.responders = [
            uid for uid in state.committers if uid not in dropouts.after_mask
        ]
        if len(state.responders) < threshold:
            raise SecAggError(
                f"only {len(state.responders)} devices answered unmasking, "
                f"threshold is {threshold}"
            )
        state.metrics.dropped_after_commit = (
            len(state.committers) - len(state.responders)
        )
        state.dropped = [
            uid for uid in state.u2 if uid not in state.committed
        ]
        state.xs = [
            state.pos[uid] + 1 for uid in state.responders[:threshold]
        ]
        state.metrics.sharing_seconds = phases.lap()
        states.append(state)

    dim = (
        next(iter(group_inputs[0].values())).shape[0] if group_inputs else 0
    )

    # -- Round 2, sweep 1: every group's pairwise seeds in one stacked
    # fixed-base pass — one seed per unordered pair with at least one
    # committed endpoint; agree() hashes the symmetric element g^(ab),
    # so both endpoints of the pair would compute this exact value.
    secret_pairs: list[tuple[int, int]] = []
    for state in states:
        state.pair_start = len(secret_pairs)
        state.pairs = []
        for i, a in enumerate(state.u2):
            a_committed = a in state.committed
            for b in state.u2[i + 1:]:
                if a_committed or b in state.committed:
                    state.pairs.append((a, b))
                    secret_pairs.append((state.s_secret[a], state.s_secret[b]))
    pair_seeds = agree_pairs_batch(secret_pairs)
    _attribute_phase(
        states, "key_agreement_seconds", phases.lap(),
        [len(state.pairs) for state in states],
    )

    # -- Round 2, sweep 2: one (ΣC, dim) PRG/quantize/mask pass over all
    # committers, then per-group wrapped sums via one reduceat.
    self_seeds: list[int] = []
    row = 0
    for state in states:
        state.row_start = row
        row += len(state.committers)
        self_seeds.extend(state.b_seed[uid] for uid in state.committers)
    num_rows = row
    pair_rows = prg_expand_batch(pair_seeds, dim, bits)
    self_rows = prg_expand_batch(self_seeds, dim, bits)

    stacked = np.empty((num_rows, dim), dtype=np.float64)
    plus_rows: list[list[int]] = [[] for _ in range(num_rows)]
    minus_rows: list[list[int]] = [[] for _ in range(num_rows)]
    for state, inputs in zip(states, group_inputs):
        row_of = {
            uid: state.row_start + i
            for i, uid in enumerate(state.committers)
        }
        for i, uid in enumerate(state.committers):
            stacked[state.row_start + i] = inputs[uid]
        for k, (a, b) in enumerate(state.pairs, start=state.pair_start):
            ia = row_of.get(a)
            if ia is not None:
                plus_rows[ia].append(k)
            ib = row_of.get(b)
            if ib is not None:
                minus_rows[ib].append(k)
    masked = quantizer.quantize(stacked)  # (ΣC, dim) uint64, freshly owned
    masked += self_rows
    _apply_pair_masks_(masked, pair_rows, plus_rows, minus_rows)
    masked &= ring_mask(bits)

    row_starts = [state.row_start for state in states]
    masked_sums = np.add.reduceat(masked, row_starts, axis=0)
    masked_sums &= ring_mask(bits)
    _attribute_phase(
        states, "masking_seconds", phases.lap(),
        [len(state.committers) + len(state.pairs) for state in states],
    )

    # -- Round 3: one shared reconstruction sweep.  Every responder holds
    # a share of every reconstructed secret, so each group uses one x-set
    # — its first `threshold` responders, exactly the shares the reference
    # server consumes.  Groups with identical x-sets (the common case:
    # equal sizes, same dropout pattern) share one Lagrange basis and one
    # batched call; results are bit-identical regardless of bucketing.
    buckets: dict[tuple[int, ...], list[int]] = {}
    for g, state in enumerate(states):
        buckets.setdefault(tuple(state.xs), []).append(g)
    recon_b: list[list[int]] = [[] for _ in states]
    recon_s: list[list[int]] = [[] for _ in states]
    for xs_key, members in buckets.items():
        xs = list(xs_key)
        targets: list[list[int]] = []
        for g in members:
            state = states[g]
            group_targets = (
                [state.b_ys[uid] for uid in state.committers]
                + [state.s_ys[uid] for uid in state.dropped]
            )
            targets.extend(
                [target[x - 1] for x in xs] for target in group_targets
            )
            state.metrics.shamir_reconstructions += len(group_targets)
        recon = reconstruct_secrets_batch(xs, targets)
        offset = 0
        for g in members:
            state = states[g]
            recon_b[g] = recon[offset:offset + len(state.committers)]
            offset += len(state.committers)
            recon_s[g] = recon[offset:offset + len(state.dropped)]
            offset += len(state.dropped)

    # Verify every reconstructed key against its advertised public key in
    # one stacked fixed-base pass (the only place public keys are
    # observable), raising in sequential group/device order.
    dropped = [(uid, state.s_secret[uid]) for state in states
               for uid in state.dropped]
    publics = public_keys_batch(
        [s for _, s in dropped] + [s for group in recon_s for s in group]
    )
    for (uid, _), advertised, reconstructed in zip(
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
    recon_seeds = [seed for per_group in recon_b for seed in per_group]
    b_rows = _expand_held(recon_seeds, self_seeds, self_rows, bits)
    results = masked_sums
    results -= np.add.reduceat(b_rows, row_starts, axis=0)
    dangling: list[tuple[int, int]] = []
    folds: list[tuple[list[int], list[int]]] = []  # group: (sub, add)
    for state, per_group in zip(states, recon_s):
        work = len(state.dropped) * len(state.committers)
        state.metrics.key_agreements += work
        state.metrics.prg_expansions += len(state.committers) + work
        folds.append(([], []))
        for uid, s_rec in zip(state.dropped, per_group):
            for survivor in state.committers:
                # survivor applied +mask if survivor < uid else -mask;
                # subtract exactly what was applied.
                folds[-1][survivor > uid].append(len(dangling))
                dangling.append((s_rec, state.s_secret[survivor]))
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
        for g, (sub, add) in enumerate(folds):
            results[g] -= rows[sub].sum(axis=0) - rows[add].sum(axis=0)
    results &= ring_mask(bits)
    recovery = phases.lap()
    recovery_weights = [
        len(state.committers) + 2 * len(state.dropped) for state in states
    ]
    _attribute_phase(states, "recovery_seconds", recovery, recovery_weights)
    # server_seconds keeps its reference meaning — round-3 unmasking time.
    _attribute_phase(states, "server_seconds", recovery, recovery_weights)
    for state in states:
        state.metrics.succeeded = True

    transcripts: list[SecAggTranscript] | None = None
    if capture:
        transcripts = []
        for g, state in enumerate(states):
            transcripts.append(SecAggTranscript(
                masked={
                    uid: masked[state.row_start + i]
                    for i, uid in enumerate(state.committers)
                },
                shares={
                    uid: {
                        sender: (
                            state.pos[uid] + 1,
                            state.s_ys[sender][state.pos[uid]],
                            state.b_ys[sender][state.pos[uid]],
                        )
                        for sender in state.u2
                    }
                    for uid in state.committers
                },
                ring_sum=results[g],
            ))
    totals = [
        quantizer.dequantize_sum(results[g]) for g in range(len(states))
    ]
    return totals, [state.metrics for state in states], transcripts

