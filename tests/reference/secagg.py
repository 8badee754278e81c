"""The per-device Secure Aggregation protocol (Sec. 6): one state machine
per device, kept as the reference the vectorized plane
(:mod:`repro.secagg.vectorized`) is tested against —
``tests/secagg/test_vectorized.py`` and ``tests/secagg/test_grouped.py``
run both from identically seeded rngs and want byte-identical masked
vectors, delivered shares, ring sums, decoded totals, metrics, error
messages and rng positions.  No fleet runs it.

It carries its own scalar crypto — the share-transport AEAD, ``pow``-based
Diffie–Hellman, per-polynomial Shamir sharing, one-seed PRG expansion and
per-op-masked ring arithmetic — so the oracle shares no kernel with the
plane it checks.  Two entries take the production signatures:
:func:`run_secure_aggregation_transcript` (one instance) and
:func:`grouped_secure_sum_transcripts` (one instance per group, in
order).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.secagg.dh import DH_GENERATOR, DH_PRIME
from repro.secagg.field import SECRET_BITS, SHAMIR_PRIME, ring_mask
from repro.secagg.grouped import (
    _group_schedule,
    partition_into_groups,
    shamir_threshold,
)
from repro.secagg.masking import VectorQuantizer
from repro.secagg.protocol import (
    DropoutSchedule,
    SecAggError,
    SecAggMetrics,
    SecAggTranscript,
)


# -- Field and ring arithmetic ----------------------------------------------


def mod_inverse(a: int, p: int = SHAMIR_PRIME) -> int:
    """Multiplicative inverse in GF(p) via Fermat's little theorem."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(p)")
    return pow(a, p - 2, p)


def eval_polynomial(coeffs: list[int], x: int, p: int = SHAMIR_PRIME) -> int:
    """Horner evaluation of ``coeffs[0] + coeffs[1]x + ...`` in GF(p)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def ring_add(a: np.ndarray, b: np.ndarray, modulus_bits: int) -> np.ndarray:
    """Elementwise addition in ``Z_{2^b}`` on uint64 arrays."""
    mask = ring_mask(modulus_bits)
    return (a.astype(np.uint64) + b.astype(np.uint64)) & mask


def ring_sub(a: np.ndarray, b: np.ndarray, modulus_bits: int) -> np.ndarray:
    """Elementwise subtraction in ``Z_{2^b}``."""
    mask = ring_mask(modulus_bits)
    # uint64 arithmetic wraps mod 2^64; masking afterwards gives mod 2^b.
    return (a.astype(np.uint64) - b.astype(np.uint64)) & mask


# -- Shamir secret sharing ---------------------------------------------------


@dataclass(frozen=True)
class ShamirShare:
    """One share ``(x, f(x))`` of a degree-(t-1) polynomial."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x == 0:
            raise ValueError("share index 0 would leak the secret")


def share_secret(
    secret: int,
    num_shares: int,
    threshold: int,
    rng: np.random.Generator,
    prime: int = SHAMIR_PRIME,
) -> list[ShamirShare]:
    """Split ``secret`` into ``num_shares`` shares, any ``threshold`` of
    which reconstruct it."""
    if not 0 <= secret < prime:
        raise ValueError("secret out of field range")
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if num_shares < threshold:
        raise ValueError(
            f"need at least threshold={threshold} shares, got {num_shares}"
        )
    # Random degree-(threshold-1) polynomial with constant term = secret.
    coeffs = [secret] + [
        int.from_bytes(rng.bytes(16), "little") % prime
        for _ in range(threshold - 1)
    ]
    return [
        ShamirShare(x=i, y=eval_polynomial(coeffs, i, prime))
        for i in range(1, num_shares + 1)
    ]


def reconstruct_secret(
    shares: list[ShamirShare], prime: int = SHAMIR_PRIME
) -> int:
    """Lagrange interpolation at x=0."""
    if not shares:
        raise ValueError("no shares provided")
    xs = [s.x for s in shares]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate share indices")
    secret = 0
    for i, share_i in enumerate(shares):
        num = 1
        den = 1
        for j, share_j in enumerate(shares):
            if i == j:
                continue
            num = (num * (-share_j.x)) % prime
            den = (den * (share_i.x - share_j.x)) % prime
        secret = (secret + share_i.y * num * mod_inverse(den, prime)) % prime
    return secret


# -- Diffie–Hellman ----------------------------------------------------------


@dataclass(frozen=True)
class DHKeyPair:
    secret: int
    public: int


def generate_keypair(rng: np.random.Generator) -> DHKeyPair:
    """Sample a 120-bit exponent and compute ``g^secret mod p``."""
    secret = int.from_bytes(rng.bytes(SECRET_BITS // 8), "little")
    secret |= 1 << (SECRET_BITS - 8)  # keep full bit length, nonzero
    public = pow(DH_GENERATOR, secret, DH_PRIME)
    return DHKeyPair(secret=secret, public=public)


def public_key_of(secret: int) -> int:
    """Recompute the public key of a (reconstructed) secret exponent."""
    return pow(DH_GENERATOR, secret, DH_PRIME)


def agree(my_secret: int, their_public: int) -> int:
    """Shared key = SHA-256(g^{ab} mod p) truncated to 120 bits.

    Truncation keeps agreed seeds inside the Shamir field so they can be
    re-derived after reconstructing a dropped device's secret key.
    """
    shared_group_element = pow(their_public, my_secret, DH_PRIME)
    return _derive_key(shared_group_element)


def _derive_key(shared_group_element: int) -> int:
    """Truncated-SHA-256 key derivation."""
    digest = hashlib.sha256(shared_group_element.to_bytes(32, "little")).digest()
    return int.from_bytes(digest[: SECRET_BITS // 8], "little")


# -- PRG expansion and double masking ----------------------------------------

_KEY_MASK = (1 << 128) - 1


def prg_expand(seed: int, length: int, modulus_bits: int) -> np.ndarray:
    """Expand ``seed`` into ``length`` uint64 values in ``[0, 2^b)``."""
    if length < 0:
        raise ValueError("length must be non-negative")
    bitgen = np.random.Philox(key=seed & _KEY_MASK)
    raw = np.random.Generator(bitgen).integers(
        0, 1 << 63, size=length, dtype=np.uint64, endpoint=False
    )
    mask = np.uint64((1 << modulus_bits) - 1)
    return raw & mask


def apply_masks(
    quantized: np.ndarray,
    self_seed: int,
    pairwise_seeds: dict[int, int],
    my_id: int,
    modulus_bits: int,
) -> np.ndarray:
    """Compute the committed vector ``y_u`` (Round 2).

    ``y_u = x_u + PRG(b_u) + Σ_{v: u<v} PRG(s_uv) - Σ_{v: v<u} PRG(s_uv)``

    The sign convention (+ for higher-id peers, - for lower) makes the
    pairwise masks cancel exactly in the sum over any set of committed
    devices whose peers also committed.
    """
    n = quantized.shape[0]
    masked = ring_add(
        quantized, prg_expand(self_seed, n, modulus_bits), modulus_bits
    )
    for peer_id, seed in pairwise_seeds.items():
        if peer_id == my_id:
            raise ValueError("device cannot share a pairwise mask with itself")
        mask = prg_expand(seed, n, modulus_bits)
        if my_id < peer_id:
            masked = ring_add(masked, mask, modulus_bits)
        else:
            masked = ring_sub(masked, mask, modulus_bits)
    return masked


# -- Share transport encryption ----------------------------------------------
# Shares travel device→server→device, so they are encrypted under the
# pairwise key agreed from the ``c`` keypairs: a SHA-256 counter keystream
# with an encrypt-then-MAC tag — structurally an AEAD, with
# simulation-grade primitives.


@dataclass(frozen=True)
class Ciphertext:
    sender_id: int
    recipient_id: int
    body: bytes
    tag: bytes


class AuthenticationError(ValueError):
    """MAC verification failed (tampered or misrouted share)."""


def _keystream(key: int, length: int) -> bytes:
    out = bytearray()
    counter = 0
    key_bytes = key.to_bytes(16, "little")
    while len(out) < length:
        out.extend(
            hashlib.sha256(key_bytes + counter.to_bytes(8, "little")).digest()
        )
        counter += 1
    return bytes(out[:length])


def _mac(key: int, data: bytes) -> bytes:
    return hashlib.sha256(b"mac" + key.to_bytes(16, "little") + data).digest()


def encrypt(
    key: int, sender_id: int, recipient_id: int, plaintext: bytes
) -> Ciphertext:
    stream = _keystream(key, len(plaintext))
    body = bytes(p ^ s for p, s in zip(plaintext, stream))
    header = sender_id.to_bytes(8, "little") + recipient_id.to_bytes(8, "little")
    return Ciphertext(
        sender_id=sender_id,
        recipient_id=recipient_id,
        body=body,
        tag=_mac(key, header + body),
    )


def decrypt(key: int, ciphertext: Ciphertext) -> bytes:
    header = ciphertext.sender_id.to_bytes(8, "little") + ciphertext.recipient_id.to_bytes(
        8, "little"
    )
    if _mac(key, header + ciphertext.body) != ciphertext.tag:
        raise AuthenticationError(
            f"share from {ciphertext.sender_id} to {ciphertext.recipient_id} "
            "failed authentication"
        )
    stream = _keystream(key, len(ciphertext.body))
    return bytes(c ^ s for c, s in zip(ciphertext.body, stream))


# -- The protocol's two roles ------------------------------------------------


@dataclass(frozen=True)
class AdvertisedKeys:
    user_id: int
    c_public: int
    s_public: int


# Wire format of one share payload: two (x, y) Shamir shares, 17 bytes each
# component: 1-byte index + 16-byte field element.
def _encode_shares(s_share: ShamirShare, b_share: ShamirShare) -> bytes:
    def enc(share: ShamirShare) -> bytes:
        return share.x.to_bytes(2, "little") + share.y.to_bytes(16, "little")

    return enc(s_share) + enc(b_share)


def _decode_shares(blob: bytes) -> tuple[ShamirShare, ShamirShare]:
    def dec(chunk: bytes) -> ShamirShare:
        return ShamirShare(
            x=int.from_bytes(chunk[:2], "little"),
            y=int.from_bytes(chunk[2:18], "little"),
        )

    return dec(blob[:18]), dec(blob[18:36])


class SecureAggregationClient:
    """One device's protocol state machine."""

    def __init__(
        self,
        user_id: int,
        input_vector: np.ndarray,
        quantizer: VectorQuantizer,
        threshold: int,
        rng: np.random.Generator,
    ):
        self.user_id = user_id
        self.input_vector = np.asarray(input_vector, dtype=np.float64)
        self.quantizer = quantizer
        self.threshold = threshold
        self.rng = rng
        self.c_keys: DHKeyPair = generate_keypair(rng)
        self.s_keys: DHKeyPair = generate_keypair(rng)
        self.self_mask_seed: int = int.from_bytes(rng.bytes(SECRET_BITS // 8), "little")
        self.roster: dict[int, AdvertisedKeys] = {}
        self.received_shares: dict[int, tuple[ShamirShare, ShamirShare]] = {}
        self.mask_peers: list[int] = []

    # -- Round 0 -------------------------------------------------------------
    def advertise_keys(self) -> AdvertisedKeys:
        return AdvertisedKeys(
            user_id=self.user_id,
            c_public=self.c_keys.public,
            s_public=self.s_keys.public,
        )

    # -- Round 1 -------------------------------------------------------------
    def share_keys(self, roster: dict[int, AdvertisedKeys]) -> list[Ciphertext]:
        """Shamir-share ``s_sk`` and ``b`` among the roster, encrypted."""
        if len(roster) < self.threshold:
            raise SecAggError(
                f"user {self.user_id}: cohort {len(roster)} below threshold "
                f"{self.threshold}"
            )
        self.roster = dict(roster)
        peer_ids = sorted(roster)
        n = len(peer_ids)
        s_shares = share_secret(self.s_keys.secret, n, self.threshold, self.rng)
        b_shares = share_secret(self.self_mask_seed, n, self.threshold, self.rng)
        out: list[Ciphertext] = []
        for idx, peer_id in enumerate(peer_ids):
            if peer_id == self.user_id:
                # Keep own shares locally (they count toward reconstruction).
                self.received_shares[self.user_id] = (s_shares[idx], b_shares[idx])
                continue
            key = agree(self.c_keys.secret, roster[peer_id].c_public)
            payload = _encode_shares(s_shares[idx], b_shares[idx])
            out.append(encrypt(key, self.user_id, peer_id, payload))
        return out

    # -- Round 2 -------------------------------------------------------------
    def masked_input(
        self, delivered: list[Ciphertext], committed_roster: list[int]
    ) -> np.ndarray:
        """Decrypt received shares, then commit the double-masked vector.

        ``committed_roster`` is U2 — every peer that completed ShareKeys;
        pairwise masks are computed against all of them.
        """
        if len(committed_roster) < self.threshold:
            raise SecAggError(
                f"user {self.user_id}: only {len(committed_roster)} peers "
                f"shared keys, below threshold {self.threshold}"
            )
        for ct in delivered:
            key = agree(self.c_keys.secret, self.roster[ct.sender_id].c_public)
            s_share, b_share = _decode_shares(decrypt(key, ct))
            self.received_shares[ct.sender_id] = (s_share, b_share)
        self.mask_peers = [p for p in committed_roster if p != self.user_id]
        pairwise_seeds = {
            p: agree(self.s_keys.secret, self.roster[p].s_public)
            for p in self.mask_peers
        }
        quantized = self.quantizer.quantize(self.input_vector)
        return apply_masks(
            quantized,
            self.self_mask_seed,
            pairwise_seeds,
            self.user_id,
            self.quantizer.modulus_bits,
        )

    # -- Round 3 -------------------------------------------------------------
    def unmask_shares(
        self, survivors: list[int], dropped: list[int]
    ) -> dict[str, dict[int, ShamirShare]]:
        """Reveal b-shares of survivors and s-shares of dropped peers.

        Refuses to reveal both for the same user — that would let an
        honest-but-curious server unmask an individual update.
        """
        overlap = set(survivors) & set(dropped)
        if overlap:
            raise SecAggError(
                f"user {self.user_id}: refusing to reveal both shares for {overlap}"
            )
        b_out: dict[int, ShamirShare] = {}
        s_out: dict[int, ShamirShare] = {}
        for uid in survivors:
            if uid in self.received_shares:
                b_out[uid] = self.received_shares[uid][1]
        for uid in dropped:
            if uid in self.received_shares:
                s_out[uid] = self.received_shares[uid][0]
        return {"self_mask_shares": b_out, "key_shares": s_out}


class SecureAggregationServer:
    """Server role: collects, thresholds, sums, reconstructs, unmasks."""

    def __init__(
        self,
        quantizer: VectorQuantizer,
        threshold: int,
        timer: Callable[[], float] | None = None,
    ):
        self.quantizer = quantizer
        self.threshold = threshold
        # Caller-injected clock (e.g. repro.tools.perf.wall_timer) for the
        # real crypto cost in metrics.server_seconds; None leaves it 0.0 so
        # protocol code itself never reads wall time.
        self._timer = timer
        self.metrics = SecAggMetrics()
        self.roster: dict[int, AdvertisedKeys] = {}
        self.u2: list[int] = []
        self.u3: list[int] = []
        self._masked_sum: np.ndarray | None = None

    # -- Round 0 -------------------------------------------------------------
    def collect_keys(self, advertised: list[AdvertisedKeys]) -> dict[int, AdvertisedKeys]:
        if len(advertised) < self.threshold:
            raise SecAggError(
                f"only {len(advertised)} devices advertised keys, "
                f"threshold is {self.threshold}"
            )
        self.roster = {a.user_id: a for a in advertised}
        self.metrics.cohort_size = len(self.roster)
        return dict(self.roster)

    # -- Round 1 -------------------------------------------------------------
    def route_shares(
        self, all_ciphertexts: dict[int, list[Ciphertext]]
    ) -> tuple[dict[int, list[Ciphertext]], list[int]]:
        """Forward each ciphertext to its recipient; compute U2."""
        self.u2 = sorted(all_ciphertexts)
        if len(self.u2) < self.threshold:
            raise SecAggError(
                f"only {len(self.u2)} devices shared keys, threshold is "
                f"{self.threshold}"
            )
        inboxes: dict[int, list[Ciphertext]] = {uid: [] for uid in self.roster}
        for cts in all_ciphertexts.values():
            for ct in cts:
                if ct.recipient_id in inboxes:
                    inboxes[ct.recipient_id].append(ct)
        return inboxes, list(self.u2)

    # -- Round 2 -------------------------------------------------------------
    def accumulate_masked(self, masked_inputs: dict[int, np.ndarray]) -> list[int]:
        """Sum committed vectors online, as they arrive (never stored)."""
        self.u3 = sorted(masked_inputs)
        if len(self.u3) < self.threshold:
            raise SecAggError(
                f"only {len(self.u3)} devices committed, threshold is "
                f"{self.threshold}"
            )
        bits = self.quantizer.modulus_bits
        acc: np.ndarray | None = None
        for uid in self.u3:
            vec = masked_inputs[uid]
            acc = vec.copy() if acc is None else ring_add(acc, vec, bits)
        self._masked_sum = acc
        self.metrics.committed = len(self.u3)
        self.metrics.dropped_before_commit = len(self.roster) - len(self.u3)
        return list(self.u3)

    # -- Round 3 -------------------------------------------------------------
    def unmask(
        self, responses: dict[int, dict[str, dict[int, ShamirShare]]]
    ) -> np.ndarray:
        """Reconstruct seeds from shares, strip masks, reveal the sum."""
        if self._masked_sum is None:
            raise SecAggError("no committed sum to unmask")
        if len(responses) < self.threshold:
            raise SecAggError(
                f"only {len(responses)} devices answered unmasking, "
                f"threshold is {self.threshold}"
            )
        # Real (not simulated) crypto cost, reported via metrics —
        # observability only, never fed back into event ordering.
        start = self._timer() if self._timer is not None else None
        bits = self.quantizer.modulus_bits
        n = self._masked_sum.shape[0]
        dropped = [uid for uid in self.u2 if uid not in self.u3]
        result = self._masked_sum.copy()

        # 1. Remove self masks of every committed device.
        for uid in self.u3:
            shares = [
                r["self_mask_shares"][uid]
                for r in responses.values()
                if uid in r["self_mask_shares"]
            ]
            if len(shares) < self.threshold:
                raise SecAggError(
                    f"cannot reconstruct self mask of committed device {uid}"
                )
            b_seed = reconstruct_secret(shares[: self.threshold])
            self.metrics.shamir_reconstructions += 1
            result = ring_sub(result, prg_expand(b_seed, n, bits), bits)
            self.metrics.prg_expansions += 1

        # 2. Remove dangling pairwise masks of devices that shared keys but
        #    never committed.  This is the quadratic part: for each dropped
        #    device we re-derive its pairwise seed with every survivor.
        for uid in dropped:
            shares = [
                r["key_shares"][uid]
                for r in responses.values()
                if uid in r["key_shares"]
            ]
            if len(shares) < self.threshold:
                raise SecAggError(
                    f"cannot reconstruct key of dropped device {uid}"
                )
            s_secret = reconstruct_secret(shares[: self.threshold])
            self.metrics.shamir_reconstructions += 1
            recon_public = public_key_of(s_secret)
            if recon_public != self.roster[uid].s_public:
                raise SecAggError(
                    f"reconstructed key for {uid} does not match advertised key"
                )
            for survivor in self.u3:
                seed = agree(s_secret, self.roster[survivor].s_public)
                self.metrics.key_agreements += 1
                mask = prg_expand(seed, n, bits)
                self.metrics.prg_expansions += 1
                # survivor applied +mask if survivor < uid else -mask;
                # subtract exactly what was applied.
                if survivor < uid:
                    result = ring_sub(result, mask, bits)
                else:
                    result = ring_add(result, mask, bits)

        self.metrics.dropped_after_commit = len(self.u3) - len(responses)
        if start is not None:
            self.metrics.server_seconds += self._timer() - start
        self.metrics.succeeded = True
        return result

    def decode_sum(self, ring_sum: np.ndarray) -> np.ndarray:
        return self.quantizer.dequantize_sum(ring_sum)


def _run_scalar(
    inputs: dict[int, np.ndarray],
    threshold: int,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule,
    timer: Callable[[], float] | None,
    capture: bool,
) -> tuple[np.ndarray, SecAggMetrics, SecAggTranscript | None]:
    """The per-device baseline plane: one client object per participant."""
    server = SecureAggregationServer(quantizer, threshold, timer=timer)
    clients = {
        uid: SecureAggregationClient(uid, vec, quantizer, threshold, rng)
        for uid, vec in inputs.items()
    }

    # Round 0: AdvertiseKeys.
    roster = server.collect_keys([c.advertise_keys() for c in clients.values()])
    alive = {uid for uid in clients if uid not in dropouts.after_advertise}

    # Round 1: ShareKeys.
    ciphertexts = {uid: clients[uid].share_keys(roster) for uid in sorted(alive)}
    inboxes, u2 = server.route_shares(ciphertexts)
    alive -= dropouts.after_share

    # Round 2: MaskedInputCollection (Commit).
    masked = {
        uid: clients[uid].masked_input(inboxes[uid], u2) for uid in sorted(alive)
    }
    u3 = server.accumulate_masked(masked)
    alive -= dropouts.after_mask

    # Round 3: Unmasking (Finalization).
    dropped = [uid for uid in u2 if uid not in u3]
    responses = {
        uid: clients[uid].unmask_shares(u3, dropped) for uid in sorted(alive)
    }
    ring_sum = server.unmask(responses)

    transcript = None
    if capture:
        transcript = SecAggTranscript(
            masked={uid: masked[uid] for uid in u3},
            shares={
                uid: {
                    sender: (s.x, s.y, b.y)
                    for sender, (s, b) in clients[uid].received_shares.items()
                }
                for uid in u3
            },
            ring_sum=ring_sum,
        )
    return server.decode_sum(ring_sum), server.metrics, transcript


# -- Entries: the production signatures -------------------------------------


def run_secure_aggregation_transcript(
    inputs: dict[int, np.ndarray],
    threshold: int,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule | None = None,
    timer: Callable[[], float] | None = None,
) -> tuple[np.ndarray, SecAggMetrics, SecAggTranscript]:
    """One instance, one client object per participant: the reference for
    :func:`repro.secagg.protocol.run_secure_aggregation_transcript`."""
    lengths = {v.shape for v in inputs.values()}
    if len(lengths) != 1:
        raise ValueError(f"input vectors must share a shape, got {lengths}")
    return _run_scalar(
        inputs, threshold, quantizer, rng, dropouts or DropoutSchedule.none(),
        timer, True,
    )


def grouped_secure_sum_transcripts(
    inputs: dict[int, np.ndarray],
    min_group_size: int,
    threshold_fraction: float,
    quantizer: VectorQuantizer,
    rng: np.random.Generator,
    dropouts: DropoutSchedule | None = None,
    timer: Callable[[], float] | None = None,
) -> tuple[np.ndarray, list[SecAggMetrics], list[SecAggTranscript]]:
    """One per-device instance per group, in group order, then the
    Master-Aggregator fold: the reference for
    :func:`repro.secagg.grouped.grouped_secure_sum_transcripts`."""
    groups = partition_into_groups(list(inputs), min_group_size)
    thresholds = [shamir_threshold(len(g), threshold_fraction) for g in groups]
    group_sums = []
    all_metrics = []
    transcripts = []
    for group, threshold in zip(groups, thresholds):
        group_sum, metrics, transcript = run_secure_aggregation_transcript(
            {uid: inputs[uid] for uid in group}, threshold, quantizer, rng,
            _group_schedule(group, dropouts), timer,
        )
        group_sums.append(group_sum)
        all_metrics.append(metrics)
        transcripts.append(transcript)
    total = np.zeros_like(group_sums[0])
    for group_sum in group_sums:
        np.add(total, group_sum, out=total)
    return total, all_metrics, transcripts
