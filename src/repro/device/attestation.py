"""Remote attestation (Sec. 3).

"We want devices to participate in FL anonymously, which excludes the
possibility of authenticating them via a user identity ... we need to
protect against attacks to influence the FL result from non-genuine
devices.  We do so by using Android's remote attestation mechanism."

The simulation models the SafetyNet flow: genuine devices hold a
platform-issued key whose fingerprint the service knows; tokens are
nonce-bound MACs under that key.  Compromised devices hold self-made keys
and fail verification — exercising the data-poisoning defence without
real hardware-backed keystores.

A fleet attests its devices in one batched round when the idle plane
enrolls their rows (``VectorizedIdlePlane.adopt_rows``): each device still
makes its own token round, but no token object is built (the per-device
flow is the oracle in ``tests/reference/attestation.py``).  The verdict
is deterministic, so the plane caches it and every Selector screen reads
the cache.  A rejected device is counted once, under its Selector route's
``rejected_attestation``, at each check-in the screen bounces.
"""

from __future__ import annotations

import hashlib
from typing import Iterable


class AttestationService:
    """Server-side verifier plus the (simulated) platform key authority."""

    def __init__(self, platform_secret: bytes = b"platform-root-of-trust"):
        self._platform_secret = platform_secret
        self._nonce_counter = 0

    def attest(self, device_ids: Iterable[int], genuine: Iterable[bool]) -> list[bool]:
        """One token round per device, in order; each device's verdict.

        The device signs the next nonce with its key (platform-derived if
        ``genuine``, else forged); the server re-derives the key from the
        platform secret, re-signs and compares.  A key is ``sha256(secret ||
        id)``, a signature ``sha256(key || id || nonce)`` (8-byte little-endian
        ints); the prefixes' hash states are made once and copied."""
        sha256 = hashlib.sha256
        issuer, server = sha256(self._platform_secret), sha256(self._platform_secret)
        forged = sha256(b"forged")
        nonce = self._nonce_counter
        verdicts = []
        for device_id, is_genuine in zip(device_ids, genuine):
            nonce += 1
            id_bytes = device_id.to_bytes(8, "little")
            signed = id_bytes + nonce.to_bytes(8, "little")
            # Device side: sign with the key this device holds.
            key = (issuer if is_genuine else forged).copy()
            key.update(id_bytes)
            signature = sha256(key.digest() + signed).digest()
            # Server side: re-derive the key from the platform secret.
            key = server.copy()
            key.update(id_bytes)
            verdicts.append(sha256(key.digest() + signed).digest() == signature)
        self._nonce_counter = nonce
        return verdicts
