"""Remote attestation: genuine devices pass, compromised ones don't.

The per-device token round (``tests/reference/attestation.py``) carries
the token checks; the fleet's batched round,
:meth:`~repro.device.attestation.AttestationService.attest`, must give
every device the reference's verdict and leave the nonce counter where
the reference's per-device rounds leave it.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.attestation import AttestationService as ReferenceAttestation
from repro import FLFleet, TaskConfig
from repro.device.attestation import AttestationService
from repro.nn.models import LogisticRegression
from repro.sim.population import PopulationConfig

SECRETS = [b"platform-root-of-trust", b"secret-b"]


def reference_verdicts(service, device_ids, genuine):
    return [
        service.verify(service.issue_token(device_id, is_genuine))
        for device_id, is_genuine in zip(device_ids, genuine)
    ]


# -- the per-device token round (the reference) -----------------------------------
def test_genuine_token_verifies():
    service = ReferenceAttestation()
    token = service.issue_token(device_id=7, genuine=True)
    assert service.verify(token)


def test_forged_token_rejected():
    service = ReferenceAttestation()
    token = service.issue_token(device_id=7, genuine=False)
    assert not service.verify(token)


def test_token_bound_to_device_id():
    """A genuine token replayed under another device id must fail."""
    service = ReferenceAttestation()
    token = service.issue_token(device_id=7, genuine=True)
    stolen = dataclasses.replace(token, device_id=8)
    assert not service.verify(stolen)


def test_nonces_are_unique():
    service = ReferenceAttestation()
    t1 = service.issue_token(1, True)
    t2 = service.issue_token(1, True)
    assert t1.nonce != t2.nonce
    assert t1.signature != t2.signature


def test_different_platform_secrets_do_not_cross_verify():
    service_a = ReferenceAttestation(b"secret-a")
    service_b = ReferenceAttestation(b"secret-b")
    token = service_a.issue_token(1, True)
    assert service_a.verify(token)
    assert not service_b.verify(token)


# -- the batched round against the reference ---------------------------------------
@given(
    rounds=st.lists(
        st.lists(
            st.tuples(st.integers(0, 2**63 - 1), st.booleans()), max_size=40
        ),
        min_size=1,
        max_size=3,
    ),
    secret=st.sampled_from(SECRETS),
)
@settings(max_examples=60, deadline=None)
def test_batched_round_matches_per_device_rounds(rounds, secret):
    """Over mixes of genuine and forged devices (ids repeated or not),
    round after round on one service: the same verdicts, and the same
    nonce counter after each round."""
    batched = AttestationService(secret)
    reference = ReferenceAttestation(secret)
    for devices in rounds:
        device_ids = [device_id for device_id, _ in devices]
        genuine = [is_genuine for _, is_genuine in devices]
        assert batched.attest(device_ids, genuine) == reference_verdicts(
            reference, device_ids, genuine
        )
        assert batched._nonce_counter == reference._nonce_counter


def test_batched_round_rejects_exactly_the_forged():
    service = AttestationService()
    assert service.attest([3, 4, 5, 3], [True, False, True, False]) == [
        True, False, True, False
    ]
    assert service.attest([], []) == []
    assert service._nonce_counter == 4


def test_a_fleets_attestation_column_is_the_reference_verdict():
    """Every row of a built fleet holds its device's reference verdict,
    the rows attested in order from a fresh counter."""
    params = LogisticRegression(input_dim=4, n_classes=3).init(
        np.random.default_rng(0)
    )
    task = TaskConfig(task_id="train/pop", population_name="pop")
    fleet = (
        FLFleet.builder()
        .seed(3)
        .devices(PopulationConfig(num_devices=300, compromised_fraction=0.2))
        .population("pop", tasks=[task], model=params)
        .build()
    )
    plane = fleet.idle_plane
    device_ids = fleet.profiles.column("device_id").tolist()
    genuine = fleet.profiles.column("genuine").tolist()
    assert 0 < genuine.count(False) < len(genuine)
    reference = ReferenceAttestation()
    expected = reference_verdicts(reference, device_ids, genuine)
    assert plane._attestation_ok[: len(plane)].tolist() == expected
    assert fleet.attestation._nonce_counter == reference._nonce_counter
