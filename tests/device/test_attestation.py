"""Remote attestation: genuine devices pass, compromised ones don't."""

from repro.device.attestation import AttestationService


def test_genuine_token_verifies():
    service = AttestationService()
    token = service.issue_token(device_id=7, genuine=True)
    assert service.verify(token)


def test_forged_token_rejected():
    service = AttestationService()
    token = service.issue_token(device_id=7, genuine=False)
    assert not service.verify(token)


def test_token_bound_to_device_id():
    """A genuine token replayed under another device id must fail."""
    service = AttestationService()
    token = service.issue_token(device_id=7, genuine=True)
    import dataclasses

    stolen = dataclasses.replace(token, device_id=8)
    assert not service.verify(stolen)


def test_nonces_are_unique():
    service = AttestationService()
    t1 = service.issue_token(1, True)
    t2 = service.issue_token(1, True)
    assert t1.nonce != t2.nonce
    assert t1.signature != t2.signature


def test_different_platform_secrets_do_not_cross_verify():
    service_a = AttestationService(b"secret-a")
    service_b = AttestationService(b"secret-b")
    token = service_a.issue_token(1, True)
    assert service_a.verify(token)
    assert not service_b.verify(token)
