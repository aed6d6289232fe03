"""Signing round-trips, tamper detection, and the pinned reference vector."""

import dataclasses

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from wattbus.model import Measurement, ProbeId
from wattbus.signing import SigningKeyError, sign, signature_hex, verify

from conftest import measurements

SECRET = b"0123456789abcdef"
OTHER_SECRET = b"fedcba9876543210"

# Independent reference: HMAC-SHA-256 of the canonical payload
# {"probe":"s/p","timestamp":1,"w":0} under key "0123456789abcdef",
# computed with `openssl dgst -sha256 -hmac` before this module existed.
REFERENCE_SIGNATURE = "5a38f838a9e2442198587922200ab5a28d7a92a0ee4f95dade0ad2b2cfbbcbf6"


def test_pinned_reference_vector():
    m = Measurement(ProbeId("s", "p"), 1, 0)
    assert sign(m, SECRET).signature == REFERENCE_SIGNATURE


def test_sign_then_verify():
    m = Measurement(ProbeId("siteA", "p1"), 1000.0, 230.0)
    assert verify(sign(m, SECRET), SECRET)


def test_wrong_secret_fails():
    m = sign(Measurement(ProbeId("siteA", "p1"), 1000.0, 230.0), SECRET)
    assert not verify(m, OTHER_SECRET)


def test_mutated_watts_fails():
    m = sign(Measurement(ProbeId("siteA", "p1"), 1000.0, 230.0), SECRET)
    tampered = dataclasses.replace(m, watts=m.watts + 1)
    assert not verify(tampered, SECRET)


def test_absent_signature_is_false_not_error():
    assert not verify(Measurement(ProbeId("s", "p"), 1, 0), SECRET)


def test_signing_is_deterministic():
    m = Measurement(ProbeId("s", "p"), 123.5, 42.0, volts=230.1)
    assert sign(m, SECRET) == sign(m, SECRET)


def test_short_secret_rejected():
    m = Measurement(ProbeId("s", "p"), 1, 0)
    with pytest.raises(SigningKeyError):
        sign(m, b"too-short")
    with pytest.raises(SigningKeyError):
        signature_hex(m, b"")


@pytest.mark.parametrize("secret", [SECRET, bytearray(SECRET), SECRET.decode()],
                         ids=["bytes", "bytearray", "str"])
def test_every_secret_type_signs_and_verifies(secret):
    m = Measurement(ProbeId("s", "p"), 1, 0)
    for _ in range(2):  # the second call finds the key set up by the first
        signed = sign(m, secret)
        assert signed.signature == REFERENCE_SIGNATURE
        assert verify(signed, secret)
        assert not verify(signed, OTHER_SECRET)


@pytest.mark.parametrize("secret", [b"too-short", bytearray(b"too-short"), "too-short"],
                         ids=["bytes", "bytearray", "str"])
def test_short_secret_rejected_on_every_call(secret):
    m = Measurement(ProbeId("s", "p"), 1, 0)
    signed = sign(m, SECRET)
    for _ in range(2):
        with pytest.raises(SigningKeyError):
            sign(m, secret)
        with pytest.raises(SigningKeyError):
            verify(signed, secret)


def test_secret_shortened_in_place_is_rejected():
    secret = bytearray(SECRET)
    m = Measurement(ProbeId("s", "p"), 1, 0)
    assert verify(sign(m, secret), secret)
    del secret[8:]
    with pytest.raises(SigningKeyError):
        sign(m, secret)


def test_resigning_rejected():
    m = sign(Measurement(ProbeId("s", "p"), 1, 0), SECRET)
    with pytest.raises(ValueError):
        sign(m, SECRET)


def test_signature_is_64_hex_chars():
    m = sign(Measurement(ProbeId("s", "p"), 1, 0), SECRET)
    assert len(m.signature) == 64
    assert all(c in "0123456789abcdef" for c in m.signature)


def test_str_secret_accepted():
    m = Measurement(ProbeId("s", "p"), 1, 0)
    assert sign(m, "0123456789abcdef").signature == REFERENCE_SIGNATURE


@settings(deadline=None)
@given(measurements)
def test_round_trip_property(m):
    signed = sign(m, SECRET)
    assert verify(signed, SECRET)
    assert not verify(signed, OTHER_SECRET)


def bump(value):
    """A nearby value guaranteed to differ, without float overflow."""
    changed = value + 1
    if changed != value and not (isinstance(changed, float) and changed == float("inf")):
        return changed
    return value / 2  # huge floats: +1 is absorbed, halving is not


@settings(deadline=None)
@given(measurements, st.sampled_from(["probe", "timestamp", "watts", "volts",
                                      "amps", "signature"]))
def test_single_field_mutation_fails(m, which):
    signed = sign(m, SECRET)
    if which == "probe":
        tampered = dataclasses.replace(
            signed, probe=ProbeId(signed.probe.site + "x", signed.probe.name))
    elif which == "timestamp":
        tampered = dataclasses.replace(signed, timestamp=bump(signed.timestamp))
    elif which == "watts":
        tampered = dataclasses.replace(signed, watts=bump(signed.watts))
    elif which == "volts":
        new = 1.0 if signed.volts is None else bump(signed.volts)
        tampered = dataclasses.replace(signed, volts=new)
    elif which == "amps":
        new = 1.0 if signed.amps is None else bump(signed.amps)
        tampered = dataclasses.replace(signed, amps=new)
    else:
        flipped = "0" if signed.signature[0] != "0" else "1"
        tampered = dataclasses.replace(
            signed, signature=flipped + signed.signature[1:])
    assert tampered != signed
    assert not verify(tampered, SECRET)
