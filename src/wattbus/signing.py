"""HMAC-SHA-256 signing of measurement payloads with a shared secret.

The signature covers the canonical payload bytes of the measurement with
the ``signature`` key removed, so it survives any number of forwarder hops
unchanged and can be recomputed by any consumer holding the secret.  The
topic is deliberately not covered: the probe id inside the payload already
binds the message to its origin.
"""

from __future__ import annotations

import functools
import hashlib
import hmac

from wattbus.model import Measurement, canonical_halves, encode_measurement, signed_copy

MIN_SECRET_LEN = 16


class SigningKeyError(ValueError):
    """Raised when the shared secret is unusable (too short)."""


def _check_secret(secret: bytes) -> bytes:
    if isinstance(secret, str):
        secret = secret.encode("utf-8")
    if not isinstance(secret, (bytes, bytearray)):
        raise SigningKeyError("signing secret must be bytes")
    if len(secret) < MIN_SECRET_LEN:
        raise SigningKeyError(f"signing secret must be at least {MIN_SECRET_LEN} bytes")
    return bytes(secret)


@functools.lru_cache(maxsize=8)
def _keyed_hmac(secret: bytes) -> hmac.HMAC:
    """An HMAC-SHA-256 keyed with ``secret`` and fed nothing, to ``.copy()``.

    Keying costs about as much as hashing a payload, so it is done once per
    secret; callers copy the result and never update it.
    """
    return hmac.new(secret, digestmod=hashlib.sha256)


def signature_hex(m: Measurement, secret: bytes) -> str:
    """Lowercase hex HMAC-SHA-256 over the unsigned canonical payload."""
    mac = _keyed_hmac(_check_secret(secret)).copy()
    mac.update(encode_measurement(m.without_signature()))
    return mac.hexdigest()


def sign(m: Measurement, secret: bytes) -> Measurement:
    """Return a copy of ``m`` carrying its signature.

    ``m`` must not already be signed; re-signing a signed message would
    silently change what the signature covers.  The unsigned payload is
    built once: the copy's wire bytes are that payload with the signature
    put in its slot.
    """
    if m.signature is not None:
        raise ValueError("measurement is already signed")
    mac = _keyed_hmac(_check_secret(secret)).copy()
    halves = canonical_halves(m)
    mac.update((halves[0] + halves[1]).encode("utf-8"))
    return signed_copy(m, mac.hexdigest(), halves)


def verify(m: Measurement, secret: bytes) -> bool:
    """True iff ``m`` carries a signature matching its other fields.

    An absent signature is a verification failure, not an error.  The
    comparison is constant-time.
    """
    if m.signature is None:
        return False
    expected = signature_hex(m, secret)
    return hmac.compare_digest(expected, m.signature)
