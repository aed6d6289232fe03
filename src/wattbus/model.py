"""Domain types and the canonical JSON payload codec.

Every daemon exchanges the same wire payload: a UTF-8 JSON object with
alphabetically ordered keys and no insignificant whitespace.  Keeping the
byte form canonical matters because message signatures are computed over
these exact bytes.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from json.encoder import encode_basestring

_HEX_RE = re.compile(r"[0-9a-f]+")
MAX_PART_BYTES = 255  # the longest file name most filesystems take


class DecodeError(ValueError):
    """Raised when a payload cannot be decoded into a Measurement.

    ``field`` names the offending wire key when it can be identified.
    ``Measurement`` raises it too, for an invalid field, so a payload's
    values are checked in one place.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ProbeId:
    """Identifier of one metered point: a server chassis or a PDU outlet.

    The canonical topic form is ``site/name``.  Neither part may be empty,
    contain ``/`` or NUL, be a filesystem dot entry or exceed 255 UTF-8
    bytes (probe ids name archive directories on disk).
    """

    site: str
    name: str

    def __post_init__(self):
        for label, part in (("site", self.site), ("name", self.name)):
            if not part:
                raise ValueError(f"probe {label} must be non-empty")
            if "/" in part:
                raise ValueError(f"probe {label} must not contain '/': {part!r}")
            if "\x00" in part:
                raise ValueError(f"probe {label} must not contain NUL")
            if part in (".", ".."):
                raise ValueError(f"probe {label} must not be {part!r}")
            if len(part.encode("utf-8", "surrogatepass")) > MAX_PART_BYTES:
                raise ValueError(f"probe {label} must not exceed {MAX_PART_BYTES} UTF-8 bytes")

    @classmethod
    def parse(cls, topic: str) -> "ProbeId":
        parts = topic.split("/")
        if len(parts) != 2:
            raise ValueError(f"malformed probe topic {topic!r}: expected 'site/name'")
        return cls(parts[0], parts[1])

    @property
    def topic(self) -> str:
        return f"{self.site}/{self.name}"

    def __str__(self) -> str:
        return self.topic


def _check_number(key: str, value, minimum: float, strict: bool) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DecodeError(f"{key} must be a number, got {type(value).__name__}", key)
    if not math.isfinite(value):
        raise DecodeError(f"{key} must be finite", key)
    if strict and value <= minimum:
        raise DecodeError(f"{key} must be > {minimum}", key)
    if not strict and value < minimum:
        raise DecodeError(f"{key} must be >= {minimum}", key)


@dataclass(frozen=True)
class Measurement:
    """One timestamped power sample from one probe.

    ``timestamp`` is seconds since the Unix epoch (producer clock,
    fractional allowed) and ``watts`` the instantaneous power.  Voltage and
    current are optional and carry no cross-field constraint against watts
    (power factor).  ``signature`` is a lowercase hex HMAC, present only on
    signed messages.

    Values are not coerced to float: an integer timestamp encodes as an
    integer, which keeps encode/decode byte-exact in both directions.  An
    invalid field raises ``DecodeError`` (a ``ValueError``) naming its wire
    key: ``timestamp``, ``w``, ``v``, ``a`` or ``signature``.
    """

    probe: ProbeId
    timestamp: float
    watts: float
    volts: float | None = None
    amps: float | None = None
    signature: str | None = None

    _wire = None  # not a field: the bytes ``signed_copy`` built, else None

    def __post_init__(self):
        _check_number("timestamp", self.timestamp, 0, strict=True)
        _check_number("w", self.watts, 0, strict=False)
        if self.volts is not None:
            _check_number("v", self.volts, 0, strict=False)
        if self.amps is not None:
            _check_number("a", self.amps, 0, strict=False)
        sig = self.signature
        if sig is not None and not (isinstance(sig, str) and _HEX_RE.fullmatch(sig)):
            raise DecodeError("signature must be a lowercase hex string", "signature")

    def without_signature(self) -> "Measurement":
        """``self`` with no signature; the fields were checked when it was made."""
        if self.signature is None:
            return self
        return _copy(self, None, None)


def encode_measurement(m: Measurement) -> bytes:
    """Serialize a measurement to its canonical byte form.

    Keys are alphabetical, optionals are omitted when absent, and there is
    no whitespace, so equal measurements always produce equal bytes (the
    signing input).  The bytes are built by hand, in the fixed key order
    ``a``, ``probe``, ``signature``, ``timestamp``, ``v``, ``w``, with
    ``json``'s own string escaper and number reprs (``Measurement`` has
    already rejected bools and non-finite values).  They are pinned to
    ``json.dumps(obj, sort_keys=True, separators=(",", ":"),
    ensure_ascii=False)``: any difference would break signatures between
    versions.  A measurement made by ``signed_copy`` returns the bytes it
    was built with.
    """
    if m._wire is not None:
        return m._wire
    head, tail = canonical_halves(m)
    if m.signature is None:
        return (head + tail).encode("utf-8")
    return _with_signature_slot(head, m.signature, tail)


def canonical_halves(m: Measurement) -> tuple[str, str]:
    """The unsigned canonical text of ``m``, split at its signature slot.

    ``head + tail`` is the unsigned payload, the signing input.  The slot
    lies between ``probe`` and ``timestamp``, the only keys that sort on
    either side of ``signature``, so the text around it is the same signed
    or not.
    """
    head = "{" if m.amps is None else '{"a":' + _number(m.amps) + ","
    head += '"probe":' + encode_basestring(m.probe.topic) + ","
    tail = '"timestamp":' + _number(m.timestamp)
    if m.volts is not None:
        tail += ',"v":' + _number(m.volts)
    return head, tail + ',"w":' + _number(m.watts) + "}"


def _with_signature_slot(head: str, signature: str, tail: str) -> bytes:
    return (head + '"signature":"' + signature + '",' + tail).encode("utf-8")


def signed_copy(m: Measurement, signature: str, halves: tuple[str, str]) -> Measurement:
    """``m`` carrying ``signature``, without validating any field again.

    ``m`` is unsigned and was validated when it was made; ``signature`` must
    be lowercase hex (an HMAC ``hexdigest``) and ``halves`` what
    ``canonical_halves(m)`` returned.  The copy keeps its wire bytes, so
    ``encode_measurement`` does not build them again.
    """
    return _copy(m, signature, _with_signature_slot(halves[0], signature, halves[1]))


def _copy(m: Measurement, signature: str | None, wire: bytes | None) -> Measurement:
    """``m`` with ``signature`` and wire bytes ``wire``, no field checked again."""
    twin = object.__new__(Measurement)
    state = twin.__dict__  # frozen: fill the instance dict, as __init__ does
    state.update(m.__dict__)
    state["signature"] = signature
    state["_wire"] = wire
    return twin


def _number(x) -> str:
    """``x`` as ``json`` writes it: the base type's repr, even for a subclass."""
    return float.__repr__(x) if isinstance(x, float) else int.__repr__(x)


def decode_measurement(b: bytes) -> Measurement:
    """Parse a JSON payload into a Measurement.

    Unknown keys are tolerated; missing mandatory keys, malformed probe
    topics and out-of-range numbers raise DecodeError naming the field.
    The values are checked once, by ``Measurement``.
    """
    try:
        obj = json.loads(b.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecodeError(f"payload is not valid JSON: {exc}") from exc
    except RecursionError:  # e.g. 60,000 nested "[" fit in one frame
        raise DecodeError("payload nests too deeply") from None
    if not isinstance(obj, dict):
        raise DecodeError("payload must be a JSON object")

    for key in ("probe", "timestamp", "w"):
        if key not in obj:
            raise DecodeError(f"missing mandatory key {key!r}", field=key)

    if not isinstance(obj["probe"], str):
        raise DecodeError("probe must be a string", field="probe")
    try:
        probe = ProbeId.parse(obj["probe"])
    except ValueError as exc:
        raise DecodeError(str(exc), field="probe") from exc

    for key in ("v", "a"):
        if key in obj and obj[key] is None:  # absent optionals are omitted, never null
            raise DecodeError(f"{key} must be a number, got NoneType", key)

    return Measurement(
        probe=probe,
        timestamp=obj["timestamp"],
        watts=obj["w"],
        volts=obj.get("v"),
        amps=obj.get("a"),
        signature=obj.get("signature"),
    )
