"""Payload codec: canonical bytes, round-trips, structured decode errors."""

import hashlib
import hmac
import json

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from wattbus.model import (
    DecodeError,
    Measurement,
    ProbeId,
    decode_measurement,
    encode_measurement,
)
from wattbus.signing import MIN_SECRET_LEN, sign

from conftest import measurements, probe_parts


class TestProbeId:
    def test_topic_round_trip(self):
        p = ProbeId("siteA", "ipmi1")
        assert p.topic == "siteA/ipmi1"
        assert ProbeId.parse("siteA/ipmi1") == p

    @given(probe_parts, probe_parts)
    def test_parse_format_lossless(self, site, name):
        p = ProbeId(site, name)
        assert ProbeId.parse(p.topic) == p

    @pytest.mark.parametrize("bad", ["", "noslash", "a/b/c", "/x", "x/", "a//b"])
    def test_malformed_topics(self, bad):
        with pytest.raises(ValueError):
            ProbeId.parse(bad)

    def test_rejects_path_tricks(self):
        with pytest.raises(ValueError):
            ProbeId("..", "x")
        with pytest.raises(ValueError):
            ProbeId("a", ".")


class TestMeasurementValidation:
    def test_zero_watts_ok(self):
        m = Measurement(ProbeId("s", "p"), 1, 0)
        assert m.watts == 0

    def test_timestamp_must_be_positive(self):
        with pytest.raises(ValueError):
            Measurement(ProbeId("s", "p"), 0, 5)

    def test_negative_watts_rejected(self):
        with pytest.raises(ValueError):
            Measurement(ProbeId("s", "p"), 1, -1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Measurement(ProbeId("s", "p"), float("inf"), 5)
        with pytest.raises(ValueError):
            Measurement(ProbeId("s", "p"), 1, float("nan"))

    def test_signature_must_be_lowercase_hex(self):
        with pytest.raises(ValueError):
            Measurement(ProbeId("s", "p"), 1, 0, signature="ABCD")

    def test_signature_with_trailing_newline_rejected(self):
        with pytest.raises(DecodeError) as excinfo:
            Measurement(ProbeId("s", "p"), 1, 0, signature="ab\n")
        assert excinfo.value.field == "signature"


class TestEncode:
    def test_basic_payload_bytes(self):
        m = Measurement(ProbeId("siteA", "p1"), 1000.0, 230.0)
        assert encode_measurement(m) == b'{"probe":"siteA/p1","timestamp":1000.0,"w":230.0}'

    def test_optionals_in_alphabetical_position(self):
        m = Measurement(ProbeId("siteA", "p1"), 1000.0, 230.0, volts=241.2, amps=0.95)
        encoded = encode_measurement(m)
        assert encoded == (
            b'{"a":0.95,"probe":"siteA/p1","timestamp":1000.0,"v":241.2,"w":230.0}'
        )

    def test_absent_optionals_omitted_not_null(self):
        encoded = encode_measurement(Measurement(ProbeId("s", "p"), 1, 0))
        assert b"null" not in encoded
        assert set(json.loads(encoded)) == {"probe", "timestamp", "w"}

    def test_keys_always_sorted(self):
        m = Measurement(ProbeId("s", "p"), 1, 2, volts=3, amps=4, signature="ab")
        keys = list(json.loads(encode_measurement(m)))
        assert keys == sorted(keys)

    @given(measurements)
    def test_small_footprint(self, m):
        # stated bound: no-optional payloads stay under 120 bytes for
        # topics up to 32 chars
        if len(m.probe.topic) <= 32:
            bare = Measurement(m.probe, m.timestamp, m.watts)
            assert len(encode_measurement(bare)) <= 120


def reference_encode(m: Measurement) -> bytes:
    """The canonical bytes as ``json.dumps`` writes them: the signing input."""
    obj: dict = {"probe": m.probe.topic, "timestamp": m.timestamp, "w": m.watts}
    for key, value in (("v", m.volts), ("a", m.amps), ("signature", m.signature)):
        if value is not None:
            obj[key] = value
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


# every character a probe part may hold, with the ones JSON escapes or
# UTF-8 spreads over several bytes drawn often
_any_part = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=["Cs"], exclude_characters="/\x00"),
        st.sampled_from('"\\\b\f\n\r\t\x01\x1f\x7f\u2028\u00e9\U0001f50c'),
    ),
    min_size=1,
).filter(lambda part: part not in (".", ".."))
_edge_floats = st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16])
_any_number = st.one_of(
    st.integers(min_value=0, max_value=2**64),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    _edge_floats,
)
_any_measurement = st.builds(
    Measurement,
    probe=st.builds(ProbeId, site=_any_part, name=_any_part),
    timestamp=st.one_of(
        st.integers(min_value=1, max_value=2**64),
        st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
        st.sampled_from([5e-324, 1.7976931348623157e308]),
    ),
    watts=_any_number,
    volts=st.none() | _any_number,
    amps=st.none() | _any_number,
    signature=st.none() | st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
)


class TestEncoderMatchesJsonDumps:
    """The hand-built bytes are pinned to the ``json.dumps`` form."""

    @settings(max_examples=500, deadline=None)
    @given(_any_measurement)
    def test_byte_identical(self, m):
        assert encode_measurement(m) == reference_encode(m)

    @settings(max_examples=500, deadline=None)
    @given(_any_measurement, st.binary(min_size=MIN_SECRET_LEN, max_size=80))
    def test_signed_bytes_identical(self, m, key):
        # sign() splices the signature into the unsigned bytes and skips
        # validation: it must agree with a copy built and encoded the long way
        m = m.without_signature()
        sig = hmac.new(key, reference_encode(m), hashlib.sha256).hexdigest()
        signed = sign(m, key)
        assert encode_measurement(signed) == reference_encode(m.with_signature(sig))
        assert signed == m.with_signature(sig)

    def test_number_subclass_encodes_as_its_base_type(self):
        class Watts(float):
            def __repr__(self):
                return "Watts()"

        m = Measurement(ProbeId("s", "p"), 1, Watts(2.5))
        assert encode_measurement(m) == reference_encode(m) == (
            b'{"probe":"s/p","timestamp":1,"w":2.5}')

    def test_lone_surrogate_in_probe_raises(self):
        m = Measurement(ProbeId("s", "p\ud800"), 1, 0)
        with pytest.raises(UnicodeEncodeError):
            encode_measurement(m)


class TestDecode:
    def test_minimal_valid_payload(self):
        m = decode_measurement(b'{"probe":"s/p","timestamp":1,"w":0}')
        assert m.watts == 0
        assert m.timestamp == 1
        assert m.probe == ProbeId("s", "p")

    def test_missing_timestamp(self):
        with pytest.raises(DecodeError) as excinfo:
            decode_measurement(b'{"probe":"s/p","w":5}')
        assert excinfo.value.field == "timestamp"

    def test_malformed_probe(self):
        with pytest.raises(DecodeError) as excinfo:
            decode_measurement(b'{"probe":"sp","timestamp":1,"w":5}')
        assert excinfo.value.field == "probe"

    def test_negative_watts(self):
        with pytest.raises(DecodeError) as excinfo:
            decode_measurement(b'{"probe":"s/p","timestamp":1,"w":-2}')
        assert excinfo.value.field == "w"

    @pytest.mark.parametrize("body, field", [
        (b'"timestamp":1,"w":5,"v":-1', "v"),
        (b'"timestamp":1,"w":5,"a":null', "a"),
        (b'"timestamp":1,"w":5,"signature":7', "signature"),
        (b'"timestamp":1,"w":5,"signature":"ABCD"', "signature"),
        (b'"timestamp":1,"w":5,"signature":"ab\\n"', "signature"),
    ])
    def test_invalid_optional_names_its_wire_key(self, body, field):
        with pytest.raises(DecodeError) as excinfo:
            decode_measurement(b'{"probe":"s/p",' + body + b"}")
        assert excinfo.value.field == field

    def test_not_json(self):
        with pytest.raises(DecodeError):
            decode_measurement(b"not json at all")
        with pytest.raises(DecodeError):
            decode_measurement(b"\xff\xfe")

    def test_non_object_json(self):
        with pytest.raises(DecodeError):
            decode_measurement(b"[1,2,3]")

    def test_unknown_keys_tolerated(self):
        m = decode_measurement(
            b'{"probe":"s/p","timestamp":1,"w":5,"future_field":true}')
        assert m.watts == 5

    def test_bool_is_not_a_number(self):
        with pytest.raises(DecodeError):
            decode_measurement(b'{"probe":"s/p","timestamp":true,"w":5}')


class TestRoundTrip:
    @settings(max_examples=1000, deadline=None)
    @given(measurements)
    def test_decode_encode_identity(self, m):
        encoded = encode_measurement(m)
        assert decode_measurement(encoded) == m
        # and the byte form is a fixed point
        assert encode_measurement(decode_measurement(encoded)) == encoded

    def test_signed_measurement_round_trips(self):
        m = Measurement(ProbeId("s", "p"), 1, 0, signature="ab" * 32)
        assert decode_measurement(encode_measurement(m)) == m
