"""Payload codec: canonical bytes, round-trips, structured decode errors."""

import json

import pytest
from hypothesis import given, settings

from wattbus.model import (
    DecodeError,
    Measurement,
    ProbeId,
    decode_measurement,
    encode_measurement,
)

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
