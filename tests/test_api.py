"""Energy accounting, stale eviction, and the HTTP contract."""

import dataclasses
import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from wattbus.api import ApiServer, StaticTokenValidator, start_api
from wattbus.bus import Frame, Publisher
from wattbus.config import parse_config
from wattbus.energy import MeterState, OutOfOrderError, integrate_energy
from wattbus.model import Measurement, ProbeId, encode_measurement
from wattbus.signing import sign

from test_bus import loopback, wait_until

TOKEN = "unit-test-token"


def trapezoid_oracle(samples):
    """Independent full-trace integral: sum of trapezoids, in kWh."""
    total = 0.0
    for (t0, w0), (t1, w1) in zip(samples, samples[1:]):
        total += (w0 + w1) / 2.0 * (t1 - t0) / 3.6e6
    return total


class TestIntegrateEnergy:
    def test_constant_kilowatt_hour(self):
        assert integrate_energy(1000, 0, 1000, 3600) == pytest.approx(1.0)

    def test_trapezoid_value(self):
        # (100+200)/2 * 60 / 3.6e6, computed by hand
        assert integrate_energy(100, 0, 200, 60) == pytest.approx(0.0025)

    def test_zero_interval(self):
        assert integrate_energy(500, 10, 700, 10) == 0.0

    def test_out_of_order_raises(self):
        with pytest.raises(OutOfOrderError):
            integrate_energy(100, 50, 100, 49)


def m(topic, t, w, **kw):
    return Measurement(ProbeId.parse(topic), t, w, **kw)


class TestMeterState:
    def test_first_sample_creates_record_with_zero_energy(self):
        state = MeterState()
        state.ingest(m("a/b", 100.0, 1000.0))
        record = state.get("a/b")
        assert record == {"w": 1000.0, "kwh": 0.0, "timestamp": 100.0}

    def test_hour_at_kilowatt(self):
        state = MeterState(gap_limit_s=1e9)
        state.ingest(m("a/b", 100.0, 1000.0))
        state.ingest(m("a/b", 3700.0, 1000.0))
        record = state.get("a/b")
        assert record["kwh"] == pytest.approx(1.0)
        assert record["w"] == 1000.0

    def test_tampered_signed_message_rejected(self):
        secret = b"0123456789abcdef"
        state = MeterState(secret=secret)
        good = sign(m("a/b", 10.0, 100.0), secret)
        state.ingest(good)
        tampered = dataclasses.replace(good, watts=good.watts + 5)
        state.ingest(tampered)
        assert state.counters().rejected == 1
        assert state.get("a/b")["w"] == 100.0  # record unchanged

    def test_unsigned_message_rejected_when_secret_set(self):
        state = MeterState(secret=b"0123456789abcdef")
        state.ingest(m("a/b", 10.0, 100.0))
        assert state.counters().rejected == 1
        assert state.get("a/b") is None

    def test_out_of_order_counted_and_ignored(self):
        state = MeterState()
        state.ingest(m("a/b", 100.0, 10.0))
        state.ingest(m("a/b", 99.0, 999.0))
        assert state.counters().out_of_order == 1
        assert state.get("a/b")["timestamp"] == 100.0

    def test_equal_timestamps_accepted(self):
        state = MeterState()
        state.ingest(m("a/b", 100.0, 10.0))
        state.ingest(m("a/b", 100.0, 20.0))
        assert state.counters().out_of_order == 0
        assert state.get("a/b")["w"] == 20.0

    def test_gap_flagged_no_energy_invented(self):
        state = MeterState(gap_limit_s=30.0)
        state.ingest(m("a/b", 100.0, 1000.0))
        state.ingest(m("a/b", 100.0 + 3600.0, 1000.0))
        record = state.get("a/b")
        assert record["kwh"] == 0.0
        assert record["timestamp"] == 3700.0
        assert state.counters().gaps == 1

    def test_per_topic_gap_limits(self):
        state = MeterState(gap_limit_s=10.0, gap_limits={"a/slow": 100.0})
        state.ingest(m("a/slow", 0.5, 100.0))
        state.ingest(m("a/slow", 50.5, 100.0))
        assert state.counters().gaps == 0
        assert state.get("a/slow")["kwh"] > 0

    def test_api_gap_limit_applies_only_to_unconfigured_topics(self, monkeypatch):
        # start_api gives each configured probe GAP_LIMIT_INTERVALS (10) of its
        # own intervals, which wins over [api] gap_limit
        cfg = parse_config("[probe:a/b]\ndriver = ipmi\ninterval = 5\n"
                           "[api]\ntokens = t\ngap_limit = 600\n")
        cfg.api = dataclasses.replace(cfg.api, listen=("127.0.0.1", 0))
        built = []
        monkeypatch.setattr(ApiServer, "start", lambda self, subscribe: built.append(self))
        (close,) = start_api(cfg)
        try:
            state = built[0].state
            for topic in ("a/b", "x/unconfigured"):
                state.ingest(m(topic, 1000.0, 500.0))
                state.ingest(m(topic, 1100.0, 500.0))  # a 100 s gap
            assert state.get("a/b")["kwh"] == 0.0  # 100 s > 10 x 5 s
            assert state.get("x/unconfigured")["kwh"] > 0  # 100 s <= 600 s
            assert state.counters().gaps == 1
        finally:
            close()

    def test_replay_matches_trapezoid_oracle(self):
        rng = random.Random(7)
        state = MeterState(gap_limit_s=1e12)
        traces = {}
        for i in range(100):
            topic = f"site{i % 7}/probe{i}"
            t = rng.uniform(1, 100)
            series = []
            for _ in range(60):
                t += rng.uniform(0.1, 30.0)
                series.append((t, rng.uniform(0, 2000)))
            traces[topic] = series
        for topic, series in traces.items():
            for t, w in series:
                state.ingest(m(topic, t, w))
        for topic, series in traces.items():
            expected = trapezoid_oracle(series)
            got = state.get(topic)["kwh"]
            assert got == pytest.approx(expected, rel=1e-9)

    def test_monotone_kwh_under_concurrent_reads(self):
        state = MeterState(gap_limit_s=1e9)
        stop = threading.Event()

        def writer():
            t = 1.0
            while not stop.is_set():
                state.ingest(m("a/b", t, 500.0))
                t += 1.0

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            last = 0.0
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                record = state.get("a/b")
                if record is None:
                    continue
                assert record["kwh"] >= last
                last = record["kwh"]
        finally:
            stop.set()
            thread.join()

    def test_ingest_throughput(self):
        state = MeterState(gap_limit_s=1e9)
        n = 25_000
        samples = [m(f"s/p{i % 100}", 1.0 + i, 100.0 + (i % 50)) for i in range(n)]
        start = time.perf_counter()
        for sample in samples:
            state.ingest(sample)
        elapsed = time.perf_counter() - start
        assert state.counters().ingested == n
        assert n / elapsed > 2500, f"only {n / elapsed:.0f} ingests/s"


class TestEviction:
    def test_threshold_boundaries(self):
        state = MeterState(clock=lambda: 1000.0)
        state.ingest(m("a/old", 1.0, 1.0))
        state.ingest(m("a/new", 1.0, 1.0))
        # age both records by moving "now" forward
        evicted = state.evict_stale(now=1000.0 + 300.0 + 1, timeout_s=300.0)
        assert {p.topic for p in evicted} == {"a/old", "a/new"}

        state2 = MeterState(clock=lambda: 1000.0)
        state2.ingest(m("a/kept", 1.0, 1.0))
        assert state2.evict_stale(now=1000.0 + 300.0 - 1, timeout_s=300.0) == []
        assert state2.get("a/kept") is not None

    def test_matches_filter_oracle(self):
        rng = random.Random(99)
        now = 10_000.0
        ages = {f"s/p{i}": rng.uniform(0, 600) for i in range(200)}
        # build records, then age them to controlled received_at values
        state = MeterState()
        for topic, age in ages.items():
            state.ingest(Measurement(ProbeId.parse(topic), 1.0, 1.0))
            state._records[topic].received_at = now - age
        evicted = {p.topic for p in state.evict_stale(now=now, timeout_s=300.0)}
        expected = {topic for topic, age in ages.items() if age > 300.0}
        assert evicted == expected
        assert state.counters().evictions == len(expected)

    def test_reappearing_probe_starts_over(self):
        state = MeterState(gap_limit_s=1e9)
        state.ingest(m("a/b", 100.0, 1000.0))
        state.ingest(m("a/b", 3700.0, 1000.0))
        assert state.get("a/b")["kwh"] > 0
        state.evict_stale(now=time.time() + 1e6, timeout_s=300.0)
        assert state.get("a/b") is None
        state.ingest(m("a/b", 4000.0, 1000.0))
        assert state.get("a/b")["kwh"] == 0.0


@pytest.fixture()
def server():
    state = MeterState(gap_limit_s=1e9)
    srv = ApiServer(state, ("127.0.0.1", 0), StaticTokenValidator([TOKEN]),
                    stale_timeout_s=300.0)
    srv.start()
    yield srv
    srv.close()


def http_get(url, token=TOKEN):
    request = urllib.request.Request(url)
    if token is not None:
        request.add_header("X-Auth-Token", token)
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHttpApi:
    def test_missing_token_401(self, server):
        status, body = http_get(f"{server.url}/v1/probes/", token=None)
        assert status == 401

    def test_wrong_token_401(self, server):
        status, _ = http_get(f"{server.url}/v1/probes/", token="nope")
        assert status == 401

    def test_auth_checked_before_path_parsing(self, server):
        status, _ = http_get(f"{server.url}/totally/bogus", token=None)
        assert status == 401

    def test_probe_list_reflects_state(self, server):
        server.state.ingest(m("siteA/p1", 50.0, 120.0))
        server.state.ingest(m("siteB/p2", 60.0, 240.0))
        status, body = http_get(f"{server.url}/v1/probes/")
        assert status == 200
        assert set(body["probes"]) == {"siteA/p1", "siteB/p2"}
        entry = body["probes"]["siteA/p1"]
        assert set(entry) == {"w", "kwh", "timestamp"}
        assert entry["w"] == 120.0

    def test_single_probe_fields(self, server):
        server.state.ingest(m("siteA/p1", 50.0, 120.0))
        server.state.ingest(m("siteA/p1", 3650.0, 120.0))
        status, body = http_get(f"{server.url}/v1/probes/siteA/p1/")
        assert status == 200
        assert body["w"] == 120.0
        assert body["kwh"] == pytest.approx(0.12)
        assert body["timestamp"] == 3650.0
        # trailing slash optional
        status2, body2 = http_get(f"{server.url}/v1/probes/siteA/p1")
        assert (status2, body2) == (status, body)

    def test_unknown_probe_404(self, server):
        status, _ = http_get(f"{server.url}/v1/probes/nope/missing/")
        assert status == 404

    def test_malformed_path_400(self, server):
        for path in ("/v1/probes/onlysite/", "/v1/probes/a/b/c/", "/v1/nope/"):
            status, _ = http_get(f"{server.url}{path}")
            assert status == 400, path

    def test_status_counters(self, server):
        server.state.ingest(m("siteA/p1", 50.0, 120.0))
        status, body = http_get(f"{server.url}/v1/status/")
        assert status == 200
        assert body["ingested"] == 1
        assert body["probes"] == 1
        for key in ("rejected", "out_of_order", "gaps", "evictions", "malformed"):
            assert key in body


class TestBusIntegration:
    def test_frames_flow_into_records(self):
        secret = b"integration-secret-x"
        pub = Publisher(loopback())
        state = MeterState(secret=secret, gap_limit_s=1e9)
        srv = ApiServer(state, ("127.0.0.1", 0), StaticTokenValidator([TOKEN]))
        srv.start(subscribe=pub.endpoint)
        try:
            assert wait_until(lambda: pub.subscriber_count == 1)
            for i in range(50):
                sample = sign(m("siteA/p1", 100.0 + i, 150.0), secret)
                pub.publish(Frame(sample.probe.topic, encode_measurement(sample)))
            assert wait_until(lambda: state.counters().ingested == 50)
            status, body = http_get(f"{srv.url}/v1/probes/siteA/p1/")
            assert status == 200
            assert body["timestamp"] == 149.0
        finally:
            srv.close()
            pub.close()

    def test_stale_probe_disappears(self):
        pub = Publisher(loopback())
        state = MeterState()
        srv = ApiServer(state, ("127.0.0.1", 0), StaticTokenValidator([TOKEN]),
                        stale_timeout_s=0.3, eviction_period_s=0.05)
        srv.start(subscribe=pub.endpoint)
        try:
            assert wait_until(lambda: pub.subscriber_count == 1)
            pub.publish(Frame("siteA/p1", encode_measurement(m("siteA/p1", 5.0, 1.0))))
            assert wait_until(lambda: state.get("siteA/p1") is not None)
            assert wait_until(lambda: state.get("siteA/p1") is None, timeout=5.0)
            status, _ = http_get(f"{srv.url}/v1/probes/siteA/p1/")
            assert status == 404
            assert state.counters().evictions == 1
        finally:
            srv.close()
            pub.close()
