"""The consumer skeleton shared by the API and viz daemons."""

import errno
import http.client
import logging
import os
import select
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import wattbus.bus as bus
from wattbus.api import AUTH_HEADER, ApiServer, StaticTokenValidator
from wattbus.bus import Endpoint, Frame, Publisher
from wattbus.config import VizConfig
from wattbus.consumer import ConsumerHandler
from wattbus.energy import MeterState
from wattbus.model import Measurement, ProbeId, encode_measurement
from wattbus.viz import VizServer, VizState


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def api_server(tmp_path):
    state = MeterState()
    server = ApiServer(state, ("127.0.0.1", 0), StaticTokenValidator(["t"]))
    return server, lambda: (state.counters().malformed, state.counters().ingested)


def viz_server(tmp_path):
    state = VizState(VizConfig(data_dir=str(tmp_path)))
    server = VizServer(state, ("127.0.0.1", 0))
    return server, lambda: (state.malformed, state.ingested)


def served_headers(server, path, headers=None):
    """The Server and Content-Type headers a started server sends for ``path``."""
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=5.0)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        response.read()
        return response.getheader("Server"), response.getheader("Content-Type")
    finally:
        conn.close()


@pytest.mark.parametrize("make", [api_server, viz_server], ids=["api", "viz"])
def test_ingest_counts_malformed_then_ingests_and_close_ends_threads(tmp_path, make):
    server, counts = make(tmp_path)
    pub = Publisher(Endpoint("tcp", host="127.0.0.1", port=0))
    before = set(threading.enumerate())
    try:
        server.start(subscribe=pub.endpoint)
        threads = set(threading.enumerate()) - before
        assert wait_until(lambda: pub.subscriber_count == 1)
        pub.publish(Frame("s/p", b'{"probe":"s/p","timestamp":1,"w":-5}'))
        pub.publish(Frame("s/p", b"[" * 60000))  # too deep for json.loads, fits in a frame
        m = Measurement(ProbeId("s", "p"), 2.0, 40.0)
        pub.publish(Frame("s/p", encode_measurement(m)))
        assert wait_until(lambda: counts() == (2, 1)), counts()
        assert server.ingest_errors == 0
    finally:
        server.close()
        pub.close()
    assert len(threads) == 2  # HTTP, which runs the periodic task, and the subscriber's reader
    assert not [t.name for t in threads if t.is_alive()]


@pytest.mark.parametrize("make", [api_server, viz_server], ids=["api", "viz"])
def test_probe_id_too_long_for_a_file_name_is_malformed(tmp_path, make, caplog):
    # viz names a directory after each probe part; a 300-byte one cannot be made
    server, counts = make(tmp_path)
    pub = Publisher(Endpoint("tcp", host="127.0.0.1", port=0))
    site = "s" * 300
    try:
        server.start(subscribe=pub.endpoint)
        assert wait_until(lambda: pub.subscriber_count == 1)
        pub.publish(Frame(f"{site}/p", b'{"probe":"%s/p","timestamp":1,"w":5}' % site.encode()))
        pub.publish(Frame("s/p", encode_measurement(Measurement(ProbeId("s", "p"), 2.0, 40.0))))
        assert wait_until(lambda: counts() == (1, 1)), counts()
        assert server.ingest_errors == 0
    finally:
        server.close()
        pub.close()
    assert site not in os.listdir(tmp_path)
    assert not [r for r in caplog.records if r.exc_info]


@pytest.mark.parametrize("make", [api_server, viz_server], ids=["api", "viz"])
def test_ingest_error_is_counted_and_ingest_goes_on(tmp_path, make):
    server, counts = make(tmp_path)
    ingest = server.state.ingest
    calls = []

    def ingest_raising_once(m):
        calls.append(m)
        if len(calls) == 1:
            raise ValueError("cannot convert float NaN to integer")
        ingest(m)

    server.state.ingest = ingest_raising_once
    pub = Publisher(Endpoint("tcp", host="127.0.0.1", port=0))
    try:
        server.start(subscribe=pub.endpoint)
        assert wait_until(lambda: pub.subscriber_count == 1)
        for t in (1.0, 2.0):
            pub.publish(Frame("s/p", encode_measurement(Measurement(ProbeId("s", "p"), t, 40.0))))
        assert wait_until(lambda: counts() == (0, 1)), counts()
        assert server.ingest_errors == 1
    finally:
        server.close()
        pub.close()


@pytest.mark.parametrize("make", [api_server, viz_server], ids=["api", "viz"])
def test_far_future_measurements_are_skipped_and_counted(tmp_path, make):
    # one sample from a clock far ahead must not make the on-time ones late
    server, counts = make(tmp_path)
    pub = Publisher(Endpoint("tcp", host="127.0.0.1", port=0))
    now = time.time()
    stamps = [now + 1e6] + [now - 10 + k for k in range(10)] + [1e300]
    try:
        server.start(subscribe=pub.endpoint)
        assert wait_until(lambda: pub.subscriber_count == 1)
        for t in stamps:
            pub.publish(Frame("s/p", encode_measurement(Measurement(ProbeId("s", "p"), t, 40.0))))
        assert wait_until(lambda: server.future_skipped == 2), server.future_skipped
        assert wait_until(lambda: counts() == (0, 10)), counts()
        assert server.ingest_errors == 0
    finally:
        server.close()
        pub.close()


@pytest.mark.parametrize("make", [api_server, viz_server], ids=["api", "viz"])
def test_periodic_error_is_counted_and_periodic_goes_on(tmp_path, make):
    server, _counts = make(tmp_path)
    periodic = server.periodic
    calls = []

    def periodic_raising_once():
        calls.append(1)
        if len(calls) == 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        periodic()

    server.periodic = periodic_raising_once
    server._period_s = 0.01  # the daemons' periods are seconds long
    try:
        server.start()
        assert wait_until(lambda: len(calls) >= 3), len(calls)
        assert server.periodic_errors == 1
    finally:
        server.close()


@pytest.mark.parametrize("make", [api_server, viz_server], ids=["api", "viz"])
def test_a_started_daemon_runs_two_threads(tmp_path, make):
    server, _counts = make(tmp_path)
    periodic = server.periodic
    ran_on = []

    def periodic_recording():
        ran_on.append(threading.current_thread().name)
        periodic()

    server.periodic = periodic_recording
    server._period_s = 0.05
    pub = Publisher(Endpoint("tcp", host="127.0.0.1", port=0))
    try:
        before, known = threading.active_count(), set(threading.enumerate())
        server.start(subscribe=pub.endpoint)
        assert threading.active_count() == before + 2
        new = {t.name for t in set(threading.enumerate()) - known}
        assert new == {f"{server.name}-http", f"sub-{pub.endpoint}"}
        assert wait_until(lambda: len(ran_on) >= 3), ran_on
        assert set(ran_on) == {f"{server.name}-http"}
        assert threading.active_count() == before + 2
    finally:
        server.close()
        pub.close()


@pytest.mark.parametrize("make", [api_server, viz_server], ids=["api", "viz"])
def test_unreachable_publisher_logs_one_warning_naming_it(tmp_path, make, monkeypatch,
                                                          caplog):
    monkeypatch.setattr(bus, "RETRIES_BEFORE_WARNING", 3)
    closed = socket.socket()
    closed.bind(("127.0.0.1", 0))
    endpoint = Endpoint("tcp", host="127.0.0.1", port=closed.getsockname()[1])
    closed.close()
    server, _counts = make(tmp_path)
    try:
        server.start(subscribe=endpoint)
        warnings = lambda: [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert wait_until(warnings)
        time.sleep(0.8)  # two more attempts fail within this streak, with no warning
        assert [str(endpoint) in r.getMessage() for r in warnings()] == [True]
    finally:
        server.close()


REQUESTS = {"api": ("/v1/status", {AUTH_HEADER: "t"}, 200),
            "viz": ("/stats/s/p", {}, 404)}  # viz has no probe yet: unknown


@pytest.mark.parametrize("make", [api_server, viz_server], ids=["api", "viz"])
def test_idle_and_reset_connections_free_their_threads_quietly(tmp_path, make, monkeypatch,
                                                               capfd):
    monkeypatch.setattr(ConsumerHandler, "timeout", 0.5)
    server, _counts = make(tmp_path)
    path, headers, status = REQUESTS[server.name]
    host, port = server.server_address[:2]
    silent = []
    try:
        server.start()
        baseline = threading.active_count()
        silent = [socket.create_connection((host, port)) for _ in range(20)]
        assert wait_until(lambda: threading.active_count() > baseline)
        assert wait_until(lambda: threading.active_count() == baseline, timeout=2.0)

        # a keep-alive client that closes with its response unread resets
        # the connection, and the server's next read fails
        reset = socket.create_connection((host, port))
        reset.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        assert select.select([reset], [], [], 5.0)[0]
        reset.close()
        assert wait_until(lambda: server.http_errors == 1), server.http_errors

        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        conn.request("GET", path, headers=headers)
        assert conn.getresponse().status == status
        conn.close()
    finally:
        for s in silent:
            s.close()
        server.close()
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("make", [api_server, viz_server], ids=["api", "viz"])
def test_keep_alive_requests_do_not_wait_for_delayed_acks(tmp_path, make):
    # a response goes out as two writes, headers then body; with Nagle's
    # algorithm on, the body waits for the client's delayed ACK (about 40 ms)
    server, _counts = make(tmp_path)
    path, headers, status = REQUESTS[server.name]
    server.start()
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=5.0)
    try:
        t0 = time.monotonic()
        for _ in range(50):
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            response.read()
            assert response.status == status
        assert time.monotonic() - t0 < 1.0
    finally:
        conn.close()
        server.close()


@pytest.mark.parametrize("make", [api_server, viz_server], ids=["api", "viz"])
def test_close_without_start_returns(tmp_path, make):
    server, _counts = make(tmp_path)
    closer = threading.Thread(target=server.close, daemon=True)
    closer.start()
    closer.join(timeout=5.0)
    assert not closer.is_alive()


_routes = st.sampled_from(["/v1/probes/", "/v1/status", "/v1/probes/s/p", "/charts/s/p.svg",
                           "/stats/s/p", "/stats/s/q/"])
_segments = st.sampled_from(["s", "p", "p.svg", ""]) | st.text(max_size=10)
_prefixes = st.sampled_from(["", "/", "/v1/probes/", "/charts/", "/stats/"])
_values = st.floats().map(repr) | st.sampled_from(["100", "160", "1", "60", "x"]) | st.text(max_size=8)
_queries = st.lists(st.tuples(st.sampled_from(["from", "to", "step"]) | st.text(max_size=5),
                              _values), max_size=3)
_paths = st.builds(
    lambda path, query: path + ("?" + "&".join(f"{k}={v}" for k, v in query) if query else ""),
    _routes | st.builds(lambda prefix, parts: prefix + "/".join(parts),
                        _prefixes, st.lists(_segments, max_size=3)),
    _queries)


@pytest.mark.parametrize("make", [api_server, viz_server], ids=["api", "viz"])
def test_answer_gives_a_status_and_bytes_for_any_path(tmp_path, make):
    server, _counts = make(tmp_path)
    for t in (100.0, 101.0, 160.0):
        server.state.ingest(Measurement(ProbeId("s", "p"), t, 40.0))

    @settings(deadline=None, max_examples=300)
    @given(_paths, st.sampled_from([{}, {AUTH_HEADER: "t"}, {AUTH_HEADER: "x"}]))
    def check(path, headers):
        status, body, _content_type = server.answer(path, headers)
        assert status in {200, 400, 401, 404} and isinstance(body, bytes)

    try:
        check()
    finally:
        server.server_close()


def test_driver_side_modules_do_not_import_http_server():
    # the driver process imports these; importing http.server as well
    # raises its peak RSS by about 2.5 MB (CPython 3.11, x86-64 Linux)
    code = ("import sys, wattbus.bench, wattbus.manager, wattbus.forwarder; "
            "print('http.server' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
