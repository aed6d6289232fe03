"""The consumer skeleton shared by the API and viz daemons."""

import subprocess
import sys
import threading
import time

import pytest

from wattbus.api import ApiServer, StaticTokenValidator
from wattbus.bus import Endpoint, Frame, Publisher
from wattbus.config import VizConfig
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


@pytest.mark.parametrize("make", [api_server, viz_server], ids=["api", "viz"])
def test_ingest_counts_malformed_then_ingests_and_close_ends_threads(tmp_path, make):
    server, counts = make(tmp_path)
    pub = Publisher(Endpoint("tcp", host="127.0.0.1", port=0))
    try:
        server.start(subscribe=pub.endpoint)
        assert wait_until(lambda: pub.subscriber_count == 1)
        pub.publish(Frame("s/p", b'{"probe":"s/p","timestamp":1,"w":-5}'))
        pub.publish(Frame("s/p", b"[" * 60000))  # too deep for json.loads, fits in a frame
        m = Measurement(ProbeId("s", "p"), 2.0, 40.0)
        pub.publish(Frame("s/p", encode_measurement(m)))
        assert wait_until(lambda: counts() == (2, 1)), counts()
        assert server.ingest_errors == 0
    finally:
        threads = server._threads + [server._subscriber._thread]
        server.close()
        pub.close()
    assert len(threads) == 4  # HTTP, ingest, periodic, subscriber reader
    assert not [t.name for t in threads if t.is_alive()]


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
def test_close_without_start_returns(tmp_path, make):
    server, _counts = make(tmp_path)
    closer = threading.Thread(target=server.close, daemon=True)
    closer.start()
    closer.join(timeout=5.0)
    assert not closer.is_alive()


def test_driver_side_modules_do_not_import_http_server():
    # the driver process imports these; importing http.server as well
    # raises its peak RSS by about 2.5 MB (CPython 3.11, x86-64 Linux)
    code = ("import sys, wattbus.bench, wattbus.manager, wattbus.forwarder; "
            "print('http.server' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
