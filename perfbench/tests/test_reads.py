"""The read client's verdicts on bad answers, against a local stub server.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import http.server
import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from run import ReadClient  # noqa: E402

TOPICS = ["p0", "p1"]
GOOD_RECORD = b'{"w": 1.0, "kwh": 0.0, "timestamp": 1.0}'
GOOD_STATS = (b'{"avg_w": 1, "min_w": 1, "max_w": 1, "last_w": 1, '
              b'"total_kwh": 0, "cost_eur": 0}')


@pytest.fixture
def serve():
    """serve({path: (status, body)}) -> base URL of a stub answering those."""
    servers = []

    def start(routes: dict[str, tuple[int, bytes]]) -> str:
        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                status, body = routes.get(self.path, (404, b""))
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def client(url: str) -> ReadClient:
    return ReadClient(url, url, TOPICS, seed=1)


def probes_body(records: bytes) -> bytes:
    return b'{"probes": ' + records + b"}"


@pytest.mark.parametrize("kind, path, body", [
    ("probes", "/v1/probes/", probes_body(b'{"p0": ' + GOOD_RECORD + b', "p1": ' + GOOD_RECORD + b"}")),
    ("probe", "/v1/probes/p0/", GOOD_RECORD),
    ("chart", "/charts/p0.svg", b"<svg></svg>"),
    ("stats", "/stats/p0", GOOD_STATS),
])
def test_good_answers_pass(serve, kind, path, body):
    ok, _, _ = client(serve({path: (200, body)}))._one(kind, "p0")
    assert ok is True


@pytest.mark.parametrize("kind, path, body", [
    ("probes", "/v1/probes/", b"not json"),
    ("probes", "/v1/probes/", b'{"no_probes": {}}'),
    ("probes", "/v1/probes/", probes_body(b"[1, 2]")),
    ("probes", "/v1/probes/", probes_body(b'{"p0": ' + GOOD_RECORD + b"}")),
    ("probe", "/v1/probes/p0/", b"not json"),
    ("probe", "/v1/probes/p0/", b'[{"w": 1}]'),
    ("probe", "/v1/probes/p0/", b'{"w": 1}'),
    ("chart", "/charts/p0.svg", b"<html></html>"),
    ("stats", "/stats/p0", b"7"),
])
def test_answered_but_unparseable_is_not_ok(serve, kind, path, body):
    ok, _, _ = client(serve({path: (200, body)}))._one(kind, "p0")
    assert ok is False


@pytest.mark.parametrize("kind, status", [("probes", 401), ("probes", 500), ("chart", 503)])
def test_not_answered_200_raises_a_transport_error(serve, kind, status):
    c = client(serve({"/v1/probes/": (status, b""), "/charts/p0.svg": (status, b"")}))
    with pytest.raises(c.transport_errors):
        c._one(kind, "p0")


def test_a_dying_loop_is_recorded():
    c = client("http://127.0.0.1:9")

    def boom(kind, topic):
        raise RuntimeError("boom")

    c._one = boom
    c.start()
    c.join(timeout=10.0)
    assert not c.is_alive()
    assert "RuntimeError: boom" in c.crash
