"""Skeleton shared by the bus consumer daemons (REST API, viz).

A consumer plugin is a state fed from the bus, an HTTP handler that reads
it, and one periodic task.  ``ConsumerServer`` owns everything else: the
HTTP server, the optional bus ``Subscriber``, and three threads: HTTP,
periodic, and the subscriber's reader, which decodes and ingests each
read's frames before it reads again.  Undecodable payloads are counted on
the state (``count_malformed``) and skipped.  A measurement dated more
than ``MAX_AHEAD_S`` past this host's clock is counted in
``future_skipped`` and skipped, so one bad clock cannot make every later
on-time sample of its probe look late.  Every other payload goes to
``state.ingest``.  An exception from ``state.ingest`` is logged and counted
in ``ingest_errors``, and ingest goes on with the next frame; one from the
periodic task is logged and counted in ``periodic_errors``, and the task
runs again next period.

Only consumer daemons import this module: it pulls in ``http.server``,
which the driver process has no use for.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from wattbus.bus import Endpoint, Subscriber
from wattbus.model import DecodeError, Measurement

log = logging.getLogger(__name__)

MAX_AHEAD_S = 300.0  # how far past the local clock a measurement may be dated


class ConsumerHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 request handler base; ``self.server.consumer`` is the server."""

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # route through logging, not stderr
        log.debug("%s %s", self.address_string(), fmt % args)

    def _reply(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_json(self, code: int, obj: dict) -> None:
        self._reply(code, json.dumps(obj).encode("utf-8"), "application/json")


class ConsumerServer:
    """HTTP front plus optional bus ingest and one periodic task.

    Subclasses set ``handler`` and ``name`` and implement ``decode`` and
    ``periodic``.  ``state.ingest`` is looked up for every measurement, so
    it may be replaced on a running server.
    """

    handler: type[ConsumerHandler]
    name: str

    def __init__(self, state, listen: tuple[str, int], period_s: float):
        self.state = state
        self._period_s = period_s
        self._httpd = ThreadingHTTPServer(listen, self.handler)
        self._httpd.daemon_threads = True
        self._httpd.consumer = self  # type: ignore[attr-defined]
        self._threads: list[threading.Thread] = []
        self._subscriber: Subscriber | None = None
        self._stop = threading.Event()
        self.ingest_errors = 0  # state.ingest calls that raised
        self.future_skipped = 0  # measurements dated more than MAX_AHEAD_S ahead
        self.periodic_errors = 0  # periodic calls that raised

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def decode(self, payload: bytes) -> Measurement:
        """Parse one bus payload; raise ``DecodeError`` if it is malformed."""
        raise NotImplementedError

    def periodic(self) -> None:
        """Run every ``period_s`` seconds while the server is started."""
        raise NotImplementedError

    def start(self, subscribe: Endpoint | None = None, prefix: str = "") -> None:
        self._spawn(self._httpd.serve_forever, "http")
        if subscribe is not None:
            self._subscriber = Subscriber(subscribe, prefix, self._ingest)
        self._spawn(self._periodic_loop, "periodic")
        log.info("%s listening on %s", self.name, self.url)

    def _spawn(self, target, role: str) -> None:
        t = threading.Thread(target=target, name=f"{self.name}-{role}", daemon=True)
        t.start()
        self._threads.append(t)

    def _ingest(self, frames) -> None:
        """Decode and ingest one read's frames, on the subscriber's thread."""
        horizon = time.time() + MAX_AHEAD_S
        for frame in frames:
            try:
                m = self.decode(frame.payload)
            except DecodeError as exc:
                self.state.count_malformed()
                log.warning("undecodable payload on %r: %s", frame.topic, exc)
                continue
            if m.timestamp > horizon:
                self.future_skipped += 1
                log.warning("measurement on %r dated %.6g, more than %g s ahead, skipped",
                            frame.topic, m.timestamp, MAX_AHEAD_S)
                continue
            try:
                self.state.ingest(m)
            except Exception:  # one bad measurement must not end ingest for good
                self.ingest_errors += 1
                log.exception("ingest failed on %r", frame.topic)

    def _periodic_loop(self) -> None:
        while not self._stop.wait(self._period_s):
            try:
                self.periodic()
            except Exception:  # a full disk must not end flushing or eviction for good
                self.periodic_errors += 1
                log.exception("%s periodic task failed", self.name)

    def close(self) -> None:
        self._stop.set()
        if self._subscriber is not None:
            self._subscriber.close()
        if self._threads:  # shutdown() waits for a serve_forever that start() runs
            self._httpd.shutdown()
        self._httpd.server_close()
        for t in self._threads:
            t.join(timeout=5.0)
