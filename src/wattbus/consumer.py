"""Skeleton shared by the bus consumer daemons (REST API, viz).

A consumer plugin is a state fed from the bus, an HTTP handler that reads
it, and one periodic task.  ``ConsumerServer`` runs the rest on two
threads: the HTTP server, whose accept loop also runs the periodic task
when it is due (so a viz flush delays new connections, but neither
requests on open ones nor ingest), and the bus ``Subscriber``'s reader,
which decodes and ingests.  Undecodable payloads (``count_malformed`` on
the state) and measurements dated more than ``MAX_AHEAD_S`` ahead of this
host's clock (``future_skipped``) are counted and skipped.  An exception
from ``state.ingest``, from a request or from the periodic task is
logged, counted in ``ingest_errors``, ``http_errors`` or
``periodic_errors``, and the work goes on.

Only consumer daemons import this module: it pulls in ``http.server``,
which the driver process has no use for.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from wattbus.bus import Endpoint, Subscriber
from wattbus.model import DecodeError

log = logging.getLogger(__name__)

MAX_AHEAD_S = 300.0  # how far past the local clock a measurement may be dated
HTTP_IDLE_TIMEOUT_S = 30.0  # a connection silent this long is closed, freeing its thread


class ConsumerHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 request handler base; ``self.server.consumer`` is the server."""

    protocol_version = "HTTP/1.1"
    timeout = HTTP_IDLE_TIMEOUT_S
    disable_nagle_algorithm = True  # headers and body are two writes: send each at once

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


class _HTTPServer(ThreadingHTTPServer):
    """The HTTP front, whose accept loop also runs the consumer's periodic task."""

    daemon_threads = True
    consumer: ConsumerServer
    due = math.inf  # monotonic time of the next periodic run; start() sets it
    _error_lock = threading.Lock()  # handle_error runs on request threads

    def service_actions(self) -> None:  # serve_forever calls this every poll
        if time.monotonic() >= self.due:
            try:
                self.consumer.periodic()
            except Exception:  # a full disk must not end flushing or eviction for good
                self.consumer.periodic_errors += 1
                log.exception("%s periodic task failed", self.consumer.name)
            self.due = time.monotonic() + self.consumer._period_s

    def handle_error(self, request, client_address) -> None:
        with self._error_lock:
            self.consumer.http_errors += 1
        log.debug("request from %s failed", client_address, exc_info=True)


class ConsumerServer:
    """HTTP front plus optional bus ingest and one periodic task.

    Subclasses set ``handler`` and ``name`` and implement ``decode(payload)``,
    which returns a ``Measurement`` or raises ``DecodeError``, and
    ``periodic()``, run every ``period_s`` seconds once started.
    ``state.ingest`` is looked up per measurement, so it may be replaced.
    """

    handler: type[ConsumerHandler]
    name: str

    def __init__(self, state, listen: tuple[str, int], period_s: float):
        self.state = state
        self._period_s = period_s
        self._httpd = _HTTPServer(listen, self.handler)
        self._httpd.consumer = self
        self._http_thread = threading.Thread(  # reads period_s when started
            target=lambda: self._httpd.serve_forever(min(self._period_s, 0.5)),
            name=f"{self.name}-http", daemon=True)
        self._subscriber: Subscriber | None = None
        self.ingest_errors = 0  # state.ingest calls that raised
        self.future_skipped = 0  # measurements dated more than MAX_AHEAD_S ahead
        self.periodic_errors = 0  # periodic calls that raised
        self.http_errors = 0  # requests that raised, such as on a client reset

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self, subscribe: Endpoint | None = None, prefix: str = "") -> None:
        self._httpd.due = time.monotonic() + self._period_s
        self._http_thread.start()
        if subscribe is not None:
            self._subscriber = Subscriber(subscribe, prefix, self._ingest)
        log.info("%s listening on %s", self.name, self.url)

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

    def close(self) -> None:
        if self._subscriber is not None:
            self._subscriber.close()
        if self._http_thread.is_alive():  # shutdown() waits for serve_forever to return
            self._httpd.shutdown()
            self._http_thread.join(timeout=5.0)
        self._httpd.server_close()
