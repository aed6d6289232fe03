"""REST API data consumer.

Subscribes on the bus, feeds a MeterState, and serves it over HTTP/1.1:

    GET /v1/probes/                  all probes: {"probes": {topic: {...}}}
    GET /v1/probes/<site>/<name>/    one probe: {"w":..., "kwh":..., "timestamp":...}
    GET /v1/status/                  ingest counters

Every request must carry a valid ``X-Auth-Token`` header; the token is
checked before any state is touched (401) against the configured token
list, unknown probes give 404, and anything that is not one of the routes
above gives 400.
"""

from __future__ import annotations

import hmac
import logging
import re
from dataclasses import asdict

from wattbus.consumer import ConsumerServer, json_reply
from wattbus.energy import STALE_TIMEOUT_S, MeterState, gap_limits_from_probes
from wattbus.model import Measurement, decode_measurement

log = logging.getLogger(__name__)

AUTH_HEADER = "X-Auth-Token"


class StaticTokenValidator:
    """Accepts tokens from a fixed list, compared constant-time."""

    def __init__(self, tokens):
        self._tokens = [t.encode("utf-8") for t in tokens]

    def validate(self, token: str | None) -> bool:
        if token is None:
            return False
        raw = token.encode("utf-8")
        ok = False
        for candidate in self._tokens:
            # check every candidate so timing does not leak list position
            if hmac.compare_digest(candidate, raw):
                ok = True
        return ok


_PROBE_PATH = re.compile(r"^/v1/probes/([^/]+)/([^/]+)/?$")


class ApiServer(ConsumerServer):
    """REST front over a MeterState; the periodic task evicts stale probes."""

    name = "api"

    def __init__(self, state: MeterState, listen: tuple[str, int],
                 validator: StaticTokenValidator,
                 stale_timeout_s: float = STALE_TIMEOUT_S,
                 eviction_period_s: float | None = None):
        if eviction_period_s is None:
            eviction_period_s = max(min(stale_timeout_s / 4.0, 30.0), 0.05)
        super().__init__(state, listen, eviction_period_s)
        self.validator = validator
        self._stale_timeout_s = stale_timeout_s

    def answer(self, path: str, headers) -> tuple[int, bytes, str]:
        if not self.validator.validate(headers.get(AUTH_HEADER)):
            return json_reply(401, {"error": "invalid or missing token"})
        path = path.split("?", 1)[0]
        if path in ("/v1/probes", "/v1/probes/"):
            return json_reply(200, {"probes": self.state.snapshot()})
        if path in ("/v1/status", "/v1/status/"):
            return json_reply(200, {**asdict(self.state.counters()), "probes": len(self.state)})
        match = _PROBE_PATH.match(path)
        if match is None:
            return json_reply(400, {"error": "malformed path"})
        record = self.state.get(f"{match.group(1)}/{match.group(2)}")
        if record is None:
            return json_reply(404, {"error": "unknown probe"})
        return json_reply(200, record)

    def decode(self, payload: bytes) -> Measurement:
        return decode_measurement(payload)  # looked up per call: a wrapper set on the module applies

    def periodic(self) -> None:
        for probe in self.state.evict_stale(timeout_s=self._stale_timeout_s):
            log.info("evicted stale probe %s", probe)


def start_api(cfg) -> tuple:
    """Start the REST API consumer (CLI entry); return what to close."""
    state = MeterState(
        secret=cfg.signing_secret,
        gap_limit_s=cfg.api.gap_limit_s,
        gap_limits=gap_limits_from_probes(cfg.probes),
    )
    server = ApiServer(
        state, cfg.api.listen, StaticTokenValidator(cfg.api.tokens),
        stale_timeout_s=cfg.api.stale_timeout_s)
    server.start(subscribe=cfg.connect)
    return (server.close,)
