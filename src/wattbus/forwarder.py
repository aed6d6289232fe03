"""Relay daemon: subscribe upstream, re-publish downstream unchanged.

Forwarders let measurements cross network segments (multi-site setups,
isolated administration networks) and reduce fan-out on the probe side:
many consumers can hang off one forwarder while each driver serves a
single subscriber.  Frames pass through byte-identically, so signatures
verify unchanged after any number of hops.  Forwarders never verify
signatures themselves; they may not hold the secret, and verification is a
consumer duty.

Multiple upstreams are merged onto one downstream publisher.  Per-upstream
frame order is preserved; interleaving between upstreams is unspecified.
There is no deduplication, so topologies where the same frame can reach a
forwarder twice (diamonds) must be avoided by the operator.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass

from wattbus.bus import Endpoint, Publisher, Subscriber

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ForwarderConfig:
    """Upstream subscriptions plus the endpoint to re-publish on."""

    upstreams: tuple[tuple[Endpoint, str], ...]
    downstream_bind: Endpoint

    def __post_init__(self):
        if not self.upstreams:
            raise ValueError("forwarder needs at least one upstream")
        for endpoint, _prefix in self.upstreams:
            if endpoint == self.downstream_bind:
                raise ValueError(f"forwarder would loop onto itself via {endpoint}")


class Forwarder:
    """Running relay: one reader per upstream feeding a shared publisher."""

    def __init__(self, cfg: ForwarderConfig):
        self.cfg = cfg
        self.publisher = Publisher(cfg.downstream_bind)
        self._subscribers: list[Subscriber] = []
        self._pumps: list[threading.Thread] = []
        self._closed = False
        self._count_lock = threading.Lock()  # one pump thread per upstream counts
        self.frames_forwarded = 0
        for endpoint, prefix in cfg.upstreams:
            sub = Subscriber(endpoint, prefix,
                             on_event=self._upstream_event(endpoint))
            self._subscribers.append(sub)
            pump = threading.Thread(target=self._pump, args=(sub,),
                                    name=f"fwd-{endpoint}", daemon=True)
            self._pumps.append(pump)
            pump.start()

    @staticmethod
    def _upstream_event(endpoint: Endpoint):
        def handler(event: str, detail: str):
            if event == "unreachable":
                log.warning("upstream %s unreachable, retrying: %s", endpoint, detail)
            else:
                log.info("upstream %s: %s", endpoint, event)
        return handler

    def _pump(self, sub: Subscriber) -> None:
        for frame in sub:
            if self._closed:
                return
            relayed = 0
            with self.publisher.batch():  # one send per subscriber for what is queued
                while frame is not None:
                    self.publisher.publish(frame)
                    relayed += 1
                    frame = sub.get(timeout=0)
            with self._count_lock:
                self.frames_forwarded += relayed

    def close(self) -> None:
        self._closed = True
        for sub in self._subscribers:
            sub.close()
        for pump in self._pumps:
            pump.join(timeout=5.0)
        self.publisher.close()


def start_forwarder(cfg: ForwarderConfig) -> tuple:
    """Start a forwarder (CLI entry); return what to close."""
    fwd = Forwarder(cfg)
    log.info("forwarding %d upstream(s) to %s",
             len(cfg.upstreams), cfg.downstream_bind)
    return (fwd.close,)
