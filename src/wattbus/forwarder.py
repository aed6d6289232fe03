"""Relay daemon: subscribe upstream, re-publish downstream unchanged.

Forwarders let measurements cross network segments (multi-site setups,
isolated administration networks) and reduce fan-out on the probe side:
many consumers can hang off one forwarder while each driver serves a
single subscriber.  Frames pass through byte-identically, so signatures
verify unchanged after any number of hops.  Forwarders never verify
signatures themselves; they may not hold the secret, and verification is a
consumer duty.

Multiple upstreams are merged onto one downstream publisher.  Each
upstream has one thread, its subscriber's reader, which re-publishes what
each read brought in one batch before it reads again.  The subscriber
logs its own connects, disconnects and an unreachable upstream.
Per-upstream frame order is preserved; interleaving between upstreams is
unspecified.
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
        self._count_lock = threading.Lock()  # one reader thread per upstream counts
        self.frames_forwarded = 0
        self._subscribers = [Subscriber(endpoint, prefix, self._relay)
                             for endpoint, prefix in cfg.upstreams]

    def _relay(self, frames) -> None:
        with self.publisher.batch():  # one send per downstream subscriber per read
            for frame in frames:
                self.publisher.publish(frame)
        with self._count_lock:
            self.frames_forwarded += len(frames)

    def close(self) -> None:
        for sub in self._subscribers:
            sub.close()
        self.publisher.close()


def start_forwarder(cfg: ForwarderConfig) -> tuple:
    """Start a forwarder (CLI entry); return what to close."""
    fwd = Forwarder(cfg)
    log.info("forwarding %d upstream(s) to %s",
             len(cfg.upstreams), cfg.downstream_bind)
    return (fwd.close,)
