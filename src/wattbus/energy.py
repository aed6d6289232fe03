"""Per-probe metering state for the REST API consumer.

Power samples (W) are integrated into energy (kWh) with the trapezoidal
rule.  When two samples are separated by more than the gap limit the
interval contributes nothing: inventing energy across an outage would be
worse than under-reporting, since a consumer of this API bills on kWh.

All anomalies (bad signatures, out-of-order samples, gaps, evictions) are
counted, not raised: ingest is a sink fed by the bus and must never die on
malformed traffic.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass

from wattbus.model import Measurement, ProbeId
from wattbus.signing import verify

log = logging.getLogger(__name__)

WS_PER_KWH = 3.6e6  # watt-seconds in one kilowatt-hour
DEFAULT_GAP_LIMIT_S = 60.0
GAP_LIMIT_INTERVALS = 10  # gap limit as a multiple of the driver interval


class OutOfOrderError(ValueError):
    """A sample is older than the one before it."""


def integrate_energy(prev_w: float, prev_t: float, w: float, t: float) -> float:
    """Energy (kWh) contributed by the interval between two samples.

    Trapezoidal rule: mean power times elapsed seconds.  The caller applies
    the gap limit: an interval longer than it contributes nothing.
    """
    if t < prev_t:
        raise OutOfOrderError(f"sample at {t} predates previous sample at {prev_t}")
    return (prev_w + w) / 2.0 * (t - prev_t) / WS_PER_KWH


@dataclass
class ProbeRecord:
    """Everything the API serves for one probe."""

    probe: ProbeId
    last_w: float
    kwh_total: float
    last_sample_timestamp: float
    received_at: float

    def reading(self) -> dict:
        """What the API serves for this probe."""
        return {"w": self.last_w, "kwh": self.kwh_total,
                "timestamp": self.last_sample_timestamp}


@dataclass(frozen=True)
class MeterCounters:
    ingested: int
    rejected: int
    malformed: int
    out_of_order: int
    gaps: int
    evictions: int


class MeterState:
    """Thread-safe probe table behind the REST API.

    One ingest thread writes; HTTP handlers and the eviction timer read and
    sweep concurrently.  A single lock keeps every (w, kwh, timestamp)
    triple internally consistent.
    """

    def __init__(self, secret: bytes | None = None,
                 gap_limit_s: float = DEFAULT_GAP_LIMIT_S,
                 gap_limits: dict[str, float] | None = None,
                 clock=time.time):
        self._records: dict[str, ProbeRecord] = {}
        self._lock = threading.Lock()
        self._secret = secret
        self._gap_limit_s = gap_limit_s
        self._gap_limits = dict(gap_limits or {})
        self._clock = clock
        self.ingested = 0
        self.rejected = 0
        self.malformed = 0
        self.out_of_order = 0
        self.gaps = 0
        self.evictions = 0

    def _gap_limit_for(self, topic: str) -> float:
        return self._gap_limits.get(topic, self._gap_limit_s)

    def ingest(self, m: Measurement) -> None:
        """Fold one measurement into the probe table.

        With a secret configured, messages that do not verify are discarded
        and counted; nothing is ever raised.
        """
        if self._secret is not None and not verify(m, self._secret):
            with self._lock:
                self.rejected += 1
            return
        topic = m.probe.topic
        now = self._clock()
        with self._lock:
            record = self._records.get(topic)
            if record is None:
                self._records[topic] = ProbeRecord(
                    probe=m.probe,
                    last_w=m.watts,
                    kwh_total=0.0,
                    last_sample_timestamp=m.timestamp,
                    received_at=now,
                )
                self.ingested += 1
                return
            if m.timestamp < record.last_sample_timestamp:
                self.out_of_order += 1
                return
            gap_limit = self._gap_limit_for(topic)
            if m.timestamp - record.last_sample_timestamp > gap_limit:
                self.gaps += 1
            else:
                record.kwh_total += integrate_energy(
                    record.last_w, record.last_sample_timestamp,
                    m.watts, m.timestamp)
            record.last_w = m.watts
            record.last_sample_timestamp = m.timestamp
            record.received_at = now
            self.ingested += 1

    def count_malformed(self) -> None:
        with self._lock:
            self.malformed += 1

    def evict_stale(self, now: float | None = None,
                    timeout_s: float = 300.0) -> list[ProbeId]:
        """Drop probes silent for longer than ``timeout_s``.

        A probe that reappears later starts over with kwh_total = 0; energy
        does not survive eviction.
        """
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if now is None:
            now = self._clock()
        evicted: list[ProbeId] = []
        with self._lock:
            for topic, record in list(self._records.items()):
                if now - record.received_at > timeout_s:
                    del self._records[topic]
                    evicted.append(record.probe)
            self.evictions += len(evicted)
        return evicted

    # -- read side --------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Consistent copy of every record, keyed by topic."""
        with self._lock:
            return {topic: record.reading() for topic, record in self._records.items()}

    def get(self, topic: str) -> dict | None:
        with self._lock:
            record = self._records.get(topic)
            return None if record is None else record.reading()

    def counters(self) -> MeterCounters:
        with self._lock:
            return MeterCounters(
                ingested=self.ingested,
                rejected=self.rejected,
                malformed=self.malformed,
                out_of_order=self.out_of_order,
                gaps=self.gaps,
                evictions=self.evictions,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def gap_limits_from_probes(probes) -> dict[str, float]:
    """Per-topic gap limits: ten driver intervals each."""
    limits: dict[str, float] = {}
    for spec in probes:
        for topic in spec.all_topics():
            limits[topic] = GAP_LIMIT_INTERVALS * spec.interval_s
    return limits
