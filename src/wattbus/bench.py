"""Benchmark harness: emulated device fleets through the full pipeline.

A scenario spawns one child process that runs the driver fleet (publisher
plus the driver manager's scheduler thread); the calling process subscribes
and counts, so the measurement side never shares an interpreter with the
load generator.  One pipe carries the child's endpoint URL and then its
stats.  The driver fleet runs a fixed number of ticks paced at the scenario
interval, which makes the expected publication count exact: fleet size
times ticks.

The two standard fleets:

* ``ipmi``: 1,000 single-outlet cards
* ``pdu``:  100 strips of 10 outlets

Both place fleet_size*outlets/interval measurements per second on the bus.
Reported jitter is the distribution of per-probe inter-arrival times at
the counting side (pooled mean and p95); the burst report is the longest
run of frames arriving closer than ``burst_window_s`` apart, which is how
"data accumulates and arrives in chunks" shows up at small intervals.  CPU
time per process is recorded for reporting; pass/fail in acceptance is
always loss- and jitter-based because absolute CPU numbers are
hardware-bound.
"""

from __future__ import annotations

import json
import logging
import math
import multiprocessing as mp
import os
import resource
import tempfile
import time
from dataclasses import asdict, dataclass

from wattbus.bus import Endpoint, Publisher, Subscriber
from wattbus.devices import PROFILES, DriverSpec, seed_for_topic
from wattbus.manager import DriverManager
from wattbus.model import DecodeError, ProbeId, decode_measurement
from wattbus.signing import verify

log = logging.getLogger(__name__)

BENCH_SECRET = b"bench-shared-secret-0001"
BURST_WINDOW_S = 0.001
IDLE_GRACE_S = 1.0

FLEETS = {
    "ipmi": {"drivers": 1000, "outlets": 1, "profile": "emulated-ipmi"},
    "pdu": {"drivers": 100, "outlets": 10, "profile": "emulated-pdu"},
}


@dataclass(frozen=True)
class Scenario:
    """One experiment: a fleet, an interval, signing on or off."""

    name: str
    fleet: str
    signing: bool
    interval_s: float
    duration_s: float
    drivers: int | None = None  # fleet-size override for small smoke runs

    def __post_init__(self):
        if self.fleet not in FLEETS:
            raise ValueError(f"unknown fleet {self.fleet!r} (known: {sorted(FLEETS)})")
        if not (0 < self.interval_s < math.inf and 0 < self.duration_s < math.inf):
            raise ValueError("interval_s and duration_s must be positive and finite")
        if self.drivers is not None and self.drivers < 1:
            raise ValueError("drivers must be positive")

    @property
    def driver_count(self) -> int:
        return self.drivers if self.drivers is not None else FLEETS[self.fleet]["drivers"]

    @property
    def outlets(self) -> int:
        return FLEETS[self.fleet]["outlets"]

    @property
    def ticks(self) -> int:
        return max(1, round(self.duration_s / self.interval_s))

    @property
    def expected_frames(self) -> int:
        return self.driver_count * self.outlets * self.ticks


STANDARD_SCENARIOS = {
    "ipmi-unsigned": Scenario("IPMI message unsigned", "ipmi", False, 1.0, 60.0),
    "ipmi-signed": Scenario("IPMI message signed", "ipmi", True, 1.0, 60.0),
    "pdu-unsigned": Scenario("PDU message unsigned", "pdu", False, 1.0, 60.0),
    "pdu-signed": Scenario("PDU message signed", "pdu", True, 1.0, 60.0),
}


@dataclass(frozen=True)
class ScenarioResult:
    """What one run measured."""

    name: str
    fleet: str
    signing: bool
    interval_s: float
    duration_s: float
    frames_published: int
    frames_received: int
    drops: int  # end-to-end: published minus received
    publisher_queue_drops: int
    lost_measurements: int  # device-side losses (not bus drops)
    verified: int
    verify_failures: int
    jitter_mean_s: float
    jitter_p95_s: float
    jitter_samples: int
    max_burst: int
    burst_window_s: float
    driver_cpu_s: float
    consumer_cpu_s: float
    elapsed_s: float
    valid: bool

    def to_json(self) -> dict:
        return asdict(self)


def build_fleet(scenario: Scenario, base_seed: int = 0) -> list[DriverSpec]:
    """Deterministic driver specs for a scenario fleet."""
    fleet = FLEETS[scenario.fleet]
    profile = PROFILES[fleet["profile"]]
    width = len(str(scenario.driver_count - 1))
    specs = []
    for i in range(scenario.driver_count):
        topic = f"bench/{scenario.fleet}{i:0{width}d}"
        specs.append(DriverSpec(
            probe=ProbeId.parse(topic),
            profile=profile,
            interval_s=scenario.interval_s,
            seed=seed_for_topic(topic, base_seed),
            watts_min=50.0,
            watts_max=250.0,
            outlets=fleet["outlets"],
        ))
    return specs


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _driver_process(scenario: Scenario, endpoint_fields: dict, base_seed: int,
                    conn) -> None:
    """The fleet and its publisher: send the endpoint URL, then the run's stats."""
    publisher = Publisher(Endpoint(**endpoint_fields))
    conn.send(str(publisher.endpoint))
    manager = DriverManager(
        build_fleet(scenario, base_seed),
        publisher,
        secret=BENCH_SECRET if scenario.signing else None,
        watchdog_period_s=5.0,
        max_ticks=scenario.ticks,
        stagger=True,
    )
    # the counting side's connect succeeding is not enough: publishing waits
    # until this side has registered the connection, or the first frames are lost
    deadline = time.monotonic() + 60.0
    while publisher.subscriber_count < 1 and time.monotonic() < deadline:
        time.sleep(0.002)
    if publisher.subscriber_count < 1:
        publisher.close()
        conn.send({"error": "subscriber never registered"})
        return
    t0 = time.monotonic()
    cpu0 = _cpu_seconds()
    manager.start()
    finished = manager.wait_finished(timeout=scenario.duration_s * 3 + 60.0)
    manager.stop()
    flushed = publisher.drain(timeout=30.0)
    stats = {
        "published": manager.total_published,
        "lost": manager.total_lost,
        "queue_drops": publisher.drops,
        "cpu_s": _cpu_seconds() - cpu0,
        "finished": finished,
        "flushed": flushed,
    }
    publisher.close()
    conn.send({**stats, "elapsed_s": time.monotonic() - t0})


def _count_frames(sub, secret: bytes | None, driver_done, deadline: float) -> dict:
    """Count, decode and verify frames until the driver is done and the bus idle.

    ``driver_done()`` is polled only while no frame arrives; at the monotonic
    ``deadline`` the count stops whatever the driver does.
    """
    cpu0 = _cpu_seconds()
    arrivals: list[float] = []
    topics: list[str] = []
    verified = 0
    failures = 0
    last_activity = time.monotonic()
    while time.monotonic() < deadline:
        frame = sub.get(timeout=0.25)
        now = time.monotonic()
        if frame is not None:
            arrivals.append(now)
            topics.append(frame.topic)
            last_activity = now
            if secret is not None:
                try:
                    m = decode_measurement(frame.payload)
                except DecodeError:
                    failures += 1
                    continue
                if verify(m, secret):
                    verified += 1
                else:
                    failures += 1
        elif now - last_activity > IDLE_GRACE_S and driver_done():
            break
    return {
        "received": len(arrivals),
        "verified": verified,
        "verify_failures": failures,
        "cpu_s": _cpu_seconds() - cpu0,
        **_arrival_stats(arrivals, topics),
    }


def _arrival_stats(arrivals: list[float], topics: list[str]) -> dict:
    """Pooled per-probe inter-arrival deltas plus the burst report."""
    last_seen: dict[str, float] = {}
    deltas: list[float] = []
    for t, topic in zip(arrivals, topics):
        prev = last_seen.get(topic)
        if prev is not None:
            deltas.append(t - prev)
        last_seen[topic] = t
    if deltas:
        ordered = sorted(deltas)
        mean = sum(ordered) / len(ordered)
        p95 = ordered[int(0.95 * (len(ordered) - 1))]
    else:
        mean = p95 = 0.0
    max_burst = 0
    run = 1
    for i in range(1, len(arrivals)):
        if arrivals[i] - arrivals[i - 1] < BURST_WINDOW_S:
            run += 1
        else:
            max_burst = max(max_burst, run)
            run = 1
    max_burst = max(max_burst, run) if arrivals else 0
    return {
        "jitter_mean_s": mean,
        "jitter_p95_s": p95,
        "jitter_samples": len(deltas),
        "max_burst": max_burst,
    }


def run_scenario(scenario: Scenario, transport: str = "tcp",
                 base_seed: int = 20260811) -> ScenarioResult:
    """Run one scenario: the fleet in one child process, the count in this one.

    The driver holds the fleet back until it has registered this process's
    subscription, so a zero-drop run really means zero drops.
    """
    if transport not in ("tcp", "ipc"):
        raise ValueError(f"unknown transport {transport!r}")
    ctx = mp.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="wattbus-bench-") as sock_dir:
        if transport == "tcp":
            endpoint_fields = {"scheme": "tcp", "host": "127.0.0.1", "port": 0}
        else:
            endpoint_fields = {"scheme": "ipc", "path": os.path.join(sock_dir, "bus.sock")}
        reader, writer = ctx.Pipe(duplex=False)
        driver = ctx.Process(
            target=_driver_process,
            args=(scenario, endpoint_fields, base_seed, writer),
            name="bench-driver")
        driver.start()
        writer.close()  # the reader sees EOF once the driver is gone
        try:
            if not reader.poll(60.0):
                raise RuntimeError("driver process never reported its bus endpoint")
            t0 = time.monotonic()
            sub = Subscriber(Endpoint.parse(reader.recv()), "")
            try:
                counted = _count_frames(
                    sub, BENCH_SECRET if scenario.signing else None,
                    lambda: reader.poll() or not driver.is_alive(),
                    t0 + scenario.duration_s * 3 + 120.0)
            finally:
                sub.close()
            elapsed = time.monotonic() - t0
            driver.join(timeout=30.0)
            hung = driver.is_alive()
            try:
                driver_stats = reader.recv() if reader.poll() else {}
            except EOFError:  # the driver died without reporting
                driver_stats = {}
        finally:
            if driver.is_alive():
                driver.kill()
                log.error("driver process hung; killed")
            driver.join()
            reader.close()

    published = driver_stats.get("published", 0)
    return ScenarioResult(
        name=scenario.name,
        fleet=scenario.fleet,
        signing=scenario.signing,
        interval_s=scenario.interval_s,
        duration_s=scenario.duration_s,
        frames_published=published,
        frames_received=counted["received"],
        drops=max(0, published - counted["received"]),
        publisher_queue_drops=driver_stats.get("queue_drops", 0),
        lost_measurements=driver_stats.get("lost", 0),
        verified=counted["verified"],
        verify_failures=counted["verify_failures"],
        jitter_mean_s=counted["jitter_mean_s"],
        jitter_p95_s=counted["jitter_p95_s"],
        jitter_samples=counted["jitter_samples"],
        max_burst=counted["max_burst"],
        burst_window_s=BURST_WINDOW_S,
        driver_cpu_s=driver_stats.get("cpu_s", 0.0),
        consumer_cpu_s=counted["cpu_s"],
        elapsed_s=driver_stats.get("elapsed_s", elapsed),
        valid=not hung and driver_stats.get("finished", False),
    )


def run_sweep(intervals, fleet: str = "ipmi", duration_s: float = 60.0,
              signing: bool = False, drivers: int | None = None,
              transport: str = "tcp") -> list[ScenarioResult]:
    """One scenario per interval (the measurement-interval experiment)."""
    results = []
    for interval in intervals:
        scenario = Scenario(
            name=f"{fleet} sweep {interval:g}s",
            fleet=fleet,
            signing=signing,
            interval_s=float(interval),
            duration_s=duration_s,
            drivers=drivers,
        )
        log.info("sweep: interval %.3gs", interval)
        results.append(run_scenario(scenario, transport=transport))
    return results


def scenario_from_name(name: str) -> Scenario:
    if name in STANDARD_SCENARIOS:
        return STANDARD_SCENARIOS[name]
    raise ValueError(
        f"unknown scenario {name!r} (standard: {', '.join(sorted(STANDARD_SCENARIOS))})")


def load_scenario(path: str) -> Scenario:
    """Scenario from a JSON file with the Scenario field names."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: a scenario is a JSON object")
    allowed = {"name", "fleet", "signing", "interval_s", "duration_s", "drivers"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    try:
        return Scenario(**raw)
    except TypeError as exc:  # a missing field, or a value of the wrong type
        raise ValueError(f"{path}: {exc}") from None


def write_results(results: list[ScenarioResult], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"results": [r.to_json() for r in results]}, fh, indent=2)
        fh.write("\n")
