"""Benchmark harness: emulated device fleets through the full pipeline.

A scenario spins up a driver process (publisher plus the driver manager's
scheduler thread) and a separate counting consumer process, so the
measurement side never shares an interpreter with the load generator.  The
driver fleet runs a fixed number of ticks paced at the scenario interval,
which makes the expected publication count exact: fleet size times ticks.

The two standard fleets:

* ``ipmi``: 1,000 single-outlet cards
* ``pdu``:  100 strips of 10 outlets

Both place fleet_size*outlets/interval measurements per second on the bus.
Reported jitter is the distribution of per-probe inter-arrival times at
the consumer (pooled mean and p95); the burst report is the longest run of
frames arriving closer than ``burst_window_s`` apart, which is how "data
accumulates and arrives in chunks" shows up at small intervals.  CPU time
per process is recorded for reporting; pass/fail in acceptance is always
loss- and jitter-based because absolute CPU numbers are hardware-bound.
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
                    port_queue, start_event, result_queue) -> None:
    publisher = Publisher(Endpoint(**endpoint_fields))
    port_queue.put(str(publisher.endpoint))
    manager = DriverManager(
        build_fleet(scenario, base_seed),
        publisher,
        secret=BENCH_SECRET if scenario.signing else None,
        watchdog_period_s=5.0,
        max_ticks=scenario.ticks,
        stagger=True,
    )
    if not start_event.wait(timeout=60.0):
        publisher.close()
        result_queue.put(("driver", {"error": "consumer never connected"}))
        return
    # the consumer saw its connect succeed, but publishing must wait until
    # this side has registered the connection or the first frames are lost
    deadline = time.monotonic() + 30.0
    while publisher.subscriber_count < 1 and time.monotonic() < deadline:
        time.sleep(0.002)
    if publisher.subscriber_count < 1:
        publisher.close()
        result_queue.put(("driver", {"error": "subscriber never registered"}))
        return
    cpu0 = _cpu_seconds()
    manager.start()
    finished = manager.wait_finished(timeout=scenario.duration_s * 3 + 60.0)
    manager.stop()
    flushed = publisher.drain(timeout=30.0)
    cpu = _cpu_seconds() - cpu0
    stats = {
        "published": manager.total_published,
        "lost": manager.total_lost,
        "queue_drops": publisher.drops,
        "cpu_s": cpu,
        "finished": finished,
        "flushed": flushed,
    }
    publisher.close()
    result_queue.put(("driver", stats))


def _consumer_process(endpoint_url: str, secret: bytes | None,
                      connected_event, stop_event, result_queue) -> None:
    def on_event(event, detail):
        if event == "connected":
            connected_event.set()

    sub = Subscriber(Endpoint.parse(endpoint_url), "", on_event=on_event)
    cpu0 = _cpu_seconds()
    arrivals: list[float] = []
    topics: list[str] = []
    verified = 0
    failures = 0
    last_activity = time.monotonic()
    while True:
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
        elif stop_event.is_set() and now - last_activity > IDLE_GRACE_S:
            break
    cpu = _cpu_seconds() - cpu0
    sub.close()
    result_queue.put(("consumer", {
        "received": len(arrivals),
        "verified": verified,
        "verify_failures": failures,
        "cpu_s": cpu,
        **_arrival_stats(arrivals, topics),
    }))


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
    """Run one scenario end to end and gather both processes' numbers.

    The driver fleet is held back until the counting consumer reports its
    subscription is live, so a zero-drop run really means zero drops.
    """
    if transport == "tcp":
        endpoint_fields = {"scheme": "tcp", "host": "127.0.0.1", "port": 0}
    elif transport == "ipc":
        sock_dir = tempfile.mkdtemp(prefix="wattbus-bench-")
        endpoint_fields = {"scheme": "ipc", "path": os.path.join(sock_dir, "bus.sock")}
    else:
        raise ValueError(f"unknown transport {transport!r}")

    ctx = mp.get_context("spawn")
    port_queue = ctx.Queue()
    result_queue = ctx.Queue()
    start_event = ctx.Event()
    connected_event = ctx.Event()
    stop_event = ctx.Event()

    driver = ctx.Process(
        target=_driver_process,
        args=(scenario, endpoint_fields, base_seed, port_queue, start_event, result_queue),
        name="bench-driver")
    driver.start()
    try:
        endpoint_url = port_queue.get(timeout=60.0)
    except Exception:
        driver.kill()
        raise RuntimeError("driver process failed to bind the bus endpoint")

    secret = BENCH_SECRET if scenario.signing else None
    consumer = ctx.Process(
        target=_consumer_process,
        args=(endpoint_url, secret, connected_event, stop_event, result_queue),
        name="bench-consumer")
    consumer.start()

    valid = True
    if not connected_event.wait(timeout=60.0):
        valid = False
        log.error("consumer never connected; results will be invalid")
    t0 = time.monotonic()
    start_event.set()

    driver.join(timeout=scenario.duration_s * 3 + 120.0)
    if driver.is_alive():
        driver.kill()
        driver.join()
        valid = False
        log.error("driver process hung; killed")
    elapsed = time.monotonic() - t0
    stop_event.set()
    consumer.join(timeout=60.0)
    if consumer.is_alive() or consumer.exitcode != 0:
        if consumer.is_alive():
            consumer.kill()
            consumer.join()
        valid = False
        log.error("consumer process died mid-run; results flagged invalid")

    stats: dict[str, dict] = {}
    while len(stats) < 2:
        try:
            who, payload = result_queue.get(timeout=5.0)
        except Exception:
            break
        stats[who] = payload
    driver_stats = stats.get("driver", {})
    consumer_stats = stats.get("consumer", {})
    if "error" in driver_stats or not driver_stats or not consumer_stats:
        valid = False

    if transport == "ipc":
        try:
            os.unlink(endpoint_fields["path"])
        except OSError:
            pass
        try:
            os.rmdir(os.path.dirname(endpoint_fields["path"]))
        except OSError:
            pass

    published = driver_stats.get("published", 0)
    received = consumer_stats.get("received", 0)
    return ScenarioResult(
        name=scenario.name,
        fleet=scenario.fleet,
        signing=scenario.signing,
        interval_s=scenario.interval_s,
        duration_s=scenario.duration_s,
        frames_published=published,
        frames_received=received,
        drops=max(0, published - received),
        publisher_queue_drops=driver_stats.get("queue_drops", 0),
        lost_measurements=driver_stats.get("lost", 0),
        verified=consumer_stats.get("verified", 0),
        verify_failures=consumer_stats.get("verify_failures", 0),
        jitter_mean_s=consumer_stats.get("jitter_mean_s", 0.0),
        jitter_p95_s=consumer_stats.get("jitter_p95_s", 0.0),
        jitter_samples=consumer_stats.get("jitter_samples", 0),
        max_burst=consumer_stats.get("max_burst", 0),
        burst_window_s=BURST_WINDOW_S,
        driver_cpu_s=driver_stats.get("cpu_s", 0.0),
        consumer_cpu_s=consumer_stats.get("cpu_s", 0.0),
        elapsed_s=elapsed,
        valid=valid and driver_stats.get("finished", False),
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
