"""Driver scheduling and the supervising manager.

One scheduler thread paces the whole fleet (one driver spec per IPMI card,
one per PDU): when a spec comes due it reads the device, quantizes to the
device precision, optionally signs, and publishes one frame per outlet.  A
watchdog sweep on the same thread restarts dead drivers; a driver that
keeps dying without ever publishing again is quarantined so a broken probe
cannot hog the manager forever.

Measurements lost to device timeouts are counted, never silently ignored:
wattmeters report instantaneous W, not cumulative kWh, so a missed sample
cannot be reconstructed from later readings.
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import os
import threading
import time
from dataclasses import dataclass

from wattbus.bus import Frame
from wattbus.devices import DeviceTimeout, DriverSpec, make_device, quantize
from wattbus.model import Measurement, encode_measurement
from wattbus.signing import sign

log = logging.getLogger(__name__)

DEFAULT_WATCHDOG_PERIOD_S = 10.0
DEFAULT_RESTART_LIMIT = 5


class DriverError(Exception):
    """A device failed to deliver this tick's measurement(s)."""

    def __init__(self, topic: str, message: str):
        super().__init__(f"{topic}: {message}")
        self.topic = topic


def poll_once(spec: DriverSpec, device, now: float | None = None) -> list[Measurement]:
    """Take one tick's worth of measurements from a device.

    Pull devices answer with one reading per outlet stamped at poll time;
    push devices hand over whatever accumulated since the last drain.
    """
    if now is None:
        now = time.time()
    try:
        readings = device.read(now)
    except DeviceTimeout as exc:
        raise DriverError(spec.topic, str(exc)) from exc
    measurements = []
    for r in readings:
        measurements.append(Measurement(
            probe=spec.outlet_probe(r.outlet),
            timestamp=r.timestamp,
            watts=quantize(r.watts, spec.profile.precision_w),
        ))
    return measurements


@dataclass(frozen=True)
class DriverStatus:
    """Point-in-time view of one driver."""

    topic: str
    alive: bool
    quarantined: bool
    finished: bool
    last_emit_timestamp: float | None
    restart_count: int
    published: int
    lost: int
    ticks: int


class _DriverSlot:
    """Mutable per-driver state that survives restarts."""

    def __init__(self, spec: DriverSpec):
        self.spec = spec
        self.device = None  # made when the slot first comes due after a (re)start
        self.anchor = 0.0  # monotonic time the device was made
        self.tick_here = 0  # ticks since the (re)start; ``ticks`` spans restarts
        self.alive = False  # scheduled on the heap, neither dead nor finished
        self.kill_requested = False
        self.restart_count = 0
        self.consecutive_restarts = 0
        self.quarantined = False
        self.finished = False
        self.last_emit_timestamp: float | None = None
        self.published = 0
        self.lost = 0
        self.ticks = 0

    def status(self) -> DriverStatus:
        return DriverStatus(
            topic=self.spec.topic,
            alive=self.alive,
            quarantined=self.quarantined,
            finished=self.finished,
            last_emit_timestamp=self.last_emit_timestamp,
            restart_count=self.restart_count,
            published=self.published,
            lost=self.lost,
            ticks=self.ticks,
        )


class DriverManager:
    """Paces and supervises every driver spec from one scheduler thread.

    The thread waits on a heap of ``(due, seq, slot)`` entries; the k-th
    tick after a slot's device was made at ``anchor`` is due at
    ``anchor + k * interval_s``.  Devices are read inline, so ``read`` must
    not block (no emulator does).  A slot dies when its device factory
    raises, when a tick raises anything but a counted ``DriverError``, or
    when it comes due after ``inject_failure``; the watchdog restarts it
    with a fresh device.  ``max_ticks`` bounds each driver to a fixed number
    of poll ticks (the benchmark harness uses this for deterministic
    publication counts); daemon mode leaves it None.  ``stagger`` spreads
    driver start times across one interval so a large fleet does not
    publish in lockstep.
    """

    def __init__(self, probes: list[DriverSpec], publisher,
                 secret: bytes | None = None,
                 watchdog_period_s: float = DEFAULT_WATCHDOG_PERIOD_S,
                 restart_limit: int = DEFAULT_RESTART_LIMIT,
                 max_ticks: int | None = None,
                 stagger: bool = True,
                 status_path: str | None = None,
                 device_factory=make_device):
        self._slots = {spec.topic: _DriverSlot(spec) for spec in probes}
        self._publisher = publisher
        self._secret = secret
        self._device_factory = device_factory
        self._watchdog_period_s = watchdog_period_s
        self._restart_limit = restart_limit
        self._max_ticks = max_ticks
        self._stagger = stagger
        self._status_path = status_path
        self._stop = threading.Event()
        self._heap: list[tuple[float, int, _DriverSlot | None]] = []
        self._seq = itertools.count()  # ties never compare slots
        self._scheduler: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._scheduler is not None:
            raise RuntimeError("manager already started")
        now = time.monotonic()
        slots = list(self._slots.values())
        n = len(slots)
        for i, slot in enumerate(slots):
            offset = (i / n) * slot.spec.interval_s if self._stagger else 0.0
            self._schedule(slot, now + offset)
        self._scheduler = threading.Thread(
            target=self._run, args=(now,), name="driver-scheduler", daemon=True)
        self._scheduler.start()
        log.info("scheduling %d driver(s)", n)

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._scheduler is not None:
            self._scheduler.join(timeout)
        for slot in self._slots.values():
            slot.alive = False
        self._write_status_file()

    def wait_finished(self, timeout: float | None = None) -> bool:
        """Block until every driver completed its max_ticks (bench mode)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if all(s.finished or s.quarantined for s in self._slots.values()):
                return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.05)

    # -- observation ------------------------------------------------------

    def statuses(self) -> list[DriverStatus]:
        return [slot.status() for slot in self._slots.values()]

    def status_for(self, topic: str) -> DriverStatus:
        return self._slots[topic].status()

    @property
    def total_published(self) -> int:
        return sum(s.published for s in self._slots.values())

    @property
    def total_lost(self) -> int:
        return sum(s.lost for s in self._slots.values())

    def inject_failure(self, topic: str) -> None:
        """Make one driver die when it next comes due (supervision testing)."""
        self._slots[topic].kill_requested = True

    # -- scheduler --------------------------------------------------------

    def _push(self, due: float, slot: _DriverSlot | None) -> None:
        heapq.heappush(self._heap, (due, next(self._seq), slot))

    def _schedule(self, slot: _DriverSlot, due: float) -> None:
        """(Re)start a slot: a fresh device is made when it comes due."""
        slot.device = None
        slot.tick_here = 0
        slot.kill_requested = False
        slot.alive = True
        self._push(due, slot)

    def _run(self, t0: float) -> None:
        sweeps = 1
        self._push(t0 + self._watchdog_period_s, None)  # None: the watchdog entry
        while True:
            due, _, slot = self._heap[0]
            delay = due - time.monotonic()
            if delay > 0:
                if self._stop.wait(delay):
                    return
                continue
            if self._stop.is_set():
                return
            heapq.heappop(self._heap)
            if slot is not None:
                slot.alive = self._run_slot(slot)
                continue
            self._sweep()
            try:
                self._write_status_file()
            except OSError:
                log.exception("status file %s not written", self._status_path)
            sweeps += 1
            self._push(t0 + sweeps * self._watchdog_period_s, None)

    def _run_slot(self, slot: _DriverSlot) -> bool:
        """Run one due slot; False once it has died or finished."""
        spec = slot.spec
        if slot.kill_requested:
            log.warning("driver %s: killed", spec.topic)
            return False
        try:
            if slot.device is None:
                slot.device = self._device_factory(spec, time.time())
                slot.anchor = time.monotonic()
            if self._max_ticks is None or slot.ticks < self._max_ticks:
                self._tick(slot, slot.device)
        except Exception:
            log.exception("driver %s: crashed", spec.topic)
            return False
        if self._max_ticks is not None and slot.ticks >= self._max_ticks:
            slot.finished = True
            return False
        slot.tick_here += 1
        self._push(slot.anchor + slot.tick_here * spec.interval_s, slot)
        return True

    def _tick(self, slot: _DriverSlot, device) -> None:
        spec = slot.spec
        slot.ticks += 1
        try:
            measurements = poll_once(spec, device)
        except DriverError as exc:
            slot.lost += spec.outlet_count
            log.warning("measurement lost: %s", exc)
            return
        for m in measurements:
            if self._secret is not None:
                m = sign(m, self._secret)
            self._publisher.publish(Frame(m.probe.topic, encode_measurement(m)))
            slot.published += 1
            slot.last_emit_timestamp = m.timestamp
        slot.consecutive_restarts = 0

    # -- watchdog ---------------------------------------------------------

    def _sweep(self) -> None:
        for slot in self._slots.values():
            if slot.alive or slot.finished or slot.quarantined:
                continue
            if slot.consecutive_restarts >= self._restart_limit:
                slot.quarantined = True
                log.error("driver %s quarantined after %d failed restarts",
                          slot.spec.topic, slot.consecutive_restarts)
                continue
            slot.restart_count += 1
            slot.consecutive_restarts += 1
            log.warning("driver %s dead, restarting (restart %d)",
                        slot.spec.topic, slot.restart_count)
            self._schedule(slot, time.monotonic())

    def _write_status_file(self) -> None:
        if self._status_path is None:
            return
        rows = []
        for status in self.statuses():
            rows.append(json.dumps({
                "topic": status.topic,
                "alive": status.alive,
                "quarantined": status.quarantined,
                "last_emit_timestamp": status.last_emit_timestamp,
                "restart_count": status.restart_count,
                "published": status.published,
                "lost": status.lost,
                "ticks": status.ticks,
            }, sort_keys=True))
        tmp = f"{self._status_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        os.replace(tmp, self._status_path)


def run_manager(cfg, watchdog_period_s: float = DEFAULT_WATCHDOG_PERIOD_S,
                status_path: str | None = None) -> None:
    """Run the driver fleet until interrupted (CLI entry)."""
    from wattbus.bus import Publisher  # local import keeps module deps one-way

    publisher = Publisher(cfg.bind)
    manager = DriverManager(
        cfg.probes, publisher, secret=cfg.signing_secret,
        watchdog_period_s=watchdog_period_s, status_path=status_path)
    manager.start()
    log.info("publishing on %s", publisher.endpoint)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        manager.stop()
        publisher.close()
