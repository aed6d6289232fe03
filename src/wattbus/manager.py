"""Driver scheduling and the supervising manager.

One scheduler thread paces the whole fleet (one driver spec per IPMI card,
one per PDU): when a spec comes due it reads the device, quantizes to the
device precision, optionally signs, and publishes one frame per outlet.
The fleet is staggered over ``PHASES`` fixed phases per interval, and every
driver of one phase is due at the same instant, so the thread wakes once per
phase rather than once per device.  A watchdog sweep on the same thread
restarts dead drivers; a driver that keeps dying without ever publishing
again is quarantined so a broken probe cannot hog the manager forever.

Measurements lost to device timeouts are counted, never silently ignored:
wattmeters report instantaneous W, not cumulative kWh, so a missed sample
cannot be reconstructed from later readings.
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import math
import os
import threading
import time
from dataclasses import asdict, dataclass

from wattbus.bus import Frame, Publisher
from wattbus.devices import DeviceTimeout, DriverSpec, make_device, quantize
from wattbus.model import Measurement, ProbeId, encode_measurement
from wattbus.signing import sign

log = logging.getLogger(__name__)

DEFAULT_WATCHDOG_PERIOD_S = 10.0
RESTART_LIMIT = 5  # failed restarts in a row before a driver is quarantined
PHASES = 20  # stagger points per interval: one scheduler wake each


class DriverError(Exception):
    """A device failed to deliver this tick's measurement(s)."""

    def __init__(self, topic: str, message: str):
        super().__init__(f"{topic}: {message}")
        self.topic = topic


def poll_once(spec: DriverSpec, device, now: float | None = None, *,
              probes: tuple[ProbeId, ...] | None = None) -> list[Measurement]:
    """Take one tick's worth of measurements from a device.

    Pull devices answer with one reading per outlet stamped at poll time;
    push devices hand over whatever accumulated since the last drain.
    ``probes`` defaults to ``spec.outlet_probes()``; a caller that polls
    the same spec every tick passes it, built once.  A reading for an
    outlet the spec does not have raises ``DriverError``: it cannot be
    attributed to any probe.
    """
    if now is None:
        now = time.time()
    if probes is None:
        probes = spec.outlet_probes()
    try:
        readings = device.read(now)
    except DeviceTimeout as exc:
        raise DriverError(spec.topic, str(exc)) from exc
    outlets = spec.outlet_count
    measurements = []
    for r in readings:
        if not 0 < r.outlet <= outlets:
            raise DriverError(spec.topic, f"reading for outlet {r.outlet} of {outlets}")
        measurements.append(Measurement(
            probe=probes[r.outlet - 1],
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
        self.probes = spec.outlet_probes()
        self.device = None  # made when the slot is (re)scheduled
        self.origin = 0.0  # t0 + phase: tick k is due at origin + k * interval
        self.k = 0  # grid index of the next tick; ``ticks`` counts ticks run
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

    The thread waits on a heap of ``(due, seq, slot)`` entries.  ``start``
    makes every device, then takes ``t0``; slot i of n is given the phase
    ``(i * PHASES // n) / PHASES`` of its interval, and its ticks are due
    at exactly ``t0 + phase + k * interval_s``.  ``stagger=False`` puts
    every slot in phase 0.  Slots of one phase and interval share
    identical due times, so one wake runs the whole phase: the thread
    sleeps until the head is due, with no slack, then runs every entry
    that is due.  No tick runs early, a tick is late only by the run time
    of the ticks ahead of it in its phase (plus the OS wake-up), and
    lateness never accumulates.  Measurements are stamped at poll time,
    so a late tick carries its true timestamp into the energy integral.
    The entries due at one wake run inside one ``publisher.batch()``, so
    their frames leave in one send per subscriber.

    Devices are read inline, so ``read`` must not block (no emulator
    does).  A slot dies when its device factory raises, when a tick raises
    anything but a counted ``DriverError``, or when it comes due after
    ``inject_failure``; the watchdog restarts it with a fresh device, due
    at the first point of its own phase grid at or after the device was
    made.  ``max_ticks`` bounds each driver to a fixed number of poll
    ticks (the benchmark harness uses this for deterministic publication
    counts); daemon mode leaves it None.

    The sleep is a timed ``acquire`` of a lock held from construction until
    ``stop()`` releases it, which ends the sleep at once; a wake costs less
    CPU this way than in ``Event.wait``.  ``stop()`` may be called more than
    once, and before ``start()``.  Each slot builds its outlet probe ids
    once and hands them to ``poll_once``.
    """

    def __init__(self, probes: list[DriverSpec], publisher,
                 secret: bytes | None = None,
                 watchdog_period_s: float = DEFAULT_WATCHDOG_PERIOD_S,
                 max_ticks: int | None = None,
                 stagger: bool = True,
                 status_path: str | None = None,
                 device_factory=make_device):
        self._slots = {spec.topic: _DriverSlot(spec) for spec in probes}
        self._publisher = publisher
        self._secret = secret
        self._device_factory = device_factory
        self._watchdog_period_s = watchdog_period_s
        self._max_ticks = max_ticks
        self._stagger = stagger
        self._status_path = status_path
        self._stop_lock = threading.Lock()
        self._stop_lock.acquire()
        self._stopping = False
        self._heap: list[tuple[float, int, _DriverSlot | None]] = []
        self._seq = itertools.count()  # ties never compare slots
        self._scheduler: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._scheduler is not None:
            raise RuntimeError("manager already started")
        slots = list(self._slots.values())
        made = [self._make_device(slot) for slot in slots]
        t0 = time.monotonic()  # after every device is made: no tick before its device
        n = len(slots)
        for i, slot in enumerate(slots):
            phase = (i * PHASES // n) / PHASES if self._stagger else 0.0
            slot.origin = t0 + phase * slot.spec.interval_s
            if made[i]:
                self._schedule(slot, t0)
        self._scheduler = threading.Thread(
            target=self._run, args=(t0,), name="driver-scheduler", daemon=True)
        self._scheduler.start()
        log.info("scheduling %d driver(s)", n)

    def stop(self, timeout: float = 10.0) -> None:
        self._stopping = True
        try:
            self._stop_lock.release()
        except RuntimeError:
            pass  # an earlier stop() released it
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

    def _make_device(self, slot: _DriverSlot) -> bool:
        """Give a slot a fresh device; False, the slot left dead, if the factory raises."""
        try:
            slot.device = self._device_factory(slot.spec, time.time())
        except Exception:
            log.exception("driver %s: device not made", slot.spec.topic)
            return False
        return True

    def _schedule(self, slot: _DriverSlot, not_before: float) -> None:
        """(Re)start a slot: queue its first tick at its first phase point >= ``not_before``."""
        interval = slot.spec.interval_s
        slot.k = max(0, math.ceil((not_before - slot.origin) / interval))
        while slot.origin + slot.k * interval < not_before:  # rounding in the division
            slot.k += 1
        slot.kill_requested = False
        slot.alive = True
        self._push(slot.origin + slot.k * interval, slot)

    def _run(self, t0: float) -> None:
        sweeps = 1
        self._push(t0 + self._watchdog_period_s, None)  # None: the watchdog entry
        while True:
            delay = self._heap[0][0] - time.monotonic()
            if delay > 0 and self._stop_lock.acquire(True, delay):
                return
            now = time.monotonic()
            with self._publisher.batch():
                while self._heap[0][0] <= now:
                    if self._stopping:
                        return
                    _, _, slot = heapq.heappop(self._heap)
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
            if self._max_ticks is None or slot.ticks < self._max_ticks:
                self._tick(slot, slot.device)
        except Exception:
            log.exception("driver %s: crashed", spec.topic)
            return False
        if self._max_ticks is not None and slot.ticks >= self._max_ticks:
            slot.finished = True
            return False
        slot.k += 1
        self._push(slot.origin + slot.k * spec.interval_s, slot)
        return True

    def _tick(self, slot: _DriverSlot, device) -> None:
        spec = slot.spec
        slot.ticks += 1
        try:
            measurements = poll_once(spec, device, probes=slot.probes)
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
            if slot.consecutive_restarts >= RESTART_LIMIT:
                slot.quarantined = True
                log.error("driver %s quarantined after %d failed restarts",
                          slot.spec.topic, slot.consecutive_restarts)
                continue
            slot.restart_count += 1
            slot.consecutive_restarts += 1
            log.warning("driver %s dead, restarting (restart %d)",
                        slot.spec.topic, slot.restart_count)
            if self._make_device(slot):
                self._schedule(slot, time.monotonic())

    def _write_status_file(self) -> None:
        if self._status_path is None:
            return
        rows = [json.dumps(asdict(status), sort_keys=True) for status in self.statuses()]
        tmp = f"{self._status_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        os.replace(tmp, self._status_path)


def start_manager(cfg, watchdog_period_s: float = DEFAULT_WATCHDOG_PERIOD_S,
                  status_path: str | None = None) -> tuple:
    """Start the driver fleet (CLI entry); return what to close, in order."""
    publisher = Publisher(cfg.bind)
    manager = DriverManager(
        cfg.probes, publisher, secret=cfg.signing_secret,
        watchdog_period_s=watchdog_period_s, status_path=status_path)
    manager.start()
    log.info("publishing on %s", publisher.endpoint)
    return manager.stop, publisher.close
