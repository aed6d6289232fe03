"""Wattmeter device profiles and protocol-shaped emulators.

Real IPMI/SNMP/serial transports are replaced by in-process emulators that
behave like the devices they stand in for: pull-mode devices answer a query
with one reading per outlet, push-mode devices buffer readings at their own
refresh cadence until drained.  The driver layer only sees the ``read(now)``
interface, leaving room for real transports later.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from wattbus.model import ProbeId

PULL = "pull"
PUSH = "push"


class DeviceTimeout(Exception):
    """The (emulated) device failed to answer within its deadline."""


@dataclass(frozen=True)
class DeviceProfile:
    """Operating characteristics of one wattmeter model."""

    model: str
    interface: str
    refresh_period_s: float
    precision_w: float
    mode: str = PULL
    outlets: int = 1

    def __post_init__(self):
        if self.refresh_period_s <= 0:
            raise ValueError("refresh_period_s must be positive")
        if self.precision_w <= 0:
            raise ValueError("precision_w must be positive")
        if self.mode not in (PULL, PUSH):
            raise ValueError(f"mode must be {PULL!r} or {PUSH!r}")
        if self.outlets < 1:
            raise ValueError("outlets must be a positive integer")


# Deployed wattmeter models.  Push/pull assignment follows the transport:
# query/response protocols (IPMI, SNMP) are pull, streaming serial links
# are push.  The emulated-* entries are synthetic profiles for benchmark
# fleets and are not constrained by any hardware refresh rate.
PROFILES: dict[str, DeviceProfile] = {
    "dell_idrac6": DeviceProfile("dell_idrac6", "IPMI / Ethernet", 5.0, 7.0, PULL),
    "eaton": DeviceProfile("eaton", "Serial, SNMP via Ethernet", 5.0, 1.0, PULL, outlets=8),
    "omegawatt": DeviceProfile("omegawatt", "IrDA Serial", 1.0, 0.125, PUSH),
    "schleifenbauer": DeviceProfile("schleifenbauer", "SNMP via Ethernet", 3.0, 0.1, PULL, outlets=8),
    "wattsup": DeviceProfile("wattsup", "Proprietary via USB", 1.0, 0.1, PUSH),
    "zez_lmg450": DeviceProfile("zez_lmg450", "Serial", 0.05, 0.01, PUSH),
    "emulated-ipmi": DeviceProfile("emulated-ipmi", "emulated", 0.05, 0.1, PULL),
    "emulated-pdu": DeviceProfile("emulated-pdu", "emulated", 0.05, 0.1, PULL, outlets=10),
}
PROFILES["ipmi"] = PROFILES["dell_idrac6"]


_FAST_Q_LIMIT = 2.0 ** 52  # below it, k + 0.5 and k + 1 are floats for every k


def quantize(watts: float, precision_w: float) -> float:
    """Snap a reading to the nearest multiple of the device precision.

    Ties round away from zero (a 7.5 W reading on a 1 W meter reports 8 W).
    The result is that of the exact rational quotient, so binary
    representation error in the precision cannot manufacture or hide a
    tie.  Float rounding is monotone and every tie ``k + 0.5`` and every
    ``k + 1`` below ``_FAST_Q_LIMIT`` is a float, so ``q + 0.5`` computed
    in floats lies on the same side of each integer as the exact value, or
    lands on the integer itself; only then is the tie settled with
    ``Fraction``.
    """
    if precision_w <= 0:
        raise ValueError("precision_w must be positive")
    q = abs(watts) / precision_w
    if q < _FAST_Q_LIMIT:  # also False for inf and nan
        h = q + 0.5
        steps = math.floor(h)
        if h != steps:
            return math.copysign(steps * precision_w, watts)
    steps = math.floor(abs(Fraction(watts)) / Fraction(precision_w) + Fraction(1, 2))
    return math.copysign(steps * precision_w, watts)


def _lattice_noise(seed: int, k: int) -> float:
    """Uniform [0, 1) value at integer lattice point k, stable across runs."""
    digest = hashlib.blake2b(
        struct.pack("<qq", seed, k), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64


def emulate_power(seed: int, t: float, w_min: float, w_max: float) -> float:
    """Deterministic bounded power trace for emulated devices.

    A pure function of (seed, t): values interpolate smoothly between
    pseudo-random lattice points one second apart, always stay inside
    [w_min, w_max], and reproduce exactly for the same seed and times.
    """
    if w_min > w_max:
        raise ValueError("w_min must not exceed w_max")
    k = math.floor(t)
    frac = t - k
    u0 = _lattice_noise(seed, k)
    u1 = _lattice_noise(seed, k + 1)
    smooth = frac * frac * (3.0 - 2.0 * frac)
    u = u0 + (u1 - u0) * smooth
    return w_min + (w_max - w_min) * u


def seed_for_topic(topic: str, base_seed: int = 0) -> int:
    """Stable per-probe seed so fleet traces are reproducible."""
    digest = hashlib.blake2b(topic.encode("utf-8"), digest_size=8).digest()
    return (base_seed + int.from_bytes(digest, "little")) % 2 ** 63


@dataclass(frozen=True)
class DriverSpec:
    """Everything a driver needs to run one probe.

    ``interval_s`` is how often the driver queries (or drains) the device
    and must not be shorter than the device's own refresh period.  Multi
    outlet devices are published one topic per outlet, ``site/name-outN``.
    """

    probe: ProbeId
    profile: DeviceProfile
    interval_s: float
    seed: int = 0
    watts_min: float = 50.0
    watts_max: float = 250.0
    trace: tuple[float, ...] | None = None
    outlets: int | None = None  # overrides the profile default

    def __post_init__(self):
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.interval_s < self.profile.refresh_period_s:
            raise ValueError(
                f"interval {self.interval_s}s is shorter than the "
                f"{self.profile.model} refresh period {self.profile.refresh_period_s}s")
        if self.watts_min > self.watts_max:
            raise ValueError("watts_min must not exceed watts_max")
        if self.outlets is not None and self.outlets < 1:
            raise ValueError("outlets must be a positive integer")
        # outlet i's power walk is keyed by seed + i, packed as a signed 64-bit int
        if not -2 ** 63 <= self.seed + 1 <= 2 ** 63 - self.outlet_count:
            raise ValueError("seed plus outlet number must fit in a signed 64-bit integer")
        if self.trace is not None and not self.trace:
            raise ValueError("trace must contain at least one value")

    @property
    def outlet_count(self) -> int:
        return self.outlets if self.outlets is not None else self.profile.outlets

    @property
    def topic(self) -> str:
        return self.probe.topic

    def outlet_probe(self, outlet: int) -> ProbeId:
        """Probe id published for one outlet (1-based)."""
        if self.outlet_count == 1:
            return self.probe
        return ProbeId(self.probe.site, f"{self.probe.name}-out{outlet}")

    def outlet_probes(self) -> tuple[ProbeId, ...]:
        """Probe ids of every outlet, in outlet order (outlet 1 first)."""
        return tuple(self.outlet_probe(i) for i in range(1, self.outlet_count + 1))

    def all_topics(self) -> list[str]:
        return [probe.topic for probe in self.outlet_probes()]


class Reading(NamedTuple):
    """One raw sample as it comes off a device."""

    outlet: int
    timestamp: float
    watts: float


def _raw_watts(spec: DriverSpec, outlet: int, t: float, tick: int) -> float:
    if spec.trace is not None:
        return spec.trace[tick % len(spec.trace)]
    return emulate_power(spec.seed + outlet, t, spec.watts_min, spec.watts_max)


class PullDevice:
    """Query/response wattmeter: one reading per outlet per query."""

    def __init__(self, spec: DriverSpec):
        self.spec = spec
        self._ticks = 0

    def read(self, now: float) -> list[Reading]:
        tick = self._ticks
        self._ticks += 1
        return [
            Reading(outlet, now, _raw_watts(self.spec, outlet, now, tick))
            for outlet in range(1, self.spec.outlet_count + 1)
        ]


class PushDevice:
    """Streaming wattmeter: emits at its own cadence, the driver drains.

    The emulator generates one batch of readings per refresh period since
    the previous drain, with strictly increasing timestamps; the k-th batch
    is stamped exactly ``start_time + k * refresh_period_s``.
    """

    def __init__(self, spec: DriverSpec, start_time: float):
        self.spec = spec
        self._start = start_time
        self._ticks = 0

    def read(self, now: float) -> list[Reading]:
        readings: list[Reading] = []
        step = self.spec.profile.refresh_period_s
        # batch k is stamped start + k*step: a running sum would drift
        while (t := self._start + (self._ticks + 1) * step) <= now:
            tick = self._ticks
            self._ticks += 1
            for outlet in range(1, self.spec.outlet_count + 1):
                readings.append(Reading(outlet, t, _raw_watts(self.spec, outlet, t, tick)))
        return readings


class FlakyDevice:
    """Wraps a device and times out on a fixed schedule (testing aid)."""

    def __init__(self, inner, fail_every: int):
        if fail_every < 1:
            raise ValueError("fail_every must be >= 1")
        self._inner = inner
        self._fail_every = fail_every
        self._calls = 0

    def read(self, now: float) -> list[Reading]:
        self._calls += 1
        if self._calls % self._fail_every == 0:
            raise DeviceTimeout(f"emulated timeout on call {self._calls}")
        return self._inner.read(now)


def make_device(spec: DriverSpec, start_time: float):
    if spec.profile.mode == PUSH:
        return PushDevice(spec, start_time)
    return PullDevice(spec)


def load_trace(path: str) -> tuple[float, ...]:
    """Read a watts-per-line trace file ('#' comments, blanks ignored)."""
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                w = float(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
            if not 0 <= w < math.inf:
                raise ValueError(f"{path}:{lineno}: watts must be finite and not negative")
            values.append(w)
    if not values:
        raise ValueError(f"{path}: trace file has no values")
    return tuple(values)
