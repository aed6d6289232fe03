"""Device emulators, quantization, and driver manager supervision."""

import collections
import contextlib
import dataclasses
import hashlib
import hmac
import json
import math
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import wattbus.manager
from wattbus.bus import Publisher, Subscriber
from wattbus.devices import (
    PROFILES,
    DeviceTimeout,
    DriverSpec,
    FlakyDevice,
    PullDevice,
    PushDevice,
    emulate_power,
    load_trace,
    make_device,
    quantize,
    seed_for_topic,
)
from wattbus.manager import PHASES, DriverError, DriverManager, poll_once
from wattbus.model import Measurement, ProbeId, decode_measurement, encode_measurement
from wattbus import signing
from wattbus.signing import sign, verify

from conftest import Inbox
from test_bus import loopback, wait_until


def nearest_multiple_oracle(x: float, p: float) -> float:
    """Brute-force nearest multiple of p with exact distances.

    Searches candidate multiples around x/p, comparing |x - k*p| in exact
    rational arithmetic so float rounding cannot bias the choice; exact
    ties go away from zero.
    """
    qx, qp = Fraction(x), Fraction(p)
    k0 = math.floor(qx / qp)
    best_key, best_k = None, None
    for k in range(k0 - 2, k0 + 3):
        key = (abs(qx - k * qp), -abs(k))
        if best_key is None or key < best_key:
            best_key, best_k = key, k
    return best_k * p


PRECISIONS = [0.01, 0.1, 0.125, 1.0, 7.0, 3.3]


@st.composite
def near_ties(draw):
    """``(x, p)`` with x at ``(k + 0.5) * p`` or one float step either side."""
    p = draw(st.sampled_from(PRECISIONS))
    bound = int(1e6 / p)
    x = (draw(st.integers(min_value=-bound, max_value=bound)) + 0.5) * p
    side = draw(st.sampled_from([-math.inf, None, math.inf]))
    return (x if side is None else math.nextafter(x, side)), p


class TestQuantize:
    def test_integer_precision(self):
        assert quantize(7.3, 1) == 7

    def test_zero(self):
        assert quantize(0, 0.125) == 0

    def test_omegawatt_precision_case(self):
        expected = round(100.07 / 0.125) * 0.125
        value = quantize(100.07, 0.125)
        assert value == expected
        assert value == nearest_multiple_oracle(100.07, 0.125)

    def test_tie_rounds_away_from_zero(self):
        assert quantize(7.5, 1) == 8
        assert quantize(-7.5, 1) == -8
        assert quantize(0.25, 0.5) == 0.5

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            quantize(1.0, 0)

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(
        st.tuples(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            st.sampled_from(PRECISIONS),
        ),
        near_ties(),
    ))
    @example((math.nextafter(0.15, 0.0), 0.1))
    @example((math.nextafter(0.15, 1.0), 0.1))
    def test_matches_brute_force_oracle(self, case):
        x, p = case
        assert quantize(x, p) == nearest_multiple_oracle(x, p)


class TestEmulatePower:
    def test_degenerate_bounds_constant(self):
        for t in (0.0, 0.5, 1.0, 99.9, 12345.678):
            assert emulate_power(7, t, 100, 100) == 100

    def test_same_seed_same_trace(self):
        times = [i * 0.37 for i in range(5000)]
        a = [emulate_power(42, t, 50, 250) for t in times]
        b = [emulate_power(42, t, 50, 250) for t in times]
        assert a == b

    def test_different_seeds_differ(self):
        times = [i * 1.0 for i in range(100)]
        a = [emulate_power(1, t, 50, 250) for t in times]
        b = [emulate_power(2, t, 50, 250) for t in times]
        assert a != b

    def test_million_steps_within_bounds(self):
        w_min, w_max = 80.0, 120.0
        for i in range(1_000_000):
            w = emulate_power(3, i * 0.13, w_min, w_max)
            assert w_min <= w <= w_max

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            emulate_power(1, 0.0, 10, 5)

    def test_seed_for_topic_is_stable(self):
        assert seed_for_topic("a/b") == seed_for_topic("a/b")
        assert seed_for_topic("a/b") != seed_for_topic("a/c")
        assert seed_for_topic("a/b", 1) != seed_for_topic("a/b", 2)


class TestProfiles:
    def test_catalog_rows(self):
        # deployed fleet characteristics: (refresh seconds, precision watts)
        expected = {
            "dell_idrac6": (5.0, 7.0),
            "eaton": (5.0, 1.0),
            "omegawatt": (1.0, 0.125),
            "schleifenbauer": (3.0, 0.1),
            "wattsup": (1.0, 0.1),
            "zez_lmg450": (0.05, 0.01),
        }
        for model, (refresh, precision) in expected.items():
            profile = PROFILES[model]
            assert profile.refresh_period_s == refresh
            assert profile.precision_w == precision

    def test_ipmi_alias(self):
        assert PROFILES["ipmi"] is PROFILES["dell_idrac6"]

    def test_interval_cannot_undershoot_refresh(self):
        with pytest.raises(ValueError):
            DriverSpec(ProbeId.parse("a/b"), PROFILES["dell_idrac6"], interval_s=1.0)

    @pytest.mark.parametrize("seed, outlets",
                             [(2 ** 63 - 1, 1), (2 ** 63 - 10, 10), (-2 ** 63 - 2, 1)])
    def test_every_outlet_seed_must_fit_64_bits(self, seed, outlets):
        # seed + outlet keys the power walk, packed as a signed 64-bit integer
        with pytest.raises(ValueError, match="seed"):
            DriverSpec(ProbeId.parse("a/b"), PROFILES["emulated-pdu"], interval_s=1.0,
                       seed=seed, outlets=outlets)
        DriverSpec(ProbeId.parse("a/b"), PROFILES["emulated-pdu"], interval_s=1.0,
                   seed=seed - 1 if seed > 0 else seed + 1, outlets=outlets)


def pdu_spec(outlets=10, interval=1.0) -> DriverSpec:
    return DriverSpec(ProbeId.parse("site/pdu3"), PROFILES["emulated-pdu"],
                      interval_s=interval, seed=99, outlets=outlets)


class TestDevices:
    def test_pull_device_one_reading_per_outlet(self):
        device = PullDevice(pdu_spec())
        readings = device.read(now=1000.0)
        assert len(readings) == 10
        assert [r.outlet for r in readings] == list(range(1, 11))
        assert all(r.timestamp == 1000.0 for r in readings)

    def test_push_device_drains_pending(self):
        spec = DriverSpec(ProbeId.parse("a/b"), PROFILES["omegawatt"],
                          interval_s=5.0, seed=1)
        device = PushDevice(spec, start_time=100.0)
        readings = device.read(now=105.0)  # 1s refresh polled after 5s
        assert len(readings) == 5
        stamps = [r.timestamp for r in readings]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 5  # strictly increasing
        assert device.read(now=105.0) == []  # drained

    def test_push_timestamps_exact_over_one_hour(self):
        spec = DriverSpec(ProbeId.parse("a/b"), PROFILES["zez_lmg450"],
                          interval_s=1.0, seed=1)
        start, step = 1_700_000_000.25, spec.profile.refresh_period_s
        device = PushDevice(spec, start_time=start)
        stamps = []
        for j in range(1, 3601):
            stamps += [r.timestamp for r in device.read(now=start + j)]
        assert len(stamps) >= 71_999  # the last batch may fall just past the hour
        assert stamps == [start + k * step for k in range(1, len(stamps) + 1)]

    def test_make_device_honors_mode(self):
        assert isinstance(make_device(pdu_spec(), 0.0), PullDevice)
        push_spec = DriverSpec(ProbeId.parse("a/b"), PROFILES["wattsup"],
                               interval_s=1.0)
        assert isinstance(make_device(push_spec, 0.0), PushDevice)

    def test_flaky_device_times_out(self):
        device = FlakyDevice(PullDevice(pdu_spec()), fail_every=2)
        device.read(1.0)
        with pytest.raises(DeviceTimeout):
            device.read(2.0)

    def test_trace_loading(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n10\n20.5\n")
        assert load_trace(str(path)) == (10.0, 20.5)
        bad = tmp_path / "bad.txt"
        bad.write_text("ten\n")
        with pytest.raises(ValueError):
            load_trace(str(bad))

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_trace_value_must_be_finite_and_not_negative(self, tmp_path, value):
        path = tmp_path / "trace.txt"
        path.write_text(f"10\n{value}\n")
        with pytest.raises(ValueError, match="trace.txt:2"):
            load_trace(str(path))


class TestPollOnce:
    def test_pdu_outlet_topics(self):
        spec = pdu_spec()
        measurements = poll_once(spec, PullDevice(spec), now=500.0)
        assert len(measurements) == 10
        topics = [m.probe.topic for m in measurements]
        assert topics == [f"site/pdu3-out{i}" for i in range(1, 11)]

    def test_constant_zero_trace(self):
        spec = DriverSpec(ProbeId.parse("a/b"), PROFILES["emulated-ipmi"],
                          interval_s=1.0, trace=(0.0,))
        m, = poll_once(spec, PullDevice(spec), now=10.0)
        assert m.watts == 0.0

    def test_quantized_to_profile_precision(self):
        spec = pdu_spec()
        for m in poll_once(spec, PullDevice(spec), now=42.0):
            steps = m.watts / spec.profile.precision_w
            assert abs(steps - round(steps)) < 1e-9

    def test_prebuilt_probes_give_the_same_measurements(self):
        spec = pdu_spec()
        probes = spec.outlet_probes()
        built = poll_once(spec, PullDevice(spec), now=500.0, probes=probes)
        assert built == poll_once(spec, PullDevice(spec), now=500.0)
        assert all(m.probe is probes[i] for i, m in enumerate(built))

    def test_device_timeout_becomes_driver_error(self):
        spec = pdu_spec()
        device = FlakyDevice(PullDevice(spec), fail_every=1)
        with pytest.raises(DriverError) as excinfo:
            poll_once(spec, device, now=1.0)
        assert excinfo.value.topic == "site/pdu3"

    @pytest.mark.parametrize("shift, outlet", [(-1, 0), (1, 11)])
    def test_reading_for_an_unknown_outlet_becomes_driver_error(self, shift, outlet):
        # outlet 0 would index probes[-1], the last outlet, and outlet 11
        # would run past the end of the probes
        spec = pdu_spec()
        with pytest.raises(DriverError, match=f"outlet {outlet} of 10"):
            poll_once(spec, Renumbered(PullDevice(spec), shift), now=1.0)

    @pytest.mark.parametrize("shift, outlet", [(-1, 0), (1, 11)])
    def test_reading_for_an_unknown_outlet_becomes_driver_error_with_probes(self, shift, outlet):
        # with prebuilt probes outlet 0 would index probes[-1], the last outlet
        spec = pdu_spec()
        with pytest.raises(DriverError, match=f"outlet {outlet} of 10"):
            poll_once(spec, Renumbered(PullDevice(spec), shift), now=1.0,
                      probes=spec.outlet_probes())


class Renumbered:
    """Shifts every outlet number a device reports, as an off-by-one driver would."""

    def __init__(self, inner, shift):
        self.inner, self.shift = inner, shift

    def read(self, now):
        return [r._replace(outlet=r.outlet + self.shift) for r in self.inner.read(now)]


class TestWireBytes:
    # SHA-256 over every payload of a fixed fleet polled at fixed times,
    # computed before the signed payload was spliced from the unsigned one:
    # a change to either byte form breaks signatures between versions
    UNSIGNED = "541466be6325d8d78d9bbc924f2336f69ba59af2f7b76fa1b059ee18f8a74c7a"
    SIGNED = "0a63609d19453ec854c42a4ab1fc62cb2494dc40fa3a49f5dc4e35d7f2acd1bb"

    @pytest.mark.parametrize("secret, expected", [(None, UNSIGNED),
                                                  (b"golden-wire-secret", SIGNED)])
    def test_golden_fleet_payloads(self, secret, expected):
        epoch = 1_700_000_000.0
        specs = [DriverSpec(ProbeId("golden", f"node{i}"), PROFILES["emulated-ipmi"],
                            interval_s=1.0, seed=i) for i in range(20)]
        specs += [DriverSpec(ProbeId("golden", f"pdu{i}"), PROFILES["emulated-pdu"],
                             interval_s=1.0, seed=100 + i) for i in range(2)]
        devices = [make_device(spec, epoch) for spec in specs]
        probes = [spec.outlet_probes() for spec in specs]
        digest = hashlib.sha256()
        n = 0
        for tick in range(5):
            for spec, device, outlets in zip(specs, devices, probes):
                for m in poll_once(spec, device, epoch + tick + 0.25, probes=outlets):
                    if secret is not None:
                        m = sign(m, secret)
                    digest.update(encode_measurement(m) + b"\n")
                    n += 1
        assert n == 200
        assert digest.hexdigest() == expected


def ipmi_specs(n, interval=0.05, name="d"):
    return [
        DriverSpec(ProbeId.parse(f"t/{name}{i}"), PROFILES["emulated-ipmi"],
                   interval_s=interval, seed=i)
        for i in range(n)
    ]


Read = collections.namedtuple("Read", "topic k made t wake")


def count_waits(manager, waits):
    """Count the scheduler's timed acquires (its waits between wakes) in waits[0].

    Lock objects take no attributes, so a stand-in wraps the stop lock.
    """
    stop_lock = manager._stop_lock

    class CountingLock:
        def acquire(self, blocking=True, timeout=-1):
            waits[0] += 1
            return stop_lock.acquire(blocking, timeout)

        def release(self):
            stop_lock.release()

    manager._stop_lock = CountingLock()


def recording_factory(reads, waits):
    """A device factory whose devices append one ``Read`` per read to reads.

    ``made`` is the monotonic time the device was made, ``k`` the number of
    earlier reads of that device and ``wake`` the wait count at the read.
    """
    class Recorded:
        def __init__(self, device, topic):
            self.device, self.topic, self.made, self.k = device, topic, time.monotonic(), 0

        def read(self, now):
            reads.append(Read(self.topic, self.k, self.made, time.monotonic(), waits[0]))
            self.k += 1
            return self.device.read(now)

    return lambda spec, start: Recorded(make_device(spec, start), spec.topic)


@pytest.fixture()
def pub():
    """A loopback publisher for the manager under test."""
    publisher = Publisher(loopback())
    yield publisher
    publisher.close(drain_timeout=0)


@pytest.fixture()
def inbox(pub):
    """Frames from a subscriber to every topic of ``pub``, connected before the test runs."""
    frames = Inbox()
    subscriber = Subscriber(pub.endpoint, "", frames)
    assert wait_until(lambda: pub.subscriber_count == 1)
    yield frames
    subscriber.close()


class TestDriverManager:
    def test_fixed_ticks_and_topic_payload_agreement(self, pub, inbox):
        manager = DriverManager(ipmi_specs(3), pub, max_ticks=5,
                                watchdog_period_s=60.0, stagger=False)
        manager.start()
        assert manager.wait_finished(timeout=10.0)
        manager.stop()
        frames = []
        while (f := inbox.get(timeout=0.2)) is not None:
            frames.append(f)
        assert len(frames) == 15
        for f in frames:
            m = decode_measurement(f.payload)
            assert m.probe.topic == f.topic

    def test_status_file_row_is_the_driver_status(self, tmp_path, pub):
        path = tmp_path / "status.jsonl"
        manager = DriverManager(ipmi_specs(2), pub, max_ticks=2,
                                watchdog_period_s=60.0, status_path=str(path))
        manager.start()
        assert manager.wait_finished(timeout=10.0)
        manager.stop()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [dataclasses.asdict(status) for status in manager.statuses()]
        assert [row["finished"] for row in rows] == [True, True]

    def test_each_wake_publishes_inside_one_batch(self):
        class Recording(Publisher):
            depth = batches = outside = 0

            @contextlib.contextmanager
            def batch(self):
                self.depth += 1
                self.batches += 1
                try:
                    with super().batch():
                        yield
                finally:
                    self.depth -= 1

            def publish(self, f):
                self.outside += not self.depth
                super().publish(f)

        pub = Recording(loopback())
        inbox = Inbox()
        sub = Subscriber(pub.endpoint, "", inbox)
        try:
            assert wait_until(lambda: pub.subscriber_count == 1)
            manager = DriverManager(ipmi_specs(100), pub, max_ticks=3,
                                    watchdog_period_s=60.0, stagger=False)
            manager.start()
            assert manager.wait_finished(timeout=10.0)
            manager.stop()
            assert pub.publish_calls == 300
            assert pub.outside == 0
            assert pub.batches < 100  # one per wake, not one per tick
            assert sum(1 for _ in iter(lambda: inbox.get(timeout=0.2), None)) == 300
        finally:
            sub.close()
            pub.close(drain_timeout=0)

    def test_signing_integration(self, pub, inbox):
        secret = b"unit-test-secret-16"
        manager = DriverManager(ipmi_specs(2), pub, secret=secret,
                                max_ticks=3, watchdog_period_s=60.0)
        manager.start()
        assert manager.wait_finished(timeout=10.0)
        manager.stop()
        count = 0
        while (f := inbox.get(timeout=0.2)) is not None:
            assert verify(decode_measurement(f.payload), secret)
            count += 1
        assert count == 6

    def test_signed_tick_uses_neither_json_dumps_nor_dataclass_replace(
            self, monkeypatch, pub, inbox):
        # the per-message path builds its bytes and signed copy by hand;
        # patch every binding of the two, from-imports in wattbus included
        def forbidden(*args, **kwargs):
            raise AssertionError("json.dumps or dataclasses.replace on the hot path")

        slow = (json.dumps, dataclasses.replace)
        monkeypatch.setattr(json, "dumps", forbidden)
        monkeypatch.setattr(dataclasses, "replace", forbidden)
        for mod in [m for name, m in sys.modules.items() if name.startswith("wattbus")]:
            for attr, value in list(vars(mod).items()):
                if any(value is fn for fn in slow):
                    monkeypatch.setattr(mod, attr, forbidden)
        # nor does it key an HMAC or validate a measurement per message:
        # each is validated once, when polled, and the key is set up once
        counts = {"hmac.new": 0, "validations": 0}
        real_new, real_check = hmac.new, Measurement.__post_init__

        def counting_new(*args, **kwargs):
            counts["hmac.new"] += 1
            return real_new(*args, **kwargs)

        def counting_check(m):
            counts["validations"] += 1
            real_check(m)

        monkeypatch.setattr(hmac, "new", counting_new)
        monkeypatch.setattr(Measurement, "__post_init__", counting_check)
        signing._keyed_hmac.cache_clear()
        secret = bytearray(b"unit-test-secret-16")
        manager = DriverManager(ipmi_specs(5) + [pdu_spec()], pub, secret=secret,
                                max_ticks=1, watchdog_period_s=60.0)
        manager.start()
        assert manager.wait_finished(timeout=10.0)
        manager.stop()
        assert counts == {"hmac.new": 1, "validations": 15}
        frames = list(iter(lambda: inbox.get(timeout=0.2), None))
        assert len(frames) == 15
        assert all(verify(decode_measurement(f.payload), secret) for f in frames)

    def test_mean_spacing_within_five_percent(self, pub, inbox):
        interval = 0.1
        manager = DriverManager(ipmi_specs(1, interval=interval), pub,
                                max_ticks=30, watchdog_period_s=60.0,
                                stagger=False)
        manager.start()
        assert manager.wait_finished(timeout=10.0)
        manager.stop()
        stamps = []
        while (f := inbox.get(timeout=0.2)) is not None:
            stamps.append(decode_measurement(f.payload).timestamp)
        deltas = [b - a for a, b in zip(stamps, stamps[1:])]
        mean = sum(deltas) / len(deltas)
        assert abs(mean - interval) / interval < 0.05

    def test_watchdog_restarts_killed_worker(self, pub):
        period = 0.25
        manager = DriverManager(ipmi_specs(3), pub,
                                watchdog_period_s=period)
        manager.start()
        try:
            topic = "t/d1"
            assert wait_until(lambda: manager.status_for(topic).published > 0)
            manager.inject_failure(topic)
            assert wait_until(lambda: not (manager.status_for(topic).alive), timeout=2.0)
            start = time.monotonic()
            assert wait_until(
                lambda: manager.status_for(topic).alive
                and manager.status_for(topic).restart_count == 1,
                timeout=2 * period + 1.0)
            assert time.monotonic() - start <= 2 * period + 0.5
            # the restarted worker publishes again
            before = manager.status_for(topic).published
            assert wait_until(lambda: manager.status_for(topic).published > before)
        finally:
            manager.stop()

    def test_loss_accounting(self, pub):
        specs = [pdu_spec(outlets=4, interval=0.05)]

        def flaky_factory(spec, start):
            return FlakyDevice(PullDevice(spec), fail_every=3)

        manager = DriverManager(specs, pub, max_ticks=12,
                                watchdog_period_s=60.0,
                                device_factory=flaky_factory)
        manager.start()
        assert manager.wait_finished(timeout=10.0)
        manager.stop()
        status = manager.status_for("site/pdu3")
        assert status.ticks == 12
        assert status.lost == 4 * 4  # every third tick lost, 4 outlets
        assert status.published + status.lost == status.ticks * 4

    def test_unknown_outlet_readings_are_counted_lost(self, pub):
        manager = DriverManager([pdu_spec(interval=0.05)], pub, max_ticks=3,
                                watchdog_period_s=60.0,
                                device_factory=lambda spec, start: Renumbered(
                                    PullDevice(spec), -1))
        manager.start()
        assert manager.wait_finished(timeout=10.0)
        manager.stop()
        status = manager.status_for("site/pdu3")
        assert (status.ticks, status.lost, status.published) == (3, 30, 0)
        assert pub.publish_calls == 0

    def test_quarantine_after_repeated_failures(self, pub, monkeypatch):
        def broken_factory(spec, start):
            raise RuntimeError("device never comes up")

        monkeypatch.setattr(wattbus.manager, "RESTART_LIMIT", 2)
        manager = DriverManager(ipmi_specs(1), pub, watchdog_period_s=0.1,
                                device_factory=broken_factory)
        manager.start()
        try:
            topic = "t/d0"
            assert wait_until(lambda: manager.status_for(topic).quarantined,
                              timeout=10.0)
            status = manager.status_for(topic)
            assert status.restart_count == 2
            assert not status.alive
        finally:
            manager.stop()

    def test_thousand_drivers_share_one_thread(self, pub):
        specs = ipmi_specs(1000, interval=0.5)
        manager = DriverManager(specs, pub, max_ticks=3,
                                watchdog_period_s=60.0)
        before = threading.active_count()
        peak = before
        manager.start()
        try:
            deadline = time.monotonic() + 30.0
            while not manager.wait_finished(timeout=0) and time.monotonic() < deadline:
                peak = max(peak, threading.active_count())
                time.sleep(0.01)
        finally:
            manager.stop()
        assert peak - before <= 1
        assert [s.published for s in manager.statuses()] == [3] * 1000

    def test_scheduler_coalesces_wakes(self, pub):
        interval = 1.0
        reads = []  # (k, monotonic time the device was made, time of read k)

        class Timed:
            def __init__(self, device):
                self.device, self.made, self.k = device, time.monotonic(), 0

            def read(self, now):
                reads.append((self.k, self.made, time.monotonic()))
                self.k += 1
                return self.device.read(now)

        def timed_factory(spec, start):
            return Timed(make_device(spec, start))

        manager = DriverManager(ipmi_specs(1000, interval=interval),
                                pub, max_ticks=3,
                                watchdog_period_s=60.0,
                                device_factory=timed_factory)
        stop_lock = manager._stop_lock
        waits = 0

        class CountingLock:
            # lock objects take no attributes: count the scheduler's timed
            # acquires (its waits between wakes) through a stand-in
            def acquire(self, blocking=True, timeout=-1):
                nonlocal waits
                waits += 1
                return stop_lock.acquire(blocking, timeout)

            def release(self):
                stop_lock.release()

        manager._stop_lock = CountingLock()
        manager.start()
        try:
            assert manager.wait_finished(timeout=30.0)
        finally:
            manager.stop()
        ticks = sum(s.ticks for s in manager.statuses())
        assert ticks == 3000
        assert 0 < waits <= ticks / 5
        assert len(reads) == ticks
        assert all(t >= made + k * interval for k, made, t in reads)

    def test_scheduler_wakes_once_per_phase(self, pub):
        n, interval = 1000, 0.5
        reads, waits = [], [0]
        manager = DriverManager(ipmi_specs(n, interval=interval), pub,
                                max_ticks=3, watchdog_period_s=60.0,
                                device_factory=recording_factory(reads, waits))
        count_waits(manager, waits)
        manager.start()
        try:
            assert manager.wait_finished(timeout=30.0)
        finally:
            manager.stop()
        assert len(reads) == 3 * n
        assert 0 < waits[0] <= 3 * PHASES + 2
        wakes = collections.defaultdict(set)  # (phase, k) -> wakes its reads fell in
        for r in reads:
            i = int(r.topic.removeprefix("t/d"))
            wakes[i * PHASES // n, r.k].add(r.wake)
        assert len(wakes) == 3 * PHASES
        assert all(len(w) == 1 for w in wakes.values())
        assert all(r.t >= r.made + r.k * interval for r in reads)

    def test_restarted_slot_ticks_in_its_phase_wake(self, pub):
        n, interval, period = 40, 0.2, 0.25
        reads, waits = [], [0]
        manager = DriverManager(ipmi_specs(n, interval=interval), pub,
                                watchdog_period_s=period,
                                device_factory=recording_factory(reads, waits))
        count_waits(manager, waits)
        topic, partner = "t/d1", "t/d0"  # slots 0 and 1 of 40 share phase 0
        manager.start()
        try:
            assert wait_until(lambda: manager.status_for(topic).published > 0)
            manager.inject_failure(topic)
            assert wait_until(lambda: manager.status_for(topic).restart_count == 1,
                              timeout=2 * period + 1.0)
            before = manager.status_for(topic).published
            assert wait_until(lambda: manager.status_for(topic).published >= before + 3,
                              timeout=10 * interval)
        finally:
            manager.stop()
        first_made = min(r.made for r in reads if r.topic == topic)
        last_wake = max(r.wake for r in reads)  # stop() may cut the last wake short
        again = [r for r in reads
                 if r.topic == topic and r.made > first_made and r.wake < last_wake]
        assert len(again) >= 2
        partner_wakes = {r.wake for r in reads if r.topic == partner}
        assert all(r.wake in partner_wakes for r in again)
        assert all(r.t >= r.made + r.k * interval for r in reads)

    @pytest.mark.parametrize("good_makes", [0, 1])  # fails in start(), or on restart
    def test_device_factory_that_raises_kills_only_its_slot(self, good_makes, pub,
                                                            monkeypatch):
        made = collections.Counter()
        topic = "t/d1"

        def factory(spec, start):
            made[spec.topic] += 1
            if spec.topic == topic and made[topic] > good_makes:
                raise RuntimeError("device never comes up")
            return make_device(spec, start)

        monkeypatch.setattr(wattbus.manager, "RESTART_LIMIT", 2)
        manager = DriverManager(ipmi_specs(3), pub, watchdog_period_s=0.1,
                                device_factory=factory)
        manager.start()
        try:
            assert manager.status_for(topic).alive == bool(good_makes)
            assert manager.status_for("t/d0").alive and manager.status_for("t/d2").alive
            if good_makes:
                assert wait_until(lambda: manager.status_for(topic).published > 0)
                manager.inject_failure(topic)
            assert wait_until(lambda: manager.status_for(topic).quarantined, timeout=10.0)
            status = manager.status_for(topic)
            assert status.restart_count == 2
            assert not status.alive
            assert made[topic] == 3  # the first make, then one per restart
            others = pub.publish_calls - status.published
            assert wait_until(lambda: pub.publish_calls - status.published > others + 10)
            assert manager.status_for(topic).published == status.published
        finally:
            manager.stop()
        assert all(manager.status_for(t).restart_count == 0 for t in ("t/d0", "t/d2"))

    def test_empty_fleet_starts_and_stops(self, pub):
        manager = DriverManager([], pub, watchdog_period_s=0.05)
        manager.start()
        time.sleep(0.2)  # a few watchdog sweeps over no slots
        assert manager.wait_finished(timeout=0)
        manager.stop()
        assert not manager._scheduler.is_alive()
        assert manager.statuses() == [] and pub.publish_calls == 0

    def test_mixed_intervals_publish_every_tick_none_early(self, pub, inbox):
        reads, waits = [], [0]
        specs = ipmi_specs(10, interval=1.0, name="slow") + ipmi_specs(30, interval=0.3)
        intervals = {s.topic: s.interval_s for s in specs}
        manager = DriverManager(specs, pub, max_ticks=3, watchdog_period_s=60.0,
                                device_factory=recording_factory(reads, waits))
        manager.start()
        try:
            assert manager.wait_finished(timeout=15.0)
        finally:
            manager.stop()
        assert [s.published for s in manager.statuses()] == [3] * len(specs)
        assert sum(1 for _ in iter(lambda: inbox.get(timeout=0.2), None)) == 3 * len(specs)
        assert len(reads) == 3 * len(specs)
        assert all(r.t >= r.made + r.k * intervals[r.topic] for r in reads)

    def test_stop_twice(self, pub):
        manager = DriverManager(ipmi_specs(2), pub, watchdog_period_s=60.0)
        manager.start()
        manager.stop()
        manager.stop()
        assert not manager._scheduler.is_alive()
        assert not any(s.alive for s in manager.statuses())

    def test_stop_before_start(self, pub):
        manager = DriverManager(ipmi_specs(2), pub, watchdog_period_s=60.0)
        manager.stop()
        manager.stop()
        manager.start()  # a stopped manager's scheduler exits before any tick
        manager._scheduler.join(timeout=2.0)
        assert not manager._scheduler.is_alive()
        assert pub.publish_calls == 0

    def test_stop_returns_while_the_next_tick_is_far_away(self, pub):
        manager = DriverManager(ipmi_specs(1, interval=60.0), pub,
                                watchdog_period_s=60.0)
        manager.start()
        assert wait_until(lambda: pub.publish_calls == 1)
        start = time.monotonic()
        manager.stop()
        assert time.monotonic() - start < 0.2
        assert not manager._scheduler.is_alive()

    def test_status_file(self, tmp_path, pub):
        path = tmp_path / "status.jsonl"
        manager = DriverManager(ipmi_specs(2), pub, max_ticks=2,
                                watchdog_period_s=0.1, status_path=str(path))
        manager.start()
        assert manager.wait_finished(timeout=10.0)
        manager.stop()
        import json
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 2
        assert {row["topic"] for row in lines} == {"t/d0", "t/d1"}
        for row in lines:
            assert row["published"] == 2
            assert row["restart_count"] == 0
