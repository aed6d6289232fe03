"""Device emulators, quantization, and driver manager supervision."""

import math
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from wattbus.bus import InprocChannel
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
from wattbus.manager import DriverError, DriverManager, poll_once
from wattbus.model import ProbeId, decode_measurement
from wattbus.signing import verify

from test_bus import wait_until


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

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.sampled_from([0.01, 0.1, 0.125, 1.0, 7.0, 3.3]),
    )
    def test_matches_brute_force_oracle(self, x, p):
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

    def test_device_timeout_becomes_driver_error(self):
        spec = pdu_spec()
        device = FlakyDevice(PullDevice(spec), fail_every=1)
        with pytest.raises(DriverError) as excinfo:
            poll_once(spec, device, now=1.0)
        assert excinfo.value.topic == "site/pdu3"


def ipmi_specs(n, interval=0.05):
    return [
        DriverSpec(ProbeId.parse(f"t/d{i}"), PROFILES["emulated-ipmi"],
                   interval_s=interval, seed=i)
        for i in range(n)
    ]


class TestDriverManager:
    def test_fixed_ticks_and_topic_payload_agreement(self):
        chan = InprocChannel()
        sub = chan.subscribe("")
        manager = DriverManager(ipmi_specs(3), chan, max_ticks=5,
                                watchdog_period_s=60.0, stagger=False)
        manager.start()
        assert manager.wait_finished(timeout=10.0)
        manager.stop()
        frames = []
        while (f := sub.get(timeout=0.2)) is not None:
            frames.append(f)
        assert len(frames) == 15
        for f in frames:
            m = decode_measurement(f.payload)
            assert m.probe.topic == f.topic

    def test_signing_integration(self):
        secret = b"unit-test-secret-16"
        chan = InprocChannel()
        sub = chan.subscribe("")
        manager = DriverManager(ipmi_specs(2), chan, secret=secret,
                                max_ticks=3, watchdog_period_s=60.0)
        manager.start()
        assert manager.wait_finished(timeout=10.0)
        manager.stop()
        count = 0
        while (f := sub.get(timeout=0.2)) is not None:
            assert verify(decode_measurement(f.payload), secret)
            count += 1
        assert count == 6

    def test_mean_spacing_within_five_percent(self):
        chan = InprocChannel()
        sub = chan.subscribe("")
        interval = 0.1
        manager = DriverManager(ipmi_specs(1, interval=interval), chan,
                                max_ticks=30, watchdog_period_s=60.0,
                                stagger=False)
        manager.start()
        assert manager.wait_finished(timeout=10.0)
        manager.stop()
        stamps = []
        while (f := sub.get(timeout=0.2)) is not None:
            stamps.append(decode_measurement(f.payload).timestamp)
        deltas = [b - a for a, b in zip(stamps, stamps[1:])]
        mean = sum(deltas) / len(deltas)
        assert abs(mean - interval) / interval < 0.05

    def test_watchdog_restarts_killed_worker(self):
        chan = InprocChannel()
        period = 0.25
        manager = DriverManager(ipmi_specs(3), chan,
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

    def test_loss_accounting(self):
        chan = InprocChannel()
        specs = [pdu_spec(outlets=4, interval=0.05)]

        def flaky_factory(spec, start):
            return FlakyDevice(PullDevice(spec), fail_every=3)

        manager = DriverManager(specs, chan, max_ticks=12,
                                watchdog_period_s=60.0,
                                device_factory=flaky_factory)
        manager.start()
        assert manager.wait_finished(timeout=10.0)
        manager.stop()
        status = manager.status_for("site/pdu3")
        assert status.ticks == 12
        assert status.lost == 4 * 4  # every third tick lost, 4 outlets
        assert status.published + status.lost == status.ticks * 4

    def test_quarantine_after_repeated_failures(self):
        chan = InprocChannel()

        def broken_factory(spec, start):
            raise RuntimeError("device never comes up")

        manager = DriverManager(ipmi_specs(1), chan,
                                watchdog_period_s=0.1, restart_limit=2,
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

    def test_thousand_drivers_share_one_thread(self):
        chan = InprocChannel()
        specs = ipmi_specs(1000, interval=0.5)
        manager = DriverManager(specs, chan, max_ticks=3,
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

    def test_status_file(self, tmp_path):
        path = tmp_path / "status.jsonl"
        chan = InprocChannel()
        manager = DriverManager(ipmi_specs(2), chan, max_ticks=2,
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
