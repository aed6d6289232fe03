"""Harness smoke runs with small fleets; full-size runs live in acceptance."""

import json
import multiprocessing
import tempfile
import time

import pytest

from wattbus.bench import (
    Scenario,
    _count_frames,
    build_fleet,
    load_scenario,
    run_scenario,
    run_sweep,
    scenario_from_name,
    write_results,
)


def smoke(name="smoke", fleet="ipmi", signing=False, interval=0.1,
          duration=1.0, drivers=20) -> Scenario:
    return Scenario(name, fleet, signing, interval, duration, drivers=drivers)


@pytest.fixture
def bench_tmp(tmp_path, monkeypatch):
    """Temporary files of the run go to tmp_path, which must stay empty."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    yield tmp_path
    assert multiprocessing.active_children() == []
    assert list(tmp_path.glob("wattbus-bench-*")) == []


class TestScenario:
    def test_standard_names(self):
        s = scenario_from_name("ipmi-unsigned")
        assert s.driver_count == 1000
        assert s.outlets == 1
        assert not s.signing
        s = scenario_from_name("pdu-signed")
        assert s.driver_count == 100
        assert s.outlets == 10
        assert s.signing

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            scenario_from_name("warp-drive")

    def test_expected_frames_arithmetic(self):
        s = scenario_from_name("ipmi-unsigned")
        assert s.ticks == 60
        assert s.expected_frames == 60_000
        s = scenario_from_name("pdu-unsigned")
        assert s.expected_frames == 100 * 10 * 60

    def test_fleet_is_deterministic(self):
        a = build_fleet(smoke(), base_seed=5)
        b = build_fleet(smoke(), base_seed=5)
        assert a == b
        c = build_fleet(smoke(), base_seed=6)
        assert a != c

    def test_pdu_fleet_outlet_topics(self):
        specs = build_fleet(smoke(fleet="pdu", drivers=3))
        assert len(specs) == 3
        assert specs[0].outlet_count == 10
        assert specs[0].all_topics()[0] == "bench/pdu0-out1"

    def test_load_scenario(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "name": "custom", "fleet": "pdu", "signing": True,
            "interval_s": 0.5, "duration_s": 2.0, "drivers": 4}))
        s = load_scenario(str(path))
        assert s.fleet == "pdu"
        assert s.ticks == 4
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "fleet": "ipmi", "signing": False,
                                   "interval_s": 1, "duration_s": 1, "wheels": 4}))
        with pytest.raises(ValueError):
            load_scenario(str(bad))

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario("x", "mainframe", False, 1.0, 1.0)
        with pytest.raises(ValueError):
            Scenario("x", "ipmi", False, 0.0, 1.0)


class TestRunScenario:
    def test_smoke_unsigned(self, bench_tmp):
        scenario = smoke(duration=1.0, interval=0.1, drivers=20)
        result = run_scenario(scenario)
        assert result.valid
        assert result.frames_published == scenario.expected_frames == 200
        assert result.frames_received == 200
        assert result.drops == 0
        assert result.publisher_queue_drops == 0
        assert result.jitter_samples == 200 - 20  # deltas per probe
        assert result.driver_cpu_s >= 0.0
        assert result.elapsed_s < 30.0

    def test_smoke_signed_all_verify(self):
        scenario = smoke(signing=True, duration=0.8, interval=0.1, drivers=10)
        result = run_scenario(scenario)
        assert result.valid
        assert result.drops == 0
        assert result.verified == result.frames_received == 80
        assert result.verify_failures == 0

    def test_smoke_pdu_fleet(self):
        scenario = smoke(fleet="pdu", duration=0.6, interval=0.2, drivers=4)
        result = run_scenario(scenario)
        assert result.valid
        # 4 PDUs x 10 outlets x 3 ticks
        assert result.frames_received == 120
        assert result.drops == 0

    def test_smoke_over_ipc(self, bench_tmp):
        scenario = smoke(duration=0.6, interval=0.2, drivers=5)
        result = run_scenario(scenario, transport="ipc")
        assert result.valid
        assert result.frames_received == scenario.expected_frames == 15
        assert result.drops == 0

    def test_sweep_emits_one_row_per_interval(self):
        results = run_sweep([0.2, 0.4], fleet="ipmi", duration_s=0.6, drivers=5)
        assert [r.interval_s for r in results] == [0.2, 0.4]
        assert all(r.valid for r in results)
        assert all(r.drops == 0 for r in results)

    def test_write_results_schema(self, tmp_path):
        result = run_scenario(smoke(duration=0.4, interval=0.2, drivers=3))
        out = tmp_path / "results.json"
        write_results([result], str(out))
        loaded = json.loads(out.read_text())
        row = loaded["results"][0]
        for key in ("name", "frames_published", "frames_received", "drops",
                    "jitter_p95_s", "max_burst", "driver_cpu_s",
                    "consumer_cpu_s", "valid"):
            assert key in row


class _SilentSubscriber:
    def get(self, timeout):
        time.sleep(timeout)
        return None


def test_count_stops_at_its_deadline_when_the_driver_never_exits():
    started = time.monotonic()
    counted = _count_frames(_SilentSubscriber(), None, lambda: False, started + 0.5)
    assert 0.5 <= time.monotonic() - started < 2.0
    assert counted["received"] == 0
