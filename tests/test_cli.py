"""CLI wiring: argument handling, config errors, daemon and bench smokes."""

import json
import multiprocessing
import signal
import socket
import subprocess
import sys
import time
import urllib.request

import pytest

from wattbus import bench
from wattbus.cli import build_parser, main


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("")  # no probes
    assert main(["drivers", "--config", str(bad)]) == 2


def test_missing_forwarder_section(tmp_path):
    conf = tmp_path / "f.conf"
    conf.write_text("[probe:a/b]\ndriver = emulated-ipmi\n")
    assert main(["forwarder", "--config", str(conf)]) == 2


def test_bench_smoke_via_main(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "name": "cli smoke", "fleet": "ipmi", "signing": False,
        "interval_s": 0.2, "duration_s": 0.6, "drivers": 4}))
    out = tmp_path / "r.json"
    assert main(["bench", "--scenario", str(scenario), "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert len(results) == 1
    assert results[0]["frames_received"] == 12
    assert results[0]["drops"] == 0


def test_bench_rejects_bad_sweep(tmp_path):
    assert main(["bench", "--sweep", "fast,slow",
                 "--out", str(tmp_path / "r.json")]) == 2


def _no_run(*args, **kwargs):
    raise AssertionError("a bad scenario must be refused before any process starts")


def test_bench_refuses_a_sweep_below_the_refresh_period(tmp_path, monkeypatch, capsys):
    # 0.5 s is a valid point, but no point runs once 0.033 s is refused
    monkeypatch.setattr(bench, "run_scenario", _no_run)
    out = tmp_path / "r.json"
    assert main(["bench", "--sweep", "0.5,0.033", "--out", str(out)]) == 2
    assert not out.exists()
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert "bad --sweep value: 0.5,0.033" in err
    assert "refresh period 0.05s" in err


def test_bench_unknown_scenario_name(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "run_scenario", _no_run)
    assert main(["bench", "--scenario", "no-such-scenario",
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no-such-scenario" in err


@pytest.mark.parametrize("text", [
    '{"name": "n", "fleet": "ipmi", "signing": false, "interval_s": NaN, "duration_s": 1}',
    '{"name": "n", "fleet": "ipmi", "signing": false, "interval_s": 1, "duration_s": Infinity}',
    '{"name": "n", "fleet": "ipmi"}',
    '{"name": "n", "fleet": "ipmi", "signing": false, "interval_s": "1", "duration_s": 1}',
    '["not", "an", "object"]',
    '{"name": ',
], ids=["nan-interval", "inf-duration", "missing-fields", "string-interval", "list", "truncated"])
def test_bench_bad_scenario_file(tmp_path, monkeypatch, capsys, text):
    monkeypatch.setattr(bench, "run_scenario", _no_run)
    scenario = tmp_path / "s.json"
    scenario.write_text(text)
    assert main(["bench", "--scenario", str(scenario), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def _daemon(args, ignore_sigint=False):
    """Start ``wattbus ARGS``; with ``ignore_sigint`` it inherits SIGINT as
    ignored, as a job started with ``&`` from a non-interactive shell does."""
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN) if ignore_sigint else None
    try:
        return subprocess.Popen([sys.executable, "-m", "wattbus.cli", *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    finally:
        if ignore_sigint:
            signal.signal(signal.SIGINT, previous)


def _stop(proc, sig=signal.SIGTERM) -> int:
    proc.send_signal(sig)
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    return proc.returncode


def _wait_for_status(proc, status) -> None:
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and not status.exists():
        time.sleep(0.05)
    assert status.exists(), proc.stderr.read().decode() if proc.poll() else "no status file"


@pytest.mark.parametrize("sig, ignore_sigint", [
    (signal.SIGINT, False), (signal.SIGINT, True), (signal.SIGTERM, False),
], ids=["SIGINT", "SIGINT-background", "SIGTERM"])
def test_drivers_daemon_runs_and_stops(tmp_path, sig, ignore_sigint):
    sock = tmp_path / "bus.sock"
    conf = tmp_path / "d.conf"
    conf.write_text(
        "[bus]\nbind = ipc://{}\n"
        "[probe:cli/p1]\ndriver = emulated-ipmi\ninterval = 0.1\n".format(sock))
    status = tmp_path / "status.jsonl"
    proc = _daemon(["drivers", "--config", str(conf), "--status-file", str(status),
                    "--watchdog-period", "0.2"], ignore_sigint)
    try:
        _wait_for_status(proc, status)
        rows = [json.loads(l) for l in status.read_text().splitlines()]
        assert rows[0]["topic"] == "cli/p1"
        assert sock.exists()
    finally:
        returncode = _stop(proc, sig)
    assert returncode == 0
    assert not sock.exists()


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_viz_daemon_flushes_archives_on_sigterm(tmp_path):
    port, data = _free_port(), tmp_path / "data"
    conf = tmp_path / "v.conf"
    conf.write_text(
        f"[bus]\nbind = ipc://{tmp_path / 'bus.sock'}\n"
        "[probe:cli/p1]\ndriver = emulated-ipmi\ninterval = 0.1\n"
        f"[viz]\nlisten = 127.0.0.1:{port}\ndata_dir = {data}\n")
    status = tmp_path / "status.jsonl"
    drivers = _daemon(["drivers", "--config", str(conf), "--status-file", str(status),
                       "--watchdog-period", "0.2"])
    viz = None
    try:
        _wait_for_status(drivers, status)
        viz = _daemon(["viz", "--config", str(conf)])

        def stats_ok() -> bool:
            try:
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/stats/cli/p1", timeout=1.0) as r:
                    return r.status == 200
            except OSError:
                return False

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not stats_ok():
            time.sleep(0.05)
        assert stats_ok(), viz.stderr.read().decode() if viz.poll() else "no samples"
        assert not list(data.rglob("*.rra"))  # the 30 s flush period has not run
    finally:
        viz_code = _stop(viz) if viz is not None else None
        _stop(drivers)
    assert viz_code == 0
    assert len(list((data / "cli" / "p1").glob("*.rra"))) == 3


def test_bench_refuses_an_unknown_fleet(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "run_scenario", _no_run)
    out = tmp_path / "r.json"
    assert main(["bench", "--sweep", "1", "--fleet", "nope", "--out", str(out)]) == 2
    assert not out.exists()
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'nope'" in err


# runs ``main`` with a ``_serve`` that lists the loaded modules, then closes the daemon
_LOADED_MODULES = """
import json, sys
import wattbus.cli as cli

def serve(*closers):
    loaded = sorted(sys.modules)
    for close in closers:
        close()
    print(json.dumps(loaded))

cli._serve = serve
sys.exit(cli.main(sys.argv[1:]))
"""
_CONSUMER_SIDE = {"http.server", "urllib.request", "multiprocessing", "wattbus.consumer",
                  "wattbus.api", "wattbus.viz", "wattbus.pollster", "wattbus.bench"}
_NOT_FOR_CONSUMERS = {"wattbus.manager", "wattbus.bench", "wattbus.pollster",
                   "urllib.request", "multiprocessing"}


@pytest.mark.parametrize("daemon, unused", [
    ("drivers", _CONSUMER_SIDE),
    ("forwarder", _CONSUMER_SIDE | {"wattbus.manager"}),
    ("api", _NOT_FOR_CONSUMERS | {"wattbus.viz"}),
    ("viz", _NOT_FOR_CONSUMERS | {"wattbus.api"}),
])
def test_each_daemon_loads_only_its_own_modules(tmp_path, daemon, unused):
    conf = tmp_path / "d.conf"
    conf.write_text(
        f"[bus]\nbind = ipc://{tmp_path / 'bus.sock'}\n"
        "[probe:cli/p1]\ndriver = emulated-ipmi\ninterval = 1\n"
        f"[api]\nlisten = 127.0.0.1:{_free_port()}\ntokens = t\n"
        f"[viz]\nlisten = 127.0.0.1:{_free_port()}\ndata_dir = {tmp_path / 'data'}\n"
        f"[forwarder]\nupstreams = ipc://{tmp_path / 'bus.sock'}\n"
        f"bind = ipc://{tmp_path / 'fwd.sock'}\n")
    out = subprocess.run([sys.executable, "-c", _LOADED_MODULES, daemon, "--config", str(conf)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout))
    assert f"wattbus.{'manager' if daemon == 'drivers' else daemon}" in loaded
    assert not loaded & unused


def test_driver_side_modules_do_not_load_the_config_parser():
    code = ("import sys, wattbus.bench, wattbus.manager, wattbus.forwarder; "
            "print(sorted({'wattbus.config', 'configparser'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
