"""wattbus benchmark: run one workload end to end and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It starts the real daemons from ``src/``
in their deployed layout (driver process, one process per consumer daemon,
this process orchestrating), sets them up SETUP_REPEATS times, measures the
last set-up for S seconds, checks the daemons' outputs and prints a report
followed by one JSON result line.  ``--trace 1`` also records spans at the
program's seams and prints the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import http.client
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import urllib.request
from multiprocessing.connection import Pipe
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

from workloads import (  # noqa: E402  (HERE is on sys.path as the script dir)
    END_TO_END, FLUSH_SHARE, PER_LAYER, READ_RATE_HZ, REPORT_ONLY,
    SETUP_REPEATS, TOKEN, WORKLOADS,
)

READ_KINDS = ("probes", "probe", "chart", "stats")
STATS_KEYS = {"avg_w", "min_w", "max_w", "last_w", "total_kwh", "cost_eur"}
RECORD_KEYS = {"w", "kwh", "timestamp"}

# Per-layer metrics whose spans are not named by a prefix of the metric.
NEEDS = {
    "bus.transit_p50_ms": ("bus.publish", "model.encode", "model.decode"),
    "bus.transit_p99_ms": ("bus.publish", "model.encode", "model.decode"),
    "manager.tick_late_p99_ms": ("manager.poll_once",),
    "rra.late_drops": ("rra.update",),
    "viz.flush_mb": ("rra.save", "viz.flush"),
    "api.http_overhead_ms": ("energy.snapshot",),
}


class BenchError(RuntimeError):
    """The run could not be carried out (as opposed to a failed check)."""


def pct(values, q: float) -> float:
    """q-th percentile (0-100), linear between closest ranks; 0.0 if empty."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# -- daemons --------------------------------------------------------------------


class Daemons:
    """One set-up of the deployed process layout, driven over pipes.

    Each host is a plain child process (``python3 perfbench/hosts.py ROLE
    FD``) that talks over one end of a socket pair; nothing else is started,
    so ``close()`` leaves no process behind.
    """

    def __init__(self, cfg: dict, roles: list[str]):
        self.roles = roles
        self.procs: dict[str, subprocess.Popen] = {}
        self.conns = {}
        self.t_launch = time.time()
        try:
            for role in roles:
                parent_end, child_end = Pipe()
                self.conns[role] = parent_end
                fd = child_end.fileno()
                try:
                    self.procs[role] = subprocess.Popen(
                        [sys.executable, os.path.join(HERE, "hosts.py"), role, str(fd)],
                        pass_fds=(fd,), cwd=ROOT, stdin=subprocess.DEVNULL,
                        stdout=sys.stderr)  # keep stdout for the result line
                finally:
                    child_end.close()
                parent_end.send(cfg)
        except BaseException:
            self.close()
            raise

    @property
    def consumers(self) -> list[str]:
        return [r for r in self.roles if r != "driver"]

    def send(self, role: str, *msg) -> None:
        self.conns[role].send(msg)

    def broadcast(self, *msg) -> None:
        for role in self.roles:
            self.send(role, *msg)

    def recv(self, role: str, kind: str, timeout: float):
        conn, proc = self.conns[role], self.procs[role]
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"{role}: no {kind!r} within {timeout:.0f}s")
            if conn.poll(min(0.25, remaining)):
                msg = conn.recv()
                if msg[0] == "error":
                    raise BenchError(f"{role} failed:\n{msg[1]}")
                if msg[0] != kind:
                    raise BenchError(f"{role}: expected {kind!r}, got {msg[0]!r}")
                return msg[1:]
            if proc.poll() is not None:
                raise BenchError(f"{role} exited with code {proc.returncode}")

    def setup(self) -> dict:
        """Connect everything; returns URLs and set-up time."""
        url = self.recv("driver", "endpoint", 60.0)[0]
        for role in self.consumers:
            self.send(role, "connect", url)
        urls = {role: self.recv(role, "listening", 60.0)[0] for role in self.consumers}
        ready = [self.recv(role, "ready", 120.0)[0] for role in self.consumers]
        return {"urls": urls, "setup_s": max(ready) - self.t_launch, "t_ready": max(ready)}

    def close(self) -> None:
        """Ask every host to exit, kill any that does not, wait for all."""
        for role in [r for r in self.consumers + ["driver"] if r in self.conns]:
            try:
                self.send(role, "exit")
            except OSError:
                pass
        for proc in self.procs.values():
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for conn in self.conns.values():
            conn.close()


# -- read client ------------------------------------------------------------------


class ReadClient(threading.Thread):
    """Closed loop, one request in flight, READ_RATE_HZ; a fixed rotation."""

    def __init__(self, api_url: str, viz_url: str, topics: list[str], seed: int):
        from wattbus.pollster import PollsterAuthError

        super().__init__(name="perfbench-reads", daemon=True)
        # a read that raises one of these was not answered 200 (URLError
        # and HTTPError are OSErrors; IncompleteRead is an HTTPException)
        self.transport_errors = (OSError, http.client.HTTPException, PollsterAuthError)
        self.api_url, self.viz_url = api_url, viz_url
        self.topics = topics
        self.rng = Random(seed)
        self.stop = threading.Event()
        # (kind, send ns, receive ns, answered, body ok, samples_for ns)
        self.records: list[tuple] = []
        self.last_error: str | None = None  # last read that was not answered
        self.crash: str | None = None  # traceback if the loop itself died

    @staticmethod
    def _get(url: str, headers=None) -> tuple[bytes, int]:
        req = urllib.request.Request(url, headers=headers or {})
        with urllib.request.urlopen(req, timeout=10.0) as resp:
            body = resp.read()
        return body, time.monotonic_ns()

    def _one(self, kind: str, topic: str) -> tuple[bool, int, int]:
        """Send one read; returns (body ok, receive ns, samples_for ns).

        Transport errors propagate (the read was not answered); any error
        while parsing or checking an answered body makes it not ok.
        """
        from wattbus.pollster import fetch_probes, samples_for

        if kind == "probes":
            # fetch_probes does the GET and the parse in one call, so the
            # two are told apart by the exception: a parse or shape error
            # on the answered body is anything but a transport error.
            try:
                probes = fetch_probes(self.api_url, TOKEN)
            except self.transport_errors:
                raise
            except Exception:
                return False, time.monotonic_ns(), 0
            t1 = time.monotonic_ns()
            if not parses(lambda: len(probes) == len(self.topics) and all(
                    RECORD_KEYS <= set(rec) for rec in probes.values())):
                return False, t1, 0
            t2 = time.monotonic_ns()
            samples_for(probes)
            return True, t1, time.monotonic_ns() - t2
        if kind == "probe":
            body, t1 = self._get(f"{self.api_url}/v1/probes/{topic}/", {"X-Auth-Token": TOKEN})
            return parses(lambda: RECORD_KEYS <= set(json.loads(body))), t1, 0
        if kind == "chart":
            body, t1 = self._get(f"{self.viz_url}/charts/{topic}.svg")
            return body.startswith(b"<svg"), t1, 0
        body, t1 = self._get(f"{self.viz_url}/stats/{topic}")
        return parses(lambda: STATS_KEYS <= set(json.loads(body))), t1, 0

    def run(self) -> None:
        try:
            self._loop()
        except BaseException:
            self.crash = traceback.format_exc()

    def _loop(self) -> None:
        period_ns = int(1e9 / READ_RATE_HZ)
        i = 0
        topic = self.topics[0]
        next_send = time.monotonic_ns()
        while not self.stop.is_set():
            delay = next_send - time.monotonic_ns()
            if delay > 0 and self.stop.wait(delay / 1e9):
                break
            kind = READ_KINDS[i % len(READ_KINDS)]
            if kind == "probes":
                topic = self.topics[self.rng.randrange(len(self.topics))]
            t0 = time.monotonic_ns()
            next_send = t0 + period_ns  # a late client sends at once
            try:
                body_ok, t1, samples_ns = self._one(kind, topic)
                answered = True
            except self.transport_errors as exc:
                body_ok, t1, samples_ns, answered = True, time.monotonic_ns(), 0, False
                self.last_error = repr(exc)
            self.records.append((kind, t0, t1, answered, body_ok, samples_ns))
            i += 1


def parses(check) -> bool:
    """``check()``, where any exception means the body did not parse."""
    try:
        return bool(check())
    except Exception:
        return False


# -- one run -----------------------------------------------------------------------


def run_workload(args) -> dict:
    from hosts import fleet_specs

    w = WORKLOADS[args.workload]
    roles = ["driver", "api"] + (["viz"] if w.viz else [])
    run_dir = os.path.join(OUT, f"work-{os.getpid()}")
    spans_dir = os.path.join(OUT, "spans", f"{w.name}-seed{args.seed}")
    measured_ticks = max(1, round(args.seconds / w.interval_s))
    base_cfg = {
        "workload": w.name, "seed": args.seed, "drivers": args.drivers,
        "trace": False, "consumers": len(roles) - 1, "spans_dir": spans_dir,
        "flush_period_s": FLUSH_SHARE * args.seconds,
    }
    specs = fleet_specs(base_cfg)
    topics = [t for s in specs for t in s.all_topics()]
    setups = []
    result: dict = {}
    shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
    try:
        for rep in range(SETUP_REPEATS):
            last = rep == SETUP_REPEATS - 1
            cfg = base_cfg | {
                "max_ticks": 1 + measured_ticks if last else 1,
                "trace": bool(args.trace) and last,
                "viz_dir": os.path.join(run_dir, f"viz{rep}"),
            }
            daemons = Daemons(cfg, roles)
            try:
                info = daemons.setup()
                setups.append(info["setup_s"])
                if last:
                    result = measure(daemons, info, w, args, topics)
            finally:
                daemons.close()
        if args.trace:
            from serial import run_serial
            result["serial"] = run_serial(w, specs, os.path.join(run_dir, "serial"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["setups"] = setups
    result["specs"] = specs
    result["topics"] = topics
    result["measured_ticks"] = measured_ticks
    return result


def measure(daemons: Daemons, info: dict, w, args, topics) -> dict:
    """Carry the last set-up on through the measured run and collect reports."""
    daemons.broadcast("mark")
    reader = None
    if w.reads:
        reader = ReadClient(info["urls"]["api"], info["urls"]["viz"], topics, args.seed)
        reader.start()
    t_trace_on = None
    if args.trace:
        time.sleep(max(0.0, info["t_ready"] + args.seconds / 2 - time.time()))
        t_trace_on = time.monotonic_ns()
        daemons.broadcast("trace_on")
    try:
        driver = daemons.recv("driver", "finished", args.seconds * 3 + 60.0)[0]
    finally:
        if reader is not None:
            reader.stop.set()
            reader.join(timeout=15.0)
    reports = {}
    for role in daemons.consumers:
        daemons.send(role, "report", driver["published"])
        reports[role] = daemons.recv(role, "report", 60.0)[0]
    return {"info": info, "driver": driver, "consumers": reports,
            "reads": reader.records if reader else [], "t_trace_on": t_trace_on,
            "read_error": reader.last_error if reader else None,
            "read_crash": reader.crash if reader else None,
            "read_alive": reader.is_alive() if reader else False}


# -- metrics and checks -----------------------------------------------------------


def analyse(args, r: dict) -> tuple[dict, dict, list[str], dict]:
    """Returns (metrics, report-only metrics, failed checks, counts)."""
    from wattbus.devices import emulate_power

    from checks import GAP_LIMIT_INTERVALS, kwh_matches, kwh_ref, quantize_ref
    from tracing import load_columns as load

    w = WORKLOADS[args.workload]
    specs, topics = r["specs"], r["topics"]
    driver, consumers = r["driver"], r["consumers"]
    failures: list[str] = []

    # reference input of every topic: (power-walk seed, w min, w max, precision)
    ref_args = [(spec.seed + outlet, spec.watts_min, spec.watts_max, spec.profile.precision_w)
                for spec in specs for outlet in range(1, spec.outlet_count + 1)]

    # per consumer: (probe, ts) -> ingest return; plus value checks
    delivered = {}
    ref_cache: dict[tuple[int, float], float] = {}
    bad_values = 0
    rows_by_role = {}
    for role, rep in consumers.items():
        rows = load(rep["rows"])
        rows_by_role[role] = rows
        if rep["rows"]["_overflow"]:
            failures.append(f"{role}: ledger overflow")
        if rep["unknown"]:
            failures.append(f"{role}: {rep['unknown']} measurements on unknown topics")
        done = {}
        for p, ts, wv, t in zip(rows["probe"], rows["ts"], rows["w"], rows["done"]):
            key = (p, ts)
            done[key] = t
            ref = ref_cache.get(key)
            if ref is None:
                seed, w_min, w_max, precision = ref_args[p]
                ref = ref_cache[key] = quantize_ref(
                    emulate_power(seed, ts, w_min, w_max), precision)
            if wv != ref:
                bad_values += 1
        delivered[role] = done
    if bad_values:
        failures.append(f"{bad_values} delivered w values differ from the reference")

    # every consumer's counters must be clean
    for role, rep in consumers.items():
        c = rep["counters"]
        for key in ("rejected", "malformed", "out_of_order"):
            if c.get(key, 0):
                failures.append(f"{role}: {key} = {c[key]}")

    # API kWh against a trapezoid sum over what the API was delivered
    api_rows = rows_by_role["api"]
    per_probe: dict[int, list] = {}
    for p, ts, wv in zip(api_rows["probe"], api_rows["ts"], api_rows["w"]):
        per_probe.setdefault(p, []).append((ts, wv))
    snapshot = consumers["api"]["counters"]["snapshot"]
    gap_limit = GAP_LIMIT_INTERVALS * w.interval_s
    kwh_bad = 0
    for p, samples in per_probe.items():
        rec = snapshot.get(topics[p])
        if (rec is None or not kwh_matches(rec["kwh"], kwh_ref(samples, gap_limit))
                or rec["w"] != samples[-1][1] or rec["timestamp"] != samples[-1][0]):
            kwh_bad += 1
    if kwh_bad:
        failures.append(f"{kwh_bad} probes: API kwh/w/timestamp differ from the reference")

    # lag: due = probe's first producer timestamp + k * interval, until the
    # last consumer's ingest returned; only measurements due after set-up
    maps = list(delivered.values())
    common = set(maps[0]).intersection(*maps[1:])
    first: dict[int, float] = {}
    for p, ts in common:
        if ts < first.get(p, math.inf):
            first[p] = ts
    t_ready = r["info"]["t_ready"]
    lags = []
    for key in common:
        p, ts = key
        due = first[p] + round((ts - first[p]) / w.interval_s) * w.interval_s
        if due >= t_ready:
            lags.append((max(m[key] for m in maps) - due) * 1e3)
    expected = len(topics) * (1 + r["measured_ticks"])
    if not lags:
        failures.append("no measurement was delivered after set-up")

    # reads
    reads = r["reads"]
    lat = {k: [(t1 - t0) / 1e6 for kind, t0, t1, ok, body_ok, _ in reads if kind == k and ok]
           for k in READ_KINDS}
    read_errors = sum(1 for rec in reads if not rec[3] or not rec[4])
    bad_bodies = sum(1 for rec in reads if rec[3] and not rec[4])
    if bad_bodies:
        failures.append(f"{bad_bodies} reads answered 200 with an unparseable body")
    if w.reads and not reads:
        failures.append("the read client sent nothing")
    if r["read_crash"]:
        failures.append("the read client died: " + r["read_crash"].strip().splitlines()[-1])
    if r["read_alive"]:
        failures.append("the read client did not stop")

    def rss_mb(rep):
        """Peak RSS less the benchmark's own preallocated bookkeeping."""
        return rep["maxrss_mb"] - rep["bookkeeping_mb"]

    setup_s = statistics.median(r["setups"])
    # DriverManager(stagger=True) starts driver i of n at i/n of an interval
    last_offset_s = (len(specs) - 1) / len(specs) * w.interval_s
    metrics = {
        "setup_s": setup_s,
        "driver_cpu_us_per_msg": driver["cpu_s"] / max(driver["published"], 1) * 1e6,
        "driver_rss_mb": rss_mb(driver),
        "api_rss_mb": rss_mb(consumers["api"]),
    }
    report = {
        "setup_unstaggered_s": setup_s - last_offset_s,
        "lag_p50_ms": pct(lags, 50),
        "lag_p99_ms": pct(lags, 99),
        "api_cpu_us_per_msg": consumers["api"]["cpu_s"] / max(consumers["api"]["ingested"], 1) * 1e6,
        "msg_lost_ratio": (expected - len(common)) / expected,
        "read_error_ratio": read_errors / len(reads) if reads else 0.0,
    }
    if "viz" in consumers:
        viz = consumers["viz"]
        report |= {
            "viz_cpu_us_per_msg": viz["cpu_s"] / max(viz["ingested"], 1) * 1e6,
            "viz_rss_mb": rss_mb(viz),
            "probes_read_p50_ms": pct(lat["probes"], 50),
            "probes_read_p95_ms": pct(lat["probes"], 95),
            "chart_read_p50_ms": pct(lat["chart"], 50),
            "chart_read_p95_ms": pct(lat["chart"], 95),
        }
    counts = {
        "expected_msgs": expected, "published": driver["published"],
        "delivered_to_all": len(common), "lag_samples": len(lags),
        "reads": len(reads), "read_errors": read_errors,
        "read_samples": {k: len(v) for k, v in lat.items()},
        "setups_s": r["setups"], "driver_drained": driver["drained"],
        "bookkeeping_mb": {role: rep["bookkeeping_mb"]
                           for role, rep in ({"driver": driver} | consumers).items()},
        "last_read_error": r.get("read_error"),
    }
    if not driver["drained"]:
        failures.append("driver publisher did not drain")
    return metrics, report, failures, counts


def per_layer(args, r: dict) -> tuple[dict, list[str], list[str], dict]:
    """Per-layer metrics of the traced half.

    Returns (metrics, missing, failed checks, counts for the report).
    """
    from tracing import load_columns as load

    w = WORKLOADS[args.workload]
    driver, consumers = r["driver"], r["consumers"]
    procs = {"driver": driver} | consumers
    missing_seams: list[str] = []
    missing_spans: set[str] = set()
    pooled: dict[str, list[int]] = {}
    for rep in procs.values():
        tr = rep["trace"]
        missing_seams += tr["missing"]
        missing_spans |= set(tr["missing_spans"])
        for name, agg in tr["aggregates"].items():
            acc = pooled.setdefault(name, [0, 0, 0, 0])
            for i in range(4):
                acc[i] += agg[i]

    def self_us(name):
        calls, _, self_cpu, _ = pooled.get(name, (0, 0, 0, 0))
        return self_cpu / calls / 1e3 if calls else 0.0

    def mean_wall_ms(name):
        calls, wall, _, _ = pooled.get(name, (0, 0, 0, 0))
        return wall / calls / 1e6 if calls else 0.0

    def phase(rep):
        """(CPU us/msg, context switches, messages) of the traced half."""
        a, b = rep["marks"]["trace_on"], rep["end"]
        msgs = b["msgs"] - a["msgs"]
        return (b["cpu_s"] - a["cpu_s"]) / max(msgs, 1) * 1e6, b["csw"] - a["csw"], msgs

    def overhead(rep):
        m, t = rep["marks"]["mark"], rep["marks"]["trace_on"]
        base = (t["cpu_s"] - m["cpu_s"]) / max(t["msgs"] - m["msgs"], 1) * 1e6
        traced, _, _ = phase(rep)
        return (traced / base - 1.0) * 100.0 if base else 0.0

    drv_cpu, drv_csw, drv_msgs = phase(driver)
    driver_self_us = (sum(agg[2] for agg in driver["trace"]["aggregates"].values())
                      / max(drv_msgs, 1) / 1e3)

    # transit: publish return (driver) -> decode entry (consumer), per message
    pubs = load(driver["trace"]["pubs"])
    pub_at = {(p, ts): t for p, ts, t in zip(pubs["probe"], pubs["ts"], pubs["t_ns"])}
    transit = []
    for rep in consumers.values():
        rows = load(rep["rows"])
        for p, ts, t in zip(rows["probe"], rows["ts"], rows["decode_ns"]):
            if t and (p, ts) in pub_at:
                transit.append((t - pub_at[(p, ts)]) / 1e6)

    # tick lateness: poll entry against the probe's most punctual tick
    polls = load(driver["trace"]["polls"])
    by_spec: dict[int, list] = {}
    for s, ts, t in zip(polls["spec"], polls["ts"], polls["t_ns"]):
        by_spec.setdefault(s, []).append((ts, t))
    late = []
    for rows in by_spec.values():
        ts0 = min(ts for ts, _ in rows)
        est = [t - round((ts - ts0) / w.interval_s) * w.interval_s * 1e9 for ts, t in rows]
        base = min(est)
        late += [(e - base) / 1e6 for e in est]

    # reads of the traced half
    t_on = r["t_trace_on"]
    reads = [rec for rec in r["reads"] if rec[1] >= t_on and rec[3]]
    probe_reads = [(t1 - t0) / 1e6 for kind, t0, t1, *_ in reads if kind == "probe"]
    samples_ms = [rec[5] / 1e6 for rec in reads if rec[0] == "probes"]
    snapshots = consumers["api"]["trace"]["kept"].get("energy.snapshot", [])
    overhead_ms = []
    for kind, t0, t1, *_ in reads:
        if kind != "probes":
            continue
        inside = [wall for start, wall in snapshots if t0 <= start <= t1]
        if len(inside) == 1:
            overhead_ms.append((t1 - t0 - inside[0]) / 1e6)

    api = consumers["api"]
    viz = consumers.get("viz")
    cons_csw = sum(phase(rep)[1] for rep in consumers.values())
    cons_msgs = sum(phase(rep)[2] for rep in consumers.values())
    viz_kept = viz["trace"]["kept"].get("viz.ingest", []) if viz else []
    flushes = pooled.get("viz.flush", [0])[0]
    serial = r["serial"]
    m = {
        "manager.threads_peak": driver["threads_peak"],
        "manager.csw_per_msg": drv_csw / max(drv_msgs, 1),
        "manager.tick_late_p99_ms": pct(late, 99),
        "manager.unattributed_us_per_msg": drv_cpu - driver_self_us,
        "manager.lost": driver["lost"],
        "devices.read.calls": pooled.get("devices.read", [0])[0],
        "devices.read.self_us": self_us("devices.read"),
        "devices.quantize.self_us": self_us("devices.quantize"),
        "model.encode.self_us": self_us("model.encode"),
        "model.decode.self_us": self_us("model.decode"),
        "model.decode.errors": sum(rep["counters"]["malformed"] for rep in consumers.values()),
        "signing.sign.self_us": self_us("signing.sign"),
        "signing.verify.self_us": self_us("signing.verify"),
        "signing.verify.failures": sum(rep["counters"]["rejected"] for rep in consumers.values()),
        "bus.publish.self_us": self_us("bus.publish"),
        "bus.frame_encode.self_us": self_us("bus.frame_encode"),
        "bus.transit_p50_ms": pct(transit, 50),
        "bus.transit_p99_ms": pct(transit, 99),
        "bus.queue_drops": driver["queue_drops"],
        "bus.bytes_per_msg": driver["bytes_sent"] / max(driver["frames_delivered"], 1),
        "bus.consumer_csw_per_msg": cons_csw / max(cons_msgs, 1),
        "energy.ingest.self_us": self_us("energy.ingest"),
        "energy.snapshot_ms": mean_wall_ms("energy.snapshot"),
        "energy.get_us": mean_wall_ms("energy.get") * 1e3,
        "energy.rejected": api["counters"]["rejected"],
        "energy.out_of_order": api["counters"]["out_of_order"],
        "energy.gaps": api["counters"]["gaps"],
        "rra.update.self_us": self_us("rra.update"),
        "rra.save_ms": mean_wall_ms("rra.save"),
        "rra.late_drops": viz["extra"]["late_drops"] if viz else 0,
        "viz.ingest.self_us": self_us("viz.ingest"),
        "viz.ingest_p999_ms": pct([wall / 1e6 for _, wall in viz_kept], 99.9),
        "viz.flush_ms": mean_wall_ms("viz.flush"),
        "viz.flush_mb": viz["extra"]["saved_bytes"] / flushes / 1e6 if viz and flushes else 0.0,
        "viz.render_chart_ms": mean_wall_ms("viz.render_chart"),
        "viz.stats_ms": mean_wall_ms("viz.stats"),
        "viz.renders": viz["counters"]["renders"] if viz else 0,
        "viz.cache_files": viz["counters"]["cache_files"] if viz else 0,
        "api.probe_read_p50_ms": pct(probe_reads, 50),
        "api.http_overhead_ms": pct(overhead_ms, 50),
        "pollster.samples_for_ms": statistics.fmean(samples_ms) if samples_ms else 0.0,
        "serial.us_per_msg": sum(serial["us_per_msg"].values()),
        **{f"serial.{stage}_us": us for stage, us in serial["us_per_msg"].items()},
        "trace.driver_cpu_us_per_msg": drv_cpu,
        "trace.overhead_pct.driver": overhead(driver),
        "trace.overhead_pct.api": overhead(api),
        "trace.overhead_pct.viz": overhead(viz) if viz else 0.0,
    }
    missing = [f"seam {s}" for s in missing_seams]
    missing += [f"serial.{s}" for s in serial["missing"]]
    for name in list(m):
        if (any(span in missing_spans for span in NEEDS.get(name, ()))
                or any(name.startswith(span + ".") or name.startswith(span + "_")
                       for span in missing_spans)):
            missing.append(name)
            del m[name]
    if missing_spans:  # the driver-side sum is incomplete without every seam
        m.pop("manager.unattributed_us_per_msg", None)
        missing.append("manager.unattributed_us_per_msg")
    if serial["missing"]:
        for name in [n for n in m if n.startswith("serial.")]:
            missing.append(name)
            del m[name]
    counts = {"traced_driver_msgs": drv_msgs,
              "driver_self_us_per_msg": driver_self_us,
              "spans_written": {role: rep["trace"]["spans_written"]
                                for role, rep in procs.items()}}
    return m, sorted(set(missing)), list(serial["checks"]), counts


# -- entry ------------------------------------------------------------------------


def git_revision() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--drivers", type=int, default=None,
                    help="shrink the fleet to this many drivers (smoke tests only)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wattbus", "__init__.py")):
        print(f"perfbench: no wattbus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        r = run_workload(args)
        metrics, report, failures, counts = analyse(args, r)
        if r["read_crash"]:
            print(r["read_crash"], file=sys.stderr)
        missing: list[str] = []
        if args.trace:
            layer, missing, serial_checks, layer_counts = per_layer(args, r)
            failures += serial_checks
            counts |= layer_counts
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "drivers": args.drivers, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_revision": git_revision(),
    }
    units = END_TO_END | REPORT_ONLY | PER_LAYER
    shown = metrics | report | (layer if args.trace else {})
    print(f"# perfbench {json.dumps(meta)}")
    for name, value in shown.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# counts {json.dumps(counts)}")
    for name in missing:
        print(f"# missing: {name}")
    for failure in failures:
        print(f"# CHECK FAILED: {failure}")
    if args.trace:
        print(f"# spans: {os.path.relpath(os.path.join(OUT, 'spans'), ROOT)}/"
              f"{args.workload}-seed{args.seed}/")

    chosen = layer if args.trace else metrics
    table = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not failures,
        "attempted": counts["expected_msgs"] + counts["reads"],
        "failed": counts["expected_msgs"] - counts["delivered_to_all"] + counts["read_errors"],
        "metrics": {name: {"value": chosen[name], "unit": table[name]}
                    for name in table if name in chosen},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    out_path = os.path.join(OUT, "results",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": shown, "counts": counts,
                   "missing": missing, "failures": failures, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
