"""Workloads and metric tables of the wattbus benchmark.

Every workload runs the real daemons in their deployed process layout: one
driver process (``DriverManager`` + ``Publisher``), one process per consumer
daemon, and the orchestrating parent.  The load is the program's own
emulated fleet from ``wattbus.bench.build_fleet``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    fleet: str  # key of wattbus.bench.FLEETS
    signing: bool
    interval_s: float
    viz: bool  # run a viz daemon beside the API daemon
    reads: bool  # run the closed-loop read client
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "ipmi-signed", "ipmi", True, 1.0, viz=False, reads=False,
        why="1,000 signed IPMI cards at 1 s: one thread wake plus a sign and a "
            "verify per message, so manager and signing dominate"),
    Workload(
        "pdu-unsigned-5k", "pdu", False, 0.2, viz=False, reads=False,
        why="100 unsigned ten-outlet PDUs at 0.2 s: 5,000 msg/s through bus, "
            "model and energy from 100 threads, no signing"),
    Workload(
        "dashboard", "pdu", True, 1.0, viz=True, reads=True,
        why="100 signed PDUs at 1 s fanned out to API and viz with a read "
            "client: viz flush, archives and chart renders beside writes"),
)}

# Shared secret and API token handed to the daemons as configuration.
SECRET = b"perfbench-shared-secret-01"
TOKEN = "perfbench-token"

# The benchmark sets the daemon up this many times per run; setup_s is the
# median, and the last set-up carries on into the measured run.
SETUP_REPEATS = 5

# Viz flush period as a share of the run: flushes land at 0.4 and about 0.8
# of the run, so every run holds exactly two, one in each half (the traced
# run switches tracing on at the half).
FLUSH_SHARE = 0.4

READ_RATE_HZ = 20.0

# Name -> unit.  END_TO_END is what a --trace 0 run prints in its result
# line; every one of them exists on every workload and is never zero.
END_TO_END = {
    "setup_s": "s",
    "driver_cpu_us_per_msg": "us",
    "driver_rss_mb": "MB",
    "api_rss_mb": "MB",
}

# Printed in the report of every run but kept out of the result line.  The
# lag percentiles and the API's CPU per message follow the host's load from
# run to run beyond the largest bound allowed, and set-up time less the
# drivers' staggered first ticks spreads too widely for one (see README.md,
# Steadiness); the failure shares are zero on a healthy run (they are
# counted in attempted/failed instead); the rest exist only in `dashboard`.
REPORT_ONLY = {
    "setup_unstaggered_s": "s",
    "lag_p50_ms": "ms",
    "lag_p99_ms": "ms",
    "api_cpu_us_per_msg": "us",
    "msg_lost_ratio": "ratio",
    "read_error_ratio": "ratio",
    "viz_cpu_us_per_msg": "us",
    "viz_rss_mb": "MB",
    "probes_read_p50_ms": "ms",
    "probes_read_p95_ms": "ms",
    "chart_read_p50_ms": "ms",
    "chart_read_p95_ms": "ms",
}

# What a --trace 1 run prints.  A layer that does no work in a workload
# (viz outside `dashboard`, signing in `pdu-unsigned-5k`) reads 0; a seam
# the program no longer has is left out and named under "missing".
PER_LAYER = {
    "manager.threads_peak": "count",
    "manager.csw_per_msg": "csw/msg",
    "manager.tick_late_p99_ms": "ms",
    "manager.unattributed_us_per_msg": "us/msg",
    "manager.lost": "count",
    "devices.read.calls": "count",
    "devices.read.self_us": "us",
    "devices.quantize.self_us": "us",
    "model.encode.self_us": "us",
    "model.decode.self_us": "us",
    "model.decode.errors": "count",
    "signing.sign.self_us": "us",
    "signing.verify.self_us": "us",
    "signing.verify.failures": "count",
    "bus.publish.self_us": "us",
    "bus.frame_encode.self_us": "us",
    "bus.transit_p50_ms": "ms",
    "bus.transit_p99_ms": "ms",
    "bus.queue_drops": "count",
    "bus.bytes_per_msg": "B",
    "bus.consumer_csw_per_msg": "csw/msg",
    "energy.ingest.self_us": "us",
    "energy.snapshot_ms": "ms",
    "energy.get_us": "us",
    "energy.rejected": "count",
    "energy.out_of_order": "count",
    "energy.gaps": "count",
    "rra.update.self_us": "us",
    "rra.save_ms": "ms",
    "rra.late_drops": "count",
    "viz.ingest.self_us": "us",
    "viz.ingest_p999_ms": "ms",
    "viz.flush_ms": "ms",
    "viz.flush_mb": "MB",
    "viz.render_chart_ms": "ms",
    "viz.stats_ms": "ms",
    "viz.renders": "count",
    "viz.cache_files": "count",
    "api.probe_read_p50_ms": "ms",
    "api.http_overhead_ms": "ms",
    "pollster.samples_for_ms": "ms",
    "serial.us_per_msg": "us/msg",
    "serial.poll_once_us": "us/msg",
    "serial.sign_us": "us/msg",
    "serial.encode_measurement_us": "us/msg",
    "serial.frame_encode_us": "us/msg",
    "serial.frame_decode_us": "us/msg",
    "serial.decode_measurement_us": "us/msg",
    "serial.meter_ingest_us": "us/msg",
    "serial.viz_ingest_us": "us/msg",
    "trace.driver_cpu_us_per_msg": "us/msg",
    "trace.overhead_pct.driver": "%",
    "trace.overhead_pct.api": "%",
    "trace.overhead_pct.viz": "%",
}
