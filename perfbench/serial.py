"""Single-thread serial baseline: the same stream through the layer functions.

No sockets, no threads: one workload's fleet is polled, signed, encoded,
framed, parsed, decoded and ingested stage by stage in the calling thread.
One tick is pushed through first so that lazy per-probe state (meter
records, archives) exists before timing starts.
"""

from __future__ import annotations

import time

from workloads import SECRET

EPOCH = 1_700_000_000.0  # producer clock of the serial stream
TIMED_TICKS = 3

STAGES = ("poll_once", "sign", "encode_measurement", "frame_encode",
          "frame_decode", "decode_measurement", "meter_ingest", "viz_ingest")


def _resolve():
    """The layer functions, or None where the program no longer has one."""
    import wattbus.bus as bus
    import wattbus.energy as energy
    import wattbus.manager as manager
    import wattbus.model as model
    import wattbus.signing as signing
    import wattbus.viz as viz

    return {
        "poll_once": getattr(manager, "poll_once", None),
        "sign": getattr(signing, "sign", None),
        "encode_measurement": getattr(model, "encode_measurement", None),
        "frame_encode": getattr(bus, "frame_encode", None),
        "frame_decode": getattr(bus, "frame_decode", None),
        "decode_measurement": getattr(model, "decode_measurement", None),
        "meter_ingest": getattr(getattr(energy, "MeterState", None), "ingest", None),
        "viz_ingest": getattr(getattr(viz, "VizState", None), "ingest", None),
    }


def run_serial(workload, specs, data_dir: str) -> dict:
    """Returns {"us_per_msg": {stage: us}, "missing": [...], "checks": [...]}."""
    from wattbus.bus import Frame
    from wattbus.config import VizConfig
    from wattbus.devices import make_device
    from wattbus.energy import MeterState, gap_limits_from_probes
    from wattbus.viz import VizState

    fns = _resolve()
    missing = [name for name, fn in fns.items() if fn is None]
    if missing:
        return {"us_per_msg": {}, "missing": missing, "checks": []}
    secret = SECRET if workload.signing else None
    devices = [make_device(spec, EPOCH) for spec in specs]
    meter = MeterState(secret=secret, gap_limits=gap_limits_from_probes(specs))
    vizstate = VizState(VizConfig(data_dir=data_dir), secret=secret) if workload.viz else None
    ns = dict.fromkeys(STAGES, 0)
    count = 0

    def timed(stage, fn, items):
        t0 = time.perf_counter_ns()
        out = [fn(x) for x in items]
        ns[stage] += time.perf_counter_ns() - t0
        return out

    for tick in range(TIMED_TICKS + 1):
        now = EPOCH + tick * workload.interval_s
        t0 = time.perf_counter_ns()
        ms = [m for spec, dev in zip(specs, devices)
              for m in fns["poll_once"](spec, dev, now)]
        ns["poll_once"] += time.perf_counter_ns() - t0
        if secret is not None:
            ms = timed("sign", lambda m: fns["sign"](m, secret), ms)
        payloads = timed("encode_measurement", fns["encode_measurement"], ms)
        frames = [Frame(m.probe.topic, p) for m, p in zip(ms, payloads)]
        wire = timed("frame_encode", fns["frame_encode"], frames)
        parsed = timed("frame_decode", fns["frame_decode"], wire)
        decoded = timed("decode_measurement", fns["decode_measurement"],
                        [f.payload for f in parsed])
        timed("meter_ingest", meter.ingest, decoded)
        if vizstate is not None:
            timed("viz_ingest", vizstate.ingest, decoded)
        if tick == 0:  # warm-up tick: lazy per-probe state
            ns = dict.fromkeys(STAGES, 0)
        else:
            count += len(ms)
    checks = []
    if decoded != ms:
        checks.append("serial: decoded measurements differ from the polled ones")
    c = meter.counters()
    if c.ingested != count + len(ms) or c.rejected or c.out_of_order:
        checks.append(f"serial: meter counters {c}")
    if vizstate is not None and (vizstate.rejected or vizstate.ingested != c.ingested):
        checks.append("serial: viz ingested/rejected mismatch")
    us = {stage: ns[stage] / count / 1e3 for stage in STAGES}
    return {"us_per_msg": us, "missing": [], "checks": checks}
