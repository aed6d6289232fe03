"""Daemon host processes of the benchmark.

    python3 perfbench/hosts.py ROLE FD

Each host runs one wattbus daemon the way its CLI entry does (``wattbus
drivers``, ``wattbus api``, ``wattbus viz``) and talks to the orchestrating
parent (``run.py``) over the socket inherited as FD.  The parent first sends
the run's config, then commands; a host answers with events:

    driver   -> ("endpoint", url), ("finished", stats)
    consumer <- ("connect", url);  -> ("listening", url), ("ready", t),
                                      ("report", stats)
    all      <- ("mark",), ("trace_on",), ("exit",)

``mark`` and ``trace_on`` snapshot CPU and message counts, so the traced run
can compare its untraced half against its traced half.
"""

from __future__ import annotations

import os
import resource
import sys
import threading
import time
import traceback

from tracing import Columns, Tracer, msg_of_measurement_arg
from workloads import SECRET, TOKEN, WORKLOADS


def peak_rss_mb() -> float:
    """VmHWM of this process, in MiB.

    ru_maxrss is no good here: Linux carries it over exec, so a host would
    report the parent's size whenever that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def usage() -> dict:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": r.ru_utime + r.ru_stime, "csw": r.ru_nvcsw + r.ru_nivcsw,
            "maxrss_mb": peak_rss_mb()}


def fleet_specs(cfg: dict):
    from wattbus.bench import Scenario, build_fleet

    w = WORKLOADS[cfg["workload"]]
    scenario = Scenario(w.name, w.fleet, w.signing, w.interval_s, w.interval_s,
                        drivers=cfg.get("drivers"))
    return build_fleet(scenario, base_seed=cfg["seed"])


def host_main(role: str, conn, cfg: dict) -> None:
    """Run one host until the parent says exit."""
    try:
        host = {"driver": DriverHost, "api": ApiHost, "viz": VizHost}[role](conn, cfg)
        host.run()
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
        raise


class DriverHost:
    """Publisher + DriverManager, as ``wattbus drivers`` runs them."""

    def __init__(self, conn, cfg: dict):
        self.conn = conn
        self.cfg = cfg
        self.workload = WORKLOADS[cfg["workload"]]
        self.specs = fleet_specs(cfg)
        self.tracer = Tracer() if cfg["trace"] else None
        self.marks: dict[str, dict] = {}
        capacity = sum(s.outlet_count for s in self.specs) * (cfg["max_ticks"] + 2)
        # traced half only: publish return per message, poll entry per tick
        self.pubs = Columns(capacity if self.tracer else 0, probe="i", ts="d", t_ns="q")
        self.polls = Columns(len(self.specs) * (cfg["max_ticks"] + 2) if self.tracer else 0,
                             spec="i", ts="d", t_ns="q")

    def run(self) -> None:
        import inspect

        from wattbus.bus import Endpoint, Publisher
        from wattbus.devices import make_device
        from wattbus.manager import DriverManager

        publisher = Publisher(Endpoint("tcp", host="127.0.0.1", port=0))
        self.conn.send(("endpoint", str(publisher.endpoint)))
        kwargs = {}
        pub_arg = publisher
        if self.tracer is not None:
            pub_arg = _TracedPublisher(publisher, self.tracer, self.pubs, self._topic_index())
            if "device_factory" in inspect.signature(DriverManager).parameters:
                kwargs["device_factory"] = self._traced_device_factory(make_device)
            else:
                self.tracer.missing.append("DriverManager(device_factory=) -> devices.read")
                self.tracer.missing_spans.add("devices.read")
        manager = DriverManager(
            self.specs, pub_arg,
            secret=SECRET if self.workload.signing else None,
            max_ticks=self.cfg["max_ticks"], stagger=True, **kwargs)
        deadline = time.monotonic() + 60.0
        while publisher.subscriber_count < self.cfg["consumers"]:
            if time.monotonic() > deadline:
                raise RuntimeError("consumers never registered with the publisher")
            time.sleep(0.002)
        u0 = usage()
        manager.start()
        threads_peak = threading.active_count()
        finished = False
        try:
            while True:
                threads_peak = max(threads_peak, threading.active_count())
                if self.conn.poll(0.05):
                    cmd = self.conn.recv()[0]
                    if cmd == "exit":
                        break
                    if cmd == "trace_on":
                        self._install_patches()
                    self.marks[cmd] = usage() | {"msgs": manager.total_published}
                if not finished and manager.wait_finished(timeout=0):
                    finished = True
                    manager.stop()
                    drained = publisher.drain(timeout=30.0)
                    end = usage()
                    self.conn.send(("finished", {
                        "published": manager.total_published,
                        "lost": manager.total_lost,
                        "queue_drops": publisher.drops,
                        "bytes_sent": publisher.bytes_sent,
                        "frames_delivered": publisher.frames_delivered,
                        "drained": drained,
                        "cpu_s": end["cpu_s"] - u0["cpu_s"],
                        "csw": end["csw"] - u0["csw"],
                        "maxrss_mb": end["maxrss_mb"],
                        "bookkeeping_mb": (self.pubs.nbytes + self.polls.nbytes) / 2**20,
                        "threads_peak": threads_peak,
                        "marks": self.marks,
                        "end": end | {"msgs": manager.total_published},
                        **self._trace_results(),
                    }))
        finally:
            manager.stop()
            publisher.close(drain_timeout=0)

    def _topic_index(self) -> dict[str, int]:
        topics = [t for s in self.specs for t in s.all_topics()]
        return {t: i for i, t in enumerate(topics)}

    def _traced_device_factory(self, make_device):
        tracer = self.tracer

        def factory(spec, start_time):
            return _TracedDevice(make_device(spec, start_time), spec, tracer)
        return factory

    def _install_patches(self) -> None:
        if self.tracer is None:
            return
        import wattbus.bus
        import wattbus.manager
        import wattbus.signing

        tracer = self.tracer
        spec_index = {s.topic: i for i, s in enumerate(self.specs)}
        polls = self.polls

        def poll_hook(st, args, result, t0, t1):
            if not result:
                return None
            topic, ts = args[0].topic, result[0].timestamp
            polls.append(spec_index[topic], ts, t0)
            return (topic, ts)

        def encode_hook(st, args, result, t0, t1):
            m = args[0]
            st.last_msg = (m.probe.topic, m.timestamp)  # the frame published next
            return st.last_msg

        mod = wattbus.manager
        tracer.patch(mod, "poll_once", "manager.poll_once", poll_hook,
                     label="wattbus.manager.poll_once")
        tracer.patch(mod, "quantize", "devices.quantize", label="wattbus.manager.quantize")
        tracer.patch(mod, "sign", "signing.sign", msg_of_measurement_arg,
                     label="wattbus.manager.sign")
        tracer.patch(mod, "encode_measurement", "model.encode", encode_hook,
                     label="wattbus.manager.encode_measurement")
        tracer.patch(wattbus.signing, "encode_measurement", "model.encode",
                     msg_of_measurement_arg, label="wattbus.signing.encode_measurement")
        tracer.patch(wattbus.bus, "frame_encode", "bus.frame_encode",
                     label="wattbus.bus.frame_encode")
        tracer.on = True

    def _trace_results(self) -> dict:
        if self.tracer is None:
            return {}
        path = os.path.join(self.cfg["spans_dir"], "driver.jsonl")
        return {"trace": {
            "aggregates": self.tracer.aggregates(),
            "missing": self.tracer.missing,
            "missing_spans": sorted(self.tracer.missing_spans),
            "spans_written": self.tracer.write_spans(path, "driver"),
            "pubs": self.pubs.export(),
            "polls": self.polls.export(),
        }}


class _TracedDevice:
    """Device proxy handed out through ``device_factory``."""

    def __init__(self, inner, spec, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        topic = spec.topic
        self._traced_read = tracer.wrap(
            "devices.read", inner.read,
            lambda st, args, result, t0, t1: (topic, result[0].timestamp) if result else None)

    def read(self, now):
        if self._tracer.on:
            return self._traced_read(now)
        return self._inner.read(now)


class _TracedPublisher:
    """Publisher proxy handed to DriverManager as its ``publisher``."""

    def __init__(self, publisher, tracer: Tracer, pubs: Columns, index: dict[str, int]):
        self._publisher = publisher
        self._tracer = tracer

        def hook(st, args, result, t0, t1):
            msg = st.last_msg
            if msg is not None:
                pubs.append(index[msg[0]], msg[1], t1)
            return msg
        self._traced = tracer.wrap("bus.publish", publisher.publish, hook)

    def publish(self, frame) -> None:
        if self._tracer.on:
            self._traced(frame)
        else:
            self._publisher.publish(frame)

    def __getattr__(self, name):
        return getattr(self._publisher, name)


class Ledger:
    """Fixed-size per-message log kept beside a consumer state's ``ingest``.

    It records topic, producer timestamp, watts and the wall time ingest
    returned, and notes when every probe has been ingested once.
    """

    def __init__(self, topics: list[str], capacity: int, inner):
        self.index = {t: i for i, t in enumerate(topics)}
        self.inner = inner
        self.rows = Columns(capacity, probe="i", ts="d", w="d", done="d", decode_ns="q")
        self.n = 0
        self.unknown = 0
        self._unseen = bytearray(b"\x01") * len(topics)
        self._missing = len(topics)
        self.all_seen_at: float | None = None
        self.entry_ns = None  # traced half: decode entry of the current message

    def ingest(self, m) -> None:
        self.inner(m)
        done = time.time()
        p = self.index.get(m.probe.topic)
        if p is None:
            self.unknown += 1
            return
        self.rows.append(p, m.timestamp, m.watts, done,
                         self.entry_ns() if self.entry_ns is not None else 0)
        self.n += 1
        if self._unseen[p]:
            self._unseen[p] = 0
            self._missing -= 1
            if self._missing == 0:
                self.all_seen_at = done


class ConsumerHost:
    """Shared loop of the API and viz hosts."""

    role = ""

    def __init__(self, conn, cfg: dict):
        self.conn = conn
        self.cfg = cfg
        self.workload = WORKLOADS[cfg["workload"]]
        self.specs = fleet_specs(cfg)
        self.topics = [t for s in self.specs for t in s.all_topics()]
        self.secret = SECRET if self.workload.signing else None
        self.tracer = Tracer(keep=("viz.ingest", "energy.snapshot")) if cfg["trace"] else None
        self.marks: dict[str, dict] = {}
        self.extra = {"late_drops": 0, "saved_bytes": 0}

    def build(self):
        """Return (state, server) constructed as the daemon's CLI entry does."""
        raise NotImplementedError

    def counters(self) -> dict:
        raise NotImplementedError

    def state_patches(self) -> list[tuple[str, str]]:
        """(method, span name) pairs wrapped on the state instance."""
        raise NotImplementedError

    def module_patches(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        from wattbus.bus import Endpoint

        self.state, self.server = self.build()
        capacity = len(self.topics) * (self.cfg["max_ticks"] + 2)
        self.ledger = Ledger(self.topics, capacity, self.state.ingest)
        self.state.ingest = self.ledger.ingest
        url = self._expect("connect")[0]
        self.server.start(subscribe=Endpoint.parse(url))
        u0 = usage()
        self.conn.send(("listening", self.server.url))
        ready_sent = False
        while True:
            if not ready_sent and self.ledger.all_seen_at is not None:
                self.conn.send(("ready", self.ledger.all_seen_at))
                ready_sent = True
            if not self.conn.poll(0.02):
                continue
            cmd = self.conn.recv()
            if cmd[0] == "exit":
                break
            if cmd[0] == "report":
                self._wait_ingested(cmd[1])
                self.conn.send(("report", self._report(u0)))
                continue
            if cmd[0] == "trace_on":
                self._install_patches()
            self.marks[cmd[0]] = usage() | {"msgs": self.ledger.n}
        self.close()

    def close(self) -> None:
        self.server.close()

    def _expect(self, kind: str):
        msg = self.conn.recv()
        if msg[0] != kind:
            raise RuntimeError(f"{self.role}: expected {kind!r}, got {msg[0]!r}")
        return msg[1:]

    def _wait_ingested(self, expected: int) -> None:
        """Let ingest catch up with what the driver published."""
        last, since = self.ledger.n, time.monotonic()
        while self.ledger.n < expected and time.monotonic() - since < 10.0:
            time.sleep(0.01)
            if self.ledger.n != last:
                last, since = self.ledger.n, time.monotonic()

    def _install_patches(self) -> None:
        if self.tracer is None:
            return
        tracer = self.tracer

        def decode_hook(st, args, result, t0, t1):
            st.last_entry_ns = t0  # read back by the ledger on the same thread
            return (result.probe.topic, result.timestamp)

        self.decode_hook = decode_hook
        self.module_patches()
        for method, name in self.state_patches():
            if method == "ingest":
                self.ledger.inner = tracer.wrap(name, self.ledger.inner, msg_of_measurement_arg)
            else:
                tracer.patch(self.state, method, name,
                             label=f"{type(self.state).__name__}.{method}")
        self.ledger.entry_ns = lambda: tracer.state().last_entry_ns
        tracer.on = True

    def _report(self, u0: dict) -> dict:
        end = usage()
        report = {
            "ingested": self.ledger.n,
            "unknown": self.ledger.unknown,
            "counters": self.counters(),
            "cpu_s": end["cpu_s"] - u0["cpu_s"],
            "csw": end["csw"] - u0["csw"],
            "maxrss_mb": end["maxrss_mb"],
            "bookkeeping_mb": self.ledger.rows.nbytes / 2**20,
            "marks": self.marks,
            "end": end | {"msgs": self.ledger.n},
            "rows": self.ledger.rows.export(),
            "extra": dict(self.extra),
        }
        if self.tracer is not None:
            path = os.path.join(self.cfg["spans_dir"], f"{self.role}.jsonl")
            report["trace"] = {
                "aggregates": self.tracer.aggregates(),
                "kept": self.tracer.kept(),
                "missing": self.tracer.missing,
                "missing_spans": sorted(self.tracer.missing_spans),
                "spans_written": self.tracer.write_spans(path, self.role),
            }
        return report


class ApiHost(ConsumerHost):
    """MeterState + ApiServer, as ``wattbus api`` builds them."""

    role = "api"

    def build(self):
        from wattbus.api import ApiServer, StaticTokenValidator
        from wattbus.config import ApiConfig
        from wattbus.energy import MeterState, gap_limits_from_probes

        state = MeterState(secret=self.secret, gap_limit_s=ApiConfig().gap_limit_s,
                           gap_limits=gap_limits_from_probes(self.specs))
        self._snapshot = state.snapshot
        server = ApiServer(state, ("127.0.0.1", 0), StaticTokenValidator([TOKEN]))
        return state, server

    def counters(self) -> dict:
        c = self.state.counters()
        return {"ingested": c.ingested, "rejected": c.rejected, "malformed": c.malformed,
                "out_of_order": c.out_of_order, "gaps": c.gaps, "evictions": c.evictions,
                "snapshot": self._snapshot()}

    def state_patches(self):
        return [("ingest", "energy.ingest"), ("snapshot", "energy.snapshot"),
                ("get", "energy.get")]

    def module_patches(self) -> None:
        import wattbus.api
        import wattbus.energy
        import wattbus.signing

        t = self.tracer
        t.patch(wattbus.api, "decode_measurement", "model.decode", self.decode_hook,
                label="wattbus.api.decode_measurement")
        t.patch(wattbus.energy, "verify", "signing.verify", msg_of_measurement_arg,
                label="wattbus.energy.verify")
        t.patch(wattbus.signing, "encode_measurement", "model.encode", msg_of_measurement_arg,
                label="wattbus.signing.encode_measurement")


class VizHost(ConsumerHost):
    """VizState + VizServer, as ``wattbus viz`` builds them, in a temp data dir."""

    role = "viz"

    def build(self):
        from wattbus.config import VizConfig
        from wattbus.viz import VizServer, VizState

        data_dir = self.cfg["viz_dir"]
        self.cache_dir = os.path.join(data_dir, "charts")
        state = VizState(VizConfig(data_dir=data_dir), secret=self.secret,
                         cache_dir=self.cache_dir)
        server = VizServer(state, ("127.0.0.1", 0),
                           flush_period_s=self.cfg["flush_period_s"])
        return state, server

    def counters(self) -> dict:
        return {"ingested": self.state.ingested, "rejected": self.state.rejected,
                "malformed": self.state.malformed, "renders": self.state.render_count,
                "cache_files": len(os.listdir(self.cache_dir))}

    def state_patches(self):
        return [("ingest", "viz.ingest"), ("flush", "viz.flush"),
                ("render_chart", "viz.render_chart"), ("stats", "viz.stats")]

    def module_patches(self) -> None:
        import wattbus.signing
        import wattbus.viz
        from wattbus.rra import RoundRobinArchive

        t = self.tracer
        extra = self.extra

        def update_hook(st, args, result, t0, t1):
            if result is False:
                extra["late_drops"] += 1

        def save_hook(st, args, result, t0, t1):
            extra["saved_bytes"] += os.path.getsize(args[1])

        t.patch(wattbus.viz, "decode_measurement", "model.decode", self.decode_hook,
                label="wattbus.viz.decode_measurement")
        t.patch(wattbus.viz, "verify", "signing.verify", msg_of_measurement_arg,
                label="wattbus.viz.verify")
        t.patch(wattbus.signing, "encode_measurement", "model.encode", msg_of_measurement_arg,
                label="wattbus.signing.encode_measurement")
        t.patch(RoundRobinArchive, "update", "rra.update", update_hook,
                label="RoundRobinArchive.update")
        t.patch(RoundRobinArchive, "save", "rra.save", save_hook,
                label="RoundRobinArchive.save")

    def close(self) -> None:
        # VizServer.close() ends with a full flush of every archive, which
        # only lengthens teardown; the measured flushes ran in the flush loop.
        os._exit(0)


def main(argv: list[str]) -> None:
    from multiprocessing.connection import Connection

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    role, conn = argv[1], Connection(int(argv[2]))
    code = 0
    try:
        host_main(role, conn, conn.recv())
    except BaseException:
        traceback.print_exc()
        code = 1
    # end here even if a thread of the program is still alive
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main(sys.argv)
