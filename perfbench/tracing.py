"""Spans around the seams the program already exposes, plus fixed-size logs.

A traced process wraps module-level names the layers call through (for
example ``wattbus.manager.sign``), instance methods of the consumer states
and the ``device_factory`` / ``publisher`` arguments of ``DriverManager``.
It changes no file of the program.

Each span records its name, start and end (``time.monotonic_ns``, one clock
for every process on the host), its parent on the same thread and, where
one is known, a message id (topic, producer timestamp).  Self time is taken
from the thread's CPU clock (span CPU minus the CPU its child spans cover),
so time a thread spends waiting for the interpreter lock is not charged to
the layer it happens to be in.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from array import array
from time import monotonic_ns, thread_time_ns

# Spans kept per process for the span file; the aggregates cover every span.
SPAN_CAP = 100_000


class Columns:
    """Preallocated column arrays with a thread-safe append cursor.

    Per-message bookkeeping in the daemons goes here.  It is allocated
    once, before the run, at a capacity the caller sizes from the fleet and
    the run length, so it neither grows during a run nor varies from run to
    run; ``nbytes`` is what it adds to the process's RSS.
    """

    def __init__(self, capacity: int, **typecodes: str):
        self.capacity = capacity
        # array * n fills in place: no temporary of the column's size, which
        # would otherwise show in the process's peak RSS
        self.cols = {name: array(code, [0]) * capacity for name, code in typecodes.items()}
        self._cursor = itertools.count()  # next() is atomic under the GIL
        self.overflow = 0

    def append(self, *values) -> None:
        i = next(self._cursor)
        if i >= self.capacity:
            self.overflow += 1
            return
        for col, value in zip(self.cols.values(), values):
            col[i] = value

    @property
    def nbytes(self) -> int:
        return sum(col.itemsize * len(col) for col in self.cols.values())

    def export(self) -> dict:
        """Column bytes of the filled rows; call once appends have stopped."""
        n = min(next(self._cursor), self.capacity)
        return {name: col[:n].tobytes() for name, col in self.cols.items()} | {
            "_types": {name: col.typecode for name, col in self.cols.items()},
            "_overflow": self.overflow}


def load_columns(blob: dict) -> dict[str, array]:
    out = {}
    for name, code in blob["_types"].items():
        col = array(code)
        col.frombytes(blob[name])
        out[name] = col
    return out


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list = []
        self.agg: dict[int, list[int]] = {}
        self.kept: dict[int, list[tuple[int, int]]] = {}
        self.spans: list[tuple] = []
        self.last_msg = None
        self.last_entry_ns = 0


class Tracer:
    """Records spans for the functions it wraps.

    Seams that must be in place before the daemon starts (a device or
    publisher proxy) check ``on`` and stay pass-through until it is set.
    """

    def __init__(self, keep=()):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._span_ids = itertools.count()
        self._keep = set(keep)
        self.on = False
        self.missing: list[str] = []  # "seam -> span name" that could not be wrapped
        self.missing_spans: set[str] = set()

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            self._threads.append(st)  # outlives the thread
        return st

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        """``fn`` inside a span; ``hook(st, args, result, t0, t1)`` -> msg id."""
        nid = self._name_id(name)
        keep = name in self._keep
        tracer = self

        def traced(*args, **kwargs):
            st = tracer.state()
            stack = st.stack
            parent = stack[-1][2] if stack else -1
            frame = [0, 0, next(tracer._span_ids)]  # child cpu, child wall, id
            stack.append(frame)
            t0 = monotonic_ns()
            c0 = thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(st, nid, frame, parent, t0, c0, keep, None)
                raise
            msg = None
            if hook is not None:
                msg = hook(st, args, result, t0, monotonic_ns())
            tracer._close(st, nid, frame, parent, t0, c0, keep, msg)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, st, nid, frame, parent, t0, c0, keep, msg) -> None:
        c1 = thread_time_ns()
        t1 = monotonic_ns()
        st.stack.pop()
        cpu = c1 - c0
        wall = t1 - t0
        if st.stack:
            up = st.stack[-1]
            up[0] += cpu
            up[1] += wall
        agg = st.agg.get(nid)
        if agg is None:
            agg = st.agg[nid] = [0, 0, 0, 0]
        agg[0] += 1
        agg[1] += wall
        agg[2] += cpu - frame[0]
        agg[3] += wall - frame[1]
        if keep:
            st.kept.setdefault(nid, []).append((t0, wall))
        if frame[2] < SPAN_CAP:
            st.spans.append((frame[2], nid, st.ident, parent, t0, t1, msg))

    def patch(self, owner, attr: str, name: str, hook=None, label: str | None = None):
        """Replace ``owner.attr`` by its traced version; note it if absent."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{label or attr} -> {name}")
            self.missing_spans.add(name)
            return None
        traced = self.wrap(name, fn, hook)
        setattr(owner, attr, traced)
        return traced

    # -- results ------------------------------------------------------------

    def aggregates(self) -> dict[str, list[int]]:
        """name -> [calls, wall ns, self cpu ns, self wall ns]."""
        out: dict[str, list[int]] = {}
        for st in list(self._threads):
            for nid, agg in list(st.agg.items()):
                acc = out.setdefault(self.names[nid], [0, 0, 0, 0])
                for i in range(4):
                    acc[i] += agg[i]
        return out

    def kept(self) -> dict[str, list[tuple[int, int]]]:
        out: dict[str, list] = {}
        for st in list(self._threads):
            for nid, rows in list(st.kept.items()):
                out.setdefault(self.names[nid], []).extend(rows)
        return out

    def write_spans(self, path: str, process: str) -> int:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for st in list(self._threads):
                for sid, nid, ident, parent, t0, t1, msg in st.spans:
                    fh.write(json.dumps({
                        "process": process, "id": sid, "name": self.names[nid],
                        "thread": ident, "parent": parent if parent >= 0 else None,
                        "start_ns": t0, "end_ns": t1,
                        "msg": list(msg) if msg is not None else None,
                    }, separators=(",", ":")) + "\n")
                    n += 1
        return n


def msg_of_measurement_arg(st, args, result, t0, t1):
    m = args[0]
    return (m.probe.topic, m.timestamp)
