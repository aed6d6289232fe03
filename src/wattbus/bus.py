"""Broker-less publish/subscribe transport with prefix-filtered topics.

Wire protocol (bit-exact):

* A frame is ``length(4 bytes, big-endian) || topic || 0x00 || payload``
  where ``length`` counts everything after itself.  A whole frame never
  exceeds 64 KiB.
* Publishers bind an endpoint (``tcp://host:port`` or ``ipc:///path``) and
  accept subscriber connections.  On connect a subscriber sends exactly one
  frame with topic ``SUB`` whose payload is its prefix filter; after that,
  frames flow publisher -> subscriber only.

Filtering happens publisher-side, per connection.  A publish with no
matching subscriber connected writes nothing anywhere (lazy publication),
which keeps idle probes off the network entirely.

Each subscriber connection has a bounded outgoing queue.  A slow consumer
overflows only its own queue: the oldest frames are dropped for that
connection (counted in ``drops``) and other subscribers are unaffected.
Delivery per connection is handled by a dedicated writer thread, so
per-publisher FIFO order is preserved end to end.  A ``Subscriber`` stops
reading its socket while ``SUBSCRIBER_QUEUE_FRAMES`` frames wait in its
local queue, so a consumer that stalls pushes back through TCP into that
publisher queue, where the overflow is dropped and counted.
"""

from __future__ import annotations

import logging
import os
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass

log = logging.getLogger(__name__)

MAX_FRAME = 64 * 1024  # total encoded size, length header included
_LEN = struct.Struct(">I")

HANDSHAKE_TOPIC = "SUB"

SUBSCRIBER_QUEUE_FRAMES = 10_000  # a Subscriber's local bound, the publisher's default


class FrameError(ValueError):
    """Raised on malformed frames or frames exceeding the size limit."""


@dataclass(frozen=True)
class Frame:
    """Bus wire unit: a topic string plus an opaque payload."""

    topic: str
    payload: bytes


def frame_encode(f: Frame) -> bytes:
    topic = f.topic.encode("utf-8")
    if b"\x00" in topic:
        raise FrameError("topic must not contain a NUL byte")
    body = topic + b"\x00" + f.payload
    if _LEN.size + len(body) > MAX_FRAME:
        raise FrameError(f"frame exceeds {MAX_FRAME} bytes")
    return _LEN.pack(len(body)) + body


def frame_decode(data: bytes) -> Frame:
    """Decode exactly one encoded frame (inverse of frame_encode)."""
    if len(data) < _LEN.size:
        raise FrameError("truncated frame: missing length header")
    (n,) = _LEN.unpack_from(data)
    if _LEN.size + n != len(data):
        raise FrameError("frame length header does not match data size")
    if _LEN.size + n > MAX_FRAME:
        raise FrameError(f"frame exceeds {MAX_FRAME} bytes")
    body = data[_LEN.size:]
    sep = body.find(b"\x00")
    if sep < 0:
        raise FrameError("frame has no topic separator")
    try:
        topic = body[:sep].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError(f"topic is not valid UTF-8: {exc}") from exc
    return Frame(topic, bytes(body[sep + 1:]))


def match_prefix(prefix: str, topic: str) -> bool:
    """True iff ``topic`` starts with ``prefix``, compared byte-wise."""
    return topic.encode("utf-8").startswith(prefix.encode("utf-8"))


@dataclass(frozen=True)
class Endpoint:
    """A bus address: ``tcp://host:port`` or ``ipc:///path/to.sock``.

    TCP ports are 1-65535 in parsed endpoints; port 0 may be constructed
    directly to request an ephemeral bind (the publisher reports the real
    port afterwards).
    """

    scheme: str
    host: str = ""
    port: int = 0
    path: str = ""

    def __post_init__(self):
        if self.scheme == "tcp":
            if not self.host:
                raise ValueError("tcp endpoint needs a host")
            if not 0 <= self.port <= 65535:
                raise ValueError(f"tcp port out of range: {self.port}")
        elif self.scheme == "ipc":
            if not self.path:
                raise ValueError("ipc endpoint needs a non-empty path")
        else:
            raise ValueError(f"unknown endpoint scheme {self.scheme!r}")

    @classmethod
    def parse(cls, url: str) -> "Endpoint":
        if url.startswith("tcp://"):
            rest = url[len("tcp://"):]
            host, sep, port_s = rest.rpartition(":")
            if not sep or not host:
                raise ValueError(f"malformed tcp endpoint {url!r}: expected tcp://host:port")
            try:
                port = int(port_s)
            except ValueError:
                raise ValueError(f"malformed tcp port in {url!r}") from None
            if not 1 <= port <= 65535:
                raise ValueError(f"tcp port out of range in {url!r}")
            return cls("tcp", host=host, port=port)
        if url.startswith("ipc://"):
            path = url[len("ipc://"):]
            return cls("ipc", path=path)
        raise ValueError(f"unknown endpoint scheme in {url!r}")

    def __str__(self) -> str:
        if self.scheme == "tcp":
            return f"tcp://{self.host}:{self.port}"
        return f"ipc://{self.path}"

    def _create_socket(self) -> socket.socket:
        if self.scheme == "tcp":
            return socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        return socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)

    def _address(self):
        return (self.host, self.port) if self.scheme == "tcp" else self.path


class _FrameBuffer:
    """Incremental parser for a length-prefixed frame stream.

    ``feed`` walks the complete frames with an offset and drops the
    consumed bytes once per call, so the cost per frame does not grow with
    the number of frames buffered.
    """

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        buf = self._buf
        buf.extend(data)
        frames = []
        pos, end = 0, len(buf)
        while end - pos >= _LEN.size:
            (n,) = _LEN.unpack_from(buf, pos)
            if _LEN.size + n > MAX_FRAME:
                raise FrameError(f"incoming frame exceeds {MAX_FRAME} bytes")
            stop = pos + _LEN.size + n
            if stop > end:
                break
            frames.append(frame_decode(bytes(buf[pos:stop])))
            pos = stop
        del buf[:pos]
        return frames


class _SubscriberConn:
    """Publisher-side state for one connected subscriber."""

    def __init__(self, sock: socket.socket, prefix: bytes, queue_size: int):
        self.sock = sock
        self.prefix = prefix  # UTF-8, as the handshake sent it
        self.queue: deque[bytes] = deque()
        self.queue_size = queue_size
        self.cond = threading.Condition()
        self.closing = False
        self.in_flight = False
        self.drops = 0
        self.writer: threading.Thread | None = None

    def enqueue(self, data: bytes) -> None:
        with self.cond:
            if self.closing:
                return
            if len(self.queue) >= self.queue_size:
                self.queue.popleft()
                self.drops += 1
            self.queue.append(data)
            self.cond.notify()

    def idle(self) -> bool:
        with self.cond:
            return not self.queue and not self.in_flight

    def shutdown(self) -> None:
        with self.cond:
            self.closing = True
            self.cond.notify()
        try:
            # unblocks a writer stuck in sendall on a consumer that stopped
            # reading; pending kernel buffers are still delivered (SHUT_WR)
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


class Publisher:
    """Binds an endpoint and fans frames out to prefix-matched subscribers.

    ``publish`` may be called concurrently from many producer threads; each
    subscriber connection is drained by its own writer thread so one slow
    consumer cannot stall the others.
    """

    def __init__(self, endpoint: Endpoint, queue_size: int = 10_000,
                 handshake_timeout: float = 5.0):
        self._requested = endpoint
        self._queue_size = queue_size
        self._handshake_timeout = handshake_timeout
        self._lock = threading.Lock()
        self._conns: list[_SubscriberConn] = []
        self._closed = False
        self._bytes_sent = 0
        self._frames_delivered = 0
        self._publish_calls = 0
        self._dropped_total = 0  # drops from connections already removed

        self._listen = endpoint._create_socket()
        if endpoint.scheme == "tcp":
            self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        else:
            self._cleanup_stale_socket(endpoint.path)
        self._listen.bind(endpoint._address())
        self._listen.listen(256)
        if endpoint.scheme == "tcp":
            host, port = self._listen.getsockname()[:2]
            self.endpoint = Endpoint("tcp", host=endpoint.host, port=port)
        else:
            self.endpoint = endpoint
        self._acceptor = threading.Thread(
            target=self._accept_loop, name=f"pub-accept-{self.endpoint}", daemon=True)
        self._acceptor.start()

    @staticmethod
    def _cleanup_stale_socket(path: str) -> None:
        try:
            st = os.stat(path)
        except FileNotFoundError:
            return
        import stat as stat_mod
        if stat_mod.S_ISSOCK(st.st_mode):
            os.unlink(path)

    # -- counters ---------------------------------------------------------

    @property
    def bytes_sent(self) -> int:
        return self._bytes_sent

    @property
    def frames_delivered(self) -> int:
        return self._frames_delivered

    @property
    def publish_calls(self) -> int:
        return self._publish_calls

    @property
    def drops(self) -> int:
        with self._lock:
            return self._dropped_total + sum(c.drops for c in self._conns)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._conns)

    # -- accept path ------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listen.accept()
            except OSError:
                return  # listen socket closed
            if self._closed:
                sock.close()
                return
            threading.Thread(target=self._handshake, args=(sock,), daemon=True).start()

    def _handshake(self, sock: socket.socket) -> None:
        try:
            sock.settimeout(self._handshake_timeout)
            buf = _FrameBuffer()
            frames: list[Frame] = []
            while not frames:
                data = sock.recv(4096)
                if not data:
                    raise FrameError("connection closed during handshake")
                frames = buf.feed(data)
            hello = frames[0]
            if hello.topic != HANDSHAKE_TOPIC:
                raise FrameError(f"expected {HANDSHAKE_TOPIC} handshake, got {hello.topic!r}")
            prefix = hello.payload
            prefix.decode("utf-8")  # a prefix must be text
        except (OSError, FrameError, UnicodeDecodeError) as exc:
            log.warning("rejecting subscriber: %s", exc)
            sock.close()
            return
        sock.settimeout(None)
        if self.endpoint.scheme == "tcp":
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _SubscriberConn(sock, prefix, self._queue_size)
        with self._lock:
            if self._closed:
                sock.close()
                return
            self._conns.append(conn)
        conn.writer = threading.Thread(
            target=self._write_loop, args=(conn,), name="pub-writer", daemon=True)
        conn.writer.start()
        log.debug("subscriber connected with prefix %r", prefix)

    # -- delivery path ----------------------------------------------------

    def publish(self, f: Frame) -> None:
        """Enqueue a frame to every connected subscriber whose prefix matches.

        With no matching subscriber connected, nothing is encoded and no
        bytes are written anywhere.
        """
        topic = f.topic.encode("utf-8")
        with self._lock:
            self._publish_calls += 1
            targets = [c for c in self._conns if topic.startswith(c.prefix)]
            self._frames_delivered += len(targets)
        if not targets:
            return
        data = frame_encode(f)
        for conn in targets:
            conn.enqueue(data)

    def _write_loop(self, conn: _SubscriberConn) -> None:
        while True:
            with conn.cond:
                while not conn.queue and not conn.closing:
                    conn.cond.wait()
                if not conn.queue and conn.closing:
                    break
                batch = []
                size = 0
                while conn.queue and size < 256 * 1024:
                    item = conn.queue.popleft()
                    batch.append(item)
                    size += len(item)
                conn.in_flight = True
            data = b"".join(batch)
            try:
                conn.sock.sendall(data)
            except OSError:
                with conn.cond:
                    conn.in_flight = False
                self._remove(conn)
                return
            with self._lock:
                self._bytes_sent += len(data)
            with conn.cond:
                conn.in_flight = False
                conn.cond.notify_all()
        conn.sock.close()

    def _remove(self, conn: _SubscriberConn) -> None:
        with self._lock:
            if conn in self._conns:
                self._conns.remove(conn)
                self._dropped_total += conn.drops
        conn.sock.close()
        log.debug("subscriber with prefix %r dropped", conn.prefix)

    # -- lifecycle --------------------------------------------------------

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until every subscriber queue has been flushed to its socket."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                conns = list(self._conns)
            if all(c.idle() for c in conns):
                return True
            time.sleep(0.005)
        return False

    def close(self, drain_timeout: float = 5.0) -> None:
        if self._closed:
            return
        if drain_timeout > 0:
            self.drain(drain_timeout)
        with self._lock:
            self._closed = True
            conns = list(self._conns)
        try:
            # a plain close() does not wake a thread blocked in accept();
            # shutdown() does (on TCP) and releases the listening port
            self._listen.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            # unix-domain listeners ignore shutdown(): poke accept() awake
            # with a throwaway connection instead
            poke = self.endpoint._create_socket()
            poke.settimeout(0.2)
            poke.connect(self.endpoint._address())
            poke.close()
        except OSError:
            pass
        self._listen.close()
        self._acceptor.join(timeout=5.0)
        for conn in conns:
            conn.shutdown()
        for conn in conns:
            if conn.writer is not None:
                conn.writer.join(timeout=2.0)
        with self._lock:
            for conn in conns:
                if conn in self._conns:
                    self._conns.remove(conn)
                    self._dropped_total += conn.drops
        if self.endpoint.scheme == "ipc":
            try:
                os.unlink(self.endpoint.path)
            except OSError:
                pass


class _FrameQueue:
    """Frames waiting for one consumer, read with ``get`` or iteration.

    With ``maxlen`` set, a put onto a full queue drops the oldest frame and
    counts it in ``drops``; without it the queue is unbounded.
    """

    def __init__(self, maxlen: int | None = None):
        self._queue: deque[Frame] = deque(maxlen=maxlen)
        self._cond = threading.Condition()
        self._closed = False
        self._producer_waiting = False  # set by a producer that waits for room
        self.frames_received = 0
        self.drops = 0

    def _put(self, frames) -> None:
        with self._cond:
            if self._closed:
                return
            for f in frames:
                if len(self._queue) == self._queue.maxlen:
                    self.drops += 1  # the append below evicts the oldest
                self._queue.append(f)
                self.frames_received += 1
            self._cond.notify_all()

    def _close_queue(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def get(self, timeout: float | None = None) -> Frame | None:
        """Next frame, or None on timeout / after close."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)
            if self._producer_waiting:
                self._producer_waiting = False
                self._cond.notify_all()
            return self._queue.popleft()

    def __iter__(self):
        while True:
            f = self.get(timeout=0.25)
            if f is not None:
                yield f
            elif self._closed:
                with self._cond:
                    if not self._queue:
                        return


class Subscriber(_FrameQueue):
    """Connects to a publisher and yields matching frames.

    Reconnects transparently with exponential backoff after connection
    loss; frames published while disconnected are lost, never replayed.
    After ``retries_before_error`` consecutive failed connection attempts
    an ``unreachable`` event is emitted (the stream stays alive and keeps
    retrying).

    Iterate over the instance, or call ``get(timeout)`` which returns None
    on timeout and after close.  While ``SUBSCRIBER_QUEUE_FRAMES`` frames
    wait in the local queue the reader does not call ``recv``; the queue
    then holds at most that bound plus one ``recv`` worth of frames, and
    the overflow is dropped and counted by the publisher.  ``drops`` stays
    0: no frame is discarded here.
    """

    def __init__(self, endpoint: Endpoint, prefix: str = "",
                 on_event=None,
                 reconnect_delay: float = 0.05,
                 max_reconnect_delay: float = 2.0,
                 retries_before_error: int = 10):
        super().__init__()
        self.endpoint = endpoint
        self.prefix = prefix
        self._on_event = on_event
        self._reconnect_delay = reconnect_delay
        self._max_reconnect_delay = max_reconnect_delay
        self._retries_before_error = retries_before_error
        self._sock: socket.socket | None = None
        self.reconnects = 0
        self._thread = threading.Thread(
            target=self._run, name=f"sub-{endpoint}", daemon=True)
        self._thread.start()

    def _emit(self, event: str, detail: str = "") -> None:
        if self._on_event is not None:
            try:
                self._on_event(event, detail)
            except Exception:  # callbacks must not kill the stream
                log.exception("subscriber event callback failed")

    def _run(self) -> None:
        delay = self._reconnect_delay
        failures = 0
        first = True
        while not self._closed:
            try:
                sock = self.endpoint._create_socket()
                sock.settimeout(2.0)
                sock.connect(self.endpoint._address())
                if self.endpoint.scheme == "tcp":
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(frame_encode(Frame(HANDSHAKE_TOPIC, self.prefix.encode("utf-8"))))
            except OSError as exc:
                sock.close()
                failures += 1
                if failures == self._retries_before_error:
                    self._emit("unreachable", str(exc))
                if self._interruptible_sleep(delay):
                    return
                delay = min(delay * 2, self._max_reconnect_delay)
                continue
            failures = 0
            delay = self._reconnect_delay
            if not first:
                self.reconnects += 1
            first = False
            self._sock = sock
            self._emit("connected", str(self.endpoint))
            self._read_until_error(sock)
            self._sock = None
            sock.close()
            if not self._closed:
                self._emit("disconnected", str(self.endpoint))

    def _read_until_error(self, sock: socket.socket) -> None:
        buf = _FrameBuffer()
        sock.settimeout(0.5)
        while not self._closed:
            self._wait_for_room()
            try:
                data = sock.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            if not data:
                return  # publisher went away
            try:
                frames = buf.feed(data)
            except FrameError as exc:
                log.warning("protocol error from %s: %s", self.endpoint, exc)
                return
            if frames:
                self._put(frames)

    def _wait_for_room(self) -> None:
        """Block while the local queue is full; ``get`` wakes us."""
        with self._cond:
            while len(self._queue) >= SUBSCRIBER_QUEUE_FRAMES and not self._closed:
                self._producer_waiting = True
                self._cond.wait()

    def _interruptible_sleep(self, seconds: float) -> bool:
        """Sleep in small slices; True if closed meanwhile."""
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            if self._closed:
                return True
            time.sleep(min(0.05, seconds))
        return self._closed

    def close(self) -> None:
        self._close_queue()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._thread.join(timeout=5.0)


class _InprocSubscription(_FrameQueue):
    """Consumer handle on an in-process channel; same surface as Subscriber."""

    def __init__(self, channel: "InprocChannel", prefix: str, queue_size: int):
        super().__init__(maxlen=queue_size)
        self._channel = channel
        self.prefix = prefix
        self.prefix_bytes = prefix.encode("utf-8")

    def close(self) -> None:
        self._channel._unsubscribe(self)
        self._close_queue()


class InprocChannel:
    """Publish/subscribe contract between threads of one process.

    Used when a driver and a consumer share a process; semantics match the
    socket transport (prefix filtering, lazy publication, bounded
    per-subscriber queues with drop-oldest).
    """

    def __init__(self, queue_size: int = 10_000):
        self._queue_size = queue_size
        self._lock = threading.Lock()
        self._subs: list[_InprocSubscription] = []
        self._frames_delivered = 0
        self._publish_calls = 0

    @property
    def frames_delivered(self) -> int:
        return self._frames_delivered

    @property
    def publish_calls(self) -> int:
        return self._publish_calls

    @property
    def drops(self) -> int:
        with self._lock:
            return sum(s.drops for s in self._subs)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subs)

    @property
    def bytes_sent(self) -> int:
        return 0  # nothing crosses the network

    def subscribe(self, prefix: str = "") -> _InprocSubscription:
        sub = _InprocSubscription(self, prefix, self._queue_size)
        with self._lock:
            self._subs.append(sub)
        return sub

    def _unsubscribe(self, sub: _InprocSubscription) -> None:
        with self._lock:
            if sub in self._subs:
                self._subs.remove(sub)

    def publish(self, f: Frame) -> None:
        topic = f.topic.encode("utf-8")
        with self._lock:
            self._publish_calls += 1
            targets = [s for s in self._subs if topic.startswith(s.prefix_bytes)]
            self._frames_delivered += len(targets)
        for sub in targets:
            sub._put((f,))

    def drain(self, timeout: float = 0.0) -> bool:
        return True  # delivery is synchronous

    def close(self, drain_timeout: float = 0.0) -> None:
        with self._lock:
            subs = list(self._subs)
        for sub in subs:
            sub.close()
