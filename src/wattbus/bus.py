"""Broker-less publish/subscribe transport with prefix-filtered topics.

Its tcp and ipc sockets are the only transport: a consumer in the
publisher's own process connects to the same endpoint as one elsewhere.

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

``publish`` writes inline with a non-blocking ``send`` from the caller's
thread, once per subscriber per outermost ``Publisher.batch()``.  Each
connection has a bounded queue for what its kernel buffer does not take;
one bus loop thread writes that backlog, accepts, handshakes (closing a
connection that stays silent for ``HANDSHAKE_TIMEOUT_S``) and notices
closed subscribers.  A slow consumer overflows only its own queue: the
oldest frames not yet offered to the kernel are dropped (counted in
``drops``), and other subscribers are unaffected.  A ``Subscriber``
hands each read's frames to its consumer's callback before it reads
again and never drops one itself, so a consumer that stalls pushes back
through the socket into that publisher queue.
"""

from __future__ import annotations

import logging
import os
import selectors
import socket
import stat
import struct
import threading
import time
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass

log = logging.getLogger(__name__)

MAX_FRAME = 64 * 1024  # total encoded size, length header included
_LEN = struct.Struct(">I")
# A connection's kernel send buffer, and the most bytes offered to one send.
# Fixed rather than autotuned (up to 4 MiB on Linux), so that a stalled
# subscriber soon backs up into the bounded, counted publisher queue.
_SEND_BUFFER = 256 * 1024

HANDSHAKE_TOPIC = "SUB"

PUBLISHER_QUEUE_FRAMES = 10_000  # bound on the frames a connection holds back
HANDSHAKE_TIMEOUT_S = 5.0  # a connection silent this long after connect is closed
RECONNECT_DELAY_S = 0.05  # a subscriber's first backoff; it doubles per failure
MAX_RECONNECT_DELAY_S = 2.0
RETRIES_BEFORE_WARNING = 10  # failed connects in a row before one WARNING


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
    """Publisher-side state for one subscriber connection.

    ``prefix`` is None until the handshake, due by ``deadline``, arrives.
    """

    def __init__(self, sock: socket.socket, deadline: float):
        self.sock = sock
        self.prefix: bytes | None = None  # UTF-8, as the handshake sent it
        self.handshake = _FrameBuffer()
        self.deadline = deadline
        self.queue: deque[bytes] = deque()  # whole frames, none of them written
        self.tail: bytes | memoryview = b""  # unsent part of the chunk on the wire
        self.blocked = False  # the kernel buffer filled: the bus loop writes

    def send(self) -> int:
        """Write the backlog without blocking; return the bytes written.

        Frames leave the queue a send buffer's worth at a time; what the
        kernel does not take stays in ``tail``, out of the reach of drops,
        and sets ``blocked``.  Raises OSError when the connection is dead.
        """
        written = 0
        while self.tail or self.queue:
            if not self.tail:
                chunk, size = [], 0
                while self.queue and size < _SEND_BUFFER:
                    chunk.append(self.queue.popleft())
                    size += len(chunk[-1])
                self.tail = memoryview(b"".join(chunk))
            try:
                sent = self.sock.send(self.tail)
            except BlockingIOError:
                sent = 0
            written += sent
            self.tail = self.tail[sent:]
            if self.tail:
                self.blocked = True
                return written
        self.blocked = False
        return written


class Publisher:
    """Binds an endpoint and fans frames out to prefix-matched subscribers.

    ``publish`` may be called from many producer threads at once; it sends
    from the caller's thread, without blocking.  One bus loop thread
    accepts connections, reads each handshake within ``HANDSHAKE_TIMEOUT_S``,
    removes connections that close, and writes for connections whose
    kernel buffer filled, so one slow consumer cannot stall the others.
    """

    def __init__(self, endpoint: Endpoint):
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)  # notified when backlogs empty
        self._conns: list[_SubscriberConn] = []  # handshaken, in the lock
        self._handshakes: set[_SubscriberConn] = set()  # the loop's own
        self._closed = False
        self._batch = threading.local()  # this thread's batch depth
        self.bytes_sent = 0
        self.frames_delivered = 0
        self.publish_calls = 0
        self.drops = 0  # frames evicted from full queues, over all connections

        self._listen = endpoint._create_socket()
        if endpoint.scheme == "tcp":
            self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        else:
            with suppress(FileNotFoundError):  # a stale socket file from a dead publisher
                if stat.S_ISSOCK(os.stat(endpoint.path).st_mode):
                    os.unlink(endpoint.path)
        try:
            self._listen.bind(endpoint._address())
        except OSError:
            self._listen.close()
            raise
        self._listen.listen(256)
        self._listen.setblocking(False)
        if endpoint.scheme == "tcp":
            host, port = self._listen.getsockname()[:2]
            self.endpoint = Endpoint("tcp", host=endpoint.host, port=port)
        else:
            self.endpoint = endpoint
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listen, selectors.EVENT_READ, self._accept)
        self._selector.register(self._wake_r, selectors.EVENT_READ, self._on_wake)
        self._loop_thread = threading.Thread(
            target=self._loop, name=f"pub-loop-{self.endpoint}", daemon=True)
        self._loop_thread.start()

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._conns)

    # -- delivery path ----------------------------------------------------

    def publish(self, f: Frame) -> None:
        """Queue a frame for every connected subscriber whose prefix matches.

        With no matching subscriber connected, nothing is encoded and no
        bytes are written anywhere.  Outside a ``batch`` the frame is on
        its way before this returns, or queued behind a full kernel buffer.
        """
        topic = f.topic.encode("utf-8")
        with self._lock:
            self.publish_calls += 1
            targets = [c for c in self._conns if topic.startswith(c.prefix)]
            if not targets:
                return
            self.frames_delivered += len(targets)
            data = frame_encode(f)
            for conn in targets:
                if len(conn.queue) >= PUBLISHER_QUEUE_FRAMES:
                    self._send((conn,))  # a batch drops nothing the socket takes
                    if len(conn.queue) >= PUBLISHER_QUEUE_FRAMES:
                        conn.queue.popleft()
                        self.drops += 1
                conn.queue.append(data)
            if not getattr(self._batch, "depth", 0):
                self._send(targets)

    @contextmanager
    def batch(self):
        """Defer this thread's sends to the exit of its outermost ``batch``,
        which gives every subscriber with frames waiting one ``send``."""
        depth = getattr(self._batch, "depth", 0)
        self._batch.depth = depth + 1
        try:
            yield
        finally:
            self._batch.depth = depth
            if not depth:
                with self._lock:
                    self._send(self._conns)
                    self._idle.notify_all()

    def _send(self, conns) -> None:
        """Write each connection's backlog inline; the caller holds the lock."""
        handoff = False
        for conn in conns:
            if not conn.blocked:  # else the bus loop writes it
                try:
                    self.bytes_sent += conn.send()
                except OSError:
                    conn.blocked = True  # the loop reads the error and removes it
                handoff = handoff or conn.blocked
        if handoff:
            self._wake()

    def _wake(self) -> None:
        with suppress(OSError):  # a full wake buffer wakes the loop anyway
            self._wake_w.send(b"\0")

    # -- bus loop ---------------------------------------------------------

    def _loop(self) -> None:
        sel = self._selector
        try:
            while not self._closed:
                timeout = None
                if self._handshakes:
                    first = min(c.deadline for c in self._handshakes)
                    timeout = max(0.0, first - time.monotonic())
                for key, mask in sel.select(timeout):
                    if isinstance(key.data, _SubscriberConn):
                        self._serve(key.data, mask)
                    else:
                        key.data()
                now = time.monotonic()
                for conn in [c for c in self._handshakes if c.deadline <= now]:
                    self._drop(conn, "handshake timed out")
        finally:
            for key in list(sel.get_map().values()):
                key.fileobj.close()
            sel.close()

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listen.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                log.warning("accept failed: %s", exc)
                return
            sock.setblocking(False)
            conn = _SubscriberConn(sock, time.monotonic() + HANDSHAKE_TIMEOUT_S)
            self._handshakes.add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _serve(self, conn: _SubscriberConn, mask: int) -> None:
        try:
            if mask & selectors.EVENT_READ:
                data = conn.sock.recv(4096)
                if not data:
                    raise ConnectionError("connection closed")
                if conn.prefix is None:
                    self._read_handshake(conn, data)
                # a subscriber sends nothing after its handshake
            if mask & selectors.EVENT_WRITE:
                with self._lock:
                    self.bytes_sent += conn.send()
                    if not conn.blocked:
                        self._idle.notify_all()
        except BlockingIOError:
            pass
        except (OSError, FrameError, UnicodeDecodeError) as exc:
            self._drop(conn, exc)
            return
        self._watch(conn)

    def _read_handshake(self, conn: _SubscriberConn, data: bytes) -> None:
        frames = conn.handshake.feed(data)
        if not frames:
            return
        if frames[0].topic != HANDSHAKE_TOPIC:
            raise FrameError(f"expected {HANDSHAKE_TOPIC} handshake, got {frames[0].topic!r}")
        prefix = frames[0].payload
        prefix.decode("utf-8")  # a prefix must be text
        self._handshakes.discard(conn)
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, _SEND_BUFFER)
        if self.endpoint.scheme == "tcp":
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            conn.prefix = prefix
            if not self._closed:
                self._conns.append(conn)
        log.debug("subscriber connected with prefix %r", prefix)

    def _drop(self, conn: _SubscriberConn, reason) -> None:
        if conn.prefix is None:
            log.warning("rejecting subscriber: %s", reason)
            self._handshakes.discard(conn)
        else:
            log.debug("subscriber with prefix %r dropped: %s", conn.prefix, reason)
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)
                    self._idle.notify_all()
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def _watch(self, conn: _SubscriberConn) -> None:
        """Watch ``conn`` for writability exactly while the loop owns its backlog."""
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.blocked else 0)
        self._selector.modify(conn.sock, events, conn)  # a no-op when unchanged

    def _on_wake(self) -> None:
        with suppress(BlockingIOError):
            self._wake_r.recv(4096)
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            self._watch(conn)

    # -- lifecycle --------------------------------------------------------

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until every subscriber's backlog has been written to its socket."""
        with self._idle:
            return self._idle.wait_for(
                lambda: not any(c.queue or c.tail for c in self._conns), timeout)

    def close(self, drain_timeout: float = 5.0) -> None:
        if self._closed:
            return
        if drain_timeout > 0:
            self.drain(drain_timeout)
        with self._lock:
            self._closed = True
            self._conns.clear()
        self._wake()
        self._loop_thread.join(timeout=5.0)
        self._wake_w.close()
        if self.endpoint.scheme == "ipc":
            with suppress(OSError):
                os.unlink(self.endpoint.path)


class Subscriber:
    """Connects to a publisher and hands each read's frames to ``on_frames``.

    One reader thread connects and reads: after each ``recv`` it calls
    ``on_frames(frames)`` with the frames that read completed, in order,
    and only then reads again.  A consumer that falls behind therefore
    stops the reads, and the backlog waits in the kernel socket buffers and
    then in its publisher's queue, which drops and counts the overflow.
    An exception from ``on_frames`` is logged and reading goes on.

    Reconnects transparently with exponential backoff after connection
    loss; frames published while disconnected are lost, never replayed.
    It logs each connect and disconnect at INFO, and one WARNING naming
    the endpoint once ``RETRIES_BEFORE_WARNING`` connection attempts in a
    row have failed (it keeps retrying).  Once ``close()`` returns,
    ``on_frames`` is not called again; ``on_frames`` may call ``close()``
    itself.
    """

    def __init__(self, endpoint: Endpoint, prefix: str, on_frames):
        self.endpoint = endpoint
        self.prefix = prefix
        self._on_frames = on_frames
        self._closed = threading.Event()
        self._sock: socket.socket | None = None
        self.frames_received = 0
        self.reconnects = 0
        self._thread = threading.Thread(
            target=self._run, name=f"sub-{endpoint}", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        delay = RECONNECT_DELAY_S
        failures = 0
        first = True
        while not self._closed.is_set():
            sock = None
            try:
                sock = self.endpoint._create_socket()  # may fail too, say with EMFILE
                sock.settimeout(2.0)
                sock.connect(self.endpoint._address())
                if self.endpoint.scheme == "tcp":
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(frame_encode(Frame(HANDSHAKE_TOPIC, self.prefix.encode("utf-8"))))
                sock.settimeout(None)  # close() ends a blocked recv by shutting the socket down
            except OSError as exc:
                if sock is not None:
                    sock.close()
                failures += 1
                if failures == RETRIES_BEFORE_WARNING:
                    log.warning("publisher %s unreachable, retrying: %s", self.endpoint, exc)
                if self._closed.wait(delay):  # the backoff ends early on close()
                    return
                delay = min(delay * 2, MAX_RECONNECT_DELAY_S)
                continue
            failures = 0
            delay = RECONNECT_DELAY_S
            if not first:
                self.reconnects += 1
            first = False
            self._sock = sock
            log.info("subscribed to %s", self.endpoint)
            self._read_until_error(sock)
            self._sock = None
            sock.close()
            if not self._closed.is_set():
                log.info("disconnected from %s", self.endpoint)

    def _read_until_error(self, sock: socket.socket) -> None:
        buf = _FrameBuffer()
        # one buffer for every recv: a fresh 64 KiB bytes object per recv,
        # shrunk to what arrived, fragments the heap as it churns
        chunk = memoryview(bytearray(65536))
        while not self._closed.is_set():
            try:
                n = sock.recv_into(chunk)
            except OSError:
                return
            if not n:
                return  # publisher went away
            try:
                frames = buf.feed(chunk[:n])
            except FrameError as exc:
                log.warning("protocol error from %s: %s", self.endpoint, exc)
                return
            if self._closed.is_set():
                return  # close() ends delivery, even of what was read before it
            if frames:
                self.frames_received += len(frames)
                try:
                    self._on_frames(frames)
                except Exception:  # one bad batch must not end the stream
                    log.exception("subscriber frame callback failed")

    def close(self) -> None:
        self._closed.set()
        sock = self._sock
        if sock is not None:
            with suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)  # ends a blocked recv
        if threading.current_thread() is not self._thread:  # else on_frames is closing
            self._thread.join(timeout=5.0)
