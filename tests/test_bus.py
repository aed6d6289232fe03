"""Wire format, prefix filtering, and transport behavior of the bus."""

import errno
import json
import logging
import os
import socket
import sys
import threading
import time
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import wattbus.bus as bus
from wattbus.bus import (
    MAX_FRAME,
    Endpoint,
    Frame,
    FrameError,
    Publisher,
    Subscriber,
    _FrameBuffer,
    frame_decode,
    frame_encode,
)

from conftest import Inbox


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def loopback() -> Endpoint:
    return Endpoint("tcp", host="127.0.0.1", port=0)


class TestFrameCodec:
    def test_documented_layout(self):
        assert frame_encode(Frame("s/p", b"{}")) == b"\x00\x00\x00\x06s/p\x00{}"

    def test_nul_in_topic_rejected(self):
        with pytest.raises(FrameError):
            frame_encode(Frame("a\x00b", b""))

    def test_oversize_rejected(self):
        with pytest.raises(FrameError):
            frame_encode(Frame("t/p", b"x" * (64 * 1024)))

    def test_at_limit_accepted(self):
        payload = b"x" * (64 * 1024 - 4 - 4)  # header + "t/p" + NUL
        encoded = frame_encode(Frame("t/p", payload))
        assert len(encoded) == 64 * 1024
        assert frame_decode(encoded).payload == payload

    def test_truncated_rejected(self):
        encoded = frame_encode(Frame("s/p", b"abc"))
        with pytest.raises(FrameError):
            frame_decode(encoded[:-1])
        with pytest.raises(FrameError):
            frame_decode(b"\x00\x00")

    def test_missing_separator_rejected(self):
        with pytest.raises(FrameError):
            frame_decode(b"\x00\x00\x00\x03abc")

    @settings(deadline=None)
    @given(
        st.text(min_size=0, max_size=60).filter(lambda s: "\x00" not in s),
        st.binary(max_size=200),
    )
    def test_round_trip(self, topic, payload):
        f = Frame(topic, payload)
        assert frame_decode(frame_encode(f)) == f


frames_strategy = st.lists(
    st.builds(
        Frame,
        st.text(max_size=30).filter(lambda s: "\x00" not in s),
        st.binary(max_size=300),
    ),
    max_size=40,
)


class TestFrameBuffer:
    @settings(deadline=None)
    @given(frames_strategy, st.data())
    def test_any_chunking_yields_the_same_frames(self, frames, data):
        stream = b"".join(frame_encode(f) for f in frames)
        cuts = sorted(data.draw(st.lists(
            st.integers(min_value=0, max_value=len(stream)), max_size=60)))
        if stream and data.draw(st.booleans()):
            cuts = list(range(len(stream) + 1))  # every chunk one byte long
        buf = _FrameBuffer()
        got = []
        for a, b in zip([0] + cuts, cuts + [len(stream)]):
            got += buf.feed(stream[a:b])
        assert got == frames
        assert buf.feed(b"") == []

    def test_oversize_length_header_rejected(self):
        good = frame_encode(Frame("t/p", b"x"))
        body_limit = MAX_FRAME - 4  # the header counts toward MAX_FRAME
        at_limit = body_limit.to_bytes(4, "big")
        oversize = (body_limit + 1).to_bytes(4, "big")
        assert _FrameBuffer().feed(good + at_limit) == [Frame("t/p", b"x")]
        with pytest.raises(FrameError):
            _FrameBuffer().feed(oversize)
        buf = _FrameBuffer()
        assert buf.feed(good + oversize[:2]) == [Frame("t/p", b"x")]
        with pytest.raises(FrameError):
            buf.feed(oversize[2:])  # the header completed by the next chunk


class TestEndpoint:
    def test_parse_tcp(self):
        e = Endpoint.parse("tcp://10.1.2.3:5577")
        assert (e.scheme, e.host, e.port) == ("tcp", "10.1.2.3", 5577)
        assert str(e) == "tcp://10.1.2.3:5577"

    def test_parse_ipc(self):
        e = Endpoint.parse("ipc:///tmp/bus.sock")
        assert (e.scheme, e.path) == ("ipc", "/tmp/bus.sock")
        assert str(e) == "ipc:///tmp/bus.sock"

    @pytest.mark.parametrize("bad", [
        "tcp://:5577", "tcp://host", "tcp://host:0", "tcp://host:99999",
        "tcp://host:x", "ipc://", "http://x:1", "nonsense",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Endpoint.parse(bad)


class TestTcpPubSub:
    def test_prefix_routing(self):
        pub = Publisher(loopback())
        try:
            inbox_all, inbox_full, inbox_x = Inbox(), Inbox(), Inbox()
            sub_all = Subscriber(pub.endpoint, "", inbox_all)  # the empty prefix matches every topic
            sub_full = Subscriber(pub.endpoint, "s/p", inbox_full)  # a whole topic is its own prefix
            sub_x = Subscriber(pub.endpoint, "x/", inbox_x)
            assert wait_until(lambda: pub.subscriber_count == 3)
            pub.publish(Frame("s/p", b"payload"))
            assert inbox_all.get(timeout=5.0) == Frame("s/p", b"payload")
            assert inbox_full.get(timeout=5.0) == Frame("s/p", b"payload")
            assert inbox_x.get(timeout=0.3) is None
            for sub in (sub_all, sub_full, sub_x):
                sub.close()
        finally:
            pub.close()

    def test_non_ascii_prefix_matches_bytewise(self):
        pub = Publisher(loopback())
        try:
            inbox = Inbox()
            sub = Subscriber(pub.endpoint, "\u00e9", inbox)
            assert wait_until(lambda: pub.subscriber_count == 1)
            pub.publish(Frame("e/x", b"no"))
            pub.publish(Frame("\u00e9/x", b"yes"))
            assert inbox.get(timeout=5.0) == Frame("\u00e9/x", b"yes")
            assert inbox.get(timeout=0.3) is None
            assert (pub.publish_calls, pub.frames_delivered) == (2, 1)
            sub.close()
        finally:
            pub.close()

    def test_lazy_publication_zero_subscribers(self):
        pub = Publisher(loopback())
        try:
            for i in range(1000):
                pub.publish(Frame("s/p", b"%d" % i))
            assert pub.bytes_sent == 0
            assert pub.frames_delivered == 0
            assert pub.publish_calls == 1000
        finally:
            pub.close()

    def test_non_matching_subscriber_gets_no_bytes(self):
        pub = Publisher(loopback())
        try:
            sub = Subscriber(pub.endpoint, "elsewhere/", Inbox())
            assert wait_until(lambda: pub.subscriber_count == 1)
            for i in range(100):
                pub.publish(Frame("here/p", b"x"))
            pub.drain()
            assert pub.bytes_sent == 0
            sub.close()
        finally:
            pub.close()

    def test_ordered_delivery_10k(self):
        pub = Publisher(loopback())
        try:
            inbox = Inbox()
            sub = Subscriber(pub.endpoint, "", inbox)
            assert wait_until(lambda: pub.subscriber_count == 1)
            for i in range(10_000):
                pub.publish(Frame("s/p", json.dumps({"seq": i}).encode()))
            received = []
            while len(received) < 10_000:
                f = inbox.get(timeout=5.0)
                assert f is not None, f"stream dried up at {len(received)}"
                received.append(json.loads(f.payload)["seq"])
            assert received == list(range(10_000))
            sub.close()
        finally:
            pub.close()

    def test_fan_out_identical_prefixes(self):
        pub = Publisher(loopback())
        try:
            inboxes = [Inbox() for _ in range(2)]
            subs = [Subscriber(pub.endpoint, "a/", inbox) for inbox in inboxes]
            assert wait_until(lambda: pub.subscriber_count == 2)
            for i in range(50):
                pub.publish(Frame("a/p", b"%d" % i))
            for sub, inbox in zip(subs, inboxes):
                got = [inbox.get(timeout=5.0) for _ in range(50)]
                assert [int(f.payload) for f in got] == list(range(50))
                sub.close()
        finally:
            pub.close()

    def test_filter_postcondition(self):
        pub = Publisher(loopback())
        try:
            inbox = Inbox()
            sub = Subscriber(pub.endpoint, "siteA/", inbox)
            assert wait_until(lambda: pub.subscriber_count == 1)
            topics = ["siteA/p1", "siteB/p1", "siteA/p2", "siteAx/p", "other/x"]
            for i, topic in enumerate(topics * 20):
                pub.publish(Frame(topic, b"%d" % i))
            pub.drain()
            seen = []
            while (f := inbox.get(timeout=0.3)) is not None:
                seen.append(f.topic)
            assert len(seen) == 40  # only siteA/p1 and siteA/p2 match "siteA/"
            assert all(t.startswith("siteA/") for t in seen)
            sub.close()
        finally:
            pub.close()

    def test_reconnect_after_publisher_restart(self, caplog):
        caplog.set_level(logging.INFO, logger="wattbus.bus")
        pub = Publisher(loopback())
        port = pub.endpoint.port
        inbox = Inbox()
        sub = Subscriber(pub.endpoint, "", inbox)
        assert wait_until(lambda: pub.subscriber_count == 1)
        for i in range(5):
            pub.publish(Frame("s/p", b"%d" % i))
        pub.drain()
        pub.close()

        # frames published while down are lost, not replayed
        pub2 = Publisher(Endpoint("tcp", host="127.0.0.1", port=port))
        assert wait_until(lambda: pub2.subscriber_count == 1, timeout=10.0)
        for i in range(5, 10):
            pub2.publish(Frame("s/p", b"%d" % i))
        got = []
        while len(got) < 10:
            f = inbox.get(timeout=5.0)
            if f is None:
                break
            got.append(int(f.payload))
        assert got == list(range(10))  # all ten, none duplicated
        events = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "wattbus.bus"]
        assert (logging.INFO, f"subscribed to {sub.endpoint}") in events
        assert (logging.INFO, f"disconnected from {sub.endpoint}") in events
        assert sub.reconnects >= 1
        sub.close()
        pub2.close()

    def test_unreachable_endpoint_emits_error_event_and_recovers(self, monkeypatch, caplog):
        monkeypatch.setattr(bus, "RECONNECT_DELAY_S", 0.02)
        monkeypatch.setattr(bus, "RETRIES_BEFORE_WARNING", 3)
        probe_sock = socket.socket()
        probe_sock.bind(("127.0.0.1", 0))
        port = probe_sock.getsockname()[1]
        probe_sock.close()

        endpoint = Endpoint("tcp", host="127.0.0.1", port=port)
        inbox = Inbox()
        sub = Subscriber(endpoint, "", inbox)

        def warnings():
            return [r for r in caplog.records
                    if r.levelno == logging.WARNING and str(endpoint) in r.getMessage()]

        assert wait_until(warnings, timeout=10.0)

        pub = Publisher(endpoint)
        assert wait_until(lambda: pub.subscriber_count == 1, timeout=10.0)
        pub.publish(Frame("s/p", b"alive"))
        assert inbox.get(timeout=5.0) == Frame("s/p", b"alive")
        assert len(warnings()) == 1  # one per streak of failed attempts
        sub.close()
        pub.close()

    def test_failed_first_socket_is_retried(self, monkeypatch):
        # making the very first socket can fail, say with EMFILE: that is
        # one failed attempt, and the backoff retries it
        monkeypatch.setattr(bus, "RECONNECT_DELAY_S", 0.02)
        pub = Publisher(loopback())
        create = Endpoint._create_socket
        calls = []

        def fail_once(endpoint):
            calls.append(endpoint)
            if len(calls) == 1:
                raise OSError(errno.EMFILE, "Too many open files")
            return create(endpoint)

        monkeypatch.setattr(Endpoint, "_create_socket", fail_once)
        inbox = Inbox()
        sub = Subscriber(pub.endpoint, "", inbox)
        try:
            assert wait_until(lambda: pub.subscriber_count == 1)
            pub.publish(Frame("s/p", b"after EMFILE"))
            assert inbox.get(timeout=5.0) == Frame("s/p", b"after EMFILE")
            assert len(calls) == 2
        finally:
            sub.close()
            pub.close()

    def test_close_ends_delivery(self):
        # a producer keeps publishing across close(): once close() returns
        # the reader has ended and on_frames is not called again
        pub = Publisher(loopback())
        stop = threading.Event()

        def produce():
            while not stop.is_set():
                pub.publish(Frame("s/p", b"x"))
                time.sleep(0.001)

        producer = threading.Thread(target=produce)
        try:
            got = []
            sub = Subscriber(pub.endpoint, "", got.extend)
            assert wait_until(lambda: pub.subscriber_count == 1)
            producer.start()
            assert wait_until(lambda: len(got) >= 10)
            sub.close()
            assert not sub._thread.is_alive()
            delivered = len(got)
            time.sleep(0.2)
            assert len(got) == delivered
        finally:
            stop.set()
            producer.join(timeout=5.0)
            pub.close()

    def test_close_from_on_frames_returns(self):
        pub = Publisher(loopback())
        try:
            calls, closed = [], threading.Event()

            def close_on_first(frames):
                calls.append(frames)
                sub.close()  # must not wait for its own thread
                closed.set()

            sub = Subscriber(pub.endpoint, "", close_on_first)
            assert wait_until(lambda: pub.subscriber_count == 1)
            pub.publish(Frame("s/p", b"one"))
            assert closed.wait(timeout=2.0)
            assert wait_until(lambda: not sub._thread.is_alive())
            pub.publish(Frame("s/p", b"two"))
            time.sleep(0.2)
            assert calls == [[Frame("s/p", b"one")]]
        finally:
            pub.close()

    def test_slow_subscriber_drops_do_not_affect_others(self, monkeypatch):
        # a drop-prone connection: small queue, big frames, a client that
        # handshakes and then never reads its socket; paced publishing so
        # only that connection can fall behind
        monkeypatch.setattr(bus, "PUBLISHER_QUEUE_FRAMES", 50)
        pub = Publisher(loopback())
        try:
            stuck = socket.create_connection(("127.0.0.1", pub.endpoint.port))
            stuck.sendall(frame_encode(Frame("SUB", b"")))
            healthy_inbox = Inbox()
            healthy = Subscriber(pub.endpoint, "", healthy_inbox)
            assert wait_until(lambda: pub.subscriber_count == 2)

            payload = b"y" * 60_000
            for i in range(300):
                pub.publish(Frame("s/p", payload))
                time.sleep(0.002)
            assert wait_until(lambda: pub.drops > 0, timeout=10.0)

            count = 0
            while count < 300:
                f = healthy_inbox.get(timeout=5.0)
                assert f is not None, f"healthy subscriber starved at {count}"
                count += 1
            assert count == 300
            healthy.close()
            stuck.close()
        finally:
            pub.close(drain_timeout=0.5)  # the stuck conn can never drain

    def test_stalled_subscriber_is_bounded_and_pushes_back(self, monkeypatch):
        # a consumer that blocks in on_frames holds at most one recv of
        # frames; the overflow lands in the publisher's queue, where it is
        # dropped and counted
        monkeypatch.setattr(bus, "PUBLISHER_QUEUE_FRAMES", 1_000)
        pub = Publisher(loopback())
        release = threading.Event()
        seqs = []

        def stall(frames):
            seqs.extend(int(f.payload[:8]) for f in frames)
            release.wait()

        sub = Subscriber(pub.endpoint, "", stall)
        try:
            assert wait_until(lambda: pub.subscriber_count == 1)
            total = 50_000
            for i in range(total):
                pub.publish(Frame("s/p", b"%08d" % i + b"x" * 100))
            per_recv = 65536 // len(frame_encode(Frame("s/p", b"0" * 108))) + 1
            assert wait_until(lambda: seqs)
            assert len(seqs) <= per_recv
            assert pub.drops > 0

            release.set()
            assert wait_until(lambda: len(seqs) + pub.drops == total, timeout=10.0)
            assert seqs == sorted(set(seqs))  # in publish order, no repeats
        finally:
            release.set()
            sub.close()
            pub.close(drain_timeout=0.5)

    def test_publish_concurrent_producers(self):
        pub = Publisher(loopback())
        try:
            inbox = Inbox()
            sub = Subscriber(pub.endpoint, "", inbox)
            assert wait_until(lambda: pub.subscriber_count == 1)

            def producer(which):
                for i in range(500):
                    pub.publish(Frame(f"t/{which}", b"%d" % i))

            threads = [threading.Thread(target=producer, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # per-publisher-thread order must hold per topic
            seen = {f"t/{w}": [] for w in range(8)}
            total = 0
            while total < 4000:
                f = inbox.get(timeout=5.0)
                assert f is not None
                seen[f.topic].append(int(f.payload))
                total += 1
            for values in seen.values():
                assert values == list(range(500))
            sub.close()
        finally:
            pub.close()


    def test_batch_sends_once_at_the_outermost_exit(self):
        pub = Publisher(loopback())
        try:
            inbox = Inbox()
            sub = Subscriber(pub.endpoint, "", inbox)
            assert wait_until(lambda: pub.subscriber_count == 1)
            size = len(frame_encode(Frame("s/p", b"0")))
            with pub.batch():
                for i in range(5):
                    pub.publish(Frame("s/p", b"%d" % i))
                with pub.batch():
                    for i in range(5, 10):
                        pub.publish(Frame("s/p", b"%d" % i))
                assert pub.bytes_sent == 0  # the inner exit defers to the outer one
            assert pub.bytes_sent == 10 * size
            pub.publish(Frame("s/p", b"a"))
            assert pub.bytes_sent == 11 * size  # outside a batch: written inline
            got = [inbox.get(timeout=5.0).payload for _ in range(11)]
            assert got == [b"%d" % i for i in range(10)] + [b"a"]
            sub.close()
        finally:
            pub.close()

    def test_batch_larger_than_the_queue_drops_nothing(self, monkeypatch):
        # a deferred send must not turn a healthy subscriber's bound into drops
        monkeypatch.setattr(bus, "PUBLISHER_QUEUE_FRAMES", 10)
        pub = Publisher(loopback())
        try:
            inbox = Inbox()
            sub = Subscriber(pub.endpoint, "", inbox)
            assert wait_until(lambda: pub.subscriber_count == 1)
            with pub.batch():
                for i in range(35):
                    pub.publish(Frame("s/p", b"%d" % i))
            got = [inbox.get(timeout=5.0) for _ in range(35)]
            assert [int(f.payload) for f in got] == list(range(35))
            assert pub.drops == 0
            sub.close()
        finally:
            pub.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_subscribers_are_removed_without_a_matching_publish(self):
        pub = Publisher(loopback())
        try:
            threads = threading.active_count()
            fds = len(os.listdir("/proc/self/fd"))
            for _ in range(50):
                sub = Subscriber(pub.endpoint, "nomatch/", Inbox())
                assert wait_until(lambda: pub.subscriber_count == 1)
                pub.publish(Frame("elsewhere/p", b"x"))
                sub.close()
                assert wait_until(lambda: pub.subscriber_count == 0)
            assert threading.active_count() <= threads
            assert wait_until(lambda: len(os.listdir("/proc/self/fd")) <= fds)
        finally:
            pub.close()

    def test_silent_connects_hold_no_thread_and_are_closed(self, monkeypatch):
        monkeypatch.setattr(bus, "HANDSHAKE_TIMEOUT_S", 0.5)
        before = set(threading.enumerate())
        pub = Publisher(loopback())
        silent = []
        try:
            silent = [socket.create_connection(("127.0.0.1", pub.endpoint.port))
                      for _ in range(20)]
            inbox = Inbox()
            sub = Subscriber(pub.endpoint, "", inbox)
            assert wait_until(lambda: pub.subscriber_count == 1)
            # only the bus loop and the subscriber's reader are new
            assert len(set(threading.enumerate()) - before) == 2
            for s in silent:
                s.settimeout(5.0)
                try:
                    assert s.recv(1) == b""  # closed by the publisher
                except ConnectionResetError:
                    pass
            pub.publish(Frame("s/p", b"still served"))
            assert inbox.get(timeout=5.0) == Frame("s/p", b"still served")
            sub.close()
        finally:
            for s in silent:
                s.close()
            pub.close()

    def test_partial_writes_never_tear_a_frame(self, monkeypatch):
        # 60 KB frames into a reader that takes small slices: sends are cut
        # mid-frame while drop-oldest evicts from a five-frame queue
        monkeypatch.setattr(bus, "PUBLISHER_QUEUE_FRAMES", 5)
        pub = Publisher(loopback())
        reader = socket.create_connection(("127.0.0.1", pub.endpoint.port))
        try:
            reader.sendall(frame_encode(Frame("SUB", b"")))
            assert wait_until(lambda: pub.subscriber_count == 1)
            total = 200
            filler = b"z" * 60_000
            received = []
            errors = []

            def read():
                buf = _FrameBuffer()
                reader.settimeout(10.0)
                while len(received) + pub.drops < total:
                    try:
                        data = reader.recv(997)
                    except OSError:
                        return
                    if not data:
                        return
                    try:
                        received.extend(int(f.payload[:8]) for f in buf.feed(data))
                    except FrameError as exc:
                        errors.append(exc)
                        return
                    time.sleep(0.0002)

            t = threading.Thread(target=read)
            t.start()
            for i in range(total):
                pub.publish(Frame("s/p", b"%08d" % i + filler))
            assert pub.drain(timeout=30.0)
            t.join(timeout=30.0)
            assert not t.is_alive()
            assert errors == []
            assert pub.drops > 0
            assert all(a < b for a, b in zip(received, received[1:]))
            assert len(received) + pub.drops == total
        finally:
            reader.close()
            pub.close(drain_timeout=0)

    def test_concurrent_batches_and_backlog_keep_order_and_counts(self, monkeypatch):
        # producers in and out of batches race the bus loop, which writes
        # the backlog of a slow reader while drop-oldest evicts from it
        monkeypatch.setattr(bus, "PUBLISHER_QUEUE_FRAMES", 50)
        pub = Publisher(loopback())
        reader = socket.create_connection(("127.0.0.1", pub.endpoint.port))
        switch = sys.getswitchinterval()
        try:
            reader.sendall(frame_encode(Frame("SUB", b"")))
            assert wait_until(lambda: pub.subscriber_count == 1)
            sys.setswitchinterval(1e-5)
            pad = b"p" * 2000
            total = 2000
            seen = {f"t/{w}": [] for w in range(4)}

            def read():
                buf = _FrameBuffer()
                reader.settimeout(10.0)
                while sum(map(len, seen.values())) + pub.drops < total:
                    data = reader.recv(1500)
                    if not data:
                        return
                    for f in buf.feed(data):
                        seen[f.topic].append(int(f.payload[:6]))
                    time.sleep(0.0001)

            def produce(w):
                for i in range(0, total // 4, 10):
                    with pub.batch() if w % 2 else nullcontext():
                        for j in range(i, i + 10):
                            pub.publish(Frame(f"t/{w}", b"%06d" % j + pad))

            threads = [threading.Thread(target=read)]
            threads += [threading.Thread(target=produce, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            assert pub.drain(timeout=10.0)
            for seqs in seen.values():
                assert all(a < b for a, b in zip(seqs, seqs[1:]))
            received = sum(map(len, seen.values()))
            assert received + pub.drops == total
            size = len(frame_encode(Frame("t/0", b"000000" + pad)))
            assert pub.bytes_sent == received * size  # no frame torn, none doubled
        finally:
            sys.setswitchinterval(switch)
            reader.close()
            pub.close(drain_timeout=0)

    def test_subscriber_close_is_prompt(self, monkeypatch):
        pub = Publisher(loopback())
        try:
            sub = Subscriber(pub.endpoint, "", Inbox())
            assert wait_until(lambda: pub.subscriber_count == 1)
            t0 = time.monotonic()
            sub.close()
            assert time.monotonic() - t0 < 1.0
            assert not sub._thread.is_alive()
        finally:
            pub.close()
        # nothing listens now: the reconnect backoff is long, close() is not
        monkeypatch.setattr(bus, "RECONNECT_DELAY_S", 30.0)
        monkeypatch.setattr(bus, "MAX_RECONNECT_DELAY_S", 30.0)
        sub = Subscriber(pub.endpoint, "", Inbox())
        time.sleep(0.2)
        t0 = time.monotonic()
        sub.close()
        assert time.monotonic() - t0 < 1.0
        assert not sub._thread.is_alive()


class TestIpcTransport:
    def test_ipc_round_trip(self, tmp_path):
        endpoint = Endpoint("ipc", path=str(tmp_path / "bus.sock"))
        pub = Publisher(endpoint)
        try:
            inbox = Inbox()
            sub = Subscriber(endpoint, "", inbox)
            assert wait_until(lambda: pub.subscriber_count == 1)
            pub.publish(Frame("s/p", b"over-ipc"))
            assert inbox.get(timeout=5.0) == Frame("s/p", b"over-ipc")
            sub.close()
        finally:
            pub.close()
        assert not (tmp_path / "bus.sock").exists()  # socket removed on close
