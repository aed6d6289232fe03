"""Relay transparency, ordering through chains, and filter composition."""

import threading

import pytest

from wattbus.bus import Endpoint, Frame, Publisher, Subscriber, frame_encode
from wattbus.forwarder import Forwarder, ForwarderConfig

from conftest import Inbox
from test_bus import loopback, wait_until


def test_config_needs_an_upstream():
    with pytest.raises(ValueError):
        ForwarderConfig(upstreams=(), downstream_bind=Endpoint.parse("tcp://h:1"))


def test_config_rejects_self_loop():
    e = Endpoint.parse("tcp://127.0.0.1:7000")
    with pytest.raises(ValueError, match="loop"):
        ForwarderConfig(upstreams=((e, ""),), downstream_bind=e)


def test_downstream_bind_conflict_is_fatal():
    pub = Publisher(loopback())
    occupied = Publisher(loopback())
    try:
        with pytest.raises(OSError):
            Forwarder(ForwarderConfig(
                upstreams=((pub.endpoint, ""),),
                downstream_bind=occupied.endpoint))
    finally:
        occupied.close()
        pub.close()


def test_byte_transparency():
    pub = Publisher(loopback())
    fwd = Forwarder(ForwarderConfig(
        upstreams=((pub.endpoint, ""),),
        downstream_bind=loopback()))
    try:
        direct_inbox = Inbox()
        direct = Subscriber(pub.endpoint, "", direct_inbox)
        relayed_inbox = Inbox()
        relayed = Subscriber(fwd.publisher.endpoint, "", relayed_inbox)
        assert wait_until(lambda: pub.subscriber_count == 2)
        assert wait_until(lambda: fwd.publisher.subscriber_count == 1)

        frames = [Frame(f"siteA/p{i}", b'{"w":%d}' % i) for i in range(20)]
        for f in frames:
            pub.publish(f)

        got_direct = [direct_inbox.get(timeout=5.0) for _ in frames]
        got_relayed = [relayed_inbox.get(timeout=5.0) for _ in frames]
        assert got_direct == frames
        assert got_relayed == frames
        # identical bytes on the wire either way
        assert [frame_encode(f) for f in got_relayed] == \
               [frame_encode(f) for f in got_direct]
        direct.close()
        relayed.close()
    finally:
        fwd.close()
        pub.close()


def test_ten_thousand_frames_relay_in_order_and_byte_identical():
    pub = Publisher(loopback())
    fwd = Forwarder(ForwarderConfig(
        upstreams=((pub.endpoint, ""),), downstream_bind=loopback()))
    try:
        relayed_inbox = Inbox()
        relayed = Subscriber(fwd.publisher.endpoint, "", relayed_inbox)
        assert wait_until(lambda: pub.subscriber_count == 1)
        assert wait_until(lambda: fwd.publisher.subscriber_count == 1)
        frames = [Frame(f"site{i % 7}/p{i % 13}", b'{"seq":%d,"w":%d.5}' % (i, i % 400))
                  for i in range(10_000)]
        for f in frames:
            pub.publish(f)
        got = []
        while len(got) < len(frames):
            f = relayed_inbox.get(timeout=5.0)
            assert f is not None, f"relay stalled at {len(got)}"
            got.append(f)
        assert [frame_encode(f) for f in got] == [frame_encode(f) for f in frames]
        assert wait_until(lambda: fwd.frames_forwarded == len(frames))
        assert fwd.publisher.drops == 0
        relayed.close()
    finally:
        fwd.close()
        pub.close()


def test_chain_of_three_preserves_order():
    pub = Publisher(loopback())
    forwarders = []
    upstream = pub.endpoint
    try:
        for _ in range(3):
            fwd = Forwarder(ForwarderConfig(
                upstreams=((upstream, ""),), downstream_bind=loopback()))
            forwarders.append(fwd)
            upstream = fwd.publisher.endpoint

        inbox = Inbox()
        consumer = Subscriber(upstream, "", inbox)
        assert wait_until(lambda: forwarders[-1].publisher.subscriber_count == 1)
        # every hop must be wired up before publishing starts
        assert wait_until(lambda: pub.subscriber_count == 1)
        for fwd in forwarders[:-1]:
            assert wait_until(lambda: fwd.publisher.subscriber_count == 1)

        for i in range(1000):
            pub.publish(Frame("s/p", b"%d" % i))

        received = []
        while len(received) < 1000:
            f = inbox.get(timeout=5.0)
            assert f is not None, f"chain stalled at {len(received)}"
            received.append(int(f.payload))
        assert received == list(range(1000))
        consumer.close()
    finally:
        for fwd in forwarders:
            fwd.close()
        pub.close()


def test_upstream_prefix_composes():
    pub = Publisher(loopback())
    fwd = Forwarder(ForwarderConfig(
        upstreams=((pub.endpoint, "siteA/"),),
        downstream_bind=loopback()))
    try:
        inbox = Inbox()
        consumer = Subscriber(fwd.publisher.endpoint, "", inbox)
        assert wait_until(lambda: pub.subscriber_count == 1)
        assert wait_until(lambda: fwd.publisher.subscriber_count == 1)

        for i in range(30):
            pub.publish(Frame("siteA/p", b"a%d" % i))
            pub.publish(Frame("siteB/p", b"b%d" % i))
        pub.drain()

        seen = []
        while (f := inbox.get(timeout=0.5)) is not None:
            seen.append(f)
        assert len(seen) == 30
        assert all(f.topic == "siteA/p" for f in seen)
        consumer.close()
    finally:
        fwd.close()
        pub.close()


def test_one_thread_per_upstream():
    # each upstream's reader relays what it reads: no pump thread beside it
    ups = [Publisher(loopback()) for _ in range(2)]
    before = set(threading.enumerate())
    fwd = Forwarder(ForwarderConfig(
        upstreams=tuple((up.endpoint, "") for up in ups), downstream_bind=loopback()))
    try:
        assert all(wait_until(lambda: up.subscriber_count == 1) for up in ups)
        # the downstream publisher's bus loop, then one reader per upstream
        assert len(set(threading.enumerate()) - before) == 1 + len(ups)
        for i, up in enumerate(ups):
            up.publish(Frame(f"s/p{i}", b"x"))
        assert wait_until(lambda: fwd.frames_forwarded == len(ups))
    finally:
        fwd.close()
        for up in ups:
            up.close()


def test_forwarder_is_lazy_downstream():
    pub = Publisher(loopback())
    fwd = Forwarder(ForwarderConfig(
        upstreams=((pub.endpoint, ""),), downstream_bind=loopback()))
    try:
        # the forwarder subscribes upstream even with no consumers of its
        # own, so upstream traffic flows; downstream nothing is written
        assert wait_until(lambda: pub.subscriber_count == 1)
        for i in range(100):
            pub.publish(Frame("s/p", b"x"))
        assert wait_until(lambda: fwd.frames_forwarded == 100)
        assert fwd.publisher.bytes_sent == 0
        assert fwd.publisher.frames_delivered == 0
        assert pub.bytes_sent > 0
    finally:
        fwd.close()
        pub.close()
