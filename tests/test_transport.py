"""Frame transport contract tests for both channel kinds."""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from oran_isac.transport import (
    Backpressure,
    Disconnected,
    EndpointKind,
    Timeout,
    channel_pair,
    send_telemetry,
)

KINDS = [EndpointKind.IN_PROCESS, EndpointKind.TCP]


@pytest.fixture(params=KINDS, ids=[k.value for k in KINDS])
def pair(request):
    a, b = channel_pair(request.param)
    yield a, b
    a.close()
    b.close()


class TestFrameContract:
    def test_round_trip_identity(self, pair):
        a, b = pair
        a.send(b"hello frame")
        assert b.recv(timeout=1.0) == b"hello frame"

    def test_full_duplex(self, pair):
        a, b = pair
        a.send(b"a->b")
        b.send(b"b->a")
        assert b.recv(timeout=1.0) == b"a->b"
        assert a.recv(timeout=1.0) == b"b->a"

    def test_ordering_10k(self, request, pair):
        kind = request.node.callspec.params["pair"]
        a, b = channel_pair(kind, outbox_bound=20_000)
        frames = [i.to_bytes(4, "big") for i in range(10_000)]

        def sender():
            for f in frames:
                a.send(f)

        t = threading.Thread(target=sender)
        t.start()
        try:
            received = [b.recv(timeout=5.0) for _ in range(10_000)]
            t.join()
            assert received == frames
        finally:
            a.close()
            b.close()

    def test_empty_frame(self, pair):
        a, b = pair
        a.send(b"")
        assert b.recv(timeout=1.0) == b""

    def test_timeout_on_empty_stream(self, pair):
        _, b = pair
        start = time.monotonic()
        with pytest.raises(Timeout):
            b.recv(timeout=0.1)
        assert time.monotonic() - start < 1.0

    @given(frames=st.lists(st.binary(min_size=1, max_size=65536), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_random_sizes_round_trip(self, frames):
        a, b = channel_pair(EndpointKind.IN_PROCESS)
        try:
            for f in frames:
                a.send(f)
            got = [b.recv(timeout=1.0) for _ in frames]
            assert got == frames
        finally:
            a.close()
            b.close()


def test_tcp_large_frame():
    a, b = channel_pair(EndpointKind.TCP)
    try:
        payload = bytes(range(256)) * 256  # 64 KiB
        a.send(payload)
        assert b.recv(timeout=2.0) == payload
    finally:
        a.close()
        b.close()


def test_tcp_disconnect_detected_quickly():
    a, b = channel_pair(EndpointKind.TCP)
    b.close()
    start = time.monotonic()
    with pytest.raises((Disconnected, Timeout)):
        for _ in range(100_000):
            a.send(b"x" * 1024)
    # Either the send fails or recv reports closure; both within a second.
    with pytest.raises((Disconnected, Timeout)):
        a.recv(timeout=1.0)
    assert time.monotonic() - start < 2.0
    a.close()


@pytest.mark.parametrize("timeout", [None, 0, 0.05])
def test_recv_on_closed_end_raises_disconnected(pair, timeout):
    a, _ = pair
    a.close()
    start = time.monotonic()
    with pytest.raises(Disconnected):
        a.recv(timeout=timeout)
    assert time.monotonic() - start < 1.0


def test_inproc_close_unblocks_receiver():
    a, b = channel_pair(EndpointKind.IN_PROCESS)
    result = {}

    def receiver():
        try:
            b.recv(timeout=5.0)
        except Disconnected:
            result["disconnected"] = True

    t = threading.Thread(target=receiver)
    t.start()
    time.sleep(0.05)
    a.close()
    t.join(2.0)
    assert result.get("disconnected")


class TestBackpressure:
    def test_non_droppable_raises_when_full(self):
        a, _ = channel_pair(EndpointKind.IN_PROCESS, outbox_bound=4)
        for i in range(4):
            a.send(bytes([i]))
        with pytest.raises(Backpressure):
            a.send(b"overflow")

    def test_droppable_evicts_oldest_droppable(self):
        a, b = channel_pair(EndpointKind.IN_PROCESS, outbox_bound=3)
        a.send(b"ctrl", droppable=False)
        a.send(b"t1", droppable=True)
        a.send(b"t2", droppable=True)
        a.send(b"t3", droppable=True)  # evicts t1
        assert a.drops == 1
        got = [b.recv(timeout=1.0) for _ in range(3)]
        assert got == [b"ctrl", b"t2", b"t3"]

    def test_control_survives_telemetry_flood(self):
        a, b = channel_pair(EndpointKind.IN_PROCESS, outbox_bound=8)
        for i in range(32):
            assert send_telemetry(a, b"telemetry%d" % i) or True
        a.send(b"control", droppable=False)
        frames = []
        while True:
            try:
                frames.append(b.recv(timeout=0.05))
            except Exception:
                break
        assert b"control" in frames

    def test_drops_never_reorder(self):
        a, b = channel_pair(EndpointKind.IN_PROCESS, outbox_bound=16)
        for i in range(200):
            send_telemetry(a, i.to_bytes(4, "big"))
        seen = []
        while True:
            try:
                seen.append(int.from_bytes(b.recv(timeout=0.05), "big"))
            except Exception:
                break
        assert seen == sorted(seen)
