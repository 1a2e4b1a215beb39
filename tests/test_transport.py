"""Frame transport contract tests for both channel kinds."""

import fcntl
import random
import resource
import select
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from oran_isac import transport
from oran_isac.transport import (
    Backpressure,
    Disconnected,
    EndpointKind,
    TcpChannel,
    Timeout,
    channel_pair,
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
            a.send(b"telemetry%d" % i, droppable=True)
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
            a.send(i.to_bytes(4, "big"), droppable=True)
        seen = []
        while True:
            try:
                seen.append(int.from_bytes(b.recv(timeout=0.05), "big"))
            except Exception:
                break
        assert seen == sorted(seen)


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_timeout_zero_on_an_empty_end_raises_at_once(kind):
    a, b = channel_pair(kind)
    try:
        start = time.monotonic()
        with pytest.raises(Timeout):
            b.recv(timeout=0)
        assert time.monotonic() - start < 0.05
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_timeout_zero_returns_a_frame_already_there(kind):
    a, b = channel_pair(kind)
    try:
        a.send(b"waiting")
        time.sleep(0.05)
        assert b.recv(timeout=0) == b"waiting"
    finally:
        a.close()
        b.close()


def test_tcp_timeout_in_the_middle_of_a_frame_keeps_the_stream():
    a, b = channel_pair(EndpointKind.TCP)
    try:
        a._sock.sendall((10).to_bytes(4, "big") + b"0123")
        with pytest.raises(Timeout):
            b.recv(timeout=0.05)
        a._sock.sendall(b"456789")
        a.send(b"next")
        assert b.recv(timeout=1.0) == b"0123456789"
        assert b.recv(timeout=1.0) == b"next"
    finally:
        a.close()
        b.close()


def test_tcp_send_after_a_timed_out_recv_blocks_on_a_stalled_reader():
    """A receive's deadline stays out of the send: a full buffer parks it until close."""
    a, b = channel_pair(EndpointKind.TCP)
    sent, errors = [], []

    def sender():
        try:
            while True:
                a.send(bytes(120))
                sent.append(1)
        except Disconnected as e:
            errors.append(e)

    with pytest.raises(Timeout):
        a.recv(timeout=0.002)
    t = threading.Thread(target=sender, daemon=True)
    t.start()
    t.join(0.5)
    try:
        assert t.is_alive(), f"send raised {errors} after {len(sent)} frames"
        assert not errors
    finally:
        a.close()
        b.close()
        t.join(2.0)
    assert not t.is_alive()


def test_tcp_timed_recv_waits_in_select_for_the_time_left(monkeypatch):
    waits = []
    real_select = select.select

    def recording_select(rlist, wlist, xlist, timeout):
        waits.append(timeout)
        return real_select(rlist, wlist, xlist, timeout)

    a, b = channel_pair(EndpointKind.TCP)
    monkeypatch.setattr(transport.select, "select", recording_select)
    try:
        with pytest.raises(Timeout):
            b.recv(timeout=0.0041)
        assert len(waits) == 1 and 0.004 < waits[0] <= 0.0041
        assert b._sock.gettimeout() is None
    finally:
        a.close()
        b.close()


@pytest.fixture
def high_fd_pair():
    """A TCP pair whose side A sits on a descriptor at or above 1500, which ``select`` refuses."""
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] <= 1500:
        pytest.skip("the open-file limit leaves no descriptor at 1500")
    a, b = channel_pair(EndpointKind.TCP)
    high = TcpChannel(socket.socket(fileno=fcntl.fcntl(a._sock.fileno(),
                                                       fcntl.F_DUPFD_CLOEXEC, 1500)))
    a._sock.close()  # no shutdown: the duplicate keeps the connection
    with pytest.raises(ValueError):
        select.select([high._sock], [], [], 0)
    yield high, b
    high.close()
    b.close()


def test_tcp_above_fd_setsize_times_out_and_delivers(high_fd_pair):
    high, b = high_fd_pair
    start = time.monotonic()
    with pytest.raises(Timeout):
        high.recv(timeout=0.05)
    assert time.monotonic() - start < 1.0
    b.send(b"after the timeout")
    assert high.recv(timeout=1.0) == b"after the timeout"
    high.send(b"back")
    assert b.recv(timeout=1.0) == b"back"


@pytest.mark.parametrize("timeout", [None, 0, 0.05])
def test_tcp_above_fd_setsize_recv_on_closed_end_raises_disconnected(high_fd_pair, timeout):
    high, _ = high_fd_pair
    high.close()
    start = time.monotonic()
    with pytest.raises(Disconnected):
        high.recv(timeout=timeout)
    assert time.monotonic() - start < 1.0


def test_inproc_one_frame_wakes_one_of_two_parked_readers_and_close_wakes_the_other():
    a, b = channel_pair(EndpointKind.IN_PROCESS)
    results = []

    def reader():
        try:
            results.append(b.recv(timeout=5.0))
        except Disconnected:
            results.append("disconnected")

    threads = [threading.Thread(target=reader, daemon=True) for _ in range(2)]
    for t in threads:
        t.start()
    time.sleep(0.1)  # both readers park
    a.send(b"only")
    deadline = time.monotonic() + 2.0
    while not results and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.1)  # a second wake would show here
    assert results == [b"only"]
    assert sum(t.is_alive() for t in threads) == 1
    a.close()
    for t in threads:
        t.join(2.0)
        assert not t.is_alive()
    assert results == [b"only", "disconnected"]


def test_inproc_close_wakes_every_parked_reader():
    a, b = channel_pair(EndpointKind.IN_PROCESS)
    results = []

    def reader():
        try:
            b.recv()
        except Disconnected:
            results.append("disconnected")

    threads = [threading.Thread(target=reader, daemon=True) for _ in range(2)]
    for t in threads:
        t.start()
    time.sleep(0.1)  # both readers park, with no timeout
    a.close()
    for t in threads:
        t.join(1.0)
        assert not t.is_alive()
    assert results == ["disconnected", "disconnected"]


@pytest.mark.parametrize("readers", [1, 2])
def test_inproc_timed_receives_racing_sends_lose_no_frame(readers):
    # Each frame is sent after a pause about as long as the readers' timeouts,
    # so a parked reader's timeout races the send that rings it, and the
    # sender waits until the frame is taken. Readers also park with no
    # timeout: a ring lost to a reader that left strands that reader, and
    # its frame, for good.
    rounds = 2000
    a, b = channel_pair(EndpointKind.IN_PROCESS)
    got: list[list[int]] = [[] for _ in range(readers)]

    def reader(mine: list[int], k: int) -> None:
        timeouts = (None, 1e-4, 5e-5, 2e-4)
        i = k
        while True:
            i += 1
            try:
                mine.append(int.from_bytes(b.recv(timeout=timeouts[i % 4]), "big"))
            except Timeout:
                pass
            except Disconnected:
                return

    def taken(n: int) -> bool:
        deadline = time.monotonic() + 2.0
        while sum(len(g) for g in got) < n:
            if time.monotonic() > deadline:
                return False
            time.sleep(0)
        return True

    pauses = random.Random(readers)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader, args=(got[k], k), daemon=True) for k in range(readers)]
    try:
        for t in threads:
            t.start()
        for i in range(rounds):
            time.sleep(pauses.uniform(0.0, 2e-4))
            a.send(i.to_bytes(4, "big"))
            assert taken(i + 1), f"frame {i} stranded"
    finally:
        sys.setswitchinterval(old)
        a.close()
        for t in threads:
            t.join(2.0)
    assert not any(t.is_alive() for t in threads)
    assert sorted(i for g in got for i in g) == list(range(rounds))
