"""Whole-frame transport between dApp and xApp: in-process and TCP loopback.

Both implementations deliver frames intact and in order over a full-duplex
channel pair. The in-process variant is a pair of bounded deques, each
guarded by a plain lock. A reader that finds its deque empty parks on a
doorbell of its own, a lock it waits to acquire in one C call; a send appends
the frame, takes the oldest parked reader's doorbell, and rings it after
releasing the deque's lock, so each frame costs the receiver one wake. The
TCP variant is a loopback socket with a 4-byte big-endian length prefix per
frame; a frame's bytes stay buffered until all of it has arrived, so a
timeout in the middle of a frame loses nothing.

Backpressure differs between them. In process, ``send`` raises when the
bounded outbox is full unless the frame was marked droppable, in which case
the oldest droppable frame is evicted instead (stale telemetry is worthless;
control messages and acks must survive). Over TCP nothing is dropped: a send
blocks while the kernel's socket buffer is full, and ``drops`` stays 0.
"""

from __future__ import annotations

import enum
import logging
import os
import select
import socket
import struct
import threading
import time
from collections import deque

DEFAULT_OUTBOX_BOUND = 1024

_LEN_PREFIX = struct.Struct(">I")

_log = logging.getLogger(__name__)

# Taken by the first failure to pin and never released, so that a process
# logs that its loops run unpinned once, not once per thread.
_unpinned_noted = threading.Lock()

# The CPUs this process may run on, read at import: once a stack has pinned
# the thread that started it, that thread's own mask names the loop CPU alone.
_PROCESS_CPUS = (frozenset(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else frozenset())


class TransportError(Exception):
    pass


class Disconnected(TransportError):
    pass


class Timeout(TransportError):
    pass


class Backpressure(TransportError):
    """Bounded outbox full and the frame may not be dropped."""


class EndpointKind(enum.Enum):
    IN_PROCESS = "inproc"
    TCP = "tcp"


class Channel:
    """One side of a full-duplex frame channel; over TCP a stalled reader parks its sender."""

    def send(self, frame: bytes, droppable: bool = False) -> None:
        raise NotImplementedError

    def recv(self, timeout: float | None = None) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def drops(self) -> int:
        """Frames evicted under backpressure on this side's outbox."""
        return 0


class _InProcQueue:
    """Bounded FIFO of (frame, droppable) with drop-oldest-droppable eviction.

    ``_lock`` guards the deque, the eviction, ``closed``, ``drops`` and
    ``_parked``, the doorbells of the parked readers, oldest first. ``put``
    takes one doorbell and ``close`` takes all, and each rings only after
    ``_lock`` is released, so a woken reader never blocks again on a lock its
    waker holds. A woken reader re-checks under ``_lock``; one whose wait
    timed out withdraws its doorbell first, so no frame is rung to a reader
    that has left.
    """

    def __init__(self, bound: int) -> None:
        self._items: deque[tuple[bytes, bool]] = deque()
        self._bound = bound
        self._lock = threading.Lock()
        self._parked: deque[threading.Lock] = deque()
        self.closed = False
        self.drops = 0

    def put(self, frame: bytes, droppable: bool) -> None:
        with self._lock:
            if self.closed:
                raise Disconnected("peer closed")
            if len(self._items) >= self._bound:
                evicted = False
                for i, (_, d) in enumerate(self._items):
                    if d:
                        del self._items[i]
                        self.drops += 1
                        evicted = True
                        break
                if not evicted:
                    raise Backpressure(f"outbox full ({self._bound} frames)")
            self._items.append((frame, droppable))
            if not self._parked:
                return
            bell = self._parked.popleft()
        bell.release()

    def get(self, timeout: float | None) -> bytes:
        deadline = None if timeout is None else time.monotonic() + timeout
        wait = -1.0  # no deadline: a parked reader waits until it is rung
        while True:
            with self._lock:
                if self._items:
                    return self._items.popleft()[0]
                if self.closed:
                    raise Disconnected("peer closed")
                if deadline is not None:
                    wait = deadline - time.monotonic()
                    if wait <= 0:
                        raise Timeout("no frame within deadline")
                bell = threading.Lock()
                bell.acquire()
                self._parked.append(bell)
            if not bell.acquire(True, wait):
                with self._lock:
                    if bell in self._parked:
                        self._parked.remove(bell)

    def close(self) -> None:
        with self._lock:
            self.closed = True
            bells, self._parked = self._parked, deque()
        for bell in bells:
            bell.release()


class InProcChannel(Channel):
    def __init__(self, outbox: _InProcQueue, inbox: _InProcQueue) -> None:
        self._outbox = outbox
        self._inbox = inbox

    def send(self, frame: bytes, droppable: bool = False) -> None:
        self._outbox.put(bytes(frame), droppable)

    def recv(self, timeout: float | None = None) -> bytes:
        return self._inbox.get(timeout)

    def close(self) -> None:
        self._outbox.close()
        self._inbox.close()

    @property
    def drops(self) -> int:
        return self._outbox.drops


class TcpChannel(Channel):
    """Length-prefixed framing over a connected loopback socket, blocking for its whole life.

    A timed ``recv`` waits in ``select.select``, to the microsecond; a
    descriptor ``select`` refuses (at or above ``FD_SETSIZE``) waits in
    ``select.poll``, to the millisecond rounded up. A peer that stops reading
    parks ``send``, a dApp's run loop included, until it reads or an end closes.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._recv_buf = b""
        self._poller = None
        try:
            select.select([sock], [], [], 0)
        except ValueError:
            self._poller = select.poll()
            self._poller.register(sock, select.POLLIN)

    def send(self, frame: bytes, droppable: bool = False) -> None:
        data = _LEN_PREFIX.pack(len(frame)) + frame
        with self._send_lock:
            try:
                self._sock.sendall(data)
            except OSError as e:
                raise Disconnected(str(e)) from e

    def _readable(self, wait: float) -> bool:
        if self._poller is None:
            return bool(select.select([self._sock], [], [], wait)[0])
        return bool(self._poller.poll(wait * 1e3))

    def recv(self, timeout: float | None = None) -> bytes:
        """Past the deadline it still reads what the socket holds, so ``timeout=0`` polls."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._recv_lock:
            while True:
                buf = self._recv_buf
                if len(buf) >= _LEN_PREFIX.size:
                    end = _LEN_PREFIX.size + _LEN_PREFIX.unpack_from(buf)[0]
                    if len(buf) >= end:
                        self._recv_buf = buf[end:]
                        return buf[_LEN_PREFIX.size:end]
                try:
                    if deadline is not None and not self._readable(
                            max(0.0, deadline - time.monotonic())):
                        raise Timeout("no frame within deadline")
                    chunk = self._sock.recv(65536)
                except (OSError, ValueError) as e:  # select raises ValueError once closed
                    raise Disconnected(str(e)) from e
                if not chunk:
                    raise Disconnected("peer closed connection")
                self._recv_buf = buf + chunk

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def channel_pair(kind: EndpointKind = EndpointKind.IN_PROCESS,
                 outbox_bound: int = DEFAULT_OUTBOX_BOUND) -> tuple[Channel, Channel]:
    """Create a connected full-duplex pair (side A, side B); TCP has no outbox bound."""
    if kind == EndpointKind.IN_PROCESS:
        a_to_b = _InProcQueue(outbox_bound)
        b_to_a = _InProcQueue(outbox_bound)
        return InProcChannel(a_to_b, b_to_a), InProcChannel(b_to_a, a_to_b)

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.connect(("127.0.0.1", port))
    server, _ = listener.accept()
    listener.close()
    return TcpChannel(server), TcpChannel(client)


def share_loop_cpu() -> None:
    """Pin the calling thread to the lowest CPU this process may run on.

    ``SensingDapp.start`` and ``XApp.start`` call this before they create
    their loop thread, which inherits the caller's mask. So the caller's
    thread, which issues the subscription and every control, and both loops
    share one CPU. The threads of one interpreter share one GIL, so a second
    CPU gives them almost no parallelism; what it adds is a wake across CPUs
    on every hand-off, first of the receiver's socket or doorbell, then of
    the GIL. Pinned to the same CPU, a report and a control both stay on one
    core, and no loop thread migrates while it holds the GIL.

    The caller's thread stays pinned after ``stop()``, and any thread it
    starts later inherits the mask. Controls issued from some other thread
    still wake the loops across CPUs. Where the platform has no
    ``sched_setaffinity``, or refuses it, the threads run unpinned and the
    ``oran_isac.transport`` logger warns once per process.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            return
        except OSError as e:
            reason = str(e)
    else:
        reason = "the platform has no sched_setaffinity"
    if _unpinned_noted.acquire(blocking=False):
        _log.warning("loop threads run unpinned: %s", reason)


def spare_cpus() -> set[int]:
    """The CPUs this process may run on other than the one ``share_loop_cpu`` pins to.

    Empty where the platform cannot pin, or the process has one CPU only.
    """
    if not hasattr(os, "sched_setaffinity"):
        return set()
    return set(_PROCESS_CPUS - {min(os.sched_getaffinity(0))})
