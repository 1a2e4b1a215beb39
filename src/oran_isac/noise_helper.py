"""The simulated RU's burst noise: how it is drawn, and a process that draws it ahead.

``draw(seed, length)`` is a burst's raw noise: the first half real parts, the
second imaginary. ``radio.apply_scene``, the RU's own draw on a miss and the
helper all call it, so a burst is the same bytes whichever side drew it.

``NoiseHelper`` runs this file as a script, which imports numpy and the
standard library only. Its arguments are the file descriptor of its end of a
``SOCK_SEQPACKET`` socket pair, the descriptor of a shared memory file of two
slots of ``length`` float64s each, and ``length``. Each request is
``REQUEST``: (seed, draw length, tag). The helper skips to the newest request
queued, draws it into slot ``seed % 2`` and sends the request back, so
requests sent while it imports numpy need no handshake. It exits when the
other end closes, and it writes nothing to standard output or error.
"""

from __future__ import annotations

import mmap
import os
import socket
import struct
import subprocess
import sys

import numpy as np

REQUEST = struct.Struct("<QQQ")  # (seed, draw length, tag)

# How long a helper told to stop may take to exit before it is killed.
_HELPER_EXIT_S = 0.02


def draw(seed: int, length: int, out: np.ndarray | None = None) -> np.ndarray:
    """A burst's raw noise for ``seed``, into ``out`` if given; loads ``np.random`` on use."""
    return np.random.default_rng(seed).standard_normal(length, out=out)


def _slots(mem_fd: int, length: int) -> np.ndarray:
    """The two draw slots in the shared memory file; seed k's draw goes to slot k % 2."""
    return np.frombuffer(mmap.mmap(mem_fd, 2 * length * 8), dtype=np.float64).reshape(2, length)


class NoiseHelper:
    """A process that draws each burst's noise one burst ahead of the DU.

    The draws land in the shared slots, so no sample crosses the socket: the
    answer to a request repeats it. The DU never waits: ``take`` reads the
    answers that have arrived and returns the draw only if it answers the last
    request sent, so the helper is idle while the DU reads the slot; the tag
    keeps a stale answer for a repeated seed out. The next burst's request
    goes to the other slot. Once the helper has gone, every ``take`` misses.
    """

    def __init__(self, proc: subprocess.Popen, sock: socket.socket, slots: np.ndarray) -> None:
        self._proc = proc
        self._sock: socket.socket | None = sock
        self._slots = slots
        self._tag = 0
        self._asked: tuple[int, int, int] | None = None   # the last request sent

    @classmethod
    def start(cls, max_length: int, cpus: set[int]) -> NoiseHelper | None:
        """Spawn a helper for draws of up to ``max_length`` and move it onto ``cpus``.

        None, with nothing left running, where there is no CPU to give it, the
        platform has no shared memory file, or the helper cannot be started
        or placed.
        """
        if not cpus or max_length <= 0 or not hasattr(os, "memfd_create"):
            return None
        try:
            ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        except OSError:
            return None
        try:
            with theirs:
                mem_fd = os.memfd_create("oran-isac-noise")
                try:
                    os.ftruncate(mem_fd, 2 * max_length * 8)
                    slots = _slots(mem_fd, max_length)
                    # A fresh interpreter: a fork would copy this process's pages on write.
                    proc = subprocess.Popen(
                        [sys.executable, __file__, str(theirs.fileno()), str(mem_fd),
                         str(max_length)],
                        pass_fds=(theirs.fileno(), mem_fd), stdin=subprocess.DEVNULL,
                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                finally:
                    os.close(mem_fd)
        except OSError:
            ours.close()
            return None
        ours.setblocking(False)
        helper = cls(proc, ours, slots)
        try:
            os.sched_setaffinity(proc.pid, cpus)
        except OSError:
            helper.close()
            return None
        return helper

    def _gone(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def take(self, seed: int, length: int) -> np.ndarray | None:
        """The draw of ``length`` for ``seed`` if the helper has made it, else None."""
        sock, asked, answered = self._sock, self._asked, False
        while sock is not None:
            try:
                msg = sock.recv(REQUEST.size)
            except BlockingIOError:
                break
            except OSError:
                msg = b""
            if not msg:
                self._gone()
                return None
            if asked is not None and msg == REQUEST.pack(*asked):
                answered = True
        if not answered or asked[:2] != (seed, length):
            return None
        return self._slots[seed % 2, :length]

    def request(self, seed: int, length: int) -> None:
        """Ask for the draw of ``length`` for ``seed``; never blocks, and may ask nothing."""
        sock, self._asked = self._sock, None
        if sock is None or not 0 <= seed < 2**64 or length > self._slots.shape[1]:
            return
        self._tag += 1
        asked = (seed, length, self._tag)
        try:
            sock.send(REQUEST.pack(*asked))
        except BlockingIOError:
            return
        except OSError:
            self._gone()
            return
        self._asked = asked

    def close(self) -> None:
        """Close the helper's socket, which ends it; kill it if it lingers, then reap it."""
        self._gone()
        try:
            self._proc.wait(_HELPER_EXIT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def _serve(sock_fd: int, mem_fd: int, length: int) -> None:
    """The helper's loop: answer the newest queued request until the DU's end closes."""
    sock = socket.socket(fileno=sock_fd)
    slots = _slots(mem_fd, length)
    while request := sock.recv(REQUEST.size):
        try:
            while newer := sock.recv(REQUEST.size, socket.MSG_DONTWAIT):
                request = newer
            return  # the other end closed while requests were queued
        except BlockingIOError:
            pass
        seed, draw_length, _ = REQUEST.unpack(request)
        draw(seed, draw_length, slots[seed % 2, :draw_length])
        sock.send(request)


if __name__ == "__main__":
    try:
        _serve(*map(int, sys.argv[1:]))
    except (OSError, KeyboardInterrupt):
        pass  # the DU's end is gone: nothing is left to answer
    # Nothing to flush: skip the interpreter's teardown, tens of ms with numpy loaded.
    os._exit(0)
