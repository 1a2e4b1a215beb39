"""Draws the simulated RU's burst noise one burst ahead of the DU, in its own process.

``radio.NoiseHelper`` runs this file as a script, so the process imports
numpy and the standard library only; ``radio`` imports it as a module for
``REQUEST`` and ``READY``, the protocol both ends speak. The script's
arguments are the file descriptor of its end of a ``SOCK_SEQPACKET`` socket
pair, the descriptor of a shared memory file of two slots of ``length``
float64s each, and ``length``.

It sends ``READY`` once numpy is imported. Each request is ``REQUEST``:
(seed, draw length, tag). The helper skips to the newest request queued,
writes ``default_rng(seed).standard_normal(draw length)`` into slot
``seed % 2`` and sends the request back. It exits when the other end closes,
and it writes nothing to standard output or error on any path.
"""

import mmap
import os
import socket
import struct
import sys

REQUEST = struct.Struct("<QQQ")  # (seed, draw length, tag)
READY = b"ready"


def main() -> None:
    sock_fd, mem_fd, length = map(int, sys.argv[1:])
    sock = socket.socket(fileno=sock_fd)
    import numpy as np

    slots = np.frombuffer(mmap.mmap(mem_fd, 2 * length * 8), dtype=np.float64)
    slots = slots.reshape(2, length)
    sock.send(READY)
    while request := sock.recv(REQUEST.size):
        try:
            while newer := sock.recv(REQUEST.size, socket.MSG_DONTWAIT):
                request = newer
            return  # the other end closed while requests were queued
        except BlockingIOError:
            pass
        seed, draw_length, _ = REQUEST.unpack(request)
        np.random.default_rng(seed).standard_normal(out=slots[seed % 2, :draw_length])
        sock.send(request)


if __name__ == "__main__":
    try:
        main()
    except (OSError, KeyboardInterrupt):
        pass  # the DU's end is gone: nothing is left to answer
    # Nothing to flush: skip the interpreter's teardown, tens of ms with numpy loaded.
    os._exit(0)
