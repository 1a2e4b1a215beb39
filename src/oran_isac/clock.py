"""Shared monotonic clock with one epoch offset per process.

Both ends of a co-located control loop must stamp timestamps from the same
time base, otherwise telemetry latency (receive minus generate) is
meaningless. The offset is taken once, when this module is imported, and
added to the monotonic counter, so every ``SharedClock`` reads the same time,
and differences between stamps taken anywhere in the process are
wall-clock-free and never go backwards.

The same clock also drives the deadlines: the dApp's report schedule and the
periodicity experiment's segment boundaries are read from it. A loop given
another object with ``now_ns()`` runs on that time instead.
"""

from __future__ import annotations

import time

_OFFSET_NS = time.time_ns() - time.monotonic_ns()


class SharedClock:
    """Monotonic nanosecond clock anchored to the Unix epoch at import."""

    def now_ns(self) -> int:
        return time.monotonic_ns() + _OFFSET_NS
