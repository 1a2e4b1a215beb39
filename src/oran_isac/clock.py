"""Shared monotonic clock with a fixed epoch offset.

Both ends of a co-located control loop must stamp timestamps from the same
time base, otherwise telemetry latency (receive minus generate) is
meaningless. A single offset is captured at construction and added to the
monotonic counter, so differences between stamps taken anywhere in the
process are wall-clock-free and never go backwards.

The same clock also drives the deadlines: the dApp's report schedule and the
periodicity experiment's segment boundaries are read from it.
"""

from __future__ import annotations

import time


class SharedClock:
    """Monotonic nanosecond clock anchored to the Unix epoch at startup."""

    def __init__(self) -> None:
        self._offset_ns = time.time_ns() - time.monotonic_ns()

    def now_ns(self) -> int:
        return time.monotonic_ns() + self._offset_ns


_default_clock: SharedClock | None = None


def default_clock() -> SharedClock:
    """Process-wide clock instance, created on first use."""
    global _default_clock
    if _default_clock is None:
        _default_clock = SharedClock()
    return _default_clock
