"""One time base per process."""

import time

from oran_isac.clock import SharedClock


def test_every_shared_clock_agrees(monkeypatch):
    """A wall-clock step between two constructions does not shift the later clock."""
    first = SharedClock()
    wall_ns = time.time_ns
    monkeypatch.setattr(time, "time_ns", lambda: wall_ns() + 1_000_000_000)
    second = SharedClock()
    assert abs(second.now_ns() - first.now_ns()) < 1_000_000
