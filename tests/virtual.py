"""Virtual time for the unmodified run loops.

``SensingDapp.run()`` and ``XApp._recv_loop()`` take every input through the
channel and clock they are given. A ``VirtualClock`` and a ``ScriptedEnd``
in their place run a second of a 10 ms subscription in milliseconds, with
exact times, and no thread.

- ``VirtualClock.now_ns()`` reads virtual time. Read ``SPIN_READS`` times at
  one instant, it raises ``Spinning``: a loop that spins without reading its
  channel fails the test instead of hanging it. ``Spinning`` is a
  ``BaseException``, because ``SensingDapp._emit`` catches ``Exception``.
- ``ScriptedEnd`` delivers scripted frames at their virtual times. ``recv``
  moves the clock to the next frame or to the timeout; a timed-out wait moves
  it by at least ``MIN_WAIT_NS``. ``recv`` logs every timeout it is given in
  ``waits``, and ``send`` logs ``(time, frame)`` in ``sent``. ``send`` from
  the script's end on, and a ``recv`` whose wait reaches the end with no
  frame left, raise ``Disconnected``, as a closed channel does; that is also
  how ``stop()`` ends a live loop.
- ``peer_scripts`` draws scripts of peer frames for properties over whole
  runs: frames of every type, with NaN, infinite and tiny periods, every
  beam index and empty and NaN triggers, each one intact, truncated, with
  one byte flipped, or replaced by random bytes.
"""

from __future__ import annotations

import math
from collections import deque

from hypothesis import strategies as st

from oran_isac.e2sm import (
    MAX_PERIOD_MS,
    CommandKind,
    ControlAckPayload,
    ControlRequestPayload,
    E2SensMessage,
    MsgType,
    SensingReport,
    SubscriptionMode,
    SubscriptionRequestPayload,
    SubscriptionResponsePayload,
    TriggerConfig,
    encode_message,
)
from oran_isac.transport import Channel, Disconnected, Timeout

SPIN_READS = 10_000
MIN_WAIT_NS = 1_000


class Spinning(BaseException):
    """The clock was read ``SPIN_READS`` times without time moving on."""


class VirtualClock:
    """Virtual nanoseconds from 0; only ``advance_to`` moves them."""

    def __init__(self) -> None:
        self.t = 0
        self._reads = 0

    def now_ns(self) -> int:
        self._reads += 1
        if self._reads >= SPIN_READS:
            raise Spinning(f"clock read {self._reads} times at {self.t} ns")
        return self.t

    def advance_to(self, t_ns: int) -> None:
        if t_ns > self.t:
            self.t, self._reads = t_ns, 0


class ScriptedEnd(Channel):
    """A channel end whose peer is a script of ``(virtual ns, frame)`` arrivals.

    The script ends at ``end_ns``, which must lie after its last arrival.
    """

    def __init__(self, clock: VirtualClock, script, end_ns: int) -> None:
        self.clock = clock
        self.inbox = deque(sorted(script, key=lambda arrival: arrival[0]))
        if self.inbox and self.inbox[-1][0] >= end_ns:
            raise ValueError("the script must end after its last frame")
        self.end_ns = end_ns
        self.sent: list[tuple[int, bytes]] = []
        self.waits: list[float | None] = []

    def send(self, frame: bytes, droppable: bool = False) -> None:
        if self.clock.t >= self.end_ns:
            raise Disconnected("the script has ended")
        self.sent.append((self.clock.t, frame))

    def recv(self, timeout: float | None = None) -> bytes:
        self.waits.append(timeout)
        deadline = (math.inf if timeout is None
                    else self.clock.t + max(round(timeout * 1e9), MIN_WAIT_NS))
        if self.inbox and self.inbox[0][0] <= deadline:
            t, frame = self.inbox.popleft()
            self.clock.advance_to(t)
            return frame
        if deadline >= self.end_ns:
            self.clock.advance_to(self.end_ns)
            raise Disconnected("the script has ended")
        self.clock.advance_to(deadline)
        raise Timeout("no frame within the timeout")


# -- scripts of peer frames ----------------------------------------------------

_PERIODS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e-9, 1e-6,
                            1e-3, 1.0, 10.0, MAX_PERIOD_MS, 2 * MAX_PERIOD_MS]) | st.floats()
_THRESHOLDS = st.none() | st.sampled_from([math.nan, -15.0, 10.0]) | st.floats()
_TRIGGERS = st.builds(TriggerConfig, _THRESHOLDS, _THRESHOLDS)
_IDS = st.integers(0, 2**32 - 1)
_STAMPS = st.integers(0, 2**64 - 1)
_COMMANDS = st.one_of(
    st.builds(ControlRequestPayload, st.just(CommandKind.SET_PERIOD), _STAMPS, period_ms=_PERIODS),
    st.builds(ControlRequestPayload, st.just(CommandKind.SET_BEAM), _STAMPS,
              beam_index=st.integers(0, 255)),
    st.builds(ControlRequestPayload, st.just(CommandKind.SET_SIC), _STAMPS,
              sic_enabled=st.booleans()),
    st.builds(ControlRequestPayload, st.just(CommandKind.SET_TRIGGER), _STAMPS,
              trigger=_TRIGGERS),
)
_REPORT = SensingReport(0, 1e-7, 15.0, 0.0, 0.0, 0.0, 0.0, -2.0, -40.0, 0.0, 0.0, 1.0, 0, 0, 1)
_MESSAGES = st.one_of(
    st.builds(E2SensMessage, st.just(MsgType.SUBSCRIPTION_REQUEST), _IDS,
              st.builds(SubscriptionRequestPayload, st.sampled_from(SubscriptionMode),
                        _PERIODS, _TRIGGERS)),
    st.builds(E2SensMessage, st.just(MsgType.CONTROL_REQUEST), _IDS, _COMMANDS),
    st.builds(E2SensMessage, st.just(MsgType.SUBSCRIPTION_RESPONSE), _IDS,
              st.none() | st.builds(SubscriptionResponsePayload, _IDS, st.booleans())),
    st.builds(E2SensMessage, st.just(MsgType.INDICATION), _IDS,
              st.builds(_REPORT._replace, sequence_number=_STAMPS)),
    st.builds(E2SensMessage, st.just(MsgType.CONTROL_ACK), _IDS,
              st.builds(ControlAckPayload, _STAMPS, _STAMPS)),
)


@st.composite
def peer_frame(draw) -> bytes:
    """One encoded message of any type, intact, truncated, one byte flipped, or random."""
    frame = encode_message(draw(_MESSAGES))
    how = draw(st.sampled_from(["intact", "truncated", "flipped", "random"]))
    if how == "truncated":
        return frame[:draw(st.integers(0, len(frame) - 1))]
    if how == "flipped":
        i = draw(st.integers(0, len(frame) - 1))
        return frame[:i] + bytes([frame[i] ^ draw(st.integers(1, 255))]) + frame[i + 1:]
    if how == "random":
        return draw(st.binary(max_size=2 * len(frame)))
    return frame


def peer_scripts(span_ns: int):
    """Scripts of up to 20 ``(arrival ns, frame)``, each arrival in ``[0, span_ns]``."""
    return st.lists(st.tuples(st.integers(0, span_ns), peer_frame()), max_size=20)
