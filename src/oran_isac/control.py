"""Near-RT and non-RT control layers: xApp client and A1 sensing policy.

The xApp drives the subscription handshake, stamps every indication with its
arrival time t1, and issues control commands whose acknowledgements carry the
dApp-side apply time — together these give the telemetry, control, and
closed-loop latency samples. The policy layer is a static A1 document (loaded
from JSON by the rApp stand-in) enforced at the xApp before any request
reaches the wire: a period outside the bounds and a beam outside the
geographic scope are refused.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .clock import SharedClock
from .e2sm import (
    CommandKind,
    ControlAckPayload,
    ControlRequestPayload,
    E2DecodeError,
    E2SensMessage,
    MsgType,
    SensingReport,
    SubscriptionMode,
    SubscriptionRequestPayload,
    TriggerConfig,
    decode_message,
    encode_message,
    valid_period,
    valid_trigger,
)
from .ofh import BeamTable
from .schema import json_float, json_list, json_str, load_json, read_document
from .transport import Channel, Disconnected, share_loop_cpu


class ControlError(Exception):
    pass


class PolicyViolation(ControlError):
    pass


class RequestTimeout(ControlError):
    pass


class UnexpectedReply(ControlError):
    """The reply to a request is not of the type, or has no payload, that answers it."""


class SubscriptionRefused(ControlError):
    """The dApp answered a subscription request with ``accepted=False``."""


class PolicyParseError(Exception):
    """An A1 policy document is not JSON, not an object, or has a malformed field."""


@dataclass(frozen=True)
class A1IsacPolicy:
    """High-level sensing directives pushed from the non-RT layer."""

    policy_id: str = "default"
    geographic_scope: tuple[tuple[float, float], ...] = ((-180.0, 180.0),)
    min_period_ms: float = 1.0
    max_period_ms: float = 1000.0

    def __post_init__(self) -> None:
        if not (valid_period(self.min_period_ms) and valid_period(self.max_period_ms)):
            raise ValueError("period bounds must be positive and at most an hour")
        if self.min_period_ms > self.max_period_ms:
            raise ValueError("min_period_ms must not exceed max_period_ms")

    def azimuth_in_scope(self, azimuth_deg: float) -> bool:
        return any(lo <= azimuth_deg <= hi for lo, hi in self.geographic_scope)


def _sector(value) -> tuple[float, float]:
    lo, hi = json_list(json_float)(value)     # a ValueError unless a [lo, hi] pair
    return lo, hi


_POLICY_FIELDS = {
    "policy_id": json_str,
    "geographic_scope": json_list(_sector),
    "min_period_ms": json_float,
    "max_period_ms": json_float,
}


def policy_from_dict(doc: dict) -> A1IsacPolicy:
    """Build an A1 sensing policy from its parsed JSON document.

    A missing key takes the ``A1IsacPolicy`` default; a malformed or unknown
    one raises ``PolicyParseError`` naming it.
    """
    return read_document(doc, A1IsacPolicy, _POLICY_FIELDS, PolicyParseError, "A1 policy")


def load_policy(path: str | Path) -> A1IsacPolicy:
    """Load an A1 sensing policy from its JSON document."""
    return policy_from_dict(load_json(path, PolicyParseError))


class Verdict(Enum):
    ACCEPT = "accept"
    CLAMP = "clamp"
    REJECT = "reject"


@dataclass(frozen=True)
class PolicyDecision:
    verdict: Verdict
    reason: str = ""
    period_ms: float | None = None    # effective period after clamping


def enforce_policy(policy: A1IsacPolicy,
                   proposed: ControlRequestPayload | SubscriptionRequestPayload) -> PolicyDecision:
    """Total, pure check of one request: always exactly one verdict."""
    if isinstance(proposed, SubscriptionRequestPayload):
        event = proposed.mode == SubscriptionMode.EVENT
    elif proposed.kind in (CommandKind.SET_PERIOD, CommandKind.SET_TRIGGER):
        event = proposed.kind == CommandKind.SET_TRIGGER
    else:
        return PolicyDecision(Verdict.ACCEPT)
    if event:
        if valid_trigger(proposed.trigger):
            return PolicyDecision(Verdict.ACCEPT)
        return PolicyDecision(Verdict.REJECT, "INVALID_TRIGGER")
    period = proposed.period_ms
    if not valid_period(period):
        return PolicyDecision(Verdict.REJECT, "INVALID_PERIOD")
    clamped = min(max(period, policy.min_period_ms), policy.max_period_ms)
    if clamped != period:
        return PolicyDecision(Verdict.CLAMP, "PERIOD_OUT_OF_BOUNDS", period_ms=clamped)
    return PolicyDecision(Verdict.ACCEPT, period_ms=period)


def check_beam(policy: A1IsacPolicy, beam_azimuth_deg: float) -> PolicyDecision:
    """Geographic-scope check for a proposed beam steering direction."""
    if policy.azimuth_in_scope(beam_azimuth_deg):
        return PolicyDecision(Verdict.ACCEPT)
    return PolicyDecision(Verdict.REJECT, "OUT_OF_GEOGRAPHIC_SCOPE")


@dataclass(frozen=True)
class LatencySample:
    """One instrumented telemetry and control round."""

    sequence_number: int
    t0_ns: int
    t1_ns: int
    t_cmd_issue_ns: int
    t_cmd_applied_ns: int

    @property
    def telemetry_latency_ns(self) -> int:
        return self.t1_ns - self.t0_ns

    @property
    def control_latency_ns(self) -> int:
        return self.t_cmd_applied_ns - self.t_cmd_issue_ns

    @property
    def closed_loop_ns(self) -> int:
        return self.telemetry_latency_ns + self.control_latency_ns


@dataclass
class ReceivedReport:
    report: SensingReport
    t1_ns: int


# The message type that answers each request type.
_REPLY_TYPE = {
    MsgType.SUBSCRIPTION_REQUEST: MsgType.SUBSCRIPTION_RESPONSE,
    MsgType.CONTROL_REQUEST: MsgType.CONTROL_ACK,
}


class XApp:
    """Near-RT control client for one dApp channel.

    A single receive loop stamps t1 on every indication and routes responses
    and acks to their waiting requests by correlation id. Control commands and
    subscriptions go through policy enforcement before anything is sent. An
    undecodable frame is counted by kind in ``decode_errors`` and dropped. A
    reply of the wrong type for its request, or an empty subscription
    response, is counted by type in ``unexpected_replies`` and raises
    ``UnexpectedReply``. A request sent to the xApp, which serves none, is
    counted by type in ``unexpected_frames``; ``late_replies`` counts only
    replies that nobody awaits. A refused subscription raises
    ``SubscriptionRefused``. The geographic scope judges the direction
    ``beam_table`` gives a commanded beam; an xApp built without a table
    refuses every ``set_beam`` and says so.

    ``start()`` pins the calling thread to the loop CPU before it creates the
    receive thread, which inherits that CPU (see ``share_loop_cpu``). Requests
    issued from the thread that called ``start()`` stay on one CPU with both
    loops, and that thread stays pinned after ``stop()``. A request from any
    other thread wakes the loops across CPUs.
    """

    def __init__(self, channel: Channel, policy: A1IsacPolicy | None = None,
                 clock: SharedClock | None = None, *,
                 beam_table: BeamTable | None = None) -> None:
        self.channel = channel
        self.policy = policy or A1IsacPolicy()
        self.beam_table = beam_table
        self.clock = clock or SharedClock()
        self.reports: list[ReceivedReport] = []
        self.samples: list[LatencySample] = []
        self.subscription_id: int | None = None
        self.current_period_ms: float | None = None
        self._corr = itertools.count(1)
        # Correlation ids still awaited, each with its reply once it arrives.
        self._pending: dict[int, E2SensMessage | None] = {}
        self.late_replies = 0
        self.decode_errors: Counter[str] = Counter()
        self.unexpected_replies: Counter[str] = Counter()
        self.unexpected_frames: Counter[str] = Counter()
        self._pending_cond = threading.Condition()
        self._report_cond = threading.Condition()
        self._thread: threading.Thread | None = None

    # -- receive loop -------------------------------------------------------

    def _recv_loop(self) -> None:
        """Serve the channel until it closes: ``stop()`` closing it ends the loop."""
        while True:
            try:
                frame = self.channel.recv()
            except Disconnected:
                break
            t1 = self.clock.now_ns()
            try:
                msg = decode_message(frame)
            except E2DecodeError as e:
                self.decode_errors[type(e).__name__] += 1
                continue
            if msg.msg_type == MsgType.INDICATION:
                received = ReceivedReport(msg.payload, t1)
                with self._report_cond:
                    self.reports.append(received)
                    self._report_cond.notify_all()
            elif msg.msg_type in _REPLY_TYPE:     # a request: the xApp serves none
                self.unexpected_frames[msg.msg_type.name] += 1
            else:
                corr = msg.correlation_id
                with self._pending_cond:
                    if corr in self._pending and self._pending[corr] is None:
                        self._pending[corr] = msg
                        self._pending_cond.notify_all()
                    else:
                        # Its request timed out, or it answers nothing asked.
                        self.late_replies += 1

    def start(self) -> None:
        share_loop_cpu()
        self._thread = threading.Thread(target=self._recv_loop, name="xapp-recv", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Close the channel, which ends the receive loop, then join it."""
        self.channel.close()
        if self._thread is not None:
            self._thread.join(5.0)

    def counters(self) -> dict:
        """Every failure this side counted, as ``summary.json`` writes it."""
        return {
            "late_replies": self.late_replies,
            "decode_errors": dict(self.decode_errors),
            "unexpected_replies": dict(self.unexpected_replies),
            "unexpected_frames": dict(self.unexpected_frames),
            "transport_drops": self.channel.drops,
        }

    def _request(self, msg_type: MsgType, payload, timeout: float):
        """Send one request and return the payload of the reply to its correlation id.

        The id is awaited from before the send until the wait ends, so the
        receive loop files only replies that someone still waits for.
        """
        corr = self._next_corr()
        with self._pending_cond:
            self._pending[corr] = None
        try:
            self.channel.send(encode_message(E2SensMessage(msg_type, corr, payload)))
            with self._pending_cond:
                if not self._pending_cond.wait_for(
                        lambda: self._pending[corr] is not None, timeout):
                    raise RequestTimeout(f"no reply for correlation id {corr}")
                reply = self._pending[corr]
                if reply.msg_type != _REPLY_TYPE[msg_type] or reply.payload is None:
                    self.unexpected_replies[reply.msg_type.name] += 1
                    raise UnexpectedReply(
                        f"{reply.msg_type.name} with payload {reply.payload} "
                        f"answers {msg_type.name} {corr}")
                return reply.payload
        finally:
            with self._pending_cond:
                del self._pending[corr]

    def _next_corr(self) -> int:
        return next(self._corr)

    # -- operations ---------------------------------------------------------

    def _enforce(self, request: ControlRequestPayload | SubscriptionRequestPayload) -> None:
        """Raise ``PolicyViolation`` unless the policy accepts the request as it is."""
        decision = enforce_policy(self.policy, request)
        if decision.verdict == Verdict.REJECT:
            raise PolicyViolation(decision.reason)
        if decision.verdict == Verdict.CLAMP:
            raise PolicyViolation(
                f"period {request.period_ms} ms outside "
                f"[{self.policy.min_period_ms}, {self.policy.max_period_ms}] ms"
            )

    def subscribe(self, mode: SubscriptionMode, *, period_ms: float = 0.0,
                  trigger: TriggerConfig = TriggerConfig(),
                  timeout: float = 5.0) -> int:
        """Negotiate a subscription; returns the allocated subscription id."""
        request = SubscriptionRequestPayload(mode, period_ms=period_ms, trigger=trigger)
        self._enforce(request)
        response = self._request(MsgType.SUBSCRIPTION_REQUEST, request, timeout)
        if not response.accepted:
            raise SubscriptionRefused(f"subscription {response.subscription_id} refused")
        self.subscription_id = response.subscription_id
        if mode == SubscriptionMode.PERIODIC:
            self.current_period_ms = period_ms
        return self.subscription_id

    def _command(self, kind: CommandKind, timeout: float,
                 **value) -> tuple[int, ControlAckPayload]:
        """Stamp, build and send one command; returns its issue stamp and its ack."""
        issued = self.clock.now_ns()
        ack = self._request(MsgType.CONTROL_REQUEST,
                            ControlRequestPayload(kind, issued, **value), timeout)
        return issued, ack

    def set_period(self, period_ms: float, timeout: float = 5.0) -> ControlAckPayload:
        """Change the reporting period; returns the dApp's ack."""
        # Judged unstamped, so the issue stamp leaves the check out.
        self._enforce(ControlRequestPayload(CommandKind.SET_PERIOD, 0, period_ms=period_ms))
        ack = self._command(CommandKind.SET_PERIOD, timeout, period_ms=period_ms)[1]
        self.current_period_ms = period_ms
        return ack

    def set_beam(self, beam_index: int, timeout: float = 5.0) -> ControlAckPayload:
        """Steer the dApp to a beam whose direction lies in the policy's scope."""
        if self.beam_table is None:
            raise PolicyViolation("the xApp has no beam table to judge a beam's direction by")
        if beam_index not in self.beam_table:
            raise PolicyViolation(f"beam {beam_index} is not in the beam table")
        decision = check_beam(self.policy, self.beam_table.direction(beam_index)[0])
        if decision.verdict == Verdict.REJECT:
            raise PolicyViolation(decision.reason)
        return self._command(CommandKind.SET_BEAM, timeout, beam_index=beam_index)[1]

    def set_sic(self, enabled: bool, timeout: float = 5.0) -> ControlAckPayload:
        return self._command(CommandKind.SET_SIC, timeout, sic_enabled=enabled)[1]

    def set_trigger(self, trigger: TriggerConfig, timeout: float = 5.0) -> ControlAckPayload:
        """Replace the event trigger; returns the dApp's ack."""
        self._enforce(ControlRequestPayload(CommandKind.SET_TRIGGER, 0, trigger=trigger))
        return self._command(CommandKind.SET_TRIGGER, timeout, trigger=trigger)[1]

    def await_report(self, after_index: int, timeout: float = 5.0) -> ReceivedReport:
        """Block until a report beyond the given index arrives."""
        with self._report_cond:
            if not self._report_cond.wait_for(lambda: len(self.reports) > after_index, timeout):
                raise RequestTimeout("no indication within deadline")
            return self.reports[after_index]

    def closed_loop_probe(self, timeout: float = 5.0) -> LatencySample:
        """One complete loop measurement: next indication plus a no-op control.

        The control is a period refresh to the current value. The dApp applies
        and acks it like any command but keeps its report deadline grid, so
        back-to-back probes see reports at the subscribed period.
        """
        if self.current_period_ms is None:
            raise ControlError("closed-loop probe needs an active periodic subscription")
        received = self.await_report(len(self.reports), timeout)
        issue, ack = self._command(CommandKind.SET_PERIOD, timeout,
                                   period_ms=self.current_period_ms)
        sample = LatencySample(received.report.sequence_number, received.report.t0,
                               received.t1_ns, issue, ack.applied_at)
        self.samples.append(sample)
        return sample
