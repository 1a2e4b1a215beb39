"""Near-RT and non-RT control layers: xApp client and A1 sensing policy.

The xApp drives the subscription handshake, stamps every indication with its
arrival time t1, and issues control commands whose acknowledgements carry the
dApp-side apply time — together these give the telemetry, control, and
closed-loop latency samples. The policy layer is a static A1 document (loaded
from JSON by the rApp stand-in) enforced at the xApp before any request
reaches the wire: periods are clamped into bounds, and beams outside the
geographic scope are rejected.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .clock import SharedClock, default_clock
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
    SubscriptionResponsePayload,
    TriggerConfig,
    decode_message,
    encode_message,
    valid_period,
)
from .transport import Channel, Disconnected, Timeout


class ControlError(Exception):
    pass


class PolicyViolation(ControlError):
    pass


class RequestTimeout(ControlError):
    pass


class PolicyParseError(Exception):
    """An A1 policy document has a malformed field."""


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


_POLICY_FIELDS = {
    "policy_id": str,
    "geographic_scope": lambda scope: tuple((float(lo), float(hi)) for lo, hi in scope),
    "min_period_ms": float,
    "max_period_ms": float,
}


def policy_from_dict(doc: dict) -> A1IsacPolicy:
    """Build an A1 sensing policy from its parsed JSON document.

    A missing key takes the ``A1IsacPolicy`` default; a malformed or unknown
    one raises ``PolicyParseError`` naming it.
    """
    if not isinstance(doc, dict):
        raise PolicyParseError(f"A1 policy: expected a JSON object, got {type(doc).__name__}")
    unknown = sorted(doc.keys() - _POLICY_FIELDS.keys())
    if unknown:
        raise PolicyParseError(f"A1 policy field {unknown[0]!r}: not in the A1 policy schema")
    values = {}
    for key, parse in _POLICY_FIELDS.items():
        if key in doc:
            try:
                values[key] = parse(doc[key])
            except (TypeError, ValueError) as e:
                raise PolicyParseError(f"A1 policy field {key!r}: {e}") from e
    try:
        return A1IsacPolicy(**values)
    except ValueError as e:
        raise PolicyParseError(f"A1 policy: {e}") from e


def load_policy(path: str | Path) -> A1IsacPolicy:
    """Load an A1 sensing policy from its JSON document."""
    return policy_from_dict(json.loads(Path(path).read_text()))


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
        if proposed.mode == SubscriptionMode.EVENT:
            if proposed.trigger.empty:
                return PolicyDecision(Verdict.REJECT, "EMPTY_TRIGGER")
            return PolicyDecision(Verdict.ACCEPT)
        period = proposed.period_ms
    elif proposed.kind == CommandKind.SET_PERIOD:
        period = proposed.period_ms
    else:
        return PolicyDecision(Verdict.ACCEPT)

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
    """One instrumented telemetry (and optionally control) round."""

    sequence_number: int
    t0_ns: int
    t1_ns: int
    t_cmd_issue_ns: int | None = None
    t_cmd_applied_ns: int | None = None

    @property
    def telemetry_latency_ns(self) -> int:
        return self.t1_ns - self.t0_ns

    @property
    def control_latency_ns(self) -> int | None:
        if self.t_cmd_issue_ns is None or self.t_cmd_applied_ns is None:
            return None
        return self.t_cmd_applied_ns - self.t_cmd_issue_ns

    @property
    def closed_loop_ns(self) -> int | None:
        ctrl = self.control_latency_ns
        return None if ctrl is None else self.telemetry_latency_ns + ctrl


@dataclass
class ReceivedReport:
    report: SensingReport
    t1_ns: int


class XApp:
    """Near-RT control client for one dApp channel.

    A single receive loop stamps t1 on every indication and routes responses
    and acks to their waiting requests by correlation id. Control commands and
    subscriptions go through policy enforcement before anything is sent. An
    undecodable frame is counted by kind in ``decode_errors`` and dropped.
    """

    def __init__(self, channel: Channel, policy: A1IsacPolicy | None = None,
                 clock: SharedClock | None = None) -> None:
        self.channel = channel
        self.policy = policy or A1IsacPolicy()
        self.clock = clock or default_clock()
        self.reports: list[ReceivedReport] = []
        self.samples: list[LatencySample] = []
        self.subscription_id: int | None = None
        self.current_period_ms: float | None = None
        self._corr = itertools.count(1)
        # Correlation ids still awaited, each with its reply once it arrives.
        self._pending: dict[int, E2SensMessage | None] = {}
        self.late_replies = 0
        self.decode_errors: Counter[str] = Counter()
        self._pending_cond = threading.Condition()
        self._report_cond = threading.Condition()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- receive loop -------------------------------------------------------

    def _recv_loop(self) -> None:
        while not self._stop.is_set():
            try:
                frame = self.channel.recv(timeout=0.1)
            except Timeout:
                continue
            except Disconnected:
                break
            t1 = self.clock.now_ns()
            try:
                msg = decode_message(frame)
            except E2DecodeError as e:
                self.decode_errors[type(e).__name__] += 1
                continue
            if msg.msg_type == MsgType.INDICATION:
                assert isinstance(msg.payload, SensingReport)
                received = ReceivedReport(msg.payload, t1)
                with self._report_cond:
                    self.reports.append(received)
                    self._report_cond.notify_all()
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
        self._thread = threading.Thread(target=self._recv_loop, name="xapp-recv", daemon=True)
        self._thread.start()

    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop the receive loop, then close its channel, which it no longer reads."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(join_timeout)
        self.channel.close()

    def _request(self, msg_type: MsgType, payload, timeout: float) -> E2SensMessage:
        """Send one request and wait for the reply to its correlation id.

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
                return self._pending[corr]
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
        reply = self._request(MsgType.SUBSCRIPTION_REQUEST, request, timeout)
        assert isinstance(reply.payload, SubscriptionResponsePayload)
        self.subscription_id = reply.payload.subscription_id
        if mode == SubscriptionMode.PERIODIC:
            self.current_period_ms = period_ms
        return self.subscription_id

    def _send_control(self, payload: ControlRequestPayload,
                      timeout: float) -> ControlAckPayload:
        reply = self._request(MsgType.CONTROL_REQUEST, payload, timeout)
        assert isinstance(reply.payload, ControlAckPayload)
        return reply.payload

    def set_period(self, period_ms: float, timeout: float = 5.0) -> LatencySample:
        """Change the reporting period; returns the control-latency sample."""
        # The policy judges a period change as it judges a periodic
        # subscription at that period. Checking that request lets the command
        # be built once, with an issue stamp that leaves the check out.
        self._enforce(SubscriptionRequestPayload(SubscriptionMode.PERIODIC, period_ms=period_ms))
        issued = self.clock.now_ns()
        ack = self._send_control(ControlRequestPayload(
            CommandKind.SET_PERIOD, issued_at=issued, period_ms=period_ms), timeout)
        self.current_period_ms = period_ms
        return LatencySample(
            sequence_number=-1, t0_ns=issued, t1_ns=issued,
            t_cmd_issue_ns=issued, t_cmd_applied_ns=ack.applied_at,
        )

    def set_beam(self, beam_index: int, beam_azimuth_deg: float,
                 timeout: float = 5.0) -> ControlAckPayload:
        decision = check_beam(self.policy, beam_azimuth_deg)
        if decision.verdict == Verdict.REJECT:
            raise PolicyViolation(decision.reason)
        cmd = ControlRequestPayload(CommandKind.SET_BEAM,
                                    issued_at=self.clock.now_ns(),
                                    beam_index=beam_index)
        return self._send_control(cmd, timeout)

    def set_sic(self, enabled: bool, timeout: float = 5.0) -> ControlAckPayload:
        cmd = ControlRequestPayload(CommandKind.SET_SIC,
                                    issued_at=self.clock.now_ns(),
                                    sic_enabled=enabled)
        return self._send_control(cmd, timeout)

    def set_trigger(self, trigger: TriggerConfig, timeout: float = 5.0) -> ControlAckPayload:
        cmd = ControlRequestPayload(CommandKind.SET_TRIGGER,
                                    issued_at=self.clock.now_ns(),
                                    trigger=trigger)
        return self._send_control(cmd, timeout)

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
        idx = len(self.reports)
        received = self.await_report(idx, timeout)
        issue = self.clock.now_ns()
        cmd = ControlRequestPayload(CommandKind.SET_PERIOD, issued_at=issue,
                                    period_ms=self.current_period_ms)
        ack = self._send_control(cmd, timeout)
        sample = LatencySample(
            sequence_number=received.report.sequence_number,
            t0_ns=received.report.t0,
            t1_ns=received.t1_ns,
            t_cmd_issue_ns=issue,
            t_cmd_applied_ns=ack.applied_at,
        )
        self.samples.append(sample)
        return sample


def write_sample_log(samples: list[LatencySample], path: str | Path) -> None:
    """Append-only CSV of latency samples."""
    lines = ["sequence_number,t0_ns,t1_ns,t_cmd_issue_ns,t_cmd_applied_ns"]
    for s in samples:
        lines.append(
            f"{s.sequence_number},{s.t0_ns},{s.t1_ns},"
            f"{'' if s.t_cmd_issue_ns is None else s.t_cmd_issue_ns},"
            f"{'' if s.t_cmd_applied_ns is None else s.t_cmd_applied_ns}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
