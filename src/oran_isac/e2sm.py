"""E2 sensing service model: message schema, binary codec, subscription machine.

A deliberately small fixed-width big-endian encoding stands in for ASN.1: a
10-byte header (version, message type, correlation id, payload length)
followed by a type-specific payload. Every malformed input maps to exactly one
of four error kinds (Truncated, UnknownVersion, UnknownType, LengthMismatch)
so receivers can count failure modes separately.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

PROTOCOL_VERSION = 1
HEADER_SIZE = 10

# The longest report period the loop can schedule: one hour.
MAX_PERIOD_MS = 3_600_000.0

_HEADER = struct.Struct(">BBII")
_F64 = struct.Struct(">d")


class E2DecodeError(Exception):
    """Base class for the four declared decode failure kinds."""


class Truncated(E2DecodeError):
    """Fewer bytes than the header or declared payload length requires."""


class UnknownVersion(E2DecodeError):
    pass


class UnknownType(E2DecodeError):
    """Unrecognized message type, subscription mode, or command kind code."""


class LengthMismatch(E2DecodeError):
    """Payload length inconsistent with the message type, or trailing bytes."""


def valid_period(period_ms: float) -> bool:
    """The one range rule for a report period; NaN and infinities fail it."""
    return 0.0 < period_ms <= MAX_PERIOD_MS


class MsgType(enum.IntEnum):
    SUBSCRIPTION_REQUEST = 1
    SUBSCRIPTION_RESPONSE = 2
    INDICATION = 3
    CONTROL_REQUEST = 4
    CONTROL_ACK = 5


class SubscriptionMode(enum.IntEnum):
    PERIODIC = 0
    EVENT = 1


class CommandKind(enum.IntEnum):
    SET_PERIOD = 0
    SET_BEAM = 1
    SET_SIC = 2
    SET_TRIGGER = 3


@dataclass(frozen=True)
class TriggerConfig:
    """Event-driven reporting conditions; at least one must be set for EVENT mode."""

    echo_energy_threshold_db: float | None = None
    aoa_shift_threshold_deg: float | None = None

    @property
    def empty(self) -> bool:
        return self.echo_energy_threshold_db is None and self.aoa_shift_threshold_deg is None


@dataclass(frozen=True)
class SensingReport:
    """One telemetry record exported by the sensing pipeline."""

    t0: int                       # ns, stamped at generation
    delay_s: float
    range_m: float
    doppler_hz: float
    radial_velocity_mps: float
    aoa_azimuth_deg: float
    aoa_elevation_deg: float
    echo_energy_db: float
    si_power_db: float
    multipath_spread_s: float
    angular_entropy: float
    confidence: float
    beam_index: int
    waveform_id: int
    sequence_number: int


# Fixed INDICATION payload: u64 t0, eleven f64 metrics, u8 beam, u16 waveform,
# u64 sequence number.
_REPORT = struct.Struct(">Q11dBHQ")
REPORT_WIRE_SIZE = _REPORT.size


@dataclass(frozen=True)
class SubscriptionRequestPayload:
    mode: SubscriptionMode
    period_ms: float = 0.0
    trigger: TriggerConfig = TriggerConfig()


@dataclass(frozen=True)
class SubscriptionResponsePayload:
    subscription_id: int
    accepted: bool = True


@dataclass(frozen=True)
class ControlRequestPayload:
    kind: CommandKind
    issued_at: int                # ns
    period_ms: float = 0.0
    beam_index: int = 0
    sic_enabled: bool = False
    trigger: TriggerConfig = TriggerConfig()


@dataclass(frozen=True)
class ControlAckPayload:
    received_at: int              # ns, command receipt at the dApp
    applied_at: int               # ns, when the command took effect


Payload = (
    SubscriptionRequestPayload
    | SubscriptionResponsePayload
    | SensingReport
    | ControlRequestPayload
    | ControlAckPayload
    | None
)


@dataclass(frozen=True)
class E2SensMessage:
    msg_type: MsgType
    correlation_id: int
    payload: Payload = None
    version: int = PROTOCOL_VERSION


def _pack_trigger(trig: TriggerConfig) -> bytes:
    flags = 0
    if trig.echo_energy_threshold_db is not None:
        flags |= 0x01
    if trig.aoa_shift_threshold_deg is not None:
        flags |= 0x02
    return (
        bytes([flags])
        + _F64.pack(trig.echo_energy_threshold_db or 0.0)
        + _F64.pack(trig.aoa_shift_threshold_deg or 0.0)
    )


_TRIGGER_SIZE = 17


def _unpack_trigger(buf: bytes) -> TriggerConfig:
    flags = buf[0]
    if flags & ~0x03:
        raise LengthMismatch(f"undefined trigger flag bits 0x{flags:02x}")
    energy = _F64.unpack_from(buf, 1)[0]
    aoa = _F64.unpack_from(buf, 9)[0]
    return TriggerConfig(
        echo_energy_threshold_db=energy if flags & 0x01 else None,
        aoa_shift_threshold_deg=aoa if flags & 0x02 else None,
    )


def _encode_payload(msg: E2SensMessage) -> bytes:
    p = msg.payload
    if msg.msg_type == MsgType.SUBSCRIPTION_REQUEST:
        assert isinstance(p, SubscriptionRequestPayload)
        return bytes([p.mode]) + _F64.pack(p.period_ms) + _pack_trigger(p.trigger)
    if msg.msg_type == MsgType.SUBSCRIPTION_RESPONSE:
        if p is None:
            return b""
        assert isinstance(p, SubscriptionResponsePayload)
        return struct.pack(">IB", p.subscription_id, int(p.accepted))
    if msg.msg_type == MsgType.INDICATION:
        assert isinstance(p, SensingReport)
        return _REPORT.pack(
            p.t0, p.delay_s, p.range_m, p.doppler_hz, p.radial_velocity_mps,
            p.aoa_azimuth_deg, p.aoa_elevation_deg, p.echo_energy_db,
            p.si_power_db, p.multipath_spread_s, p.angular_entropy,
            p.confidence, p.beam_index, p.waveform_id, p.sequence_number,
        )
    if msg.msg_type == MsgType.CONTROL_REQUEST:
        assert isinstance(p, ControlRequestPayload)
        head = bytes([p.kind]) + struct.pack(">Q", p.issued_at)
        if p.kind == CommandKind.SET_PERIOD:
            return head + _F64.pack(p.period_ms)
        if p.kind == CommandKind.SET_BEAM:
            return head + bytes([p.beam_index])
        if p.kind == CommandKind.SET_SIC:
            return head + bytes([int(p.sic_enabled)])
        return head + _pack_trigger(p.trigger)
    assert isinstance(p, ControlAckPayload)
    return struct.pack(">QQ", p.received_at, p.applied_at)


def encode_message(msg: E2SensMessage) -> bytes:
    """Serialize a message: 10-byte header plus type-specific payload."""
    body = _encode_payload(msg)
    return _HEADER.pack(msg.version, msg.msg_type, msg.correlation_id, len(body)) + body


def _expect(body: bytes, size: int, what: str) -> None:
    if len(body) != size:
        raise LengthMismatch(f"{what}: expected {size} payload bytes, got {len(body)}")


def _decode_payload(msg_type: MsgType, body: bytes) -> Payload:
    if msg_type == MsgType.SUBSCRIPTION_REQUEST:
        _expect(body, 1 + 8 + _TRIGGER_SIZE, "subscription request")
        if body[0] not in (SubscriptionMode.PERIODIC, SubscriptionMode.EVENT):
            raise UnknownType(f"unknown subscription mode {body[0]}")
        return SubscriptionRequestPayload(
            mode=SubscriptionMode(body[0]),
            period_ms=_F64.unpack_from(body, 1)[0],
            trigger=_unpack_trigger(body[9:]),
        )
    if msg_type == MsgType.SUBSCRIPTION_RESPONSE:
        if not body:
            return None
        _expect(body, 5, "subscription response")
        sid, acc = struct.unpack(">IB", body)
        if acc > 1:
            raise LengthMismatch(f"accepted flag must be 0/1, got {acc}")
        return SubscriptionResponsePayload(subscription_id=sid, accepted=bool(acc))
    if msg_type == MsgType.INDICATION:
        _expect(body, REPORT_WIRE_SIZE, "indication")
        vals = _REPORT.unpack(body)
        return SensingReport(
            t0=vals[0], delay_s=vals[1], range_m=vals[2], doppler_hz=vals[3],
            radial_velocity_mps=vals[4], aoa_azimuth_deg=vals[5],
            aoa_elevation_deg=vals[6], echo_energy_db=vals[7],
            si_power_db=vals[8], multipath_spread_s=vals[9],
            angular_entropy=vals[10], confidence=vals[11],
            beam_index=vals[12], waveform_id=vals[13], sequence_number=vals[14],
        )
    if msg_type == MsgType.CONTROL_REQUEST:
        if len(body) < 9:
            raise LengthMismatch("control request shorter than kind + timestamp")
        try:
            kind = CommandKind(body[0])
        except ValueError:
            raise UnknownType(f"unknown command kind {body[0]}") from None
        issued_at = struct.unpack_from(">Q", body, 1)[0]
        rest = body[9:]
        if kind == CommandKind.SET_PERIOD:
            _expect(rest, 8, "set-period value")
            return ControlRequestPayload(kind, issued_at, period_ms=_F64.unpack(rest)[0])
        if kind == CommandKind.SET_BEAM:
            _expect(rest, 1, "set-beam value")
            return ControlRequestPayload(kind, issued_at, beam_index=rest[0])
        if kind == CommandKind.SET_SIC:
            _expect(rest, 1, "set-sic value")
            if rest[0] > 1:
                raise LengthMismatch(f"sic flag must be 0/1, got {rest[0]}")
            return ControlRequestPayload(kind, issued_at, sic_enabled=bool(rest[0]))
        _expect(rest, _TRIGGER_SIZE, "set-trigger value")
        return ControlRequestPayload(kind, issued_at, trigger=_unpack_trigger(rest))
    _expect(body, 16, "control ack")
    received_at, applied_at = struct.unpack(">QQ", body)
    return ControlAckPayload(received_at=received_at, applied_at=applied_at)


def decode_message(buf: bytes) -> E2SensMessage:
    """Parse one frame; rejects trailing bytes beyond the declared payload."""
    if len(buf) < HEADER_SIZE:
        raise Truncated(f"need {HEADER_SIZE} header bytes, got {len(buf)}")
    version, mtype, corr, plen = _HEADER.unpack_from(buf)
    if version != PROTOCOL_VERSION:
        raise UnknownVersion(f"unsupported version {version}")
    try:
        msg_type = MsgType(mtype)
    except ValueError:
        raise UnknownType(f"unknown message type {mtype}") from None
    if len(buf) < HEADER_SIZE + plen:
        raise Truncated(f"declared payload {plen}, available {len(buf) - HEADER_SIZE}")
    if len(buf) > HEADER_SIZE + plen:
        raise LengthMismatch(f"{len(buf) - HEADER_SIZE - plen} trailing bytes")
    payload = _decode_payload(msg_type, buf[HEADER_SIZE:HEADER_SIZE + plen])
    return E2SensMessage(msg_type=msg_type, correlation_id=corr, payload=payload)


class SubState(enum.Enum):
    IDLE = "IDLE"          # no subscription yet
    PENDING = "PENDING"
    ACTIVE = "ACTIVE"
    CLOSED = "CLOSED"


class SubEvent(enum.Enum):
    REQUEST_RECEIVED = "REQUEST_RECEIVED"
    RESPONSE_SENT = "RESPONSE_SENT"
    INDICATION_READY = "INDICATION_READY"
    CLOSE = "CLOSE"
    TRANSPORT_LOST = "TRANSPORT_LOST"


@dataclass
class Subscription:
    subscription_id: int
    mode: SubscriptionMode
    state: SubState = SubState.PENDING


@dataclass
class StepResult:
    state: SubState
    emitted: list[E2SensMessage] = field(default_factory=list)
    violation: str | None = None


class SubscriptionMachine:
    """dApp-side subscription lifecycle.

    Legal transitions: PENDING -> ACTIVE -> CLOSED and PENDING -> CLOSED.
    Indications are only emitted in ACTIVE; anything else is a protocol
    violation that leaves the state untouched. Subscription IDs increase
    monotonically across the machine's lifetime.
    """

    def __init__(self) -> None:
        self._next_id = 1
        self.subscription: Subscription | None = None
        self.violations: list[str] = []

    @property
    def state(self) -> SubState:
        return self.subscription.state if self.subscription else SubState.IDLE

    def _violate(self, event: SubEvent) -> StepResult:
        note = f"{event.value} in {self.state.value}"
        self.violations.append(note)
        return StepResult(self.state, violation=note)

    def step(self, event: SubEvent, *,
             request: SubscriptionRequestPayload | None = None,
             correlation_id: int = 0,
             report: SensingReport | None = None) -> StepResult:
        state = self.state

        if event == SubEvent.REQUEST_RECEIVED:
            if state in (SubState.PENDING, SubState.ACTIVE):
                return self._violate(event)
            if request is None:
                raise ValueError("REQUEST_RECEIVED needs the request payload")
            if request.mode == SubscriptionMode.PERIODIC and not valid_period(request.period_ms):
                return self._violate(event)
            if request.mode == SubscriptionMode.EVENT and request.trigger.empty:
                return self._violate(event)
            sub = Subscription(subscription_id=self._next_id, mode=request.mode)
            self._next_id += 1
            self.subscription = sub
            response = E2SensMessage(
                msg_type=MsgType.SUBSCRIPTION_RESPONSE,
                correlation_id=correlation_id,
                payload=SubscriptionResponsePayload(sub.subscription_id),
            )
            return StepResult(sub.state, emitted=[response])

        if event == SubEvent.RESPONSE_SENT:
            if state != SubState.PENDING:
                return self._violate(event)
            self.subscription.state = SubState.ACTIVE
            return StepResult(SubState.ACTIVE)

        if event == SubEvent.INDICATION_READY:
            if state != SubState.ACTIVE:
                return self._violate(event)
            if report is None:
                raise ValueError("INDICATION_READY needs the report")
            ind = E2SensMessage(
                msg_type=MsgType.INDICATION,
                correlation_id=self.subscription.subscription_id,
                payload=report,
            )
            return StepResult(SubState.ACTIVE, emitted=[ind])

        # CLOSE / TRANSPORT_LOST
        if state in (SubState.PENDING, SubState.ACTIVE):
            self.subscription.state = SubState.CLOSED
            return StepResult(SubState.CLOSED)
        if state == SubState.CLOSED:
            return StepResult(SubState.CLOSED)
        return self._violate(event)

    def handle_request(self, request: SubscriptionRequestPayload,
                       correlation_id: int) -> StepResult:
        """Accept a request and activate in one go: response emitted, ACTIVE."""
        res = self.step(SubEvent.REQUEST_RECEIVED, request=request,
                        correlation_id=correlation_id)
        if res.violation:
            return res
        act = self.step(SubEvent.RESPONSE_SENT)
        return StepResult(act.state, emitted=res.emitted)
