"""E2 sensing service model: message schema, binary codec, subscription machine.

A deliberately small fixed-width big-endian encoding stands in for ASN.1: a
10-byte header (version, message type, correlation id, payload length)
followed by a type-specific payload. Each record is a named tuple whose field
order is its wire order, so one ``struct`` layout per message both packs and
unpacks it. Every malformed input maps to exactly one of four error kinds
(Truncated, UnknownVersion, UnknownType, LengthMismatch) so receivers can
count failure modes separately.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

PROTOCOL_VERSION = 1
HEADER_SIZE = 10

# The longest report period the loop can schedule: one hour.
MAX_PERIOD_MS = 3_600_000.0

_HEADER = struct.Struct(">BBII")


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


class TriggerConfig(NamedTuple):
    """Event-driven reporting conditions; ``valid_trigger`` says which may be used."""

    echo_energy_threshold_db: float | None = None
    aoa_shift_threshold_deg: float | None = None


def valid_trigger(trigger: TriggerConfig) -> bool:
    """The one trigger rule: a threshold set, a set energy one finite, a set AoA one in (0, 180]."""
    energy, aoa = trigger
    return ((energy, aoa) != (None, None) and (energy is None or math.isfinite(energy))
            and (aoa is None or 0.0 < aoa <= 180.0))


ECHO_ENERGY = "ECHO_ENERGY"
AOA_SHIFT = "AOA_SHIFT"


def evaluate_triggers(report: SensingReport, prev: SensingReport | None,
                      trig: TriggerConfig) -> list[str]:
    """Pure trigger check: echo energy crossing its threshold (a report on it is below
    it; first sight crosses up from below) and AoA jumps of at least the AoA one."""
    fired: list[str] = []
    thr = trig.echo_energy_threshold_db
    if thr is not None and ((report.echo_energy_db > thr)
                            != (prev is not None and prev.echo_energy_db > thr)):
        fired.append(ECHO_ENERGY)
    aoa_thr = trig.aoa_shift_threshold_deg
    if aoa_thr is not None and prev is not None:
        delta = abs(report.aoa_azimuth_deg - prev.aoa_azimuth_deg)
        delta = min(delta, 360.0 - delta)
        if delta >= aoa_thr:
            fired.append(AOA_SHIFT)
    return fired


# A trigger on the wire: u8 flags (0x01 energy set, 0x02 AoA set), then both
# thresholds as f64, 0.0 where unset.
_TRIGGER = struct.Struct(">Bdd")


class SensingReport(NamedTuple):
    """One telemetry record exported by the sensing pipeline, in wire order."""

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


# INDICATION payload: u64 t0, eleven f64 metrics, u8 beam, u16 waveform,
# u64 sequence number.
_REPORT = struct.Struct(">Q11dBHQ")
REPORT_WIRE_SIZE = _REPORT.size


class SubscriptionRequestPayload(NamedTuple):
    mode: SubscriptionMode
    period_ms: float = 0.0
    trigger: TriggerConfig = TriggerConfig()


# u8 mode, f64 period, then the trigger's flags and thresholds.
_SUB_REQUEST = struct.Struct(">BdBdd")


class SubscriptionResponsePayload(NamedTuple):
    subscription_id: int
    accepted: bool = True


# u32 subscription id, u8 accepted flag.
_SUB_RESPONSE = struct.Struct(">I?")


class ControlRequestPayload(NamedTuple):
    """A command: its kind, its issue stamp and the one value the kind carries."""

    kind: CommandKind
    issued_at: int                # ns
    period_ms: float = 0.0
    beam_index: int = 0
    sic_enabled: bool = False
    trigger: TriggerConfig = TriggerConfig()


# u8 kind, u64 issue stamp, then the kind's value: the record field that holds
# it and its layout. A SET_SIC value is a 0/1 flag.
_COMMAND_HEAD = struct.Struct(">BQ")
_FLAG = struct.Struct(">?")
_COMMAND_VALUE = {
    CommandKind.SET_PERIOD: ("period_ms", struct.Struct(">d")),
    CommandKind.SET_BEAM: ("beam_index", struct.Struct(">B")),
    CommandKind.SET_SIC: ("sic_enabled", _FLAG),
    CommandKind.SET_TRIGGER: ("trigger", _TRIGGER),
}


class ControlAckPayload(NamedTuple):
    received_at: int              # ns, command receipt at the dApp
    applied_at: int               # ns, when the command took effect


_ACK = struct.Struct(">QQ")

Payload = (
    SubscriptionRequestPayload
    | SubscriptionResponsePayload
    | SensingReport
    | ControlRequestPayload
    | ControlAckPayload
    | None
)


class E2SensMessage(NamedTuple):
    """A frame's content; its header version is always ``PROTOCOL_VERSION``."""

    msg_type: MsgType
    correlation_id: int
    payload: Payload = None


def _trigger_wire(trigger: TriggerConfig) -> tuple[int, float, float]:
    energy, aoa = trigger
    return (energy is not None) | (aoa is not None) << 1, energy or 0.0, aoa or 0.0


def _enum_code(kind: type[enum.IntEnum], code: int):
    """The member of ``kind`` a wire code names; ``UnknownType`` for any other code."""
    try:
        return kind(code)
    except ValueError:
        raise UnknownType(f"unknown {kind.__name__} code {code}") from None


def _flag_bits(flags: int, allowed: int, what: str) -> None:
    """A flag byte may set only the ``allowed`` bits; ``LengthMismatch`` otherwise."""
    if flags & ~allowed:
        raise LengthMismatch(f"{what} 0x{flags:02x} sets undefined bits")


def _trigger(flags: int, energy: float, aoa: float) -> TriggerConfig:
    _flag_bits(flags, 0x03, "trigger flags")
    return TriggerConfig(energy if flags & 0x01 else None, aoa if flags & 0x02 else None)


def _encode_payload(msg_type: MsgType, p: Payload) -> bytes:
    if msg_type == MsgType.INDICATION:
        return _REPORT.pack(*p)
    if msg_type == MsgType.CONTROL_ACK:
        return _ACK.pack(*p)
    if msg_type == MsgType.SUBSCRIPTION_RESPONSE:
        return b"" if p is None else _SUB_RESPONSE.pack(*p)
    if msg_type == MsgType.SUBSCRIPTION_REQUEST:
        *head, trigger = p
        return _SUB_REQUEST.pack(*head, *_trigger_wire(trigger))
    name, layout = _COMMAND_VALUE[p.kind]
    value = getattr(p, name)
    wire = _trigger_wire(value) if layout is _TRIGGER else (value,)
    return _COMMAND_HEAD.pack(*p[:2]) + layout.pack(*wire)


def encode_message(msg: E2SensMessage) -> bytes:
    """Serialize a message: 10-byte header plus type-specific payload."""
    msg_type, correlation_id, payload = msg
    body = _encode_payload(msg_type, payload)
    return _HEADER.pack(PROTOCOL_VERSION, msg_type, correlation_id, len(body)) + body


def _expect(body: bytes, size: int, what: str) -> None:
    if len(body) != size:
        raise LengthMismatch(f"{what}: expected {size} payload bytes, got {len(body)}")


def _decode_payload(msg_type: MsgType, body: bytes) -> Payload:
    if msg_type == MsgType.INDICATION:
        _expect(body, _REPORT.size, "indication")
        return SensingReport._make(_REPORT.unpack(body))
    if msg_type == MsgType.CONTROL_ACK:
        _expect(body, _ACK.size, "control ack")
        return ControlAckPayload._make(_ACK.unpack(body))
    if msg_type == MsgType.SUBSCRIPTION_RESPONSE:
        if not body:
            return None
        _expect(body, _SUB_RESPONSE.size, "subscription response")
        _flag_bits(body[-1], 0x01, "accepted flag")
        return SubscriptionResponsePayload._make(_SUB_RESPONSE.unpack(body))
    if msg_type == MsgType.SUBSCRIPTION_REQUEST:
        _expect(body, _SUB_REQUEST.size, "subscription request")
        mode, period, *trigger = _SUB_REQUEST.unpack(body)
        return SubscriptionRequestPayload(
            _enum_code(SubscriptionMode, mode), period, _trigger(*trigger))
    if len(body) < _COMMAND_HEAD.size:
        raise LengthMismatch("control request shorter than kind + timestamp")
    kind = _enum_code(CommandKind, body[0])
    _, stamp = _COMMAND_HEAD.unpack_from(body)
    name, layout = _COMMAND_VALUE[kind]
    rest = body[_COMMAND_HEAD.size:]
    _expect(rest, layout.size, f"{kind.name} value")
    if layout is _FLAG:
        _flag_bits(rest[0], 0x01, f"{kind.name} flag")
    wire = layout.unpack(rest)
    value = _trigger(*wire) if layout is _TRIGGER else wire[0]
    return ControlRequestPayload(kind, stamp, **{name: value})


def decode_message(buf: bytes) -> E2SensMessage:
    """Parse one frame; rejects trailing bytes beyond the declared payload."""
    if len(buf) < HEADER_SIZE:
        raise Truncated(f"need {HEADER_SIZE} header bytes, got {len(buf)}")
    version, mtype, corr, plen = _HEADER.unpack_from(buf)
    if version != PROTOCOL_VERSION:
        raise UnknownVersion(f"unsupported version {version}")
    msg_type = _enum_code(MsgType, mtype)
    if len(buf) < HEADER_SIZE + plen:
        raise Truncated(f"declared payload {plen}, available {len(buf) - HEADER_SIZE}")
    if len(buf) > HEADER_SIZE + plen:
        raise LengthMismatch(f"{len(buf) - HEADER_SIZE - plen} trailing bytes")
    return E2SensMessage(msg_type, corr, _decode_payload(msg_type, buf[HEADER_SIZE:]))


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


# Each legal (state, event) pair and the state it leads to. A pair missing
# here is a protocol violation that leaves the state as it is.
_TRANSITIONS = {
    (SubState.IDLE, SubEvent.REQUEST_RECEIVED): SubState.PENDING,
    (SubState.CLOSED, SubEvent.REQUEST_RECEIVED): SubState.PENDING,
    (SubState.PENDING, SubEvent.RESPONSE_SENT): SubState.ACTIVE,
    (SubState.ACTIVE, SubEvent.INDICATION_READY): SubState.ACTIVE,
    **{(state, event): SubState.CLOSED
       for state in (SubState.PENDING, SubState.ACTIVE, SubState.CLOSED)
       for event in (SubEvent.CLOSE, SubEvent.TRANSPORT_LOST)},
}


@dataclass
class StepResult:
    state: SubState
    emitted: list[E2SensMessage] = field(default_factory=list)
    violation: str | None = None


# Violation notes a machine keeps; later violations are only counted.
MAX_VIOLATION_NOTES = 64


class SubscriptionMachine:
    """dApp-side subscription lifecycle: ``step`` follows ``_TRANSITIONS``.

    A step the table lacks, or a request that is malformed, is a protocol
    violation: it leaves the state untouched and ``step`` emits nothing, so
    indications are only emitted in ACTIVE. The machine makes every
    INDICATION: ``INDICATION_READY`` emits its report in PERIODIC mode, and in
    EVENT mode only if ``evaluate_triggers`` fires against ``prev_report``,
    which the report then replaces in either mode. An accepted request sets
    ``trigger`` and clears ``prev_report``; ``set_trigger`` replaces the
    trigger. ``handle_request`` answers every request, a refused one with
    ``accepted=False`` and subscription id 0. The first ``MAX_VIOLATION_NOTES``
    violations are noted in ``violations`` and any later ones only counted in
    ``unnoted_violations``, so a peer cannot grow the list. ``subscription_id``
    is 0 before the first accept, and each accept takes the next id: 1, 2, ...
    """

    def __init__(self) -> None:
        self.state = SubState.IDLE
        self.subscription_id = 0
        self.mode: SubscriptionMode | None = None
        self.trigger = TriggerConfig()
        self.prev_report: SensingReport | None = None
        self.violations: list[str] = []
        self.unnoted_violations = 0

    def _violate(self, event: SubEvent) -> StepResult:
        note = f"{event.value} in {self.state.value}"
        if len(self.violations) < MAX_VIOLATION_NOTES:
            self.violations.append(note)
        else:
            self.unnoted_violations += 1
        return StepResult(self.state, violation=note)

    def step(self, event: SubEvent, *,
             request: SubscriptionRequestPayload | None = None,
             correlation_id: int = 0,
             report: SensingReport | None = None) -> StepResult:
        next_state = _TRANSITIONS.get((self.state, event))
        if next_state is None:
            return self._violate(event)
        emitted = []
        if event == SubEvent.REQUEST_RECEIVED:
            if request is None:
                raise ValueError("REQUEST_RECEIVED needs the request payload")
            if not (valid_trigger(request.trigger) if request.mode == SubscriptionMode.EVENT
                    else valid_period(request.period_ms)):
                return self._violate(event)
            self.subscription_id += 1
            self.mode, self.trigger, self.prev_report = request.mode, request.trigger, None
            emitted = [E2SensMessage(MsgType.SUBSCRIPTION_RESPONSE, correlation_id,
                                     SubscriptionResponsePayload(self.subscription_id))]
        elif event == SubEvent.INDICATION_READY:
            if report is None:
                raise ValueError("INDICATION_READY needs the report")
            prev, self.prev_report = self.prev_report, report
            if self.mode != SubscriptionMode.EVENT or evaluate_triggers(report, prev, self.trigger):
                emitted = [E2SensMessage(MsgType.INDICATION, self.subscription_id, report)]
        self.state = next_state
        return StepResult(next_state, emitted)

    def set_trigger(self, trigger: TriggerConfig) -> bool:
        """Replace the trigger; False, with nothing changed, for one ``valid_trigger`` refuses."""
        if not valid_trigger(trigger):
            return False
        self.trigger = trigger
        return True

    def handle_request(self, request: SubscriptionRequestPayload,
                       correlation_id: int) -> StepResult:
        """Answer a request: accepted and ACTIVE, or refused with the state unchanged."""
        res = self.step(SubEvent.REQUEST_RECEIVED, request=request,
                        correlation_id=correlation_id)
        if res.violation:
            res.emitted.append(E2SensMessage(MsgType.SUBSCRIPTION_RESPONSE, correlation_id,
                                             SubscriptionResponsePayload(0, accepted=False)))
        else:
            res.state = self.step(SubEvent.RESPONSE_SENT).state
        return res
