"""Service-model codec and subscription state machine tests."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oran_isac.e2sm import (
    HEADER_SIZE,
    MAX_VIOLATION_NOTES,
    REPORT_WIRE_SIZE,
    CommandKind,
    ControlAckPayload,
    ControlRequestPayload,
    E2DecodeError,
    E2SensMessage,
    LengthMismatch,
    MsgType,
    SensingReport,
    SubEvent,
    SubState,
    SubscriptionMachine,
    SubscriptionMode,
    SubscriptionRequestPayload,
    SubscriptionResponsePayload,
    TriggerConfig,
    Truncated,
    UnknownType,
    UnknownVersion,
    decode_message,
    encode_message,
    evaluate_triggers,
)

VECTORS = Path(__file__).resolve().parent.parent / "conformance" / "e2sm_vectors.txt"

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
u32 = st.integers(0, 2**32 - 1)
u64 = st.integers(0, 2**64 - 1)

triggers = st.builds(
    TriggerConfig,
    echo_energy_threshold_db=st.one_of(st.none(), finite),
    aoa_shift_threshold_deg=st.one_of(st.none(), finite),
)

reports = st.builds(
    SensingReport,
    t0=u64,
    delay_s=finite, range_m=finite, doppler_hz=finite,
    radial_velocity_mps=finite, aoa_azimuth_deg=finite,
    aoa_elevation_deg=finite, echo_energy_db=finite, si_power_db=finite,
    multipath_spread_s=finite, angular_entropy=finite, confidence=finite,
    beam_index=st.integers(0, 255), waveform_id=st.integers(0, 2**16 - 1),
    sequence_number=u64,
)

messages = st.one_of(
    st.builds(
        E2SensMessage,
        msg_type=st.just(MsgType.SUBSCRIPTION_REQUEST),
        correlation_id=u32,
        payload=st.builds(SubscriptionRequestPayload,
                          mode=st.sampled_from(SubscriptionMode),
                          period_ms=finite, trigger=triggers),
    ),
    st.builds(
        E2SensMessage,
        msg_type=st.just(MsgType.SUBSCRIPTION_RESPONSE),
        correlation_id=u32,
        payload=st.one_of(
            st.none(),
            st.builds(SubscriptionResponsePayload,
                      subscription_id=u32, accepted=st.booleans()),
        ),
    ),
    st.builds(
        E2SensMessage,
        msg_type=st.just(MsgType.INDICATION),
        correlation_id=u32,
        payload=reports,
    ),
    st.builds(
        E2SensMessage,
        msg_type=st.just(MsgType.CONTROL_REQUEST),
        correlation_id=u32,
        payload=st.builds(ControlRequestPayload,
                          kind=st.sampled_from(CommandKind),
                          issued_at=u64, period_ms=finite,
                          beam_index=st.integers(0, 255),
                          sic_enabled=st.booleans(), trigger=triggers),
    ),
    st.builds(
        E2SensMessage,
        msg_type=st.just(MsgType.CONTROL_ACK),
        correlation_id=u32,
        payload=st.builds(ControlAckPayload, received_at=u64, applied_at=u64),
    ),
)


def canonical(msg: E2SensMessage) -> E2SensMessage:
    """Strip fields the wire format does not carry for the given kind."""
    p = msg.payload
    if isinstance(p, ControlRequestPayload):
        if p.kind != CommandKind.SET_PERIOD:
            p = p._replace(period_ms=0.0)
        if p.kind != CommandKind.SET_BEAM:
            p = p._replace(beam_index=0)
        if p.kind != CommandKind.SET_SIC:
            p = p._replace(sic_enabled=False)
        if p.kind != CommandKind.SET_TRIGGER:
            p = p._replace(trigger=TriggerConfig())
        return msg._replace(payload=p)
    return msg


# The payload class each message type decodes to. Records of different
# classes compare equal when their values do, so ``==`` alone cannot tell.
PAYLOAD_CLASS = {
    MsgType.SUBSCRIPTION_REQUEST: SubscriptionRequestPayload,
    MsgType.SUBSCRIPTION_RESPONSE: SubscriptionResponsePayload,
    MsgType.INDICATION: SensingReport,
    MsgType.CONTROL_REQUEST: ControlRequestPayload,
    MsgType.CONTROL_ACK: ControlAckPayload,
}


class TestCodec:
    def test_minimal_response_is_10_bytes(self):
        msg = E2SensMessage(MsgType.SUBSCRIPTION_RESPONSE, 7)
        assert len(encode_message(msg)) == HEADER_SIZE == 10

    def test_indication_size_frozen(self):
        # Golden constant computed once from the field layout:
        # u64 + 11 * f64 + u8 + u16 + u64 = 107 payload bytes.
        assert REPORT_WIRE_SIZE == 107
        report = SensingReport(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        msg = E2SensMessage(MsgType.INDICATION, 1, report)
        assert len(encode_message(msg)) == 10 + 107

    @given(messages)
    @settings(max_examples=300)
    def test_round_trip(self, msg):
        msg = canonical(msg)
        decoded = decode_message(encode_message(msg))
        assert decoded == msg
        assert type(decoded.payload) is type(msg.payload)

    def test_empty_input_truncated(self):
        with pytest.raises(Truncated):
            decode_message(b"")

    def test_unknown_version(self):
        frame = bytearray(encode_message(E2SensMessage(MsgType.SUBSCRIPTION_RESPONSE, 0)))
        frame[0] = 2
        with pytest.raises(UnknownVersion):
            decode_message(bytes(frame))

    def test_unknown_type(self):
        frame = bytearray(encode_message(E2SensMessage(MsgType.SUBSCRIPTION_RESPONSE, 0)))
        frame[1] = 99
        with pytest.raises(UnknownType):
            decode_message(bytes(frame))

    def test_truncated_payload(self):
        msg = E2SensMessage(MsgType.CONTROL_ACK, 1, ControlAckPayload(1, 2))
        frame = encode_message(msg)
        with pytest.raises(Truncated):
            decode_message(frame[:-3])

    def test_trailing_bytes(self):
        frame = encode_message(E2SensMessage(MsgType.SUBSCRIPTION_RESPONSE, 0))
        with pytest.raises(LengthMismatch):
            decode_message(frame + b"\x00")

    def test_correlation_id_preserved(self):
        msg = E2SensMessage(MsgType.SUBSCRIPTION_RESPONSE, 0xDEADBEEF,
                            SubscriptionResponsePayload(3))
        assert decode_message(encode_message(msg)).correlation_id == 0xDEADBEEF

    @given(st.binary(max_size=256))
    @settings(max_examples=500)
    def test_fuzz_total(self, blob):
        try:
            msg = decode_message(blob)
        except (Truncated, UnknownVersion, UnknownType, LengthMismatch):
            return
        assert isinstance(msg, E2SensMessage)
        if msg.payload is None:
            assert msg.msg_type == MsgType.SUBSCRIPTION_RESPONSE
            assert len(blob) == HEADER_SIZE
        else:
            assert type(msg.payload) is PAYLOAD_CLASS[msg.msg_type]


def test_golden_vectors():
    for line in VECTORS.read_text().strip().splitlines():
        hexframe, expected_json = line.split(" ", 1)
        frame = bytes.fromhex(hexframe)
        expected = json.loads(expected_json)
        msg = decode_message(frame)
        assert msg.msg_type.name == expected["msg_type"]
        assert msg.correlation_id == expected["correlation_id"]
        assert encode_message(msg) == frame


def fresh_machine():
    return SubscriptionMachine()


PERIODIC = SubscriptionRequestPayload(SubscriptionMode.PERIODIC, period_ms=10.0)
EVENT = SubscriptionRequestPayload(
    SubscriptionMode.EVENT, trigger=TriggerConfig(echo_energy_threshold_db=-10.0))


class TestSubscriptionMachine:
    def test_fresh_request_activates_with_one_response(self):
        m = fresh_machine()
        res = m.handle_request(PERIODIC, correlation_id=42)
        assert res.state == SubState.ACTIVE
        assert len(res.emitted) == 1
        assert res.emitted[0].msg_type == MsgType.SUBSCRIPTION_RESPONSE
        assert res.emitted[0].correlation_id == 42

    def test_two_phase_activation(self):
        m = fresh_machine()
        res = m.step(SubEvent.REQUEST_RECEIVED, request=PERIODIC)
        assert res.state == SubState.PENDING
        res = m.step(SubEvent.RESPONSE_SENT)
        assert res.state == SubState.ACTIVE

    def test_close_stops_indications(self):
        m = fresh_machine()
        m.handle_request(PERIODIC, 1)
        m.step(SubEvent.CLOSE)
        assert m.state == SubState.CLOSED
        res = m.step(SubEvent.INDICATION_READY,
                     report=SensingReport(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
        assert res.violation is not None
        assert res.emitted == []

    def test_new_subscription_gets_new_id(self):
        m = fresh_machine()
        first = m.handle_request(PERIODIC, 1)
        id1 = first.emitted[0].payload.subscription_id
        m.step(SubEvent.CLOSE)
        second = m.handle_request(EVENT, 2)
        id2 = second.emitted[0].payload.subscription_id
        assert id2 != id1
        assert id2 > id1

    def test_indication_only_in_active(self):
        report = SensingReport(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        for prep, expect_ok in [
            (lambda m: None, False),                                    # IDLE
            (lambda m: m.step(SubEvent.REQUEST_RECEIVED, request=PERIODIC), False),  # PENDING
            (lambda m: m.handle_request(PERIODIC, 1), True),            # ACTIVE
            (lambda m: (m.handle_request(PERIODIC, 1), m.step(SubEvent.CLOSE)), False),  # CLOSED
        ]:
            m = fresh_machine()
            prep(m)
            res = m.step(SubEvent.INDICATION_READY, report=report)
            assert (res.violation is None) == expect_ok

    def test_transport_loss_closes(self):
        m = fresh_machine()
        m.handle_request(PERIODIC, 1)
        res = m.step(SubEvent.TRANSPORT_LOST)
        assert res.state == SubState.CLOSED

    def test_event_mode_requires_trigger(self):
        m = fresh_machine()
        bad = SubscriptionRequestPayload(SubscriptionMode.EVENT)
        res = m.step(SubEvent.REQUEST_RECEIVED, request=bad)
        assert res.violation is not None
        assert m.state == SubState.IDLE

    def test_duplicate_request_in_active_violates(self):
        m = fresh_machine()
        m.handle_request(PERIODIC, 1)
        res = m.step(SubEvent.REQUEST_RECEIVED, request=PERIODIC)
        assert res.violation is not None
        assert m.state == SubState.ACTIVE

    @pytest.mark.parametrize("prep, request_", [
        (lambda m: m.handle_request(PERIODIC, 1), PERIODIC),
        (lambda m: m.step(SubEvent.REQUEST_RECEIVED, request=PERIODIC), EVENT),
        (lambda m: None, SubscriptionRequestPayload(SubscriptionMode.PERIODIC)),
        (lambda m: None, SubscriptionRequestPayload(SubscriptionMode.EVENT)),
        (lambda m: (m.handle_request(PERIODIC, 1), m.step(SubEvent.CLOSE)),
         SubscriptionRequestPayload(SubscriptionMode.PERIODIC, period_ms=0.0)),
    ], ids=["duplicate-in-active", "duplicate-in-pending", "period-0", "empty-trigger",
            "period-0-after-close"])
    def test_a_refused_request_is_answered_once(self, prep, request_):
        m = fresh_machine()
        prep(m)
        state, sid = m.state, m.subscription_id
        res = m.handle_request(request_, correlation_id=77)
        assert res.emitted == [E2SensMessage(MsgType.SUBSCRIPTION_RESPONSE, 77,
                                             SubscriptionResponsePayload(0, accepted=False))]
        assert res.violation is not None
        assert m.violations == [res.violation]
        assert (res.state, m.state, m.subscription_id) == (state, state, sid)

    def test_ids_run_from_one_and_zero_names_none(self):
        m = fresh_machine()
        assert m.subscription_id == 0
        for expected in (1, 2, 3):
            res = m.handle_request(PERIODIC, expected)
            assert res.emitted[0].payload == SubscriptionResponsePayload(expected)
            m.step(SubEvent.CLOSE)

    def test_violation_notes_are_bounded(self):
        m = fresh_machine()
        m.handle_request(PERIODIC, 1)
        for corr in range(1000):
            assert m.handle_request(PERIODIC, corr).violation is not None
        assert len(m.violations) == MAX_VIOLATION_NOTES == 64
        assert m.unnoted_violations == 936
        assert m.state == SubState.ACTIVE


# Echo energies around the thresholds drawn below, and azimuths on and off a
# 15-degree beam grid, so that triggers fire and stay quiet.
_ENERGIES = st.sampled_from([-32.0, -15.0, -10.0, -2.0]) | st.floats(-60.0, 10.0)
_AZIMUTHS = st.sampled_from([-15.0, 0.0, 15.0, 30.0]) | st.floats(-180.0, 180.0)
valid_triggers = st.builds(
    TriggerConfig,
    st.none() | st.sampled_from([-15.0, -10.0]) | finite,
    st.none() | st.sampled_from([10.0, 15.0, 180.0]) | st.floats(0.0, 180.0, exclude_min=True),
).filter(lambda t: t != TriggerConfig())


@given(
    mode=st.sampled_from(SubscriptionMode),
    first=valid_triggers,
    steps=st.lists(st.tuples(_ENERGIES, _AZIMUTHS, st.none() | valid_triggers), max_size=30),
)
@settings(max_examples=300)
def test_the_machine_emits_what_the_triggers_decide(mode, first, steps):
    """EVENT mode emits a report only when ``evaluate_triggers`` fires against the one
    before it, emitted or not; PERIODIC mode emits every report.

    The oracle replays ``evaluate_triggers`` over the whole sequence, with
    each step's new trigger, if any, set before its report.
    """
    m = fresh_machine()
    m.handle_request(SubscriptionRequestPayload(mode, 10.0, first), 1)
    trigger, prev = first, None
    for k, (energy, azimuth, new_trigger) in enumerate(steps, start=1):
        if new_trigger is not None:
            assert m.set_trigger(new_trigger)
            trigger = new_trigger
        report = SensingReport(k, 0, 0, 0, 0, azimuth, 0, energy, 0, 0, 0, 1.0, 0, 0, k)
        fires = mode == SubscriptionMode.PERIODIC or bool(evaluate_triggers(report, prev, trigger))
        res = m.step(SubEvent.INDICATION_READY, report=report)
        assert res.emitted == ([E2SensMessage(MsgType.INDICATION, 1, report)] if fires else [])
        assert res.violation is None and m.prev_report == report
        prev = report
