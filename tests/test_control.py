"""Policy enforcement and xApp control-loop tests."""

import json
import logging
import math
import os
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from oran_isac.control import (
    _POLICY_FIELDS,
    A1IsacPolicy,
    PolicyParseError,
    PolicyViolation,
    RequestTimeout,
    SubscriptionRefused,
    UnexpectedReply,
    Verdict,
    XApp,
    check_beam,
    enforce_policy,
    load_policy,
    policy_from_dict,
)
from oran_isac.dapp import DappConfig, SensingDapp
from oran_isac.e2sm import (
    CommandKind,
    ControlAckPayload,
    ControlRequestPayload,
    E2SensMessage,
    MsgType,
    SubscriptionMode,
    SubscriptionRequestPayload,
    SubscriptionResponsePayload,
    TriggerConfig,
    decode_message,
    encode_message,
)
from oran_isac.ofh import BeamTable, WaveformConfig
from oran_isac.radio import EchoScene, Target
from oran_isac import transport
from oran_isac.transport import Disconnected, EndpointKind, channel_pair
from virtual import ScriptedEnd, VirtualClock, peer_scripts

BEAMS = BeamTable({0: (0.0, 0.0), 1: (15.0, 0.0)})
POLICY = A1IsacPolicy(min_period_ms=5.0, max_period_ms=100.0)


class TestPolicy:
    def test_period_in_bounds_accepts(self):
        req = SubscriptionRequestPayload(SubscriptionMode.PERIODIC, period_ms=10.0)
        assert enforce_policy(POLICY, req).verdict == Verdict.ACCEPT

    def test_low_period_clamps_to_min(self):
        cmd = ControlRequestPayload(CommandKind.SET_PERIOD, 0, period_ms=3.0)
        decision = enforce_policy(POLICY, cmd)
        assert decision.verdict == Verdict.CLAMP
        assert decision.period_ms == 5.0

    def test_beam_out_of_scope_rejected(self):
        policy = A1IsacPolicy(geographic_scope=((-45.0, 45.0),))
        assert check_beam(policy, 90.0).verdict == Verdict.REJECT
        assert check_beam(policy, 0.0).verdict == Verdict.ACCEPT

    def test_a_beam_on_a_sector_edge_is_in_scope(self):
        policy = A1IsacPolicy(geographic_scope=((-45.0, 45.0),))
        assert policy.azimuth_in_scope(-45.0) and policy.azimuth_in_scope(45.0)
        assert not policy.azimuth_in_scope(math.nextafter(45.0, 90.0))
        assert not policy.azimuth_in_scope(math.nextafter(-45.0, -90.0))

    def test_empty_event_trigger_rejected(self):
        req = SubscriptionRequestPayload(SubscriptionMode.EVENT)
        assert enforce_policy(POLICY, req).verdict == Verdict.REJECT

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            A1IsacPolicy(min_period_ms=10.0, max_period_ms=5.0)

    @given(
        min_p=st.floats(0.1, 50.0),
        span=st.floats(0.0, 500.0),
        period=st.floats(-10.0, 1000.0),
    )
    @settings(max_examples=300)
    def test_total_and_clamped_inside_bounds(self, min_p, span, period):
        policy = A1IsacPolicy(min_period_ms=min_p, max_period_ms=min_p + span)
        cmd = ControlRequestPayload(CommandKind.SET_PERIOD, 0, period_ms=period)
        decision = enforce_policy(policy, cmd)
        assert decision.verdict in (Verdict.ACCEPT, Verdict.CLAMP, Verdict.REJECT)
        if decision.verdict == Verdict.CLAMP:
            assert policy.min_period_ms <= decision.period_ms <= policy.max_period_ms
        if decision.verdict == Verdict.ACCEPT and period > 0:
            assert policy.min_period_ms <= period <= policy.max_period_ms


def test_load_policy(tmp_path):
    doc = {
        "policy_id": "sector-a",
        "geographic_scope": [[-45, 45]],
        "min_period_ms": 5.0,
        "max_period_ms": 100.0,
    }
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(doc))
    policy = load_policy(path)
    assert policy.policy_id == "sector-a"
    assert policy.min_period_ms == 5.0
    assert not policy.azimuth_in_scope(60.0)


def test_load_policy_not_json_raises_typed_error(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text("{not json")
    with pytest.raises(PolicyParseError, match="not valid JSON"):
        load_policy(path)


@pytest.mark.parametrize("doc, field", [
    ({"min_period_ms": "x"}, "min_period_ms"),
    ({"max_period_ms": None}, "max_period_ms"),
    ({"geographic_scope": [[-45]]}, "geographic_scope"),
    ({"energy_limit": 0.5}, "energy_limit"),
    ({"temporal_budget_ms_per_s": 500.0}, "temporal_budget_ms_per_s"),
    ({"policy_id": [1]}, "policy_id"),
    ({"min_period_ms": "5"}, "min_period_ms"),
], ids=["not-a-number", "null", "short-scope", "unknown-key", "deleted-budget-key",
        "list-id", "string-number"])
def test_malformed_policy_field_is_named(doc, field):
    with pytest.raises(PolicyParseError, match=f"A1 policy field '{field}'"):
        policy_from_dict(doc)


@pytest.mark.parametrize("doc", [
    [1],
    {"min_period_ms": 10.0, "max_period_ms": 5.0},
    {"min_period_ms": "nan", "max_period_ms": "nan"},
    {"max_period_ms": "inf"},
    {"min_period_ms": 0.0},
    {"min_period_ms": -5.0},
], ids=["not-an-object", "inverted-bounds", "nan-bounds", "inf-bound", "zero-bound",
        "negative-bound"])
def test_invalid_policy_document_raises_typed_error(doc):
    with pytest.raises(PolicyParseError, match="A1 policy"):
        policy_from_dict(doc)


def stack(policy=POLICY, period_ms=20.0):
    cfg = WaveformConfig(64, 16, 100e6 / 64, "qpsk-prs", 3.5e9, 1e8, 4)
    scene = EchoScene(targets=(Target(20.0, 0.0, 0.0),), snr_db=20.0)
    dapp_end, xapp_end = channel_pair()
    dapp = SensingDapp(DappConfig(report_period_ms=period_ms), {0: cfg}, BEAMS,
                       scene, dapp_end)
    xapp = XApp(xapp_end, policy=policy, beam_table=BEAMS)
    dapp.start()
    xapp.start()
    return dapp, xapp


# One A1 constraint per row: an altered value, and an xApp request that the
# default policy lets through and the altered one refuses. "policy_id" names the
# policy and constrains nothing, so it has no row.
CONSTRAINT_ROWS = {
    "geographic_scope": (((-10.0, 10.0),), lambda xapp: xapp.set_beam(1)),
    "min_period_ms": (20.0, lambda xapp: xapp.subscribe(SubscriptionMode.PERIODIC,
                                                        period_ms=10.0)),
    "max_period_ms": (50.0, lambda xapp: xapp.set_period(100.0)),
}


@pytest.mark.parametrize("field", CONSTRAINT_ROWS)
def test_every_policy_field_is_enforced(field):
    assert CONSTRAINT_ROWS.keys() == _POLICY_FIELDS.keys() - {"policy_id"}
    value, request = CONSTRAINT_ROWS[field]
    dapp, xapp = stack(policy=A1IsacPolicy())
    try:
        request(xapp)
    finally:
        xapp.stop()
        dapp.stop()
    dapp, xapp = stack(policy=A1IsacPolicy(**{field: value}))
    try:
        with pytest.raises(PolicyViolation):
            request(xapp)
    finally:
        xapp.stop()
        dapp.stop()


class TestXApp:
    def test_subscribe_within_policy(self):
        dapp, xapp = stack()
        try:
            sid = xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0)
            assert sid >= 1
        finally:
            xapp.stop()
            dapp.stop()

    def test_subscribe_below_policy_min(self):
        dapp, xapp = stack()
        try:
            with pytest.raises(PolicyViolation):
                xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=2.0)
        finally:
            xapp.stop()
            dapp.stop()

    def test_set_period_below_min_sends_nothing(self):
        dapp, xapp = stack()
        try:
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0)
            with pytest.raises(PolicyViolation):
                xapp.set_period(1.0)
        finally:
            xapp.stop()
            dapp.stop()

    def test_closed_loop_probe_identity(self):
        dapp, xapp = stack(period_ms=10.0)
        try:
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0)
            for _ in range(5):
                s = xapp.closed_loop_probe()
                assert s.closed_loop_ns == s.telemetry_latency_ns + s.control_latency_ns
                assert s.t1_ns >= s.t0_ns
                assert s.t_cmd_applied_ns >= s.t_cmd_issue_ns
        finally:
            xapp.stop()
            dapp.stop()

    def test_set_period_noop_acks(self):
        dapp, xapp = stack(period_ms=10.0)
        try:
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0)
            ack = xapp.set_period(10.0)
            assert ack.applied_at >= ack.received_at
        finally:
            xapp.stop()
            dapp.stop()

    def test_t1_after_t0_always(self):
        dapp, xapp = stack(period_ms=10.0)
        try:
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0)
            time.sleep(0.3)
        finally:
            xapp.stop()
            dapp.stop()
        assert xapp.reports
        for r in xapp.reports:
            assert r.t1_ns >= r.report.t0

    def test_correlation_ids_are_distinct_across_threads(self):
        xapp = XApp(channel_pair()[1])
        ids: list[list[int]] = [[] for _ in range(4)]

        def draw(out):
            for _ in range(5000):
                out.append(xapp._next_corr())

        threads = [threading.Thread(target=draw, args=(out,)) for out in ids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        drawn = [i for out in ids for i in out]
        assert len(set(drawn)) == len(drawn) == 20000

    def test_await_report_without_subscription_times_out(self):
        xapp = XApp(channel_pair()[1])
        xapp.start()
        try:
            start = time.monotonic()
            with pytest.raises(RequestTimeout):
                xapp.await_report(0, timeout=0.05)
            assert time.monotonic() - start < 1.0
        finally:
            xapp.stop()

    def test_stop_closes_the_channel(self):
        xapp = XApp(channel_pair()[1])
        xapp.start()
        xapp.stop()
        with pytest.raises(Disconnected):
            xapp.channel.recv(timeout=0)

    def test_stop_closes_the_tcp_socket(self):
        dapp_end, xapp_end = channel_pair(EndpointKind.TCP)
        xapp = XApp(xapp_end)
        xapp.start()
        xapp.stop()
        try:
            with pytest.raises(Disconnected, match="peer closed"):
                dapp_end.recv(timeout=1.0)
        finally:
            dapp_end.close()

    @pytest.mark.parametrize("kind", list(EndpointKind), ids=lambda k: k.value)
    def test_stop_of_an_idle_xapp_is_prompt(self, kind):
        # Closing the channel ends the receive loop at once: no poll to wait out.
        peer, xapp_end = channel_pair(kind)
        xapp = XApp(xapp_end)
        xapp.start()
        try:
            time.sleep(0.01)
            start = time.monotonic()
            xapp.stop()
            assert time.monotonic() - start < 0.05
            assert not xapp._thread.is_alive()
        finally:
            peer.close()

    def test_late_reply_is_counted_not_kept(self):
        xapp_end, peer = channel_pair()
        xapp = XApp(xapp_end)
        xapp.start()
        try:
            with pytest.raises(RequestTimeout):
                xapp.set_sic(False, timeout=0.05)
            request = decode_message(peer.recv(timeout=1.0))
            peer.send(encode_message(E2SensMessage(
                MsgType.CONTROL_ACK, request.correlation_id, ControlAckPayload(0, 0))))
            deadline = time.monotonic() + 2.0
            while xapp.late_replies == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            xapp.stop()
        assert xapp.late_replies == 1
        assert xapp._pending == {}


# A request, a reply of the wrong type or with no payload for it, and the
# reply's type as the xApp counts it.
WRONG_REPLIES = {
    "subscription-answered-by-ack": (
        lambda xapp: xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0),
        lambda corr: E2SensMessage(MsgType.CONTROL_ACK, corr, ControlAckPayload(1, 1)),
        "CONTROL_ACK",
    ),
    "subscription-answered-by-empty-response": (
        lambda xapp: xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0),
        lambda corr: E2SensMessage(MsgType.SUBSCRIPTION_RESPONSE, corr),
        "SUBSCRIPTION_RESPONSE",
    ),
    "control-answered-by-response": (
        lambda xapp: xapp.set_sic(False),
        lambda corr: E2SensMessage(MsgType.SUBSCRIPTION_RESPONSE, corr,
                                   SubscriptionResponsePayload(1, True)),
        "SUBSCRIPTION_RESPONSE",
    ),
}


@pytest.mark.parametrize("request_op, reply, counted", WRONG_REPLIES.values(),
                         ids=WRONG_REPLIES.keys())
def test_a_wrong_reply_raises_a_typed_error_and_is_counted(request_op, reply, counted):
    xapp_end, peer = channel_pair()

    def stand_in_dapp():
        request = decode_message(peer.recv(timeout=2.0))
        peer.send(encode_message(reply(request.correlation_id)))

    xapp = XApp(xapp_end)
    xapp.start()
    peer_thread = threading.Thread(target=stand_in_dapp, daemon=True)
    peer_thread.start()
    try:
        with pytest.raises(UnexpectedReply):
            request_op(xapp)
        assert xapp._thread.is_alive()
    finally:
        peer_thread.join(2.0)
        xapp.stop()
        peer.close()
    assert xapp.unexpected_replies == {counted: 1}
    assert xapp.subscription_id is None
    assert xapp.late_replies == 0
    assert xapp._pending == {}


def test_a_refused_subscription_raises_and_records_nothing():
    xapp_end, peer = channel_pair()

    def stand_in_dapp():
        request = decode_message(peer.recv(timeout=2.0))
        peer.send(encode_message(E2SensMessage(
            MsgType.SUBSCRIPTION_RESPONSE, request.correlation_id,
            SubscriptionResponsePayload(5, accepted=False))))

    xapp = XApp(xapp_end)
    xapp.start()
    peer_thread = threading.Thread(target=stand_in_dapp, daemon=True)
    peer_thread.start()
    try:
        with pytest.raises(SubscriptionRefused):
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0)
    finally:
        peer_thread.join(2.0)
        xapp.stop()
        peer.close()
    assert xapp.subscription_id is None
    assert xapp.current_period_ms is None
    assert xapp.unexpected_replies == {}


def test_the_dapp_refuses_a_second_subscription_and_keeps_the_first():
    dapp, xapp = stack(period_ms=20.0)
    try:
        first = xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=20.0)
        start = time.monotonic()
        with pytest.raises(SubscriptionRefused):
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0, timeout=5.0)
        refused_after = time.monotonic() - start
        xapp.await_report(len(xapp.reports) + 3, timeout=2.0)
    finally:
        xapp.stop()
        dapp.stop()
    assert refused_after < 1.0
    assert xapp.subscription_id == first
    assert xapp.current_period_ms == dapp.config.report_period_ms == 20.0
    seqs = [r.report.sequence_number for r in xapp.reports]
    assert seqs == list(range(1, len(seqs) + 1))
    assert xapp.late_replies == 0 and xapp.unexpected_replies == {}


# A request the xApp serves none of, sent to it by its peer.
REQUESTS_TO_THE_XAPP = {
    "CONTROL_REQUEST": ControlRequestPayload(CommandKind.SET_SIC, issued_at=1),
    "SUBSCRIPTION_REQUEST": SubscriptionRequestPayload(SubscriptionMode.PERIODIC,
                                                       period_ms=10.0),
}


@pytest.mark.parametrize("msg_type", REQUESTS_TO_THE_XAPP)
def test_a_request_sent_to_the_xapp_is_unexpected_not_a_late_reply(msg_type):
    xapp_end, peer = channel_pair()
    xapp = XApp(xapp_end)
    xapp.start()
    try:
        peer.send(encode_message(E2SensMessage(
            MsgType[msg_type], 1, REQUESTS_TO_THE_XAPP[msg_type])))
        deadline = time.monotonic() + 2.0
        while not xapp.unexpected_frames and time.monotonic() < deadline:
            time.sleep(0.01)
        assert xapp._thread.is_alive()
    finally:
        xapp.stop()
        peer.close()
    assert xapp.unexpected_frames == {msg_type: 1}
    assert xapp.late_replies == 0


@settings(max_examples=300, deadline=None)
@given(peer_scripts(20_000_000))
def test_the_xapp_accounts_for_every_peer_frame(script):
    """Any script of peer frames: the receive loop reads them all and ends with the script.

    Every frame is a report, a late reply (nobody awaits one here), or
    counted as undecodable or unexpected.
    """
    clock = VirtualClock()
    end = ScriptedEnd(clock, script, max((t for t, _ in script), default=0) + 1)
    xapp = XApp(end, clock=clock)
    xapp._recv_loop()
    assert not end.inbox and clock.t == end.end_ns
    assert len(xapp.reports) + xapp.late_replies + sum(xapp.decode_errors.values()) \
        + sum(xapp.unexpected_frames.values()) == len(script)


def _subscribe_and_await_reports(dapp, xapp):
    xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=20.0)
    xapp.await_report(2, timeout=5.0)
    return dapp._thread, xapp._thread


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="the platform has no sched_getaffinity")
def test_loop_threads_share_one_cpu():
    dapp, xapp = stack()
    try:
        threads = _subscribe_and_await_reports(dapp, xapp)
        masks = [os.sched_getaffinity(t.native_id) for t in threads]
    finally:
        xapp.stop()
        dapp.stop()
    assert [t.name for t in threads] == ["sensing-dapp", "xapp-recv"]
    assert masks[0] == masks[1] == {min(os.sched_getaffinity(0))}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the platform has no sched_setaffinity")
def test_the_starting_thread_shares_the_loop_cpu():
    masks = {}

    def start_a_stack():
        # Widen this thread to every CPU the process may use, whatever an
        # earlier stack left on the thread that runs the tests.
        os.sched_setaffinity(0, range(os.cpu_count()))
        dapp, xapp = stack()
        try:
            threads = _subscribe_and_await_reports(dapp, xapp)
            masks.update((t.name, os.sched_getaffinity(t.native_id)) for t in threads)
        finally:
            xapp.stop()
            dapp.stop()
        masks["caller"] = os.sched_getaffinity(0)

    caller = threading.Thread(target=start_a_stack)
    caller.start()
    caller.join(10.0)
    assert not caller.is_alive()
    assert len(masks["caller"]) == 1
    assert masks == dict.fromkeys(("sensing-dapp", "xapp-recv", "caller"), masks["caller"])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the platform has no sched_setaffinity")
def test_no_loop_thread_pins_itself(monkeypatch):
    """A loop thread that pins itself migrates while it holds the GIL and stalls start-up."""
    pinned_by = []
    setaffinity = os.sched_setaffinity

    def recording(pid, mask):
        pinned_by.append(threading.current_thread().name)
        setaffinity(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", recording)
    dapp, xapp = stack()
    try:
        _subscribe_and_await_reports(dapp, xapp)
    finally:
        xapp.stop()
        dapp.stop()
    assert pinned_by
    assert not {"sensing-dapp", "xapp-recv"} & set(pinned_by)


def test_loops_run_unpinned_where_pinning_is_refused(monkeypatch, caplog):
    def refuse(pid, mask):
        raise OSError(22, "Invalid argument")

    if hasattr(os, "sched_setaffinity"):
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    # A fresh once-per-process note, so that an earlier test's warning does not hide this one.
    monkeypatch.setattr(transport, "_unpinned_noted", threading.Lock())
    caplog.set_level(logging.WARNING, logger="oran_isac.transport")
    dapp, xapp = stack()
    try:
        threads = _subscribe_and_await_reports(dapp, xapp)
        assert all(t.is_alive() for t in threads)
    finally:
        xapp.stop()
        dapp.stop()
    warnings = [r for r in caplog.records if r.name == "oran_isac.transport"]
    assert len(warnings) == 1
    assert warnings[0].levelno == logging.WARNING
