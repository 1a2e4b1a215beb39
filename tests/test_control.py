"""Policy enforcement and xApp control-loop tests."""

import json
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from oran_isac.clock import SharedClock
from oran_isac.control import (
    _POLICY_FIELDS,
    A1IsacPolicy,
    PolicyParseError,
    PolicyViolation,
    RequestTimeout,
    Verdict,
    XApp,
    check_beam,
    enforce_policy,
    load_policy,
    policy_from_dict,
    write_sample_log,
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
    TriggerConfig,
    decode_message,
    encode_message,
)
from oran_isac.ofh import BeamTable, WaveformConfig
from oran_isac.radio import EchoScene, Target
from oran_isac.transport import Disconnected, EndpointKind, channel_pair

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


@pytest.mark.parametrize("doc, field", [
    ({"min_period_ms": "x"}, "min_period_ms"),
    ({"max_period_ms": None}, "max_period_ms"),
    ({"geographic_scope": [[-45]]}, "geographic_scope"),
    ({"energy_limit": 0.5}, "energy_limit"),
    ({"temporal_budget_ms_per_s": 500.0}, "temporal_budget_ms_per_s"),
], ids=["not-a-number", "null", "short-scope", "unknown-key", "deleted-budget-key"])
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
    clock = SharedClock()
    dapp_end, xapp_end = channel_pair()
    dapp = SensingDapp(DappConfig(report_period_ms=period_ms), {0: cfg}, BEAMS,
                       scene, dapp_end, clock)
    xapp = XApp(xapp_end, policy=policy, clock=clock)
    dapp.start()
    xapp.start()
    return dapp, xapp


# One A1 constraint per row: an altered value, and an xApp request that the
# default policy lets through and the altered one refuses. "policy_id" names the
# policy and constrains nothing, so it has no row.
CONSTRAINT_ROWS = {
    "geographic_scope": (((-10.0, 10.0),), lambda xapp: xapp.set_beam(1, 15.0)),
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
            sample = xapp.set_period(10.0)
            assert sample.control_latency_ns >= 0
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


def test_sample_log_format(tmp_path):
    from oran_isac.control import LatencySample

    samples = [
        LatencySample(1, 100, 200, 250, 300),
        LatencySample(2, 400, 500, None, None),
    ]
    path = tmp_path / "samples.csv"
    write_sample_log(samples, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sequence_number,t0_ns,t1_ns,t_cmd_issue_ns,t_cmd_applied_ns"
    assert lines[1] == "1,100,200,250,300"
    assert lines[2] == "2,400,500,,"
