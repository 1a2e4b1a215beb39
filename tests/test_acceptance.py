"""End-to-end acceptance suite.

One test per acceptance criterion, each verifying the stated property at its
stated tolerance and budget. These are slower than the unit suites; the
experiment-driven ones take tens of seconds of wall time by design.
"""

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oran_isac.clock import SharedClock
from oran_isac.control import A1IsacPolicy, Verdict, XApp, enforce_policy
from oran_isac.dapp import DappConfig, SensingDapp, delay_doppler_map, estimate_kpis
from oran_isac.e2sm import (
    CommandKind,
    ControlAckPayload,
    ControlRequestPayload,
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
)
from oran_isac.harness import (
    ExperimentConfig,
    default_beam_table,
    default_waveform,
    run_experiment_a,
)
from oran_isac.ofh import (
    NonZeroPadding,
    SensingMetadata,
    UnknownWaveformId,
    WrongLength,
    decode_metadata,
    encode_metadata,
    fronthaul_rate,
)
from oran_isac.radio import SPEED_OF_LIGHT, EchoScene, Target, apply_scene, generate_probe
from oran_isac.stats import compliance_table, ecdf, jitter_p95, percentile
from oran_isac.transport import channel_pair

CONFORMANCE = Path(__file__).resolve().parent.parent / "conformance"

E2_ERRORS = (Truncated, UnknownVersion, UnknownType, LengthMismatch)


def random_metadata(rng: random.Random) -> SensingMetadata:
    return SensingMetadata(
        tx_timestamp=rng.getrandbits(64),
        waveform_id=rng.getrandbits(16),
        beam_index=rng.getrandbits(8),
        sensing_flag=bool(rng.getrandbits(1)),
    )


def random_message(rng: random.Random) -> E2SensMessage:
    f = lambda: rng.uniform(-1e9, 1e9)
    corr = rng.getrandbits(32)
    kind = rng.randrange(5)
    if kind == 0:
        payload = SubscriptionRequestPayload(
            mode=rng.choice(list(SubscriptionMode)),
            period_ms=f(),
            trigger=TriggerConfig(
                echo_energy_threshold_db=f() if rng.random() < 0.5 else None,
                aoa_shift_threshold_deg=f() if rng.random() < 0.5 else None,
            ),
        )
        return E2SensMessage(MsgType.SUBSCRIPTION_REQUEST, corr, payload)
    if kind == 1:
        payload = (None if rng.random() < 0.2 else
                   SubscriptionResponsePayload(rng.getrandbits(32),
                                               bool(rng.getrandbits(1))))
        return E2SensMessage(MsgType.SUBSCRIPTION_RESPONSE, corr, payload)
    if kind == 2:
        report = SensingReport(
            rng.getrandbits(64), f(), f(), f(), f(), f(), f(), f(), f(), f(),
            f(), f(), rng.getrandbits(8), rng.getrandbits(16),
            rng.getrandbits(64),
        )
        return E2SensMessage(MsgType.INDICATION, corr, report)
    if kind == 3:
        ckind = rng.choice(list(CommandKind))
        payload = ControlRequestPayload(ckind, rng.getrandbits(64))
        if ckind == CommandKind.SET_PERIOD:
            payload = ControlRequestPayload(ckind, payload.issued_at, period_ms=f())
        elif ckind == CommandKind.SET_BEAM:
            payload = ControlRequestPayload(ckind, payload.issued_at,
                                            beam_index=rng.getrandbits(8))
        elif ckind == CommandKind.SET_SIC:
            payload = ControlRequestPayload(ckind, payload.issued_at,
                                            sic_enabled=bool(rng.getrandbits(1)))
        else:
            payload = ControlRequestPayload(
                ckind, payload.issued_at,
                trigger=TriggerConfig(echo_energy_threshold_db=f()))
        return E2SensMessage(MsgType.CONTROL_REQUEST, corr, payload)
    return E2SensMessage(MsgType.CONTROL_ACK, corr,
                         ControlAckPayload(rng.getrandbits(64), rng.getrandbits(64)))


def test_codec_conformance():
    """10^5 round-trips per codec, golden vectors, 10^6-string fuzz, < 1 min."""
    start = time.monotonic()
    rng = random.Random(0)

    for _ in range(100_000):
        m = random_metadata(rng)
        assert decode_metadata(encode_metadata(m)) == m

    for _ in range(100_000):
        msg = random_message(rng)
        assert decode_message(encode_message(msg)) == msg

    for line in (CONFORMANCE / "ofh_metadata_vectors.txt").read_text().strip().splitlines():
        hexpart, rest = line.split(" ", 1)
        fields = dict(kv.split("=") for kv in rest.split())
        m = decode_metadata(bytes.fromhex(hexpart))
        assert m.tx_timestamp == int(fields["ts"])
        assert m.waveform_id == int(fields["wf"])
        assert m.beam_index == int(fields["beam"])
        assert m.sensing_flag == bool(int(fields["flag"]))
        assert encode_metadata(m).hex() == hexpart

    for line in (CONFORMANCE / "e2sm_vectors.txt").read_text().strip().splitlines():
        hexframe, expected_json = line.split(" ", 1)
        expected = json.loads(expected_json)
        msg = decode_message(bytes.fromhex(hexframe))
        assert msg.msg_type.name == expected["msg_type"]
        assert msg.correlation_id == expected["correlation_id"]
        assert encode_message(msg) == bytes.fromhex(hexframe)

    # Fuzz corpus: raw random strings plus mutated valid frames so deep
    # payload paths are exercised, not just header rejections.
    nprng = np.random.default_rng(1)
    blob = nprng.integers(0, 256, size=4_000_000, dtype=np.uint8).tobytes()
    seeds = [encode_message(random_message(rng)) for _ in range(64)]
    decoded = 0
    for i in range(1_000_000):
        if i % 4 == 3:
            base = bytearray(seeds[i % 64])
            base[i % len(base)] ^= 1 << (i % 8)
            data = bytes(base[: i % (len(base) + 1)] if i % 8 == 0 else base)
        else:
            off = (i * 37) % (len(blob) - 160)
            data = blob[off: off + (i % 150)]
        try:
            decode_message(data)
            decoded += 1
        except E2_ERRORS:
            pass
    assert decoded > 0  # mutated frames keep some valid decodes in the mix

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"codec conformance took {elapsed:.1f}s"


def test_fronthaul_capacity():
    """64 antennas at 100 MHz, 16-bit components: 204.8 Gbps; 8 beams cut it 8x."""
    assert fronthaul_rate(64, 100e6, 16) == 204.8e9
    assert fronthaul_rate(64, 100e6, 16) / fronthaul_rate(8, 100e6, 16) == 8.0


def test_estimator_accuracy():
    """Exact on-bin recovery noiseless; <= 0.75 m range error at 20 dB SNR."""
    start = time.monotonic()
    cfg = default_waveform(num_symbols=64)
    beams = default_beam_table()
    grid, probe = generate_probe(cfg, seed=0)
    bin_m = SPEED_OF_LIGHT / (2 * cfg.sample_rate)
    rng = random.Random(7)

    def identities_hold(rep):
        assert rep.range_m == SPEED_OF_LIGHT * rep.delay_s / 2.0
        assert rep.radial_velocity_mps == rep.doppler_hz * SPEED_OF_LIGHT / (
            2.0 * cfg.carrier_frequency)

    exact = 0
    for _ in range(200):
        k = rng.randrange(1, cfg.cp_length)
        m = rng.randrange(-(cfg.num_symbols // 2 - 1), cfg.num_symbols // 2)
        target = Target(
            range_m=k * bin_m,
            radial_velocity_mps=m * SPEED_OF_LIGHT / (
                2 * cfg.carrier_frequency * cfg.num_symbols * cfg.symbol_duration),
            azimuth_deg=0.0,
        )
        block, _ = apply_scene(probe, cfg, EchoScene(targets=(target,)), 4, beams)
        pm = delay_doppler_map(block, cfg, grid)
        d_idx, p_idx = np.unravel_index(np.argmax(pm), pm.shape)
        rep = estimate_kpis(pm, cfg, beams, 4)
        identities_hold(rep)
        if d_idx == k and (p_idx - cfg.num_symbols * (p_idx >= cfg.num_symbols // 2)) == m:
            exact += 1
    assert exact == 200

    within = 0
    for trial in range(200):
        target = Target(
            range_m=rng.uniform(10.0, 90.0),
            radial_velocity_mps=rng.uniform(-30.0, 30.0),
            azimuth_deg=0.0,
        )
        scene = EchoScene(targets=(target,), snr_db=20.0, seed=trial)
        block, _ = apply_scene(probe, cfg, scene, 4, beams)
        rep = estimate_kpis(delay_doppler_map(block, cfg, grid), cfg, beams, 4)
        identities_hold(rep)
        if abs(rep.range_m - target.range_m) <= 0.75:
            within += 1
    assert within >= 190, f"only {within}/200 trials within half a range bin"

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"estimator accuracy took {elapsed:.1f}s"


def test_periodicity_control(tmp_path):
    """Schedule 100 -> 20 -> 10 ms: segment means on target, gapless, fast settling."""
    cfg = ExperimentConfig(
        schedule_ms=(100.0, 20.0, 10.0),
        segment_duration_s=4.0,
        out_dir=tmp_path,
    )
    summary = run_experiment_a(cfg)

    assert summary.metadata["sequence_gaps"] == 0
    assert len(summary.segments) == 3
    for seg in summary.segments:
        tol = max(0.5, 0.05 * seg.target_ms)
        assert abs(seg.mean_ms - seg.target_ms) <= tol, (
            f"segment at {seg.target_ms} ms: mean {seg.mean_ms:.3f} ms")

    # Transition allowance: after each period change, by the second interval
    # the cadence must reflect the new target.
    rows = [line.split(",") for line in
            (tmp_path / "interarrival.csv").read_text().splitlines()[1:]]
    intervals = [(float(i), float(g)) for _, i, g in rows]
    for idx in range(1, len(intervals)):
        if intervals[idx][1] != intervals[idx - 1][1]:  # boundary
            settled = intervals[idx + 2: idx + 7]
            assert settled, "segment too short to observe settling"
            for inter_ms, target_ms in settled:
                assert inter_ms < 2.0 * target_ms, (
                    f"interval {inter_ms:.2f} ms after switch to {target_ms} ms")


def test_closed_loop_decomposition():
    """1000 probes: exact latency decomposition, ordering, median < 10 ms."""
    clock = SharedClock()
    cfg = default_waveform()
    scene = EchoScene(targets=(Target(45.0, 10.0, 0.0),), snr_db=20.0)
    dapp_end, xapp_end = channel_pair()
    dapp = SensingDapp(DappConfig(report_period_ms=10.0), {0: cfg},
                       default_beam_table(), scene, dapp_end, clock)
    xapp = XApp(xapp_end, clock=clock)
    dapp.start()
    xapp.start()
    try:
        xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0)
        for _ in range(1000):
            xapp.closed_loop_probe()
        samples = list(xapp.samples)
        reports = list(xapp.reports)
    finally:
        xapp.stop()
        dapp.stop()

    assert len(samples) >= 1000
    for s in samples:
        assert s.closed_loop_ns == s.telemetry_latency_ns + s.control_latency_ns
        assert s.t1_ns >= s.t0_ns
    for r in reports:
        assert r.t1_ns >= r.report.t0

    closed_ms = [s.closed_loop_ns / 1e6 for s in samples]
    table = compliance_table(closed_ms)
    ordered = [table[k] for k in ("industrial_control", "beam_management",
                                  "vehicular_perception", "uav_tracking")]
    assert ordered == sorted(ordered)

    median = percentile(closed_ms, 50)
    assert median < 10.0, f"median closed-loop {median:.2f} ms"


# (next state, violation, emits) for every state x event pair.
TRANSITION_TABLE = {
    (SubState.IDLE, SubEvent.REQUEST_RECEIVED): (SubState.PENDING, False, 1),
    (SubState.IDLE, SubEvent.RESPONSE_SENT): (SubState.IDLE, True, 0),
    (SubState.IDLE, SubEvent.INDICATION_READY): (SubState.IDLE, True, 0),
    (SubState.IDLE, SubEvent.CLOSE): (SubState.IDLE, True, 0),
    (SubState.IDLE, SubEvent.TRANSPORT_LOST): (SubState.IDLE, True, 0),
    (SubState.PENDING, SubEvent.REQUEST_RECEIVED): (SubState.PENDING, True, 0),
    (SubState.PENDING, SubEvent.RESPONSE_SENT): (SubState.ACTIVE, False, 0),
    (SubState.PENDING, SubEvent.INDICATION_READY): (SubState.PENDING, True, 0),
    (SubState.PENDING, SubEvent.CLOSE): (SubState.CLOSED, False, 0),
    (SubState.PENDING, SubEvent.TRANSPORT_LOST): (SubState.CLOSED, False, 0),
    (SubState.ACTIVE, SubEvent.REQUEST_RECEIVED): (SubState.ACTIVE, True, 0),
    (SubState.ACTIVE, SubEvent.RESPONSE_SENT): (SubState.ACTIVE, True, 0),
    (SubState.ACTIVE, SubEvent.INDICATION_READY): (SubState.ACTIVE, False, 1),
    (SubState.ACTIVE, SubEvent.CLOSE): (SubState.CLOSED, False, 0),
    (SubState.ACTIVE, SubEvent.TRANSPORT_LOST): (SubState.CLOSED, False, 0),
    (SubState.CLOSED, SubEvent.REQUEST_RECEIVED): (SubState.PENDING, False, 1),
    (SubState.CLOSED, SubEvent.RESPONSE_SENT): (SubState.CLOSED, True, 0),
    (SubState.CLOSED, SubEvent.INDICATION_READY): (SubState.CLOSED, True, 0),
    (SubState.CLOSED, SubEvent.CLOSE): (SubState.CLOSED, False, 0),
    (SubState.CLOSED, SubEvent.TRANSPORT_LOST): (SubState.CLOSED, False, 0),
}

REQ = SubscriptionRequestPayload(SubscriptionMode.PERIODIC, period_ms=10.0)
REPORT = SensingReport(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)


def machine_in(state: SubState) -> SubscriptionMachine:
    m = SubscriptionMachine()
    if state == SubState.IDLE:
        return m
    m.step(SubEvent.REQUEST_RECEIVED, request=REQ)
    if state == SubState.PENDING:
        return m
    m.step(SubEvent.RESPONSE_SENT)
    if state == SubState.ACTIVE:
        return m
    m.step(SubEvent.CLOSE)
    return m


def test_subscription_state_machine():
    """Exhaustive transition table plus no INDICATION outside ACTIVE end to end."""
    assert len(TRANSITION_TABLE) == len(SubState) * len(SubEvent)
    for (state, event), (next_state, violates, emits) in TRANSITION_TABLE.items():
        m = machine_in(state)
        res = m.step(event, request=REQ, report=REPORT)
        assert m.state == next_state, f"{state.name} + {event.name}"
        assert (res.violation is not None) == violates, f"{state.name} + {event.name}"
        assert len(res.emitted) == emits, f"{state.name} + {event.name}"

    # End-to-end trace: no indications before subscribing, a clean stream
    # afterwards, and the dApp-side machine records zero violations.
    clock = SharedClock()
    cfg = default_waveform(num_symbols=16)
    scene = EchoScene(targets=(Target(30.0, 0.0, 0.0),), snr_db=20.0)
    dapp_end, xapp_end = channel_pair()
    dapp = SensingDapp(DappConfig(report_period_ms=10.0), {0: cfg},
                       default_beam_table(), scene, dapp_end, clock)
    xapp = XApp(xapp_end, clock=clock)
    dapp.start()
    xapp.start()
    try:
        time.sleep(0.3)
        assert xapp.reports == []  # nothing delivered outside ACTIVE
        xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0)
        time.sleep(0.5)
    finally:
        xapp.stop()
        dapp.stop()
    assert len(xapp.reports) >= 10
    assert dapp.machine.violations == []


periods = st.floats(0.1, 100.0)


@given(
    min_p=periods,
    span=st.floats(0.0, 900.0),
    mode=st.sampled_from(SubscriptionMode),
    period=st.floats(-100.0, 2000.0),
)
@settings(max_examples=500, deadline=None)
def test_policy_enforcement(min_p, span, mode, period):
    """Exactly one verdict; clamps inside bounds."""
    policy = A1IsacPolicy(min_period_ms=min_p, max_period_ms=min_p + span)
    request = SubscriptionRequestPayload(
        mode, period_ms=period,
        trigger=TriggerConfig(echo_energy_threshold_db=-10.0))
    decision = enforce_policy(policy, request)

    assert decision.verdict in (Verdict.ACCEPT, Verdict.CLAMP, Verdict.REJECT)
    if decision.verdict == Verdict.CLAMP:
        assert policy.min_period_ms <= decision.period_ms <= policy.max_period_ms


def test_statistics_oracles():
    """Percentile/ECDF match sorted-array oracles up to 10^5 points; zero jitter."""
    rng = np.random.default_rng(3)
    for n in (1, 2, 17, 1000, 100_000):
        values = rng.exponential(5.0, n)
        data = np.sort(values)
        for p in (0, 1, 25, 50, 90, 95, 99, 100):
            rank = 0 if p == 0 else math.ceil(p / 100 * n) - 1
            assert percentile(values, p) == data[rank]
        points = ecdf(values)
        counts = np.searchsorted(data, [v for v, _ in points], side="right")
        assert [f for _, f in points] == [c / n for c in counts]
        assert points[-1][1] == 1.0

    assert jitter_p95([10.0] * 1000, 10.0) == 0.0
