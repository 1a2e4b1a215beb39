"""Sensing pipeline tests: periodogram, KPI extraction, triggers, run loop."""

import hashlib
import json
import math
import os
import socket
import struct
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oran_isac.dapp import (
    BlockLengthMismatch,
    DappConfig,
    SensingDapp,
    _median,
    angular_entropy,
    delay_doppler_map,
    estimate_kpis,
    multipath_spread,
)
from oran_isac.e2sm import (
    AOA_SHIFT,
    ECHO_ENERGY,
    MAX_PERIOD_MS,
    CommandKind,
    ControlAckPayload,
    ControlRequestPayload,
    E2SensMessage,
    MsgType,
    SensingReport,
    SubEvent,
    SubscriptionMachine,
    SubscriptionMode,
    SubscriptionRequestPayload,
    SubscriptionResponsePayload,
    SubState,
    TriggerConfig,
    decode_message,
    encode_message,
    evaluate_triggers,
    valid_period,
    valid_trigger,
)
from oran_isac.control import (
    A1IsacPolicy, PolicyDecision, PolicyViolation, Verdict, XApp, enforce_policy,
)
from oran_isac.ofh import (
    BeamTable, IqBlock, NonZeroPadding, SensingMetadata, UnknownWaveformId, WaveformConfig,
    encode_metadata,
)
from oran_isac.radio import (
    SPEED_OF_LIGHT,
    DelayExceedsBurst,
    EchoScene,
    Target,
    apply_scene,
    generate_probe,
)
from oran_isac import dapp as dapp_module, transport
from oran_isac.transport import EndpointKind, Timeout, channel_pair
from virtual import ScriptedEnd, VirtualClock, peer_scripts

BEAMS = BeamTable({0: (0.0, 0.0), 1: (15.0, 0.0)})


def make_cfg(fft_size=256, cp_length=64, num_symbols=16, fc=3.5e9):
    scs = 100e6 / fft_size
    return WaveformConfig(fft_size, cp_length, scs, "qpsk-prs", fc,
                          fft_size * scs, num_symbols)


def on_bin_target(cfg, delay_bins, doppler_bin, azimuth=0.0, amplitude=1.0):
    rng_m = delay_bins * SPEED_OF_LIGHT / (2 * cfg.sample_rate)
    vel = doppler_bin * SPEED_OF_LIGHT / (
        2 * cfg.carrier_frequency * cfg.num_symbols * cfg.symbol_duration)
    return Target(rng_m, vel, azimuth, amplitude)


def correlation_oracle(probe, received, max_delay):
    """Quadratic-time circular correlation; argmax is the delay estimate."""
    mags = [abs(np.vdot(np.roll(probe, d), received)) for d in range(max_delay)]
    return int(np.argmax(mags))


class TestDelayDopplerMap:
    def test_single_target_peak_matches_oracle(self):
        cfg = make_cfg()
        grid, probe = generate_probe(cfg)
        k = 23
        scene = EchoScene(targets=(on_bin_target(cfg, k, 0),))
        block, _ = apply_scene(probe, cfg, scene, 0, BEAMS)
        pm = delay_doppler_map(block, cfg, grid)
        d_idx, p_idx = np.unravel_index(np.argmax(pm), pm.shape)
        assert (d_idx, p_idx) == (k, 0)
        assert correlation_oracle(probe, block.samples, 64) == k

    def test_doppler_bin_recovery(self):
        cfg = make_cfg()
        grid, probe = generate_probe(cfg)
        for m_bin in (1, 3, 7):
            scene = EchoScene(targets=(on_bin_target(cfg, 10, m_bin),))
            block, _ = apply_scene(probe, cfg, scene, 0, BEAMS)
            pm = delay_doppler_map(block, cfg, grid)
            d_idx, p_idx = np.unravel_index(np.argmax(pm), pm.shape)
            assert (d_idx, p_idx) == (10, m_bin)

    def test_map_shape_and_scaling(self):
        cfg = make_cfg()
        grid, probe = generate_probe(cfg)
        scene = EchoScene(targets=(on_bin_target(cfg, 5, 0, amplitude=0.25),))
        block, _ = apply_scene(probe, cfg, scene, 0, BEAMS)
        pm = delay_doppler_map(block, cfg, grid)
        assert pm.shape == (cfg.fft_size, cfg.num_symbols)
        assert pm.max() == pytest.approx(0.25, rel=0.05)

    def test_noise_only_statistics(self):
        cfg = make_cfg()
        grid, probe = generate_probe(cfg)
        scene = EchoScene(targets=(), snr_db=0.0, seed=2)
        block, _ = apply_scene(probe, cfg, scene, 0, BEAMS)
        pm = delay_doppler_map(block, cfg, grid)
        # Unit noise power spread over N*M cells of processing gain.
        assert pm.mean() == pytest.approx(1.0 / (cfg.fft_size * cfg.num_symbols), rel=0.3)

    def test_length_mismatch(self):
        cfg = make_cfg()
        grid, probe = generate_probe(cfg)
        bad = IqBlock(SensingMetadata(), np.zeros(10, dtype=complex))
        with pytest.raises(BlockLengthMismatch):
            delay_doppler_map(bad, cfg, grid)


class TestEstimateKpis:
    def test_formula_check_bin_100(self):
        cfg = make_cfg()
        pm = np.zeros((256, 8))
        pm[100, 0] = 1.0
        rep = estimate_kpis(pm, cfg, BEAMS, 0)
        assert rep.delay_s == pytest.approx(1.0e-6, abs=1e-12)
        assert rep.range_m == pytest.approx(149.896229, abs=1e-5)
        assert rep.radial_velocity_mps == 0.0

    def test_report_arithmetic_identities(self):
        cfg = make_cfg()
        grid, probe = generate_probe(cfg)
        scene = EchoScene(targets=(Target(37.5, 14.2, 0.0),), snr_db=25.0, seed=4)
        block, _ = apply_scene(probe, cfg, scene, 0, BEAMS)
        rep = estimate_kpis(delay_doppler_map(block, cfg, grid), cfg, BEAMS, 0)
        assert rep.range_m == SPEED_OF_LIGHT * rep.delay_s / 2.0
        assert rep.radial_velocity_mps == rep.doppler_hz * SPEED_OF_LIGHT / (
            2.0 * cfg.carrier_frequency)

    def test_negative_doppler_wraps(self):
        cfg = make_cfg()
        grid, probe = generate_probe(cfg)
        scene = EchoScene(targets=(on_bin_target(cfg, 10, -2),))
        block, _ = apply_scene(probe, cfg, scene, 0, BEAMS)
        rep = estimate_kpis(delay_doppler_map(block, cfg, grid), cfg, BEAMS, 0)
        assert rep.radial_velocity_mps < 0

    def test_single_path_zero_spread(self):
        cfg = make_cfg()
        grid, probe = generate_probe(cfg)
        scene = EchoScene(targets=(on_bin_target(cfg, 12, 0),))
        block, _ = apply_scene(probe, cfg, scene, 0, BEAMS)
        rep = estimate_kpis(delay_doppler_map(block, cfg, grid), cfg, BEAMS, 0)
        assert rep.multipath_spread_s <= 1.0 / cfg.sample_rate

    def test_aoa_is_beam_steering_direction(self):
        cfg = make_cfg()
        pm = np.zeros((16, 4))
        pm[3, 0] = 1.0
        rep = estimate_kpis(pm, cfg, BEAMS, 1)
        assert rep.aoa_azimuth_deg == 15.0
        assert rep.aoa_elevation_deg == 0.0

    def test_si_power_is_zero_cell(self):
        cfg = make_cfg()
        grid, probe = generate_probe(cfg)
        scene = EchoScene(targets=(on_bin_target(cfg, 20, 0),),
                          residual_si_power_db=-15.0)
        block, _ = apply_scene(probe, cfg, scene, 0, BEAMS)
        rep = estimate_kpis(delay_doppler_map(block, cfg, grid), cfg, BEAMS, 0)
        assert rep.si_power_db == pytest.approx(-15.0, abs=1.0)

    def test_confidence_in_unit_interval(self):
        cfg = make_cfg()
        grid, probe = generate_probe(cfg)
        for snr in (0.0, 10.0, 30.0):
            scene = EchoScene(targets=(on_bin_target(cfg, 20, 0),), snr_db=snr, seed=1)
            block, _ = apply_scene(probe, cfg, scene, 0, BEAMS)
            rep = estimate_kpis(delay_doppler_map(block, cfg, grid), cfg, BEAMS, 0)
            assert 0.0 <= rep.confidence <= 1.0

    def test_peak_on_the_nyquist_bin_reads_positive(self):
        cfg = make_cfg()
        pm = np.zeros((256, cfg.num_symbols))
        half = cfg.num_symbols // 2
        pm[10, half] = 1.0
        pm[10, half - 1] = pm[10, half + 1] = 0.5    # equal neighbours: no sub-bin offset
        rep = estimate_kpis(pm, cfg, BEAMS, 0)
        doppler_bin = 1.0 / (cfg.num_symbols * cfg.symbol_duration)
        assert rep.doppler_hz == pytest.approx(half * doppler_bin)

    @pytest.mark.parametrize("axis", [0, 1], ids=["delay", "doppler"])
    def test_a_runner_up_two_bins_away_is_inside_the_guard(self, axis):
        cfg = make_cfg()
        pm = np.zeros((256, cfg.num_symbols))
        pm[100, 4] = 1.0
        pm[(102, 4) if axis == 0 else (100, 6)] = 0.9
        pm[150, 12] = 0.8
        rep = estimate_kpis(pm, cfg, BEAMS, 0)
        assert rep.confidence == pytest.approx(1.0 / 0.8 - 1.0)


class TestIndicators:
    def test_uniform_entropy_is_log_b(self):
        for b in (2, 4, 8):
            assert angular_entropy([1.0] * b) == pytest.approx(math.log(b))

    def test_single_beam_entropy_zero(self):
        assert angular_entropy([5.0]) == 0.0

    def test_concentrated_entropy_low(self):
        assert angular_entropy([1.0, 1e-9]) < 0.01

    def test_multipath_two_paths(self):
        pdp = np.full(64, 1e-9)
        pdp[10] = 1.0
        pdp[20] = 1.0
        spread = multipath_spread(pdp, bin_width_s=10e-9)
        assert spread == pytest.approx(5 * 10e-9, rel=1e-6)

    def test_a_bin_on_the_gate_counts(self):
        # The median is 1, so the 10 dB gate is exactly 10.0: the second bin is on it.
        pdp = np.array([100.0, 10.0] + [1.0] * 8)
        spread = multipath_spread(pdp, bin_width_s=10e-9)
        assert spread == pytest.approx(10e-9 * math.sqrt(100.0 * 10.0) / 110.0, rel=1e-9)

    # Zeros and a few repeated values give ties; the floats span 1e-30 to 1e5.
    @given(values=st.lists(st.one_of(st.sampled_from([0.0, 1e-30, 1.0, 1e5]),
                                     st.floats(1e-30, 1e5)), min_size=1, max_size=1024),
           strided=st.booleans(),
           nan_at=st.none() | st.integers(0, 1023))
    @example(values=[3.0], strided=False, nan_at=None)
    @example(values=[2.0, 1.0], strided=True, nan_at=None)
    @example(values=[2.0, 1.0], strided=False, nan_at=1)
    @settings(max_examples=300, deadline=None)
    def test_median_matches_numpy(self, values, strided, nan_at):
        if nan_at is not None:
            values[nan_at % len(values)] = math.nan
        if strided:  # a column of a delay-Doppler map, as estimate_kpis passes it
            grid = np.ones((len(values), 16))
            grid[:, 0] = values
            pdp = grid[:, 0]
        else:
            pdp = np.array(values)
        ours, ref = np.float64(_median(pdp)), np.median(pdp)
        if nan_at is not None:
            assert math.isnan(ours) and math.isnan(ref)
        else:
            assert ours == ref


def report_with(energy=-10.0, azimuth=0.0):
    return SensingReport(0, 0, 0, 0, 0, azimuth, 0, energy, 0, 0, 0, 1.0, 0, 0, 1)


class TestTriggers:
    def test_energy_crossing_up(self):
        trig = TriggerConfig(echo_energy_threshold_db=-10.0)
        assert evaluate_triggers(report_with(-5.0), report_with(-20.0), trig) == [ECHO_ENERGY]

    def test_energy_crossing_down(self):
        trig = TriggerConfig(echo_energy_threshold_db=-10.0)
        assert evaluate_triggers(report_with(-20.0), report_with(-5.0), trig) == [ECHO_ENERGY]

    def test_no_crossing(self):
        trig = TriggerConfig(echo_energy_threshold_db=-10.0)
        assert evaluate_triggers(report_with(-5.0), report_with(-4.0), trig) == []

    def test_no_prev_above_threshold_fires(self):
        trig = TriggerConfig(echo_energy_threshold_db=-10.0)
        assert evaluate_triggers(report_with(-5.0), None, trig) == [ECHO_ENERGY]

    def test_no_prev_on_threshold_does_not_fire(self):
        trig = TriggerConfig(echo_energy_threshold_db=-10.0)
        assert evaluate_triggers(report_with(-10.0), None, trig) == []

    # A report on the threshold is below it, on either side of a crossing.
    @pytest.mark.parametrize("prev, now, fired", [
        (-20.0, -10.0, []), (-10.0, -5.0, [ECHO_ENERGY]),
    ], ids=["up-to-threshold", "up-from-threshold"])
    def test_a_crossing_counts_the_threshold_as_below(self, prev, now, fired):
        trig = TriggerConfig(echo_energy_threshold_db=-10.0)
        assert evaluate_triggers(report_with(now), report_with(prev), trig) == fired

    def test_aoa_below_threshold(self):
        trig = TriggerConfig(aoa_shift_threshold_deg=5.0)
        assert evaluate_triggers(report_with(azimuth=31.0), report_with(azimuth=30.0), trig) == []

    def test_aoa_shift_fires(self):
        trig = TriggerConfig(aoa_shift_threshold_deg=5.0)
        assert evaluate_triggers(report_with(azimuth=40.0), report_with(azimuth=30.0), trig) == [AOA_SHIFT]

    def test_aoa_shift_on_threshold_fires(self):
        trig = TriggerConfig(aoa_shift_threshold_deg=30.0)
        assert evaluate_triggers(report_with(azimuth=30.0), report_with(azimuth=0.0), trig) == [AOA_SHIFT]

    def test_pure_function(self):
        trig = TriggerConfig(echo_energy_threshold_db=-10.0, aoa_shift_threshold_deg=5.0)
        a, b = report_with(-5.0, 10.0), report_with(-20.0, 0.0)
        assert evaluate_triggers(a, b, trig) == evaluate_triggers(a, b, trig)


class RewrittenHeader:
    """A substitute RU: the real RU's samples under a header the test chooses."""

    def __init__(self, ru, header):
        self.ru, self.header = ru, header

    def burst(self, *request):
        return self.header, self.ru.burst(*request)[1]

    def close(self):
        self.ru.close()


# The sensing flag with a padding bit set, and a waveform id no table here holds.
PADDED_HEADER = bytes([0x81]) + bytes(11)
UNKNOWN_WAVEFORM_HEADER = encode_metadata(SensingMetadata(waveform_id=7, sensing_flag=True))


SMALL_CFG = make_cfg(fft_size=64, cp_length=16, num_symbols=4)
SMALL_SCENE = EchoScene(targets=(Target(20.0, 0.0, 0.0),), snr_db=20.0)


def small_stack(period_ms=10.0, scene=None):
    dapp_end, xapp_end = channel_pair()
    dapp = SensingDapp(DappConfig(report_period_ms=period_ms), {0: SMALL_CFG}, BEAMS,
                       scene or SMALL_SCENE, dapp_end)
    xapp = XApp(xapp_end, beam_table=BEAMS)
    dapp.start()
    xapp.start()
    return dapp, xapp


MS = 1_000_000  # ns

# test_an_event_run_sends_the_same_bytes: the whole-ms send times of its
# INDICATIONs, and SHA-256 over every frame it sends with its send time.
EVENT_RUN_TIMES = [11, 31, 61, 101, 121, 141, 161, 211, 221, 231, 241, 251]
EVENT_RUN_DIGEST = "0d5bd0e7a509a9939b3d19c782ddeca4ea3719baed0fb97d727f546a43c8ec36"


class SlowRadio:
    """A substitute RU: the real RU's burst, taking ``cost_ns`` of virtual time."""

    def __init__(self, ru, clock, cost_ns):
        self.ru, self.clock, self.cost_ns = ru, clock, cost_ns

    def burst(self, *request):
        self.clock.advance_to(self.clock.t + self.cost_ns)
        return self.ru.burst(*request)


class RaisingOnce:
    """A substitute RU whose ``call``-th burst raises; every other is the real RU's."""

    def __init__(self, ru, call):
        self.ru, self.calls_left = ru, call

    def burst(self, *request):
        self.calls_left -= 1
        if self.calls_left == 0:
            raise RuntimeError("the RU failed one burst")
        return self.ru.burst(*request)


def virtual_dapp(script, end_ms, burst_ms=0.0, config=None):
    """A dApp whose peer is ``script``, each burst taking ``burst_ms`` of virtual time."""
    clock = VirtualClock()
    end = ScriptedEnd(clock, script, round(end_ms * MS))
    dapp = SensingDapp(config or DappConfig(), {0: SMALL_CFG}, BEAMS, SMALL_SCENE, end, clock)
    dapp.ru = SlowRadio(dapp.ru, clock, round(burst_ms * MS))
    return dapp, end


def sent(end, msg_type):
    """``(virtual ns, payload)`` of every frame of one type the dApp sent."""
    messages = [(t, decode_message(frame)) for t, frame in end.sent]
    return [(t, msg.payload) for t, msg in messages if msg.msg_type == msg_type]


def control_frame(corr, kind, **fields):
    return encode_message(E2SensMessage(
        msg_type=MsgType.CONTROL_REQUEST, correlation_id=corr,
        payload=ControlRequestPayload(kind=kind, issued_at=0, **fields)))


def subscribe_frame(corr, period_ms):
    return encode_message(E2SensMessage(
        MsgType.SUBSCRIPTION_REQUEST, corr,
        SubscriptionRequestPayload(SubscriptionMode.PERIODIC, period_ms=period_ms)))


class TestRunLoop:
    """The run loop's cadence in virtual time, and its control on live threads.

    On real threads the cadence is gated by ``test_periodicity_control`` and
    ``test_closed_loop_decomposition`` in ``test_acceptance.py``.
    """

    def test_periodic_report_count(self):
        """One second of a 10 ms subscription: a report at 10, 20, ... 990 ms."""
        dapp, end = virtual_dapp([(0, subscribe_frame(1, 10.0))], end_ms=1000.0)
        dapp.run()
        reports = sent(end, MsgType.INDICATION)
        assert [t for t, _ in reports] == [k * 10 * MS for k in range(1, 100)]
        assert [r.t0 for _, r in reports] == [t for t, _ in reports]
        assert [r.sequence_number for _, r in reports] == list(range(1, 100))
        assert dapp.late_bursts == 0

    def test_period_change_takes_effect_within_two_periods(self):
        """A SET_PERIOD to 20 ms at 455 ms: the next report follows 20 ms after it."""
        dapp, end = virtual_dapp(
            [(0, subscribe_frame(1, 100.0)),
             (455 * MS, control_frame(2, CommandKind.SET_PERIOD, period_ms=20.0))],
            end_ms=1000.0)
        dapp.run()
        reports = sent(end, MsgType.INDICATION)
        assert [t for t, _ in reports] == [k * MS for k in (100, 200, 300, 400,
                                                            *range(475, 1000, 20))]
        assert [r.sequence_number for _, r in reports] == list(range(1, len(reports) + 1))
        assert sent(end, MsgType.CONTROL_ACK) == [(455 * MS, ControlAckPayload(455 * MS,
                                                                               455 * MS))]

    @pytest.mark.parametrize("build_ms, times, late", [
        (4, range(10, 100, 10), 0),
        (25, (25, *range(26, 100, 10)), 1),
    ], ids=["shorter-than-the-period", "longer-than-the-period"])
    def test_the_probe_is_built_inside_the_first_period(self, monkeypatch, build_ms, times,
                                                        late):
        """A probe build of ``build_ms`` on a 10 ms period starts at the subscription.

        A shorter build is hidden by the wait for the first deadline; after a
        longer one the first burst follows at once and counts as late.
        """
        dapp, end = virtual_dapp([(0, subscribe_frame(1, 10.0))], end_ms=100.0)
        build = dapp_module.generate_probe

        def slow_build(*args, **kwargs):
            end.clock.advance_to(end.clock.t + build_ms * MS)
            return build(*args, **kwargs)

        monkeypatch.setattr(dapp_module, "generate_probe", slow_build)
        dapp.run()
        assert [t for t, _ in sent(end, MsgType.INDICATION)] == [k * MS for k in times]
        assert dapp.late_bursts == late

    def test_a_probe_that_cannot_be_built_closes_the_subscription_at_accept(self):
        """An unknown subscribed waveform is counted and closed at 0 ms, not at the deadline."""
        dapp, end = virtual_dapp(
            [(0, subscribe_frame(1, 10.0)),
             (2 * MS, control_frame(2, CommandKind.SET_SIC, sic_enabled=False))],
            end_ms=5.0, config=DappConfig(waveform_id=7))
        dapp.run()
        assert dapp.burst_errors == Counter(UnknownWaveformId=1)
        assert dapp.machine.state == SubState.CLOSED
        assert dapp.machine.violations == []
        assert sent(end, MsgType.INDICATION) == []
        assert sent(end, MsgType.CONTROL_ACK) == [(2 * MS, ControlAckPayload(2 * MS, 2 * MS))]

    def test_event_mode_fires_on_appearance(self):
        scene = EchoScene(targets=(Target(20.0, 0.0, 0.0),), snr_db=30.0)
        dapp, xapp = small_stack(period_ms=10.0, scene=scene)
        try:
            xapp.subscribe(
                SubscriptionMode.EVENT,
                trigger=TriggerConfig(echo_energy_threshold_db=-3.0),
            )
            time.sleep(0.3)
        finally:
            xapp.stop()
            dapp.stop()
        # Echo sits near 0 dB, above threshold: fires once on first sight,
        # then stays quiet with no further crossings.
        assert len(xapp.reports) == 1

    def test_set_trigger_replaces_the_event_condition(self):
        dapp, xapp = small_stack(period_ms=10.0)
        try:
            # The echo reads about -2 dB on beam 0 and -32 dB on beam 1 (15 degrees).
            xapp.subscribe(SubscriptionMode.EVENT,
                           trigger=TriggerConfig(echo_energy_threshold_db=-15.0))
            xapp.await_report(0, timeout=2.0)
            # The step to beam 1 crosses the old energy threshold, but the new
            # AoA trigger is wider than the step: nothing may fire.
            xapp.set_trigger(TriggerConfig(aoa_shift_threshold_deg=20.0))
            xapp.set_beam(1)
            time.sleep(0.3)
            quiet = len(xapp.reports)
            # A narrower AoA trigger fires on the step back.
            xapp.set_trigger(TriggerConfig(aoa_shift_threshold_deg=10.0))
            xapp.set_beam(0)
            back = xapp.await_report(quiet, timeout=2.0)
        finally:
            xapp.stop()
            dapp.stop()
        assert quiet == 1
        assert back.report.aoa_azimuth_deg == 0.0
        assert len(xapp.reports) == 2
        assert dapp.machine.trigger == TriggerConfig(aoa_shift_threshold_deg=10.0)

    def test_sic_toggle_raises_si(self):
        scene = EchoScene(targets=(Target(20.0, 0.0, 0.0),),
                          residual_si_power_db=-20.0)
        dapp, xapp = small_stack(period_ms=20.0, scene=scene)
        try:
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=20.0)
            first = xapp.await_report(0, timeout=2.0)
            xapp.set_sic(False)
            idx = len(xapp.reports)
            later = xapp.await_report(idx + 1, timeout=2.0)
        finally:
            xapp.stop()
            dapp.stop()
        assert later.report.si_power_db > first.report.si_power_db + 10.0

    def test_overrunning_burst_is_followed_at_once(self):
        """15 ms bursts on a 10 ms period: a report every 16 ms, not 20 or 25 ms.

        Each burst overruns its slot, so the next one starts after the 1 ms
        late gap, and every slot counts in ``late_bursts``.
        """
        dapp, end = virtual_dapp(
            [(0, subscribe_frame(1, 10.0)),
             (600 * MS, control_frame(2, CommandKind.SET_SIC, sic_enabled=False))],
            end_ms=700.0, burst_ms=15.0)
        dapp.run()
        reports = sent(end, MsgType.INDICATION)
        assert [t for t, _ in reports] == [(25 + 16 * k) * MS for k in range(43)]
        assert dapp.late_bursts == 43
        # Control still lands while every burst is late: after the burst it arrived in.
        assert sent(end, MsgType.CONTROL_ACK) == [(601 * MS, ControlAckPayload(601 * MS,
                                                                               601 * MS))]
        assert not dapp.config.sic_enabled

    def test_a_tiny_period_does_not_starve_control(self):
        """0.5 ms bursts on a 1e-6 ms period: a SET_SIC at 1 ms is read after its burst."""
        dapp, end = virtual_dapp(
            [(0, subscribe_frame(1, 1e-6)),
             (MS, control_frame(2, CommandKind.SET_SIC, sic_enabled=False))],
            end_ms=6.0, burst_ms=0.5)
        dapp.run()
        assert [t for t, _ in sent(end, MsgType.INDICATION)][:2] == [501_000, 1_002_000]
        assert sent(end, MsgType.CONTROL_ACK) == [(1_002_000,
                                                   ControlAckPayload(1_002_000, 1_002_000))]
        assert not dapp.config.sic_enabled

    def test_a_new_subscription_fires_on_first_sight(self):
        """An EVENT subscription fires at 10 ms and burst 3 raises, which closes it.

        An identical one at 50 ms compares its first burst with no report, so it
        fires at 60 ms, as a fresh dApp's would, and not against the first's.
        """
        def event_frame(corr):
            return encode_message(E2SensMessage(
                MsgType.SUBSCRIPTION_REQUEST, corr, SubscriptionRequestPayload(
                    SubscriptionMode.EVENT,
                    trigger=TriggerConfig(echo_energy_threshold_db=-15.0))))

        dapp, end = virtual_dapp([(0, event_frame(1)), (50 * MS, event_frame(2))],
                                 end_ms=100.0)
        dapp.ru = RaisingOnce(dapp.ru, call=3)
        dapp.run()
        assert dapp.burst_errors == Counter(RuntimeError=1)
        assert [r.subscription_id for _, r in sent(end, MsgType.SUBSCRIPTION_RESPONSE)] \
            == [1, 2]
        assert [t for t, _ in sent(end, MsgType.INDICATION)] == [10 * MS, 60 * MS]

    def test_an_event_run_sends_the_same_bytes(self):
        """An EVENT subscription, SET_TRIGGER mid-run, a close, then a PERIODIC one.

        The echo reads about -2 dB on beam 0 and -32 dB on beam 1 (15 degrees).
        The energy trigger fires on first sight and on each beam step; the AoA
        trigger on a step of 15 degrees only when its threshold is below it.
        Burst 18 raises, which closes the subscription, and a PERIODIC one
        at 200 ms reports every 10 ms. Every frame the dApp sends, with its
        virtual send time, hashes to ``EVENT_RUN_DIGEST``.
        """
        def event_frame(corr, trigger):
            return encode_message(E2SensMessage(
                MsgType.SUBSCRIPTION_REQUEST, corr,
                SubscriptionRequestPayload(SubscriptionMode.EVENT, trigger=trigger)))

        def beam(corr, index):
            return control_frame(corr, CommandKind.SET_BEAM, beam_index=index)

        def trigger(corr, energy=None, aoa=None):
            return control_frame(corr, CommandKind.SET_TRIGGER,
                                 trigger=TriggerConfig(energy, aoa))

        script = [
            (0, event_frame(1, TriggerConfig(echo_energy_threshold_db=-15.0))),
            (5 * MS, subscribe_frame(2, 10.0)),                 # refused: one is active
            (30 * MS, beam(3, 1)), (60 * MS, beam(4, 0)),
            (80 * MS, trigger(5, aoa=10.0)),
            (100 * MS, beam(6, 1)), (120 * MS, beam(7, 0)),
            (130 * MS, trigger(8, energy=-15.0, aoa=20.0)),
            (140 * MS, beam(9, 1)), (160 * MS, beam(10, 0)),
            (200 * MS, subscribe_frame(11, 10.0)),
            (230 * MS, beam(12, 1)),
        ]
        dapp, end = virtual_dapp(script, end_ms=260.0, burst_ms=1.0)
        dapp.ru = RaisingOnce(dapp.ru, call=18)
        dapp.run()
        assert dapp.burst_errors == Counter(RuntimeError=1)
        assert [t // MS for t, _ in sent(end, MsgType.INDICATION)] == EVENT_RUN_TIMES
        h = hashlib.sha256()
        for t, frame in end.sent:
            h.update(t.to_bytes(8, "big") + frame)
        assert h.hexdigest() == EVENT_RUN_DIGEST

    def test_an_idle_loop_keeps_no_deadline(self):
        """A tiny period at 0 ms and a SET_SIC at 3 ms, nothing subscribed: one read per frame."""
        dapp, end = virtual_dapp(
            [(0, control_frame(1, CommandKind.SET_PERIOD, period_ms=1e-9)),
             (3 * MS, control_frame(2, CommandKind.SET_SIC, sic_enabled=False))],
            end_ms=5.0)
        dapp.run()
        assert end.waits == [None, None, None]  # two frames, then the script's end
        assert dapp.late_bursts == 0
        assert sent(end, MsgType.CONTROL_ACK) == [(0, ControlAckPayload(0, 0)),
                                                  (3 * MS, ControlAckPayload(3 * MS, 3 * MS))]

    def test_a_tiny_period_leaves_control_and_stop_working(self):
        """1e-9 ms rounds to a 0 ns period: the live loop still acks, and ``stop()`` ends it."""
        dapp, xapp = small_stack(period_ms=10.0)
        try:
            # The xApp's policy would refuse the period, so it goes raw, as a peer might.
            xapp.channel.send(control_frame(999, CommandKind.SET_PERIOD, period_ms=1e-9))
            xapp.set_sic(False, timeout=1.0)
            time.sleep(0.2)
            # Nothing is subscribed, so the loop keeps no deadline to miss.
            assert dapp.late_bursts == 0
        finally:
            xapp.stop()
            stopping = time.monotonic()
            dapp.stop()
        assert time.monotonic() - stopping < 1.0
        assert not dapp._thread.is_alive()
        assert dapp.config.report_period_ms == 1e-9
        assert not dapp.config.sic_enabled

    def test_refused_commands_are_counted_and_the_loop_keeps_serving(self):
        dapp, xapp = small_stack(period_ms=10.0)
        try:
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0)
            # A beam and periods the xApp's policy would stop, sent raw as a peer might.
            xapp.channel.send(control_frame(999, CommandKind.SET_BEAM, beam_index=200))
            xapp.channel.send(control_frame(1000, CommandKind.SET_PERIOD, period_ms=-1.0))
            xapp.channel.send(control_frame(1001, CommandKind.SET_PERIOD, period_ms=math.nan))
            xapp.await_report(len(xapp.reports) + 5, timeout=1.0)
        finally:
            xapp.stop()
            dapp.stop()
        assert dapp.refused_commands == 3
        assert xapp.late_replies == 0           # no ack for a refused command
        assert dapp.config.report_period_ms == 10.0
        assert dapp.config.active_beam == 0

    def test_undecodable_frames_are_counted_and_both_loops_keep_serving(self):
        def frame(version, msg_type, payload=b""):
            return struct.pack(">BBII", version, msg_type, 7, len(payload)) + payload

        truncated = frame(1, MsgType.INDICATION)[:3]
        unknown_type = frame(1, 99)
        dapp, xapp = small_stack(period_ms=10.0)
        try:
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0)
            # 10 bytes, version 9, to the xApp; 11 bytes of CONTROL_REQUEST to the dApp.
            for bad in (frame(9, MsgType.INDICATION), truncated, unknown_type):
                dapp.channel.send(bad)
            for bad in (frame(1, MsgType.CONTROL_REQUEST, b"\x00"), truncated, unknown_type):
                xapp.channel.send(bad)
            xapp.set_sic(False, timeout=1.0)
            xapp.await_report(len(xapp.reports) + 5, timeout=1.0)
            assert dapp._thread.is_alive() and xapp._thread.is_alive()
            assert dapp.machine.state == SubState.ACTIVE
        finally:
            xapp.stop()
            dapp.stop()
        assert xapp.decode_errors == Counter(UnknownVersion=1, Truncated=1, UnknownType=1)
        assert dapp.decode_errors == Counter(LengthMismatch=1, Truncated=1, UnknownType=1)
        assert not dapp.config.sic_enabled

    def test_frames_the_dapp_does_not_serve_are_counted_and_it_keeps_serving(self):
        report = SensingReport(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)
        unserved = (
            E2SensMessage(MsgType.INDICATION, 7, report),
            E2SensMessage(MsgType.CONTROL_ACK, 7, ControlAckPayload(1, 2)),
            E2SensMessage(MsgType.SUBSCRIPTION_RESPONSE, 7, SubscriptionResponsePayload(7)),
            E2SensMessage(MsgType.SUBSCRIPTION_RESPONSE, 8),
        )
        dapp, xapp = small_stack(period_ms=10.0)
        try:
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0)
            for msg in unserved:
                xapp.channel.send(encode_message(msg))
            xapp.set_sic(False, timeout=1.0)
            xapp.await_report(len(xapp.reports) + 5, timeout=1.0)
            assert dapp._thread.is_alive()
            assert dapp.machine.state == SubState.ACTIVE
        finally:
            xapp.stop()
            dapp.stop()
        assert dapp.unexpected_frames == Counter(
            INDICATION=1, CONTROL_ACK=1, SUBSCRIPTION_RESPONSE=2)
        assert dapp.decode_errors == Counter()
        assert dapp.machine.violations == []
        assert not dapp.config.sic_enabled

    @pytest.mark.parametrize("scene, header, error", [
        (EchoScene(targets=(Target(20.0),), snr_db=20.0, seed=-1), None, "ValueError"),
        (EchoScene(targets=(Target(1e5),), snr_db=20.0), None, "DelayExceedsBurst"),
        (None, PADDED_HEADER, "NonZeroPadding"),
        (None, UNKNOWN_WAVEFORM_HEADER, "UnknownWaveformId"),
    ], ids=["negative-seed", "delay-beyond-burst", "padding-bits", "unknown-waveform"])
    def test_a_burst_that_raises_closes_the_subscription_not_the_thread(self, scene, header,
                                                                        error):
        dapp, xapp = small_stack(period_ms=10.0, scene=scene)
        if header is not None:
            dapp.ru = RewrittenHeader(dapp.ru, header)
        try:
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0)
            deadline = time.monotonic() + 1.0
            while dapp.machine.state != SubState.CLOSED and time.monotonic() < deadline:
                time.sleep(0.01)
            assert dapp.machine.state == SubState.CLOSED
            assert dapp._thread.is_alive()
            # The thread still serves control: a command is applied and acked.
            xapp.set_sic(False, timeout=1.0)
        finally:
            xapp.stop()
            dapp.stop()
        assert dapp.burst_errors == Counter({error: 1})
        assert not xapp.reports

    def test_a_zero_amplitude_target_without_si_keeps_reporting(self):
        """An all-zero burst gives an all-zero delay profile: its spread is 0, not a raise."""
        dapp, xapp = small_stack(period_ms=10.0,
                                 scene=EchoScene(targets=(Target(20.0, amplitude=0.0),)))
        try:
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=10.0)
            xapp.await_report(5, timeout=1.0)
        finally:
            xapp.stop()
            dapp.stop()
        assert not dapp.burst_errors
        assert all(r.report.multipath_spread_s == 0.0 for r in xapp.reports)

    def test_only_a_subscription_or_a_new_period_restarts_the_schedule(self):
        dapp = offline_dapp(EchoScene(), DappConfig(report_period_ms=10.0))
        assert not dapp._handle_frame(control_frame(1, CommandKind.SET_PERIOD, period_ms=10.0))
        assert not dapp._handle_frame(control_frame(2, CommandKind.SET_SIC, sic_enabled=False))
        assert dapp._handle_frame(control_frame(3, CommandKind.SET_PERIOD, period_ms=20.0))
        assert dapp.config.report_period_ms == 20.0
        subscribe = encode_message(E2SensMessage(
            msg_type=MsgType.SUBSCRIPTION_REQUEST, correlation_id=4,
            payload=SubscriptionRequestPayload(SubscriptionMode.PERIODIC, period_ms=20.0)))
        assert dapp._handle_frame(subscribe)

    def test_closed_loop_probes_keep_the_report_period(self):
        """5 ms bursts on a 20 ms period: probing must not stretch the interval to ~25 ms."""
        dapp, xapp = small_stack(period_ms=20.0)
        sense = dapp.sense_once

        def slow_sense():
            time.sleep(0.005)
            return sense()

        dapp.sense_once = slow_sense
        try:
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=20.0)
            for _ in range(20):
                xapp.closed_loop_probe(timeout=1.0)
        finally:
            xapp.stop()
            dapp.stop()
        inter = np.diff([r.t1_ns for r in xapp.reports]) / 1e6
        assert len(inter) >= 19
        assert np.median(inter) < 23.0

    def test_a_stalled_tcp_reader_parks_the_loop_and_does_not_end_it(self):
        """A peer that stops reading parks the dApp in its send; reading again resumes it."""
        dapp_end, peer = channel_pair(EndpointKind.TCP)
        for end in (dapp_end, peer):
            for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                end._sock.setsockopt(socket.SOL_SOCKET, option, 4096)
        dapp = SensingDapp(DappConfig(report_period_ms=1.0), {0: SMALL_CFG}, BEAMS,
                           SMALL_SCENE, dapp_end)
        dapp.start()
        try:
            peer.send(subscribe_frame(1, 1.0))
            time.sleep(0.8)  # the peer reads nothing
            parked_at = dapp.sequence_number
            time.sleep(0.2)
            stalled_at = dapp.sequence_number
            assert dapp._thread.is_alive()
            assert dapp.machine.state == SubState.ACTIVE
            assert not dapp.burst_errors
            assert stalled_at == parked_at > 0  # the buffers filled and parked the 1 ms loop
            seqs = []
            deadline = time.monotonic() + 2.0
            while (not seqs or seqs[-1] <= stalled_at + 20) and time.monotonic() < deadline:
                msg = decode_message(peer.recv(timeout=1.0))
                if msg.msg_type == MsgType.INDICATION:
                    seqs.append(msg.payload.sequence_number)
            assert seqs == list(range(1, len(seqs) + 1))
            assert seqs[-1] > stalled_at + 20
        finally:
            stopping = time.monotonic()
            dapp.stop()
            peer.close()
        assert time.monotonic() - stopping < 2.0
        assert not dapp._thread.is_alive()


@settings(max_examples=300, deadline=None)
@given(peer_scripts(20 * MS))
@example([(0, control_frame(1, CommandKind.SET_PERIOD, period_ms=1e-9))])
def test_the_dapp_accounts_for_every_peer_frame(script):
    """Any script of peer frames: ``run()`` reads them all and ends with the script.

    Every frame is answered (a subscription response or a control ack),
    refused, or counted as undecodable or unexpected. A burst takes 1 ms of
    virtual time, and the script ends late enough for its last frame to be
    answered.
    """
    last = max((t for t, _ in script), default=0)
    dapp, end = virtual_dapp(script, end_ms=(last + (len(script) + 2) * MS) / MS,
                             burst_ms=1.0)
    dapp.run()
    assert not end.inbox and end.clock.t >= end.end_ns
    answered = (len(sent(end, MsgType.SUBSCRIPTION_RESPONSE))
                + len(sent(end, MsgType.CONTROL_ACK)))
    assert answered + dapp.refused_commands + sum(dapp.decode_errors.values()) \
        + sum(dapp.unexpected_frames.values()) == len(script)
    assert not dapp.burst_errors


@pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300],
                         ids=["nan", "inf", "-inf", "zero", "negative", "1e300"])
def test_out_of_range_period_is_refused_everywhere(period):
    """Config, subscription, SET_PERIOD and the A1 check share one period rule."""
    assert not valid_period(period)
    with pytest.raises(ValueError):
        DappConfig(report_period_ms=period)
    request = SubscriptionRequestPayload(SubscriptionMode.PERIODIC, period_ms=period)
    assert SubscriptionMachine().step(SubEvent.REQUEST_RECEIVED, request=request).violation
    assert enforce_policy(A1IsacPolicy(), request).verdict == Verdict.REJECT
    dapp_end, peer = channel_pair()
    dapp = SensingDapp(DappConfig(report_period_ms=10.0), {0: make_cfg()}, BEAMS,
                       EchoScene(), dapp_end)
    assert not dapp._handle_frame(control_frame(1, CommandKind.SET_PERIOD, period_ms=period))
    assert dapp.refused_commands == 1
    assert dapp.config.report_period_ms == 10.0
    with pytest.raises(Timeout):
        peer.recv(timeout=0.0)


@pytest.mark.parametrize("trigger", [
    TriggerConfig(),
    TriggerConfig(-15.0, math.nan),
    TriggerConfig(echo_energy_threshold_db=math.inf),
    TriggerConfig(aoa_shift_threshold_deg=-math.inf),
    # An AoA shift is never negative, so a threshold at or below 0 fires on
    # every burst, and one above 180 degrees never fires.
    TriggerConfig(-15.0, -5.0),
    TriggerConfig(aoa_shift_threshold_deg=0.0),
    TriggerConfig(aoa_shift_threshold_deg=180.5),
], ids=["empty", "nan", "inf", "-inf", "aoa-negative", "aoa-zero", "aoa-over-180"])
def test_an_invalid_trigger_is_refused_everywhere(trigger):
    """Subscription, A1 check, SET_TRIGGER and the xApp share one trigger rule."""
    assert not valid_trigger(trigger)
    request = SubscriptionRequestPayload(SubscriptionMode.EVENT, trigger=trigger)
    assert SubscriptionMachine().step(SubEvent.REQUEST_RECEIVED, request=request).violation
    refused = PolicyDecision(Verdict.REJECT, "INVALID_TRIGGER")
    assert enforce_policy(A1IsacPolicy(), request) == refused
    command = ControlRequestPayload(CommandKind.SET_TRIGGER, 0, trigger=trigger)
    assert enforce_policy(A1IsacPolicy(), command) == refused
    dapp_end, peer = channel_pair()
    dapp = SensingDapp(DappConfig(), {0: make_cfg()}, BEAMS, EchoScene(), dapp_end)
    assert not dapp._handle_frame(control_frame(1, CommandKind.SET_TRIGGER, trigger=trigger))
    assert dapp.refused_commands == 1
    assert dapp.machine.trigger == TriggerConfig()
    with pytest.raises(Timeout):
        peer.recv(timeout=0.0)
    with pytest.raises(PolicyViolation, match="INVALID_TRIGGER"):
        XApp(peer).set_trigger(trigger)
    with pytest.raises(Timeout):
        dapp_end.recv(timeout=0.0)


def test_period_rule_bounds():
    assert valid_period(1e-3) and valid_period(MAX_PERIOD_MS)
    assert not valid_period(MAX_PERIOD_MS * (1 + 1e-9))


def test_trigger_rule_bounds():
    assert valid_trigger(TriggerConfig(aoa_shift_threshold_deg=180.0))
    assert valid_trigger(TriggerConfig(aoa_shift_threshold_deg=5e-324))
    assert valid_trigger(TriggerConfig(-1e308, 90.0))


# -- seeded bit-identity and the per-beam echo cache --------------------------

DIGEST_SCENES = (
    EchoScene(targets=(Target(45.0, 3.0, 0.0),
                       Target(80.0, -5.0, 12.0, 0.5),
                       Target(120.0, 10.0, -20.0, 0.2)),
              snr_db=20.0, residual_si_power_db=-25.0, seed=11),
    EchoScene(targets=(Target(30.0, 1.5, 15.0),), residual_si_power_db=-30.0),
    EchoScene(snr_db=10.0, seed=5),
)

# SHA-256 over the digest sequence below. A change to it means seeded outputs
# moved: that is a different simulator, not an optimisation.
SEEDED_DIGEST = "c294b0baef7c446743df8b98cae1bdf5d85b90afb3069742427ed24efe1cda7f"


def offline_dapp(scene, config=None):
    dapp_end, _ = channel_pair()
    return SensingDapp(config or DappConfig(), {0: make_cfg()}, BEAMS, scene, dapp_end)


def indication_bytes(report):
    return encode_message(E2SensMessage(msg_type=MsgType.INDICATION,
                                        correlation_id=1, payload=report))


class TestSeededOutputs:
    def test_sense_once_and_apply_scene_digest(self):
        """30 bursts per scene: beam 1 from burst 10, SIC off from burst 20."""
        cfg = make_cfg()
        _, probe = generate_probe(cfg)
        h = hashlib.sha256()
        for scene in DIGEST_SCENES:
            dapp = offline_dapp(scene)
            for burst in range(30):
                if burst == 10:
                    dapp._handle_frame(control_frame(1, CommandKind.SET_BEAM, beam_index=1))
                if burst == 20:
                    dapp._handle_frame(control_frame(2, CommandKind.SET_SIC, sic_enabled=False))
                h.update(indication_bytes(dapp.sense_once()))
                block, _ = apply_scene(probe, cfg, replace(scene, seed=scene.seed + burst),
                                       burst // 10 % 2, BEAMS)
                h.update(block.samples.tobytes())
        assert h.hexdigest() == SEEDED_DIGEST

    @pytest.mark.parametrize("kind, fields, state", [
        (CommandKind.SET_BEAM, {"beam_index": 1}, {"active_beam": 1}),
        (CommandKind.SET_SIC, {"sic_enabled": False}, {"sic_enabled": False}),
    ], ids=["set_beam", "set_sic"])
    def test_control_frame_matches_fresh_dapp_in_that_state(self, kind, fields, state):
        scene = DIGEST_SCENES[0]
        switched = offline_dapp(scene)
        fresh = offline_dapp(scene, DappConfig(**state))
        for _ in range(5):
            switched.sense_once()
            fresh.sense_once()
        switched._handle_frame(control_frame(1, kind, **fields))
        for _ in range(3):
            assert indication_bytes(switched.sense_once()) == indication_bytes(fresh.sense_once())

    def test_delay_beyond_burst_raises_on_first_burst(self):
        cfg = make_cfg()
        too_far = cfg.burst_duration * SPEED_OF_LIGHT / 2.0 + 1.0
        dapp = offline_dapp(EchoScene(targets=(Target(too_far, 0.0, 0.0),)))
        for _ in range(2):
            with pytest.raises(DelayExceedsBurst):
                dapp.sense_once()


class TestRadioUnitSeam:
    """The dApp reads each echo through the metadata the RU returns with it."""

    @pytest.mark.parametrize("header, error", [
        (PADDED_HEADER, NonZeroPadding),
        (UNKNOWN_WAVEFORM_HEADER, UnknownWaveformId),
    ], ids=["padding-bits", "unknown-waveform"])
    def test_a_header_the_dapp_cannot_read_raises(self, header, error):
        dapp = offline_dapp(DIGEST_SCENES[0])
        dapp.ru = RewrittenHeader(dapp.ru, header)
        with pytest.raises(error):
            dapp.sense_once()

    def test_the_report_follows_the_beam_the_header_names(self):
        dapp = offline_dapp(DIGEST_SCENES[0])
        dapp.ru = RewrittenHeader(dapp.ru, encode_metadata(
            SensingMetadata(beam_index=1, sensing_flag=True)))
        report = dapp.sense_once()
        assert dapp.config.active_beam == 0
        assert report.beam_index == 1
        assert report.aoa_azimuth_deg == BEAMS.direction(1)[0] == 15.0


class TestNoiseHelperLifetime:
    """A started dApp's RU draws noise in a helper process that ``stop()`` ends."""

    def test_stop_reaps_the_helper(self):
        dapp, xapp = small_stack(period_ms=5.0)
        try:
            if dapp.ru.helper is None:
                pytest.skip("no spare CPU or no shared memory file for a helper")
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=5.0)
            xapp.await_report(5, timeout=2.0)
        finally:
            xapp.stop()
            dapp.stop()
        proc = dapp.ru.helper._proc
        assert proc.returncode is not None
        with pytest.raises(ProcessLookupError):
            os.kill(proc.pid, 0)
        assert dapp.counters()["local_noise_draws"] == dapp.ru.local_draws <= \
            dapp.sequence_number

    def test_a_stack_stopped_while_its_helper_boots_writes_nothing(self, capfd):
        for _ in range(3):
            dapp, xapp = small_stack()
            xapp.stop()
            dapp.stop()
            assert dapp.ru.helper is None or dapp.ru.helper._proc.returncode is not None
        assert capfd.readouterr() == ("", "")

    def test_a_one_cpu_process_starts_no_helper(self, monkeypatch):
        monkeypatch.setattr(transport, "_PROCESS_CPUS", frozenset({0}))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        dapp, xapp = small_stack(period_ms=5.0)
        try:
            assert dapp.ru.helper is None
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=5.0)
            xapp.await_report(3, timeout=2.0)
        finally:
            xapp.stop()
            dapp.stop()
        assert dapp.counters()["local_noise_draws"] == dapp.sequence_number >= 3

    def test_a_noiseless_scene_starts_no_helper(self):
        """Its bursts never draw noise, so its RU has nothing for a helper to do."""
        dapp, xapp = small_stack(period_ms=5.0, scene=EchoScene(targets=(Target(20.0),)))
        try:
            assert dapp.ru.helper is None
            xapp.subscribe(SubscriptionMode.PERIODIC, period_ms=5.0)
            xapp.await_report(3, timeout=2.0)
        finally:
            xapp.stop()
            dapp.stop()
        assert not dapp.burst_errors
        assert dapp.counters()["local_noise_draws"] == 0


def test_first_burst_does_not_load_masked_arrays():
    """numpy.ma costs a fresh process 15-20 ms of import on its first burst."""
    code = """
import json, sys
from oran_isac.dapp import DappConfig, SensingDapp
from oran_isac.ofh import BeamTable, WaveformConfig
from oran_isac.radio import EchoScene, Target
from oran_isac.transport import channel_pair

dapp_end, _ = channel_pair()
cfg = WaveformConfig(256, 64, 100e6 / 256, "qpsk-prs", 3.5e9, 100e6, 16)
scene = EchoScene(targets=(Target(45.0, 10.0, 0.0),), snr_db=20.0, seed=1)
SensingDapp(DappConfig(), {0: cfg}, BeamTable({0: (0.0, 0.0)}), scene, dapp_end).sense_once()
print(json.dumps(sorted(m for m in sys.modules if m.startswith("numpy.") and m.count(".") == 1)))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout)
    assert "numpy.ma" not in loaded, f"numpy submodules after one burst: {loaded}"
