"""DU-resident sensing pipeline.

Turns received IQ bursts into telemetry: pilot-division periodogram over the
OFDM grid (inverse DFT across subcarriers gives the delay axis, DFT across
symbols the Doppler axis), peak extraction with parabolic sub-bin refinement,
and derived indicators (self-interference power at the zero cell, RMS
multipath spread of the power delay profile, angular entropy over a beam
sweep). A run loop serves one subscription, applies control commands between
emissions, and stamps every report just before serialization.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .clock import SharedClock, default_clock
from .e2sm import (
    CommandKind,
    ControlAckPayload,
    ControlRequestPayload,
    E2DecodeError,
    E2SensMessage,
    MsgType,
    SensingReport,
    SubEvent,
    SubscriptionMachine,
    SubscriptionMode,
    SubscriptionRequestPayload,
    SubState,
    TriggerConfig,
    decode_message,
    encode_message,
    valid_period,
)
from .ofh import BeamTable, IqBlock, WaveformConfig, lookup_waveform
from .radio import SPEED_OF_LIGHT, EchoScene, SceneEcho, apply_scene, generate_probe, scene_echo
from .transport import Channel, Disconnected, Timeout, send_telemetry

ECHO_ENERGY = "ECHO_ENERGY"
AOA_SHIFT = "AOA_SHIFT"

# Bins excluded around the main peak when hunting for the runner-up.
_CONFIDENCE_GUARD = 2

# Multipath gate: bins of the power delay profile at least this factor above
# the estimated noise floor contribute to the RMS spread.
_MULTIPATH_GATE_DB = 10.0


class DappError(Exception):
    pass


class LengthMismatch(DappError):
    """IQ block length does not match the waveform configuration."""


class EmptyMap(DappError):
    pass


def delay_doppler_map(block: IqBlock, cfg: WaveformConfig,
                      probe_grid: np.ndarray) -> np.ndarray:
    """Pilot-division periodogram: (fft_size delay bins) x (num_symbols Doppler bins).

    Delay bin width is 1/sample_rate; Doppler bin width is
    1/(num_symbols * symbol_duration). Values are squared magnitudes scaled so
    a unit-amplitude single path peaks at its power gain.
    """
    n, cp, m = cfg.fft_size, cfg.cp_length, cfg.num_symbols
    if len(block.samples) != m * (n + cp):
        raise LengthMismatch(
            f"block has {len(block.samples)} samples, waveform needs {m * (n + cp)}"
        )
    symbols = block.samples.reshape(m, n + cp)[:, cp:]
    rx_grid = np.fft.fft(symbols, axis=1) / math.sqrt(n)
    quotient = rx_grid / probe_grid
    profile = np.fft.ifft(quotient, axis=1)       # subcarriers -> delay
    spectrum = np.fft.fft(profile, axis=0) / m    # symbols -> Doppler
    return np.abs(spectrum.T) ** 2


def _parabolic_offset(left: float, center: float, right: float) -> float:
    """Sub-bin offset of a peak from three log-power samples, in [-0.5, 0.5]."""
    floor = center * 1e-12 + 1e-300
    l, c, r = (math.log(max(v, floor)) for v in (left, center, right))
    denom = l - 2.0 * c + r
    if denom >= 0.0:
        return 0.0
    return max(-0.5, min(0.5, 0.5 * (l - r) / denom))


def _second_peak(power_map: np.ndarray, peak: tuple[int, int]) -> float:
    masked = power_map.copy()
    di = np.arange(power_map.shape[0])
    pi = np.arange(power_map.shape[1])
    d_dist = np.minimum(np.abs(di - peak[0]), power_map.shape[0] - np.abs(di - peak[0]))
    p_dist = np.minimum(np.abs(pi - peak[1]), power_map.shape[1] - np.abs(pi - peak[1]))
    region = (d_dist[:, None] <= _CONFIDENCE_GUARD) & (p_dist[None, :] <= _CONFIDENCE_GUARD)
    masked[region] = 0.0
    return float(masked.max()) if masked.size else 0.0


def angular_entropy(beam_powers: Iterable[float]) -> float:
    """Shannon entropy (nats) of the normalized per-beam peak powers."""
    powers = np.asarray([p for p in beam_powers if p > 0.0], dtype=float)
    if powers.size <= 1:
        return 0.0
    p = powers / powers.sum()
    return float(-(p * np.log(p)).sum())


def _median(values: np.ndarray) -> float:
    """Median of a 1-D array, bit for bit as ``np.median`` returns it.

    ``np.median`` checks its input for masked arrays, which imports numpy's
    whole masked-array package, 15-20 ms, on a process's first burst.
    """
    ordered = np.sort(values)
    if math.isnan(ordered[-1]):  # NaNs sort last
        return math.nan
    half = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2)


def multipath_spread(power_delay_profile: np.ndarray, bin_width_s: float) -> float:
    """RMS delay spread of the profile over bins above the noise gate."""
    pdp = np.asarray(power_delay_profile, dtype=float)
    floor = _median(pdp)
    gate = floor * 10.0 ** (_MULTIPATH_GATE_DB / 10.0)
    sel = pdp >= max(gate, pdp.max() * 1e-12)
    if sel.sum() <= 1:
        return 0.0
    delays = np.nonzero(sel)[0] * bin_width_s
    weights = pdp[sel]
    mean = float(np.average(delays, weights=weights))
    return float(math.sqrt(np.average((delays - mean) ** 2, weights=weights)))


def estimate_kpis(power_map: np.ndarray, cfg: WaveformConfig,
                  beam_table: BeamTable, beam_index: int, *,
                  waveform_id: int = 0,
                  sequence_number: int = 0) -> SensingReport:
    """Extract the telemetry record from one delay-Doppler map; the run loop stamps ``t0``."""
    if power_map.size == 0:
        raise EmptyMap("delay-Doppler map is empty")
    n_delay, n_dopp = power_map.shape
    flat = int(np.argmax(power_map))
    d_idx, p_idx = divmod(flat, n_dopp)
    peak = float(power_map[d_idx, p_idx])

    d_off = _parabolic_offset(
        float(power_map[(d_idx - 1) % n_delay, p_idx]),
        peak,
        float(power_map[(d_idx + 1) % n_delay, p_idx]),
    )
    p_off = _parabolic_offset(
        float(power_map[d_idx, (p_idx - 1) % n_dopp]),
        peak,
        float(power_map[d_idx, (p_idx + 1) % n_dopp]),
    )

    delay_bin = 1.0 / cfg.sample_rate
    doppler_bin = 1.0 / (cfg.num_symbols * cfg.symbol_duration)
    delay_s = (d_idx + d_off) * delay_bin
    dopp_idx = p_idx + p_off
    if dopp_idx > n_dopp / 2.0:
        dopp_idx -= n_dopp
    doppler_hz = dopp_idx * doppler_bin

    second = _second_peak(power_map, (d_idx, p_idx))
    confidence = 1.0 if second <= 0.0 else min(1.0, peak / second - 1.0)

    az, el = beam_table.direction(beam_index)

    return SensingReport(
        t0=0,
        delay_s=delay_s,
        range_m=SPEED_OF_LIGHT * delay_s / 2.0,
        doppler_hz=doppler_hz,
        radial_velocity_mps=doppler_hz * SPEED_OF_LIGHT / (2.0 * cfg.carrier_frequency),
        aoa_azimuth_deg=az,
        aoa_elevation_deg=el,
        echo_energy_db=10.0 * math.log10(max(peak, 1e-300)),
        si_power_db=10.0 * math.log10(max(float(power_map[0, 0]), 1e-300)),
        multipath_spread_s=multipath_spread(power_map[:, 0], delay_bin),
        # A burst probes one beam, so its sweep holds that beam's peak alone.
        angular_entropy=angular_entropy([peak]),
        confidence=confidence,
        beam_index=beam_index,
        waveform_id=waveform_id,
        sequence_number=sequence_number,
    )


def evaluate_triggers(report: SensingReport, prev: SensingReport | None,
                      trig: TriggerConfig) -> list[str]:
    """Pure trigger check: threshold crossings in echo energy, AoA jumps."""
    fired: list[str] = []
    thr = trig.echo_energy_threshold_db
    if thr is not None:
        if prev is None:
            if report.echo_energy_db > thr:
                fired.append(ECHO_ENERGY)
        elif (prev.echo_energy_db > thr) != (report.echo_energy_db > thr):
            fired.append(ECHO_ENERGY)
    aoa_thr = trig.aoa_shift_threshold_deg
    if aoa_thr is not None and prev is not None:
        delta = abs(report.aoa_azimuth_deg - prev.aoa_azimuth_deg)
        delta = min(delta, 360.0 - delta)
        if delta >= aoa_thr:
            fired.append(AOA_SHIFT)
    return fired


@dataclass
class DappConfig:
    report_period_ms: float = 10.0
    active_beam: int = 0
    sic_enabled: bool = True
    waveform_id: int = 0

    def __post_init__(self) -> None:
        if not valid_period(self.report_period_ms):
            raise ValueError(f"report_period_ms {self.report_period_ms} out of range")


# Residual self-interference when the canceler is switched off: no
# suppression, SI as strong as the echo.
_SIC_OFF_SI_DB = 0.0

# Share of the report period a late burst waits before the next one, so the
# receiving side and inbound control get the interpreter between bursts.
_LATE_GAP = 0.1


class SensingDapp:
    """Single sensing pipeline instance bound to one transport channel.

    Owns its configuration, sequence counter, and subscription machine on one
    worker thread; the channel is the only cross-thread boundary. Control
    commands are applied as they arrive, always between emissions, and each is
    acknowledged with its receive and apply timestamps; one with an
    out-of-range value is counted in ``refused_commands`` and left unanswered.
    An undecodable frame is counted by kind in ``decode_errors`` and dropped.
    """

    def __init__(self, config: DappConfig,
                 waveform_table: dict[int, WaveformConfig],
                 beam_table: BeamTable,
                 scene: EchoScene,
                 channel: Channel,
                 clock: SharedClock | None = None) -> None:
        self.config = config
        self.waveform_table = waveform_table
        self.beam_table = beam_table
        self.scene = scene
        self.channel = channel
        self.clock = clock or default_clock()
        self.machine = SubscriptionMachine()
        self.trigger = TriggerConfig()
        self.sequence_number = 0
        self.prev_report: SensingReport | None = None
        self.dropped_blocks = 0
        self.refused_commands = 0
        self.decode_errors: Counter[str] = Counter()
        self._probe_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Noise-free echo keyed by (waveform_id, active_beam, sic_enabled):
        # all that _apply_command can change about a burst besides its seed.
        self._echo_cache: dict[tuple[int, int, bool], SceneEcho] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- pipeline -----------------------------------------------------------

    def _probe(self, waveform_id: int) -> tuple[WaveformConfig, np.ndarray, np.ndarray]:
        cfg = lookup_waveform(self.waveform_table, waveform_id)
        if waveform_id not in self._probe_cache:
            self._probe_cache[waveform_id] = generate_probe(cfg, seed=self.scene.seed)
        grid, time_probe = self._probe_cache[waveform_id]
        return cfg, grid, time_probe

    def _effective_scene(self) -> EchoScene:
        if self.config.sic_enabled:
            return self.scene
        si = max(self.scene.residual_si_power_db, _SIC_OFF_SI_DB)
        return replace(self.scene, residual_si_power_db=si)

    def sense_once(self) -> SensingReport:
        """Run one full acquire-process cycle and return the report."""
        cfg, grid, time_probe = self._probe(self.config.waveform_id)
        scene = replace(self._effective_scene(),
                        seed=self.scene.seed + self.sequence_number)
        key = (self.config.waveform_id, self.config.active_beam, self.config.sic_enabled)
        echo = self._echo_cache.get(key)
        if echo is None:
            echo = scene_echo(time_probe, cfg, scene, self.config.active_beam, self.beam_table)
            self._echo_cache[key] = echo
        block, _ = apply_scene(
            time_probe, cfg, scene, self.config.active_beam, self.beam_table,
            echo=echo,
            waveform_id=self.config.waveform_id,
            tx_timestamp=self.clock.now_ns(),
        )
        power_map = delay_doppler_map(block, cfg, grid)
        self.sequence_number += 1
        return estimate_kpis(
            power_map, cfg, self.beam_table, self.config.active_beam,
            waveform_id=self.config.waveform_id,
            sequence_number=self.sequence_number,
        )

    # -- control ------------------------------------------------------------

    def _apply_command(self, cmd: ControlRequestPayload) -> bool:
        """Apply one command; False, with nothing changed, for an out-of-range value."""
        if cmd.kind == CommandKind.SET_PERIOD:
            if not valid_period(cmd.period_ms):
                return False
            self.config.report_period_ms = cmd.period_ms
        elif cmd.kind == CommandKind.SET_BEAM:
            if cmd.beam_index not in self.beam_table:
                return False
            self.config.active_beam = cmd.beam_index
        elif cmd.kind == CommandKind.SET_SIC:
            self.config.sic_enabled = cmd.sic_enabled
        else:
            self.trigger = cmd.trigger
        return True

    def _handle_frame(self, frame: bytes) -> bool:
        """Process one inbound frame; returns True when the report schedule must restart.

        That is when a subscription is accepted, which starts the cadence, or
        when a control command moves the report period to a different value.
        A period refresh to the current value is applied and acked like any
        other command but keeps the deadline grid.
        """
        try:
            msg = decode_message(frame)
        except E2DecodeError as e:
            self.decode_errors[type(e).__name__] += 1
            return False
        if msg.msg_type == MsgType.SUBSCRIPTION_REQUEST:
            assert isinstance(msg.payload, SubscriptionRequestPayload)
            result = self.machine.handle_request(msg.payload, msg.correlation_id)
            if msg.payload.mode == SubscriptionMode.PERIODIC and not result.violation:
                self.config.report_period_ms = msg.payload.period_ms
            if msg.payload.mode == SubscriptionMode.EVENT and not result.violation:
                self.trigger = msg.payload.trigger
            for out in result.emitted:
                self.channel.send(encode_message(out))
            return not result.violation
        if msg.msg_type == MsgType.CONTROL_REQUEST:
            assert isinstance(msg.payload, ControlRequestPayload)
            received_at = self.clock.now_ns()
            period = self.config.report_period_ms
            if not self._apply_command(msg.payload):
                self.refused_commands += 1
                return False
            applied_at = self.clock.now_ns()
            ack = E2SensMessage(
                msg_type=MsgType.CONTROL_ACK,
                correlation_id=msg.correlation_id,
                payload=ControlAckPayload(received_at, applied_at),
            )
            self.channel.send(encode_message(ack))
            return self.config.report_period_ms != period
        return False

    # -- run loop -----------------------------------------------------------

    def _emit(self) -> None:
        sub = self.machine.subscription
        report = self.sense_once()
        if sub.mode == SubscriptionMode.EVENT:
            if not evaluate_triggers(report, self.prev_report, self.trigger):
                self.prev_report = report
                return
        report = replace(report, t0=self.clock.now_ns())
        result = self.machine.step(SubEvent.INDICATION_READY, report=report)
        if result.violation:
            return
        frame = encode_message(result.emitted[0])
        if not send_telemetry(self.channel, frame):
            self.dropped_blocks += 1
        self.prev_report = report

    def _period_ns(self) -> int:
        return round(self.config.report_period_ms * 1e6)

    def run(self) -> None:
        """Serve the channel until stopped or the transport closes.

        Bursts keep to the report period's deadline grid. A burst that
        overruns its slot is followed by the next one after a short gap
        (``_LATE_GAP`` of the period), not a full period later, so the report
        interval grows with the burst time instead of jumping to twice the
        period. Deadlines are integer nanoseconds of ``self.clock``: a float
        of an epoch-anchored count keeps only about 256 ns of precision.
        """
        next_deadline = self.clock.now_ns() + self._period_ns()
        try:
            while not self._stop.is_set():
                now = self.clock.now_ns()
                if now >= next_deadline:
                    if self.machine.state == SubState.ACTIVE:
                        self._emit()
                    period = self._period_ns()
                    next_deadline = max(next_deadline + period,
                                        self.clock.now_ns() + round(_LATE_GAP * period))
                    continue
                try:
                    frame = self.channel.recv(timeout=(next_deadline - now) / 1e9)
                except Timeout:
                    continue
                if self._handle_frame(frame):
                    # A new subscription or period starts its cadence from
                    # the frame, not the old deadline grid.
                    next_deadline = self.clock.now_ns() + self._period_ns()
        except Disconnected:
            pass
        finally:
            self.machine.step(SubEvent.TRANSPORT_LOST)

    def start(self) -> None:
        self._thread = threading.Thread(target=self.run, name="sensing-dapp", daemon=True)
        self._thread.start()

    def stop(self, join_timeout: float = 5.0) -> None:
        self._stop.set()
        self.channel.close()
        if self._thread is not None:
            self._thread.join(join_timeout)
