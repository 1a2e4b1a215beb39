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

import logging
import math
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .clock import SharedClock
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
    SubState,
    TriggerConfig,
    decode_message,
    encode_message,
    valid_period,
    valid_trigger,
)
from .ofh import (BeamTable, IqBlock, SensingMetadata, WaveformConfig, decode_metadata,
                  lookup_waveform)
from .radio import SPEED_OF_LIGHT, EchoScene, RadioUnit, generate_probe
# Never called: perfbench/selftest.py checks that a traced run wraps
# dapp.apply_scene. It goes once that check reads radio's (ROADMAP item 4).
from .radio import apply_scene  # noqa: F401
from .transport import Backpressure, Channel, Disconnected, Timeout, share_loop_cpu

ECHO_ENERGY = "ECHO_ENERGY"
AOA_SHIFT = "AOA_SHIFT"

_log = logging.getLogger(__name__)

# Bins excluded around the main peak when hunting for the runner-up.
_CONFIDENCE_GUARD = 2

# Multipath gate: bins of the power delay profile at least this factor above
# the estimated noise floor contribute to the RMS spread.
_MULTIPATH_GATE_DB = 10.0


class DappError(Exception):
    pass


class BlockLengthMismatch(DappError):
    """IQ block length does not match the waveform configuration."""


def delay_doppler_map(block: IqBlock, cfg: WaveformConfig,
                      probe_grid: np.ndarray) -> np.ndarray:
    """Pilot-division periodogram: (fft_size delay bins) x (num_symbols Doppler bins).

    Delay bin width is 1/sample_rate; Doppler bin width is
    1/(num_symbols * symbol_duration). Values are squared magnitudes scaled so
    a unit-amplitude single path peaks at its power gain.
    """
    if len(block.samples) != cfg.samples_per_burst:
        raise BlockLengthMismatch(
            f"block has {len(block.samples)} samples, waveform needs {cfg.samples_per_burst}"
        )
    n, cp, m = cfg.fft_size, cfg.cp_length, cfg.num_symbols
    symbols = block.samples.reshape(m, n + cp)[:, cp:]
    rx_grid = np.fft.fft(symbols, axis=1)
    rx_grid /= math.sqrt(n)
    rx_grid /= probe_grid
    profile = np.fft.ifft(rx_grid, axis=1)        # subcarriers -> delay
    spectrum = np.fft.fft(profile, axis=0)        # symbols -> Doppler
    spectrum /= m
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
    """Largest value outside the block of bins within the guard of the peak, wrapping."""
    masked = power_map.copy()
    offsets = np.arange(-_CONFIDENCE_GUARD, _CONFIDENCE_GUARD + 1)
    masked[np.ix_((peak[0] + offsets) % power_map.shape[0],
                  (peak[1] + offsets) % power_map.shape[1])] = 0.0
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
    if sel.sum() <= 1 or not pdp.any():     # an all-zero profile has no spread
        return 0.0
    delays = np.nonzero(sel)[0] * bin_width_s
    weights = pdp[sel]
    total = weights.sum()
    # np.average's own formula, without its argument checks.
    mean = float(np.multiply(delays, weights).sum() / total)
    return float(math.sqrt(np.multiply((delays - mean) ** 2, weights).sum() / total))


def estimate_kpis(power_map: np.ndarray, cfg: WaveformConfig,
                  beam_table: BeamTable, beam_index: int, *,
                  waveform_id: int = 0,
                  sequence_number: int = 0) -> SensingReport:
    """Extract the telemetry record from one delay-Doppler map; the run loop stamps ``t0``."""
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


# Share of the report period a late burst waits before the next one, so the
# receiving side and inbound control get the interpreter between bursts.
_LATE_GAP = 0.1


class SensingDapp:
    """Single sensing pipeline instance bound to one transport channel.

    Owns its configuration, sequence counter, and subscription machine on one
    worker thread; the channel is the only cross-thread boundary. It hands
    the scene to its own ``ru`` and keeps only its seed, for the probe pilots;
    each report follows the waveform and beam the RU's metadata names. Control
    commands are applied as they arrive, always between emissions, and each is
    acknowledged with its receive and apply timestamps; one whose value its
    rule refuses is counted in ``refused_commands`` and left unanswered.
    An undecodable frame is counted by kind in ``decode_errors`` and dropped,
    and a frame of a type the dApp does not serve (an indication, a control
    ack or a subscription response) by type in ``unexpected_frames``.
    A burst that raises, say on a scene no burst can carry, or a probe that
    cannot be built for the subscribed waveform, is counted by kind in
    ``burst_errors`` and closes the subscription; the thread keeps serving.
    Every subscription request gets the machine's answer; a refused one, such
    as a second one while one is active, gets ``accepted=False`` and id 0.
    A burst that overran its slot is counted in ``late_bursts`` (see ``run``).

    ``start()`` starts the RU, pins the calling thread to the loop CPU and
    creates the worker thread, which inherits that CPU (see
    ``share_loop_cpu``); the caller stays pinned after ``stop()``, which
    closes the RU once the thread has joined. A dApp that is never started,
    as ``sense`` uses it, never starts its RU.
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
        self.ru = RadioUnit(scene, beam_table)
        self.probe_seed = scene.seed
        self.channel = channel
        self.clock = clock or SharedClock()
        self.machine = SubscriptionMachine()
        self.trigger = TriggerConfig()
        self.sequence_number = 0
        self.prev_report: SensingReport | None = None
        self.dropped_blocks = 0
        self.late_bursts = 0
        self.refused_commands = 0
        self.decode_errors: Counter[str] = Counter()
        self.burst_errors: Counter[str] = Counter()
        self.unexpected_frames: Counter[str] = Counter()
        self._probes: dict[int, tuple[WaveformConfig, np.ndarray, np.ndarray]] = {}
        self._thread: threading.Thread | None = None

    # -- pipeline -----------------------------------------------------------

    def _probe(self, waveform_id: int) -> tuple[WaveformConfig, np.ndarray, np.ndarray]:
        """A waveform's configuration, pilot grid and time-domain probe, built on first use."""
        if waveform_id not in self._probes:
            cfg = lookup_waveform(self.waveform_table, waveform_id)
            self._probes[waveform_id] = (cfg, *generate_probe(cfg, seed=self.probe_seed))
        return self._probes[waveform_id]

    def sense_once(self) -> SensingReport:
        """Send one probe through the RU and turn the echo its metadata names into a report."""
        cfg, _, time_probe = self._probe(self.config.waveform_id)
        sent = SensingMetadata(self.clock.now_ns(), self.config.waveform_id,
                               self.config.active_beam, sensing_flag=True)
        header, samples = self.ru.burst(time_probe, cfg, sent, self.config.sic_enabled,
                                        self.sequence_number)
        # The echo is processed as the waveform and beam its metadata name.
        meta = decode_metadata(header)
        cfg, grid, _ = self._probe(meta.waveform_id)
        power_map = delay_doppler_map(IqBlock(meta, samples), cfg, grid)
        self.sequence_number += 1
        return estimate_kpis(
            power_map, cfg, self.beam_table, meta.beam_index,
            waveform_id=meta.waveform_id,
            sequence_number=self.sequence_number,
        )

    # -- control ------------------------------------------------------------

    def _apply_command(self, cmd: ControlRequestPayload) -> bool:
        """Apply one command; False, with nothing changed, for a value its rule refuses."""
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
        elif valid_trigger(cmd.trigger):
            self.trigger = cmd.trigger
        else:
            return False
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
            result = self.machine.handle_request(msg.payload, msg.correlation_id)
            if not result.violation:
                self.prev_report = None  # a new subscription starts from first sight
                if msg.payload.mode == SubscriptionMode.PERIODIC:
                    self.config.report_period_ms = msg.payload.period_ms
                else:
                    self.trigger = msg.payload.trigger
            for out in result.emitted:
                self.channel.send(encode_message(out))
            return not result.violation
        if msg.msg_type == MsgType.CONTROL_REQUEST:
            received_at = self.clock.now_ns()
            period = self.config.report_period_ms
            if not self._apply_command(msg.payload):
                self.refused_commands += 1
                return False
            ack = ControlAckPayload(received_at, self.clock.now_ns())
            self.channel.send(encode_message(
                E2SensMessage(MsgType.CONTROL_ACK, msg.correlation_id, ack)))
            return self.config.report_period_ms != period
        self.unexpected_frames[msg.msg_type.name] += 1
        return False

    # -- run loop -----------------------------------------------------------

    def _close_failed(self, error: Exception, what: str) -> None:
        """Count a failed burst or probe build by kind, log it and close the subscription.

        Called from an ``except`` block, so the log carries the traceback.
        """
        self.burst_errors[type(error).__name__] += 1
        _log.exception("%s failed; subscription closed", what)
        self.machine.step(SubEvent.CLOSE)

    def _build_probe(self) -> None:
        """Build the subscribed waveform's probe, if not yet built, before its first burst."""
        try:
            self._probe(self.config.waveform_id)
        except Exception as e:
            self._close_failed(e, f"probe for waveform {self.config.waveform_id}")

    def _emit(self) -> None:
        try:
            report = self.sense_once()
        except Exception as e:
            self._close_failed(e, f"burst {self.sequence_number + 1}")
            return
        if self.machine.mode == SubscriptionMode.EVENT:
            if not evaluate_triggers(report, self.prev_report, self.trigger):
                self.prev_report = report
                return
        report = report._replace(t0=self.clock.now_ns())
        frame = encode_message(E2SensMessage(
            MsgType.INDICATION, self.machine.subscription_id, report))
        try:
            self.channel.send(frame, droppable=True)
        except Backpressure:
            self.dropped_blocks += 1
        self.prev_report = report

    def _period_ns(self) -> int:
        return round(self.config.report_period_ms * 1e6)

    def run(self) -> None:
        """Serve the channel until it closes: ``stop()`` closing it ends the loop.

        An accepted subscription takes its first deadline, then builds its
        waveform's probe inside that first period. While it is active, bursts
        keep to the report period's deadline grid, and a burst that overruns
        its slot is followed by the next one after ``_LATE_GAP`` of the
        period, so the report interval grows with the burst time instead of
        jumping to twice the period; every pass reads the channel, if only to
        poll it, so no period starves inbound control. With no active
        subscription there is no deadline: a pass waits for a frame.
        Deadlines are integer nanoseconds of ``self.clock``, as a float of an
        epoch-anchored count keeps only about 256 ns of precision.
        """
        next_deadline = 0  # taken by the accept that makes a subscription active
        try:
            while True:
                now = self.clock.now_ns()
                active = self.machine.state == SubState.ACTIVE
                if active and now >= next_deadline:
                    self._emit()
                    period = self._period_ns()
                    next_deadline += period
                    now = self.clock.now_ns()
                    late = now + round(_LATE_GAP * period)
                    if late > next_deadline:
                        next_deadline = late
                        self.late_bursts += 1
                try:
                    frame = self.channel.recv(
                        timeout=max(0, next_deadline - now) / 1e9 if active else None)
                except Timeout:
                    continue
                if self._handle_frame(frame):
                    # A new subscription or period starts its cadence from
                    # the frame, not the old deadline grid.
                    next_deadline = self.clock.now_ns() + self._period_ns()
                    # After the deadline is taken, so a cold build (the first
                    # imports numpy.random) runs inside the wait for it.
                    if self.machine.state == SubState.ACTIVE:
                        self._build_probe()
        except Disconnected:
            pass
        finally:
            self.machine.step(SubEvent.TRANSPORT_LOST)

    def start(self) -> None:
        # Before the pin, so that what the RU spawns does not inherit the loop CPU.
        self.ru.start(self.waveform_table.values())
        share_loop_cpu()
        self._thread = threading.Thread(target=self.run, name="sensing-dapp", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.channel.close()
        if self._thread is not None:
            self._thread.join(5.0)
        self.ru.close()

    def counters(self) -> dict:
        """Every failure this side counted, as ``summary.json`` writes it."""
        return {
            "dropped_blocks": self.dropped_blocks,
            "late_bursts": self.late_bursts,
            "local_noise_draws": self.ru.local_draws,
            "refused_commands": self.refused_commands,
            "decode_errors": dict(self.decode_errors),
            "burst_errors": dict(self.burst_errors),
            "unexpected_frames": dict(self.unexpected_frames),
            "protocol_violations": len(self.machine.violations) + self.machine.unnoted_violations,
            "transport_drops": self.channel.drops,
        }
