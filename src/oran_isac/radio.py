"""Synthetic monostatic radio environment: the simulated RU.

Generates the OFDM probing burst for a waveform configuration, then applies a
target scene to it in two steps. ``scene_echo`` builds the noise-free burst
seen on one beam: per-target round-trip delay (fractional, frequency-domain),
two-way Doppler rotation, beam-pattern gain and residual self-interference as
an attenuated zero-delay copy. It depends on the probe, the scene's targets
and SI level and the beam, never on the scene's seed. ``apply_scene`` adds
white Gaussian noise, calibrated to the strongest echo, to that echo; how the
noise is drawn is ``noise_helper``'s. Ground truth rides along with every
block so estimators can be verified against exact values.

``RadioUnit`` is the one place that decides how a burst is simulated: it holds
the scene, keeps one echo per waveform, beam and SIC state, raises the SI
level when SIC is off and seeds each burst's noise. It answers a burst request
with the block's encoded fronthaul metadata and its samples, as an RU would.

Conventions fixed here and relied on by the estimator:
  delay   = 2 * range / c
  doppler = 2 * radial_velocity * carrier_frequency / c   (receding => positive)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Iterable

import numpy as np

from .noise_helper import NoiseHelper, draw
from .ofh import BeamTable, IqBlock, SensingMetadata, WaveformConfig, encode_metadata
from .schema import json_float, json_int, json_list, load_json, read_document
from .transport import spare_cpus

SPEED_OF_LIGHT = 299_792_458.0

# Beam pattern: Gaussian mainlobe over azimuth offset with a sidelobe floor.
BEAMWIDTH_DEG = 10.0
SIDELOBE_FLOOR_DB = -30.0


class RadioSimError(Exception):
    pass


class DelayExceedsBurst(RadioSimError):
    """A target's round-trip delay does not fit inside the probing burst."""


class SceneParseError(Exception):
    """A scene document is not valid JSON or has a malformed field."""


@dataclass(frozen=True)
class Target:
    range_m: float                      # >= 0
    radial_velocity_mps: float = 0.0    # positive = receding
    azimuth_deg: float = 0.0
    amplitude: float = 1.0              # linear power gain

    def __post_init__(self) -> None:
        if self.range_m < 0:
            raise ValueError("range must be non-negative")
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")

    @property
    def delay_s(self) -> float:
        return 2.0 * self.range_m / SPEED_OF_LIGHT

    def doppler_hz(self, carrier_frequency: float) -> float:
        return 2.0 * self.radial_velocity_mps * carrier_frequency / SPEED_OF_LIGHT


@dataclass(frozen=True)
class EchoScene:
    """Ground-truth scene driving the simulator.

    snr_db = math.inf disables noise; residual_si_power_db = -math.inf
    disables the self-interference component. SNR is defined against the
    strongest single-target echo (or the unit-power probe when the scene is
    empty).
    """

    targets: tuple[Target, ...] = ()
    snr_db: float = math.inf
    residual_si_power_db: float = -math.inf
    seed: int = 0


@dataclass(frozen=True)
class GroundTruth:
    delays_s: tuple[float, ...]
    dopplers_hz: tuple[float, ...]


def beam_gain(target_azimuth_deg: float, beam_azimuth_deg: float) -> float:
    """Linear power gain of the probing beam toward an azimuth offset."""
    delta = abs(target_azimuth_deg - beam_azimuth_deg)
    delta = min(delta, 360.0 - delta)
    sigma = BEAMWIDTH_DEG / 2.0
    gain = math.exp(-((delta / sigma) ** 2))
    return max(gain, 10.0 ** (SIDELOBE_FLOOR_DB / 10.0))


def generate_probe(cfg: WaveformConfig, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Build the probing burst: (symbol grid, CP-extended time-domain samples).

    Pilot symbols are unit-magnitude QPSK drawn deterministically from
    (pilot_pattern, seed). The time-domain burst is normalized to unit
    average power.
    """
    pattern_seed = np.random.SeedSequence(
        [seed, int.from_bytes(cfg.pilot_pattern.encode(), "big") % 2**63]
    )
    rng = np.random.default_rng(pattern_seed)
    phases = rng.integers(0, 4, size=(cfg.num_symbols, cfg.fft_size))
    grid = np.exp(1j * (np.pi / 2.0) * phases + 1j * np.pi / 4.0)

    # ifft carries a 1/N factor; sqrt(N) restores unit average power for a
    # unit-magnitude frequency grid.
    time_syms = np.fft.ifft(grid, axis=1) * math.sqrt(cfg.fft_size)
    if cfg.cp_length:
        time_syms = np.concatenate([time_syms[:, -cfg.cp_length:], time_syms], axis=1)
    return grid, time_syms.reshape(-1)


def _fractional_delay(signal: np.ndarray, delay_samples: float) -> np.ndarray:
    """Circular delay over the whole burst via a frequency-domain phase ramp."""
    n = len(signal)
    freqs = np.fft.fftfreq(n)
    return np.fft.ifft(np.fft.fft(signal) * np.exp(-2j * np.pi * freqs * delay_samples))


@dataclass(frozen=True)
class SceneEcho:
    """Noise-free burst for one (probe, scene targets and SI, beam)."""

    samples: np.ndarray       # target echoes plus residual SI copy; read-only
    ref_power: float          # strongest single-target echo power, 1.0 if none
    truth: GroundTruth


def check_targets_fit(targets: tuple[Target, ...], cfg: WaveformConfig) -> None:
    """Raise ``DelayExceedsBurst`` for the first target whose echo outlasts the burst."""
    for t in targets:
        if t.delay_s >= cfg.burst_duration:
            raise DelayExceedsBurst(
                f"target at {t.range_m} m: delay {t.delay_s:.3e} s >= burst "
                f"{cfg.burst_duration:.3e} s"
            )


def scene_echo(probe: np.ndarray, cfg: WaveformConfig, scene: EchoScene,
               beam: int, beam_table: BeamTable) -> SceneEcho:
    """Propagate the probe through the scene's targets on one beam, without noise."""
    check_targets_fit(scene.targets, cfg)
    fs = cfg.sample_rate
    beam_az, _ = beam_table.direction(beam)

    delays, dopplers = [], []
    rx = np.zeros_like(probe)
    n = np.arange(len(probe))
    echo_powers = []
    for t in scene.targets:
        delay = t.delay_s
        doppler = t.doppler_hz(cfg.carrier_frequency)
        power = t.amplitude * beam_gain(t.azimuth_deg, beam_az)
        echo = _fractional_delay(probe, delay * fs)
        echo = echo * np.exp(2j * np.pi * doppler * n / fs)
        rx = rx + math.sqrt(power) * echo
        delays.append(delay)
        dopplers.append(doppler)
        echo_powers.append(power)

    ref_power = max(echo_powers) if echo_powers else 1.0

    if scene.residual_si_power_db > -math.inf:
        si_amp = math.sqrt(ref_power * 10.0 ** (scene.residual_si_power_db / 10.0))
        rx = rx + si_amp * probe

    # Shared by every burst built on it: nobody may write to it.
    rx.flags.writeable = False
    return SceneEcho(rx, ref_power, GroundTruth(tuple(delays), tuple(dopplers)))


def apply_scene(probe: np.ndarray, cfg: WaveformConfig, scene: EchoScene,
                beam: int, beam_table: BeamTable, *,
                echo: SceneEcho | None = None, noise: np.ndarray | None = None,
                waveform_id: int = 0, tx_timestamp: int = 0) -> tuple[IqBlock, GroundTruth]:
    """Propagate the probe through the scene as seen on one probing beam.

    ``echo`` is a ``scene_echo`` result for the same probe, cfg and beam;
    given, it stands for the scene's targets and SI level, which are not
    read. ``noise`` is ``noise_helper.draw(seed, 2 * len(probe))`` for the
    burst's seed; given, ``scene.seed`` is not read.
    """
    if echo is None:
        echo = scene_echo(probe, cfg, scene, beam, beam_table)
    rx = echo.samples
    if scene.snr_db < math.inf:
        n = len(rx)
        if noise is None:
            noise = draw(scene.seed, 2 * n)
        noise_power = echo.ref_power / 10.0 ** (scene.snr_db / 10.0)
        scaled = noise * math.sqrt(noise_power / 2.0)
        rx = rx.copy()
        rx.real += scaled[:n]
        rx.imag += scaled[n:]

    meta = SensingMetadata(tx_timestamp, waveform_id, beam, sensing_flag=True)
    return IqBlock(meta, rx), echo.truth


# Residual self-interference when the canceler is switched off: no
# suppression, SI as strong as the echo.
_SIC_OFF_SI_DB = 0.0


class RadioUnit:
    """The simulated RU: one scene seen on the beams of one beam table.

    ``start`` gives a noisy scene's RU a ``NoiseHelper`` on
    ``transport.spare_cpus()``, sized for the longest waveform it is given,
    and ``close``, safe on any RU and more than once, ends it. ``local_draws``
    counts the bursts whose noise was drawn on the caller's CPU: with no
    helper, one gone, or a draw that had not arrived.
    """

    def __init__(self, scene: EchoScene, beam_table: BeamTable) -> None:
        self.scene = scene
        self.beam_table = beam_table
        self._echoes: dict[tuple[int, int, bool], SceneEcho] = {}
        self.helper: NoiseHelper | None = None
        self.local_draws = 0

    def start(self, waveforms: Iterable[WaveformConfig]) -> None:
        if self.scene.snr_db < math.inf:  # a noiseless burst draws nothing
            max_samples = max((cfg.samples_per_burst for cfg in waveforms), default=0)
            self.helper = NoiseHelper.start(2 * max_samples, spare_cpus())

    def close(self) -> None:
        if self.helper is not None:
            self.helper.close()

    def burst(self, probe: np.ndarray, cfg: WaveformConfig, meta: SensingMetadata,
              sic_enabled: bool, index: int) -> tuple[bytes, np.ndarray]:
        """Send ``probe`` on ``meta``'s beam; returns the echo's encoded metadata and samples."""
        scene, beam = self.scene, meta.beam_index
        key = (meta.waveform_id, beam, sic_enabled)  # a waveform id names one waveform
        echo = self._echoes.get(key)
        if echo is None:
            sic_scene = scene if sic_enabled else replace(
                scene, residual_si_power_db=max(scene.residual_si_power_db, _SIC_OFF_SI_DB))
            echo = self._echoes[key] = scene_echo(probe, cfg, sic_scene, beam, self.beam_table)
        noise = None
        if scene.snr_db < math.inf:
            seed, length = scene.seed + index, 2 * len(probe)
            if self.helper is not None:
                noise = self.helper.take(seed, length)
                # The next burst's draw overlaps this one's DSP on the DU.
                self.helper.request(seed + 1, length)
            if noise is None:
                self.local_draws += 1
                noise = draw(seed, length)
        block, _ = apply_scene(probe, cfg, scene, beam, self.beam_table, echo=echo,
                               noise=noise, waveform_id=meta.waveform_id,
                               tx_timestamp=meta.tx_timestamp)
        return encode_metadata(block.metadata), block.samples


_TARGET_FIELDS = dict.fromkeys(
    ("range_m", "radial_velocity_mps", "azimuth_deg", "amplitude"), json_float)


_SCENE_FIELDS = {
    "targets": json_list(partial(read_document, build=Target, fields=_TARGET_FIELDS,
                                 error=SceneParseError, where="scene target",
                                 required=("range_m",))),
    "snr_db": json_float,
    "residual_si_power_db": json_float,
    "seed": json_int,
}


def scene_from_dict(doc: dict) -> EchoScene:
    """Build a scene from its parsed JSON document.

    A missing ``snr_db`` means no noise, a missing ``residual_si_power_db``
    means no self-interference. A malformed or unknown field raises ``SceneParseError``.
    """
    return read_document(doc, EchoScene, _SCENE_FIELDS, SceneParseError, "scene")


def load_scene(path: str | Path) -> EchoScene:
    """Read a scene description from a JSON document."""
    return scene_from_dict(load_json(path, SceneParseError))
